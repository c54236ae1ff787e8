"""Import graph: scipy loads only on the finite-element path, and no command
loads ``quadrobin.oracles``.

The closed-form commands (certify, solve-square, verify-theorem3) never call
scipy, so neither importing the package nor running them may load it.  The
oracles are independent cross-checks for the tests; the runtime never
imports them.  Each check runs in a fresh interpreter, since this test
process has both loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import quadrobin
from quadrobin import QuadParams, solve_quad

SRC = str(Path(quadrobin.__file__).resolve().parents[1])

# runs ``argv`` (if any) through cli.main with stdout captured, then prints
# {"codes": [...], "stdout": [...], "scipy": [loaded scipy modules],
#  "oracles": whether quadrobin.oracles was loaded}
_PROBE = """
import contextlib, io, json, sys
import quadrobin, quadrobin.cli, quadrobin.solver, quadrobin.assembly, quadrobin.sensitivity
codes, outs = [], []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes.append(quadrobin.cli.main(argv))
    outs.append(out.getvalue())
print(json.dumps({"codes": codes, "stdout": outs,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "oracles": "quadrobin.oracles" in sys.modules}))
"""


def _probe(*argvs):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(argvs)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy():
    assert _probe()["scipy"] == []


def test_closed_form_commands_load_no_scipy():
    report = _probe(
        ["certify", "--a1", "6", "--c", "1", "--S1", "1", "--alpha", "-1"],
        ["solve-square", "--alpha", "-2"],
        ["verify-theorem3", "--alpha", "-1", "--trials", "5"],
    )
    assert report["codes"] == [0, 0, 0]
    assert report["scipy"] == []


def test_fresh_finite_element_solve_matches_in_process():
    report = _probe(["solve-quad", "--alpha", "-1", "--mesh", "16"])
    assert report["codes"] == [0]
    assert "scipy.sparse.linalg" in report["scipy"]
    fresh = json.loads(report["stdout"][0])["result"]["lambda_h"]
    assert fresh == solve_quad(QuadParams.square(), -1.0, 16).lambda_h


def test_no_command_loads_the_oracles():
    report = _probe(
        ["solve-quad", "--alpha", "-1", "--mesh", "8"],
        ["gradient", "--a1", "0.2", "--alpha", "-1", "--mesh", "8", "--method", "fd"],
        ["hessian", "--alpha", "-1", "--mesh", "8", "--method", "closed"],
        ["certify", "--a1", "6", "--c", "1", "--S1", "1", "--alpha", "-1"],
        ["sweep", "--grid", "a1=-1:1:3", "--alpha", "-1", "--mesh", "8"],
        ["verify-theorem1", "--alpha", "-1", "--mesh", "8"],
        ["verify-theorem2", "--a1", "0.5", "--c", "1", "--S1", "1", "--mesh", "8"],
        ["verify-theorem3", "--alpha", "-1", "--trials", "5"],
    )
    assert report["codes"] == [0] * 8
    assert report["oracles"] is False
