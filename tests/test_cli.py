import csv
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadrobin
import quadrobin.cli as cli
from quadrobin import certificates as certs
from quadrobin.cli import RunConfig, main
from quadrobin.errors import EigenSolveError
from quadrobin.geometry import QuadParams, hausdorff_distance_to_square
from quadrobin.square_exact import solve_square


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_square_artifact(capsys):
    code, out, _ = run_cli(capsys, "solve-square", "--alpha", "-1", "--S", "1")
    assert code == 0
    artifact = json.loads(out)
    assert artifact["schema_version"] == 1
    sol = solve_square(-1.0, 1.0)
    assert artifact["result"]["solution"]["lambda1"] == pytest.approx(sol.lambda1)
    assert artifact["result"]["solution"]["t_star"] == pytest.approx(sol.t_star)
    # the echoed configuration reparses into the structure that produced it
    cfg = RunConfig.from_dict(artifact["config"])
    assert cfg.command == "solve-square"
    assert cfg.alpha == -1.0


def test_solve_quad_and_output_file(capsys, tmp_path):
    out_path = tmp_path / "artifact.json"
    code, out, _ = run_cli(
        capsys,
        "solve-quad", "--a1", "0.3", "--a2", "-0.2", "--c", "1.3", "--S1", "0.55",
        "--alpha", "-1", "--mesh", "12", "--out", str(out_path),
    )
    assert code == 0
    artifact = json.loads(out_path.read_text())
    from quadrobin.geometry import QuadParams
    from quadrobin.solver import solve_quad

    expected = solve_quad(QuadParams(0.3, -0.2, 1.3, 0.55), -1.0, 12).lambda_h
    assert artifact["result"]["lambda_h"] == pytest.approx(expected, rel=1e-12)


def test_gradient_and_hessian_methods(capsys):
    base = ["--a1", "0.2", "--c", "1.1", "--S1", "0.9", "--alpha", "-1", "--mesh", "8"]
    code, out, _ = run_cli(capsys, "gradient", *base)
    assert code == 0
    grad_report = json.loads(out)["result"]["report"]
    assert grad_report["method"] == "discrete_formula"
    code, out, _ = run_cli(capsys, "hessian", *base, "--method", "fd")
    assert code == 0
    hess_report = json.loads(out)["result"]["report"]
    assert hess_report["method"] == "finite_difference"
    H = np.array(hess_report["hessian"])
    assert np.allclose(H, H.T, atol=1e-6)


def test_hessian_closed_form_at_square(capsys):
    code, out, _ = run_cli(
        capsys, "hessian", "--alpha", "-1", "--mesh", "8", "--method", "closed"
    )
    assert code == 0
    H = np.array(json.loads(out)["result"]["report"]["hessian"])
    assert H[0, 2] == 0.0 and H[2, 3] == 0.0
    assert np.all(np.diag(H) < 0)


def test_gradient_closed_form_is_the_closed_form_or_refused(capsys):
    square = ["--alpha", "-1", "--mesh", "8", "--method", "closed"]
    code, out, _ = run_cli(capsys, "gradient", *square)
    assert code == 0
    report = json.loads(out)["result"]["report"]
    assert report["method"] == "closed_form"
    assert report["gradient"] == [0.0, 0.0, 0.0, 0.0]
    # off the square the closed form does not exist: refused, as by hessian
    code, _, err = run_cli(capsys, "gradient", "--a1", "0.3", *square)
    assert code == 2
    assert "square only" in json.loads(err)["error"]["message"]


def test_certify_kinds(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--a1", "6", "--c", "1", "--S1", "1", "--alpha", "-1"
    )
    assert code == 0
    certs = json.loads(out)["result"]["certificates"]
    assert [c["kind"] for c in certs] == [
        "small_alpha", "trial_one", "large_alpha_asymptotic",
    ]
    code, out, _ = run_cli(
        capsys, "certify", "--c", "1.5", "--S1", "1", "--kind", "asymptotic"
    )
    assert code == 0
    (cert,) = json.loads(out)["result"]["certificates"]
    assert cert["verdict"] == "certified_less"


def test_validation_errors_exit_2_with_error_object(capsys):
    code, out, err = run_cli(capsys, "solve-square")  # missing alpha
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    code, _, err = run_cli(capsys, "sweep", "--grid", "bogus", "--alpha", "-1")
    assert code == 2
    assert "grid" in json.loads(err)["error"]["message"]
    code, _, err = run_cli(capsys, "solve-quad", "--alpha", "-1", "--c", "-2")
    assert code == 2
    code, _, err = run_cli(capsys, "sweep", "--grid", "a1=0:1:2000000", "--alpha", "-1")
    assert code == 2


def test_sweep_csv_ordering_and_max_at_square(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--grid", "a1=-0.1:0.1:5", "--alpha", "-1", "--mesh", "8"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["index"]) for r in rows] == [0, 1, 2, 3, 4]
    lams = [float(r["lambda_h"]) for r in rows]
    assert np.argmax(lams) == 2  # the square gridpoint
    assert set(rows[0]) == {
        "index", "a1", "a2", "c", "S1", "S", "alpha", "mesh", "lambda_h", "residual",
    }


def test_sweep_json_and_cartesian_grid(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--grid", "a1=-0.05:0.05:3", "--grid", "alpha=-2:-1:2",
        "--mesh", "8", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["result"]["rows"]
    assert len(rows) == 6
    assert [r["index"] for r in rows] == list(range(6))
    assert rows[0]["alpha"] == -2.0 and rows[1]["alpha"] == -1.0


def test_verify_theorem1(capsys):
    code, out, _ = run_cli(capsys, "verify-theorem1", "--alpha", "-1", "--mesh", "16")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["checks"]["negative_definite"] is True
    assert all(m < 0 for m in result["verdict"]["mu"])


def test_verify_theorem2(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify-theorem2", "--a1", "0.5", "--c", "1", "--S1", "1", "--mesh", "16",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["empirical_crossovers"]["small_alpha"] is not None
    assert all(c["quad_below_square"] for c in result["fem_checks"])


def test_verify_theorem2_compares_with_the_exact_square(capsys, monkeypatch):
    calls = []
    solve_quad = cli.solve_quad
    monkeypatch.setattr(cli, "solve_quad", lambda *a, **k: calls.append(a) or solve_quad(*a, **k))
    code, out, _ = run_cli(
        capsys,
        "verify-theorem2", "--a1", "0.5", "--c", "1", "--S1", "1", "--mesh", "16",
    )
    assert code == 0
    checks = json.loads(out)["result"]["fem_checks"]
    assert len(checks) == 2
    # one finite-element solve per check, of Q; the square's value is exact
    assert len(calls) == len(checks)
    assert all(not p.is_square() for p, *_ in calls)
    for check in checks:
        assert check["lambda_square"] == solve_square(check["alpha"], 1.0).lambda1
        assert check["lambda_quad"] < check["lambda_square"]


def test_verify_theorem3(capsys):
    code, out, _ = run_cli(
        capsys, "verify-theorem3", "--alpha", "-0.5", "--trials", "4"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["violations"] == []
    assert result["outside_samples_checked"] == 4
    assert result["radius"] > 0


def test_sweep_with_worker_pool_matches_serial(capsys, monkeypatch):
    argv = ["sweep", "--grid", "a1=-0.05:0.05:4", "--alpha", "-1", "--mesh", "6"]
    code, serial, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("QUADROBIN_THREADS", "2")
    code, pooled, _ = run_cli(capsys, *argv)
    assert code == 0
    assert pooled == serial  # rows in grid order regardless of worker count


def test_square_requires_nonzero_alpha_everywhere(capsys):
    code, _, err = run_cli(capsys, "verify-theorem1", "--alpha", "0.5", "--mesh", "8")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_theorem3_rejects_trial_counts_below_one(capsys, trials):
    code, out, err = run_cli(
        capsys, "verify-theorem3", "--alpha", "-1", "--trials", trials
    )
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and "--trials" in error["message"]


def test_python_dash_m_runs_the_cli():
    src = str(Path(quadrobin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "quadrobin", "solve-square", "--alpha", "-1"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["command"] == "solve-square"


@pytest.mark.parametrize("cpus, expected", [(8, 3), (2, 2)])
def test_sweep_worker_count_is_capped(capsys, monkeypatch, cpus, expected):
    started = []

    class RecordingPool:  # starts no process: maps in this one
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return list(map(fn, tasks))

    argv = ["sweep", "--grid", "a1=-0.05:0.05:3", "--alpha", "-1", "--mesh", "4"]
    code, serial, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setenv("QUADROBIN_THREADS", "64")
    code, pooled, _ = run_cli(capsys, *argv)
    assert code == 0
    assert started == [expected]
    assert pooled == serial


def _unscreened_theorem3(alpha, S, trials):
    """The verify-theorem3 draw loop written out, with the full rotation search
    on every draw: (exit code, result, number of draws)."""
    radius = certs.hausdorff_threshold(alpha, S)
    th = certs.parameter_thresholds(alpha, S)
    rng = np.random.default_rng(20240817)
    c0 = math.sqrt(S)
    draws = 0
    outside_checked = 0
    violations = []
    samples = []
    while outside_checked < trials:
        mode = rng.integers(0, 4)
        a1, a2, c, S1 = 0.0, 0.0, c0, S
        scale = 1.0 + rng.uniform(0.05, 3.0)
        if mode == 0:
            a1 = float(rng.choice([-1.0, 1.0])) * th.A * scale
            a2 = float(rng.uniform(-2, 2))
        elif mode == 1:
            c = th.c1 * scale
        elif mode == 2:
            c = th.c2 / scale
        else:
            S1 = float(th.S_tilde / scale) if rng.random() < 0.5 else float(
                2 * S - th.S_tilde / scale
            )
        c = min(max(c, 1e-6), 1e9)
        S1 = min(max(S1, 1e-12), 2 * S - 1e-12)
        p = QuadParams(a1, a2, c, S1, S)
        d = hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
        draws += 1
        if d <= radius:
            continue
        outside_checked += 1
        fired = certs.threshold_conditions(p, alpha, th)
        samples.append({"params": p.to_dict(), "d_H": d, "conditions": fired})
        if not fired:
            violations.append(samples[-1])
    return (0 if not violations else 1), {
        "radius": radius,
        "thresholds": th.to_dict(),
        "outside_samples_checked": outside_checked,
        "violations": violations,
        "samples": samples[:10],
    }, draws


@pytest.mark.parametrize("alpha", [-1.0, -2.0])
def test_verify_theorem3_searches_once_per_draw(capsys, monkeypatch, alpha):
    expected_code, expected, draws = _unscreened_theorem3(alpha, 1.0, 30)
    searches = []

    def counting(p, rotations=720, samples_per_edge=1000):
        searches.append((rotations, samples_per_edge))
        return hausdorff_distance_to_square(p, rotations, samples_per_edge)

    monkeypatch.setattr(cli, "hausdorff_distance_to_square", counting)
    code, out, _ = run_cli(
        capsys, "verify-theorem3", "--alpha", str(alpha), "--trials", "30"
    )
    assert code == expected_code
    artifact = json.loads(out)
    assert out == json.dumps({**artifact, "result": expected}, indent=2, default=float) + "\n"
    assert artifact["result"]["outside_samples_checked"] == 30
    assert searches == [(180, 250)] * draws


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-square", "--alpha", "nan"],
        ["solve-quad", "--alpha", "nan"],
        ["solve-square", "--alpha=-inf"],
        ["sweep", "--grid", "alpha=nan:-1:3", "--mesh", "8"],
    ],
)
def test_non_finite_alpha_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "validation"


@pytest.mark.parametrize(
    "code, returncode, marker",
    [
        ("from quadrobin.cli import main; raise SystemExit(main(['solve-square', '--alpha', 'inf']))",
         2, '"validation"'),
        ("import math; from quadrobin.square_exact import solve_square; solve_square(math.inf)",
         1, "DomainError"),
    ],
)
def test_infinite_alpha_returns_instead_of_hanging(code, returncode, marker):
    # in a child process, so a regression fails on the timeout instead of hanging
    src = str(Path(quadrobin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == returncode, out.stderr
    assert marker in out.stderr


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0"])
def test_non_finite_or_non_positive_S_is_a_validation_error(capsys, value):
    code, out, err = run_cli(capsys, "solve-square", "--alpha", "-1", f"--S={value}")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation"
    assert error["message"].startswith("--S ")


# the flags each command reads; "geometry" is --a1 --a2 --c --S1 --S
_GEOMETRY = ["a1", "a2", "c", "S1", "S"]
_OWN_FLAGS = {
    "solve-square": ["alpha", "S", "out"],
    "solve-quad": [*_GEOMETRY, "alpha", "mesh", "out"],
    "gradient": [*_GEOMETRY, "alpha", "mesh", "method", "out"],
    "hessian": [*_GEOMETRY, "alpha", "mesh", "method", "out"],
    "certify": [*_GEOMETRY, "alpha", "kind", "out"],
    "sweep": [*_GEOMETRY, "alpha", "mesh", "grid", "format", "out"],
    "verify-theorem1": ["alpha", "S", "mesh", "out"],
    "verify-theorem2": [*_GEOMETRY, "mesh", "out"],
    "verify-theorem3": ["alpha", "S", "trials", "out"],
}
_FLAG_VALUES = {
    "a1": "0.1", "a2": "0.1", "c": "1.1", "S1": "0.9", "S": "1", "alpha": "-1", "mesh": "8",
    "method": "fd", "kind": "trial", "grid": "a1=0:1:2", "format": "json", "trials": "3",
    "out": "artifact.json",
}


@pytest.mark.parametrize("command", list(_OWN_FLAGS))
def test_each_command_accepts_only_the_flags_it_reads(capsys, command):
    own = _OWN_FLAGS[command]
    args = cli._build_parser().parse_args(
        [command, *(x for f in own for x in (f"--{f}", _FLAG_VALUES[f]))]
    )
    assert set(vars(args)) == {"command", *own}
    for flag in sorted(set(_FLAG_VALUES) - set(own)):
        with pytest.raises(SystemExit) as info:
            main([command, f"--{flag}", _FLAG_VALUES[flag]])
        assert info.value.code == 2, (command, flag)
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err, (command, flag)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-theorem1", "--a1", "0.5", "--c", "2", "--alpha", "-1", "--mesh", "8"],
        ["solve-quad", "--alpha", "-1", "--mesh", "8", "--format", "csv"],
        ["verify-theorem3", "--alpha", "-1", "--a1", "7", "--mesh", "3"],
        ["solve-square", "--alpha", "-1", "--mesh", "2", "--c", "9"],
    ],
)
def test_flags_a_command_would_ignore_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_oversize_grid_count_is_refused_before_allocation(capsys, monkeypatch):
    counts = []
    linspace = np.linspace

    def recording_linspace(lo, hi, num=50, *args, **kwargs):
        counts.append(num)
        if num > cli.GRID_CELL_CAP:
            raise AssertionError(f"linspace asked for {num} points")
        return linspace(lo, hi, num, *args, **kwargs)

    monkeypatch.setattr(np, "linspace", recording_linspace)
    for count in (cli.GRID_CELL_CAP + 1, 10**15):
        code, out, err = run_cli(
            capsys, "sweep", "--grid", f"a1=0:1:{count}", "--alpha", "-1", "--mesh", "8"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "validation" and str(cli.GRID_CELL_CAP) in error["message"]
    assert counts == []
    assert list(cli._parse_grid("a1=0:1:5")[1]) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert counts == [5]


def test_grid_cell_count_is_exact_beyond_int64(capsys):
    # 769546 * 494770 * 8681 * 5581 = 2**64 + 4: an int64 product wraps to 4 cells
    code, out, err = run_cli(
        capsys, "sweep", "--grid", "a1=-1:1:769546", "--grid", "a2=-1:1:494770",
        "--grid", "c=0.5:2:8681", "--grid", "S1=0.5:1.5:5581", "--alpha", "-1", "--mesh", "8",
    )
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "validation" and f"{2**64 + 4} cells" in error["message"]


def test_oversize_mesh_is_refused_before_any_mesh_is_built(capsys, monkeypatch):
    levels = []

    def recording_build_mesh(n, S=1.0):
        levels.append(n)
        raise AssertionError(f"build_mesh asked for level {n}")

    for module in ("quadrobin.cli", "quadrobin.sensitivity"):
        monkeypatch.setattr(f"{module}.build_mesh", recording_build_mesh)
    for command in ("solve-quad", "gradient", "hessian", "verify-theorem1"):
        for level in (cli.MESH_LEVEL_CAP + 1, 100000):
            code, out, err = run_cli(capsys, command, "--alpha", "-1", "--mesh", str(level))
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "validation" and str(cli.MESH_LEVEL_CAP) in error["message"]
    for argv in (
        ["sweep", "--grid", "a1=0:1:2", "--alpha", "-1"],
        ["verify-theorem2", "--a1", "0.5", "--c", "1", "--S1", "1"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--mesh", str(cli.MESH_LEVEL_CAP + 1))
        assert code == 2 and out == ""
    assert levels == []
    args = cli._build_parser().parse_args(
        ["solve-quad", "--alpha", "-1", "--mesh", str(cli.MESH_LEVEL_CAP)]
    )
    assert cli._config_from_args(args).mesh == cli.MESH_LEVEL_CAP


@pytest.mark.parametrize(
    "argv, code",
    [
        (["solve-quad", "--c", "1e-200", "--alpha", "-1", "--mesh", "16"], 3),
        (["solve-quad", "--a1", "1e200", "--alpha", "-1", "--mesh", "16"], 3),
        (["verify-theorem2", "--a1", "1e200", "--mesh", "8"], 3),
        (["certify", "--c", "1e-200", "--alpha", "-1"], 3),
        (["solve-square", "--alpha=-600"], 2),
        (["solve-square", "--alpha=-501"], 2),
        # the positive branch's root t tan t = alpha L lies within one ulp of pi/2
        (["solve-square", "--alpha=1e17"], 2),
    ],
)
def test_extreme_finite_inputs_fail_typed(capsys, argv, code):
    returned, out, err = run_cli(capsys, *argv)
    assert returned == code and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == ("numerical" if code == 3 else "validation")
    assert error["message"]


def test_integer_diagnostics_stay_integers():
    exc = EigenSolveError("x", {"index": 7, "dof": np.int64(25), "residual": np.float64(0.5)})
    diagnostics = json.loads(cli._error_object("numerical", exc))["error"]["diagnostics"]
    assert diagnostics == {"index": 7, "dof": 25, "residual": 0.5}
    assert isinstance(diagnostics["index"], int) and isinstance(diagnostics["dof"], int)
