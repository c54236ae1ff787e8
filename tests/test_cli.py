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
    """The verify-theorem3 draw loop with the full rotation search on every
    draw, as it ran before the one-rotation screen."""
    radius = certs.hausdorff_threshold(alpha, S)
    th = certs.parameter_thresholds(alpha, S)
    rng = np.random.default_rng(20240817)
    c0 = math.sqrt(S)
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
    }


@pytest.mark.parametrize("alpha", [-1.0, -2.0])
def test_verify_theorem3_screen_keeps_the_artifact(capsys, monkeypatch, alpha):
    expected_code, expected = _unscreened_theorem3(alpha, 1.0, 30)
    full_searches = []

    def counting(p, rotations=720, samples_per_edge=1000):
        if rotations == 180:
            full_searches.append(p)
        return hausdorff_distance_to_square(p, rotations, samples_per_edge)

    monkeypatch.setattr(cli, "hausdorff_distance_to_square", counting)
    code, out, _ = run_cli(
        capsys, "verify-theorem3", "--alpha", str(alpha), "--trials", "30"
    )
    assert code == expected_code
    artifact = json.loads(out)
    assert out == json.dumps({**artifact, "result": expected}, indent=2, default=float) + "\n"
    assert len(full_searches) == artifact["result"]["outside_samples_checked"] == 30


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
