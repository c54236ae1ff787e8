"""Command-line interface: solves, sweeps, sensitivity reports, certificates.

Artifacts are JSON (with a schema_version field and the full resolved
configuration echoed back) or RFC-4180-style CSV with a header row.  All
outputs are deterministic for a fixed configuration and QUADROBIN_THREADS=1;
sweep rows are always emitted in grid order regardless of worker completion
order.  Validation failures exit with status 2 and a machine-readable error
object on stderr; numerical failures exit with status 3; verification
commands exit 0 only if every requested check passes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import certificates as certs
from .errors import EigenSolveError, QuadRobinError
from .geometry import QuadParams, hausdorff_distance_to_square
from .mesh import build_mesh
from .sensitivity import sensitivity_report, verify_local_max
from .solver import solve_quad
from .square_exact import solve_square

SCHEMA_VERSION = 1
GRID_CELL_CAP = 10**6
_GRID_NAMES = ("a1", "a2", "c", "S1", "alpha")


class ValidationError(QuadRobinError):
    pass


@dataclass
class RunConfig:
    """Resolved configuration of one CLI invocation (echoed into artifacts)."""

    command: str
    a1: float = 0.0
    a2: float = 0.0
    c: float | None = None
    S1: float | None = None
    S: float = 1.0
    alpha: float | None = None
    mesh: int = 64
    method: str = "discrete_formula"
    kind: str = "all"
    grids: dict = field(default_factory=dict)
    out: str | None = None
    format: str = "json"
    trials: int = 30

    def params(self) -> QuadParams:
        c = math.sqrt(self.S) if self.c is None else self.c
        S1 = self.S if self.S1 is None else self.S1
        return QuadParams(self.a1, self.a2, c, S1, self.S)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "a1": self.a1,
            "a2": self.a2,
            "c": self.c,
            "S1": self.S1,
            "S": self.S,
            "alpha": self.alpha,
            "mesh": self.mesh,
            "method": self.method,
            "kind": self.kind,
            "grids": {k: list(v) for k, v in self.grids.items()},
            "out": self.out,
            "format": self.format,
            "trials": self.trials,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        cfg = cls(command=data["command"])
        for key, value in data.items():
            if key == "grids":
                cfg.grids = {k: list(v) for k, v in value.items()}
            elif hasattr(cfg, key):
                setattr(cfg, key, value)
        return cfg


def _parse_grid(spec: str) -> tuple[str, np.ndarray]:
    try:
        name, rng = spec.split("=", 1)
        lo, hi, count = rng.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError as exc:
        raise ValidationError(
            f"grid must look like name=lo:hi:count, got {spec!r}"
        ) from exc
    if name not in _GRID_NAMES:
        raise ValidationError(f"grid name must be one of {_GRID_NAMES}, got {name!r}")
    if count < 1:
        raise ValidationError(f"grid count must be >= 1, got {count}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"grid bounds must be finite, got {spec!r}")
    return name, np.linspace(lo, hi, count)


def _threads(cells: int) -> int:
    """Sweep workers: QUADROBIN_THREADS, capped by the CPU count and the cells."""
    try:
        requested = int(os.environ.get("QUADROBIN_THREADS", "1"))
    except ValueError:
        return 1
    return max(1, min(requested, os.cpu_count() or 1, cells))


@lru_cache(maxsize=None)
def _cached_mesh(n: int, S: float):
    return build_mesh(n, S)


def _sweep_cell(task):
    index, pdict, alpha, n = task
    p = QuadParams.from_dict(pdict)
    state = solve_quad(p, alpha, _cached_mesh(n, p.S))
    return {
        "index": index,
        "a1": p.a1,
        "a2": p.a2,
        "c": p.c,
        "S1": p.S1,
        "S": p.S,
        "alpha": alpha,
        "mesh": n,
        "lambda_h": state.lambda_h,
        "residual": state.residual,
    }


def _run_sweep(cfg: RunConfig) -> list[dict]:
    names = list(cfg.grids)
    axes = [cfg.grids[name] for name in names]
    total = int(np.prod([len(a) for a in axes])) if axes else 0
    if total == 0:
        raise ValidationError("sweep requires at least one non-empty --grid")
    if total > GRID_CELL_CAP:
        raise ValidationError(f"grid has {total} cells, above the cap {GRID_CELL_CAP}")
    base = cfg.params().to_dict()
    tasks = []
    for index, combo in enumerate(
        np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    ):
        pdict = dict(base)
        alpha = cfg.alpha
        for name, value in zip(names, combo):
            if name == "alpha":
                alpha = float(value)
            else:
                pdict[name] = float(value)
        if alpha is None or alpha == 0.0:
            raise ValidationError("sweep needs a nonzero alpha (flag or grid)")
        tasks.append((index, pdict, alpha, cfg.mesh))
    workers = _threads(len(tasks))
    if workers == 1:
        return [_sweep_cell(t) for t in tasks]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return pool.map(_sweep_cell, tasks)


_SWEEP_COLUMNS = [
    "index", "a1", "a2", "c", "S1", "S", "alpha", "mesh", "lambda_h", "residual",
]


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_SWEEP_COLUMNS, lineterminator="\r\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_code, artifact dict)


def _cmd_solve_square(cfg: RunConfig):
    sol = solve_square(cfg.alpha, cfg.S)
    return 0, {"solution": sol.to_dict()}


def _cmd_solve_quad(cfg: RunConfig):
    state = solve_quad(cfg.params(), cfg.alpha, _cached_mesh(cfg.mesh, cfg.S))
    return 0, {
        "lambda_h": state.lambda_h,
        "residual": state.residual,
        "dof_count": state.system.dof_count,
        "gap_estimate": state.gap_estimate,
    }


def _cmd_gradient(cfg: RunConfig):
    method = cfg.method if cfg.method != "closed_form" else "discrete_formula"
    report = sensitivity_report(cfg.params(), cfg.alpha, cfg.mesh, method=method)
    return 0, {"report": report.to_dict()}


def _cmd_hessian(cfg: RunConfig):
    report = sensitivity_report(cfg.params(), cfg.alpha, cfg.mesh, method=cfg.method)
    return 0, {"report": report.to_dict()}


def _cmd_certify(cfg: RunConfig):
    p = cfg.params()
    kinds = {
        "all": None,
        "small-alpha": "small_alpha",
        "trial": "trial_one",
        "asymptotic": "large_alpha_asymptotic",
    }
    if cfg.kind not in kinds:
        raise ValidationError(f"unknown certificate kind {cfg.kind!r}")
    if cfg.kind == "asymptotic":
        out = [certs.large_alpha_certificate(p)]
    else:
        if cfg.alpha is None or cfg.alpha >= 0.0:
            raise ValidationError("certify requires a negative --alpha")
        out = certs.certify_all(p, cfg.alpha)
        if kinds[cfg.kind] is not None:
            out = [c for c in out if c.kind == kinds[cfg.kind]]
    return 0, {"certificates": [c.to_dict() for c in out]}


def _cmd_sweep(cfg: RunConfig):
    rows = _run_sweep(cfg)
    return 0, {"columns": _SWEEP_COLUMNS, "rows": rows}


def _cmd_verify_theorem1(cfg: RunConfig):
    verdict = verify_local_max(cfg.alpha, cfg.S, cfg.mesh)
    grad_ok = bool(np.max(np.abs(verdict.gradient)) <= 5e-5)
    offblock_ok = verdict.offblock_max <= 1e-5
    ok = verdict.negative_definite and grad_ok and offblock_ok
    return (0 if ok else 1), {
        "verdict": verdict.to_dict(),
        "checks": {
            "gradient_below_5e-5": grad_ok,
            "offblock_below_1e-5": offblock_ok,
            "negative_definite": verdict.negative_definite,
        },
    }


def _cmd_verify_theorem2(cfg: RunConfig):
    p = cfg.params()
    if p.is_square():
        raise ValidationError("theorem-2 check needs a non-square quadrilateral")
    crossover = certs.empirical_small_alpha_crossover(p)
    asym = certs.large_alpha_certificate(p)
    fem_checks = []

    def fem_compare(alpha: float, n: int) -> dict:
        mesh = _cached_mesh(n, p.S)
        lam_p = solve_quad(p, alpha, mesh).lambda_h
        lam_sq = solve_quad(QuadParams.square(p.S), alpha, mesh).lambda_h
        return {
            "alpha": alpha,
            "mesh": n,
            "lambda_quad": lam_p,
            "lambda_square": lam_sq,
            "quad_below_square": bool(lam_p < lam_sq),
        }

    ok = True
    small = crossover["small_alpha"] or crossover["trial_one"]
    if small is not None:
        check = fem_compare(small, cfg.mesh)
        fem_checks.append(check)
        ok &= check["quad_below_square"]
    if asym.certified:
        alpha_big = -8.0 / math.sqrt(p.S)
        n_big = max(cfg.mesh, int(math.ceil(math.sqrt(2 * p.S) * abs(alpha_big) / 0.15)))
        check = fem_compare(alpha_big, n_big)
        fem_checks.append(check)
        ok &= check["quad_below_square"]
    return (0 if ok else 1), {
        "empirical_crossovers": crossover,
        "asymptotic": asym.to_dict(),
        "fem_checks": fem_checks,
        "note": "crossover values are empirical grid estimates",
    }


def _cmd_verify_theorem3(cfg: RunConfig):
    alpha, S = cfg.alpha, cfg.S
    radius = certs.hausdorff_threshold(alpha, S)
    th = certs.parameter_thresholds(alpha, S)
    rng = np.random.default_rng(20240817)
    c0 = math.sqrt(S)
    outside_checked = 0
    violations = []
    samples = []
    while outside_checked < cfg.trials:
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
        # theta = 0 is on the rotation grid, so its distance bounds the grid
        # minimum from above; the margin covers roundoff between the two calls
        upper = hausdorff_distance_to_square(p, rotations=1, samples_per_edge=250)
        if upper <= radius * (1.0 - 1e-9):
            continue
        d = hausdorff_distance_to_square(p, rotations=180, samples_per_edge=250)
        if d <= radius:
            continue
        outside_checked += 1
        fired = certs.threshold_conditions(p, alpha, th)
        samples.append({"params": p.to_dict(), "d_H": d, "conditions": fired})
        if not fired:
            violations.append(samples[-1])
    ok = not violations
    return (0 if ok else 1), {
        "radius": radius,
        "thresholds": th.to_dict(),
        "outside_samples_checked": outside_checked,
        "violations": violations,
        "samples": samples[:10],
    }


_HANDLERS = {
    "solve-square": _cmd_solve_square,
    "solve-quad": _cmd_solve_quad,
    "gradient": _cmd_gradient,
    "hessian": _cmd_hessian,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "verify-theorem1": _cmd_verify_theorem1,
    "verify-theorem2": _cmd_verify_theorem2,
    "verify-theorem3": _cmd_verify_theorem3,
}

_NEEDS_ALPHA = {
    "solve-square", "solve-quad", "gradient", "hessian",
    "verify-theorem1", "verify-theorem3",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrobin",
        description="Robin eigenvalue tools on fixed-area quadrilaterals",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        s = sub.add_parser(name)
        s.add_argument("--a1", type=float, default=0.0)
        s.add_argument("--a2", type=float, default=0.0)
        s.add_argument("--c", type=float, default=None)
        s.add_argument("--S1", type=float, default=None)
        s.add_argument("--S", type=float, default=1.0)
        s.add_argument("--alpha", type=float, default=None)
        s.add_argument("--mesh", type=int, default=64)
        s.add_argument("--out", type=str, default=None)
        s.add_argument("--format", choices=("json", "csv"), default=None)
        if name in ("gradient", "hessian"):
            s.add_argument(
                "--method",
                choices=("closed", "discrete", "fd"),
                default="discrete",
            )
        if name == "certify":
            s.add_argument(
                "--kind",
                choices=("all", "small-alpha", "trial", "asymptotic"),
                default="all",
            )
        if name == "sweep":
            s.add_argument("--grid", action="append", default=[])
        if name == "verify-theorem3":
            s.add_argument("--trials", type=int, default=30)
    return parser


_METHOD_MAP = {
    "closed": "closed_form",
    "discrete": "discrete_formula",
    "fd": "finite_difference",
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.a1, cfg.a2, cfg.c, cfg.S1, cfg.S = args.a1, args.a2, args.c, args.S1, args.S
    cfg.alpha = args.alpha
    cfg.mesh = args.mesh
    cfg.out = args.out
    cfg.format = args.format or ("csv" if args.command == "sweep" else "json")
    if hasattr(args, "method"):
        cfg.method = _METHOD_MAP[args.method]
    if hasattr(args, "kind"):
        cfg.kind = args.kind
    if hasattr(args, "trials"):
        cfg.trials = args.trials
    if getattr(args, "grid", None):
        for spec in args.grid:
            name, values = _parse_grid(spec)
            cfg.grids[name] = values
    if cfg.mesh < 2:
        raise ValidationError(f"--mesh must be >= 2, got {cfg.mesh}")
    if cfg.trials < 1:
        raise ValidationError(f"--trials must be >= 1, got {cfg.trials}")
    if cfg.alpha is not None and not math.isfinite(cfg.alpha):
        raise ValidationError(f"--alpha must be finite, got {cfg.alpha}")
    if cfg.command in _NEEDS_ALPHA:
        if cfg.alpha is None or cfg.alpha == 0.0:
            raise ValidationError(f"{cfg.command} requires a nonzero --alpha")
    if cfg.command in ("verify-theorem1", "verify-theorem3") and cfg.alpha >= 0.0:
        raise ValidationError(f"{cfg.command} requires a negative --alpha")
    cfg.params()  # validates the geometric parameters
    return cfg


def _emit(cfg: RunConfig, artifact: dict) -> None:
    if cfg.command == "sweep" and cfg.format == "csv":
        text = _rows_to_csv(artifact["result"]["rows"])
    else:
        text = json.dumps(artifact, indent=2, default=float)
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _error_object(kind: str, exc: Exception) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "error": {"type": kind, "message": str(exc)},
    }
    if isinstance(exc, EigenSolveError) and exc.diagnostics:
        payload["error"]["diagnostics"] = {
            k: (float(v) if isinstance(v, (int, float, np.floating)) else str(v))
            for k, v in exc.diagnostics.items()
        }
    return json.dumps(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValidationError, QuadRobinError, ValueError) as exc:
        sys.stderr.write(_error_object("validation", exc) + "\n")
        return 2
    try:
        code, result = _HANDLERS[cfg.command](cfg)
    except (ValidationError,) as exc:
        sys.stderr.write(_error_object("validation", exc) + "\n")
        return 2
    except EigenSolveError as exc:
        sys.stderr.write(_error_object("numerical", exc) + "\n")
        return 3
    except QuadRobinError as exc:
        sys.stderr.write(_error_object("validation", exc) + "\n")
        return 2
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": cfg.to_dict(),
        "result": result,
    }
    _emit(cfg, artifact)
    return code


if __name__ == "__main__":
    sys.exit(main())
