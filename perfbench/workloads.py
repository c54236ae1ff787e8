"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload draws a fixed pool of inputs from generators seeded by the
run's ``--seed`` and hands the package only the generated ``QuadParams``
and ``alpha``.  The pools are larger than a run consumes; the closed-loop
client takes them in order.

Each workload offers

* ``setup(seed, tracer)``   the per-run state (pool, shared mesh, thresholds);
* ``op(ctx, case)``         one operation through the package's public calls;
* ``traced_op(ctx, case, tracer)``  the same operation split at the layer
  boundaries into spans; it must give the same answer as ``op``;
* ``check(ctx, case, out, first)``  correctness problems of one output, as a
  list of strings (empty when it passes).  ``first`` adds the once-per-run
  cross-checks against an independent route.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from quadrobin import QuadParams, build_mesh, solve_quad
from quadrobin import certificates as certs
from quadrobin.assembly import BoundaryLayerWarning, assemble_transformed
from quadrobin.coefficients import PARAMS
from quadrobin.geometry import hausdorff_distance_to_square
from quadrobin.sensitivity import (
    SensitivityReport,
    Workspace,
    fd_gradient,
    sensitivity_report,
)
from quadrobin.solver import EigenState, rayleigh, safe_shift, solve_lowest

RESIDUAL_TOL = 1e-10     # solve_quad's default tol, times ||K||_inf
REPRODUCE_RTOL = 1e-9    # traced vs untraced, and transformed vs direct
FD_RTOL = 1e-4           # acceptance criterion 6: |g - fd| / max(1, |fd|)
SQUARE_DISTANCE_TOL = 1e-12


@dataclass(frozen=True)
class Case:
    p: QuadParams
    alpha: float


def halton(n: int, rng: np.random.Generator, bases=(2, 3, 5, 7, 11)) -> np.ndarray:
    """The first n points of the Halton sequence, shifted modulo 1 by a random
    vector: every prefix is spread evenly over the unit cube."""
    out = np.empty((n, len(bases)))
    for k, base in enumerate(bases):
        for i in range(n):
            f, r, j = 1.0, 0.0, i + 1
            while j:
                f /= base
                r += f * (j % base)
                j //= base
            out[i, k] = r
    return (out + rng.random(len(bases))) % 1.0


def _shape_cases(seed: int, n: int, a1: float, a2: float, alpha: tuple) -> list[Case]:
    # a low-discrepancy pool rather than independent draws, so the cost mix
    # of the operations a run gets through changes little with the seed
    lo, hi = np.array([(-a1, a1), (-a2, a2), (0.6, 1.6), (0.3, 1.7), alpha]).T
    x = lo + (hi - lo) * halton(n, np.random.default_rng(seed))
    return [Case(QuadParams(*map(float, r[:4]), 1.0), float(r[4])) for r in x]


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext({})


# -- solves: sweep-m64 and corner-m128 ------------------------------------

@dataclass
class SolveContext:
    cases: list[Case]
    mesh: object  # a shared Mesh, or the refinement level built per op


class SolveWorkload:
    spans = {"mesh.build", "assembly.transformed", "solver.coarse", "solver.safe_shift",
             "solver.solve_lowest"}

    def __init__(self, name, level, shared_mesh, pool, a1, alpha):
        self.name = name
        self.level, self.shared_mesh, self.pool = level, shared_mesh, pool
        self.a1, self.alpha = a1, alpha

    def setup(self, seed: int, tracer=None) -> SolveContext:
        cases = _shape_cases(seed, self.pool, self.a1, 1.0, self.alpha)
        mesh = self.level
        if self.shared_mesh:
            with _span(tracer, "mesh.build") as c:
                mesh = build_mesh(self.level, 1.0)
                c["dof"] = mesh.dof_count
        return SolveContext(cases, mesh)

    def op(self, ctx: SolveContext, case: Case) -> EigenState:
        return solve_quad(case.p, case.alpha, ctx.mesh)

    def traced_op(self, ctx: SolveContext, case: Case, tracer) -> EigenState:
        """solve_quad, step by step: the same calls, so the same lambda_h."""
        p, alpha, mesh = case.p, case.alpha, ctx.mesh
        if not self.shared_mesh:
            with tracer.span("mesh.build") as c:
                mesh = build_mesh(mesh, p.S)
                c["dof"] = mesh.dof_count
        with tracer.span("assembly.transformed") as c:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", BoundaryLayerWarning)
                system = assemble_transformed(p, alpha, mesh)
            c["nnz_K"] = system.stiffness_plus_boundary.nnz
            c["warnings"] = sum(issubclass(w.category, BoundaryLayerWarning) for w in caught)
        with tracer.span("solver.coarse"):
            coarse = build_mesh(min(8, mesh.refinement_level), p.S)
            coarse_pair = solve_lowest(assemble_transformed(p, alpha, coarse))
        with tracer.span("solver.safe_shift"):
            shift = safe_shift(p, alpha, coarse_pair.lambda_h)
        with tracer.span("solver.solve_lowest") as c:
            pair = solve_lowest(system, shift=shift)
            c["steps"] = pair.iterations
            c["method"] = pair.method
            c["slack"] = (pair.lambda_h - pair.shift) / abs(pair.lambda_h)
        return EigenState(p, alpha, mesh, system, pair.lambda_h, pair.psi_h,
                          pair.residual, None, "transformed")

    def check(self, ctx, case: Case, out: EigenState, first: bool) -> list[str]:
        K = out.system.stiffness_plus_boundary
        M = out.system.mass
        lam, psi = out.lambda_h, out.psi_h
        if not (math.isfinite(lam) and np.all(np.isfinite(psi))):
            return [f"non-finite eigenpair (lambda_h={lam})"]
        problems = []
        residual = float(np.linalg.norm(K @ psi - lam * (M @ psi)))
        norm_K = float(np.abs(K).sum(axis=1).max())
        if residual > RESIDUAL_TOL * norm_K:
            problems.append(f"residual {residual:.3e} > {RESIDUAL_TOL} * ||K||_inf = "
                            f"{RESIDUAL_TOL * norm_K:.3e}")
        # constants lie in the P1 space, so the lowest eigenvalue is at most
        # the Rayleigh quotient of the all-ones vector
        bound = rayleigh(out.system, np.ones(len(psi)))
        if lam > bound:
            problems.append(f"lambda_h {lam!r} above the all-ones Rayleigh quotient {bound!r}")
        if first:
            direct = solve_quad(case.p, case.alpha, out.mesh, form="direct").lambda_h
            if not _close(direct, lam):
                problems.append(f"direct assembly gives {direct!r}, transformed {lam!r}")
        return problems

    @staticmethod
    def same(a: EigenState, b: EigenState) -> bool:
        return _close(a.lambda_h, b.lambda_h)


def _close(a: float, b: float, rtol: float = REPRODUCE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- sensitivity-m64 --------------------------------------------------------

class SensitivityWorkload:
    name = "sensitivity-m64"
    pool = 64
    spans = {"mesh.build", "sensitivity.solve", "sensitivity.workspace",
             "sensitivity.derivative_assembly", "sensitivity.gradient",
             "sensitivity.bordered_solve", "sensitivity.hessian_rest"}

    def setup(self, seed: int, tracer=None) -> SolveContext:
        cases = _shape_cases(seed, self.pool, 1.0, 1.0, (-4.0, -0.25))
        with _span(tracer, "mesh.build") as c:
            mesh = build_mesh(64, 1.0)
            c["dof"] = mesh.dof_count
        return SolveContext(cases, mesh)

    def op(self, ctx, case: Case) -> SensitivityReport:
        return sensitivity_report(case.p, case.alpha, ctx.mesh, "discrete_formula")

    def traced_op(self, ctx, case: Case, tracer) -> SensitivityReport:
        """sensitivity_report("discrete_formula"), step by step."""
        with tracer.span("sensitivity.solve"):
            state = solve_quad(case.p, case.alpha, ctx.mesh)
        with tracer.span("sensitivity.workspace"):
            ws = Workspace(state)
        with tracer.span("sensitivity.derivative_assembly"):
            for v in PARAMS:
                ws.stiffness_derivative(v)
        with tracer.span("sensitivity.gradient"):
            grad = ws.gradient()
        with tracer.span("sensitivity.bordered_solve"):
            for v in PARAMS:
                ws.eigenvector_derivative(v)
        with tracer.span("sensitivity.hessian_rest"):
            H = ws.hessian()
        return SensitivityReport(case.p, case.alpha, ctx.mesh.refinement_level,
                                 "discrete_formula", grad, H)

    def check(self, ctx, case: Case, out: SensitivityReport, first: bool) -> list[str]:
        if not (np.all(np.isfinite(out.gradient)) and np.all(np.isfinite(out.hessian))):
            return ["non-finite gradient or Hessian entry"]
        if not first:
            return []
        fd = fd_gradient(case.p, case.alpha, ctx.mesh)
        err = np.abs(out.gradient - fd) / np.maximum(1.0, np.abs(fd))
        if err.max() > FD_RTOL:
            return [f"gradient differs from fd_gradient by {err.max():.3e} (relative)"]
        return []

    @staticmethod
    def same(a: SensitivityReport, b: SensitivityReport) -> bool:
        scale = REPRODUCE_RTOL * max(1.0, float(np.abs(a.hessian).max()),
                                     float(np.abs(a.gradient).max()))
        return bool(np.abs(a.gradient - b.gradient).max() <= scale
                    and np.abs(a.hessian - b.hessian).max() <= scale)


# -- theorem3 -----------------------------------------------------------------

@dataclass
class Theorem3Context:
    cases: list[Case]
    thresholds: certs.Thresholds
    radius: float


@dataclass
class Draw:
    distance: float
    beyond: bool
    fired: list
    certificates: list


class Theorem3Workload:
    name = "theorem3"
    pool = 128
    alpha = -1.0
    spans = {"certificates.parameter_thresholds", "certificates.hausdorff_threshold",
             "geometry.hausdorff", "certificates.threshold_conditions",
             "certificates.certify_all"}

    def setup(self, seed: int, tracer=None) -> Theorem3Context:
        with _span(tracer, "certificates.parameter_thresholds"):
            th = certs.parameter_thresholds(self.alpha, 1.0)
        with _span(tracer, "certificates.hausdorff_threshold"):
            radius = certs.hausdorff_threshold(self.alpha, 1.0)
        rng = np.random.default_rng(seed)
        cases = []
        # the draw modes of `quadrobin verify-theorem3`, taken in turn so every
        # pool holds each mode equally often
        for i in range(self.pool):
            a1, a2, c, S1 = 0.0, 0.0, 1.0, 1.0
            scale = 1.0 + rng.uniform(0.05, 3.0)
            mode = i % 4
            if mode == 0:
                a1 = float(rng.choice([-1.0, 1.0])) * th.A * scale
                a2 = float(rng.uniform(-2, 2))
            elif mode == 1:
                c = th.c1 * scale
            elif mode == 2:
                c = th.c2 / scale
            else:
                S1 = th.S_tilde / scale if rng.random() < 0.5 else 2.0 - th.S_tilde / scale
            cases.append(Case(QuadParams(a1, a2, c, float(S1), 1.0), self.alpha))
        return Theorem3Context(cases, th, radius)

    def op(self, ctx: Theorem3Context, case: Case) -> Draw:
        return self.traced_op(ctx, case, None)

    def traced_op(self, ctx: Theorem3Context, case: Case, tracer) -> Draw:
        """One draw; there is no package call that wraps these three."""
        with _span(tracer, "geometry.hausdorff") as c:
            d = hausdorff_distance_to_square(case.p, rotations=180, samples_per_edge=250)
            c["beyond"] = d > ctx.radius
        with _span(tracer, "certificates.threshold_conditions"):
            fired = certs.threshold_conditions(case.p, case.alpha, ctx.thresholds)
        with _span(tracer, "certificates.certify_all"):
            found = certs.certify_all(case.p, case.alpha)
        return Draw(d, d > ctx.radius, fired, found)

    def check(self, ctx, case: Case, out: Draw, first: bool) -> list[str]:
        problems = []
        if not (math.isfinite(out.distance) and out.distance >= 0.0):
            problems.append(f"distance {out.distance!r} is not a finite non-negative number")
        if out.beyond and not out.fired:
            problems.append(f"d_H = {out.distance:.6g} beyond radius {ctx.radius:.6g} "
                            "but no condition (I)-(VI) fires")
        if len(out.certificates) != 3:
            problems.append(f"certify_all returned {len(out.certificates)} certificates")
        if first:
            d0 = hausdorff_distance_to_square(QuadParams.square(1.0), rotations=180,
                                              samples_per_edge=250)
            if d0 > SQUARE_DISTANCE_TOL:
                problems.append(f"square's own distance {d0:.3e} > {SQUARE_DISTANCE_TOL}")
        return problems

    @staticmethod
    def same(a: Draw, b: Draw) -> bool:
        return a.distance == b.distance and a.fired == b.fired


WORKLOADS = {
    w.name: w
    for w in (
        SolveWorkload(
            "sweep-m64",
            level=64, shared_mesh=True, pool=256, a1=1.0, alpha=(-4.0, -0.25)),
        SolveWorkload(
            "corner-m128",
            level=128, shared_mesh=False, pool=64, a1=2.0, alpha=(-16.0, -6.0)),
        SensitivityWorkload(),
        Theorem3Workload(),
    )
}
