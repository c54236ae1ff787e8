"""Eigenvalue derivatives in the geometric parameters (a1, a2, c, S1).

All derivatives differentiate the transported pencil (K(p), M(p)) of
``assemble_transformed``, whose lowest eigenvalue equals the quadrilateral's.
With psi the M-normalised eigenvector,

    d lambda / dv          = psi^T (K^v - lambda M^v) psi,
    (K - lambda M) psi^v   = -(K^v - d lambda/dv M - lambda M^v) psi,
                             psi^T M psi^v = -1/2 psi^T M^v psi,
    d2 lambda / dv1 dv2    = psi^T (K^{v1v2} - lambda^{v2} M^{v1}) psi
                             + 2 psi^{v2,T} (K^{v1} - lambda M^{v1}) psi.

The eigenvector derivatives use Nelson's method (R. B. Nelson, AIAA J. 14,
1976).  lambda is the simple lowest eigenvalue, so K - lambda M is positive
semidefinite with kernel span(psi).  Replacing its row and column k =
argmax |psi| by the unit vector e_k leaves a positive-definite matrix
(Cauchy interlacing, psi_k != 0), factorised once like the solver's inertia
count.  Its solution w has w_k = 0 and satisfies every row but k; the right
side is orthogonal to psi, so row k holds too, and the full residual check
confirms it.  Then psi^v = w + (-1/2 psi^T M^v psi - psi^T M w) psi.

The mass depends on the parameters only through the per-half weights Sj/S,
so M^v vanishes except for v = S1 (where it is linear, hence M^{v1v2} = 0)
and the formulas reduce to the familiar stiffness-only expressions in the
a1, a2 and c directions, and identically at the square where S1 = S.

All coefficient derivatives come from closed-form tables; finite differences
are provided separately (``fd_gradient`` / ``fd_hessian``) purely as an
independent validation oracle and for the CLI's --method fd.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import affine_combination
from .coefficients import PARAMS, first_tables, second_tables
from .errors import ConditioningError, ContractError, DomainError, EigenSolveError
from .geometry import QuadParams
from .mesh import Mesh, build_mesh
from .solver import EigenState, _symmetric_lu, solve_quad
from .square_exact import SquareSolution, solve_square

__all__ = [
    "PARAMS",
    "first_derivative",
    "gradient",
    "eigenvector_derivative",
    "second_derivative",
    "hessian",
    "fd_gradient",
    "fd_hessian",
    "SquareHessian",
    "hessian_at_square_closed_form",
    "LocalMaxVerdict",
    "verify_local_max",
    "SensitivityReport",
    "sensitivity_report",
    "Workspace",
]

_MIN_GAP = 1e-8


def _as_mesh(mesh: Mesh | int, S: float) -> Mesh:
    return build_mesh(int(mesh), S) if isinstance(mesh, (int, np.integer)) else mesh


class Workspace:
    """Solved eigenpair plus cached derivative systems and the reduced factor."""

    def __init__(self, state: EigenState):
        if state.form != "transformed":
            raise ContractError("sensitivity requires the transformed assembly")
        self.state = state
        self.p = state.params
        self.alpha = state.alpha
        self.mesh = state.mesh
        self.K = state.system.stiffness_plus_boundary
        self.M = state.system.mass
        self.lam = state.lambda_h
        self.psi = state.psi_h
        gap = state.gap_estimate
        if gap is not None and gap < _MIN_GAP * max(1.0, abs(self.lam)):
            raise ConditioningError(
                f"spectral gap {gap:.3e} too small for derivative solves", gap=gap
            )
        self._d1 = first_tables(self.p)
        self._d2 = second_tables(self.p)
        self._K_v: dict[str, sp.csr_matrix] = {}
        self._M_v: dict[str, sp.csr_matrix | None] = {}
        self._psi_v: dict[str, np.ndarray] = {}
        self._k = int(np.argmax(np.abs(self.psi)))
        self._lu = None

    # -- derivative systems: weighted sums of the mesh's affine blocks ---------
    def stiffness_derivative(self, v: str) -> sp.csr_matrix:
        if v not in self._K_v:
            d = self._d1[v]
            self._K_v[v] = affine_combination(self.mesh, (d.G_upper, d.G_lower), self.alpha * d.edge)
        return self._K_v[v]

    def mass_derivative(self, v: str) -> sp.csr_matrix | None:
        if v not in self._M_v:
            dm = self._d1[v].mass
            self._M_v[v] = None if np.all(dm == 0.0) else affine_combination(self.mesh, mass=dm)
        return self._M_v[v]

    def stiffness_second_derivative(self, v1: str, v2: str) -> sp.csr_matrix:
        d = self._d2[(v1, v2)]
        return affine_combination(self.mesh, (d.G_upper, d.G_lower), self.alpha * d.edge)

    def _effective(self, v: str, vec: np.ndarray) -> np.ndarray:
        """(K^v - lambda M^v) vec."""
        out = self.stiffness_derivative(v) @ vec
        Mv = self.mass_derivative(v)
        if Mv is not None:
            out -= self.lam * (Mv @ vec)
        return out

    # -- derivative values --------------------------------------------------
    def first(self, v: str) -> float:
        return float(self.psi @ self._effective(v, self.psi))

    def gradient(self) -> np.ndarray:
        return np.array([self.first(v) for v in PARAMS])

    def _reduced_lu(self):
        """SuperLU factor of K - lambda M with row and column k set to e_k."""
        if self._lu is None:
            A = (self.K - self.lam * self.M).tocsc()
            k = self._k
            A.data[A.indices == k] = 0.0
            A.data[A.indptr[k] : A.indptr[k + 1]] = 0.0
            A[k, k] = 1.0
            self._lu = _symmetric_lu(A)
        return self._lu

    def eigenvector_derivative(self, v: str) -> np.ndarray:
        if v not in self._psi_v:
            lu = self._reduced_lu()
            k, psi = self._k, self.psi
            rhs = -self._effective(v, psi) + self.first(v) * (self.M @ psi)
            reduced = rhs.copy()
            reduced[k] = 0.0
            w = lu.solve(reduced)
            Mv = self.mass_derivative(v)
            c0 = 0.0 if Mv is None else -0.5 * float(psi @ (Mv @ psi))
            psi_v = w + (c0 - float(psi @ (self.M @ w))) * psi
            resid = float(np.linalg.norm(self.K @ psi_v - self.lam * (self.M @ psi_v) - rhs))
            scale = max(1.0, float(np.linalg.norm(rhs)))
            if resid > 1e-9 * scale:
                raise EigenSolveError(
                    "eigenvector-derivative solve failed its residual check",
                    diagnostics={
                        "residual": resid,
                        "direction": v,
                        "index": k,
                        "abs_psi_k": abs(float(psi[k])),
                    },
                )
            self._psi_v[v] = psi_v
        return self._psi_v[v]

    def second(self, v1: str, v2: str) -> float:
        psi_v2 = self.eigenvector_derivative(v2)
        value = float(self.psi @ (self.stiffness_second_derivative(v1, v2) @ self.psi))
        Mv1 = self.mass_derivative(v1)
        if Mv1 is not None:
            value -= self.first(v2) * float(self.psi @ (Mv1 @ self.psi))
        value += 2.0 * float(psi_v2 @ self._effective(v1, self.psi))
        return value

    def hessian(self) -> np.ndarray:
        H = np.empty((4, 4))
        for i, v1 in enumerate(PARAMS):
            for j, v2 in enumerate(PARAMS):
                if j < i:
                    continue
                H[i, j] = H[j, i] = self.second(v1, v2)
        return H

    def gram(self, f: np.ndarray, g: np.ndarray) -> float:
        """The nonnegative form f^T (K - lambda M) g."""
        return float(f @ (self.K @ g) - self.lam * (f @ (self.M @ g)))


def _workspace(p, alpha, mesh, state: EigenState | None) -> Workspace:
    if isinstance(state, Workspace):
        return state
    if state is None:
        state = solve_quad(p, alpha, _as_mesh(mesh, p.S))
    return Workspace(state)


def first_derivative(p: QuadParams, alpha: float, v: str, mesh: Mesh | int, state=None) -> float:
    """d lambda / dv at p, from the closed-form coefficient derivatives."""
    return _workspace(p, alpha, mesh, state).first(v)


def gradient(p: QuadParams, alpha: float, mesh: Mesh | int, state=None) -> np.ndarray:
    """Gradient of lambda over (a1, a2, c, S1)."""
    return _workspace(p, alpha, mesh, state).gradient()


def eigenvector_derivative(p: QuadParams, alpha: float, v: str, mesh: Mesh | int, state=None) -> np.ndarray:
    """Derivative of the M-normalised eigenvector, by Nelson's method."""
    return _workspace(p, alpha, mesh, state).eigenvector_derivative(v)


def second_derivative(p: QuadParams, alpha: float, v1: str, v2: str, mesh: Mesh | int, state=None) -> float:
    """Mixed second derivative of lambda; symmetric in (v1, v2) to solver tolerance."""
    return _workspace(p, alpha, mesh, state).second(v1, v2)


def hessian(p: QuadParams, alpha: float, mesh: Mesh | int, state=None) -> np.ndarray:
    """Full symmetric 4x4 second-derivative matrix of lambda."""
    return _workspace(p, alpha, mesh, state).hessian()


def _perturbed(p: QuadParams, v: str, delta: float) -> QuadParams:
    return QuadParams(**{**p.to_dict(), v: getattr(p, v) + delta})


def _lambda_of(p: QuadParams, alpha: float, mesh: Mesh) -> float:
    return solve_quad(p, alpha, mesh).lambda_h


def fd_gradient(p: QuadParams, alpha: float, mesh: Mesh | int, rel_step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient oracle on the same mesh."""
    mesh = _as_mesh(mesh, p.S)
    out = np.empty(4)
    for k, v in enumerate(PARAMS):
        h = rel_step * max(1.0, abs(getattr(p, v)))
        lp = _lambda_of(_perturbed(p, v, +h), alpha, mesh)
        lm = _lambda_of(_perturbed(p, v, -h), alpha, mesh)
        out[k] = (lp - lm) / (2.0 * h)
    return out


def fd_hessian(p: QuadParams, alpha: float, mesh: Mesh | int, rel_step: float = 5e-3) -> np.ndarray:
    """Finite-difference Hessian oracle: 5-point diagonal, cross stencil mixed."""
    mesh = _as_mesh(mesh, p.S)
    lam0 = _lambda_of(p, alpha, mesh)
    steps = [rel_step * max(1.0, abs(getattr(p, v))) for v in PARAMS]
    H = np.empty((4, 4))
    for i, v in enumerate(PARAMS):
        h = steps[i]
        lpp = _lambda_of(_perturbed(p, v, 2 * h), alpha, mesh)
        lp = _lambda_of(_perturbed(p, v, h), alpha, mesh)
        lm = _lambda_of(_perturbed(p, v, -h), alpha, mesh)
        lmm = _lambda_of(_perturbed(p, v, -2 * h), alpha, mesh)
        H[i, i] = (-lpp + 16 * lp - 30 * lam0 + 16 * lm - lmm) / (12 * h * h)
    for i, v1 in enumerate(PARAMS):
        for j in range(i + 1, 4):
            v2 = PARAMS[j]
            h1, h2 = steps[i], steps[j]
            lpp = _lambda_of(_perturbed(_perturbed(p, v1, h1), v2, h2), alpha, mesh)
            lpm = _lambda_of(_perturbed(_perturbed(p, v1, h1), v2, -h2), alpha, mesh)
            lmp = _lambda_of(_perturbed(_perturbed(p, v1, -h1), v2, h2), alpha, mesh)
            lmm = _lambda_of(_perturbed(_perturbed(p, v1, -h1), v2, -h2), alpha, mesh)
            H[i, j] = H[j, i] = (lpp - lpm - lmp + lmm) / (4 * h1 * h2)
    return H


@dataclass
class SquareHessian:
    """Second-derivative matrix at the square from the closed-form route.

    ``pure_forms`` are the coefficient-only parts actually used in ``matrix``
    (exact square norms; the S1 entry carries the transport weights).
    ``plain_form_pure`` are the same parts for the plain-mass pullback
    normalisation, whose S1 entry is (3/S^2) grad + (5 alpha / 4 S^2) trace;
    the two differ only there, by (2/S^2) grad + (alpha/S^2) trace.
    ``corrections`` are the eigenvector-relaxation terms
    2 (lambda ||psi^v||^2 - h[psi^v]) from the discrete derivative solves.
    """

    alpha: float
    S: float
    mesh_level: int
    matrix: np.ndarray
    pure_forms: dict
    plain_form_pure: dict
    corrections: dict
    cross_a1a2: float


def hessian_at_square_closed_form(alpha: float, S: float, mesh: Mesh | int) -> SquareHessian:
    """Hessian at the square: closed-form pure parts + discrete corrections.

    The off-block entries (a_j, c), (a_j, S1), (c, S1) vanish identically and
    are set to exact zeros; the (a1, a2) entry is evaluated discretely.
    """
    if alpha >= 0.0:
        raise DomainError(f"closed-form Hessian requires alpha < 0, got {alpha}")
    sol = solve_square(alpha, S)
    mesh = _as_mesh(mesh, S)
    return _square_hessian(sol, Workspace(solve_quad(QuadParams.square(S), alpha, mesh)))


def _square_hessian(sol: SquareSolution, ws: Workspace) -> SquareHessian:
    """The closed-form Hessian from the exact solution and the square's Workspace."""
    alpha, S = sol.alpha, sol.S
    grad, trace = sol.grad_norm_sq, sol.boundary_norm_sq
    plain = {
        "a": grad / (2 * S) + alpha * trace / (8 * S),
        "c": 4 * grad / S + 2 * alpha * trace / S,
        "S1": 3 * grad / S**2 + 5 * alpha * trace / (4 * S**2),
    }
    pure = dict(plain)
    pure["S1"] = grad / S**2 + alpha * trace / (4 * S**2)

    corrections = {}
    for v in PARAMS:
        psi_v = ws.eigenvector_derivative(v)
        corrections[v] = -2.0 * ws.gram(psi_v, psi_v)
    cross = 2.0 * float(
        ws.eigenvector_derivative("a2") @ ws._effective("a1", ws.psi)
    )
    H = np.zeros((4, 4))
    H[0, 0] = pure["a"] + corrections["a1"]
    H[1, 1] = pure["a"] + corrections["a2"]
    H[0, 1] = H[1, 0] = cross
    H[2, 2] = pure["c"] + corrections["c"]
    H[3, 3] = pure["S1"] + corrections["S1"]
    return SquareHessian(
        alpha=alpha,
        S=S,
        mesh_level=ws.mesh.refinement_level,
        matrix=H,
        pure_forms=pure,
        plain_form_pure=plain,
        corrections=corrections,
        cross_a1a2=cross,
    )


@dataclass
class LocalMaxVerdict:
    """Outcome of the local-maximality check at the square."""

    alpha: float
    S: float
    mesh_level: int
    hessian_closed: np.ndarray
    hessian_discrete: np.ndarray
    gradient: np.ndarray
    mu: np.ndarray
    negative_definite: bool
    trace_condition: bool
    det_condition: bool
    offblock_max: float
    gram_cauchy_schwarz: float

    @property
    def verdict(self) -> str:
        return "negative definite" if self.negative_definite else "indefinite"

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "S": self.S,
            "mesh_level": self.mesh_level,
            "hessian_closed": self.hessian_closed.tolist(),
            "hessian_discrete": self.hessian_discrete.tolist(),
            "gradient": self.gradient.tolist(),
            "mu": self.mu.tolist(),
            "negative_definite": self.negative_definite,
            "trace_condition": self.trace_condition,
            "det_condition": self.det_condition,
            "offblock_max": self.offblock_max,
            "gram_cauchy_schwarz": self.gram_cauchy_schwarz,
            "verdict": self.verdict,
        }


_OFFBLOCK = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def verify_local_max(alpha: float, S: float, mesh: Mesh | int) -> LocalMaxVerdict:
    """Assemble the Hessian at the square and report its definiteness.

    mu_1 = (c, c) entry, mu_2 = (S1, S1) entry, mu_3/mu_4 the eigenvalues of
    the (a1, a2) block of the closed-form Hessian.  Also reports the
    off-block maxima of the fully discrete Hessian, the block trace and
    determinant conditions, and the Cauchy-Schwarz slack of the nonnegative
    form h - lambda <.,.> on the pair (psi^{a1}, psi^{a2}).
    """
    if alpha >= 0.0:
        raise DomainError(f"closed-form Hessian requires alpha < 0, got {alpha}")
    sol = solve_square(alpha, S)
    mesh = _as_mesh(mesh, S)
    ws = Workspace(solve_quad(QuadParams.square(S), alpha, mesh))
    closed = _square_hessian(sol, ws)
    discrete = ws.hessian()
    grad = ws.gradient()

    H = closed.matrix
    block = H[:2, :2]
    mu34 = np.linalg.eigvalsh(block)
    mu = np.array([H[2, 2], H[3, 3], mu34[0], mu34[1]])
    f1 = ws.eigenvector_derivative("a1")
    f2 = ws.eigenvector_derivative("a2")
    cs = ws.gram(f1, f1) * ws.gram(f2, f2) - ws.gram(f1, f2) ** 2
    return LocalMaxVerdict(
        alpha=alpha,
        S=S,
        mesh_level=mesh.refinement_level,
        hessian_closed=H,
        hessian_discrete=discrete,
        gradient=grad,
        mu=mu,
        negative_definite=bool(np.all(mu < 0.0)),
        trace_condition=bool(mu34.sum() < 0.0),
        det_condition=bool(mu34.prod() > 0.0),
        offblock_max=float(max(abs(discrete[i, j]) for i, j in _OFFBLOCK)),
        gram_cauchy_schwarz=float(cs),
    )


@dataclass
class SensitivityReport:
    """Gradient and Hessian of lambda in (a1, a2, c, S1) with method tags."""

    params: QuadParams
    alpha: float
    mesh_level: int
    method: str
    gradient: np.ndarray
    hessian: np.ndarray

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "alpha": self.alpha,
            "mesh_level": self.mesh_level,
            "method": self.method,
            "gradient": self.gradient.tolist(),
            "hessian": self.hessian.tolist(),
            "parameter_order": list(PARAMS),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SensitivityReport":
        return cls(
            params=QuadParams.from_dict(data["params"]),
            alpha=float(data["alpha"]),
            mesh_level=int(data["mesh_level"]),
            method=str(data["method"]),
            gradient=np.array(data["gradient"], dtype=float),
            hessian=np.array(data["hessian"], dtype=float),
        )

    @classmethod
    def from_json(cls, text: str) -> "SensitivityReport":
        return cls.from_dict(json.loads(text))


def sensitivity_report(
    p: QuadParams, alpha: float, mesh: Mesh | int, method: str = "discrete_formula"
) -> SensitivityReport:
    """Gradient + Hessian report by one of the three methods.

    "closed_form" is only available at the square (exact zero gradient and
    block structure); "discrete_formula" uses the assembled derivative forms;
    "finite_difference" uses the validation stencils.
    """
    mesh = _as_mesh(mesh, p.S)
    if method == "closed_form":
        if not p.is_square(tol=0.0):
            raise ContractError("closed_form method is defined at the square only")
        closed = hessian_at_square_closed_form(alpha, p.S, mesh)
        grad = np.zeros(4)
        H = closed.matrix
    elif method == "discrete_formula":
        ws = _workspace(p, alpha, mesh, None)
        grad = ws.gradient()
        H = ws.hessian()
    elif method == "finite_difference":
        grad = fd_gradient(p, alpha, mesh)
        H = fd_hessian(p, alpha, mesh)
    else:
        raise ValueError(f"unknown method {method!r}")
    return SensitivityReport(
        params=p,
        alpha=alpha,
        mesh_level=mesh.refinement_level,
        method=method,
        gradient=grad,
        hessian=H,
    )
