"""Lowest-eigenpair solves for the assembled sparse pencils.

Finding the lowest eigenvalue reliably needs care once alpha is very
negative: the ground state concentrates at the sharpest corner, a shift
taken from a coarse mesh can land above it, and a solver aimed at the
eigenvalue nearest such a shift happily returns the second corner state.
The strategy here is

1. a dense solve when the mesh is no finer than the level-8 companion
   (which also supplies spectral-gap estimates),
2. otherwise a shift certified to lie below the whole spectrum: the matrix
   inertia of K - sigma M (negative-pivot count of its factorisation) is
   checked to be zero, walking the shift down from an anchor until it is.
   The anchor is the coarse-mesh eigenvalue less half its size.  When the
   coarse mesh cannot resolve the 1/|alpha| boundary layer
   (|alpha| h_coarse > 1) that value lies far above the corner-concentrated
   ground state, so the anchor is capped by the corner asymptotic
   1.1 * (-alpha^2 max_i csc^2(theta_i/2)) - 1; the first count then
   certifies it and the solve factorises once,
3. Lanczos shift-invert at that certified shift, reusing the factorisation:
   with the shift below the spectrum, the dominant shift-inverted eigenvalue
   *is* the lowest one,
4. 2-column subspace iteration with a Rayleigh-Ritz step on the certified
   factor until the residual holds: it refines an ARPACK pair that falls
   short (a nearly degenerate cluster of corner states, as for the square at
   alpha = -40) and starts from the all-ones vector if ARPACK fails.  The
   second column makes its rate (lambda_1 - sigma)/(lambda_3 - sigma), so
   two equally sharp corners do not stall it.

Everything is deterministic: ARPACK is started from a fixed vector.  Note
the discrete ground state of a consistent-mass P1 pencil is positive in all
ordinary cases but may carry roundoff-scale negative wiggles next to a very
sharp corner spike (no discrete maximum principle); positivity is therefore
not used as an acceptance criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import (
    AssembledSystem,
    assemble_direct,
    assemble_plain_mass,
    assemble_transformed,
)
from .certificates import asymptotic_constant
from .errors import DomainError, EigenSolveError, GeometryError
from .geometry import QuadParams, interior_angles, perimeter
from .mesh import Mesh, build_mesh

__all__ = ["EigenPair", "EigenState", "rayleigh", "safe_shift", "solve_lowest", "solve_quad"]

_ASSEMBLERS = {
    "transformed": assemble_transformed,
    "direct": assemble_direct,
    "plain": assemble_plain_mass,
}

_COARSE_LEVEL = 8  # solve_quad's coarse companion mesh


@dataclass
class EigenPair:
    """Lowest generalized eigenpair with solve diagnostics."""

    lambda_h: float
    psi_h: np.ndarray
    residual: float
    iterations: int
    method: str
    shift: float | None = None


@dataclass
class EigenState:
    """A solved eigenpair bundled with everything that produced it."""

    params: QuadParams
    alpha: float
    mesh: Mesh
    system: AssembledSystem
    lambda_h: float
    psi_h: np.ndarray
    residual: float
    gap_estimate: float | None
    form: str


def rayleigh(system: AssembledSystem, v: np.ndarray) -> float:
    """Rayleigh quotient v^T K v / v^T M v of the assembled pencil."""
    v = np.asarray(v, dtype=float)
    mass = float(v @ (system.mass @ v))
    if mass <= 0.0:
        raise DomainError("Rayleigh quotient of the zero vector")
    return float(v @ (system.stiffness_plus_boundary @ v)) / mass


def _corner_scale(p: QuadParams, alpha: float) -> float:
    """-alpha^2 * max corner constant: the large-|alpha| eigenvalue scale."""
    try:
        angles = interior_angles(p)
    except GeometryError:
        return -4.0 * alpha * alpha
    return -alpha * alpha * max(asymptotic_constant(t) for t in angles)


def safe_shift(p: QuadParams, alpha: float, coarse_lambda: float | None = None) -> float:
    """A shift designed to sit strictly below the lowest eigenvalue.

    Combines the two scales of the eigenvalue: the corner term -alpha^2 max C
    (dominant for large |alpha|) and the boundary term alpha |boundary|/|area|
    (dominant near the Neumann regime), plus a coarse-mesh value when one is
    available.  The solver still verifies the result is the ground state.
    """
    if coarse_lambda is not None:
        # moderate anchor; the inertia check in solve_lowest walks it further
        # down if the coarse mesh underestimated the corner concentration
        anchor = min(-1.0, coarse_lambda - 0.5 * abs(coarse_lambda) - 1.0)
        if -alpha * math.sqrt(2.0 * p.S) / _COARSE_LEVEL > 1.0:
            # alpha < 0 and the coarse mesh cannot resolve the 1/|alpha| layer,
            # so its value sits well above the corner-concentrated ground
            # state (step 2); for alpha > 0 the corner term means nothing
            return min(anchor, 1.1 * _corner_scale(p, alpha) - 1.0)
        return anchor
    candidates = [-1.0]
    if alpha < 0.0:
        candidates.append(
            1.5 * _corner_scale(p, alpha) + 2.0 * alpha * perimeter(p) / (2.0 * p.S) - 1.0
        )
    return min(candidates)


def _normalize(v: np.ndarray, M: sp.spmatrix) -> np.ndarray:
    v = v / np.sqrt(v @ (M @ v))
    if v.sum() < 0.0:
        v = -v
    return v


def _symmetric_lu(A: sp.csc_matrix):
    """SuperLU factor of a symmetric matrix with diagonal pivots only, in a
    minimum-degree order of A + A^T, so the U diagonal carries A's inertia."""
    return spla.splu(
        A,
        diag_pivot_thresh=0.0,
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )


def _count_eigenvalues_below(K, M, sigma: float):
    """Negative-pivot count of K - sigma M (its inertia) plus the factorisation."""
    lu = _symmetric_lu((K - sigma * M).tocsc())
    return int((lu.U.diagonal() < 0.0).sum()), lu


def _dense_lowest(system: AssembledSystem, k: int = 2):
    K = system.stiffness_plus_boundary.toarray()
    M = system.mass.toarray()
    k = min(k, K.shape[0])
    vals, vecs = dla.eigh(K, M, subset_by_index=[0, k - 1])
    return vals, vecs


def _m_orthonormal(W: np.ndarray, M: sp.spmatrix) -> np.ndarray:
    """The two columns of W made M-orthonormal (Gram-Schmidt, applied twice)."""
    a = W[:, 0] / np.sqrt(W[:, 0] @ (M @ W[:, 0]))
    b = W[:, 1]
    for _ in range(2):
        b = b - (a @ (M @ b)) * a
    return np.column_stack([a, b / np.sqrt(b @ (M @ b))])


def _checked_pair(system, tol, lam, v, iterations, method, shift=None, lu=None) -> EigenPair:
    """The M-normalised pair, once ||(K - lam M) v|| <= tol * ||K||_inf holds.

    Given ``lu``, the certified factor of K - shift M, up to 400 steps of
    2-column subspace iteration W = lu.solve(M V), each with a Rayleigh-Ritz
    step keeping the lowest Ritz pair, refine the pair until it holds;
    ``lam=None`` starts them from v alone.  The second start column is a fixed
    vector.
    """
    K, M = system.stiffness_plus_boundary, system.mass
    target = tol * float(np.abs(K).sum(axis=1).max())
    v = _normalize(v, M)
    res = math.inf if lam is None else float(np.linalg.norm(K @ v - lam * (M @ v)))
    if lu is not None and not res <= target:
        V = np.column_stack([v, np.cos(np.arange(len(v)))])
        for _ in range(400):
            W = _m_orthonormal(lu.solve(M @ V), M)
            V = W @ np.linalg.eigh(W.T @ (K @ W))[1]
            v = _normalize(V[:, 0], M)
            lam = float(v @ (K @ v))
            res = float(np.linalg.norm(K @ v - lam * (M @ v)))
            if res <= target:
                break
    if not res <= target:  # a NaN residual fails too
        raise EigenSolveError(
            "eigensolver did not reach the requested residual",
            diagnostics={
                "method": method,
                "residual": res,
                "target": target,
                "lambda": lam,
                "iterations": iterations,
            },
        )
    return EigenPair(float(lam), v, res, iterations, method, shift)


def solve_lowest(
    system: AssembledSystem, shift: float | None = None, tol: float = 1e-10
) -> EigenPair:
    """Smallest generalized eigenvalue and M-normalised eigenvector.

    The eigenvector is scaled to psi^T M psi = 1 with positive mean and
    satisfies ||(K - lambda M) psi|| <= tol * ||K||.  ``shift`` should lie
    below the lowest eigenvalue (see ``safe_shift``); if omitted, one is
    derived from the system's own parameters.  Everything runs on the one
    factorisation that certifies the shift: Lanczos shift-invert, then
    subspace iteration until the residual holds, from the all-ones vector if
    ARPACK fails.
    """
    K = system.stiffness_plus_boundary
    M = system.mass
    n = system.dof_count

    sigma = float(shift) if shift is not None else safe_shift(system.params, system.alpha)
    v0 = np.ones(n)

    # certify the shift: walk down until no eigenvalue lies below it
    lu = None
    for attempt in range(12):
        try:
            below, lu = _count_eigenvalues_below(K, M, sigma)
        except RuntimeError:  # exactly singular: nudge off the eigenvalue
            sigma = sigma * (1.0 + 1e-8) - 1e-8
            continue
        if below == 0:
            break
        sigma = 2.5 * sigma - 1.0
    else:
        raise EigenSolveError(
            "could not certify a shift below the spectrum",
            diagnostics={"shift": sigma, "dof": n},
        )

    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(
            K, k=1, M=M, sigma=sigma, OPinv=op_inv, which="LM", v0=v0, maxiter=400
        )
    except spla.ArpackError:
        lam, v, method = None, v0, "inverse-iteration"
    else:
        lam, v, method = vals[0], vecs[:, 0], "lanczos-shift-invert"
    return _checked_pair(system, tol, lam, v, attempt + 1, method, sigma, lu)


def solve_quad(
    p: QuadParams,
    alpha: float,
    mesh: Mesh | int,
    form: str = "transformed",
    tol: float = 1e-10,
) -> EigenState:
    """Assemble and solve the lowest eigenpair for (p, alpha) on a mesh.

    ``mesh`` may be a Mesh or a refinement level.  A mesh no finer than the
    level-8 companion is solved densely; otherwise a dense solve on the
    level-8 companion refines the safe shift for ``solve_lowest`` and
    provides the spectral-gap estimate.  ``form`` selects the assembly route
    ("transformed", "direct" or "plain").
    """
    if isinstance(mesh, (int, np.integer)):
        mesh = build_mesh(int(mesh), p.S)
    assemble = _ASSEMBLERS[form]
    system = assemble(p, alpha, mesh)

    if mesh.refinement_level <= _COARSE_LEVEL:
        vals, vecs = _dense_lowest(system)
        pair = _checked_pair(system, tol, vals[0], vecs[:, 0], 1, "dense")
    else:
        vals, _ = _dense_lowest(assemble(p, alpha, build_mesh(_COARSE_LEVEL, p.S)))
        pair = solve_lowest(system, shift=safe_shift(p, alpha, float(vals[0])), tol=tol)
    gap = float(vals[1] - vals[0]) if len(vals) > 1 else None
    return EigenState(
        p, alpha, mesh, system, pair.lambda_h, pair.psi_h, pair.residual, gap, form
    )
