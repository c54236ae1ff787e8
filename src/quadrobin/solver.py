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
3. shift-invert Lanczos on the factor that certified the shift: with the
   shift below the spectrum, the dominant shift-inverted eigenvalue *is* the
   lowest one.  It stops once the top Ritz pair is at roundoff (Lanczos
   residual beta |s_j| <= eps theta, ARPACK's rule), which a nearly degenerate
   corner cluster (the square at alpha = -40) also reaches and which Nelson's
   eigenvector derivatives need (their residual check amplifies the pair's by
   ||psi_v|| / |psi_k|), or after 400 solves.  EigenSolveError unless the
   pair then has ||(K - lambda M) psi|| <= _TOL * ||K||_inf, _TOL = 1e-10.

Both factorisations of a sparse solve path, the certified shift's and
Nelson's reduced one in ``sensitivity``, go through ``_symmetric_lu``:
SuperLU with diagonal pivots in a minimum-degree order of A + A^T, and a
panel of ``_PANEL`` = 2 columns instead of the library default.  The panel
changes neither the fill nor the pivots, hence not the inertia, only the
time.  Measured on single-threaded BLAS (interleaved medians over 9-41
factorisations of both matrix kinds at meshes 64, 128 and 256), panels of
2, 3 and 4 columns are within noise of each other and about 20-40% faster
than the default; 6 and 8 fall in between.  2 was fastest most often.

What a sparse solve holds: the pencil, the certified factor in SuperLU's
own storage and, during Lanczos, a basis of at most 20 vectors.  The inertia
count reads U's diagonal, for which scipy builds CSC copies of L and U
(2 x 654,398 entries, about 16 MB, for the square at mesh 128).  The count
empties both as soon as it is read, so the basis grows into their pages: a
solve peaks at factor plus copies while it counts, not at factor plus
copies plus basis.

Everything is deterministic: Lanczos starts from the all-ones vector.  Note
the discrete ground state of a consistent-mass P1 pencil is positive in all
ordinary cases but may carry roundoff-scale negative wiggles next to a very
sharp corner spike (no discrete maximum principle); positivity is therefore
not used as an acceptance criterion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .assembly import (
    AssembledSystem,
    BoundaryLayerWarning,
    _warn_boundary_layer,
    assemble_direct,
    assemble_transformed,
)
from .certificates import asymptotic_constant
from .errors import ContractError, DomainError, EigenSolveError, GeometryError
from .geometry import QuadParams, interior_angles, perimeter
from .mesh import Mesh, build_mesh

if TYPE_CHECKING:  # scipy loads on first use, in the functions that call it
    import scipy.sparse as sp

__all__ = ["EigenPair", "EigenState", "rayleigh", "safe_shift", "solve_lowest", "solve_quad"]

_ASSEMBLERS = {"transformed": assemble_transformed, "direct": assemble_direct}

_COARSE_LEVEL = 8  # solve_quad's coarse companion mesh
_BASIS = 20  # Lanczos vectors held before a restart, like ARPACK's ncv
_MAX_SOLVES = 400  # Lanczos factor solves before its last pair is checked as it is
_PANEL = 2  # SuperLU panel size (columns per panel): measured, see the module docstring
_TOL = 1e-10  # a returned pair has ||(K - lambda M) psi|| <= _TOL * ||K||_inf


@dataclass
class EigenPair:
    """Lowest generalized eigenpair with solve diagnostics.

    ``iterations`` counts the shift-walk steps (factorisations), ``solves``
    the Lanczos solves with the certified factor (0 on the dense path).
    """

    lambda_h: float
    psi_h: np.ndarray
    residual: float
    iterations: int
    method: str
    shift: float | None = None
    solves: int = 0


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
    import scipy.sparse.linalg as spla

    return spla.splu(
        A,
        diag_pivot_thresh=0.0,
        permc_spec="MMD_AT_PLUS_A",
        panel_size=_PANEL,
        options={"SymmetricMode": True},
    )


def _shifted(K, M, s: float) -> sp.csc_matrix:
    """K - s M as a CSC matrix, formed on the pattern K and M share.

    Every assembly stores K and M on one CSR pattern, and K - s M is
    symmetric, so the CSR arrays of K - s M are its CSC arrays too: no sparse
    subtraction or format conversion is needed.  ContractError if the two
    patterns differ.
    """
    import scipy.sparse as sp

    if not (np.array_equal(K.indptr, M.indptr) and np.array_equal(K.indices, M.indices)):
        raise ContractError("K and M must share one sparsity pattern")
    return sp.csc_matrix((K.data - s * M.data, K.indices, K.indptr), shape=K.shape)


def _count_eigenvalues_below(K, M, sigma: float):
    """Negative-pivot count of K - sigma M (its inertia) plus the factorisation.

    Reading ``lu.U`` makes scipy build CSC copies of both L and U and cache
    them on the factor.  Solves use SuperLU's own storage, never these
    copies, so once the count is read both are emptied in place: their
    entries are replaced by fresh empty arrays and their column pointers by
    fresh zeros (a slice would be a view that keeps the old buffer alive).
    The returned factor then holds only SuperLU's storage, and the Lanczos
    basis grows into the freed pages.
    """
    lu = _symmetric_lu(_shifted(K, M, sigma))
    below = int((lu.U.diagonal() < 0.0).sum())
    for cached in (lu.L, lu.U):
        cached.data, cached.indices = np.empty(0, cached.dtype), np.empty(0, cached.indices.dtype)
        cached.indptr = np.zeros(cached.shape[1] + 1, cached.indptr.dtype)
    return below, lu


def _dense_lowest(system: AssembledSystem):
    """The two lowest eigenpairs (every mesh has 3 nodes or more), by dense eigh."""
    import scipy.linalg as dla

    K = system.stiffness_plus_boundary.toarray()
    M = system.mass.toarray()
    return dla.eigh(K, M, subset_by_index=[0, 1])


def _inf_norm(A: sp.csr_matrix) -> float:
    """max_i sum_j |A_ij|, summed over A's CSR rows in place: no copy of A."""
    starts = A.indptr[:-1][np.diff(A.indptr) > 0]  # an empty row sums to 0
    return float(np.add.reduceat(np.abs(A.data), starts).max()) if len(starts) else 0.0


def _checked_pair(system, lam, v, iterations, method, shift=None, solves=0) -> EigenPair:
    """The M-normalised pair, if ||(K - lam M) v|| <= _TOL * ||K||_inf holds;
    otherwise EigenSolveError with the residual, its target and lam."""
    K, M = system.stiffness_plus_boundary, system.mass
    target = _TOL * _inf_norm(K)
    v = _normalize(v, M)
    res = float(np.linalg.norm(K @ v - lam * (M @ v)))
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
    return EigenPair(float(lam), v, res, iterations, method, shift, solves)


def _lanczos(K, M, lu) -> tuple[np.ndarray, int]:
    """Top Ritz vector of (K - sigma M)^-1 M, ``lu`` factoring K - sigma M,
    and the number of solves with ``lu`` it took.

    B holds the M-orthonormal basis as rows, H the projected operator.  A full
    basis restarts from the top two Ritz vectors and the next Lanczos vector,
    so a nearly degenerate corner pair cannot stall it."""
    n, m = K.shape[0], min(_BASIS, K.shape[0])
    B, H = np.empty((m, n)), np.zeros((m, m))
    B[0], j = _normalize(np.ones(n), M), 0
    Mq = M @ B[0]
    for solve in range(1, _MAX_SOLVES + 1):
        w = lu.solve(Mq)
        for _ in range(2):
            h = B[: j + 1] @ (M @ w)
            w -= h @ B[: j + 1]
            H[: j + 1, j] += h
        Mw = M @ w
        beta = math.sqrt(max(w @ Mw, 0.0))
        theta, S = np.linalg.eigh(H[: j + 1, : j + 1], UPLO="U")
        if beta * abs(S[-1, -1]) <= np.finfo(float).eps * theta[-1] or solve == _MAX_SOLVES:
            return S[:, -1] @ B[: j + 1], solve
        if j + 1 < m:
            B[j + 1], Mq, j = w / beta, Mw / beta, j + 1
        else:
            B[:3], Mq = np.vstack([S[:, -2:].T @ B, w / beta]), Mw / beta
            H[:], H[:2, :2], j = 0.0, np.diag(theta[-2:]), 2


def solve_lowest(system: AssembledSystem, shift: float | None = None) -> EigenPair:
    """Smallest generalized eigenvalue and M-normalised eigenvector.

    The eigenvector is scaled to psi^T M psi = 1 with positive mean and
    satisfies ||(K - lambda M) psi|| <= _TOL * ||K||_inf.  ``shift`` should lie
    below the lowest eigenvalue (see ``safe_shift``); if omitted, one is
    derived from the system's own parameters.  Shift-invert Lanczos runs on
    the factorisation that certifies the shift until its top Ritz pair is at
    roundoff or 400 solves have passed; EigenSolveError if the residual fails.
    """
    K, M = system.stiffness_plus_boundary, system.mass
    sigma = float(shift) if shift is not None else safe_shift(system.params, system.alpha)

    # certify the shift: walk down until no eigenvalue lies below it
    for attempt in range(12):
        try:
            below, lu = _count_eigenvalues_below(K, M, sigma)
        except RuntimeError:  # exactly singular: nudge off the eigenvalue
            sigma = sigma * (1.0 + 1e-8) - 1e-8
            continue
        if below == 0:
            break
        del lu  # a rejected factor is not kept through the next one
        sigma = 2.5 * sigma - 1.0
    else:
        raise EigenSolveError(
            "could not certify a shift below the spectrum",
            diagnostics={"shift": sigma, "dof": system.dof_count},
        )

    v, solves = _lanczos(K, M, lu)
    del lu  # the factor before the checks
    lam = rayleigh(system, v)
    return _checked_pair(system, lam, v, attempt + 1, "lanczos-shift-invert", sigma, solves)


def solve_quad(p: QuadParams, alpha: float, mesh: Mesh | int, form: str = "transformed") -> EigenState:
    """Assemble and solve the lowest eigenpair for (p, alpha) on a mesh.

    ``mesh`` may be a Mesh or a refinement level n, which means
    ``build_mesh(n, p.S)``.  A mesh no finer than the level-8 companion is
    solved densely; otherwise a dense solve on the companion
    ``build_mesh(8, p.S)`` refines the safe shift for ``solve_lowest`` and
    provides the spectral-gap estimate.  ``build_mesh`` keeps recent meshes,
    so repeated solves at one level and S reuse both meshes' blocks.
    ``form`` selects the assembly route, "transformed" or "direct";
    ContractError for any other.
    """
    if form not in _ASSEMBLERS:
        raise ContractError(f"form must be 'transformed' or 'direct', got {form!r}")
    if isinstance(mesh, (int, np.integer)):
        mesh = build_mesh(int(mesh), p.S)
    assemble = _ASSEMBLERS[form]
    sparse = mesh.refinement_level > _COARSE_LEVEL
    # the caller chose the solve mesh, so its boundary-layer warning is issued
    # here, naming the caller's line; the companion only anchors the shift
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryLayerWarning)
        system = assemble(p, alpha, mesh)
        if sparse:
            companion = assemble(p, alpha, build_mesh(_COARSE_LEVEL, p.S))
    _warn_boundary_layer(p, alpha, mesh)

    if not sparse:
        vals, vecs = _dense_lowest(system)
        pair = _checked_pair(system, vals[0], vecs[:, 0], 1, "dense")
    else:
        vals, _ = _dense_lowest(companion)
        pair = solve_lowest(system, shift=safe_shift(p, alpha, float(vals[0])))
    gap = float(vals[1] - vals[0])
    return EigenState(p, alpha, mesh, system, pair.lambda_h, pair.psi_h, pair.residual, gap, form)
