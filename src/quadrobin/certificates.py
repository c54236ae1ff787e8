"""Closed-form sufficient conditions for lambda(quad) < lambda(square).

Every certificate here is evaluated from closed forms only (edge lengths,
the exact square eigenpair, corner angles); the finite-element solver is
never consulted for a verdict.  A verdict of "certified_less" is only issued
when the relevant strict inequality holds with an absolute margin above
1e-12, and the square itself is never certified against itself.

The workhorse quantity is

    l(p) = sum over edges of |edge| / S_j,

which enters both the perturbation certificate (small alpha) and the
constant-trial-function bound lambda <= (alpha/2) l(p) of the plain-mass
pullback form.  Note the latter is an identity of that normalisation; the
comparison against the exact square value is validated empirically against
the solver in the test suite rather than carrying a full proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._records import Record
from .errors import DomainError
from .geometry import QuadParams, _interior_angles
from .square_exact import solve_square

__all__ = [
    "Certificate",
    "l_value",
    "l_bound_chain",
    "z_denominator",
    "g_alpha",
    "small_alpha_certificate",
    "trial_one_certificate",
    "asymptotic_constant",
    "large_alpha_certificate",
    "Thresholds",
    "parameter_thresholds",
    "threshold_conditions",
    "hausdorff_threshold",
    "certify_all",
    "empirical_small_alpha_crossover",
]

CERTIFIED = "certified_less"
INCONCLUSIVE = "inconclusive"
_MARGIN = 1e-12


@dataclass
class Certificate(Record):
    """Outcome of one closed-form comparison check."""

    kind: str
    params: QuadParams
    alpha: float | None
    quantities: dict = field(default_factory=dict)
    verdict: str = INCONCLUSIVE
    notes: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


def l_value(p: QuadParams) -> float:
    """sum_{edges} |edge| / S_j; minimised (= 4 sqrt(2S)/S) exactly at the square.

    The edges are summed in EDGE_IDS order, each length in the closed form
    of ``edge_length``.
    """
    a1, a2, c, S1, S2 = p.a1, p.a2, p.c, p.S1, p.S2
    h1, h2 = S1 / c, S2 / c
    return (
        math.hypot(h1, a1 + c) / S1
        + math.hypot(h1, a1 - c) / S1
        + math.hypot(h2, a2 + c) / S2
        + math.hypot(h2, a2 - c) / S2
    )


def l_bound_chain(p: QuadParams) -> tuple[float, float, float]:
    """The three successive lower bounds of l: l >= b1 >= b2 >= b3 = 4 sqrt(2S)/S."""
    b1 = 2.0 * math.hypot(p.S1 / p.c, p.c) / p.S1 + 2.0 * math.hypot(p.S2 / p.c, p.c) / p.S2
    b2 = 2.0 * math.sqrt(2.0 / p.S1) + 2.0 * math.sqrt(2.0 / p.S2)
    b3 = 4.0 * math.sqrt(2.0 * p.S) / p.S
    return b1, b2, b3


def z_denominator(p: QuadParams) -> float:
    """Gradient-side coefficient deficit; >= 0 with equality only at the square."""
    c0sq = p.S
    return (
        p.a1**2 * c0sq / (4.0 * p.S1**2)
        + p.a2**2 * c0sq / (4.0 * p.S2**2)
        + p.c**2 * p.S**2 / (4.0 * c0sq * p.S1**2)
        + p.c**2 * p.S**2 / (4.0 * c0sq * p.S2**2)
        + c0sq / (2.0 * p.c**2)
        - 1.0
    )


def _z(p: QuadParams, lval: float, den: float) -> float:
    """z(p) = (S l / (4 sqrt(2) c0) - 1) / z_denominator(p), from l(p) and
    z_denominator(p) already in hand; 0/0 at the square."""
    return (p.S * lval / (4.0 * math.sqrt(2.0) * p.c0) - 1.0) / den


def g_alpha(alpha: float, S: float = 1.0) -> float:
    """g(alpha) = -grad_norm^2 / (alpha * trace_norm^2); positive, -> 0 as alpha -> 0-."""
    if alpha >= 0.0:
        raise DomainError(f"g is defined for alpha < 0, got {alpha}")
    sol = solve_square(alpha, S)
    return -sol.grad_norm_sq / (alpha * sol.boundary_norm_sq)


def small_alpha_certificate(p: QuadParams, alpha: float) -> Certificate:
    """Perturbation certificate: fires when g(alpha) < z(p).

    The square eigenfunction as a trial state beats the square's own value as
    soon as the boundary gain (proportional to l(p) - l(square)) outweighs
    the gradient cost; g < z is exactly that comparison.  Near the square the
    0/0 ratio z is guarded and the verdict is inconclusive.
    """
    return _small_alpha(p, alpha, l_value(p))


def _small_alpha(p: QuadParams, alpha: float, lval: float) -> Certificate:
    """small_alpha_certificate with l(p) already in hand."""
    if alpha >= 0.0:
        raise DomainError(f"alpha must be negative, got {alpha}")
    den = z_denominator(p)
    g = g_alpha(alpha, p.S)
    cert = Certificate(
        kind="small_alpha",
        params=p,
        alpha=alpha,
        quantities={"l": lval, "g": g, "z_denominator": den},
    )
    if den < _MARGIN:
        cert.notes = "z undefined (0/0) at or numerically near the square"
        return cert
    z = _z(p, lval, den)
    cert.quantities["z"] = z
    cert.quantities["margin"] = z - g
    if z - g > _MARGIN:
        cert.verdict = CERTIFIED
    return cert


def trial_one_certificate(p: QuadParams, alpha: float) -> Certificate:
    """Constant-trial certificate: fires when (alpha/2) l(p) < lambda(square).

    (alpha/2) l(p) is the Rayleigh quotient of the constant trial state in
    the plain-mass pullback form (``oracles.assemble_plain_mass``), so it
    bounds that pencil's lowest eigenvalue from above.  That pencil is the
    quadrilateral's only when S1 = S; there beating the exact square value
    certifies the comparison.  Off that slice the plain-mass eigenvalue can
    lie on either side of the quadrilateral's, so the bound is not one for
    the quadrilateral.  Equivalently l(p) > 2 lambda0 / alpha.
    """
    return _trial_one(p, alpha, l_value(p))


def _trial_one(p: QuadParams, alpha: float, lval: float) -> Certificate:
    """trial_one_certificate with l(p) already in hand."""
    if alpha >= 0.0:
        raise DomainError(f"alpha must be negative, got {alpha}")
    lam0 = solve_square(alpha, p.S).lambda1
    bound = 0.5 * alpha * lval
    margin = lam0 - bound
    cert = Certificate(
        kind="trial_one",
        params=p,
        alpha=alpha,
        quantities={
            "l": lval,
            "lambda0": lam0,
            "trial_bound": bound,
            "threshold": 2.0 * lam0 / alpha,
            "margin": margin,
        },
    )
    if margin > _MARGIN:
        cert.verdict = CERTIFIED
    return cert


def asymptotic_constant(theta: float) -> float:
    """Corner constant: csc^2(theta/2) for theta <= pi, else 1."""
    if not 0.0 < theta < 2.0 * math.pi:
        raise DomainError(f"angle must lie in (0, 2*pi), got {theta}")
    if theta >= math.pi:
        return 1.0
    return 1.0 / math.sin(0.5 * theta) ** 2


_RECT_TOL = 1e-12
# the keys of large_alpha_certificate's quantities, per corner
_THETA_KEYS = ("theta_1", "theta_2", "theta_3", "theta_4")
_C_KEYS = ("C_1", "C_2", "C_3", "C_4")


def large_alpha_certificate(p: QuadParams) -> Certificate:
    """Asymptotic certificate for alpha -> -infinity from the corner angles.

    The first eigenvalue behaves like -alpha^2 max_i C_i with C_i the corner
    constants; the square's constant is 2.  Any corner strictly sharper than
    a right angle gives max C_i > 2 and certifies the comparison for all
    sufficiently negative alpha.  Rectangles (max C_i = 2) are inconclusive
    here; for them the square is known to be the maximiser by separation of
    variables, but that is not this certificate.
    """
    quantities = {}
    constants = []
    rectangle = True
    for t, key in zip(_interior_angles(p), _THETA_KEYS):
        quantities[key] = t
        constants.append(asymptotic_constant(t))
        rectangle = rectangle and abs(t - 0.5 * math.pi) <= _RECT_TOL
    quantities.update(zip(_C_KEYS, constants))
    max_c = quantities["max_C"] = max(constants)
    quantities["square_constant"] = 2.0
    cert = Certificate(
        kind="large_alpha_asymptotic", params=p, alpha=None, quantities=quantities
    )
    if rectangle:
        cert.notes = (
            "rectangle: all corner constants equal the square's; the square "
            "is still the maximiser among rectangles by separation of "
            "variables, but not by this asymptotic criterion"
        )
        return cert
    if max_c > 2.0 + _MARGIN:
        cert.verdict = CERTIFIED
        cert.notes = "certified for all sufficiently negative alpha"
    return cert


@dataclass
class Thresholds(Record):
    """Concrete parameter thresholds that force the constant-trial bound.

    Any of: |a1| > A (I), |a2| > A (II), c > c1 (III), c < c2 (IV),
    S1 < S_tilde (V), 2S - S1 < S_tilde (VI) implies l(p) > 2 lambda0/alpha.
    """

    alpha: float
    S: float
    q: float  # lambda0 / alpha > 0
    A: float
    c1: float | None
    c2: float | None
    S_tilde: float | None
    fired_checks: dict


def parameter_thresholds(alpha: float, S: float = 1.0) -> Thresholds:
    """Thresholds A, c1, c2, S_tilde for conditions (I)-(VI) at this alpha.

    Derived by inverting the elementary lower bounds on l:
      l >= |a_j| / (2S)                 ->  A = 4 S lambda0 / alpha,
      l >= 2 sqrt(1/c^2 + c^2/(4S^2))   ->  c1, c2 roots of the quartic in c,
      l >= 2 sqrt(2/S1) + 2 sqrt(2/(2S))->  S_tilde = 2 / (q - 1/sqrt(S))^2,
    with q = lambda0/alpha.  Each threshold is checked by firing the
    constant-trial certificate just beyond it (``fired_checks``).
    """
    if alpha >= 0.0:
        raise DomainError(f"alpha must be negative, got {alpha}")
    lam0 = solve_square(alpha, S).lambda1
    q = lam0 / alpha
    A = 4.0 * S * q
    disc = q**4 - 1.0 / S**2
    if disc >= 0.0:
        root = math.sqrt(disc)
        x_hi = 2.0 * S**2 * (q * q + root)
        x_lo = 2.0 * S**2 * (q * q - root)
        c1 = math.sqrt(x_hi)
        c2 = math.sqrt(x_lo) if x_lo > 0.0 else None
    else:
        c1 = c2 = None
    gap = q - 1.0 / math.sqrt(S)
    S_tilde = 2.0 / gap**2 if gap > 0.0 else None
    if S_tilde is not None and S_tilde >= 2.0 * S:
        S_tilde = None

    c0 = math.sqrt(S)
    probes = {"I": QuadParams(1.01 * A, 0.0, c0, S, S)}
    if c1 is not None:
        probes["III"] = QuadParams(0.0, 0.0, 1.01 * c1, S, S)
    if c2 is not None:
        probes["IV"] = QuadParams(0.0, 0.0, 0.99 * c2, S, S)
    if S_tilde is not None:
        probes["V"] = QuadParams(0.0, 0.0, c0, 0.99 * S_tilde, S)
        probes["VI"] = QuadParams(0.0, 0.0, c0, 2.0 * S - 0.99 * S_tilde, S)
    fired = {name: trial_one_certificate(probe, alpha).certified for name, probe in probes.items()}
    return Thresholds(alpha, S, q, A, c1, c2, S_tilde, fired)


def threshold_conditions(p: QuadParams, alpha: float, th: Thresholds) -> list[str]:
    """Which of the conditions (I)-(VI) hold for p, given ``parameter_thresholds(alpha, p.S)``."""
    fired = []
    if abs(p.a1) > th.A:
        fired.append("I")
    if abs(p.a2) > th.A:
        fired.append("II")
    if th.c1 is not None and p.c > th.c1:
        fired.append("III")
    if th.c2 is not None and p.c < th.c2:
        fired.append("IV")
    if th.S_tilde is not None and p.S1 < th.S_tilde:
        fired.append("V")
    if th.S_tilde is not None and p.S2 < th.S_tilde:
        fired.append("VI")
    return fired


def hausdorff_threshold(alpha: float, S: float = 1.0) -> float:
    """A radius R such that (approximate) d_H(quad, square) > R forces (I)-(VI).

    If none of the threshold conditions holds, the parameters lie in the
    compact box |a_j| <= A, c2 <= c <= c1, S_tilde <= S1 <= 2S - S_tilde, so
    every vertex norm is bounded and both polygons contain the origin; the
    bound combines the worst vertex norm, the square's circumradius and the
    largest possible centroid shift.  Conservative by construction.
    """
    th = parameter_thresholds(alpha, S)
    if th.c1 is None or th.c2 is None or th.S_tilde is None:
        raise DomainError("thresholds unavailable; cannot compose a radius")
    y_max = (2.0 * S - th.S_tilde) / th.c2
    r_vertex = max(th.c1, math.hypot(th.A, y_max))
    centroid_shift = math.hypot(th.A, y_max) / 3.0
    return max(r_vertex, math.sqrt(S)) + centroid_shift


def certify_all(p: QuadParams, alpha: float) -> list[Certificate]:
    """The three certificate kinds for (p, alpha), in a fixed order.

    l(p) is evaluated once, for both alpha-dependent certificates.
    """
    lval = l_value(p)
    return [
        _small_alpha(p, alpha, lval),
        _trial_one(p, alpha, lval),
        large_alpha_certificate(p),
    ]


# empirical_small_alpha_crossover's grid, most negative first: -10 .. -1e-4
_CROSSOVER_ALPHAS = np.sort(-np.logspace(-4, 1, 51))


def empirical_small_alpha_crossover(p: QuadParams) -> dict:
    """Most negative grid alpha where each alpha-dependent certificate fires.

    The certificates fire on an interval (alpha_c, 0); the reported values
    are empirical grid estimates of alpha_c, not closed-form constants.
    """
    out = {"small_alpha": None, "trial_one": None}
    for a in _CROSSOVER_ALPHAS:
        if out["small_alpha"] is None and small_alpha_certificate(p, a).certified:
            out["small_alpha"] = float(a)
        if out["trial_one"] is None and trial_one_certificate(p, a).certified:
            out["trial_one"] = float(a)
    return out
