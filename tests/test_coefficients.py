"""Hand-written coefficient tables against a symbolic oracle, and no sympy at runtime."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quadrobin
from quadrobin.coefficients import PARAMS, first_tables, second_tables
from quadrobin.geometry import QuadParams

# each field's indices in the coefficient vector, compared on its own scale
FIELDS = {"G_upper": [0, 1, 2], "G_lower": [6, 7, 8], "edge": [4, 5, 10, 11], "mass": [3, 9]}
PAIRS = tuple(itertools.combinations_with_replacement(range(4), 2))


def _symbolic_tables():
    """The coefficient formulas differentiated by sympy, evaluated in mpmath.

    The expressions are differentiated symbolically and evaluated at 40
    digits, so the oracle carries no cancellation of its own (a
    double-precision lambdify of d2/da1^2 of an edge ratio loses 3.6e-13 where
    Sj/c is small against aj + c).
    """
    sym = pytest.importorskip("sympy")

    a1, a2, c, S1, S = sym.symbols("a1 a2 c S1 S", real=True)
    S2 = 2 * S - S1
    G = [
        sym.Matrix([[Sj / c**2 + aj**2 / Sj, eps * aj * c / Sj], [eps * aj * c / Sj, c**2 / Sj]])
        for aj, Sj, eps in ((a1, S1, -1), (a2, S2, +1))
    ]
    ell0 = sym.sqrt(2 * S)
    # boundary-label order (1,1), (2,1), (1,2), (2,2): sign +, -, +, -
    edge_ratio = [
        sym.sqrt(S1**2 / c**2 + (a1 + c) ** 2) / ell0,
        sym.sqrt(S1**2 / c**2 + (a1 - c) ** 2) / ell0,
        sym.sqrt(S2**2 / c**2 + (a2 + c) ** 2) / ell0,
        sym.sqrt(S2**2 / c**2 + (a2 - c) ** 2) / ell0,
    ]
    mass_w = [S1 / S, S2 / S]
    names = dict(zip(PARAMS, (a1, a2, c, S1)))

    # the 12 coefficients in block order: per half G11, G12, G22, Sj/S, edges
    blocks = [
        e
        for j in (0, 1)
        for e in (G[j][0, 0], G[j][0, 1], G[j][1, 1], mass_w[j], *edge_ratio[2 * j : 2 * j + 2])
    ]

    def bundle(*vs):
        return [sym.diff(e, *vs) for e in blocks]

    first = [bundle(names[v]) for v in PARAMS]
    second = [bundle(names[PARAMS[i]], names[PARAMS[j]]) for i, j in PAIRS]
    args = (a1, a2, c, S1, S)
    return (
        sym.lambdify(args, first, modules="mpmath"),
        sym.lambdify(args, second, modules="mpmath"),
    )


def _evaluate(f, p: QuadParams):
    import mpmath

    with mpmath.workdps(40):
        raw = f(*(mpmath.mpf(x) for x in (p.a1, p.a2, p.c, p.S1, p.S)))
        return [np.array(entry, dtype=float) for entry in raw]


def _random_points(count):
    rng = np.random.default_rng(20240901)
    out = []
    for k in range(count):
        S = (0.5, 1.0, 2.0)[k % 3]
        out.append(
            QuadParams(
                a1=float(rng.uniform(-2.0, 2.0)),
                a2=float(rng.uniform(-2.0, 2.0)),
                c=float(np.sqrt(S) * np.exp(rng.uniform(np.log(0.3), np.log(3.0)))),
                S1=float(rng.uniform(0.05, 0.95) * 2.0 * S),
                S=S,
            )
        )
    return out


def test_tables_match_symbolic_oracle():
    f1, f2 = _symbolic_tables()
    worst = 0.0
    for p in _random_points(60):
        tab1, tab2 = first_tables(p), second_tables(p)
        pairs = [(tab1[:, i], entry) for i, entry in enumerate(_evaluate(f1, p))]
        pairs += [(tab2[:, i, j], entry) for (i, j), entry in zip(PAIRS, _evaluate(f2, p))]
        for table, oracle in pairs:
            for name, field in FIELDS.items():
                got, expected = table[field], oracle[field]
                assert got.shape == expected.shape
                err = np.abs(got - expected).max()
                scale = np.abs(expected).max()
                assert err <= 1e-13 * scale, (p, name, got, expected)
                if scale:
                    worst = max(worst, err / scale)
    assert worst > 0.0  # the comparison is not vacuous


def test_cli_sensitivity_path_never_imports_sympy():
    src = str(Path(quadrobin.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys\n"
        "import quadrobin.cli\n"
        "from quadrobin.geometry import QuadParams\n"
        "from quadrobin.sensitivity import sensitivity_report\n"
        "sensitivity_report(QuadParams(0.3, -0.1, 1.2, 0.9), -1.0, 8, 'discrete_formula')\n"
        "print('sympy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
