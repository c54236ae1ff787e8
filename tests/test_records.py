import dataclasses
import json

import numpy as np
import pytest

from quadrobin import certificates as certs
from quadrobin.cli import RunConfig, _build_parser, _config_from_args
from quadrobin.geometry import QuadParams
from quadrobin.sensitivity import LocalMaxVerdict, SensitivityReport, sensitivity_report, verify_local_max
from quadrobin.square_exact import SquareSolution, solve_square

P = QuadParams(6.0, 0.0, 1.0, 1.0)


def _same(x, y) -> bool:
    if isinstance(x, dict):
        return isinstance(y, dict) and list(x) == list(y) and all(_same(x[k], y[k]) for k in x)
    if isinstance(x, (np.ndarray, list)):
        return np.array_equal(x, y)
    return x == y


@pytest.fixture(scope="module")
def records(meshes):
    cfg = _config_from_args(_build_parser().parse_args(
        ["sweep", "--grid", "a1=-1:1:3", "--grid", "alpha=-2:-1:2", "--mesh", "12"]
    ))
    return {
        "QuadParams": P,
        "Certificate": certs.certify_all(P, -1.0),
        "Thresholds": certs.parameter_thresholds(-1.0),
        "SquareSolution": solve_square(-1.0, 0.7),
        "LocalMaxVerdict": verify_local_max(-1.0, 1.0, meshes(8)),
        "SensitivityReport": sensitivity_report(QuadParams(0.2, -0.1, 1.1, 0.8), -2.0, meshes(8)),
        "RunConfig": cfg,
    }


# the key lists each hand-written to_dict emitted before the shared codec
KEYS = {
    "QuadParams": ["a1", "a2", "c", "S1", "S"],
    "Certificate": ["kind", "params", "alpha", "quantities", "verdict", "notes"],
    "Thresholds": ["alpha", "S", "q", "A", "c1", "c2", "S_tilde", "fired_checks"],
    "SquareSolution": [
        "alpha", "S", "L", "t_star", "lambda1", "norm_const", "boundary_norm_sq", "grad_norm_sq",
    ],
    "LocalMaxVerdict": [
        "alpha", "S", "mesh_level", "hessian_closed", "hessian_discrete", "gradient", "mu",
        "negative_definite", "trace_condition", "det_condition", "offblock_max",
        "gram_cauchy_schwarz", "verdict",
    ],
    "SensitivityReport": [
        "params", "alpha", "mesh_level", "method", "gradient", "hessian", "parameter_order",
    ],
    "RunConfig": [
        "command", "a1", "a2", "c", "S1", "S", "alpha", "mesh", "method", "kind", "grids",
        "out", "format", "trials",
    ],
}


@pytest.mark.parametrize("name", list(KEYS))
def test_json_round_trip_restores_every_field(name, records):
    record = records[name]
    for record in record if isinstance(record, list) else [record]:
        again = type(record).from_dict(json.loads(record.to_json()))
        for f in dataclasses.fields(record):
            original, restored = getattr(record, f.name), getattr(again, f.name)
            assert _same(original, restored), (name, f.name, original, restored)


def test_all_three_certificate_kinds_are_covered(records):
    kinds = [c.kind for c in records["Certificate"]]
    assert kinds == ["small_alpha", "trial_one", "large_alpha_asymptotic"]
    assert records["Certificate"][2].alpha is None


@pytest.mark.parametrize("name", list(KEYS))
def test_to_dict_key_order_is_pinned(name, records):
    record = records[name]
    for r in record if isinstance(record, list) else [record]:
        assert list(r.to_dict()) == KEYS[name]


def test_nested_records_and_arrays_become_plain_json(records):
    data = records["SensitivityReport"].to_dict()
    assert data["params"] == {"a1": 0.2, "a2": -0.1, "c": 1.1, "S1": 0.8, "S": 1.0}
    assert isinstance(data["hessian"], list) and isinstance(data["hessian"][0], list)
    assert data["parameter_order"] == ["a1", "a2", "c", "S1"]
    restored = SensitivityReport.from_dict(data)
    assert restored.params == QuadParams(0.2, -0.1, 1.1, 0.8)
    assert restored.hessian.dtype == float


def test_from_dict_keeps_defaults_and_ignores_unknown_keys():
    assert QuadParams.from_dict({"a1": 0, "a2": 0, "c": 2, "S1": 1, "extra": "x"}) == QuadParams(
        0.0, 0.0, 2.0, 1.0, 1.0
    )
    verdict = LocalMaxVerdict.from_dict(
        {**dict.fromkeys(KEYS["LocalMaxVerdict"][:-1], 1), "verdict": "ignored"}
    )
    assert verdict.verdict == "negative definite"
    assert verdict.mu.dtype == float and verdict.mesh_level == 1


def test_run_config_key_named_like_a_method_keeps_the_method():
    cfg = RunConfig.from_dict({"command": "solve-quad", "params": 1})
    assert cfg.params() == QuadParams.square()


def test_square_solution_from_dict_converts_numbers_to_float():
    sol = SquareSolution.from_dict({k: 1 for k in KEYS["SquareSolution"]})
    assert all(type(getattr(sol, k)) is float for k in KEYS["SquareSolution"])


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import quadrobin

    names = ["quadrobin"] + [
        f"quadrobin.{info.name}" for info in pkgutil.iter_modules(quadrobin.__path__)
        if info.name != "__main__"
    ]
    exported = 0
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"{name}.__all__ names missing {attr!r}"
            exported += 1
    assert exported > 0
