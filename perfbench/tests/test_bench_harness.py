"""Tests of the benchmark itself: inputs, metric names, percentile rule, checks.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import re

import numpy as np
import pytest

import bootstrap
from quadrobin import QuadParams
from quadrobin.sensitivity import SensitivityReport
from run import LAYER_METRICS
from stats import Tally, percentile
from tracing import Tracer
from workloads import WORKLOADS, Case, Draw, SolveWorkload


METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    return json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    wl = WORKLOADS[name]
    first, again, other = wl.setup(7).cases, wl.setup(7).cases, wl.setup(8).cases
    assert first == again
    assert first != other
    assert len(first) == wl.pool


def test_metric_names_are_well_formed_and_match_the_benchmark_file():
    spec = _benchmark_json()
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(METRIC_NAME.fullmatch(name) for name in declared)
    assert len(declared) == len(set(declared))
    produced = set(LAYER_METRICS) | {
        "coefficients.first_call_s",
        "trace.untraced_ops_per_s",
        "trace.traced_ops_per_s",
        "trace.overhead_ratio",
    }
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert not METRIC_NAME.fullmatch("latency p50")


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    assert percentile(list(range(19)), 0.5) is None


# 1,201 dof: just above solve_quad's dense limit, so the sparse path runs
SMALL = SolveWorkload("small", level=24, shared_mesh=True, pool=4, a1=1.0,
                      alpha=(-4.0, -0.25))


def test_traced_solve_reproduces_untraced_lambda():
    ctx = SMALL.setup(3)
    tracer = Tracer()
    for case in ctx.cases:
        assert SMALL.same(SMALL.op(ctx, case), SMALL.traced_op(ctx, case, tracer))
    names = {s.name for s in tracer.spans}
    assert names == SolveWorkload.spans - {"mesh.build"}


def test_wrong_value_in_the_checker_raises_fail_ratio():
    ctx = SMALL.setup(3)
    case = ctx.cases[0]
    good = SMALL.op(ctx, case)
    tally = Tally()
    assert tally.record("good", SMALL.check(ctx, case, good, True))
    assert tally.fail_ratio == 0.0
    wrong = dataclasses.replace(good, lambda_h=good.lambda_h * (1.0 + 1e-6))
    assert not tally.record("wrong", SMALL.check(ctx, case, wrong, False))
    assert tally.fail_ratio == 0.5
    # a traced twin that passed its own checks but disagrees also fails
    assert not SMALL.same(good, wrong)
    tally.fail_recorded("traced", "does not reproduce")
    assert (tally.attempted, tally.failed) == (2, 2)


def test_theorem3_check_rejects_a_silent_draw_beyond_the_radius():
    wl = WORKLOADS["theorem3"]
    ctx = wl.setup(1)
    case = Case(QuadParams.square(1.0), -1.0)
    silent = Draw(ctx.radius + 1.0, True, [], [None, None, None])
    assert wl.check(ctx, case, silent, False)
    assert not wl.check(ctx, case, dataclasses.replace(silent, fired=["I"]), False)


def test_sensitivity_check_rejects_non_finite_entries():
    wl = WORKLOADS["sensitivity-m64"]
    case = Case(QuadParams(0.3, -0.2, 1.3, 0.55, 1.0), -1.0)
    report = SensitivityReport(case.p, -1.0, 16, "discrete_formula", np.zeros(4), np.eye(4))
    assert not wl.check(None, case, report, False)
    report.gradient[2] = np.nan
    assert wl.check(None, case, report, False)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    st = tracer.self_times()
    op, a, b = tracer.spans
    assert st[op.id] == pytest.approx(op.duration - a.duration - b.duration)
    assert a.parent == op.id and b.parent == op.id
