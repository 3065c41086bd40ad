"""Tests of the benchmark's own code: statistics, span arithmetic, checks.

    python3 -m pytest -q perfbench/tests
"""

import pytest

import checks
import run as bench
import tracing
import workloads
from coxmin import braid, conjugacy, coxeter, walk
from coxmin.walk import WalkStep


# ---------------------------------------------------------------------------
# The tail percentile rule.


@pytest.mark.parametrize("n, p", [(110, 90), (102, 90), (100, 90), (99, 80),
                                  (50, 80), (49, 75), (40, 75), (39, 50),
                                  (20, 50), (1000, 99)])
def test_tail_percentile_keeps_ten_beyond(n, p):
    assert bench.tail_percentile(n) == p
    assert n * (100 - p) >= 1000


def test_tail_percentile_needs_twenty_operations():
    with pytest.raises(bench.BenchError):
        bench.tail_percentile(19)


def test_percentile_interpolates():
    values = list(range(1, 102))  # 1..101
    assert bench.percentile(values, 50) == 51
    assert bench.percentile(values, 90) == 91


def test_round_figures():
    op_ref = [1.0] * 90 + [2.0] * 10
    fig = bench.round_figures(op_ref)
    assert fig["wall_ref"] == pytest.approx(110.0)
    assert fig["op_p50_ref"] == 1.0
    assert fig["tail_percentile"] == 90
    assert 1.0 <= fig["op_tail_ref"] <= 2.0


# ---------------------------------------------------------------------------
# Self time on nested spans.


def test_self_times_subtract_children():
    names = ["a", "b", "c", "d"]
    # a [0, 10] holds b [1, 4] and d [5, 9]; b holds c [2, 3].
    name = [0, 1, 2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    out = tracing.self_times(names, name, start, end, parent)
    assert out["a"] == (1, pytest.approx(3.0))
    assert out["b"] == (1, pytest.approx(2.0))
    assert out["c"] == (1, pytest.approx(1.0))
    assert out["d"] == (1, pytest.approx(4.0))


def test_self_times_aggregate_calls_and_clip_children():
    names = ["outer", "inner"]
    # Two inner calls under one outer; the second overhangs the outer's end.
    name = [0, 1, 1]
    start = [0.0, 1.0, 5.0]
    end = [6.0, 2.0, 7.0]
    parent = [-1, 0, 0]
    out = tracing.self_times(names, name, start, end, parent)
    assert out["outer"] == (1, pytest.approx(6.0 - 1.0 - 1.0))
    assert out["inner"] == (2, pytest.approx(3.0))


def test_tracer_records_nested_calls():
    tracer = tracing.Tracer()

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap("m.leaf", leaf)

    def mid(x):
        return traced_leaf(traced_leaf(x))

    traced_mid = tracer.wrap("m.mid", mid)
    assert traced_mid(1) == 3
    tracer.enabled = False
    assert traced_mid(1) == 3  # paused: no spans
    out = tracer.self_times()
    assert out["m.mid"][0] == 1 and out["m.leaf"][0] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    total = tracer.end[0] - tracer.start[0]
    assert out["m.mid"][1] + out["m.leaf"][1] == pytest.approx(total)


# ---------------------------------------------------------------------------
# Corrupted results are counted as failed operations.


@pytest.fixture(scope="module")
def a3():
    system = coxeter.build_system(coxeter.named_matrix("A3"))
    records = conjugacy.enumerate_classes(system)
    return system, records


def _corrupt_good(rec):
    """The certificate of a good element, paired with a longer class element."""
    _, cert = braid.good_min_element(rec)
    longer = next(x for x in rec.elements if x not in rec.o_min)
    return rec.coset.element(longer), cert


def _corrupt_walk(rec, system):
    chamber = coxeter.Chamber(system, system.table().element(17))
    result = walk.descent_walk(rec.representative, chamber)
    assert result.steps, "the chosen walk must take a step"
    first = result.steps[0]
    result.steps[0] = WalkStep(first.wall_root, (first.simple_index + 1) % system.rank,
                               first.length_before, first.length_after)
    return chamber, result


def test_check_good_rejects_wrong_min_length(a3):
    system, records = a3
    rec = records[-1]
    w_a, cert = braid.good_min_element(rec)
    checks.check_good(rec, w_a, cert)
    with pytest.raises(checks.CheckFailed):
        checks.check_good(rec, *_corrupt_good(rec))


def test_check_walk_rejects_broken_chain(a3):
    system, records = a3
    rec = records[-1]
    chamber = coxeter.Chamber(system, system.table().element(17))
    vw = workloads._VwCache()
    result = walk.descent_walk(rec.representative, chamber)
    checks.check_walk(rec.representative, chamber, result,
                      vw.basis(rec, result.end_chamber.system))
    chamber, broken = _corrupt_walk(rec, system)
    with pytest.raises(checks.CheckFailed):
        checks.check_walk(rec.representative, chamber, broken,
                          vw.basis(rec, broken.end_chamber.system))


def test_run_ops_counts_corrupted_results_as_failed(a3):
    system, records = a3
    rec = records[-1]
    vw = workloads._VwCache()
    chamber, broken = _corrupt_walk(rec, system)

    def check_walk(result):
        checks.check_walk(rec.representative, chamber, result,
                          vw.basis(rec, result.end_chamber.system))

    def raises():
        raise ValueError("program error")

    ops = [
        workloads.Op("good ok", lambda: braid.good_min_element(rec),
                     lambda out: checks.check_good(rec, *out)),
        workloads.Op("good corrupted", lambda: _corrupt_good(rec),
                     lambda out: checks.check_good(rec, *out)),
        workloads.Op("walk corrupted", lambda: broken, check_walk),
        workloads.Op("raises", raises, lambda out: None),
    ]
    op_s, op_ref, failures = bench.run_ops(ops)
    assert len(op_s) == len(op_ref) == 4
    assert all(r > 0 for r in op_ref)
    assert [f.split(":")[0] for f in failures] == [
        "good corrupted", "walk corrupted", "raises"]


def test_class_table_checks(a3):
    _, records = a3
    sizes = [rec.size for rec in records]
    checks.check_class_table("A3", {(0, 1, 2): sizes})
    with pytest.raises(checks.CheckFailed):
        checks.check_class_table("A3", {(0, 1, 2): sizes[:-1]})
    with pytest.raises(checks.CheckFailed):
        checks.check_class_table("A3", {(0, 1, 2): sizes,
                                        (2, 1, 0): sizes[:-2] + [sizes[-2] + sizes[-1]]})
    for rec in records:
        checks.check_record(rec)


# ---------------------------------------------------------------------------
# BENCHMARK.json names what the benchmark prints.


def test_benchmark_json_matches_printed_metrics():
    import json
    import os
    with open(os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    layers = bench.layer_metrics(tracing.Tracer())
    layers["trace.overhead"] = {"value": 1.0, "unit": "ratio"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry["unit"] for name, entry in layers.items()}
