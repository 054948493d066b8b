"""Tests of the benchmark's own logic: self time, tracing, checks, contract.

    python3 -m pytest bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tflab import mfcz, sampling  # noqa: E402


def test_union_length_merges_overlaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (2, 4), (3, 5), (5, 6)]) == 5.0


def test_self_time_subtracts_children_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),     # overlaps a: the union counts once
        ("c", 2.0, 3.0, 1),     # grandchild: only a loses it
        ("d", 9.0, 12.0, 0),    # runs past its parent: clipped to [9, 10]
    ]
    assert tracer.self_times(spans) == [10.0 - 6.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_ratios_and_coverage():
    spans = [
        ("timefreq.exceptional_sets", 0.0, 4.0, -1),
        ("sampling.maximal_dyadic_intervals", 0.0, 1.0, 0),
        ("sampling.maximal_dyadic_intervals", 1.0, 2.0, 0),
        ("sampling.maximal_dyadic_intervals", 2.0, 3.0, 0),
        ("packets.PacketBank.coefficient", 5.0, 6.0, -1),
        ("packets.canonical_packet", 5.0, 5.5, 4),
        ("packets.PacketBank.coefficient", 6.0, 6.5, -1),
        ("packets.PacketBank.coefficient", 6.5, 7.0, -1),
        ("packets.PacketBank.coefficient", 7.0, 8.0, -1),
    ]
    m = tracer.layer_metrics(spans, {}, [], wall=10.0)
    assert m["timefreq.exceptional_sets.doublings"] == 2
    assert m["timefreq.exceptional_sets.s"] == 1.0
    assert m["sampling.maximal_dyadic_intervals.calls"] == 3
    assert m["packets.bank.hit_ratio"] == 0.75
    assert m["packets.s"] == 3.0
    assert m["trace.coverage"] == 0.7
    assert m["lab.engine.useful_ratio"] == 0.0


def test_tracer_wraps_imported_names_and_restores():
    grid = sampling.Grid(-16.0, 16.0, 2 ** 10)
    f = sampling.GridFunction(grid, np.exp(-grid.xs() ** 2) + 0j)
    orig = mfcz.superlevel_decompose
    with tracer.Tracer() as tr:
        assert mfcz.superlevel_decompose is not orig
        mf = mfcz.maximal_function(f, 1.0)
        qs = mfcz.superlevel_decompose(mf, 0.5)
    assert mfcz.superlevel_decompose is orig
    assert sampling.superlevel_decompose is orig
    assert [s[0] for s in tr.spans] == ["sampling.maximal_function",
                                        "sampling.superlevel_decompose"]
    m = tracer.layer_metrics(tr.spans, tr.counters, tr.absent, wall=1.0)
    assert m["sampling.superlevel_decompose.intervals"] == len(qs) > 0


def test_missing_name_is_absent_not_fatal(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED
                        + [("mfcz", "no_such_function", "mfcz.no_such_function")])
    monkeypatch.setattr(tracer, "METRICS", tracer.METRICS
                        + [("mfcz.no_such_function.s", "s", "lower")])
    with tracer.Tracer() as tr:
        pass
    assert tr.absent == ["mfcz.no_such_function"]
    m = tracer.layer_metrics(tr.spans, tr.counters, tr.absent, wall=1.0)
    assert "mfcz.no_such_function.s" not in m
    assert "mfcz.mfcz_decompose.s" in m


def _reference():
    return json.loads(run.REFERENCE.read_text())


def _items(digests):
    return [workloads.Item(f"item{i}", True, "", d) for i, d in enumerate(digests)]


def test_reference_accepts_itself():
    for name, ref in _reference().items():
        items = workloads.against_reference(_items(json.loads(json.dumps(ref))), ref)
        assert all(it.ok for it in items), name


def test_check_catches_a_dropped_q_interval():
    ref = _reference()["mfcz-suite"]
    got = json.loads(json.dumps(ref))
    case = next(i for i, d in enumerate(got) if d)
    got[case] = got[case][1:]
    items = workloads.against_reference(_items(got), ref)
    assert [it.ok for it in items].count(False) == 1
    assert not items[case].ok


def test_check_catches_a_nudged_lambda_model():
    ref = _reference()["sweep-T1"]
    got = json.loads(json.dumps(ref))
    got[3][1] *= 1 + 1e-6
    items = workloads.against_reference(_items(got), ref)
    assert [it.ok for it in items].count(False) == 1
    assert not items[3].ok
    got[3][1] = ref[3][1] * (1 + 1e-12)  # within the 1e-9 tolerance
    assert all(it.ok for it in workloads.against_reference(_items(got), ref))


def test_t1_growth_check_rejects_power_growth():
    d = 2.0 ** -np.arange(1, 11)
    ok, _ = workloads.t1_growth_check(d, 2.0 * np.log(np.e + 1 / d))
    assert ok
    ok, _ = workloads.t1_growth_check(d, d ** -0.8)
    assert not ok


def test_sweep_ratios_seeded_and_decreasing():
    assert workloads.sweep_ratios(range(1, 11), 0) == [2.0 ** -j for j in range(1, 11)]
    for seed in range(1, 20):
        r = workloads.sweep_ratios((1, 5, 10), seed)
        assert r == workloads.sweep_ratios((1, 5, 10), seed)
        assert all(a > b > 0 for a, b in zip(r, r[1:]))


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == tracer.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
