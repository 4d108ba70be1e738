"""Bench SE — slot-engine throughput: native, vectorized, reference.

Unlike the figure benchmarks, these time the slot engines directly on
the ``repro bench`` workloads (the Fig. 1 V_Sp carrier): one trace per
engine so the suite's timing table shows the gaps per workload, plus a
summary run through :func:`repro.core.bench.measure` that asserts the
fast paths actually are the fast paths.  ``native`` is what
``engine="auto"`` runs for a lone session when the native kernel
loads.  Throughput tracking across PRs lives in ``repro bench`` /
``BENCH_slot_engine.json``; these keep the same numbers visible inside
the pytest-benchmark suite.
"""

import pytest

from repro.core import bench

DURATION_S = 2.0
SEED = 2024


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_single_ue_trace(benchmark, engine):
    trace = benchmark.pedantic(
        bench.single_ue_trace, args=(engine, DURATION_S, SEED),
        rounds=1, iterations=1)
    benchmark.extra_info["n_slots"] = len(trace)
    assert trace.total_bits > 0


def test_single_ue_trace_native(benchmark):
    skipped = bench._native_skip_reason()
    if skipped is not None:
        pytest.skip(skipped)
    trace = benchmark.pedantic(
        bench.single_ue_trace, args=("auto", DURATION_S, SEED),
        rounds=1, iterations=1)
    benchmark.extra_info["n_slots"] = len(trace)
    assert trace.total_bits > 0


@pytest.mark.parametrize("engine", ["vectorized", "reference"])
def test_multi_ue_traces(benchmark, engine):
    traces = benchmark.pedantic(
        bench.multi_ue_traces, args=(engine, DURATION_S), kwargs={"seed": SEED},
        rounds=1, iterations=1)
    benchmark.extra_info["n_slots"] = len(traces[0])
    benchmark.extra_info["n_ues"] = len(traces)
    assert all(t.total_bits > 0 for t in traces)


def test_vectorized_beats_reference(benchmark):
    """The quick benchmark matrix, with the speedup claim asserted."""
    report = benchmark.pedantic(
        bench.measure, kwargs={"quick": True, "seed": SEED},
        rounds=1, iterations=1)
    for name, data in report["workloads"].items():
        vec = data["vectorized"]["warm_slots_per_s"]
        ref = data["reference"]["warm_slots_per_s"]
        benchmark.extra_info[f"{name}_vectorized_warm"] = vec
        benchmark.extra_info[f"{name}_reference_warm"] = ref
        benchmark.extra_info[f"{name}_speedup"] = round(vec / ref, 2)
        # Warm best-of throughput: the segment-batched path must beat the
        # scalar oracle on its home workload or the default is wrong.
        assert vec > ref, f"{name}: vectorized {vec:,.0f} <= reference {ref:,.0f}"
        native = data.get("native", {}).get("warm_slots_per_s")
        if native is not None:
            # What engine="auto" runs for a lone session must beat the
            # portable engine it replaces.
            benchmark.extra_info[f"{name}_native_warm"] = native
            assert native > vec, \
                f"{name}: native {native:,.0f} <= vectorized {vec:,.0f}"
