"""Tests for the tracked slot-engine benchmark (``repro bench``)."""

from __future__ import annotations

import copy

import pytest

from repro.core import bench


def _report(single_vec=800_000.0, single_ref=600_000.0,
            multi_vec=60_000.0, multi_ref=35_000.0) -> dict:
    def cell(warm):
        return {"cold_slots_per_s": warm / 2, "warm_slots_per_s": warm}

    return {
        "bench": "slot_engine",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "workloads": {
            "single_ue": {"vectorized": cell(single_vec),
                          "reference": cell(single_ref), "n_slots": 4000},
            "multi_ue": {"vectorized": cell(multi_vec),
                         "reference": cell(multi_ref), "n_slots": 4000,
                         "n_ues": 4},
        },
    }


class TestRegressionGate:
    def test_identical_reports_pass(self):
        report = _report()
        assert bench.regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        # A machine half as fast slows both engines; no regression.
        base = _report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            for engine in ("vectorized", "reference"):
                data[engine]["warm_slots_per_s"] /= 2.0
        assert bench.regression_failures(current, base) == []

    def test_vectorized_only_slowdown_fails(self):
        base = _report()
        current = copy.deepcopy(base)
        current["workloads"]["single_ue"]["vectorized"]["warm_slots_per_s"] /= 2.0
        failures = bench.regression_failures(current, base, threshold=0.30)
        assert len(failures) == 1
        assert failures[0].startswith("single_ue:")

    def test_missing_workload_fails(self):
        base = _report()
        current = copy.deepcopy(base)
        del current["workloads"]["multi_ue"]
        failures = bench.regression_failures(current, base)
        assert failures == ["multi_ue: missing from current report"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.regression_failures(_report(), _report(), threshold=1.5)


def _native_report(native=2_400_000.0) -> dict:
    report = _report()
    report["workloads"]["single_ue"]["native"] = {
        "cold_slots_per_s": native / 2, "warm_slots_per_s": native}
    return report


class TestNativeRowGate:
    def test_identical_reports_pass(self):
        report = _native_report()
        assert bench.regression_failures(report, report) == []

    def test_native_only_slowdown_fails(self):
        base = _native_report()
        current = copy.deepcopy(base)
        current["workloads"]["single_ue"]["native"]["warm_slots_per_s"] /= 2.0
        failures = bench.regression_failures(current, base)
        assert len(failures) == 1
        assert failures[0].startswith("single_ue: native ")

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = _native_report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            for row in data.values():
                if isinstance(row, dict):
                    row["warm_slots_per_s"] /= 2.0
        assert bench.regression_failures(current, base) == []

    def test_skipped_native_row_fails_with_reason(self):
        base = _native_report()
        current = copy.deepcopy(base)
        current["workloads"]["single_ue"]["native"] = {
            "skipped": "native kernel not loaded: disabled via REPRO_NATIVE"}
        failures = bench.regression_failures(current, base)
        assert failures == ["single_ue: native not measured (native kernel "
                            "not loaded: disabled via REPRO_NATIVE)"]

    def test_baseline_without_native_row_gates_vectorized_only(self):
        assert bench.regression_failures(_native_report(), _report()) == []

    def test_render_shows_native_row_or_skip_reason(self):
        report = _native_report()
        report["config"] = {"profile": "V_Sp", "repetitions": 3}
        assert "native      cold" in bench.render(report)
        report["workloads"]["single_ue"]["native"] = {"skipped": "no cc"}
        assert "native      skipped (no cc)" in bench.render(report)

    def test_skip_reason_names_kernel_status(self, monkeypatch):
        from repro.ran import _native

        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        monkeypatch.setitem(_native._state, "error", "no C compiler on PATH")
        assert bench._native_skip_reason() == (
            "native kernel not loaded: no C compiler on PATH")


def _campaign_report(jobs1_cold=50.0, jobs1_warm=400.0, pipe=90.0,
                     routed_cold=150.0, routed_warm=420.0,
                     shm_cold=65.0, cpu_count=4) -> dict:
    def cell(rate):
        return {"sessions_per_s": rate, "wall_s": round(12.0 / rate, 3)}

    return {
        "bench": "campaign",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "config": {"profiles": ["V_Sp", "O_Sp_100", "T_Ge", "V_Ge"],
                   "n_sessions": 12, "jobs": 2, "seed": 2024,
                   "cpu_count": cpu_count},
        "pool": {"workers": 2, "pools_created": 1, "dispatches": 2,
                 "tasks_executed": 12, "tasks_routed": 12,
                 "tasks_recomputed": 0},
        "workloads": {
            "jobs1_cold": cell(jobs1_cold),
            "jobs1_warm": cell(jobs1_warm),
            "pipe_cold": cell(pipe),
            "store_routed_cold": cell(routed_cold),
            "store_routed_warm": cell(routed_warm),
            "shm_cold": {**cell(shm_cold), "jobs": 2},
        },
        "speedup": {
            "routed_cold_vs_pipe_cold": round(routed_cold / pipe, 2),
            "warm_vs_pre_pr_pipe": round(routed_warm / pipe, 2),
            "shm_cold_vs_jobs1_cold": round(shm_cold / jobs1_cold, 2),
            "shm_cold_vs_pipe_cold": round(shm_cold / pipe, 2),
        },
    }


class TestCampaignRegressionGate:
    def test_identical_reports_pass(self):
        report = _campaign_report()
        assert bench.campaign_regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = _campaign_report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            data["sessions_per_s"] /= 2.0
        assert bench.campaign_regression_failures(current, base) == []

    def test_routed_only_slowdown_fails(self):
        base = _campaign_report()
        current = copy.deepcopy(base)
        current["workloads"]["store_routed_cold"]["sessions_per_s"] /= 2.0
        failures = bench.campaign_regression_failures(current, base, threshold=0.30)
        assert len(failures) == 1
        assert failures[0].startswith("store_routed_cold:")

    def test_pipe_path_is_not_gated(self):
        # The legacy comparator may drift; only the tracked paths gate.
        base = _campaign_report()
        current = copy.deepcopy(base)
        current["workloads"]["pipe_cold"]["sessions_per_s"] /= 10.0
        assert bench.campaign_regression_failures(current, base) == []

    def test_missing_gated_workload_fails(self):
        base = _campaign_report()
        current = copy.deepcopy(base)
        del current["workloads"]["store_routed_warm"]
        failures = bench.campaign_regression_failures(current, base)
        assert failures == ["store_routed_warm: missing from current report"]

    def test_routed_cold_below_pipe_floor_fails(self):
        # Same report as baseline, so normalization passes; only the
        # intra-report routed-vs-pipe floor can fire.
        report = _campaign_report(routed_cold=70.0, pipe=90.0)
        report["quick"] = False
        failures = bench.campaign_regression_failures(report, report)
        assert len(failures) == 1
        assert failures[0].startswith("routed_cold_vs_pipe_cold:")

    def test_routed_cold_within_noise_floor_passes(self):
        report = _campaign_report(routed_cold=85.0, pipe=90.0)  # 0.94x
        report["quick"] = False
        assert bench.campaign_regression_failures(report, report) == []

    def test_shm_below_parallel_efficiency_floor_fails(self):
        # Full-mode, multi-core: shm with 2 workers must reach 1.2x serial.
        report = _campaign_report(shm_cold=55.0)  # 1.10x vs jobs1_cold
        report["quick"] = False
        failures = bench.campaign_regression_failures(report, report)
        assert len(failures) == 1
        assert failures[0].startswith("shm_cold_vs_jobs1_cold:")

    def test_shm_floor_relaxed_in_quick_mode(self):
        # Quick workloads are spawn-dominated; 1.10x clears the 0.85 floor.
        report = _campaign_report(shm_cold=55.0)
        assert bench.campaign_regression_failures(report, report) == []

    def test_shm_floor_relaxed_on_single_core(self):
        # Two workers timesharing one core cannot beat serial wall-clock;
        # the gate degrades to break-even there.
        report = _campaign_report(shm_cold=55.0, cpu_count=1)
        report["quick"] = False
        assert bench.campaign_regression_failures(report, report) == []

    def test_shm_losing_to_serial_fails_everywhere(self):
        # The pre-arena serialization tax (0.58x) must fail on any host.
        report = _campaign_report(shm_cold=29.0, cpu_count=1)
        report["quick"] = False
        failures = bench.campaign_regression_failures(report, report)
        assert any(f.startswith("shm_cold_vs_jobs1_cold:") for f in failures)

    def test_shm_unavailable_platform_skips_gate(self):
        report = _campaign_report()
        del report["workloads"]["shm_cold"]
        del report["speedup"]["shm_cold_vs_jobs1_cold"]
        del report["speedup"]["shm_cold_vs_pipe_cold"]
        report["shm_unavailable"] = True
        assert bench.campaign_regression_failures(report, report) == []

    def test_missing_shm_workload_fails_when_available(self):
        report = _campaign_report()
        del report["speedup"]["shm_cold_vs_jobs1_cold"]
        failures = bench.campaign_regression_failures(report, report)
        assert any("shm workload did not run" in f for f in failures)

    def test_quick_reports_get_pipe_floor_slack(self):
        # Pool spawn dominates a quick run's sub-second wall, so the
        # same 0.78x ratio passes in quick mode but not full mode.
        report = _campaign_report(routed_cold=70.0, pipe=90.0)  # quick
        assert bench.campaign_regression_failures(report, report) == []
        worse = _campaign_report(routed_cold=60.0, pipe=90.0)  # 0.67x
        failures = bench.campaign_regression_failures(worse, worse)
        assert any(f.startswith("routed_cold_vs_pipe_cold:")
                   for f in failures)

    def test_routed_warm_is_not_normalized_across_modes(self):
        # Memo-replay sessions/s is fixed-overhead-bound, so a warm
        # rate below the normalized floor must pass as long as it
        # still crushes its own cold run.
        base = _campaign_report(routed_warm=420.0)
        # Machine 2x faster (jobs1_cold 50 -> 100); warm replay only
        # reaches 520 < the 420 * 2 * 0.7 = 588 normalized floor, but
        # still beats its own cold run by 2x+.
        current = _campaign_report(jobs1_cold=100.0, jobs1_warm=800.0,
                                   pipe=180.0, routed_cold=250.0,
                                   routed_warm=520.0, shm_cold=130.0)
        assert bench.campaign_regression_failures(current, base) == []

    def test_routed_warm_below_intra_report_floor_fails(self):
        report = _campaign_report(routed_cold=150.0, routed_warm=200.0)
        failures = bench.campaign_regression_failures(report, report)
        assert any("memo replay is recomputing" in f for f in failures)

    def test_missing_reference_reports_cleanly(self):
        base = _campaign_report()
        current = copy.deepcopy(base)
        del current["workloads"]["jobs1_cold"]
        failures = bench.campaign_regression_failures(current, base)
        assert failures == ["jobs1_cold: reference workload missing from a report"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.campaign_regression_failures(_campaign_report(),
                                               _campaign_report(), threshold=0.0)


class TestCampaignRender:
    def test_render_lists_workloads_speedup_and_pool(self):
        text = bench.render_campaign(_campaign_report())
        assert "store_routed_cold" in text and "pipe_cold" in text
        assert "4.67x" in text  # 420 / 90 warm-vs-pipe speedup
        assert "workers=2" in text and "routed=12" in text


class TestCampaignWorkloadShape:
    def test_manifest_is_deterministic_and_covers_profiles(self):
        a = bench.campaign_tasks(quick=True, seed=2024)
        b = bench.campaign_tasks(quick=True, seed=2024)
        assert [t.label for t in a] == [t.label for t in b]
        assert [t.seed for t in a] == [t.seed for t in b]
        operators = {t.label.rsplit("/", 2)[0] for t in a}
        assert operators == {"V_Sp", "O_Sp_100", "T_Ge", "V_Ge"}

    def test_quick_mode_is_smaller(self):
        assert len(bench.campaign_tasks(quick=True)) <= \
            len(bench.campaign_tasks(quick=False))


def _reduce_report(exact=12.0, reduce_cold=12.5, store_cold=11.0,
                   store_warm=1200.0, exact_peak=10.0, reduce_peak=2.7,
                   kpi_ok=True, demo_peak=None) -> dict:
    def cell(rate, peak):
        return {"sessions_per_s": rate, "wall_s": round(12.0 / rate, 3),
                "peak_mb": peak}

    report = {
        "bench": "reduce",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": True,
        "config": {"profiles": ["V_Sp", "O_Sp_100", "T_Ge", "V_Ge"],
                   "n_sessions": 12, "jobs": 1, "cold_reps": 2, "seed": 2024},
        "workloads": {
            "exact_cold": cell(exact, exact_peak),
            "reduce_cold": cell(reduce_cold, reduce_peak),
            "reduce_store_cold": cell(store_cold, reduce_peak),
            "reduce_store_warm": cell(store_warm, 0.2),
        },
        "kpi_check": {"ok": kpi_ok, "groups": 8, "max_mean_rel_err": 0.0,
                      "max_std_rel_err": 0.0, "max_percentile_err": 1.9,
                      "percentile_tolerance": 4.0},
        "speedup": {"reduce_cold_vs_exact_cold": round(reduce_cold / exact, 2),
                    "memo_warm_vs_cold": round(store_warm / store_cold, 2)},
        "memory": {"reduce_vs_exact_peak": round(reduce_peak / exact_peak, 3)},
    }
    if demo_peak is not None:
        report["demo"] = {"sessions_per_s": 200.0, "wall_s": 50.0,
                          "peak_mb": demo_peak, "n_sessions": 10000,
                          "peak_vs_reduce_cold": round(demo_peak / reduce_peak, 3)}
    return report


class TestReduceRegressionGate:
    def test_identical_reports_pass(self):
        report = _reduce_report(demo_peak=3.0)
        assert bench.reduce_regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = _reduce_report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            data["sessions_per_s"] /= 2.0
        assert bench.reduce_regression_failures(current, base) == []

    def test_reduce_only_slowdown_fails(self):
        base = _reduce_report()
        current = copy.deepcopy(base)
        current["workloads"]["reduce_cold"]["sessions_per_s"] /= 2.0
        failures = bench.reduce_regression_failures(current, base, threshold=0.30)
        assert len(failures) == 1
        assert failures[0].startswith("reduce_cold:")

    def test_failed_kpi_oracle_fails(self):
        report = _reduce_report(kpi_ok=False)
        failures = bench.reduce_regression_failures(report, report)
        assert any(f.startswith("kpi_check:") for f in failures)

    def test_memo_warm_is_not_normalized_across_modes(self):
        # Memo-hit sessions/s tracks the manifest size, not machine
        # speed: a slow warm rate with a fast exact_cold must not trip
        # the normalized gate as long as it still crushes recompute.
        base = _reduce_report(store_warm=1200.0)
        current = _reduce_report(exact=20.0, reduce_cold=21.0,
                                 store_warm=500.0)
        assert bench.reduce_regression_failures(current, base) == []

    def test_memo_warm_below_intra_report_floor_fails(self):
        report = _reduce_report(store_cold=100.0, store_warm=300.0)  # 3x
        failures = bench.reduce_regression_failures(report, report)
        assert any(f.startswith("memo_warm_vs_cold:") for f in failures)

    def test_unbounded_reduce_peak_fails(self):
        report = _reduce_report(reduce_peak=8.0, exact_peak=10.0)
        failures = bench.reduce_regression_failures(report, report)
        assert any(f.startswith("reduce_cold peak") for f in failures)

    def test_demo_peak_must_track_chunk_size(self):
        report = _reduce_report(demo_peak=50.0)
        failures = bench.reduce_regression_failures(report, report)
        assert any(f.startswith("demo peak") for f in failures)

    def test_missing_reference_reports_cleanly(self):
        base = _reduce_report()
        current = copy.deepcopy(base)
        del current["workloads"]["exact_cold"]
        failures = bench.reduce_regression_failures(current, base)
        assert failures == ["exact_cold: reference workload missing from a report"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.reduce_regression_failures(_reduce_report(), _reduce_report(),
                                             threshold=2.0)


class TestReduceRender:
    def test_render_lists_workloads_oracle_and_demo(self):
        text = bench.render_reduce(_reduce_report(demo_peak=3.0))
        assert "reduce_store_warm" in text and "exact_cold" in text
        assert "PASS" in text and "10000 sessions" in text
        assert "0.27x exact peak" in text


class TestReduceWorkloadShape:
    def test_demo_manifest_is_campaign_shaped_and_large(self):
        manifest = bench.reduce_demo_tasks(seed=7)
        assert len(manifest) >= 10_000
        operators = {t.label.rsplit("/", 2)[0] for t in manifest}
        assert operators == {"V_Sp", "O_Sp_100", "T_Ge", "V_Ge"}


def _tensor_report(session_cold=150.0, session_warm=155.0,
                   tensor_cold=525.0, tensor_warm=550.0,
                   cohorts=8, quick=True) -> dict:
    def cell(rate):
        return {"sessions_per_s": rate, "wall_s": round(64.0 / rate, 3)}

    return {
        "bench": "tensor",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {"profiles": ["V_Sp", "O_Sp_100"], "n_sessions": 64,
                   "cohort_size": 32, "cold_reps": 2, "seed": 2024},
        "workloads": {
            "session_cold": cell(session_cold),
            "session_warm": cell(session_warm),
            "tensor_cold": cell(tensor_cold),
            "tensor_warm": cell(tensor_warm),
        },
        "cohort": {"cohorts": cohorts, "columns": cohorts * 32,
                   "cells": 51200,
                   "dirty_periods": 28000,
                   "dirty_fraction": 0.5469,
                   "native_kernel": True,
                   "native_kernel_error": None,
                   "tensor_slots_per_s": 1.4e6},
        "phases": {"predraw_s": 0.05, "tensor_pass_s": 0.09,
                   "batched_retx_s": 0.06, "flush_s": 0.13,
                   "total_s": 0.45},
        "speedup": {
            "tensor_cold_vs_session_cold": round(tensor_cold / session_cold, 2),
            "tensor_warm_vs_session_warm": round(tensor_warm / session_warm, 2),
        },
    }


class TestTensorRegressionGate:
    def test_identical_reports_pass(self):
        report = _tensor_report()
        assert bench.tensor_regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = _tensor_report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            data["sessions_per_s"] /= 2.0
        assert bench.tensor_regression_failures(current, base) == []

    def test_tensor_only_slowdown_fails(self):
        base = _tensor_report()
        current = _tensor_report(tensor_cold=525.0 / 2.5, tensor_warm=220.0)
        failures = bench.tensor_regression_failures(current, base,
                                                    threshold=0.30)
        # Fails both the normalized gate and the intra-report floor.
        assert any(f.startswith("tensor_cold:") for f in failures)
        assert any(f.startswith("tensor_cold_vs_session_cold:")
                   for f in failures)

    def test_speedup_below_floor_fails_intra_report(self):
        # 2.2x < the full-mode 2.5x floor even with itself as baseline.
        report = _tensor_report(tensor_cold=330.0, quick=False)
        failures = bench.tensor_regression_failures(report, report)
        assert any(f.startswith("tensor_cold_vs_session_cold:")
                   for f in failures)

    def test_quick_reports_get_floor_slack(self):
        # The same 2.2x passes in quick mode (floor 2.0x).
        report = _tensor_report(tensor_cold=330.0, quick=True)
        assert bench.tensor_regression_failures(report, report) == []

    def test_no_cohorts_run_fails(self):
        # A policy regression degrading every cohort to the per-session
        # engine gates red even at a 1.0x-ish honest ratio.
        report = _tensor_report(cohorts=0)
        failures = bench.tensor_regression_failures(report, report)
        assert any(f.startswith("cohort:") for f in failures)
        assert not any("kernel" in f for f in failures)

    def test_no_cohorts_names_missing_kernel(self):
        # Without the native kernel the policy runs every cohort
        # per-session; the failure must name that cause.
        report = _tensor_report(cohorts=0)
        report["cohort"]["native_kernel"] = False
        report["cohort"]["native_kernel_error"] = "disabled via REPRO_NATIVE"
        failures = bench.tensor_regression_failures(report, report)
        assert any(f.startswith("cohort:") and "native retx kernel was not "
                   "loaded (disabled via REPRO_NATIVE)" in f
                   for f in failures)

    def test_missing_reference_reports_cleanly(self):
        base = _tensor_report()
        current = copy.deepcopy(base)
        del current["workloads"]["session_cold"]
        failures = bench.tensor_regression_failures(current, base)
        assert failures == [
            "session_cold: reference workload missing from a report"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.tensor_regression_failures(_tensor_report(),
                                             _tensor_report(), threshold=1.0)


class TestTensorRender:
    def test_render_lists_workloads_speedup_and_counters(self):
        text = bench.render_tensor(_tensor_report())
        assert "tensor_cold" in text and "session_cold" in text
        assert "3.50x" in text  # 525 / 150 cold speedup
        assert "cohorts=8 columns=256 dirty_periods=28000" in text

    def test_render_shows_dirty_split_and_phases(self):
        text = bench.render_tensor(_tensor_report())
        assert "dirty=54.7% of 51200 cells (native kernel loaded)" in text
        assert "residual" not in text
        assert "phases:" in text and "batched_retx=0.06s" in text


class TestTensorWorkloadShape:
    def test_manifest_is_maximal_dl_cohorts(self):
        from repro.core.runner import group_tasks_by_shape

        manifest = bench.tensor_tasks(quick=True, seed=2024)
        groups = group_tasks_by_shape(manifest)
        assert len(groups) == 2  # one cohort per operator, no UL split
        assert all(len(g) == 32 for g in groups)
        assert all(t.kwargs["direction"] == "DL" for t in manifest)

    def test_manifest_is_deterministic(self):
        a = bench.tensor_tasks(quick=True, seed=2024)
        b = bench.tensor_tasks(quick=True, seed=2024)
        assert [t.label for t in a] == [t.label for t in b]
        assert [t.seed for t in a] == [t.seed for t in b]


def _serve_report(direct_cold=60.0, serve_cold=58.0, serve_warm=300.0,
                  tasks_computed=22, warm_computed=0, warm_store_served=True,
                  quick=True) -> dict:
    def cell(rate):
        return {"sessions_per_s": rate, "wall_s": round(22.0 / rate, 3)}

    return {
        "bench": "serve",
        "schema": bench.BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {"minutes": 0.1, "session_s": 3.0, "n_sessions": 22,
                   "jobs": 1, "cold_reps": 2, "concurrency": 4, "seed": 2024},
        "workloads": {
            "direct_cold": cell(direct_cold),
            "serve_cold": cell(serve_cold),
            "serve_warm": cell(serve_warm),
            "serve_concurrent": {**cell(serve_cold), "requests": 4,
                                 "dedup_hits": 3, "tasks": 22,
                                 "tasks_computed": tasks_computed},
        },
        "serve": {"requests": 9, "dedup_hits": 3, "errors": 0,
                  "tasks_computed": 66, "tasks_memoized": 44},
        "checks": {
            "singleflight_computed_once": tasks_computed == 22,
            "warm_computed": warm_computed,
            "warm_store_served": warm_store_served,
        },
        "speedup": {
            "warm_vs_cold": round(serve_warm / serve_cold, 2),
            "serve_cold_vs_direct_cold": round(serve_cold / direct_cold, 2),
        },
    }


class TestServeRegressionGate:
    def test_identical_reports_pass(self):
        report = _serve_report()
        assert bench.serve_regression_failures(report, report) == []

    def test_uniform_slowdown_is_hardware_normalized_away(self):
        base = _serve_report()
        current = copy.deepcopy(base)
        for data in current["workloads"].values():
            data["sessions_per_s"] /= 2.0
        assert bench.serve_regression_failures(current, base) == []

    def test_serve_only_slowdown_fails(self):
        base = _serve_report()
        current = _serve_report(serve_cold=58.0 / 2.5, serve_warm=300.0)
        failures = bench.serve_regression_failures(current, base)
        assert any(f.startswith("serve_cold:") for f in failures)

    def test_singleflight_recompute_fails(self):
        # 44 tasks computed for a 22-task campaign = the dedup broke.
        report = _serve_report(tasks_computed=44)
        failures = bench.serve_regression_failures(report, report)
        assert any(f.startswith("singleflight:") for f in failures)

    def test_warm_recompute_fails(self):
        report = _serve_report(warm_computed=3, warm_store_served=False)
        failures = bench.serve_regression_failures(report, report)
        assert any(f.startswith("serve_warm:") for f in failures)

    def test_warm_below_intra_report_floor_fails(self):
        report = _serve_report(serve_warm=70.0)  # 1.2x < 2x floor
        failures = bench.serve_regression_failures(report, report)
        assert any(f.startswith("warm_vs_cold:") for f in failures)

    def test_warm_is_not_normalized_across_modes(self):
        # A faster machine with identical warm throughput must pass:
        # warm cost is fixed store-read overhead, not simulation.
        base = _serve_report()
        current = _serve_report(direct_cold=120.0, serve_cold=116.0,
                                serve_warm=300.0)
        assert bench.serve_regression_failures(current, base) == []

    def test_missing_reference_reports_cleanly(self):
        base = _serve_report()
        current = copy.deepcopy(base)
        del current["workloads"]["direct_cold"]
        failures = bench.serve_regression_failures(current, base)
        assert failures == [
            "direct_cold: reference workload missing from a report"]

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            bench.serve_regression_failures(_serve_report(), _serve_report(),
                                            threshold=0.0)


class TestServeRender:
    def test_render_lists_workloads_checks_and_totals(self):
        text = bench.render_serve(_serve_report())
        assert "serve_cold" in text and "direct_cold" in text
        assert "singleflight: 4 concurrent" in text and "PASS" in text
        assert "store_served=True" in text
        assert "requests=9" in text

    def test_render_flags_broken_singleflight(self):
        text = bench.render_serve(_serve_report(tasks_computed=44))
        assert "FAIL" in text


class TestReportIo:
    def test_write_then_load_roundtrip(self, tmp_path):
        report = _report()
        path = tmp_path / "bench.json"
        bench.write_report(report, path)
        assert bench.load_report(path) == report
        # Stable output: diff-friendly, newline-terminated.
        text = path.read_text()
        assert text.endswith("\n")
        bench.write_report(report, path)
        assert path.read_text() == text

    def test_write_profile_dumps_stats_and_table(self, tmp_path):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        sum(range(1000))
        profiler.disable()

        report_path = tmp_path / "BENCH_tensor.json"
        pstats_path, table_path = bench.write_profile(profiler, report_path,
                                                      top=5)
        assert pstats_path == tmp_path / "BENCH_tensor.pstats"
        assert table_path == tmp_path / "BENCH_tensor.profile.txt"
        # The dump reloads as pstats and the table lists hot functions
        # by cumulative time.
        pstats.Stats(str(pstats_path))
        table = table_path.read_text()
        assert "cumtime" in table
        assert "sum" in table


class TestRender:
    def test_render_lists_workloads_and_speedup(self):
        report = _report()
        report["quick"] = False
        report["config"] = {"profile": "V_Sp", "duration_s": 5.0,
                            "repetitions": 11, "seed": 2024}
        report["speedup_vs_pre_pr"] = {"single_ue": 3.45, "multi_ue": 5.79}
        text = bench.render(report)
        assert "single_ue" in text and "multi_ue" in text
        assert "vectorized" in text and "reference" in text
        assert "3.45x" in text
