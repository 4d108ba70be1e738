"""Tracked benchmarks — the ``repro bench`` subcommand.

Five tracked workloads, selected with ``--workload``:

- ``slot`` (default) — the slot engines, the hot path under every
  figure, table and campaign: slots/sec on the Fig. 1 single-carrier
  workload (the V_Sp n78 90 MHz deployment) for the vectorized and the
  reference engine, single- and multi-UE, cold and warm, plus the
  native whole-session kernel (what ``engine="auto"`` runs for a lone
  session) on the single-UE workload.
  Report: ``BENCH_slot_engine.json``.
- ``campaign`` — the execution layer end to end: sessions/sec of a
  four-operator campaign through :func:`repro.core.runner.run_tasks`
  under every transport (serial jobs=1 cold and warm, the legacy
  pipe transport at jobs=auto, and store-routed jobs=auto cold and
  warm on a persistent :class:`~repro.core.runner.CampaignExecutor`
  pool).  Report: ``BENCH_campaign.json``.
- ``reduce`` — the streaming-reduction path (``run_tasks(...,
  reduce=...)``): sessions/sec and tracemalloc peaks of the campaign
  workload folded into KPI sketches, against the materializing exact
  path, plus an exact-vs-sketch KPI oracle and (full mode) a
  10^4-session bounded-memory demonstration.
  Report: ``BENCH_reduce.json``.
- ``tensor`` — the cross-session cohort engine: sessions/sec of
  maximal same-shape DL cohorts through the ``(sessions, slots)``
  tensor pass against the identical manifest pinned to the per-session
  vectorized engine (``REPRO_ENGINE``), serial jobs=1, cold and warm.
  Report: ``BENCH_tensor.json``.
- ``serve`` — the campaign service end to end over real localhost
  HTTP: cold submission of an unseen campaign, warm (store-served)
  resubmission, and a concurrent singleflight probe whose counters
  must show the campaign computed exactly once.
  Report: ``BENCH_serve.json``.

Three measurement conventions keep the numbers honest:

- **cold vs warm** — "cold" is the first run after clearing the
  process-wide TBS matrix cache (what a fresh campaign worker pays);
  "warm" is the best of the remaining repetitions (what every
  subsequent session in the same process pays).  Best-of, not mean:
  simulation cost is deterministic, so the minimum is the measurement
  and everything above it is scheduler noise.  Cold *variants* (the
  campaign/reduce workloads) repeat the whole cold run on a fresh
  store directory and keep the best repetition for the same reason.
- **untimed process warmup** — lazy imports, numpy ufunc caches and
  other one-time process costs fire once before any timed run, so
  they don't all land on whichever variant happens to be timed first
  (they used to land on the vectorized engine's cold number).
- **hardware normalization** — CI machines differ run to run, so a raw
  slots/sec comparison against a committed baseline is meaningless.
  A reference workload runs in the same process (the reference engine
  for ``slot``, the serial jobs=1 cold run for ``campaign``, the
  exact materializing run for ``reduce``, the per-session vectorized
  run for ``tensor``), so the ratio
  ``reference_now / reference_baseline`` estimates the machine-speed
  factor; tracked numbers are compared after dividing that factor out
  (see :func:`regression_failures`,
  :func:`campaign_regression_failures`,
  :func:`reduce_regression_failures` and
  :func:`tensor_regression_failures`).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PRE_PR_BASELINE",
    "campaign_regression_failures",
    "campaign_tasks",
    "history_report",
    "load_report",
    "measure",
    "measure_campaign",
    "measure_reduce",
    "measure_serve",
    "measure_tensor",
    "multi_ue_traces",
    "reduce_demo_tasks",
    "reduce_regression_failures",
    "regression_failures",
    "render",
    "render_campaign",
    "render_history",
    "render_reduce",
    "render_serve",
    "render_tensor",
    "serve_regression_failures",
    "single_ue_trace",
    "tensor_regression_failures",
    "tensor_tasks",
    "write_report",
]

BENCH_SCHEMA_VERSION = 1

#: slots/sec of the pre-rewrite scalar engine on this file's exact
#: workloads (full mode), measured once on the machine that produced
#: the first committed ``BENCH_slot_engine.json``.  Recorded so the
#: report can state the speedup the vectorized engine was introduced
#: with; CI regression checks never use these numbers (they compare
#: hardware-normalized against the committed baseline instead).
PRE_PR_BASELINE = {
    "single_ue_slots_per_s": 251_345.0,
    "multi_ue_slots_per_s": 11_134.0,
}

_BENCH_PROFILE = "V_Sp"
_MULTI_UES = 4
_MULTI_SINR_STEP_DB = -3.0

#: The single-UE workload runs at full size in quick mode too (under a
#: second for all three engines).  The native engine's fixed cost per
#: session is a large share of a short session, so its slots/s on a
#: quick-sized trace would not compare with the committed full report
#: the CI gate normalizes against.
_SINGLE_UE_DURATION_S = 5.0
_SINGLE_UE_REPETITIONS = 11


def single_ue_trace(engine: str = "vectorized", duration_s: float = 5.0,
                    seed: int = 2024):
    """One full-buffer DL trace of the Fig. 1 V_Sp carrier."""
    from repro.operators.profiles import get_profile

    profile = get_profile(_BENCH_PROFILE)
    cell = profile.primary_cell
    rng = np.random.default_rng(seed)
    channel = profile.dl_channel().realize(duration_s, mu=cell.mu, rng=rng)
    from repro.ran.simulator import simulate_downlink

    return simulate_downlink(cell, channel, rng=rng,
                             params=profile.sim_params(engine=engine))


def multi_ue_traces(engine: str = "vectorized", duration_s: float = 5.0,
                    n_ues: int = _MULTI_UES, seed: int = 2024):
    """One PF-scheduled multi-UE DL run of the Fig. 1 V_Sp carrier."""
    from repro.operators.profiles import get_profile
    from repro.ran.scheduler import ProportionalFairScheduler
    from repro.ran.simulator import simulate_downlink_multi

    profile = get_profile(_BENCH_PROFILE)
    cell = profile.primary_cell
    rng = np.random.default_rng(seed)
    channels = [
        profile.dl_channel(sinr_offset_db=_MULTI_SINR_STEP_DB * k)
        .realize(duration_s, mu=cell.mu, rng=np.random.default_rng(seed + 100 + k))
        for k in range(n_ues)
    ]
    return simulate_downlink_multi(cell, channels, ProportionalFairScheduler(),
                                   rng=rng, params=profile.sim_params(engine=engine))


#: Engines gated by :func:`regression_failures`.  ``native`` is the
#: engine ``engine="auto"`` resolves to for a lone session when the
#: native kernel loads; it is measured on the single-UE workload only
#: (multi-UE runs have no native engine).
_GATED_ENGINES = ("vectorized", "native")


def _native_skip_reason() -> str | None:
    """Why the native row cannot be measured here, or ``None``."""
    from repro.ran._native import kernel_status, load_kernel
    from repro.ran.config import resolve_engine

    if load_kernel() is None:
        return f"native kernel not loaded: {kernel_status()['error']}"
    if resolve_engine("auto", 1) != "native":
        return "engine='auto' does not resolve to native (REPRO_ENGINE set?)"
    return None


def _warm_process(seed: int) -> None:
    """Untimed process warmup before any timed engine run.

    Lazy imports, numpy ufunc caches and other one-time process costs
    used to land entirely on whichever engine was timed first (the
    vectorized one), making its "cold" number look far worse than the
    reference engine's.  Tiny untimed sessions of every engine pay
    those costs up front (``auto`` builds the native kernel); the TBS
    matrix cache is cleared again before each timed cold run, so
    "cold" still means what it says.
    """
    for engine in ("vectorized", "reference", "auto"):
        single_ue_trace(engine, 0.2, seed)
        multi_ue_traces(engine, 0.2, seed=seed)


def _time_engine(run: Callable[[], Any], n_slots_of: Callable[[Any], int],
                 repetitions: int) -> dict[str, float]:
    """Cold (first run, caches cleared) and warm (best-of-rest) slots/sec."""
    from repro.nr.tbs import clear_tbs_matrix_cache

    clear_tbs_matrix_cache()
    start = time.perf_counter()
    result = run()
    cold = n_slots_of(result) / (time.perf_counter() - start)
    warm = 0.0
    for _ in range(max(1, repetitions - 1)):
        start = time.perf_counter()
        result = run()
        warm = max(warm, n_slots_of(result) / (time.perf_counter() - start))
    return {"cold_slots_per_s": round(cold, 1), "warm_slots_per_s": round(warm, 1)}


def measure(quick: bool = False, seed: int = 2024,
            repetitions: int | None = None) -> dict[str, Any]:
    """Run the full benchmark matrix and return the report dict.

    ``quick`` shortens the multi-UE workload (``config`` records its
    duration and repetitions); the single-UE workload always runs at
    full size, see :data:`_SINGLE_UE_DURATION_S`.
    """
    duration_s = 2.0 if quick else 5.0
    repetitions = repetitions or (3 if quick else 11)
    _warm_process(seed)

    workloads: dict[str, Any] = {}
    single: dict[str, Any] = {}
    for engine in ("vectorized", "reference"):
        single[engine] = _time_engine(
            lambda engine=engine: single_ue_trace(
                engine, _SINGLE_UE_DURATION_S, seed),
            len, _SINGLE_UE_REPETITIONS)
    skipped = _native_skip_reason()
    if skipped is None:
        single["native"] = _time_engine(
            lambda: single_ue_trace("auto", _SINGLE_UE_DURATION_S, seed),
            len, _SINGLE_UE_REPETITIONS)
    else:
        single["native"] = {"skipped": skipped}
    single["n_slots"] = len(single_ue_trace("vectorized", _SINGLE_UE_DURATION_S,
                                            seed))
    workloads["single_ue"] = single

    multi: dict[str, Any] = {}
    for engine in ("vectorized", "reference"):
        multi[engine] = _time_engine(
            lambda engine=engine: multi_ue_traces(engine, duration_s, seed=seed),
            lambda traces: len(traces[0]), repetitions)
    multi["n_slots"] = len(multi_ue_traces("vectorized", duration_s, seed=seed)[0])
    multi["n_ues"] = _MULTI_UES
    workloads["multi_ue"] = multi

    report: dict[str, Any] = {
        "bench": "slot_engine",
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {
            "profile": _BENCH_PROFILE,
            "duration_s": duration_s,
            "repetitions": repetitions,
            "seed": seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
    }
    if not quick:
        report["pre_pr_baseline"] = dict(PRE_PR_BASELINE)
        report["speedup_vs_pre_pr"] = {
            "single_ue": round(single["vectorized"]["warm_slots_per_s"]
                               / PRE_PR_BASELINE["single_ue_slots_per_s"], 2),
            "multi_ue": round(multi["vectorized"]["warm_slots_per_s"]
                              / PRE_PR_BASELINE["multi_ue_slots_per_s"], 2),
        }
        if "warm_slots_per_s" in single["native"]:
            report["speedup_vs_pre_pr"]["single_ue_native"] = round(
                single["native"]["warm_slots_per_s"]
                / PRE_PR_BASELINE["single_ue_slots_per_s"], 2)
    return report


def regression_failures(current: dict[str, Any], baseline: dict[str, Any],
                        threshold: float = 0.30) -> list[str]:
    """Hardware-normalized regressions of ``current`` vs ``baseline``.

    For each workload the reference engine's ratio between the two
    reports estimates the machine-speed factor; a workload fails when a
    gated engine (``vectorized``, and ``native`` where the baseline
    measured it) lost more than ``threshold`` of its throughput after
    that factor is divided out::

        new_eng < (1 - threshold) * base_eng * (new_ref / base_ref)

    A native row the baseline measured but the current report skipped
    (no kernel) fails too, with the skip reason: that is the engine
    users get.  Returns one message per failure (empty list = pass).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    failures: list[str] = []
    for name, base in baseline.get("workloads", {}).items():
        new = current.get("workloads", {}).get(name)
        if new is None:
            failures.append(f"{name}: missing from current report")
            continue
        base_ref = base["reference"]["warm_slots_per_s"]
        new_ref = new["reference"]["warm_slots_per_s"]
        scale = new_ref / base_ref
        for engine in _GATED_ENGINES:
            base_eng = base.get(engine, {}).get("warm_slots_per_s")
            if base_eng is None:
                continue
            new_row = new.get(engine, {})
            new_eng = new_row.get("warm_slots_per_s")
            if new_eng is None:
                failures.append(f"{name}: {engine} not measured "
                                f"({new_row.get('skipped', 'missing')})")
                continue
            floor = (1.0 - threshold) * base_eng * scale
            if new_eng < floor:
                failures.append(
                    f"{name}: {engine} {new_eng:,.0f} slots/s < floor {floor:,.0f} "
                    f"(baseline {base_eng:,.0f} x machine factor {scale:.2f} "
                    f"x {1.0 - threshold:.2f})")
    return failures


def render(report: dict[str, Any]) -> str:
    """Human-readable table of a benchmark report."""
    lines = [f"slot-engine benchmark ({'quick' if report['quick'] else 'full'}, "
             f"profile {report['config']['profile']}, "
             f"{report['config']['repetitions']} reps)"]
    for name, data in report["workloads"].items():
        lines.append(f"  {name} ({data['n_slots']} slots"
                     + (f", {data['n_ues']} UEs" if "n_ues" in data else "") + ")")
        for engine in ("native", "vectorized", "reference"):
            e = data.get(engine)
            if e is None:
                continue
            if "skipped" in e:
                lines.append(f"    {engine:11s} skipped ({e['skipped']})")
                continue
            lines.append(f"    {engine:11s} cold {e['cold_slots_per_s']:>12,.0f} slots/s"
                         f"   warm {e['warm_slots_per_s']:>12,.0f} slots/s")
    speedup = report.get("speedup_vs_pre_pr")
    if speedup:
        lines.append(f"  speedup vs pre-PR scalar engine: "
                     f"single-UE {speedup['single_ue']:.2f}x"
                     + (f" (native {speedup['single_ue_native']:.2f}x)"
                        if "single_ue_native" in speedup else "")
                     + f", multi-UE {speedup['multi_ue']:.2f}x")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Campaign workload — the execution layer end to end
# --------------------------------------------------------------------- #

#: Operators of the campaign workload: two Spanish and two German
#: deployments spanning 40–90 MHz carriers (a representative slice of
#: the study without the full nine-operator cost).
_CAMPAIGN_PROFILE_KEYS = ("V_Sp", "O_Sp_100", "T_Ge", "V_Ge")

#: Workloads whose sessions/sec the campaign gate tracks against the
#: baseline after hardware normalization; ``pipe_cold`` and
#: ``jobs1_cold`` are informational / the normalization reference.
#: The warm workloads are *not* here: their per-session cost is
#: dominated by fixed store-read and pool-dispatch overhead, so their
#: sessions/s does not scale with the cold-simulation machine factor
#: across quick/full modes — they gate intra-report via
#: ``_WARM_VS_COLD_FLOOR`` instead.
_CAMPAIGN_GATED = ("store_routed_cold",)

#: A warm (fully memoized) campaign must beat its own cold run by at
#: least this factor within the same report (observed 3-9x); below it
#: the memo path is recomputing sessions.
_WARM_VS_COLD_FLOOR = 2.0

#: Floor on ``routed_cold_vs_pipe_cold`` inside one report.  The
#: committed artifact must show >= 1.0x (store routing is not allowed
#: to cost anything on a cold campaign); the CI gate allows 10%
#: run-to-run jitter below that so a noisy shared runner doesn't
#: flake.  Quick reports get extra slack — pool spawn dominates their
#: sub-second walls, so the ratio is noisier.
_ROUTED_VS_PIPE_FLOOR = 0.9
_ROUTED_VS_PIPE_FLOOR_QUICK = 0.75

#: Parallel-efficiency floor for the zero-copy transport: a cold
#: storeless campaign on the shm transport with two workers must beat
#: the serial memoizing run (``jobs1_cold``) by this factor inside the
#: same report.  The pipe transport historically *lost* to serial
#: (0.58x) because pickling full traces back swamped the parallel win;
#: the shm transport ships only segment names, so it has to clear the
#: bar on any host with real parallelism.  Quick reports keep a
#: reduced floor: their sub-second walls are dominated by dispatch
#: overhead, which the full-mode runs amortize.  Single-core hosts get
#: the break-even floor instead — two workers timesharing one core
#: cannot beat serial wall-clock no matter how cheap the transport is,
#: so the gate there degrades to "shm must not *lose* to serial",
#: which still catches the 0.58x serialization-tax regression this
#: gate exists to prevent.  The ratio itself is intra-report, so it is
#: hardware-normalized by construction; the floor selection reads the
#: report's recorded ``cpu_count``.
_SHM_VS_SERIAL_FLOOR = 1.2
_SHM_VS_SERIAL_FLOOR_QUICK = 0.85
_SHM_VS_SERIAL_FLOOR_SINGLE_CORE = 1.0


def campaign_tasks(quick: bool = False, seed: int = 2024) -> list:
    """The benchmark campaign's session manifest (fixed shape per mode)."""
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    spec = CampaignSpec(
        minutes_per_operator=0.15 if quick else 0.5,
        session_s=3.0 if quick else 5.0,
        seed=seed,
    )
    profiles = {key: EU_PROFILES[key] for key in _CAMPAIGN_PROFILE_KEYS}
    return campaign_manifest(profiles, spec)


def _time_campaign(manifest: list, **run_kwargs: Any) -> dict[str, float]:
    """sessions/sec of one ``run_tasks`` execution, TBS caches cleared."""
    from repro.core.runner import run_tasks
    from repro.nr.tbs import clear_tbs_matrix_cache

    clear_tbs_matrix_cache()
    start = time.perf_counter()
    run_tasks(manifest, **run_kwargs)
    wall = time.perf_counter() - start
    return {"sessions_per_s": round(len(manifest) / wall, 3),
            "wall_s": round(wall, 3)}


def measure_campaign(quick: bool = False, seed: int = 2024,
                     jobs: int | str = "auto") -> dict[str, Any]:
    """Run the campaign benchmark matrix and return the report dict.

    Five timed variants, each on its own seed (so every "cold" run is
    genuinely cold — no key overlap with a previous variant's store)
    and its own store directory:

    - ``jobs1_cold`` / ``jobs1_warm`` — serial runner, empty store then
      fully warm store.  ``jobs1_cold`` is the hardware-normalization
      reference (the path least affected by the execution layer).
    - ``pipe_cold`` — jobs=auto on a transient pool with full results
      pickled back over the pipe: the pre-PR parallel path, kept as
      the comparator the store-routed speedup is quoted against.
    - ``store_routed_cold`` / ``store_routed_warm`` — jobs=auto on a
      persistent :class:`~repro.core.runner.CampaignExecutor` pool
      whose workers write payloads to the store and return keys.
    - ``shm_cold`` — the zero-copy path: ``jobs=max(2, auto)`` on a
      pre-warmed persistent pool, no store, results returned through
      ``transport="shm"`` shared-memory arenas.  This is the
      configuration ``transport="auto"`` now selects for storeless
      parallel runs; pool spawn happens once per campaign in
      production, so it is warmed untimed here and the timed runs
      measure dispatch + compute + zero-copy return only.  The
      workload is skipped (with a report note) on platforms without
      POSIX shm.

    Every cold variant repeats on a fresh store directory (and, for
    the routed variant, a fresh executor — pool spawn stays inside the
    timing for pipe and routed alike) and keeps the best repetition;
    one noisy scheduler hiccup otherwise decides ratios like
    ``routed_cold_vs_pipe_cold``.
    """
    import tempfile

    from repro.core.runner import CampaignExecutor, resolve_jobs, run_tasks
    from repro.store import TraceStore

    workers = resolve_jobs(jobs)
    cold_reps = 2 if quick else 3
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup

    def best(runs: list[dict[str, float]]) -> dict[str, float]:
        return max(runs, key=lambda r: r["sessions_per_s"])

    workloads: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-campaign-") as tmpdir:
        tmp = Path(tmpdir)
        serial_manifest = campaign_tasks(quick, seed)
        workloads["jobs1_cold"] = best([
            _time_campaign(serial_manifest, jobs=1,
                           store=TraceStore(tmp / f"jobs1-{rep}"))
            for rep in range(cold_reps)
        ])
        workloads["jobs1_warm"] = best([
            _time_campaign(serial_manifest, jobs=1,
                           store=TraceStore(tmp / "jobs1-0"))
            for _ in range(2)
        ])

        pipe_manifest = campaign_tasks(quick, seed + 1)
        workloads["pipe_cold"] = best([
            _time_campaign(pipe_manifest, jobs=workers,
                           store=TraceStore(tmp / f"pipe-{rep}"),
                           transport="pipe")
            for rep in range(cold_reps)
        ])

        from repro.core.runner import release_shm_segments, shm_transport_available

        if shm_transport_available():
            shm_manifest = campaign_tasks(quick, seed + 3)
            shm_jobs = max(2, workers)
            # The shm workload times the *transport* on a warm
            # production pool: campaigns hold one CampaignExecutor for
            # the whole command, so pool spawn and per-worker cache
            # warm-up are paid once per campaign, not once per
            # experiment.  An untimed mini-dispatch forces the lazy pool
            # into existence before the clock starts; the timed runs
            # then measure dispatch + compute + zero-copy return, which
            # is the cost the ``transport="shm"`` path actually adds to
            # a steady-state campaign.
            with CampaignExecutor(jobs=shm_jobs, store=None) as shm_executor:
                run_tasks(campaign_tasks(True, seed + 8)[:shm_jobs],
                          executor=shm_executor, transport="shm")
                release_shm_segments()
                shm_runs = []
                for _ in range(cold_reps):
                    shm_runs.append(_time_campaign(
                        shm_manifest, executor=shm_executor, transport="shm"))
                    release_shm_segments()
            workloads["shm_cold"] = best(shm_runs)
            workloads["shm_cold"]["jobs"] = shm_jobs

        routed_manifest = campaign_tasks(quick, seed + 2)
        routed_cold_runs: list[dict[str, float]] = []
        for rep in range(cold_reps):
            routed_store = TraceStore(tmp / f"routed-{rep}")
            with CampaignExecutor(jobs=workers, store=routed_store) as executor:
                routed_cold_runs.append(_time_campaign(
                    routed_manifest, store=routed_store, executor=executor,
                    transport="store"))
                if rep == cold_reps - 1:
                    warm_store = TraceStore(tmp / f"routed-{rep}")
                    routed_warm = best([
                        _time_campaign(routed_manifest, store=warm_store,
                                       executor=executor)
                        for _ in range(2)
                    ])
                    pool_stats = executor.stats()
        workloads["store_routed_cold"] = best(routed_cold_runs)
        workloads["store_routed_warm"] = routed_warm

    pipe = workloads["pipe_cold"]["sessions_per_s"]
    report: dict[str, Any] = {
        "bench": "campaign",
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {
            "profiles": list(_CAMPAIGN_PROFILE_KEYS),
            "n_sessions": len(serial_manifest),
            "jobs": workers,
            "cold_reps": cold_reps,
            "seed": seed,
            "cpu_count": os.cpu_count() or 1,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "pool": pool_stats,
        "workloads": workloads,
        "speedup": {
            "routed_cold_vs_pipe_cold": round(
                workloads["store_routed_cold"]["sessions_per_s"] / pipe, 2),
            "warm_vs_pre_pr_pipe": round(
                workloads["store_routed_warm"]["sessions_per_s"] / pipe, 2),
        },
    }
    if "shm_cold" in workloads:
        report["speedup"]["shm_cold_vs_jobs1_cold"] = round(
            workloads["shm_cold"]["sessions_per_s"]
            / workloads["jobs1_cold"]["sessions_per_s"], 2)
        report["speedup"]["shm_cold_vs_pipe_cold"] = round(
            workloads["shm_cold"]["sessions_per_s"] / pipe, 2)
    else:
        report["shm_unavailable"] = True
    return report


def campaign_regression_failures(current: dict[str, Any],
                                 baseline: dict[str, Any],
                                 threshold: float = 0.30) -> list[str]:
    """Hardware-normalized regressions of a campaign report.

    The serial ``jobs1_cold`` run is the reference workload: its ratio
    between the two reports estimates the machine-speed factor, and a
    gated workload fails when it lost more than ``threshold`` of its
    sessions/sec after that factor is divided out (same convention as
    :func:`regression_failures`).

    On top of the baseline comparison, the *current* report must show
    store routing at least breaking even against the pipe transport on
    a cold campaign (``routed_cold_vs_pipe_cold`` >=
    ``_ROUTED_VS_PIPE_FLOOR``, relaxed for quick reports) — the two
    variants run the same sessions, so routing may not cost
    throughput — and each warm (memoized) run must beat its own cold
    run by ``_WARM_VS_COLD_FLOOR``.

    The shm transport gates on *parallel efficiency*: inside the
    current report, ``shm_cold_vs_jobs1_cold`` must reach
    ``_SHM_VS_SERIAL_FLOOR`` (relaxed in quick mode, and degraded to
    break-even on hosts whose recorded ``cpu_count`` is 1 — no amount
    of transport engineering makes two workers on one core beat a
    serial run) — an intra-report ratio, so it is hardware-normalized
    by construction.  A report whose platform lacks POSIX shm
    (``shm_unavailable``) skips that check.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    failures: list[str] = []
    pipe_floor = (_ROUTED_VS_PIPE_FLOOR_QUICK if current.get("quick")
                  else _ROUTED_VS_PIPE_FLOOR)
    ratio = current.get("speedup", {}).get("routed_cold_vs_pipe_cold")
    if ratio is not None and ratio < pipe_floor:
        failures.append(
            f"routed_cold_vs_pipe_cold: {ratio:.2f}x < floor "
            f"{pipe_floor:.2f}x (store routing must not cost "
            f"throughput on a cold campaign)")
    if not current.get("shm_unavailable"):
        cores = current.get("config", {}).get("cpu_count") or 1
        if current.get("quick"):
            shm_floor = _SHM_VS_SERIAL_FLOOR_QUICK
        elif cores < 2:
            shm_floor = _SHM_VS_SERIAL_FLOOR_SINGLE_CORE
        else:
            shm_floor = _SHM_VS_SERIAL_FLOOR
        shm_ratio = current.get("speedup", {}).get("shm_cold_vs_jobs1_cold")
        if shm_ratio is None:
            failures.append(
                "shm_cold_vs_jobs1_cold: missing from current report "
                "(shm workload did not run)")
        elif shm_ratio < shm_floor:
            failures.append(
                f"shm_cold_vs_jobs1_cold: {shm_ratio:.2f}x < floor "
                f"{shm_floor:.2f}x (parallel shm campaign must beat the "
                f"serial run — the zero-copy transport is not allowed to "
                f"lose its parallelism to serialization)")
    for warm_name, cold_name in (("jobs1_warm", "jobs1_cold"),
                                 ("store_routed_warm", "store_routed_cold")):
        cold = current.get("workloads", {}).get(cold_name, {})
        warm = current.get("workloads", {}).get(warm_name)
        if warm is None:
            failures.append(f"{warm_name}: missing from current report")
        elif cold.get("sessions_per_s") and (warm["sessions_per_s"] <
                                             _WARM_VS_COLD_FLOOR *
                                             cold["sessions_per_s"]):
            failures.append(
                f"{warm_name}: {warm['sessions_per_s']:,.2f} sessions/s < "
                f"{_WARM_VS_COLD_FLOOR:.0f}x its own cold run "
                f"{cold['sessions_per_s']:,.2f} (memo replay is recomputing)")
    try:
        base_ref = baseline["workloads"]["jobs1_cold"]["sessions_per_s"]
        new_ref = current["workloads"]["jobs1_cold"]["sessions_per_s"]
    except KeyError:
        return ["jobs1_cold: reference workload missing from a report"]
    scale = new_ref / base_ref
    for name in _CAMPAIGN_GATED:
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        new = current.get("workloads", {}).get(name)
        if new is None:
            failures.append(f"{name}: missing from current report")
            continue
        floor = (1.0 - threshold) * base["sessions_per_s"] * scale
        if new["sessions_per_s"] < floor:
            failures.append(
                f"{name}: {new['sessions_per_s']:,.2f} sessions/s < floor "
                f"{floor:,.2f} (baseline {base['sessions_per_s']:,.2f} "
                f"x machine factor {scale:.2f} x {1.0 - threshold:.2f})")
    return failures


def render_campaign(report: dict[str, Any]) -> str:
    """Human-readable table of a campaign benchmark report."""
    config = report["config"]
    lines = [f"campaign benchmark ({'quick' if report['quick'] else 'full'}, "
             f"{len(config['profiles'])} operators, "
             f"{config['n_sessions']} sessions, jobs={config['jobs']})"]
    for name, data in report["workloads"].items():
        lines.append(f"  {name:18s} {data['sessions_per_s']:>8,.2f} sessions/s"
                     f"   ({data['wall_s']:.2f} s)")
    speedup = report.get("speedup", {})
    if speedup:
        lines.append(
            f"  store-routed warm vs pre-PR pipe path: "
            f"{speedup['warm_vs_pre_pr_pipe']:.2f}x "
            f"(routed cold {speedup['routed_cold_vs_pipe_cold']:.2f}x)")
    if "shm_cold_vs_jobs1_cold" in speedup:
        shm_jobs = report["workloads"].get("shm_cold", {}).get("jobs", "?")
        lines.append(
            f"  shm transport (jobs={shm_jobs}) vs serial: "
            f"{speedup['shm_cold_vs_jobs1_cold']:.2f}x "
            f"(vs pipe {speedup.get('shm_cold_vs_pipe_cold', 0):.2f}x)")
    elif report.get("shm_unavailable"):
        lines.append("  shm transport: unavailable on this platform")
    pool = report.get("pool")
    if pool:
        lines.append(f"  pool: workers={pool['workers']} pools={pool['pools_created']} "
                     f"dispatches={pool['dispatches']} tasks={pool['tasks_executed']} "
                     f"routed={pool['tasks_routed']}")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Reduce workload — the streaming-reduction path
# --------------------------------------------------------------------- #

#: Workloads the reduce gate tracks against the baseline after hardware
#: normalization; ``exact_cold`` is the normalization reference.  The
#: memo-hit workload (``reduce_store_warm``) is *not* here: its cost is
#: a fixed store fetch + decode, so its sessions/s scales with the
#: manifest size rather than machine speed and cannot be normalized
#: across quick/full modes.  It gates intra-report instead via
#: ``_MEMO_WARM_FLOOR``.
_REDUCE_GATED = ("reduce_cold",)

#: Replaying a memoized campaign sketch must beat re-reducing it by at
#: least this factor within the same report (observed >100x in both
#: quick and full modes); below it the memo path is recomputing.
_MEMO_WARM_FLOOR = 10.0

#: The streaming path holds at most one in-flight trace, so its
#: tracemalloc peak must sit well below the materializing run that
#: holds the whole campaign.  The quick campaign is only ~12 sessions;
#: at scale the gap widens, so 0.5x is a loose bound that still fails
#: the moment the reduce path starts accumulating traces.
_REDUCE_PEAK_FRACTION = 0.5

#: The 10^4-session demonstration may not peak meaningfully above the
#: ~10-session timed variant — that *is* the bounded-memory claim
#: (peak tracks chunk size, not campaign size).
_DEMO_PEAK_FACTOR = 2.0


def reduce_demo_tasks(seed: int = 2024) -> list:
    """~10^4 one-second sessions across the four campaign operators —
    the full-mode bounded-memory demonstration manifest."""
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    spec = CampaignSpec(minutes_per_operator=2500.0 / 60.0, session_s=1.0,
                        seed=seed)
    profiles = {key: EU_PROFILES[key] for key in _CAMPAIGN_PROFILE_KEYS}
    return campaign_manifest(profiles, spec)


def _time_reduce(n_sessions: int, fn: Callable[[], Any]) -> dict[str, float]:
    """sessions/sec and tracemalloc peak of one run, TBS caches cleared.

    tracemalloc stays on through the timed region, so absolute
    sessions/sec runs lower than the campaign workload reports; it is
    consistent within the report and across baselines, which is all
    the normalized gate compares.
    """
    import tracemalloc

    from repro.nr.tbs import clear_tbs_matrix_cache

    clear_tbs_matrix_cache()
    tracemalloc.start()
    start = time.perf_counter()
    fn()
    wall = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"sessions_per_s": round(n_sessions / wall, 3),
            "wall_s": round(wall, 3),
            "peak_mb": round(peak / 1e6, 3)}


def _reduce_kpi_check(manifest: list, traces: list, sketch: Any,
                      reduction: Any) -> dict[str, Any]:
    """Exact-vs-sketch oracle over every reduction group.

    Counts, min/max and total bits must match exactly; means within
    1e-9 relative (Neumaier-compensated sums); stds within 1e-6
    relative (pairwise moment merge); percentiles within one
    quantile-sketch bin (the documented sketch error bound).
    """
    from repro.core.stats import summarize

    samples: dict[str, list] = {}
    bits: dict[str, int] = {}
    for task, trace in zip(manifest, traces):
        key = reduction._group_key(task)
        samples.setdefault(key, []).append(trace.mean_throughput_mbps)
        per_carrier = getattr(trace, "per_carrier", None)
        total = (sum(t.total_bits for t in per_carrier) if per_carrier is not None
                 else trace.total_bits)
        bits[key] = bits.get(key, 0) + int(total)

    tolerance = ((reduction.quantile_hi - reduction.quantile_lo)
                 / reduction.quantile_bins)
    worst = {"mean_rel": 0.0, "std_rel": 0.0, "pct_abs": 0.0}
    ok = set(samples) == set(sketch.groups)
    for key, values in samples.items():
        group = sketch.groups.get(key)
        if group is None:
            continue
        want = summarize(np.asarray(values))
        have = group.summary()
        ok &= (have.n == want.n and have.minimum == want.minimum
               and have.maximum == want.maximum
               and group.total_bits == bits[key])
        worst["mean_rel"] = max(worst["mean_rel"], abs(have.mean - want.mean)
                                / max(abs(want.mean), 1e-12))
        worst["std_rel"] = max(worst["std_rel"], abs(have.std - want.std)
                               / max(abs(want.std), 1e-12))
        for q in ("p25", "median", "p75"):
            worst["pct_abs"] = max(worst["pct_abs"],
                                   abs(getattr(have, q) - getattr(want, q)))
    ok &= (worst["mean_rel"] <= 1e-9 and worst["std_rel"] <= 1e-6
           and worst["pct_abs"] <= tolerance)
    return {
        "ok": bool(ok),
        "groups": len(samples),
        "max_mean_rel_err": worst["mean_rel"],
        "max_std_rel_err": worst["std_rel"],
        "max_percentile_err": worst["pct_abs"],
        "percentile_tolerance": tolerance,
    }


def measure_reduce(quick: bool = False, seed: int = 2024,
                   jobs: int | str = "auto") -> dict[str, Any]:
    """Run the reduce benchmark matrix and return the report dict.

    Timed variants (each cold variant best-of-reps on a fresh store):

    - ``exact_cold`` — the materializing path holding every trace of
      the campaign at once: the normalization reference and the peak
      the memory gate compares against.
    - ``reduce_cold`` — the same campaign folded into KPI sketches,
      serial, no store: one in-flight trace at a time.
    - ``reduce_store_cold`` / ``reduce_store_warm`` — the reduce path
      with a store: cold writes sessions and the campaign-level memo;
      warm replays the whole campaign from the single memo entry.

    The report also carries the exact-vs-sketch oracle (``kpi_check``)
    and, in full mode, a ~10^4-session reduce-only demonstration whose
    peak must stay flat relative to the tiny timed variant (``demo``).
    """
    import tempfile

    from repro.core.runner import resolve_jobs, run_tasks
    from repro.store import TraceStore
    from repro.xcal.dataset import campaign_reduction

    workers = resolve_jobs(jobs)
    cold_reps = 2 if quick else 3
    manifest = campaign_tasks(quick, seed)
    n = len(manifest)
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup

    def best(runs: list[dict[str, float]]) -> dict[str, float]:
        return max(runs, key=lambda r: r["sessions_per_s"])

    captured: dict[str, Any] = {}

    def exact_run() -> None:
        captured["traces"] = run_tasks(manifest, jobs=1)

    def reduce_run() -> None:
        reduction = campaign_reduction()
        captured["sketch"] = run_tasks(manifest, jobs=1, reduce=reduction)
        captured["reduction"] = reduction

    workloads: dict[str, Any] = {}
    workloads["exact_cold"] = best([_time_reduce(n, exact_run)
                                    for _ in range(cold_reps)])
    workloads["reduce_cold"] = best([_time_reduce(n, reduce_run)
                                     for _ in range(cold_reps)])

    with tempfile.TemporaryDirectory(prefix="repro-bench-reduce-") as tmpdir:
        tmp = Path(tmpdir)

        def store_run(store: TraceStore) -> Callable[[], None]:
            def go() -> None:
                run_tasks(manifest, jobs=workers, store=store,
                          reduce=campaign_reduction())
            return go

        workloads["reduce_store_cold"] = best([
            _time_reduce(n, store_run(TraceStore(tmp / f"store-{rep}")))
            for rep in range(cold_reps)
        ])
        warm_store = TraceStore(tmp / f"store-{cold_reps - 1}")
        workloads["reduce_store_warm"] = best([
            _time_reduce(n, store_run(warm_store)) for _ in range(2)
        ])

    kpi_check = _reduce_kpi_check(manifest, captured["traces"],
                                  captured["sketch"], captured["reduction"])

    report: dict[str, Any] = {
        "bench": "reduce",
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {
            "profiles": list(_CAMPAIGN_PROFILE_KEYS),
            "n_sessions": n,
            "jobs": workers,
            "cold_reps": cold_reps,
            "seed": seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
        "kpi_check": kpi_check,
        "speedup": {
            "reduce_cold_vs_exact_cold": round(
                workloads["reduce_cold"]["sessions_per_s"]
                / workloads["exact_cold"]["sessions_per_s"], 2),
            "memo_warm_vs_cold": round(
                workloads["reduce_store_warm"]["sessions_per_s"]
                / workloads["reduce_store_cold"]["sessions_per_s"], 2),
        },
        "memory": {
            "reduce_vs_exact_peak": round(
                workloads["reduce_cold"]["peak_mb"]
                / workloads["exact_cold"]["peak_mb"], 3),
        },
    }
    if not quick:
        demo_manifest = reduce_demo_tasks(seed + 5)

        def demo_run() -> None:
            run_tasks(demo_manifest, jobs=1, reduce=campaign_reduction())

        demo = _time_reduce(len(demo_manifest), demo_run)
        demo["n_sessions"] = len(demo_manifest)
        demo["peak_vs_reduce_cold"] = round(
            demo["peak_mb"] / workloads["reduce_cold"]["peak_mb"], 3)
        report["demo"] = demo
    return report


def reduce_regression_failures(current: dict[str, Any],
                               baseline: dict[str, Any],
                               threshold: float = 0.30) -> list[str]:
    """Regressions of a reduce report: normalized speed, oracle, memory.

    ``exact_cold`` is the reference workload for hardware
    normalization (same convention as
    :func:`campaign_regression_failures`).  Independent of the
    baseline, the *current* report must pass the exact-vs-sketch
    oracle, keep the memo-hit speedup above ``_MEMO_WARM_FLOOR``,
    keep the reduce peak under ``_REDUCE_PEAK_FRACTION`` of the exact
    peak, and (when the demonstration ran) keep the 10^4-session peak
    within ``_DEMO_PEAK_FACTOR`` of the tiny timed variant's.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    failures: list[str] = []
    try:
        base_ref = baseline["workloads"]["exact_cold"]["sessions_per_s"]
        new_ref = current["workloads"]["exact_cold"]["sessions_per_s"]
    except KeyError:
        return ["exact_cold: reference workload missing from a report"]
    scale = new_ref / base_ref
    for name in _REDUCE_GATED:
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        new = current.get("workloads", {}).get(name)
        if new is None:
            failures.append(f"{name}: missing from current report")
            continue
        floor = (1.0 - threshold) * base["sessions_per_s"] * scale
        if new["sessions_per_s"] < floor:
            failures.append(
                f"{name}: {new['sessions_per_s']:,.2f} sessions/s < floor "
                f"{floor:,.2f} (baseline {base['sessions_per_s']:,.2f} "
                f"x machine factor {scale:.2f} x {1.0 - threshold:.2f})")
    kpi = current.get("kpi_check")
    if not kpi or not kpi.get("ok"):
        failures.append("kpi_check: exact-vs-sketch oracle failed "
                        f"({kpi!r})")
    memo = current.get("speedup", {}).get("memo_warm_vs_cold")
    if memo is not None and memo < _MEMO_WARM_FLOOR:
        failures.append(
            f"memo_warm_vs_cold: {memo:.1f}x < {_MEMO_WARM_FLOOR:.0f}x "
            "(sketch memo replay is not beating recomputation)")
    workloads = current.get("workloads", {})
    exact_peak = workloads.get("exact_cold", {}).get("peak_mb")
    reduce_peak = workloads.get("reduce_cold", {}).get("peak_mb")
    if exact_peak and reduce_peak:
        if reduce_peak > _REDUCE_PEAK_FRACTION * exact_peak:
            failures.append(
                f"reduce_cold peak {reduce_peak:.2f} MB > "
                f"{_REDUCE_PEAK_FRACTION:.0%} of exact_cold peak "
                f"{exact_peak:.2f} MB (streaming path is accumulating traces)")
    demo = current.get("demo")
    if demo and reduce_peak:
        if demo["peak_mb"] > _DEMO_PEAK_FACTOR * reduce_peak:
            failures.append(
                f"demo peak {demo['peak_mb']:.2f} MB > "
                f"{_DEMO_PEAK_FACTOR:.1f}x reduce_cold peak {reduce_peak:.2f} MB "
                f"(peak must track chunk size, not campaign size)")
    return failures


def render_reduce(report: dict[str, Any]) -> str:
    """Human-readable table of a reduce benchmark report."""
    config = report["config"]
    lines = [f"reduce benchmark ({'quick' if report['quick'] else 'full'}, "
             f"{len(config['profiles'])} operators, "
             f"{config['n_sessions']} sessions, jobs={config['jobs']})"]
    for name, data in report["workloads"].items():
        lines.append(f"  {name:18s} {data['sessions_per_s']:>8,.2f} sessions/s"
                     f"   ({data['wall_s']:.2f} s, peak {data['peak_mb']:.2f} MB)")
    kpi = report.get("kpi_check", {})
    if kpi:
        lines.append(
            f"  kpi oracle: {'PASS' if kpi.get('ok') else 'FAIL'} over "
            f"{kpi.get('groups')} groups (mean rel err "
            f"{kpi.get('max_mean_rel_err', 0.0):.2e}, percentile err "
            f"{kpi.get('max_percentile_err', 0.0):.3f} <= "
            f"{kpi.get('percentile_tolerance', 0.0):.3f} Mbps)")
    memory = report.get("memory", {})
    if memory:
        lines.append(f"  reduce peak = {memory['reduce_vs_exact_peak']:.2f}x "
                     f"exact peak")
    demo = report.get("demo")
    if demo:
        lines.append(
            f"  demo: {demo['n_sessions']} sessions at "
            f"{demo['sessions_per_s']:,.2f} sessions/s, peak "
            f"{demo['peak_mb']:.2f} MB "
            f"({demo['peak_vs_reduce_cold']:.2f}x the "
            f"{config['n_sessions']}-session variant)")
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Tensor workload — the cross-session cohort engine
# --------------------------------------------------------------------- #

#: Operators of the tensor workload.  Two carriers are enough: the gate
#: compares engines on the *same* manifest, so breadth adds cost, not
#: signal (the byte-identity tests cover the engine matrix).
_TENSOR_PROFILE_KEYS = ("V_Sp", "O_Sp_100")

#: Sessions per operator — one maximal cohort per operator (the runner
#: caps cohort chunks at 64; beyond that the ``(sessions, slots)``
#: working set thrashes cache and throughput *drops*).
_TENSOR_COHORT_FULL = 64
_TENSOR_COHORT_QUICK = 32

#: Workloads the tensor gate tracks against the baseline after hardware
#: normalization; ``session_cold`` (the per-session vectorized engine,
#: serial jobs=1) is the normalization reference.
_TENSOR_GATED = ("tensor_cold",)

#: Intra-report floor on ``tensor_cold_vs_session_cold``: the cohort
#: pass must beat the per-session engine it batches by at least this
#: factor on a cold campaign, else the sessions axis is not paying for
#: its bookkeeping.  Measured end to end with the native retx kernel:
#: ~3.4x full mode (cohort 64), ~3.9x quick mode (cohort 32) — the
#: per-column OLLA feedback loop still serializes periods (see
#: ``docs/architecture.md``), but the retx walk no longer pays a
#: Python loop per dirty cell.  The floors leave headroom for
#: shared-runner noise; quick mode gets extra slack because sub-second
#: walls are noisier.  The tensor engine needs the compiled kernel (any
#: C compiler on PATH — true for CI runners); without it no cohort runs
#: and the gate's failure names the kernel status from the report.
_TENSOR_VS_SESSION_FLOOR = 2.5
_TENSOR_VS_SESSION_FLOOR_QUICK = 2.0


def tensor_tasks(quick: bool = False, seed: int = 2024) -> list:
    """The tensor benchmark's manifest: maximal same-shape DL cohorts.

    ``ul_fraction=0`` keeps every operator's sessions one contiguous
    same-shape run, so the runner executes each operator as a single
    ``(sessions, slots)`` tensor pass at the target cohort size.
    """
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, campaign_manifest

    cohort = _TENSOR_COHORT_QUICK if quick else _TENSOR_COHORT_FULL
    session_s = 2.0 if quick else 5.0
    spec = CampaignSpec(
        minutes_per_operator=cohort * session_s / 60.0,
        session_s=session_s,
        ul_fraction=0.0,
        seed=seed,
    )
    profiles = {key: EU_PROFILES[key] for key in _TENSOR_PROFILE_KEYS}
    return campaign_manifest(profiles, spec)


def measure_tensor(quick: bool = False, seed: int = 2024) -> dict[str, Any]:
    """Run the tensor benchmark matrix and return the report dict.

    Two engines on the *same* manifest (identical sessions, identical
    bytes out — the comparison is pure execution cost), serial jobs=1
    so no pool scheduling blurs the engine difference:

    - ``session_cold`` / ``session_warm`` — every session through the
      per-session vectorized engine, pinned via ``REPRO_ENGINE`` (the
      cohort grouping still happens; only the engine choice is
      overridden).  ``session_cold`` is the hardware-normalization
      reference.
    - ``tensor_cold`` / ``tensor_warm`` — the tensor engine, pinned via
      ``REPRO_ENGINE=tensor`` (``auto`` keeps cohorts of this width on
      the native per-session engine): each operator's cohort runs as
      one ``(sessions, slots)`` tensor pass.

    Cold clears the process-wide TBS matrix cache first; warm is the
    best of the remaining repetitions.  The report carries the cohort
    counters (cohorts run, dirty cells, tensor slots/s) and the native
    kernel status from the timed tensor runs.
    """
    import os

    from repro.core.runner import run_tasks
    from repro.nr.tbs import clear_tbs_matrix_cache
    from repro.ran import tensor as tensor_mod
    from repro.ran.config import ENGINE_ENV

    cold_reps = 2 if quick else 3
    manifest = tensor_tasks(quick, seed)
    n = len(manifest)
    run_tasks(campaign_tasks(True, seed + 9)[:2], jobs=1)  # untimed warmup

    def timed(clear: bool) -> dict[str, float]:
        if clear:
            clear_tbs_matrix_cache()
        start = time.perf_counter()
        run_tasks(manifest, jobs=1)
        wall = time.perf_counter() - start
        return {"sessions_per_s": round(n / wall, 3),
                "wall_s": round(wall, 3)}

    def best(runs: list[dict[str, float]]) -> dict[str, float]:
        return max(runs, key=lambda r: r["sessions_per_s"])

    def run_variant() -> tuple[dict[str, float], dict[str, float]]:
        cold = best([timed(clear=True) for _ in range(cold_reps)])
        warm = best([timed(clear=False) for _ in range(2)])
        return cold, warm

    def pinned(engine: str) -> tuple[dict[str, float], dict[str, float]]:
        saved = os.environ.get(ENGINE_ENV)
        os.environ[ENGINE_ENV] = engine
        try:
            return run_variant()
        finally:
            if saved is None:
                del os.environ[ENGINE_ENV]
            else:
                os.environ[ENGINE_ENV] = saved

    workloads: dict[str, Any] = {}
    workloads["session_cold"], workloads["session_warm"] = pinned("vectorized")
    tensor_mod.reset_cohort_stats()
    workloads["tensor_cold"], workloads["tensor_warm"] = pinned("tensor")
    stats = tensor_mod.cohort_stats()
    from repro.ran._native import kernel_status

    cells = stats["cells"]
    dirty = stats["dirty_periods"]
    kernel = kernel_status()
    cohort_info = {
        "cohorts": stats["cohorts"],
        "columns": stats["columns"],
        "cells": cells,
        "dirty_periods": dirty,
        "dirty_fraction": round(dirty / cells, 4) if cells else 0.0,
        "native_kernel": kernel["available"],
        "native_kernel_error": kernel["error"],
        "tensor_slots_per_s": round(stats["slots"] / stats["seconds"], 1)
        if stats["seconds"] else 0.0,
    }
    # Per-phase wall decomposition, aggregated over the timed tensor
    # runs: where a cohort pass actually spends its time (pre-draw /
    # tensor pass / kernel retx / flush).
    phases = {
        "predraw_s": round(stats["predraw_s"], 4),
        "tensor_pass_s": round(stats["pass_s"], 4),
        "batched_retx_s": round(stats["batched_s"], 4),
        "flush_s": round(stats["flush_s"], 4),
        "total_s": round(stats["seconds"], 4),
    }

    report: dict[str, Any] = {
        "bench": "tensor",
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {
            "profiles": list(_TENSOR_PROFILE_KEYS),
            "n_sessions": n,
            "cohort_size": _TENSOR_COHORT_QUICK if quick else _TENSOR_COHORT_FULL,
            "cold_reps": cold_reps,
            "seed": seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
        "cohort": cohort_info,
        "phases": phases,
        "speedup": {
            "tensor_cold_vs_session_cold": round(
                workloads["tensor_cold"]["sessions_per_s"]
                / workloads["session_cold"]["sessions_per_s"], 2),
            "tensor_warm_vs_session_warm": round(
                workloads["tensor_warm"]["sessions_per_s"]
                / workloads["session_warm"]["sessions_per_s"], 2),
        },
    }
    return report


def tensor_regression_failures(current: dict[str, Any],
                               baseline: dict[str, Any],
                               threshold: float = 0.30) -> list[str]:
    """Hardware-normalized regressions of a tensor report.

    ``session_cold`` (per-session vectorized, serial jobs=1) is the
    reference workload: its ratio between the two reports estimates the
    machine-speed factor, and ``tensor_cold`` fails when it lost more
    than ``threshold`` of its sessions/sec after that factor is divided
    out (same convention as :func:`campaign_regression_failures`).

    Independent of the baseline, the *current* report must keep the
    cohort pass ahead of the per-session engine it batches
    (``tensor_cold_vs_session_cold`` >= ``_TENSOR_VS_SESSION_FLOOR``,
    relaxed for quick reports) and must actually have run tensor
    cohorts (a policy regression that silently degrades every cohort to
    the per-session engine would otherwise gate green at 1.0x; a
    missing native kernel does exactly that, and the failure says so).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    failures: list[str] = []
    floor = (_TENSOR_VS_SESSION_FLOOR_QUICK if current.get("quick")
             else _TENSOR_VS_SESSION_FLOOR)
    ratio = current.get("speedup", {}).get("tensor_cold_vs_session_cold")
    if ratio is not None and ratio < floor:
        failures.append(
            f"tensor_cold_vs_session_cold: {ratio:.2f}x < floor "
            f"{floor:.2f}x (the cohort pass must beat the per-session "
            f"engine it batches)")
    cohort = current.get("cohort", {})
    if not cohort.get("cohorts"):
        if cohort.get("native_kernel") is False:
            error = cohort.get("native_kernel_error") or "unknown reason"
            cause = (f"the native retx kernel was not loaded ({error}), so "
                     f"the engine policy ran every cohort per-session")
        else:
            cause = ("the engine policy degraded every cohort to the "
                     "per-session engine")
        failures.append(f"cohort: no tensor cohorts ran ({cause})")
    try:
        base_ref = baseline["workloads"]["session_cold"]["sessions_per_s"]
        new_ref = current["workloads"]["session_cold"]["sessions_per_s"]
    except KeyError:
        return ["session_cold: reference workload missing from a report"]
    scale = new_ref / base_ref
    for name in _TENSOR_GATED:
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        new = current.get("workloads", {}).get(name)
        if new is None:
            failures.append(f"{name}: missing from current report")
            continue
        floor = (1.0 - threshold) * base["sessions_per_s"] * scale
        if new["sessions_per_s"] < floor:
            failures.append(
                f"{name}: {new['sessions_per_s']:,.2f} sessions/s < floor "
                f"{floor:,.2f} (baseline {base['sessions_per_s']:,.2f} "
                f"x machine factor {scale:.2f} x {1.0 - threshold:.2f})")
    return failures


def render_tensor(report: dict[str, Any]) -> str:
    """Human-readable table of a tensor benchmark report."""
    config = report["config"]
    lines = [f"tensor benchmark ({'quick' if report['quick'] else 'full'}, "
             f"{len(config['profiles'])} operators, "
             f"{config['n_sessions']} sessions, "
             f"cohort size {config['cohort_size']}, jobs=1)"]
    for name, data in report["workloads"].items():
        lines.append(f"  {name:14s} {data['sessions_per_s']:>8,.2f} sessions/s"
                     f"   ({data['wall_s']:.2f} s)")
    speedup = report.get("speedup", {})
    if speedup:
        lines.append(
            f"  tensor vs per-session: cold "
            f"{speedup['tensor_cold_vs_session_cold']:.2f}x, warm "
            f"{speedup['tensor_warm_vs_session_warm']:.2f}x")
    cohort = report.get("cohort")
    if cohort:
        lines.append(
            f"  cohorts={cohort['cohorts']} columns={cohort['columns']} "
            f"dirty_periods={cohort['dirty_periods']} "
            f"tensor_slots_per_s={cohort['tensor_slots_per_s']:,.0f}")
        if "dirty_fraction" in cohort:
            kernel = ("loaded" if cohort.get("native_kernel")
                      else "not loaded")
            lines.append(
                f"  dirty={cohort['dirty_fraction']:.1%} of "
                f"{cohort['cells']} cells (native kernel {kernel})")
    phases = report.get("phases")
    if phases:
        parts = [f"{key[:-2]}={phases[key]:.2f}s"
                 for key in ("predraw_s", "tensor_pass_s", "batched_retx_s",
                             "flush_s")
                 if key in phases]
        lines.append("  phases: " + " ".join(parts))
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Serve workload — the campaign service end to end
# --------------------------------------------------------------------- #

#: Workloads the serve gate tracks against the baseline after hardware
#: normalization; ``direct_cold`` (the same campaign through
#: ``generate_campaign`` with no daemon in the way) is the
#: normalization reference.  The warm workload is *not* here for the
#: same reason as the campaign/reduce benches: its cost is fixed
#: store-read overhead that does not scale with the machine factor.
_SERVE_GATED = ("serve_cold",)

#: A warm (fully store-served) submission must beat the cold submission
#: of the same campaign by at least this factor within one report;
#: below it the daemon is recomputing sessions it already has.
_SERVE_WARM_VS_COLD_FLOOR = 2.0

#: Concurrent identical submissions in the singleflight probe.
_SERVE_CONCURRENCY = 4


def _serve_spec(quick: bool, seed: int) -> dict[str, Any]:
    """The benchmark submission — a small all-operator campaign."""
    return {"kind": "campaign",
            "minutes": 0.1 if quick else 0.3,
            "session": 3.0 if quick else 5.0,
            "seed": seed}


def _timed_submit(client: Any, payload: dict[str, Any]) -> dict[str, Any]:
    """One submission, timed from the client side (daemon included)."""
    start = time.perf_counter()
    response = client.submit(payload)
    wall = time.perf_counter() - start
    n = response["accounting"]["tasks"]
    return {"sessions_per_s": round(n / wall, 3),
            "wall_s": round(wall, 3),
            "accounting": response["accounting"]}


def measure_serve(quick: bool = False, seed: int = 2024,
                  jobs: int | str = "auto") -> dict[str, Any]:
    """Run the serve benchmark matrix and return the report dict.

    One long-lived daemon (real HTTP on an ephemeral localhost port,
    prewarmed shared pool, fresh store) serves every variant — "cold"
    means an *unseen request* on a warm deployment, which is the cost
    a serving tier actually charges:

    - ``direct_cold`` — the same campaign through
      :func:`repro.xcal.dataset.generate_campaign`, serial jobs=1 on a
      fresh store, no daemon: the hardware-normalization reference and
      the number the serve overhead is quoted against.
    - ``serve_cold`` — first submission of an unseen campaign
      (best-of-reps, each rep on a fresh seed so every run recomputes).
    - ``serve_warm`` — the same campaign resubmitted: answered straight
      from the store (the report records computed/store_served so the
      gate can prove it).
    - ``serve_concurrent`` — ``_SERVE_CONCURRENCY`` identical
      submissions of an unseen campaign raced from separate threads;
      the service counters must show the campaign's tasks computed
      exactly once no matter how the arrivals interleave.
    """
    import tempfile
    import threading

    from repro.core.runner import resolve_jobs
    from repro.nr.tbs import clear_tbs_matrix_cache
    from repro.serve import CampaignService, ServeClient, ServeDaemon
    from repro.store import TraceStore
    from repro.xcal.dataset import CampaignSpec, generate_campaign

    workers = resolve_jobs(jobs)
    cold_reps = 2 if quick else 3
    base = _serve_spec(quick, seed)

    def best(runs: list[dict[str, Any]]) -> dict[str, Any]:
        return max(runs, key=lambda r: r["sessions_per_s"])

    workloads: dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmpdir:
        tmp = Path(tmpdir)

        def direct_run(rep: int) -> dict[str, Any]:
            spec = CampaignSpec(minutes_per_operator=base["minutes"],
                                session_s=base["session"],
                                seed=seed + 50 + rep)
            clear_tbs_matrix_cache()
            start = time.perf_counter()
            campaign = generate_campaign(spec=spec, jobs=1,
                                         store=TraceStore(tmp / f"direct-{rep}"))
            wall = time.perf_counter() - start
            n = sum(len(traces) for traces in campaign.dl_traces.values())
            n += sum(len(traces) for traces in campaign.ul_traces.values())
            return {"sessions_per_s": round(n / wall, 3),
                    "wall_s": round(wall, 3)}

        direct_runs = [direct_run(rep) for rep in range(cold_reps)]
        workloads["direct_cold"] = best(direct_runs)

        store = TraceStore(tmp / "serve-store")
        service = CampaignService(store=store, jobs=workers)
        with ServeDaemon(service, quiet=True) as daemon:
            client = ServeClient(daemon.url)
            client.wait_healthy()
            client.submit({**base, "minutes": 0.05, "seed": seed + 9})  # warmup

            cold_runs = [_timed_submit(client, {**base, "seed": seed + rep})
                         for rep in range(cold_reps)]
            workloads["serve_cold"] = best(cold_runs)

            warm_runs = [_timed_submit(client, {**base, "seed": seed})
                         for _ in range(2)]
            workloads["serve_warm"] = best(warm_runs)

            before = service.stats()["serve"]
            race = {**base, "seed": seed + 100}
            responses: list[dict[str, Any] | None] = [None] * _SERVE_CONCURRENCY
            start = time.perf_counter()

            def submit_one(slot: int) -> None:
                responses[slot] = ServeClient(daemon.url).submit(race)

            threads = [threading.Thread(target=submit_one, args=(slot,))
                       for slot in range(_SERVE_CONCURRENCY)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            race_wall = time.perf_counter() - start
            after = service.stats()["serve"]

            n_race = responses[0]["accounting"]["tasks"]
            computed_delta = after["tasks_computed"] - before["tasks_computed"]
            workloads["serve_concurrent"] = {
                "sessions_per_s": round(n_race / race_wall, 3),
                "wall_s": round(race_wall, 3),
                "requests": _SERVE_CONCURRENCY,
                "dedup_hits": after["dedup_hits"] - before["dedup_hits"],
                "tasks": n_race,
                "tasks_computed": computed_delta,
            }
            serve_totals = service.stats()["serve"]

    warm_acct = workloads["serve_warm"]["accounting"]
    report: dict[str, Any] = {
        "bench": "serve",
        "schema": BENCH_SCHEMA_VERSION,
        "quick": quick,
        "config": {
            "minutes": base["minutes"],
            "session_s": base["session"],
            "n_sessions": workloads["serve_cold"]["accounting"]["tasks"],
            "jobs": workers,
            "cold_reps": cold_reps,
            "concurrency": _SERVE_CONCURRENCY,
            "seed": seed,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "workloads": workloads,
        "serve": serve_totals,
        "checks": {
            "singleflight_computed_once":
                workloads["serve_concurrent"]["tasks_computed"]
                == workloads["serve_concurrent"]["tasks"],
            "warm_computed": warm_acct["computed"],
            "warm_store_served": bool(warm_acct["store_served"]),
        },
        "speedup": {
            "warm_vs_cold": round(
                workloads["serve_warm"]["sessions_per_s"]
                / workloads["serve_cold"]["sessions_per_s"], 2),
            "serve_cold_vs_direct_cold": round(
                workloads["serve_cold"]["sessions_per_s"]
                / workloads["direct_cold"]["sessions_per_s"], 2),
        },
    }
    return report


def serve_regression_failures(current: dict[str, Any],
                              baseline: dict[str, Any],
                              threshold: float = 0.30) -> list[str]:
    """Regressions of a serve report: correctness gates + normalized speed.

    Independent of the baseline, the *current* report must prove the
    service's two load-bearing claims: the singleflight probe computed
    its campaign's tasks exactly once across concurrent identical
    submissions, and the warm submission recomputed nothing
    (``computed == 0`` and fully store-served) while beating its cold
    run by ``_SERVE_WARM_VS_COLD_FLOOR``.  On top of that,
    ``serve_cold`` gates against the baseline hardware-normalized with
    ``direct_cold`` as the reference workload (same convention as
    :func:`campaign_regression_failures`).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    failures: list[str] = []
    checks = current.get("checks", {})
    concurrent = current.get("workloads", {}).get("serve_concurrent", {})
    if not checks.get("singleflight_computed_once"):
        failures.append(
            f"singleflight: {concurrent.get('tasks_computed')} tasks computed "
            f"for {concurrent.get('requests')} concurrent identical "
            f"submissions of {concurrent.get('tasks')} tasks "
            f"(must compute exactly once)")
    if checks.get("warm_computed", 1) != 0 or not checks.get("warm_store_served"):
        failures.append(
            f"serve_warm: computed={checks.get('warm_computed')} "
            f"store_served={checks.get('warm_store_served')} "
            f"(a repeat submission must recompute nothing)")
    ratio = current.get("speedup", {}).get("warm_vs_cold")
    if ratio is not None and ratio < _SERVE_WARM_VS_COLD_FLOOR:
        failures.append(
            f"warm_vs_cold: {ratio:.2f}x < floor "
            f"{_SERVE_WARM_VS_COLD_FLOOR:.0f}x (store-served replay is "
            f"not beating recomputation)")
    try:
        base_ref = baseline["workloads"]["direct_cold"]["sessions_per_s"]
        new_ref = current["workloads"]["direct_cold"]["sessions_per_s"]
    except KeyError:
        return ["direct_cold: reference workload missing from a report"]
    scale = new_ref / base_ref
    for name in _SERVE_GATED:
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        new = current.get("workloads", {}).get(name)
        if new is None:
            failures.append(f"{name}: missing from current report")
            continue
        floor = (1.0 - threshold) * base["sessions_per_s"] * scale
        if new["sessions_per_s"] < floor:
            failures.append(
                f"{name}: {new['sessions_per_s']:,.2f} sessions/s < floor "
                f"{floor:,.2f} (baseline {base['sessions_per_s']:,.2f} "
                f"x machine factor {scale:.2f} x {1.0 - threshold:.2f})")
    return failures


def render_serve(report: dict[str, Any]) -> str:
    """Human-readable table of a serve benchmark report."""
    config = report["config"]
    lines = [f"serve benchmark ({'quick' if report['quick'] else 'full'}, "
             f"{config['n_sessions']} sessions/campaign, "
             f"jobs={config['jobs']}, "
             f"concurrency={config['concurrency']})"]
    for name, data in report["workloads"].items():
        lines.append(f"  {name:17s} {data['sessions_per_s']:>8,.2f} sessions/s"
                     f"   ({data['wall_s']:.2f} s)")
    checks = report.get("checks", {})
    concurrent = report.get("workloads", {}).get("serve_concurrent", {})
    lines.append(
        f"  singleflight: {concurrent.get('requests')} concurrent identical "
        f"submissions -> {concurrent.get('tasks_computed')} of "
        f"{concurrent.get('tasks')} tasks computed, "
        f"{concurrent.get('dedup_hits')} dedup hits "
        f"({'PASS' if checks.get('singleflight_computed_once') else 'FAIL'})")
    lines.append(
        f"  warm replay: computed={checks.get('warm_computed')} "
        f"store_served={checks.get('warm_store_served')} "
        f"({report['speedup']['warm_vs_cold']:.2f}x its cold run)")
    serve = report.get("serve", {})
    if serve:
        lines.append(
            f"  daemon totals: requests={serve.get('requests')} "
            f"dedup_hits={serve.get('dedup_hits')} "
            f"computed={serve.get('tasks_computed')} "
            f"memoized={serve.get('tasks_memoized')} "
            f"errors={serve.get('errors')}")
    return "\n".join(lines)


def history_report(root: Path | str = ".") -> dict[str, Any]:
    """Fold every committed ``BENCH_*.json`` under ``root`` into one
    trajectory report.

    Each tracked benchmark writes its own report file; reading the
    performance story of the repo therefore meant opening five JSON
    files by hand.  This folds their headline numbers — per-workload
    throughput, the speedup ratios each workload gates on, and the
    tensor engine's phase decomposition — into a single dict (and, via
    :func:`render_history`, a single table).  Files that do not parse
    or do not look like bench reports are listed under ``"skipped"``
    instead of aborting the fold, so one corrupt artifact cannot hide
    the rest of the trajectory.
    """
    root = Path(root)
    entries: list[dict[str, Any]] = []
    skipped: list[str] = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            skipped.append(f"{path.name}: {exc}")
            continue
        kind = data.get("bench")
        if not isinstance(data, dict) or not isinstance(kind, str):
            skipped.append(f"{path.name}: not a bench report")
            continue
        entry: dict[str, Any] = {
            "file": path.name,
            "kind": kind,
            "quick": bool(data.get("quick")),
            "schema": data.get("schema"),
        }
        workloads = data.get("workloads")
        if isinstance(workloads, dict):
            throughput = {}
            for name, wl in workloads.items():
                if isinstance(wl, dict):
                    for key in ("sessions_per_s", "slots_per_s"):
                        if isinstance(wl.get(key), (int, float)):
                            throughput[name] = wl[key]
                            break
            if throughput:
                entry["throughput"] = throughput
        speedup = data.get("speedup") or data.get("speedup_vs_pre_pr")
        if isinstance(speedup, dict):
            entry["speedup"] = {
                k: v for k, v in speedup.items()
                if isinstance(v, (int, float))
            }
        phases = data.get("phases")
        if isinstance(phases, dict) and phases.get("total_s"):
            entry["flush_share"] = round(
                phases.get("flush_s", 0.0) / phases["total_s"], 3)
        entries.append(entry)
    return {
        "bench": "history",
        "schema": BENCH_SCHEMA_VERSION,
        "root": str(root),
        "reports": entries,
        "skipped": skipped,
    }


def render_history(report: dict[str, Any]) -> str:
    """Human-readable table of a :func:`history_report` trajectory."""
    entries = report.get("reports", [])
    lines = [f"benchmark trajectory ({len(entries)} reports "
             f"under {report.get('root', '.')})"]
    if not entries:
        lines.append("  no BENCH_*.json reports found")
    for entry in entries:
        mode = "quick" if entry.get("quick") else "full"
        lines.append(f"  {entry['file']} [{entry['kind']}, {mode}]")
        throughput = entry.get("throughput", {})
        for name, value in throughput.items():
            lines.append(f"    {name:22s} {value:>10,.2f} /s")
        for name, value in entry.get("speedup", {}).items():
            lines.append(f"    {name:40s} {value:>6.2f}x")
        if "flush_share" in entry:
            lines.append(f"    {'flush share of tensor wall':40s} "
                         f"{entry['flush_share'] * 100:>5.1f}%")
    for item in report.get("skipped", []):
        lines.append(f"  skipped {item}")
    return "\n".join(lines)


def load_report(path: Path | str) -> dict[str, Any]:
    """Read a report written by :func:`write_report`."""
    return json.loads(Path(path).read_text())


def write_report(report: dict[str, Any], path: Path | str) -> None:
    """Write a report as stable, diff-friendly JSON."""
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def write_profile(profiler: Any, report_path: Path | str,
                  top: int = 20) -> tuple[Path, Path]:
    """Persist a ``cProfile.Profile`` next to its BENCH json.

    Writes two siblings of ``report_path``: a binary ``.pstats`` dump
    (re-loadable with :mod:`pstats` for ad-hoc digging) and a
    ``.profile.txt`` table of the ``top`` cumulative-time entries — so
    the next perf PR starts from data instead of guesses.  Returns the
    ``(pstats_path, table_path)`` pair.
    """
    import io
    import pstats

    report_path = Path(report_path)
    base = report_path.with_suffix("")  # BENCH_x.json -> BENCH_x
    pstats_path = base.with_suffix(".pstats")
    table_path = base.with_suffix(".profile.txt")

    stats = pstats.Stats(profiler)
    stats.dump_stats(str(pstats_path))
    buf = io.StringIO()
    stats.stream = buf
    stats.sort_stats("cumulative").print_stats(top)
    table_path.write_text(buf.getvalue())
    return pstats_path, table_path
