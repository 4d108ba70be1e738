"""The benchmark's four workloads: inputs, set-up, one measured batch.

Each workload is one closed batch from a single caller.  Inputs come
from the seed only.  The campaign workloads share one manifest (all 11
operator profiles, 5 s sessions, ``ul_fraction=0.3``, 3 minutes per
operator: 396 sessions, DL cohorts 25 wide, UL cohorts 11 wide) and run
with ``jobs=2`` through the one :class:`CampaignExecutor` made in
set-up.  ``paper_quick`` is ``run_experiment(id, seed, quick=True)`` for
every experiment id, ``jobs=1``, no store.

A batch returns its timed phases and its outputs as comparable values
(see :mod:`oracle`); digests are computed after the clock stops.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

CAMPAIGN = {"minutes_per_operator": 3.0, "session_s": 5.0, "ul_fraction": 0.3}
#: Warm-up campaign: the same shapes, fewer sessions (66), another seed.
WARMUP_CAMPAIGN = {"minutes_per_operator": 0.5, "session_s": 5.0, "ul_fraction": 0.3}
#: Warm-up experiments: simulator, channel, runner cohorts and video app.
WARMUP_EXPERIMENTS = ("fig01", "fig02", "fig16")
JOBS = 2


def warmup_seed(seed: int) -> int:
    """A seed whose inputs share nothing with ``seed``'s."""
    return seed + 1_000_003


def campaign_spec(seed: int, shape: dict = CAMPAIGN):
    from repro.xcal.dataset import CampaignSpec

    return CampaignSpec(seed=seed, **shape)


def campaign_manifest(seed: int) -> list:
    from repro.operators.profiles import ALL_PROFILES
    from repro.xcal.dataset import campaign_manifest as expand

    return expand(ALL_PROFILES, campaign_spec(seed))


def import_experiments() -> tuple[str, ...]:
    """Import every experiment module (part of set-up, like the CLI)."""
    from repro.experiments import EXPERIMENT_IDS, supports_reduce

    for eid in EXPERIMENT_IDS:
        supports_reduce(eid)  # imports the module
    return EXPERIMENT_IDS


def timed(rec, fn, *args, **kwargs):
    """``(fn(...), seconds)``; under tracing the call is one pass window."""
    from tracing import PASS

    index = rec.enter(PASS) if rec is not None else None
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs), time.perf_counter() - start
    finally:
        if rec is not None:
            rec.exit(index)


def campaign_outputs(campaign, seed: int) -> list[str]:
    """Per-session trace digests of a materialized campaign, in
    manifest order."""
    from oracle import trace_digest

    cursors: dict[tuple[str, str], int] = {}
    out = []
    for task in campaign_manifest(seed):
        key, direction, _ = task.label.rsplit("/", 2)
        traces = (campaign.ul_traces if direction == "UL" else campaign.dl_traces)[key]
        n = cursors.get((key, direction), 0)
        cursors[(key, direction)] = n + 1
        out.append(trace_digest(traces[n]) if n < len(traces) else None)
    return out


@dataclass
class Batch:
    """One measured batch: timed phases (seconds), outputs per
    operation, and counters read around it."""

    phases: dict[str, float]
    outputs: list
    counters: dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    oracle_kind = ""

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.executor = None

    def setup(self) -> None:
        raise NotImplementedError

    def batch(self, rec=None) -> Batch:
        raise NotImplementedError

    def expected(self, oracle: dict) -> list:
        return oracle["outputs"]

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()


class PaperQuick(Workload):
    name = "paper_quick"
    oracle_kind = "paper"

    def setup(self) -> None:
        from repro.experiments import run_experiment

        self.ids = import_experiments()
        for eid in WARMUP_EXPERIMENTS:
            run_experiment(eid, seed=warmup_seed(self.seed), quick=True)

    def batch(self, rec=None) -> Batch:
        from oracle import strip_timing
        from repro.experiments import run_experiment

        def run_all() -> list:
            results = []
            for eid in self.ids:
                index = rec.enter("experiments") if rec is not None else None
                try:
                    results.append(run_experiment(eid, seed=self.seed, quick=True))
                except Exception as exc:  # a raise is a failed operation
                    results.append(exc)
                finally:
                    if rec is not None:
                        rec.exit(index, {"id": eid})
            return results

        results, wall = timed(rec, run_all)
        outputs = [strip_timing(r.render()) if not isinstance(r, Exception) else None
                   for r in results]
        return Batch({"wall": wall}, outputs)


class CampaignCold(Workload):
    name = "campaign_cold"
    oracle_kind = "campaign"
    reduce = False

    def setup(self) -> None:
        from repro.core.runner import CampaignExecutor
        from repro.xcal.dataset import generate_campaign

        self.executor = CampaignExecutor(jobs=JOBS)
        generate_campaign(spec=campaign_spec(warmup_seed(self.seed), WARMUP_CAMPAIGN),
                          executor=self.executor, reduce=self.reduce)

    def batch(self, rec=None) -> Batch:
        from repro.core.runner import release_shm_segments
        from repro.xcal.dataset import generate_campaign

        before = self.executor.stats()
        campaign, wall = timed(rec, generate_campaign, spec=campaign_spec(self.seed),
                               executor=self.executor)
        outputs = campaign_outputs(campaign, self.seed)
        del campaign
        release_shm_segments()
        return Batch({"wall": wall, "cold": wall}, outputs,
                     executor_delta(before, self.executor.stats()))


class CampaignReduce(CampaignCold):
    name = "campaign_reduce"
    reduce = True

    def batch(self, rec=None) -> Batch:
        from oracle import sketch_digest
        from repro.xcal.dataset import generate_campaign

        before = self.executor.stats()
        summary, wall = timed(rec, generate_campaign, spec=campaign_spec(self.seed),
                              executor=self.executor, reduce=True)
        n = summary.sketch.n_sessions
        # One merged output stands for every session folded into it.
        outputs = [sketch_digest(summary.sketch)] * max(n, 1)
        return Batch({"wall": wall, "cold": wall}, outputs,
                     executor_delta(before, self.executor.stats()))

    def expected(self, oracle: dict) -> list:
        return [oracle["sketch"]] * oracle["sessions"]


class CampaignStore(CampaignCold):
    name = "campaign_store"

    @property
    def root(self) -> Path:
        return self.scratch / "store"

    def _fresh_store(self):
        from repro.store import TraceStore

        shutil.rmtree(self.root, ignore_errors=True)
        return TraceStore(self.root)

    def setup(self) -> None:
        from repro.core.runner import CampaignExecutor
        from repro.xcal.dataset import generate_campaign

        store = self._fresh_store()
        self.executor = CampaignExecutor(jobs=JOBS, store=store)
        spec = campaign_spec(warmup_seed(self.seed), WARMUP_CAMPAIGN)
        for _ in range(2):  # cold, then warm
            generate_campaign(spec=spec, store=store, executor=self.executor)
        shutil.rmtree(self.root)

    def batch(self, rec=None) -> Batch:
        from repro.core.runner import release_shm_segments
        from repro.xcal.dataset import generate_campaign

        store = self._fresh_store()
        before = self.executor.stats()
        phases: dict[str, float] = {}
        digests = []
        for phase in ("cold", "warm"):
            campaign, phases[phase] = timed(rec, generate_campaign,
                                            spec=campaign_spec(self.seed),
                                            store=store, executor=self.executor)
            digests.append(campaign_outputs(campaign, self.seed))
            del campaign
            release_shm_segments()
        phases["wall"] = phases["cold"] + phases["warm"]
        counters = executor_delta(before, self.executor.stats())
        counters.update(store_hits=store.hits, store_misses=store.misses,
                        store_read_bytes=store.bytes_read,
                        store_written_bytes=store.bytes_written)
        shutil.rmtree(self.root)
        # A session is right only when cold and warm both match.
        outputs = [c if c == w else None for c, w in zip(*digests)]
        return Batch(phases, outputs, counters)


def executor_delta(before: dict, after: dict) -> dict[str, float]:
    return {key: after[key] - before[key]
            for key in ("tasks_routed", "tasks_recomputed")}


WORKLOADS = {cls.name: cls for cls in (PaperQuick, CampaignCold, CampaignReduce,
                                       CampaignStore)}
