"""Cohort grouping and campaign-level byte-identity of cohort execution.

``group_tasks_by_shape`` partitions a manifest into maximal consecutive
same-shape runs; ``run_tasks`` executes such runs as single tensor
passes when a cohort runner is registered.  The contract under test:
campaign output is *byte-identical* — same npz bytes per session — no
matter the cohort chunk size (1/2/7/64), the jobs count (1/2/auto), or
whether the tensor engine runs at all.
"""

from __future__ import annotations

import pytest

from repro.core import runner as runner_mod
from repro.core.runner import SessionTask, group_tasks_by_shape, run_tasks
from repro.operators.profiles import EU_PROFILES
from repro.xcal.dataset import (CampaignSpec, campaign_manifest,
                                campaign_reduction, run_session)
from repro.xcal.io import npz_bytes, trace_to_arrays


def _noop(x: int = 0, seed: int | None = None) -> int:
    return x


def _other(x: int = 0, seed: int | None = None) -> int:
    return x


class TestGroupTasksByShape:
    def test_single_run(self):
        tasks = [SessionTask(fn=_noop, kwargs={"x": 1}, seed=s)
                 for s in range(4)]
        assert group_tasks_by_shape(tasks) == [[0, 1, 2, 3]]

    def test_splits_on_kwargs_change(self):
        tasks = [SessionTask(fn=_noop, kwargs={"x": 1}, seed=0),
                 SessionTask(fn=_noop, kwargs={"x": 1}, seed=1),
                 SessionTask(fn=_noop, kwargs={"x": 2}, seed=2),
                 SessionTask(fn=_noop, kwargs={"x": 1}, seed=3)]
        assert group_tasks_by_shape(tasks) == [[0, 1], [2], [3]]

    def test_splits_on_fn_change(self):
        tasks = [SessionTask(fn=_noop, kwargs={"x": 1}, seed=0),
                 SessionTask(fn=_other, kwargs={"x": 1}, seed=1)]
        assert group_tasks_by_shape(tasks) == [[0], [1]]

    def test_seedless_tasks_never_group(self):
        tasks = [SessionTask(fn=_noop, kwargs={"x": 1}),
                 SessionTask(fn=_noop, kwargs={"x": 1}),
                 SessionTask(fn=_noop, kwargs={"x": 1}, seed=1)]
        assert group_tasks_by_shape(tasks) == [[0], [1], [2]]

    def test_consecutive_only(self):
        # A same-shape task separated by a different one starts a new
        # group — grouping must preserve manifest order.
        a = SessionTask(fn=_noop, kwargs={"x": 1}, seed=0)
        b = SessionTask(fn=_noop, kwargs={"x": 2}, seed=1)
        c = SessionTask(fn=_noop, kwargs={"x": 1}, seed=2)
        assert group_tasks_by_shape([a, b, c]) == [[0], [1], [2]]

    def test_empty(self):
        assert group_tasks_by_shape([]) == []

    def test_campaign_manifest_groups_by_operator_direction(self):
        spec = CampaignSpec(minutes_per_operator=0.3, session_s=3.0)
        profiles = {k: EU_PROFILES[k] for k in ("V_Sp", "O_Fr")}
        manifest = campaign_manifest(profiles, spec)
        groups = group_tasks_by_shape(manifest)
        # One group per (operator, direction) pair, contiguous, covering
        # the manifest in order.
        assert [i for g in groups for i in g] == list(range(len(manifest)))
        assert len(groups) == 4
        for group in groups:
            kinds = {(manifest[i].kwargs["profile"].key,
                      manifest[i].kwargs["direction"]) for i in group}
            assert len(kinds) == 1


def _campaign(n_dl_heavy: bool = True):
    spec = CampaignSpec(minutes_per_operator=0.9, session_s=3.0,
                        seed=314)
    profiles = {k: EU_PROFILES[k] for k in ("V_Sp", "O_Fr")}
    return campaign_manifest(profiles, spec)


def _bytes_list(traces) -> list[bytes]:
    return [npz_bytes(trace_to_arrays(t), {}) for t in traces]


class TestCampaignByteIdentity:
    """The satellite equality matrix: cohort sizes x jobs counts."""

    @pytest.fixture(scope="class")
    def per_session_baseline(self):
        manifest = _campaign()
        # REPRO_ENGINE pins every session to the per-session vectorized
        # engine regardless of cohort grouping.
        import os
        os.environ["REPRO_ENGINE"] = "vectorized"
        try:
            return _bytes_list(run_tasks(manifest, jobs=1))
        finally:
            del os.environ["REPRO_ENGINE"]

    # The cohort side pins REPRO_ENGINE=tensor: ``auto`` keeps cohorts
    # of these widths on the native per-session engine, and this matrix
    # is about the cohort tensor pass through the runner.
    @pytest.mark.parametrize("cohort_size", [1, 2, 7, 64])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_per_session(self, per_session_baseline, monkeypatch,
                                 cohort_size: int, jobs: int):
        monkeypatch.setattr(runner_mod, "_COHORT_MIN_CHUNK", cohort_size)
        monkeypatch.setattr(runner_mod, "_COHORT_MAX_CHUNK", cohort_size)
        monkeypatch.setenv("REPRO_ENGINE", "tensor")
        got = _bytes_list(run_tasks(_campaign(), jobs=jobs))
        assert got == per_session_baseline

    def test_matches_per_session_jobs_auto(self, per_session_baseline):
        got = _bytes_list(run_tasks(_campaign(), jobs="auto"))
        assert got == per_session_baseline

    def test_tensor_matches_per_session_jobs_auto(self, per_session_baseline,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "tensor")
        got = _bytes_list(run_tasks(_campaign(), jobs="auto"))
        assert got == per_session_baseline

    def test_reduce_path_identical(self, monkeypatch):
        """Cohort execution folds sketch columns one at a time; the
        merged campaign sketch must serialize byte-identically to the
        per-session fold (sketches compare by identity, so the store
        codec payload is the equality oracle)."""
        manifest = _campaign()
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        exact = run_tasks(manifest, jobs=1, reduce=campaign_reduction())
        monkeypatch.setenv("REPRO_ENGINE", "tensor")
        cohort = run_tasks(manifest, jobs=1, reduce=campaign_reduction())
        assert npz_bytes(*cohort.to_arrays()) == npz_bytes(*exact.to_arrays())


class TestCohortDispatch:
    def test_cohort_runner_consumed_lazily(self):
        calls: list[list[int]] = []

        def one(x: int = 0, seed: int = 0) -> int:
            return seed * x

        def one_cohort(seeds, x: int = 0):
            calls.append(list(seeds))
            return (s * x for s in seeds)

        runner_mod.register_cohort_runner(one, one_cohort)
        try:
            manifest = [SessionTask(fn=one, kwargs={"x": 3}, seed=s)
                        for s in range(5)]
            assert run_tasks(manifest, jobs=1) == [0, 3, 6, 9, 12]
            assert calls == [[0, 1, 2, 3, 4]]
        finally:
            runner_mod._COHORT_RUNNERS.pop(one, None)

    def test_short_cohort_yield_detected(self):
        def two(x: int = 0, seed: int = 0) -> int:
            return seed

        def two_cohort(seeds, x: int = 0):
            return (s for s in seeds[:-1])

        runner_mod.register_cohort_runner(two, two_cohort)
        try:
            manifest = [SessionTask(fn=two, kwargs={"x": 1}, seed=s)
                        for s in range(3)]
            with pytest.raises(RuntimeError, match="fewer results"):
                run_tasks(manifest, jobs=1)
        finally:
            runner_mod._COHORT_RUNNERS.pop(two, None)

    def test_long_cohort_yield_detected(self):
        def three(x: int = 0, seed: int = 0) -> int:
            return seed

        def three_cohort(seeds, x: int = 0):
            return (s for s in list(seeds) + [99])

        runner_mod.register_cohort_runner(three, three_cohort)
        try:
            manifest = [SessionTask(fn=three, kwargs={"x": 1}, seed=s)
                        for s in range(3)]
            with pytest.raises(RuntimeError, match="more results"):
                run_tasks(manifest, jobs=1)
        finally:
            runner_mod._COHORT_RUNNERS.pop(three, None)


def test_prewarm_covers_tensor_shapes():
    """After prewarm, a cohort tensor run adds no TBS-matrix misses.

    ``min_grant_fraction = 1 - BACKGROUND_TRIM_MAX`` is the guaranteed
    floor: the background trim is clipped there, so every grant size
    the tensor pass can stack-resolve is prewarmed.
    """
    from repro.nr.tbs import clear_tbs_matrix_cache, tbs_matrix_cache_stats
    from repro.ran.simulator import BACKGROUND_TRIM_MAX, prewarm_tbs_matrices
    from repro.xcal.dataset import run_session_cohort

    profile = EU_PROFILES["V_Sp"]
    spec = CampaignSpec(minutes_per_operator=0.3, session_s=3.0)
    clear_tbs_matrix_cache()
    prewarm_tbs_matrices(profile.primary_cell,
                         max_layers=profile.primary_cell.max_layers,
                         min_grant_fraction=1.0 - BACKGROUND_TRIM_MAX)
    warm = tbs_matrix_cache_stats()
    for _ in run_session_cohort(profile, spec, "DL",
                                [session_seed_ for session_seed_ in range(4)]):
        pass
    after = tbs_matrix_cache_stats()
    assert after["misses"] == warm["misses"]
    assert after["hits"] > warm["hits"]
