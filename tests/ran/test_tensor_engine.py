"""Byte-identity of the cross-session tensor engine.

A cohort of same-shape sessions (same cell/params/duration, differing
only in seed) must come out of :mod:`repro.ran.tensor` byte-identical
to running each session alone through the per-session engines — the
same npz bytes a campaign export would write.  The matrix covers the
knobs that reshape the slot loop (modulation table, TDD vs FDD, OLLA
on/off, retx density via SINR regime, DL vs UL) crossed with cohort
sizes, an adversarial mixed cohort where only some columns ever hand
dirty cells to the native retx kernel, and a generated differential
test over the same knobs.

The tensor engine needs the native kernel; tests that call
``simulate_*_cohort`` directly skip without it (``REPRO_NATIVE=0`` or
no C compiler), while the engine-policy tests run either way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import Modulation
from repro.nr.tdd import TddPattern
from repro.ran import _native, tensor
from repro.ran.config import TENSOR_MIN_COHORT, CellConfig, resolve_engine
from repro.ran.simulator import SimParams, simulate_downlink, simulate_uplink
from repro.ran.tensor import simulate_downlink_cohort, simulate_uplink_cohort
from repro.xcal.io import npz_bytes, trace_to_arrays

DURATION_S = 1.5
JITTER_DB = 2.0

needs_kernel = pytest.mark.skipif(
    _native.load_kernel() is None,
    reason=f"native retx kernel not loaded: {_native.kernel_status()['error']}")


def _trace_bytes(trace) -> bytes:
    return npz_bytes(trace_to_arrays(trace), {})


def _tdd_cell(max_modulation: Modulation, bandwidth_mhz: int = 90) -> CellConfig:
    return CellConfig(name=f"tensor n78 {bandwidth_mhz}MHz", band_name="n78",
                      bandwidth_mhz=bandwidth_mhz, scs_khz=30,
                      max_modulation=max_modulation,
                      tdd=TddPattern.from_string("DDDSU"))


def _fdd_cell() -> CellConfig:
    return CellConfig(name="tensor n25 20MHz", band_name="n25",
                      bandwidth_mhz=20, scs_khz=15,
                      max_modulation=Modulation.QAM256, tdd=None,
                      n_rb_override=51)


def _channel_and_rng(mean_sinr_db: float, seed: int, cell: CellConfig,
                     duration_s: float = DURATION_S,
                     jitter_db: float = JITTER_DB):
    """One session's channel + positioned rng, in campaign draw order."""
    rng = np.random.default_rng(seed)
    jitter = jitter_db * float(rng.standard_normal())
    channel = SyntheticChannel(mean_sinr_db=mean_sinr_db + jitter).realize(
        duration_s, mu=cell.mu, rng=rng)
    return channel, rng


def _single_bytes(simulate, cell: CellConfig, mean_sinr_db: float, seed: int,
                  engine: str, duration_s: float = DURATION_S,
                  **params) -> bytes:
    channel, rng = _channel_and_rng(mean_sinr_db, seed, cell, duration_s)
    trace = simulate(cell, channel, rng=rng,
                     params=SimParams(engine=engine, **params))
    return _trace_bytes(trace)


def _cohort_bytes(simulate_cohort, cell: CellConfig, mean_sinr_db: float,
                  seeds: list[int], duration_s: float = DURATION_S,
                  **params) -> list[bytes]:
    channels, rngs = [], []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean_sinr_db, seed, cell, duration_s)
        channels.append(channel)
        rngs.append(rng)
    return [_trace_bytes(t) for t in simulate_cohort(
        cell, channels, rngs, params=SimParams(**params))]


CASES = {
    # High SINR: long clean stretches, few divergent periods.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, every column diverges often.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate, the retx kernel carries most
    # slots — the tensor pass must still match byte for byte.
    "tdd-256qam-poor": (_tdd_cell(Modulation.QAM256), 2.0, {}),
    "tdd-64qam": (_tdd_cell(Modulation.QAM64, bandwidth_mhz=60), 15.0, {}),
    "fdd-256qam": (_fdd_cell(), 18.0, {}),
    "tdd-no-olla": (_tdd_cell(Modulation.QAM256), 14.0,
                    {"olla_enabled": False}),
    "tdd-retx-heavy": (_tdd_cell(Modulation.QAM256), 8.0,
                       {"cqi_alpha": 1.4, "retx_error_scale": 0.9,
                        "harq_rtt_slots": 6}),
}


@needs_kernel
@pytest.mark.parametrize("cohort_size", [3, 7])
@pytest.mark.parametrize("case", sorted(CASES))
def test_downlink_cohort_byte_identical(case: str, cohort_size: int):
    cell, sinr, params = CASES[case]
    seeds = list(range(40, 40 + cohort_size))
    singles = [_single_bytes(simulate_downlink, cell, sinr, s, "reference",
                             **params) for s in seeds]
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, sinr, seeds,
                           **params)
    assert cohort == singles


@needs_kernel
@pytest.mark.parametrize("seed0", [7, 70])
def test_uplink_cohort_byte_identical(seed0: int):
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(seed0, seed0 + 5))
    singles = [_single_bytes(simulate_uplink, cell, 6.0, s, "reference")
               for s in seeds]
    cohort = _cohort_bytes(simulate_uplink_cohort, cell, 6.0, seeds)
    assert cohort == singles


@needs_kernel
def test_cohort_matches_vectorized_engine_too():
    cell, sinr, params = CASES["tdd-256qam-mid"]
    seeds = [90, 91, 92]
    vec = [_single_bytes(simulate_downlink, cell, sinr, s, "vectorized",
                         **params) for s in seeds]
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, sinr, seeds,
                           **params)
    assert cohort == vec


@needs_kernel
def test_divergent_retx_fallback_mixed_columns():
    """Adversarial cohort: some columns never fail, others retransmit.

    With OLLA off and a conservative CQI mapping at high (per-seed
    jittered) SINR, clean columns ride the tensor fast path for the
    whole session while dirty columns hand their periods to the retx
    kernel — the cohort must hold a strict mix, and every column must
    still match the reference oracle byte for byte.
    """
    cell = _tdd_cell(Modulation.QAM256)
    params = dict(olla_enabled=False, cqi_alpha=0.4)
    mean, jitter, duration = 18.0, 6.0, 1.0
    # Seeds chosen so the 6 dB jitter splits the cohort (seeds 3, 6 and
    # 11 stay error-free at alpha=0.4; the rest take NACKs).
    seeds = [1, 2, 3, 4, 5, 6, 11]

    singles, channels, rngs = [], [], []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        singles.append(_trace_bytes(simulate_downlink(
            cell, channel, rng=rng,
            params=SimParams(engine="reference", **params))))
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        channels.append(channel)
        rngs.append(rng)

    tensor.reset_cohort_stats()
    cohort = [_trace_bytes(t) for t in simulate_downlink_cohort(
        cell, channels, rngs, params=SimParams(**params))]
    stats = tensor.cohort_stats()

    assert cohort == singles
    assert stats["cohorts"] == 1
    assert stats["columns"] == len(seeds)
    # Some cells went to the kernel, not all.
    assert 0 < stats["dirty_periods"] < stats["cells"]

    # The adversarial mix: some columns retransmitted, some never did.
    retx_counts = []
    for seed in seeds:
        channel, rng = _channel_and_rng(mean, seed, cell, duration, jitter)
        trace = simulate_downlink(cell, channel, rng=rng,
                                  params=SimParams(**params))
        retx_counts.append(int(trace.error.sum() + trace.is_retx.sum()))
    assert sorted(set(c == 0 for c in retx_counts)) == [False, True]


# Adversarial retx density: low SINR plus an optimistic CQI mapping and
# unscaled retx errors keeps most cells dirty and builds real backlogs.
HIGH_BLER_PARAMS = dict(cqi_alpha=2.0, retx_error_scale=1.0,
                        harq_rtt_slots=8)
HIGH_BLER_SINR = -2.0


@needs_kernel
def test_high_bler_cohort_byte_identical():
    """Forced >=80% dirty cells: the retx kernel carries the cohort.

    At -2 dB with an aggressive CQI mapping nearly every (column, period)
    cell holds pending retransmissions, often several deep, so the
    clean-bookkeeping tier almost never applies — the kernel does the
    work and must still match the per-session reference byte for byte.
    """
    cell = _tdd_cell(Modulation.QAM256)
    seeds = list(range(5))
    singles = [_single_bytes(simulate_downlink, cell, HIGH_BLER_SINR, s,
                             "reference", **HIGH_BLER_PARAMS) for s in seeds]
    tensor.reset_cohort_stats()
    cohort = _cohort_bytes(simulate_downlink_cohort, cell, HIGH_BLER_SINR,
                           seeds, **HIGH_BLER_PARAMS)
    stats = tensor.cohort_stats()

    assert cohort == singles
    assert stats["dirty_periods"] / stats["cells"] >= 0.8


_CELLS = {"tdd": _tdd_cell(Modulation.QAM256), "fdd": _fdd_cell()}


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    cell_key=st.sampled_from(sorted(_CELLS)),
    direction=st.sampled_from(["DL", "UL"]),
    sinr=st.floats(min_value=-4.0, max_value=25.0),
    cqi_alpha=st.floats(min_value=0.4, max_value=2.0),
    retx_error_scale=st.floats(min_value=0.0, max_value=1.0),
    harq_rtt_slots=st.integers(min_value=4, max_value=16),
    olla_enabled=st.booleans(),
    cohort_size=st.integers(min_value=2, max_value=6),
    duration_s=st.sampled_from([0.2, 0.35, 0.5]),
    seed0=st.integers(min_value=0, max_value=10_000),
)
def test_generated_cohorts_match_reference(cell_key, direction, sinr,
                                           cqi_alpha, retx_error_scale,
                                           harq_rtt_slots, olla_enabled,
                                           cohort_size, duration_s, seed0):
    """Generated differential test: any cohort the kernel walks matches
    the per-session reference oracle byte for byte, from clean
    high-SINR cohorts to deep low-SINR retransmission backlogs."""
    cell = _CELLS[cell_key]
    params = dict(cqi_alpha=cqi_alpha, retx_error_scale=retx_error_scale,
                  harq_rtt_slots=harq_rtt_slots, olla_enabled=olla_enabled)
    single, cohort_fn = ((simulate_downlink, simulate_downlink_cohort)
                         if direction == "DL" else
                         (simulate_uplink, simulate_uplink_cohort))
    seeds = list(range(seed0, seed0 + cohort_size))
    singles = [_single_bytes(single, cell, sinr, s, "reference", duration_s,
                             **params) for s in seeds]
    cohort = _cohort_bytes(cohort_fn, cell, sinr, seeds, duration_s, **params)
    assert cohort == singles


def test_no_kernel_runs_per_session(monkeypatch):
    """Without the kernel the policy never picks the tensor engine, the
    cohort runner falls back to per-session runs with unchanged output,
    and a direct cohort call fails with a clear error."""
    from repro.operators.profiles import EU_PROFILES
    from repro.xcal.dataset import CampaignSpec, run_session, run_session_cohort

    profile = EU_PROFILES["V_Sp"]
    spec = CampaignSpec(minutes_per_operator=0.1, session_s=0.5, seed=3)
    seeds = list(range(11, 11 + TENSOR_MIN_COHORT))
    expected = [_trace_bytes(run_session(profile, spec, "DL", s))
                for s in seeds]
    if _native.load_kernel() is not None:
        tensor.reset_cohort_stats()
        assert [_trace_bytes(t) for t in run_session_cohort(
            profile, spec, "DL", seeds)] == expected
        assert tensor.cohort_stats()["cohorts"] == 1

    monkeypatch.setattr(_native, "load_kernel", lambda: None)
    assert resolve_engine("auto", 64) == "vectorized"
    assert resolve_engine("tensor", 64) == "vectorized"
    monkeypatch.setenv("REPRO_ENGINE", "tensor")
    assert resolve_engine("vectorized", 64) == "vectorized"
    monkeypatch.delenv("REPRO_ENGINE")

    tensor.reset_cohort_stats()
    assert [_trace_bytes(t) for t in run_session_cohort(
        profile, spec, "DL", seeds)] == expected
    assert tensor.cohort_stats()["cohorts"] == 0

    cell = _tdd_cell(Modulation.QAM256)
    channels, rngs = zip(*(_channel_and_rng(10.0, s, cell, 0.2)
                           for s in (1, 2)))
    with pytest.raises(RuntimeError, match="native retx kernel"):
        simulate_downlink_cohort(cell, channels, rngs, params=SimParams())
    with pytest.raises(RuntimeError, match="native retx kernel"):
        simulate_uplink_cohort(cell, channels, rngs, params=SimParams())


@needs_kernel
def test_cohort_stats_render():
    tensor.reset_cohort_stats()
    line = tensor.render_cohort_stats()
    assert line.startswith("tensor cohorts=0")
    cell, sinr, params = CASES["tdd-256qam-good"]
    _cohort_bytes(simulate_downlink_cohort, cell, sinr, [5, 6, 7], **params)
    stats = tensor.cohort_stats()
    assert stats["cohorts"] == 1 and stats["columns"] == 3
    line = tensor.render_cohort_stats()
    assert "tensor cohorts=1 columns=3 " in line
    assert "kernel=loaded" in line and "residual" not in line
    rate = float(line.rsplit("slots_per_s=", 1)[1].replace(",", ""))
    assert rate > 0


def test_cohort_validates_inputs():
    cell, sinr, params = CASES["tdd-256qam-good"]
    ch, rng = _channel_and_rng(sinr, 1, cell)
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [], [], params=SimParams()))
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [ch], [rng, rng],
                                      params=SimParams()))
    short, short_rng = _channel_and_rng(sinr, 2, cell, duration_s=0.5)
    with pytest.raises(ValueError):
        list(simulate_downlink_cohort(cell, [ch, short], [rng, short_rng],
                                      params=SimParams()))


class TestEnginePolicy:
    @pytest.fixture
    def kernel(self, monkeypatch):
        """Pretend the native kernel is loaded (the policy only checks
        that ``load_kernel()`` is not ``None``)."""
        monkeypatch.setattr(_native, "load_kernel", lambda: object())

    @pytest.fixture
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)

    def test_decision_table(self, kernel):
        below = TENSOR_MIN_COHORT - 1
        assert resolve_engine("auto", 1) == "native"
        assert resolve_engine("auto", below) == "native"
        assert resolve_engine("auto", TENSOR_MIN_COHORT) == "tensor"
        assert resolve_engine("tensor", 1) == "native"
        assert resolve_engine("tensor", 2) == "tensor"
        assert resolve_engine("tensor", 32) == "tensor"
        assert resolve_engine("vectorized", 32) == "vectorized"
        assert resolve_engine("reference", 32) == "reference"

    def test_decision_table_without_kernel(self, no_kernel):
        for size in (1, 2, TENSOR_MIN_COHORT, 64):
            assert resolve_engine("auto", size) == "vectorized"
            assert resolve_engine("tensor", size) == "vectorized"
            assert resolve_engine("vectorized", size) == "vectorized"
            assert resolve_engine("reference", size) == "reference"

    def test_invalid_engine(self):
        with pytest.raises(ValueError):
            resolve_engine("warp", 2)

    def test_env_override(self, kernel, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "vectorized")
        assert resolve_engine("auto", 64) == "vectorized"
        assert resolve_engine("tensor", 64) == "vectorized"
        monkeypatch.setenv("REPRO_ENGINE", "tensor")
        # The cohort-of-one degrade still applies to the override.
        assert resolve_engine("vectorized", 1) == "native"
        assert resolve_engine("vectorized", 8) == "tensor"
        monkeypatch.setenv("REPRO_ENGINE", "warp")
        with pytest.raises(ValueError):
            resolve_engine("auto", 2)
