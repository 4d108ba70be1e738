"""Byte-identity of the per-session slot engines against the scalar oracle.

The scalar reference engine (``SimParams(engine="reference")``) is
kept as the correctness oracle for the two fast per-session engines:
``native`` (the whole-session C kernel ``engine="auto"`` picks for a
lone session when the kernel loads) and ``vectorized`` (the portable
Python engine).  The contract is not "statistically close" but
*byte-identical npz traces*: every engine must consume the RNG in the
same order and produce the same doubles, so every config knob that
changes the slot loop's shape (modulation table, TDD vs FDD, OLLA
on/off, SINR regime and hence retx density, DL vs UL, multi-UE
scheduling) gets a parametrized equality case, plus a seeded
randomized-config sweep and a generated differential test as
tripwires for interactions the matrix misses.
"""

from __future__ import annotations

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.model import SyntheticChannel
from repro.nr.mcs import Modulation
from repro.nr.numerology import slot_duration_ms
from repro.nr.tdd import TddPattern
from repro.ran import _native, simulator
from repro.ran.config import CellConfig, resolve_engine
from repro.ran.scheduler import ProportionalFairScheduler, RoundRobinScheduler
from repro.ran.simulator import (SimParams, simulate_downlink,
                                 simulate_downlink_multi, simulate_uplink)
from repro.xcal.io import npz_bytes, trace_to_arrays

DURATION_S = 2.0

needs_kernel = pytest.mark.skipif(
    _native.load_kernel() is None,
    reason=f"native kernel not loaded: {_native.kernel_status()['error']}")


def _request(engine: str) -> str:
    """The ``SimParams.engine`` value that runs ``engine`` (``"native"``
    is not a request value: ``"auto"`` resolves to it for a lone
    session when the kernel loads)."""
    if engine != "native":
        return engine
    if _native.load_kernel() is None:
        pytest.skip(f"native kernel not loaded: {_native.kernel_status()['error']}")
    assert resolve_engine("auto", 1) == "native"
    return "auto"


def _trace_bytes(trace) -> bytes:
    """The exact bytes a campaign export would write for this trace."""
    return npz_bytes(trace_to_arrays(trace), {})


def _tdd_cell(max_modulation: Modulation, bandwidth_mhz: int = 90) -> CellConfig:
    return CellConfig(name=f"eq n78 {bandwidth_mhz}MHz", band_name="n78",
                      bandwidth_mhz=bandwidth_mhz, scs_khz=30,
                      max_modulation=max_modulation,
                      tdd=TddPattern.from_string("DDDSU"))


def _fdd_cell() -> CellConfig:
    return CellConfig(name="eq n25 20MHz", band_name="n25", bandwidth_mhz=20,
                      scs_khz=15, max_modulation=Modulation.QAM256, tdd=None,
                      n_rb_override=51)


def _run_single(simulate, cell: CellConfig, mean_sinr_db: float, seed: int,
                engine: str, duration_s: float = DURATION_S, mu=None,
                **params) -> bytes:
    channel = SyntheticChannel(mean_sinr_db=mean_sinr_db).realize(
        duration_s, rng=np.random.default_rng(seed),
        **({} if mu is None else {"mu": mu}))
    trace = simulate(cell, channel, rng=np.random.default_rng(seed),
                     params=SimParams(engine=engine, **params))
    return _trace_bytes(trace)


SINGLE_UE_CASES = {
    # High SINR: long no-retx segments, the fast path's best case.
    "tdd-256qam-good": (_tdd_cell(Modulation.QAM256), 22.0, {}),
    # Mid SINR: OLLA converges to ~10% BLER, fragmented segments.
    "tdd-256qam-mid": (_tdd_cell(Modulation.QAM256), 12.0, {}),
    # Poor SINR: retx windows dominate, mostly the scalar fallback.
    "tdd-256qam-poor": (_tdd_cell(Modulation.QAM256), 2.0, {}),
    "tdd-64qam": (_tdd_cell(Modulation.QAM64, bandwidth_mhz=60), 15.0, {}),
    "fdd-256qam": (_fdd_cell(), 18.0, {}),
    "tdd-no-olla": (_tdd_cell(Modulation.QAM256), 14.0,
                    {"olla_enabled": False}),
}


def _check_single_ue(case: str, seed: int, engine: str) -> None:
    cell, mean_sinr_db, params = SINGLE_UE_CASES[case]
    fast = _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                       _request(engine), **params)
    ref = _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                      "reference", **params)
    assert fast == ref


def _check_uplink(seed: int, engine: str) -> None:
    cell = _tdd_cell(Modulation.QAM256)
    fast = _run_single(simulate_uplink, cell, 16.0, seed, _request(engine))
    ref = _run_single(simulate_uplink, cell, 16.0, seed, "reference")
    assert fast == ref


@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_byte_identical(case: str, seed: int):
    _check_single_ue(case, seed, "vectorized")


@needs_kernel
@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_native_byte_identical(case: str, seed: int):
    _check_single_ue(case, seed, "native")


@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_byte_identical(seed: int):
    _check_uplink(seed, "vectorized")


@needs_kernel
@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_native_byte_identical(seed: int):
    _check_uplink(seed, "native")


def _run_multi(engine: str, scheduler_cls, seed: int, n_ues: int = 3) -> bytes:
    cell = _tdd_cell(Modulation.QAM256)
    channels = [
        SyntheticChannel(mean_sinr_db=22.0 - 4.0 * k).realize(
            DURATION_S, rng=np.random.default_rng(seed + 100 + k))
        for k in range(n_ues)
    ]
    traces = simulate_downlink_multi(cell, channels, scheduler_cls(),
                                     rng=np.random.default_rng(seed),
                                     params=SimParams(engine=engine))
    return b"".join(_trace_bytes(t) for t in traces)


@pytest.mark.parametrize("scheduler_cls",
                         [ProportionalFairScheduler, RoundRobinScheduler],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("seed", [7, 991])
def test_multi_ue_byte_identical(scheduler_cls, seed: int):
    # A fresh scheduler per engine run: schedulers carry EWMA state.
    assert _run_multi("vectorized", scheduler_cls, seed) == \
        _run_multi("reference", scheduler_cls, seed)


def _check_randomized_configs(engine: str) -> None:
    """Seeded random sweep over the config space the matrix interpolates."""
    request = _request(engine)
    meta_rng = np.random.default_rng(20240805)
    for _ in range(6):
        tdd = bool(meta_rng.integers(2))
        cell = (_tdd_cell(Modulation.QAM256 if meta_rng.integers(2)
                          else Modulation.QAM64)
                if tdd else _fdd_cell())
        mean_sinr_db = float(meta_rng.uniform(0.0, 28.0))
        seed = int(meta_rng.integers(1, 2**31))
        params = {"olla_enabled": bool(meta_rng.integers(2)),
                  "cqi_noise_db": float(meta_rng.uniform(0.0, 1.5))}
        fast = _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                           request, **params)
        ref = _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                          "reference", **params)
        assert fast == ref, (tdd, mean_sinr_db, seed, params)


def test_randomized_configs_byte_identical():
    _check_randomized_configs("vectorized")


@needs_kernel
def test_randomized_configs_native_byte_identical():
    _check_randomized_configs("native")


def _carrier(duplex: str, scs_khz: int, qam256: bool,
             cqi_period_slots: int) -> CellConfig:
    """A carrier per numerology: FR1 n78 TDD / n25 FDD at 15-60 kHz,
    FR2 n261 TDD (64QAM, as deployed) at 120 kHz."""
    modulation = Modulation.QAM256 if qam256 else Modulation.QAM64
    if scs_khz == 120:
        return CellConfig(name="eq n261 100MHz", band_name="n261",
                          bandwidth_mhz=100, scs_khz=120,
                          max_modulation=Modulation.QAM64,
                          tdd=TddPattern.from_string("DDDSU"), fr2=True,
                          cqi_period_slots=cqi_period_slots)
    if duplex == "fdd":
        return CellConfig(name=f"eq n25 20MHz {scs_khz}kHz", band_name="n25",
                          bandwidth_mhz=20, scs_khz=scs_khz,
                          max_modulation=modulation, tdd=None,
                          cqi_period_slots=cqi_period_slots)
    return CellConfig(name=f"eq n78 40MHz {scs_khz}kHz", band_name="n78",
                      bandwidth_mhz=40, scs_khz=scs_khz,
                      max_modulation=modulation,
                      tdd=TddPattern.from_string("DDDSU"),
                      cqi_period_slots=cqi_period_slots)


@needs_kernel
@settings(max_examples=60, deadline=None)
@given(
    duplex=st.sampled_from(["tdd", "fdd"]),
    scs_khz=st.sampled_from([15, 30, 60, 120]),
    qam256=st.booleans(),
    direction=st.sampled_from(["DL", "UL"]),
    sinr=st.floats(min_value=-4.0, max_value=30.0),
    olla_enabled=st.booleans(),
    harq_rtt_slots=st.integers(min_value=1, max_value=16),
    max_attempts=st.integers(min_value=1, max_value=4),
    retx_error_scale=st.floats(min_value=0.0, max_value=1.0),
    cqi_alpha=st.floats(min_value=0.4, max_value=2.0),
    cqi_period_slots=st.sampled_from([1, 7, 20]),
    row_window_periods=st.sampled_from([1, 3, 16, 256]),
    n_periods=st.integers(min_value=1, max_value=300),
    remainder=st.integers(min_value=0, max_value=19),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_generated_lone_sessions_native_matches_reference(
        duplex, scs_khz, qam256, direction, sinr, olla_enabled,
        harq_rtt_slots, max_attempts, retx_error_scale, cqi_alpha,
        cqi_period_slots, row_window_periods, n_periods, remainder, seed):
    """Generated differential test of the native engine: any lone
    session — every numerology including the 120 kHz FR2 carrier, both
    directions, any HARQ/OLLA/CQI setting, durations that cross p_err
    row windows and end on a partial CQI period — matches the reference
    oracle byte for byte."""
    cell = _carrier(duplex, scs_khz, qam256, cqi_period_slots)
    n_slots = n_periods * cqi_period_slots + remainder % cqi_period_slots
    duration_s = n_slots * slot_duration_ms(cell.mu) / 1000.0
    simulate = simulate_downlink if direction == "DL" else simulate_uplink
    params = dict(olla_enabled=olla_enabled, harq_rtt_slots=harq_rtt_slots,
                  max_attempts=max_attempts, retx_error_scale=retx_error_scale,
                  cqi_alpha=cqi_alpha)
    with mock.patch.object(simulator, "NATIVE_ROW_WINDOW_PERIODS",
                           row_window_periods):
        native = _run_single(simulate, cell, sinr, seed, _request("native"),
                             duration_s=duration_s, mu=cell.mu, **params)
    ref = _run_single(simulate, cell, sinr, seed, "reference",
                      duration_s=duration_s, mu=cell.mu, **params)
    assert native == ref


def test_no_kernel_auto_runs_vectorized(monkeypatch):
    """Without the kernel a lone ``engine="auto"`` session runs the
    portable vectorized engine — same bytes, kernel never touched."""
    cell, mean_sinr_db, params = SINGLE_UE_CASES["tdd-256qam-mid"]
    expected = _run_single(simulate_downlink, cell, mean_sinr_db, 5,
                           "reference", **params)
    monkeypatch.setattr(_native, "load_kernel", lambda: None)

    def no_native(*args):
        raise AssertionError("native engine ran without a kernel")

    monkeypatch.setattr(simulator, "_run_native", no_native)
    assert resolve_engine("auto", 1) == "vectorized"
    assert _run_single(simulate_downlink, cell, mean_sinr_db, 5, "auto",
                       **params) == expected


def test_kernel_source_evaluates_no_transcendentals():
    """The C kernels must not evaluate exp/log/pow: libm's results differ
    from numpy's SIMD ones in the last bit, so decode-error
    probabilities always come from numpy."""
    source = Path(simulator.__file__).with_name("_retx_kernel.c").read_text()
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    calls = re.findall(
        r"\b(?:exp|expm1|exp2|log|log1p|log2|log10|pow)[fl]?\s*\(", code)
    assert calls == []
