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

The native kernel evaluates decode-error probabilities with libm and
certifies each decision against a guard, falling back to numpy's exact
values for a period when a call is too close.  Real sessions almost
never take that fallback, so it gets its own cases: forced-exact twins
(the guard widened until every period falls back) and edge sessions
whose uniforms sit between numpy's and libm's probabilities, where an
unguarded libm decision would flip.
"""

from __future__ import annotations

import ctypes
import math
import re
from contextlib import contextmanager
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
from repro.ran.amc import BlerModel
from repro.ran.config import CellConfig, resolve_engine
from repro.ran.scheduler import ProportionalFairScheduler, RoundRobinScheduler
from repro.ran.simulator import (SimParams, simulate_downlink,
                                 simulate_downlink_multi, simulate_uplink)
from repro.xcal.io import npz_bytes, trace_to_arrays
from repro.xcal.records import SlotTrace

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


#: numpy's p_err evaluation, unpatched (the fallback tests count the
#: calls the engines make).
_NUMPY_P_ERR = BlerModel.error_probability_given_capacity


@contextmanager
def _counted_fills():
    """Yields a list that grows by one per numpy p_err evaluation (the
    native engine's only one is its exact one-period fallback)."""
    fills = []

    def counted(self, *args, **kwargs):
        fills.append(1)
        return _NUMPY_P_ERR(self, *args, **kwargs)

    with mock.patch.object(BlerModel, "error_probability_given_capacity",
                           counted):
        yield fills


@contextmanager
def _forced_exact():
    """Widen the native guard until every decision is uncertain, so each
    period the kernel decodes falls back to numpy's exact values; yields
    the fill count of :func:`_counted_fills`."""
    with mock.patch.object(simulator, "P_ERR_GUARD_ABS", 2.0), \
            _counted_fills() as fills:
        yield fills


@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_byte_identical(case: str, seed: int):
    _check_single_ue(case, seed, "vectorized")


@needs_kernel
@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_native_byte_identical(case: str, seed: int):
    _check_single_ue(case, seed, "native")


@needs_kernel
@pytest.mark.parametrize("case", sorted(SINGLE_UE_CASES))
@pytest.mark.parametrize("seed", [3, 1234])
def test_single_ue_downlink_native_forced_exact(case: str, seed: int):
    """Every period through the exact fallback: same bytes, and the
    fallback really ran."""
    cell, mean_sinr_db, params = SINGLE_UE_CASES[case]
    with _forced_exact() as fills:
        native = _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                             _request("native"), **params)
    assert len(fills) > 0
    assert native == _run_single(simulate_downlink, cell, mean_sinr_db, seed,
                                 "reference", **params)


@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_byte_identical(seed: int):
    _check_uplink(seed, "vectorized")


@needs_kernel
@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_native_byte_identical(seed: int):
    _check_uplink(seed, "native")


@needs_kernel
@pytest.mark.parametrize("seed", [3, 1234])
def test_uplink_native_forced_exact(seed: int):
    cell = _tdd_cell(Modulation.QAM256)
    with _forced_exact() as fills:
        native = _run_single(simulate_uplink, cell, 16.0, seed,
                             _request("native"))
    assert len(fills) > 0
    assert native == _run_single(simulate_uplink, cell, 16.0, seed, "reference")


def _libm_p_err(bler, eff_mcs: float, eff_cap: np.ndarray) -> np.ndarray:
    """p_err as the native kernel evaluates it: the logistic argument by
    numpy's op sequence, then the C library's exp (``math.exp``)."""
    x = eff_mcs - eff_cap
    x -= bler.bias
    x /= bler.slope
    np.negative(x, out=x)
    e = np.fromiter(map(math.exp, x.tolist()), dtype=float, count=x.size)
    return 1.0 / (e + 1.0)


def _edge_session(s) -> None:
    """Rewrite a no-OLLA session's pre-drawn uniforms in place so many
    decisions sit exactly between numpy's and libm's decode-error
    probabilities.

    Without OLLA the MCS of every period follows from its CQI alone, so
    both probabilities per slot are known up front.  Two slots in eight
    get ``u = 0`` (a NACK).  In even periods the other six get
    ``u = min(p_numpy, p_libm)``: wherever the two probabilities differ
    (a few percent of slots) an unguarded libm decision disagrees with
    the oracle's ``u >= p``.  Odd periods keep their random draws, and
    the on-time retransmission of each of their NACKs gets the same
    edge against its hint ``min(1, p * scale)``.  New-transmission and
    retransmission edges thus never share an origin period, so neither
    guard can mask the other's absence by filling that period.
    """
    assert not s.params.olla_enabled
    mcs_lut, eff_lut, _, _ = simulator._la_luts(s.cell)
    is_qam256 = s.cell.max_modulation is Modulation.QAM256
    fb = ((s.cqi <= s.params.dci_fallback_cqi) & is_qam256).astype(np.int64)
    mcs = mcs_lut[fb, s.cqi, -simulator._OFF_LO]
    period = s.cell.cqi_period_slots
    n_slots = s.uniforms.size
    bler = s.params.bler
    p_numpy, p_libm = np.empty(n_slots), np.empty(n_slots)
    for k in range(s.cqi.size):
        lo, hi = k * period, min(n_slots, (k + 1) * period)
        eff = eff_lut[fb[k], mcs[k]]
        _NUMPY_P_ERR(bler, eff, s.eff_cap[lo:hi], out=p_numpy[lo:hi])
        p_libm[lo:hi] = _libm_p_err(bler, eff, s.eff_cap[lo:hi])
    slot = np.arange(n_slots)
    nack = slot % 8 < 2
    even = (slot // period) % 2 == 0
    s.uniforms[:] = np.where(nack, 0.0, np.where(
        even, np.minimum(p_numpy, p_libm), s.uniforms))
    rtt, scale = s.params.harq_rtt_slots, s.params.retx_error_scale
    src = slot[nack & ~even & (slot + rtt < n_slots)]
    s.retx_uniforms[src + rtt] = np.minimum(
        np.minimum(1.0, p_numpy[src] * scale),
        np.minimum(1.0, p_libm[src] * scale))


def _run_on_edge(simulate, cell: CellConfig, seed: int, engine: str) -> bytes:
    """One edge session (see :func:`_edge_session`) through ``engine``."""
    run_native, run_periods = simulator._run_native, simulator._run_periods

    def edge_native(kernel, trace, s):
        _edge_session(s)
        run_native(kernel, trace, s)

    def edge_periods(engine_cls, trace, s):
        _edge_session(s)
        run_periods(engine_cls, trace, s)

    with mock.patch.object(simulator, "_run_native", edge_native), \
            mock.patch.object(simulator, "_run_periods", edge_periods):
        # Conservative MCS (small p, where libm and numpy differ most)
        # and an RTT of two TDD patterns, so retransmissions land on time.
        return _run_single(simulate, cell, 24.0, seed, engine,
                           olla_enabled=False, cqi_alpha=0.4,
                           harq_rtt_slots=10, retx_error_scale=0.5)


@needs_kernel
@pytest.mark.parametrize("direction", ["DL", "UL"])
@pytest.mark.parametrize("cell", [_tdd_cell(Modulation.QAM256), _fdd_cell()],
                         ids=["tdd", "fdd"])
def test_native_edge_decisions_match_reference(cell, direction):
    """Decisions on a knife edge: libm's p differs from numpy's in the
    last bit on a few percent of inputs, and an unguarded kernel flips
    each of those decisions here.  The guard must send each such period
    (or an edge retransmission's origin period) to the exact fallback,
    un-committing whatever the period had already written."""
    simulate = simulate_downlink if direction == "DL" else simulate_uplink
    with _counted_fills() as fills:
        native = _run_on_edge(simulate, cell, 11, _request("native"))
    assert len(fills) > 0
    assert native == _run_on_edge(simulate, cell, 11, "reference")


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
    forced_exact=st.booleans(),
    n_periods=st.integers(min_value=1, max_value=300),
    remainder=st.integers(min_value=0, max_value=19),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_generated_lone_sessions_native_matches_reference(
        duplex, scs_khz, qam256, direction, sinr, olla_enabled,
        harq_rtt_slots, max_attempts, retx_error_scale, cqi_alpha,
        cqi_period_slots, forced_exact, n_periods, remainder, seed):
    """Generated differential test of the native engine: any lone
    session — every numerology including the 120 kHz FR2 carrier, both
    directions, any HARQ/OLLA/CQI setting, durations that end on a
    partial CQI period, with libm decisions or with every period forced
    through the exact numpy fallback — matches the reference oracle
    byte for byte."""
    cell = _carrier(duplex, scs_khz, qam256, cqi_period_slots)
    n_slots = n_periods * cqi_period_slots + remainder % cqi_period_slots
    duration_s = n_slots * slot_duration_ms(cell.mu) / 1000.0
    simulate = simulate_downlink if direction == "DL" else simulate_uplink
    params = dict(olla_enabled=olla_enabled, harq_rtt_slots=harq_rtt_slots,
                  max_attempts=max_attempts, retx_error_scale=retx_error_scale,
                  cqi_alpha=cqi_alpha)
    guard_abs = 2.0 if forced_exact else simulator.P_ERR_GUARD_ABS
    with mock.patch.object(simulator, "P_ERR_GUARD_ABS", guard_abs):
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


def _native_filled_cqi(cqi: np.ndarray) -> np.ndarray:
    """The session kernel's CQI forward fill, run alone: a session with
    no periods completes at once and fills its CQI column."""
    out = np.array(cqi, dtype=np.int64)
    args = _native.SessionArgs(n_slots=out.size, n_periods=0,
                               cqi_out=out.ctypes.data)
    assert _native.load_kernel().session_run(ctypes.byref(args)) == 0
    return out


def _numpy_filled_cqi(cqi: np.ndarray) -> np.ndarray:
    trace = SlotTrace.empty(len(cqi))
    trace.cqi[:] = cqi
    simulator._forward_fill_cqi(trace)
    return trace.cqi


@needs_kernel
def test_native_cqi_forward_fill_matches_numpy():
    rng = np.random.default_rng(21)
    cases = [np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
             np.zeros(37, dtype=np.int64), np.array([0, 0, 0, 9, 0, 0, 4, 0]),
             np.array([5]), np.array([0, 7]), np.array([3, 0, 0]),
             np.arange(1, 16)]
    for density in (0.02, 0.1, 0.5, 0.9, 1.0):
        for n in (1, 2, 40, 3001):
            cqi = rng.integers(1, 16, n) * (rng.random(n) < density)
            cases.append(cqi)
            leading = cqi.copy()
            leading[: n // 2] = 0
            cases.append(leading)
    for cqi in cases:
        assert _native_filled_cqi(cqi).tobytes() == _numpy_filled_cqi(cqi).tobytes()


def _session_kernel_code() -> tuple[str, str]:
    """(whole comment-stripped kernel source, body of repro_session_run)."""
    source = Path(simulator.__file__).with_name("_retx_kernel.c").read_text()
    code = re.sub(r"/\*.*?\*/", "", source, flags=re.S)
    start = code.index("int64_t repro_session_run(")
    end = code.index("int64_t repro_retx_period(")
    return code, code[start:end]


def test_kernel_source_guards_every_p_err_decision():
    """libm's exp differs from numpy's SIMD one in the last bit, so the
    C kernels evaluate exactly one exp — inside the p_err helper — and
    no other transcendental, and every decision the session kernel takes
    on a probability is preceded by the guard on the same two values."""
    code, body = _session_kernel_code()
    exps = [m.start() for m in re.finditer(r"\bexp[fl]?\s*\(", code)]
    assert len(exps) == 1
    helper = re.search(r"static inline double p_err_libm\([^)]*\)\s*\{(.*?)\n\}",
                       code, flags=re.S)
    assert helper is not None
    assert helper.start(1) <= exps[0] < helper.end(1)
    others = re.findall(
        r"\b(?:expm1|exp2|log|log1p|log2|log10|pow)[fl]?\s*\(", code)
    assert others == []
    # The helper runs once per decoded slot, straight into the guard.
    uses = re.findall(r"(\w+) = [^;]*\bp_err_libm\(", body)
    assert len(uses) == 1 and len(re.findall(r"\bp_err_libm\(", code)) == 2
    # Every decision compares a uniform against a value whose nearest
    # preceding guard checked that same uniform and value.
    decisions = list(re.finditer(r"\bok = (\w+)\[i\] >= (\w+);", body))
    guards = list(re.finditer(r"\buncertain\((\w+)\[i\], (\w+),", body))
    assert len(decisions) == 2 and len(guards) == 2
    assert any(d.group(2) == uses[0] for d in decisions)
    for decision in decisions:
        guard = [g for g in guards if g.start() < decision.start()][-1]
        assert guard.groups() == decision.groups()
