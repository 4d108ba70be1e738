"""Tests for repro.core.latency — the §4.3 user-plane latency model."""

import numpy as np
import pytest

from repro.core.latency import LatencyBreakdown, UserPlaneLatencyModel
from repro.nr.numerology import Numerology
from repro.nr.tdd import SlotType, SpecialSlotConfig, TddPattern
from repro.operators.profiles import ALL_PROFILES

DDDSU = TddPattern.from_string("DDDSU")
LONG = TddPattern.from_string("DDDDDDDSUU")


class TestBreakdown:
    def test_total_is_sum(self):
        breakdown = LatencyBreakdown(0.35, 0.5, 0.3, 0.0, 0.0, 0.85, 0.5, 0.25)
        assert breakdown.total_ms == pytest.approx(2.75)
        assert breakdown.dl_latency_ms == pytest.approx(1.15)
        assert breakdown.ul_latency_ms == pytest.approx(1.60)

    def test_configured_grant_has_no_sr_terms(self):
        model = UserPlaneLatencyModel(DDDSU, sr_based_ul=False)
        breakdown = model.breakdown()
        assert breakdown.sr_alignment == 0.0
        assert breakdown.grant_round_trip == 0.0

    def test_sr_adds_terms(self):
        model = UserPlaneLatencyModel(LONG, sr_based_ul=True)
        breakdown = model.breakdown()
        assert breakdown.sr_alignment > 0.0
        assert breakdown.grant_round_trip > 0.0


class TestMeanLatency:
    def test_pattern_drives_latency(self):
        # §4.3 headline: frame structure, not bandwidth, sets the delay.
        short = UserPlaneLatencyModel(DDDSU, sr_based_ul=False).mean_latency_ms()
        long_sr = UserPlaneLatencyModel(LONG, sr_based_ul=True).mean_latency_ms()
        assert long_sr > 2.0 * short

    def test_paper_magnitudes(self):
        # DDDSU configured-grant deployments land in the 2-3 ms band,
        # DDDDDDDSUU SR-based deployments in the 5-7 ms band (Fig. 11).
        short = UserPlaneLatencyModel(DDDSU, sr_based_ul=False,
                                      ue_processing_ms=0.1, gnb_processing_ms=0.1)
        assert 2.0 <= short.mean_latency_ms() <= 3.0
        long_model = UserPlaneLatencyModel(LONG, sr_based_ul=True,
                                           ue_processing_ms=0.3, gnb_processing_ms=0.3)
        assert 5.0 <= long_model.mean_latency_ms() <= 7.5

    def test_bler_positive_adds_penalty(self):
        model = UserPlaneLatencyModel(DDDSU, retx_fraction=0.3)
        assert model.mean_latency_ms(True) > model.mean_latency_ms(False)
        delta = model.mean_latency_ms(True) - model.mean_latency_ms(False)
        assert delta == pytest.approx(0.3 * model.harq_penalty_ms())

    def test_harq_penalty_positive(self):
        assert UserPlaneLatencyModel(DDDSU).harq_penalty_ms() > 1.0

    def test_retx_fraction_validation(self):
        with pytest.raises(ValueError):
            UserPlaneLatencyModel(DDDSU, retx_fraction=1.5)


class TestMonteCarlo:
    def test_sample_mean_close_to_analytic(self, rng):
        model = UserPlaneLatencyModel(DDDSU, sr_based_ul=False)
        samples = model.sample(20000, rng=rng)
        # MC walks actual slot boundaries; the analytic mean chains
        # averages, so they agree only approximately.
        assert samples.mean() == pytest.approx(model.mean_latency_ms(), rel=0.25)

    def test_samples_positive_and_bounded(self, rng):
        model = UserPlaneLatencyModel(LONG, sr_based_ul=True)
        samples = model.sample(5000, rng=rng)
        assert samples.min() > 0
        assert samples.max() < 25.0

    def test_retx_probability_shifts_tail(self, rng):
        model = UserPlaneLatencyModel(DDDSU)
        clean = model.sample(20000, rng=np.random.default_rng(1))
        retx = model.sample(20000, rng=np.random.default_rng(1), retx_probability=0.5)
        assert retx.mean() > clean.mean()

    def test_sample_validation(self, rng):
        model = UserPlaneLatencyModel(DDDSU)
        with pytest.raises(ValueError):
            model.sample(0, rng=rng)
        with pytest.raises(ValueError):
            model.sample(10, rng=rng, retx_probability=2.0)


def _profile_patterns():
    patterns = {cell.tdd for profile in ALL_PROFILES.values()
                for cell in profile.cells if cell.tdd is not None}
    assert patterns
    return sorted(patterns, key=lambda p: (p.pattern, repr(p.special)))


def _original_sample(model, n, rng, retx_probability=0.0):
    """UserPlaneLatencyModel.sample as first written: every wait scans
    the pattern through ``wait_slots``."""
    def wait_from_phase(phase_slots, direction):
        slot = int(phase_slots)
        residual = (slot + 1 - phase_slots) * model.slot_ms
        whole = model.pattern.wait_slots(direction, slot + 1) * model.slot_ms
        return residual + whole

    period = model.pattern.period_slots
    phases = rng.random(n) * period
    delays = np.empty(n)
    for i, phase in enumerate(phases):
        t = wait_from_phase(float(phase), SlotType.DL)
        t += model.slot_ms + model.ue_processing_ms
        cursor = (phase + t / model.slot_ms) % period
        if model.sr_based_ul:
            sr_wait = wait_from_phase(float(cursor), SlotType.UL)
            t += sr_wait + model.gnb_processing_ms
            cursor = (cursor + (sr_wait + model.gnb_processing_ms) / model.slot_ms) % period
            grant_wait = wait_from_phase(float(cursor), SlotType.DL)
            t += grant_wait + model.ue_processing_ms
            cursor = (cursor + (grant_wait + model.ue_processing_ms) / model.slot_ms) % period
        ul_wait = wait_from_phase(float(cursor), SlotType.UL)
        t += ul_wait + model.slot_ms + model.gnb_processing_ms
        delays[i] = t
    if retx_probability > 0.0:
        retx = rng.random(n) < retx_probability
        delays = delays + retx * model.harq_penalty_ms()
    return delays


class TestWaitTable:
    @pytest.mark.parametrize("pattern", _profile_patterns(), ids=lambda p: p.pattern)
    def test_table_equals_wait_slots(self, pattern):
        model = UserPlaneLatencyModel(pattern)
        period = pattern.period_slots
        for direction in (SlotType.DL, SlotType.UL):
            table = model._whole_wait_ms[direction]
            assert len(table) == period
            for s in range(3 * period):
                assert table[s % period] == pattern.wait_slots(direction, s) * model.slot_ms

    @pytest.mark.parametrize("pattern", [
        *_profile_patterns(), LONG,
        TddPattern.from_string("DSUUD", SpecialSlotConfig(12, 2, 0)),
        TddPattern.from_string("DDSUU", SpecialSlotConfig(0, 2, 12))],
        ids=lambda p: f"{p.pattern}-{p.special.dl_symbols}-{p.special.ul_symbols}")
    @pytest.mark.parametrize("sr_based_ul", [False, True])
    @pytest.mark.parametrize("mu", [Numerology.MU_0, Numerology.MU_1])
    def test_sample_bytes_unchanged(self, pattern, sr_based_ul, mu):
        model = UserPlaneLatencyModel(pattern, mu=mu, sr_based_ul=sr_based_ul,
                                      ue_processing_ms=0.37, gnb_processing_ms=0.21)
        for retx_probability in (0.0, 0.3):
            got = model.sample(700, rng=np.random.default_rng(11),
                               retx_probability=retx_probability)
            want = _original_sample(model, 700, np.random.default_rng(11),
                                    retx_probability=retx_probability)
            assert got.tobytes() == want.tobytes()

    def test_profile_models_sample_unchanged(self):
        for profile in ALL_PROFILES.values():
            if profile.primary_cell.tdd is None:
                continue
            model = profile.latency_model()
            got = model.sample(300, rng=np.random.default_rng(4))
            want = _original_sample(model, 300, np.random.default_rng(4))
            assert got.tobytes() == want.tobytes()
