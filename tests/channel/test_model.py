"""Tests for repro.channel.model — the composite SINR engines."""

from unittest import mock

import numpy as np
import pytest

from repro.channel.blockage import BlockageProcess
from repro.channel.fading import Ar1Fading
from repro.channel.mobility import Position, Stationary, Walking
from repro.channel.model import (LARGE_SCALE_STRIDE, ChannelModel, ChannelRealization,
                                 GnbSite, SyntheticChannel)
from repro.nr.numerology import Numerology, slot_duration_ms
from repro.nr.signal import noise_power_dbm
from repro.ran import _native


class TestRealizationContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="length mismatch"):
            ChannelRealization(
                sinr_db=np.zeros(10), rsrp_dbm=np.zeros(9),
                rsrq_db=np.zeros(10), serving_cell=np.zeros(10, dtype=int),
            )

    def test_duration_and_times(self):
        realization = SyntheticChannel().realize(1.0)
        assert realization.n_slots == 2000
        assert realization.duration_s == pytest.approx(1.0)
        times = realization.times_ms()
        assert times[0] == 0.0
        assert times[1] == 0.5


class TestSyntheticChannel:
    def test_mean_matches_spec(self, rng):
        spec = SyntheticChannel(mean_sinr_db=18.0, fast_sigma_db=2.0, slow_sigma_db=1.5)
        realization = spec.realize(20.0, rng=rng)
        assert realization.sinr_db.mean() == pytest.approx(18.0, abs=1.0)

    def test_std_combines_components(self, rng):
        spec = SyntheticChannel(mean_sinr_db=15.0, fast_sigma_db=2.0,
                                slow_sigma_db=1.5, slow_coherence_slots=200.0)
        realization = spec.realize(60.0, rng=rng)
        expected = np.hypot(2.0, 1.5)
        assert realization.sinr_db.std() == pytest.approx(expected, rel=0.25)

    def test_blockage_pulls_sinr_down(self, rng):
        blockage = BlockageProcess(blockage_rate_hz=1.0, mean_blockage_duration_s=0.5,
                                   blockage_attenuation_db=30.0)
        clear = SyntheticChannel(mean_sinr_db=20.0).realize(60.0, rng=np.random.default_rng(1))
        blocked = SyntheticChannel(mean_sinr_db=20.0, blockage=blockage).realize(
            60.0, rng=np.random.default_rng(1))
        assert blocked.sinr_db.mean() < clear.sinr_db.mean() - 3.0

    def test_extra_attenuation_overrides_blockage(self, rng):
        att = np.full(2000, 10.0)
        spec = SyntheticChannel(mean_sinr_db=20.0, fast_sigma_db=0.0, slow_sigma_db=0.0)
        realization = spec.realize(1.0, rng=rng, extra_attenuation_db=att)
        assert realization.sinr_db.mean() == pytest.approx(10.0, abs=0.01)

    def test_extra_attenuation_too_short(self, rng):
        with pytest.raises(ValueError, match="shorter"):
            SyntheticChannel().realize(1.0, rng=rng, extra_attenuation_db=np.zeros(10))

    def test_mu_controls_grid(self, rng):
        fr2 = SyntheticChannel().realize(1.0, mu=Numerology.MU_3, rng=rng)
        assert fr2.n_slots == 8000

    def test_rsrq_reasonable(self, rng):
        realization = SyntheticChannel(mean_sinr_db=25.0).realize(2.0, rng=rng)
        assert -20.0 < realization.rsrq_db.mean() < -10.0

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            SyntheticChannel().realize(0.0)


class TestGeometricChannel:
    @pytest.fixture
    def two_site_model(self):
        return ChannelModel(
            sites=[GnbSite(Position(0, 0)), GnbSite(Position(400, 0))],
            frequency_ghz=3.5, bandwidth_mhz=90.0, n_rb=245,
            neighbour_load=0.1,
        )

    def test_realize_shapes(self, two_site_model, rng):
        realization = two_site_model.realize(2.0, rng=rng)
        assert realization.n_slots == 4000
        assert realization.serving_cell.shape == (4000,)

    def test_serving_cell_follows_proximity(self, two_site_model, rng):
        near_a = two_site_model.realize(1.0, mobility=Stationary(Position(10, 0)), rng=rng)
        near_b = two_site_model.realize(1.0, mobility=Stationary(Position(390, 0)), rng=rng)
        assert np.bincount(near_a.serving_cell).argmax() == 0
        assert np.bincount(near_b.serving_cell).argmax() == 1

    def test_sinr_degrades_with_distance(self, rng):
        model = ChannelModel(sites=[GnbSite(Position(0, 0))], neighbour_load=0.0)
        near = model.realize(1.0, mobility=Stationary(Position(30, 0)), rng=np.random.default_rng(5))
        far = model.realize(1.0, mobility=Stationary(Position(800, 0)), rng=np.random.default_rng(5))
        assert near.sinr_db.mean() > far.sinr_db.mean()

    def test_walking_produces_variation(self, two_site_model, rng):
        moving = two_site_model.realize(30.0, mobility=Walking(Position(0, 30)), rng=rng)
        static = two_site_model.realize(30.0, mobility=Stationary(Position(0, 30)), rng=rng)
        assert moving.sinr_db.std() >= static.sinr_db.std() * 0.5  # both vary, sanity only

    def test_requires_sites(self):
        with pytest.raises(ValueError):
            ChannelModel(sites=[])

    def test_load_validation(self):
        with pytest.raises(ValueError):
            ChannelModel(sites=[GnbSite(Position(0, 0))], neighbour_load=1.5)


# ---------------------------------------------------------------------- #
# In-place realization against the original out-of-place expressions
# ---------------------------------------------------------------------- #
def _db_to_lin(db):
    return np.power(10.0, np.asarray(db, dtype=float) / 10.0)


def _lin_to_db(lin):
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(np.asarray(lin, dtype=float))


def _rsrq(sinr, load):
    return _lin_to_db(1.0 / (12.0 * (load + 1.0 / _db_to_lin(sinr))))


def _n_slots(duration_s, mu):
    return max(1, int(round(duration_s * 1000.0 / slot_duration_ms(mu))))


def _original_synthetic(spec, duration_s, mu, rng, extra=None):
    """SyntheticChannel.realize's SINR and RSRQ as first written."""
    n = _n_slots(duration_s, mu)
    fast = Ar1Fading(spec.fast_sigma_db, spec.fast_coherence_slots)
    slow = Ar1Fading(spec.slow_sigma_db, spec.slow_coherence_slots)
    sinr = spec.mean_sinr_db + fast.sample(n, rng) + slow.sample(n, rng)
    if extra is not None:
        sinr = sinr - np.asarray(extra, dtype=float)[:n]
    else:
        sinr = sinr - spec.blockage.attenuation_db(n, slot_duration_ms(mu), spec.speed_mps, rng)
    return sinr, _rsrq(sinr, spec.rsrq_load)


def _original_geometric(model, duration_s, mobility, mu, rng):
    """ChannelModel.realize's SINR and RSRQ as first written."""
    slot_ms = slot_duration_ms(mu)
    n = _n_slots(duration_s, mu)
    rx_dbm, _ = model.received_power_matrix(duration_s, mobility, mu, rng)
    serving_dbm = rx_dbm[np.arange(rx_dbm.shape[0]), np.argmax(rx_dbm, axis=1)]
    interference_mw = _db_to_lin(rx_dbm).sum(axis=1) - _db_to_lin(serving_dbm)
    interference_dbm = _lin_to_db(np.maximum(interference_mw * model.neighbour_load, 1e-12))
    noise_dbm = noise_power_dbm(model.bandwidth_mhz * 1e6, model.noise_figure_db)
    denom_mw = _db_to_lin(interference_dbm) + _db_to_lin(noise_dbm)
    sinr = np.repeat(serving_dbm - _lin_to_db(denom_mw), LARGE_SCALE_STRIDE)[:n]
    fading = Ar1Fading.for_speed(mobility.speed_mps, model.frequency_ghz, slot_ms,
                                 sigma_db=model.fading_sigma_db)
    sinr = sinr + fading.sample(n, rng)
    sinr = sinr - model.blockage.attenuation_db(n, slot_ms, mobility.speed_mps, rng)
    return sinr, _rsrq(sinr, 1.0)


_KERNEL_STATES = [
    pytest.param(True, id="kernel", marks=pytest.mark.skipif(
        _native.load_kernel() is None, reason="native kernel not loaded")),
    pytest.param(False, id="numpy"),
]

_BLOCKING = BlockageProcess(blockage_rate_hz=3.0, mean_blockage_duration_s=0.05)


def _realize(kernel_loaded, realize, *args, **kwargs):
    if kernel_loaded:
        return realize(*args, **kwargs)
    with mock.patch.object(_native, "load_kernel", lambda: None):
        return realize(*args, **kwargs)


def _assert_same(got, want_sinr, want_rsrq, got_rng, want_rng):
    assert got.sinr_db.tobytes() == want_sinr.tobytes()
    assert got.rsrq_db.tobytes() == want_rsrq.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestInPlaceRealization:
    @pytest.mark.parametrize("kernel_loaded", _KERNEL_STATES)
    @pytest.mark.parametrize("spec", [
        SyntheticChannel(),
        SyntheticChannel(mean_sinr_db=-0.0, fast_sigma_db=0.0, slow_sigma_db=0.0),
        SyntheticChannel(fast_sigma_db=0.0, slow_coherence_slots=1e17),
        SyntheticChannel(fast_coherence_slots=1e-6, rsrq_load=0.4),
        SyntheticChannel(mean_sinr_db=60.0, blockage=_BLOCKING, speed_mps=3.0),
        SyntheticChannel(mean_sinr_db=-12.0, blockage=_BLOCKING),
        # A positive base rate at zero speed still blocks; a zero base
        # rate never does, whatever the speed.
        SyntheticChannel(blockage=BlockageProcess(blockage_rate_hz=0.0), speed_mps=9.0),
    ], ids=["default", "signed-zero", "rho-one", "rho-zero", "blocked-moving",
            "blocked-static", "zero-rate"])
    @pytest.mark.parametrize("mu", [Numerology.MU_0, Numerology.MU_1])
    def test_synthetic_matches_out_of_place(self, spec, mu, kernel_loaded):
        for seed, duration_s in ((1, 3.0), (2, 0.0005), (3, 7.3)):
            want_rng = np.random.default_rng(seed)
            want_sinr, want_rsrq = _original_synthetic(spec, duration_s, mu, want_rng)
            got_rng = np.random.default_rng(seed)
            got = _realize(kernel_loaded, spec.realize, duration_s, mu=mu, rng=got_rng)
            _assert_same(got, want_sinr, want_rsrq, got_rng, want_rng)

    @pytest.mark.parametrize("kernel_loaded", _KERNEL_STATES)
    def test_synthetic_extra_attenuation_matches_out_of_place(self, kernel_loaded):
        spec = SyntheticChannel(blockage=_BLOCKING, speed_mps=2.0)
        extra = np.where(np.arange(6500) % 700 < 90, 25, 0)  # int: converted
        want_rng = np.random.default_rng(9)
        want_sinr, want_rsrq = _original_synthetic(spec, 3.0, Numerology.MU_1,
                                                   want_rng, extra=extra)
        got_rng = np.random.default_rng(9)
        got = _realize(kernel_loaded, spec.realize, 3.0, rng=got_rng,
                       extra_attenuation_db=extra)
        _assert_same(got, want_sinr, want_rsrq, got_rng, want_rng)
        assert np.all(extra[:10] == 25)  # the caller's array is untouched

    @pytest.mark.parametrize("kernel_loaded", _KERNEL_STATES)
    @pytest.mark.parametrize("model,mobility", [
        (ChannelModel(sites=[GnbSite(Position(0, 0)), GnbSite(Position(400, 0))],
                      neighbour_load=0.1), Walking(Position(0, 30))),
        (ChannelModel(sites=[GnbSite(Position(0, 0))], neighbour_load=0.0,
                      fading_sigma_db=0.0), Stationary(Position(30, 0))),
        (ChannelModel(sites=[GnbSite(Position(0, 0)), GnbSite(Position(300, 50))],
                      frequency_ghz=28.0, blockage=_BLOCKING), Walking(Position(10, 0))),
        (ChannelModel(sites=[GnbSite(Position(0, 0))], blockage=_BLOCKING),
         Stationary(Position(200, 0))),
    ], ids=["walking", "no-fading", "blocked-walking", "blocked-static"])
    def test_geometric_matches_out_of_place(self, model, mobility, kernel_loaded):
        for seed, duration_s in ((4, 2.0), (5, 0.0153)):
            want_rng = np.random.default_rng(seed)
            want_sinr, want_rsrq = _original_geometric(model, duration_s, mobility,
                                                       Numerology.MU_1, want_rng)
            got_rng = np.random.default_rng(seed)
            got = _realize(kernel_loaded, model.realize, duration_s,
                           mobility=mobility, rng=got_rng)
            _assert_same(got, want_sinr, want_rsrq, got_rng, want_rng)
