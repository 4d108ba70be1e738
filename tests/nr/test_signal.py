"""Tests for repro.nr.signal — SINR/CQI/RSRP/RSRQ relations."""

import numpy as np
import pytest

from repro.nr.cqi import CQI_TABLE_2
from repro.nr.signal import (
    cqi_to_min_sinr_db,
    db_to_linear,
    linear_to_db,
    noise_power_dbm,
    rsrp_from_pathloss,
    rsrq_from_sinr,
    shannon_efficiency,
    sinr_from_rsrq,
    sinr_to_cqi,
)


class TestConversions:
    def test_db_linear_roundtrip(self):
        for value in (-20.0, 0.0, 3.0, 30.0):
            assert linear_to_db(db_to_linear(value)) == pytest.approx(value)

    def test_known_points(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert float(linear_to_db(100.0)) == pytest.approx(20.0)


class TestShannonChain:
    def test_efficiency_monotone(self):
        eff = shannon_efficiency(np.array([-5.0, 0.0, 10.0, 20.0, 30.0]))
        assert np.all(np.diff(eff) > 0)

    def test_alpha_scales(self):
        assert shannon_efficiency(10.0, alpha=0.5) == pytest.approx(
            0.5 / 0.65 * float(shannon_efficiency(10.0, alpha=0.65)))

    def test_sinr_to_cqi_range(self):
        cqi = sinr_to_cqi(np.array([-20.0, 0.0, 15.0, 40.0]), CQI_TABLE_2)
        assert cqi.min() >= 0
        assert cqi.max() <= 15
        assert np.all(np.diff(cqi) >= 0)

    def test_very_low_sinr_out_of_range(self):
        assert int(sinr_to_cqi(-20.0, CQI_TABLE_2)) == 0

    def test_very_high_sinr_max_cqi(self):
        assert int(sinr_to_cqi(40.0, CQI_TABLE_2)) == 15

    def test_inverse_consistency(self):
        # The minimum SINR for a CQI maps back to at least that CQI.
        for cqi in (3, 8, 12, 15):
            sinr = cqi_to_min_sinr_db(cqi, CQI_TABLE_2)
            assert int(sinr_to_cqi(sinr + 1e-6, CQI_TABLE_2)) >= cqi

    def test_inverse_validation(self):
        with pytest.raises(ValueError):
            cqi_to_min_sinr_db(0, CQI_TABLE_2)


class TestNoise:
    def test_noise_grows_with_bandwidth(self):
        narrow = noise_power_dbm(20e6)
        wide = noise_power_dbm(100e6)
        assert wide > narrow
        assert wide - narrow == pytest.approx(10 * np.log10(5), abs=0.01)

    def test_reference_value(self):
        # -174 + 10log10(1e6) + 9 = -105 dBm over 1 MHz with NF 9.
        assert noise_power_dbm(1e6) == pytest.approx(-105.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            noise_power_dbm(0.0)


class TestRsrp:
    def test_rsrp_splits_power_per_re(self):
        rsrp = rsrp_from_pathloss(44.0, 100.0, n_rb=273, antenna_gain_db=0.0)
        expected = 44.0 - 10 * np.log10(12 * 273) - 100.0
        assert float(rsrp) == pytest.approx(expected)

    def test_rsrp_vectorized(self):
        out = rsrp_from_pathloss(44.0, np.array([90.0, 100.0, 110.0]), n_rb=245)
        assert np.all(np.diff(out) < 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            rsrp_from_pathloss(44.0, 100.0, n_rb=0)


class TestRsrq:
    def test_full_load_ceiling(self):
        # RSRQ saturates at -10log10(12) ~ -10.79 dB under full load.
        assert float(rsrq_from_sinr(60.0, load=1.0)) == pytest.approx(-10.79, abs=0.05)

    def test_monotone_in_sinr(self):
        rsrq = rsrq_from_sinr(np.array([-5.0, 0.0, 10.0, 25.0]))
        assert np.all(np.diff(rsrq) > 0)

    def test_scouting_threshold_region(self):
        # §2: RSRQ > -12 dB marks "good" coverage; a strong channel
        # qualifies, a 0 dB SINR channel does not.
        assert float(rsrq_from_sinr(20.0)) > -12.0
        assert float(rsrq_from_sinr(0.0)) < -12.0

    def test_roundtrip(self):
        for sinr in (2.0, 8.0, 15.0):
            rsrq = rsrq_from_sinr(sinr, load=0.8)
            assert float(sinr_from_rsrq(rsrq, load=0.8)) == pytest.approx(sinr, abs=1e-6)

    def test_load_validation(self):
        with pytest.raises(ValueError):
            rsrq_from_sinr(10.0, load=0.0)
        with pytest.raises(ValueError):
            rsrq_from_sinr(10.0, load=1.5)

    def test_inverse_rejects_impossible(self):
        with pytest.raises(ValueError):
            sinr_from_rsrq(-5.0, load=1.0)  # above the full-load ceiling


class TestInPlaceChains:
    """The array paths run their ufunc sequence in one buffer; values,
    dtypes and return types must equal the out-of-place expressions."""

    @staticmethod
    def _original(name, x, arg):
        lin = np.power(10.0, np.asarray(x, dtype=float) / 10.0)
        if name == "db_to_linear":
            return lin
        if name == "shannon_efficiency":
            return arg * np.log2(1.0 + lin)
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(1.0 / (12.0 * (arg + 1.0 / lin)))

    @staticmethod
    def _call(name, x, arg):
        if name == "db_to_linear":
            return db_to_linear(x)
        if name == "shannon_efficiency":
            return shannon_efficiency(x, arg)
        return rsrq_from_sinr(x, load=arg)

    @staticmethod
    def _inputs():
        values = np.random.default_rng(8).uniform(-40.0, 60.0, 5003)
        values[:8] = [0.0, -0.0, 1e-300, -350.0, 400.0, np.inf, -np.inf, 18.0]
        return [
            values,
            values[:5000].reshape(50, 100),
            values[::3],                           # non-contiguous
            values.astype(np.float32),
            np.arange(-30, 40),                    # integers
            [3.0, -1.5, 27.0],                     # list
            np.zeros(0),
        ]

    @pytest.mark.parametrize("name,arg", [
        ("db_to_linear", None), ("shannon_efficiency", 0.6),
        ("shannon_efficiency", 0.65), ("rsrq_from_sinr", 1.0),
        ("rsrq_from_sinr", 0.3), ("rsrq_from_sinr", 1)])
    def test_arrays_match_out_of_place(self, name, arg):
        for x in self._inputs():
            before = np.array(x, copy=True)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                got = self._call(name, x, arg)
                want = self._original(name, x, arg)
            assert type(got) is type(want)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # The caller's array is never the buffer.
            assert np.array_equal(np.asarray(x), before, equal_nan=True)

    @pytest.mark.parametrize("name,arg", [
        ("db_to_linear", None), ("shannon_efficiency", 0.6), ("rsrq_from_sinr", 0.8)])
    @pytest.mark.parametrize("x", [18.0, -0.0, 7, np.float64(-3.5), np.array(12.5),
                                   np.float32(2.0)])
    def test_scalars_keep_their_path(self, name, arg, x):
        got = self._call(name, x, arg)
        want = self._original(name, x, arg)
        assert type(got) is type(want)
        assert np.ndim(got) == 0
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
