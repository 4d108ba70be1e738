"""Tests for repro.channel.fading."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.fading import (Ar1Fading, ar1_power_tables, ar1_scan,
                                  coherence_time_s, doppler_hz)
from repro.ran import _native

needs_kernel = pytest.mark.skipif(
    _native.load_kernel() is None,
    reason=f"native kernel not loaded: {_native.kernel_status()['error']}")


def _scan_loop(coeff, noise, init):
    """Direct recursion — the reference ar1_scan must reproduce."""
    coeff = np.broadcast_to(coeff, np.shape(noise))
    x = np.empty(len(noise))
    x[0] = init
    for t in range(1, len(noise)):
        x[t] = coeff[t] * x[t - 1] + noise[t]
    return x


class TestAr1Scan:
    def test_scalar_coeff_matches_loop(self, rng):
        for a in (0.999, 0.5, 0.01, -0.7):
            noise = rng.standard_normal(3000)
            got = ar1_scan(a, noise, init=1.5)
            np.testing.assert_allclose(got, _scan_loop(a, noise, 1.5),
                                       rtol=1e-9, atol=1e-12)

    def test_varying_coeff_matches_loop(self, rng):
        coeff = rng.uniform(0.0, 1.0, 2500)
        noise = rng.standard_normal(2500)
        got = ar1_scan(coeff, noise, init=float(noise[0]))
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, float(noise[0])),
                                   rtol=1e-9, atol=1e-12)

    def test_zero_coefficients_restart_recursion(self, rng):
        coeff = rng.uniform(0.5, 0.99, 400)
        coeff[[1, 50, 399]] = 0.0
        noise = rng.standard_normal(400)
        got = ar1_scan(coeff, noise, init=0.0)
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, 0.0),
                                   rtol=1e-9, atol=1e-12)
        # A zero coefficient makes the output exactly the innovation.
        assert got[50] == noise[50]

    def test_extreme_coefficients_stay_finite(self, rng):
        # Coefficients small enough that the scaled scan would overflow
        # must fall back to the exact per-element recursion.
        coeff = np.full(100, 1e-280)
        noise = rng.standard_normal(100)
        got = ar1_scan(coeff, noise, init=1.0)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, _scan_loop(coeff, noise, 1.0),
                                   rtol=1e-9, atol=1e-12)

    def test_long_run_short_coherence_no_overflow(self, rng):
        # |log a| accumulation over 200k steps must chunk, not overflow.
        got = ar1_scan(0.6, rng.standard_normal(200_000), init=0.0)
        assert np.all(np.isfinite(got))

    def test_single_element(self):
        assert ar1_scan(0.9, np.array([5.0]), init=3.0) == np.array([3.0])

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            ar1_scan(0.5, np.array([]), init=0.0)
        with pytest.raises(ValueError):
            ar1_scan(0.5, np.ones((3, 3)), init=0.0)
        with pytest.raises(ValueError):
            ar1_scan(np.ones(5), np.ones(7), init=0.0)


class TestDoppler:
    def test_doppler_value(self):
        # 1.4 m/s at 3.5 GHz ~ 16.3 Hz.
        assert doppler_hz(1.4, 3.5) == pytest.approx(16.34, abs=0.1)

    def test_static_ue(self):
        assert doppler_hz(0.0, 3.5) == 0.0
        assert coherence_time_s(0.0, 3.5) == float("inf")

    def test_coherence_shrinks_with_speed(self):
        assert coherence_time_s(11.0, 3.5) < coherence_time_s(1.4, 3.5)

    def test_coherence_shrinks_with_frequency(self):
        # mmWave decorrelates ~8x faster at the same speed.
        ratio = coherence_time_s(1.4, 3.5) / coherence_time_s(1.4, 28.0)
        assert ratio == pytest.approx(8.0)

    def test_negative_speed(self):
        with pytest.raises(ValueError):
            doppler_hz(-1.0, 3.5)


class TestAr1:
    def test_stationary_std(self, rng):
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=20.0)
        series = fading.sample(200_000, rng)
        assert series.std() == pytest.approx(2.5, rel=0.05)
        assert abs(series.mean()) < 0.1

    def test_lag1_autocorrelation(self, rng):
        fading = Ar1Fading(sigma_db=2.0, coherence_slots=50.0)
        series = fading.sample(100_000, rng)
        lag1 = np.corrcoef(series[:-1], series[1:])[0, 1]
        assert lag1 == pytest.approx(fading.rho, abs=0.01)

    def test_rho_from_coherence(self):
        assert Ar1Fading(coherence_slots=100.0).rho == pytest.approx(np.exp(-0.01))

    def test_zero_sigma(self, rng):
        assert np.all(Ar1Fading(sigma_db=0.0).sample(100, rng) == 0.0)

    def test_single_sample(self, rng):
        out = Ar1Fading().sample(1, rng)
        assert out.shape == (1,)

    def test_long_series_no_overflow(self, rng):
        # The chunked scan must stay finite over long runs with short
        # coherence (the a^-t overflow hazard).
        fading = Ar1Fading(sigma_db=3.0, coherence_slots=2.0)
        series = fading.sample(500_000, rng)
        assert np.all(np.isfinite(series))
        assert series.std() == pytest.approx(3.0, rel=0.05)

    def test_for_speed_builds_coherence(self):
        slow = Ar1Fading.for_speed(1.4, 3.5, 0.5)
        fast = Ar1Fading.for_speed(11.0, 3.5, 0.5)
        assert fast.coherence_slots < slow.coherence_slots

    def test_for_speed_stationary(self):
        static = Ar1Fading.for_speed(0.0, 3.5, 0.5)
        assert static.coherence_slots > 1000.0

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            Ar1Fading(sigma_db=-1.0)
        with pytest.raises(ValueError):
            Ar1Fading(coherence_slots=0.0)
        with pytest.raises(ValueError):
            Ar1Fading().sample(0, rng)

    def test_sample_matches_direct_recursion(self):
        # The scan must equal x[t] = rho x[t-1] + sigma sqrt(1-rho^2) w[t].
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=30.0)
        w = np.random.default_rng(5).standard_normal(5000)
        a = fading.rho
        b = fading.sigma_db * np.sqrt(1.0 - a * a)
        got = fading.sample(5000, np.random.default_rng(5))
        np.testing.assert_allclose(got, _scan_loop(a, b * w, fading.sigma_db * w[0]),
                                   rtol=1e-9, atol=1e-12)

    def test_underflowing_rho_stays_finite(self, rng):
        # coherence so short that rho underflows to exactly 0: the
        # series degenerates to IID draws instead of NaN.
        series = Ar1Fading(sigma_db=2.0, coherence_slots=1e-6).sample(64, rng)
        assert np.all(np.isfinite(series))


# ---------------------------------------------------------------------- #
# In-place fading: native kernel and numpy fallback against the original
# out-of-place arithmetic, byte for byte
# ---------------------------------------------------------------------- #
def _original_scan_const(a, noise, init):
    """The constant-coefficient scan as first written: powers recomputed
    per chunk, the whole series returned out of place."""
    n = noise.size
    x = np.empty(n)
    x[0] = init
    if n == 1:
        return x
    if a == 0.0:
        x[1:] = noise[1:]
        return x
    log_a = -np.log(abs(a))
    chunk = max(16, min(4096, int(600.0 / max(1e-9, log_a)) if abs(a) < 1 else 4096))
    start = 1
    prev = x[0]
    while start < n:
        stop = min(n, start + chunk)
        powers = a ** np.arange(1, stop - start + 1)
        x[start:stop] = powers * (prev + np.cumsum(noise[start:stop] / powers))
        prev = x[stop - 1]
        start = stop
    return x


def _original_plus_sample(base, fading, rng):
    """``base + fading.sample(n, rng)`` with the original scan."""
    n = base.size
    if fading.sigma_db == 0.0:
        return base + np.zeros(n)
    a = fading.rho
    b = fading.sigma_db * np.sqrt(1.0 - a * a)
    w = rng.standard_normal(n)
    return base + _original_scan_const(a, b * w, fading.sigma_db * w[0])


def _chunk_of(fading):
    return ar1_power_tables(fading.rho, 2)[0] if fading.rho != 0.0 else 16


def _assert_add_matches(fading, n, mean, seed, kernel_loaded):
    want_rng = np.random.default_rng(seed)
    want = _original_plus_sample(np.full(n, mean), fading, want_rng)
    got_rng = np.random.default_rng(seed)
    out = np.full(n, mean)
    if kernel_loaded:
        assert fading.add_to(out, got_rng) is out
    else:
        with mock.patch.object(_native, "load_kernel", lambda: None):
            assert fading.add_to(out, got_rng) is out
    assert out.tobytes() == want.tobytes()
    # Same draws, in the same order.
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


#: rho = exp(-1/c): c=1e-6 underflows rho to exactly 0, c=1e17 rounds it
#: to exactly 1 (b = 0), the rest span the chunk-length clamp [16, 4096].
_COHERENCES = (1e-6, 0.05, 0.2, 2.0, 30.0, 800.0, 1e5, 1e17)


class TestPowerTables:
    def test_tables_are_the_scans_powers(self):
        for coherence in _COHERENCES[1:]:
            a = Ar1Fading(coherence_slots=coherence).rho
            for n in (1, 2, 17, 5000, 20_000):
                chunk, full, tail = ar1_power_tables(a, n)
                assert 16 <= chunk <= 4096
                steps = n - 1
                assert full.size == (chunk if steps >= chunk else 0)
                assert tail.size == steps % chunk
                for table in (full, tail):
                    want = a ** np.arange(1, table.size + 1)
                    assert table.tobytes() == want.tobytes()
                    assert not table.flags.writeable

    def test_tables_are_memoized(self):
        a = Ar1Fading(coherence_slots=30.0).rho
        first = ar1_power_tables(a, 60_001)
        again = ar1_power_tables(a, 60_001)
        assert first[1] is again[1] and first[2] is again[2]


class TestInPlaceAdd:
    @needs_kernel
    @pytest.mark.parametrize("coherence", _COHERENCES)
    def test_native_matches_original(self, coherence):
        # Several chunks plus a tail: any change to the kernel's op order
        # (say b*(w/P), or s started from 0.0 + term) shows up here.
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=coherence)
        chunk = _chunk_of(fading)
        for n in (1, 2, chunk, chunk + 1, chunk + 2, 3 * chunk + 7, 20_000):
            _assert_add_matches(fading, n, 18.0, n, kernel_loaded=True)

    @pytest.mark.parametrize("coherence", _COHERENCES)
    def test_numpy_fallback_matches_original(self, coherence):
        fading = Ar1Fading(sigma_db=2.5, coherence_slots=coherence)
        chunk = _chunk_of(fading)
        for n in (1, 2, chunk + 1, 3 * chunk + 7):
            _assert_add_matches(fading, n, 18.0, n, kernel_loaded=False)

    @pytest.mark.parametrize("kernel_loaded", [
        pytest.param(True, marks=needs_kernel), False])
    def test_zero_sigma_draws_nothing_and_clears_negative_zero(self, kernel_loaded):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        out = np.full(5, -0.0)
        with mock.patch.object(_native, "load_kernel",
                               _native.load_kernel if kernel_loaded else (lambda: None)):
            Ar1Fading(sigma_db=0.0).add_to(out, rng)
        assert rng.bit_generator.state == before
        assert out.tobytes() == (np.full(5, -0.0) + np.zeros(5)).tobytes()

    def test_rejects_unusable_buffers(self, rng):
        fading = Ar1Fading()
        with pytest.raises(ValueError):
            fading.add_to(np.zeros(0), rng)
        with pytest.raises(ValueError):
            fading.add_to(np.zeros(10, dtype=np.float32), rng)
        with pytest.raises(ValueError):
            fading.add_to(np.zeros(20)[::2], rng)

    @needs_kernel
    @settings(max_examples=150, deadline=None)
    @given(
        sigma=st.sampled_from([0.0, 1e-300, 0.5, 2.5, 7.0]),
        coherence=st.one_of(st.sampled_from(_COHERENCES),
                            st.floats(min_value=1e-3, max_value=1e6)),
        n_kind=st.sampled_from(["1", "2", "chunk-1", "chunk", "chunk+1",
                                "several", "any"]),
        n_any=st.integers(min_value=1, max_value=9000),
        mean=st.sampled_from([0.0, -0.0, 18.0, -7.25]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_native_matches_numpy_generated(self, sigma, coherence, n_kind,
                                            n_any, mean, seed):
        fading = Ar1Fading(sigma_db=sigma, coherence_slots=coherence)
        chunk = _chunk_of(fading)
        n = {"1": 1, "2": 2, "chunk-1": chunk - 1, "chunk": chunk,
             "chunk+1": chunk + 1, "several": 2 * chunk + 3, "any": n_any}[n_kind]
        native = np.full(n, mean)
        fading.add_to(native, np.random.default_rng(seed))
        fallback = np.full(n, mean)
        with mock.patch.object(_native, "load_kernel", lambda: None):
            fading.add_to(fallback, np.random.default_rng(seed))
        assert native.tobytes() == fallback.tobytes()
