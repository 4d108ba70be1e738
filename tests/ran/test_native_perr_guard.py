"""Margin of the native kernel's decode-error decision guard.

The native session kernel evaluates ``p = 1 / (exp(x) + 1)`` with the C
library's ``exp`` and takes a decision ``u >= p`` only when ``|u - p|``
exceeds ``P_ERR_GUARD_REL * p + P_ERR_GUARD_ABS``; numpy's SIMD ``exp``
may round the last bit differently.  This test measures the largest
relative gap between the two evaluations over the whole input range
the simulator produces and requires it to sit two orders of magnitude
inside the guard, so a platform whose libm drifts fails here instead of
silently changing trace bytes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nr.mcs import Modulation
from repro.nr.tdd import TddPattern
from repro.ran import simulator
from repro.ran.amc import BlerModel
from repro.ran.config import CellConfig

N_PAIRS = 1_000_000


def _eff_range() -> tuple[float, float]:
    """Spectral efficiencies any carrier's MCS tables can schedule."""
    lo, hi = math.inf, -math.inf
    for modulation in (Modulation.QAM64, Modulation.QAM256):
        cell = CellConfig(name="guard n78", band_name="n78", bandwidth_mhz=90,
                          scs_khz=30, max_modulation=modulation,
                          tdd=TddPattern.from_string("DDDSU"))
        eff_lut = simulator._la_luts(cell)[1]
        used = eff_lut[eff_lut > 0]
        lo, hi = min(lo, used.min()), max(hi, used.max())
    return float(lo), float(hi)


def test_libm_p_err_gap_within_guard():
    bler = BlerModel()
    rng = np.random.default_rng(20241017)
    eff = rng.uniform(*_eff_range(), N_PAIRS)
    eff_cap = bler.capacity(rng.uniform(-10.0, 40.0, N_PAIRS))

    p_numpy = np.empty(N_PAIRS)
    bler.error_probability_given_capacity(eff, eff_cap, out=p_numpy)

    # The kernel's p_err_libm, op for op: the argument by numpy's
    # in-place sequence (identical IEEE ops), then libm exp.
    x = eff - eff_cap
    x -= bler.bias
    x /= bler.slope
    np.negative(x, out=x)
    e = np.fromiter(map(math.exp, x.tolist()), dtype=float, count=N_PAIRS)
    p_libm = 1.0 / (e + 1.0)

    assert p_numpy.min() > 0.0
    gap = np.max(np.abs(p_libm - p_numpy) / p_numpy)
    assert gap <= simulator.P_ERR_GUARD_REL / 100, gap
