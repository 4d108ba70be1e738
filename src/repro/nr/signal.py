"""Signal-quality relations: SINR, CQI, RSRP, RSRQ.

The measurement campaign used RSRP > -90 dBm and RSRQ > -12 dB as the
"good signal" scouting thresholds (§2 step 1), and Fig. 7 correlates RSRQ
along a walking route with MIMO-layer usage.  This module provides the
standard mappings between these quantities so the simulator can report
the same KPIs XCAL logs.

The SINR→CQI map uses the attenuated Shannon bound
``eff = alpha * log2(1 + SINR)`` (alpha models implementation loss) and
selects the largest CQI whose table efficiency is sustainable — the same
approach used by link-level abstraction in 3GPP system simulators.
"""

from __future__ import annotations

import numpy as np

from repro.nr.cqi import CQI_MAX, CqiTable

#: Implementation-loss factor of the attenuated Shannon bound.
DEFAULT_ALPHA = 0.65

#: Thermal noise density in dBm/Hz at 290 K.
NOISE_DENSITY_DBM_HZ = -174.0


def db_to_linear(db: float | np.ndarray) -> float | np.ndarray:
    """Convert dB to a linear power ratio.

    Array input is converted in one fresh buffer (same ufuncs, same
    bytes); the in-place chains below keep working in that buffer.
    """
    db = np.asarray(db, dtype=float)
    if db.ndim == 0:
        return np.power(10.0, db / 10.0)
    out = np.divide(db, 10.0)
    return np.power(10.0, out, out=out)


def linear_to_db(linear: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear power ratio to dB."""
    linear = np.asarray(linear, dtype=float)
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(linear)


def shannon_efficiency(sinr_db: float | np.ndarray, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Attenuated Shannon spectral efficiency in bits/s/Hz."""
    sinr_lin = db_to_linear(np.asarray(sinr_db, dtype=float))
    if np.ndim(sinr_lin) == 0:
        return alpha * np.log2(1.0 + sinr_lin)
    np.add(1.0, sinr_lin, out=sinr_lin)
    np.log2(sinr_lin, out=sinr_lin)
    return np.multiply(alpha, sinr_lin, out=sinr_lin)


def sinr_to_cqi(
    sinr_db: float | np.ndarray,
    cqi_table: CqiTable,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Map SINR (dB) to CQI in ``[0, 15]`` (0 = out of range).

    Vectorized; scalar input yields a 0-d array (use ``int(...)``).
    """
    eff = shannon_efficiency(sinr_db, alpha)
    cqi = np.searchsorted(cqi_table.efficiencies, eff, side="right")
    return np.clip(cqi, 0, CQI_MAX)


def cqi_to_min_sinr_db(cqi: int, cqi_table: CqiTable, alpha: float = DEFAULT_ALPHA) -> float:
    """Minimum SINR (dB) at which ``cqi`` becomes sustainable (inverse map)."""
    if not 1 <= cqi <= CQI_MAX:
        raise ValueError(f"CQI {cqi} outside [1, {CQI_MAX}]")
    eff = cqi_table.efficiencies[cqi - 1]
    return float(linear_to_db(np.power(2.0, eff / alpha) - 1.0))


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float = 9.0) -> float:
    """Thermal noise power over a bandwidth, including the UE noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    return NOISE_DENSITY_DBM_HZ + 10.0 * np.log10(bandwidth_hz) + noise_figure_db


def rsrp_from_pathloss(
    tx_power_dbm: float,
    pathloss_db: float | np.ndarray,
    n_rb: int,
    antenna_gain_db: float = 8.0,
) -> float | np.ndarray:
    """Reference signal received power (per-RE) in dBm.

    The gNB splits its transmit power across ``12 * n_rb`` sub-carriers;
    RSRP is the received power of a single reference-signal RE.
    """
    if n_rb <= 0:
        raise ValueError("n_rb must be positive")
    per_re_tx = tx_power_dbm - 10.0 * np.log10(12.0 * n_rb)
    return per_re_tx + antenna_gain_db - np.asarray(pathloss_db, dtype=float)


def rsrq_from_sinr(
    sinr_db: float | np.ndarray,
    load: float = 1.0,
) -> float | np.ndarray:
    """RSRQ (dB) from SINR under a given neighbour-cell load.

    Using ``RSRQ = N_RB * RSRP / RSSI`` with a fully granular RSSI model:
    each RB carries 12 REs whose power is ``load * S + I + N`` where the
    serving-cell data activity factor is ``load``.  In linear terms::

        rsrq = 1 / (12 * (load + 1 / sinr))

    A fully loaded cell saturates at -10.79 dB for infinite SINR, matching
    the empirical "RSRQ better than -12 dB is good" rule the paper applies.
    """
    if not 0.0 < load <= 1.0:
        raise ValueError("load must lie in (0, 1]")
    sinr_lin = db_to_linear(np.asarray(sinr_db, dtype=float))
    if np.ndim(sinr_lin) == 0:
        rsrq_lin = 1.0 / (12.0 * (load + 1.0 / sinr_lin))
        return linear_to_db(rsrq_lin)
    # The same expression, evaluated in db_to_linear's fresh buffer.
    buf = sinr_lin
    np.divide(1.0, buf, out=buf)
    np.add(load, buf, out=buf)
    np.multiply(12.0, buf, out=buf)
    np.divide(1.0, buf, out=buf)
    with np.errstate(divide="ignore"):
        np.log10(buf, out=buf)
    return np.multiply(10.0, buf, out=buf)


def sinr_from_rsrq(rsrq_db: float | np.ndarray, load: float = 1.0) -> float | np.ndarray:
    """Invert :func:`rsrq_from_sinr` (for calibration and tests)."""
    if not 0.0 < load <= 1.0:
        raise ValueError("load must lie in (0, 1]")
    rsrq_lin = db_to_linear(np.asarray(rsrq_db, dtype=float))
    denominator = 1.0 / (12.0 * rsrq_lin) - load
    if np.any(denominator <= 0):
        raise ValueError("RSRQ too high for the given load (no finite SINR)")
    return linear_to_db(1.0 / denominator)
