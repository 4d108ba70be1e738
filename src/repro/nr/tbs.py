"""Transport block size (TBS) determination — TS 38.214 §5.1.3.2.

Given the number of allocated PRBs, the MCS (modulation order + code
rate), the number of MIMO layers and the usable symbols in the slot, this
module computes the exact number of information bits a transport block
carries.  The paper (§3.1) uses exactly this procedure to connect the RB
allocation and MCS index observed in DCIs to the throughput the UE sees:
"given the same number of RBs allocated to the UE, a high MCS index
produces a larger TB size, translating into high throughput."

The algorithm follows the specification step by step:

1. ``N'_RE = 12 * symbols - dmrs_re - overhead`` per PRB, capped at 156;
2. ``N_RE = min(156, N'_RE) * n_prb``;
3. ``N_info = N_RE * R * Q_m * v``;
4. small blocks (``N_info <= 3824``) quantize and round *up* into
   Table 5.1.3.2-1; large blocks quantize, segment into code blocks and
   round to a byte-aligned size.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nr.mcs import McsEntry, McsTable

#: TS 38.214 Table 5.1.3.2-1 — TBS values for N_info <= 3824 bits.
TBS_TABLE_5_1_3_2_1 = (
    24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 136, 144,
    152, 160, 168, 176, 184, 192, 208, 224, 240, 256, 272, 288, 304, 320,
    336, 352, 368, 384, 408, 432, 456, 480, 504, 528, 552, 576, 608, 640,
    672, 704, 736, 768, 808, 848, 888, 928, 984, 1032, 1064, 1128, 1160,
    1192, 1224, 1256, 1288, 1320, 1352, 1416, 1480, 1544, 1608, 1672, 1736,
    1800, 1864, 1928, 2024, 2088, 2152, 2216, 2280, 2408, 2472, 2536, 2600,
    2664, 2728, 2792, 2856, 2976, 3104, 3240, 3368, 3496, 3624, 3752, 3824,
)

_TBS_ARRAY = np.array(TBS_TABLE_5_1_3_2_1)

#: Cap on usable REs per PRB (spec constant).
MAX_RE_PER_PRB = 156

#: Default DMRS REs per PRB per slot (one front-loaded DMRS symbol, type 1).
DEFAULT_DMRS_RE_PER_PRB = 12


def usable_re_per_prb(
    symbols: int = 14,
    dmrs_re_per_prb: int = DEFAULT_DMRS_RE_PER_PRB,
    overhead_re_per_prb: int = 0,
) -> int:
    """REs per PRB available for data after DMRS/overhead, capped at 156."""
    if symbols < 1 or symbols > 14:
        raise ValueError("symbols must lie in [1, 14]")
    n_re_prime = 12 * symbols - dmrs_re_per_prb - overhead_re_per_prb
    if n_re_prime < 0:
        raise ValueError("overhead exceeds the slot's resource elements")
    return min(MAX_RE_PER_PRB, n_re_prime)


def _quantized_small(n_info: float) -> int:
    """Steps 3-4 quantization for N_info <= 3824, looked up in the table."""
    n = max(3, int(math.floor(math.log2(n_info))) - 6)
    n_info_prime = max(24, (1 << n) * (int(n_info) >> n))
    # Smallest TBS in the table that is >= N'_info.
    idx = int(np.searchsorted(_TBS_ARRAY, n_info_prime, side="left"))
    return int(_TBS_ARRAY[min(idx, len(_TBS_ARRAY) - 1)])


def _quantized_large(n_info: float, code_rate: float) -> int:
    """Step 4 for N_info > 3824: segmentation into code blocks."""
    n = int(math.floor(math.log2(n_info - 24))) - 5
    n_info_prime = max(3840, (1 << n) * round((n_info - 24) / (1 << n)))
    if code_rate <= 0.25:
        c = math.ceil((n_info_prime + 24) / 3816)
        return 8 * c * math.ceil((n_info_prime + 24) / (8 * c)) - 24
    if n_info_prime > 8424:
        c = math.ceil((n_info_prime + 24) / 8424)
        return 8 * c * math.ceil((n_info_prime + 24) / (8 * c)) - 24
    return 8 * math.ceil((n_info_prime + 24) / 8) - 24


def transport_block_size(
    n_prb: int,
    mcs: McsEntry,
    layers: int,
    symbols: int = 14,
    dmrs_re_per_prb: int = DEFAULT_DMRS_RE_PER_PRB,
    overhead_re_per_prb: int = 0,
) -> int:
    """Transport block size in bits (TS 38.214 §5.1.3.2).

    Parameters
    ----------
    n_prb:
        Number of allocated physical resource blocks.
    mcs:
        MCS table entry (modulation order and code rate).
    layers:
        Number of MIMO layers (1..4 for the deployments studied).
    symbols:
        Usable OFDM symbols in the slot (14 for a full DL slot, fewer in a
        special slot).
    dmrs_re_per_prb, overhead_re_per_prb:
        Reference-signal and higher-layer overhead REs per PRB.
    """
    if n_prb < 0:
        raise ValueError("n_prb must be non-negative")
    if not 1 <= layers <= 8:
        raise ValueError("layers must lie in [1, 8]")
    if n_prb == 0 or symbols == 0:
        return 0
    n_re = usable_re_per_prb(symbols, dmrs_re_per_prb, overhead_re_per_prb) * n_prb
    n_info = n_re * mcs.code_rate * mcs.modulation.bits_per_symbol * layers
    if n_info <= 0:
        return 0
    if n_info <= 3824:
        return _quantized_small(n_info)
    return _quantized_large(n_info, mcs.code_rate)


def tbs_lookup_matrix(
    mcs_table,
    n_prb: int,
    max_layers: int = 4,
    symbols: int = 14,
    dmrs_re_per_prb: int = DEFAULT_DMRS_RE_PER_PRB,
) -> np.ndarray:
    """Precomputed TBS (bits) indexed ``[mcs_index, layers-1]``.

    The slot-level simulator runs hundreds of thousands of slots; looking
    TBS up from this matrix keeps the hot loop vectorized.
    """
    matrix = np.zeros((len(mcs_table), max_layers), dtype=np.int64)
    for entry in mcs_table:
        for layers in range(1, max_layers + 1):
            matrix[entry.index, layers - 1] = transport_block_size(
                n_prb, entry, layers, symbols=symbols, dmrs_re_per_prb=dmrs_re_per_prb
            )
    return matrix


# ---------------------------------------------------------------------- #
# Process-wide TBS matrix cache
# ---------------------------------------------------------------------- #
# Campaigns simulate hundreds of sessions per process, and every session
# rebuilds the same handful of (table, quantized grant, symbols) matrices.
# The cache is keyed on table *content*, so two tables that happen to be
# distinct objects with identical entries share one matrix.

_MATRIX_CACHE: dict[tuple, np.ndarray] = {}
_matrix_hits = 0
_matrix_misses = 0


def cached_tbs_lookup_matrix(
    mcs_table: McsTable,
    n_prb: int,
    max_layers: int = 4,
    symbols: int = 14,
    dmrs_re_per_prb: int = DEFAULT_DMRS_RE_PER_PRB,
) -> np.ndarray:
    """Process-wide memoized :func:`tbs_lookup_matrix`.

    The returned matrix is shared across callers and marked read-only;
    copy it before mutating.  Hit/miss counters are exposed through
    :func:`tbs_matrix_cache_stats` (``repro cache stats`` prints them).
    """
    global _matrix_hits, _matrix_misses
    key = (mcs_table.content_key, n_prb, max_layers, symbols, dmrs_re_per_prb)
    matrix = _MATRIX_CACHE.get(key)
    if matrix is None:
        _matrix_misses += 1
        matrix = tbs_lookup_matrix(mcs_table, n_prb, max_layers, symbols=symbols,
                                   dmrs_re_per_prb=dmrs_re_per_prb)
        matrix.setflags(write=False)
        _MATRIX_CACHE[key] = matrix
    else:
        _matrix_hits += 1
    return matrix


def tbs_matrix_cache_stats() -> dict[str, int | float]:
    """``{entries, hits, misses, hit_rate}`` of the process-wide cache."""
    total = _matrix_hits + _matrix_misses
    return {
        "entries": len(_MATRIX_CACHE),
        "hits": _matrix_hits,
        "misses": _matrix_misses,
        "hit_rate": (_matrix_hits / total) if total else 0.0,
    }


def clear_tbs_matrix_cache() -> None:
    """Drop all cached matrices and reset the counters (tests, benches)."""
    global _matrix_hits, _matrix_misses
    _MATRIX_CACHE.clear()
    _matrix_hits = 0
    _matrix_misses = 0
