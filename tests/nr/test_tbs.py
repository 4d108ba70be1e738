"""Tests for repro.nr.tbs — TS 38.214 §5.1.3.2 transport block sizes."""

import pytest

from repro.nr.mcs import MCS_TABLE_64QAM, MCS_TABLE_256QAM, McsTable
from repro.nr.tbs import (
    MAX_RE_PER_PRB,
    TBS_TABLE_5_1_3_2_1,
    cached_tbs_lookup_matrix,
    clear_tbs_matrix_cache,
    tbs_lookup_matrix,
    tbs_matrix_cache_stats,
    transport_block_size,
    usable_re_per_prb,
)


class TestReAccounting:
    def test_full_slot_capped_at_156(self):
        # 12 * 14 - 12 DMRS = 156, exactly the cap.
        assert usable_re_per_prb(14) == 156
        assert MAX_RE_PER_PRB == 156

    def test_no_dmrs_still_capped(self):
        assert usable_re_per_prb(14, dmrs_re_per_prb=0) == 156

    def test_partial_slot(self):
        assert usable_re_per_prb(6, dmrs_re_per_prb=12) == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            usable_re_per_prb(0)
        with pytest.raises(ValueError):
            usable_re_per_prb(15)
        with pytest.raises(ValueError):
            usable_re_per_prb(1, dmrs_re_per_prb=13)


class TestReferenceTable:
    def test_length(self):
        assert len(TBS_TABLE_5_1_3_2_1) == 93

    def test_bounds(self):
        assert TBS_TABLE_5_1_3_2_1[0] == 24
        assert TBS_TABLE_5_1_3_2_1[-1] == 3824

    def test_sorted_unique(self):
        values = list(TBS_TABLE_5_1_3_2_1)
        assert values == sorted(set(values))


class TestTransportBlockSize:
    def test_zero_prb(self):
        assert transport_block_size(0, MCS_TABLE_256QAM[10], 2) == 0

    def test_small_block_from_table(self):
        # A tiny allocation lands in Table 5.1.3.2-1.
        tbs = transport_block_size(1, MCS_TABLE_64QAM[0], 1)
        assert tbs in TBS_TABLE_5_1_3_2_1

    def test_small_block_covers_n_info(self):
        # The chosen table TBS is >= the quantized information size.
        entry = MCS_TABLE_64QAM[5]
        tbs = transport_block_size(2, entry, 1)
        n_info = 2 * 156 * entry.code_rate * entry.modulation.bits_per_symbol
        assert tbs >= 0.9 * n_info

    def test_large_block_byte_aligned(self):
        tbs = transport_block_size(245, MCS_TABLE_256QAM[27], 4)
        assert (tbs + 24) % 8 == 0
        assert tbs > 1_000_000  # ~1.15 Mb per slot at full blast

    def test_monotone_in_prbs(self):
        entry = MCS_TABLE_256QAM[15]
        sizes = [transport_block_size(n, entry, 2) for n in (10, 50, 100, 200, 273)]
        assert sizes == sorted(sizes)

    def test_monotone_in_mcs(self):
        sizes = [transport_block_size(100, MCS_TABLE_256QAM[i], 2) for i in range(0, 28, 3)]
        assert sizes == sorted(sizes)

    def test_monotone_in_layers(self):
        entry = MCS_TABLE_256QAM[20]
        sizes = [transport_block_size(100, entry, layers) for layers in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)
        # 4 layers carry roughly 4x the single-layer bits.
        assert sizes[3] == pytest.approx(4 * sizes[0], rel=0.05)

    def test_partial_symbols_reduce_tbs(self):
        entry = MCS_TABLE_256QAM[20]
        full = transport_block_size(100, entry, 4, symbols=14)
        special = transport_block_size(100, entry, 4, symbols=6)
        assert special < full

    def test_tbs_close_to_nominal_rate(self):
        # TBS ~ N_RE * R * Qm * v within quantization slack.
        entry = MCS_TABLE_256QAM[27]
        tbs = transport_block_size(245, entry, 4)
        nominal = 245 * 156 * entry.code_rate * 8 * 4
        assert tbs == pytest.approx(nominal, rel=0.02)

    def test_validation(self):
        entry = MCS_TABLE_256QAM[0]
        with pytest.raises(ValueError):
            transport_block_size(-1, entry, 1)
        with pytest.raises(ValueError):
            transport_block_size(10, entry, 0)
        with pytest.raises(ValueError):
            transport_block_size(10, entry, 9)


class TestLookupMatrix:
    def test_shape(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_256QAM, 245, max_layers=4)
        assert matrix.shape == (28, 4)

    def test_matches_direct_computation(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_256QAM, 100, max_layers=4)
        assert matrix[20, 3] == transport_block_size(100, MCS_TABLE_256QAM[20], 4)
        assert matrix[0, 0] == transport_block_size(100, MCS_TABLE_256QAM[0], 1)

    def test_monotone_rows_and_columns(self):
        matrix = tbs_lookup_matrix(MCS_TABLE_64QAM, 150, max_layers=4)
        assert (matrix[1:] >= matrix[:-1]).all()
        assert (matrix[:, 1:] >= matrix[:, :-1]).all()


class TestMatrixCache:
    def setup_method(self):
        clear_tbs_matrix_cache()

    def teardown_method(self):
        clear_tbs_matrix_cache()

    def test_equal_tables_share_one_matrix(self):
        twin = McsTable("twin", list(MCS_TABLE_256QAM), MCS_TABLE_256QAM.max_modulation)
        first = cached_tbs_lookup_matrix(MCS_TABLE_256QAM, 100)
        assert cached_tbs_lookup_matrix(twin, 100) is first
        assert cached_tbs_lookup_matrix(MCS_TABLE_256QAM, 100) is first
        stats = tbs_matrix_cache_stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 2, 1)

    def test_hit_does_not_walk_the_table(self):
        table = McsTable("walked once", list(MCS_TABLE_64QAM),
                         MCS_TABLE_64QAM.max_modulation)
        first = cached_tbs_lookup_matrix(table, 100)
        table.entries = None  # any further walk would raise
        for _ in range(3):
            assert cached_tbs_lookup_matrix(table, 100) is first
        assert tbs_matrix_cache_stats()["hits"] == 3
