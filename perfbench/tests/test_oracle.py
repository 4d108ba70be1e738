"""A corrupted output must count as a failed operation."""

import numpy as np
import pytest

from oracle import mismatches, sketch_digest, strip_timing, trace_digest
from repro.xcal.records import TRACE_COLUMNS, SlotTrace


def _trace(n_slots: int = 64) -> SlotTrace:
    trace = SlotTrace.empty(n_slots)
    rng = np.random.default_rng(3)
    trace.slot[:] = np.arange(n_slots)
    trace.tbs_bits[:] = rng.integers(0, 10_000, n_slots)
    trace.sinr_db[:] = rng.normal(10.0, 3.0, n_slots)
    return trace


@pytest.mark.parametrize("column", TRACE_COLUMNS)
def test_one_byte_of_any_trace_column_is_caught(column):
    trace = _trace()
    expected = [trace_digest(trace), trace_digest(trace)]
    raw = getattr(trace, column).view(np.uint8)
    raw[5] ^= 0x01
    assert mismatches(expected, [expected[0], trace_digest(trace)]) == 1


def test_one_byte_of_a_row_is_caught():
    rows = "== fig01: DL ==\nV_Sp  paper 500.00  measured 480.00"
    corrupted = rows.replace("480.00", "480.01")
    assert mismatches([rows], [rows]) == 0
    assert mismatches([rows], [corrupted]) == 1


def test_timing_lines_are_ignored_and_nothing_else():
    rows = "== fig01 ==\nrow 1\n   [12.3 s]\nrow [2 s] stays"
    assert strip_timing(rows) == "== fig01 ==\nrow 1\nrow [2 s] stays"


def test_missing_or_raised_outputs_fail():
    assert mismatches(["a", "b", "c"], ["a", None, "c"]) == 1
    assert mismatches(["a", "b", "c"], ["a"]) == 2


def test_one_count_of_a_merged_sketch_is_caught():
    from repro.core.reduce import CampaignReduction
    from repro.core.runner import SessionTask

    reduction = CampaignReduction(group_mode="campaign")
    task = SessionTask(fn=print, kwargs={"direction": "DL"}, seed=1, label="X/DL/000")
    sketch = reduction.fold(task, _trace())
    before = sketch_digest(sketch)
    group = next(iter(sketch.groups.values()))
    group.quantiles.counts[int(np.argmax(group.quantiles.counts))] += 1
    assert sketch_digest(sketch) != before
