"""Self-time arithmetic, generator spans and unattributed time."""

import pytest

import tracing
from tracing import ATTRS, CHUNK, PASS, T0, T1, Recorder, layer_metrics, self_times


class Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = Clock()
    monkeypatch.setattr(tracing.time, "perf_counter", fake)
    return fake


def test_nested_self_times(clock):
    rec = Recorder()
    a = rec.enter("experiments")
    clock.now = 2.0
    b = rec.enter("ran.simulator")
    clock.now = 3.0
    c = rec.traced_call("channel", lambda: setattr(clock, "now", 4.0))
    clock.now = 5.0
    rec.exit(b)
    clock.now = 10.0
    rec.exit(a)
    assert c is None
    assert self_times(rec.spans) == [7.0, 2.0, 1.0]


def test_generator_span_counts_only_time_inside_next(clock):
    rec = Recorder()

    def engine():
        for _ in range(3):
            clock.now += 1.0  # work of the layer
            yield "trace"

    outer = rec.enter(PASS)
    gen = rec.traced_generator("ran.tensor", engine(), lambda: {"columns": 3})
    for _ in gen:
        clock.now += 10.0  # consumer work between items
    rec.exit(outer)
    tensor = [s for s in rec.spans if s[0] == "ran.tensor"]
    assert sum(s[T1] - s[T0] for s in tensor) == 3.0
    assert [s[5] for s in tensor] == [1, 0, 0, 0]  # one call, continuation segments
    assert tensor[-1][ATTRS] == {"columns": 3}
    # The span ends at exhaustion, not when the call returned.
    assert tensor[-1][T1] == rec.spans[outer][T1]
    metrics = layer_metrics(rec.spans, [], batches=1, workers=0)
    assert metrics["ran.tensor.busy_s"] == 3.0
    assert metrics["ran.tensor.columns"] == 3
    # The consumer's 30 s sit in no layer: they are the unattributed gap.
    assert metrics["trace.unattributed.parent_s"] == 30.0


def test_worker_spans_outside_the_pass_window_are_ignored():
    parent = [[PASS, 1, 10.0, 20.0, -1, 1, None],
              ["core.runner", 1, 10.0, 20.0, 0, 1, None]]
    worker = [[CHUNK, 7, 5.0, 8.0, -1, 1, None],       # warm-up, before the window
              [CHUNK, 7, 11.0, 19.0, -1, 1, None],
              ["ran.tensor", 7, 12.0, 18.0, 1, 1, {"columns": 4}]]
    metrics = layer_metrics(parent, [worker], batches=1, workers=2)
    assert metrics["ran.tensor.busy_s"] == 6.0
    assert metrics["ran.tensor.columns"] == 4
    assert metrics["trace.unattributed.worker_s"] == 2.0
    assert metrics["core.runner.worker_busy_fraction"] == pytest.approx(8.0 / 20.0)
    assert metrics["core.runner.wait_s"] == 10.0
    assert metrics["trace.unattributed.parent_s"] == 0.0


def test_layer_reentered_below_itself_is_busy_once():
    spans = [[PASS, 1, 0.0, 10.0, -1, 1, None],
             ["store.get", 1, 1.0, 5.0, 0, 1, None],
             ["store.get", 1, 2.0, 3.0, 1, 1, None]]
    metrics = layer_metrics(spans, [], batches=2, workers=0)
    assert metrics["store.get.calls"] == 1.0  # per batch
    assert metrics["store.get.busy_s"] == 2.0
