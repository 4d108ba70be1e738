"""End-to-end benchmark of the reproduction: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_quick --seed 1 --seconds 10 --trace 0

Phases: reference outputs (cached, computed in another process) ->
set-up (timed) -> measured batches until ``--seconds`` have passed, each
checked against the reference -> leak and state checks.  ``--trace 1``
then runs the same batches again with every layer wrapped (see
:mod:`tracing`) and reports per-layer metrics instead of end-to-end
ones.  The last stdout line is the JSON result; the line before it
describes the inputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, Batch, import_experiments

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"

#: Set-up is timed this many times in a run (this process plus fresh
#: interpreters) and reported as the median.
SETUP_SAMPLES = 3


def _log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------------- #
# Host state: memory, shared-memory segments, worker processes
# ---------------------------------------------------------------------- #
def _vm_hwm_kb(pid: int | str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


def forked_children() -> list[int]:
    """Pids of child processes forked from this one (pool workers):
    children running this process's own command line."""
    own = Path("/proc/self/cmdline").read_bytes()
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            text = (task / "children").read_text()
        except FileNotFoundError:
            continue
        for pid in text.split():
            try:
                if Path(f"/proc/{pid}/cmdline").read_bytes() == own:
                    pids.append(int(pid))
            except FileNotFoundError:
                continue
    return sorted(set(pids))


def peak_rss_mb(workers: list[int]) -> float:
    """Peak resident memory of this process plus its pool workers."""
    return (_vm_hwm_kb("self") + sum(_vm_hwm_kb(pid) for pid in workers)) / 1024.0


def shm_segments() -> list[str]:
    prefix = f"repro-{os.getpid()}-"
    try:
        return sorted(p.name for p in Path("/dev/shm").iterdir()
                      if p.name.startswith(prefix))
    except FileNotFoundError:
        return []


def close_workload(workload) -> tuple[float, bool]:
    """Close the workload's executor.  Returns the peak RSS read just
    before (outputs are verified by then) and whether every pool worker
    has exited."""
    workers = forked_children() if workload.executor is not None else []
    rss = peak_rss_mb(workers)
    workload.close()
    return rss, not any(Path(f"/proc/{pid}").exists() for pid in workers)


# ---------------------------------------------------------------------- #
# Phases
# ---------------------------------------------------------------------- #
def make_workload(name: str, seed: int, scratch: Path):
    return WORKLOADS[name](seed, scratch)


def setup_probe(name: str, seed: int, scratch: Path) -> float:
    """Time one set-up from a fresh interpreter (imports included)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         str(seed), "--setup-probe", str(scratch)],
        check=True, capture_output=True, text=True, timeout=150)
    return float(out.stdout.strip().splitlines()[-1])


def run_batches(workload, seconds: float, expected: list, rec=None):
    """Measured batches until ``seconds`` have passed (at least one).

    Returns ``(batches, attempted, failed)``.  A raise or a mismatch
    against the reference fails the batch's operations, and so does a
    shared-memory segment left behind.
    """
    batches = []
    attempted = failed = 0
    start = time.perf_counter()
    while not batches or time.perf_counter() - start < seconds:
        gc.collect()  # every batch starts from a collected heap
        began = time.perf_counter()
        try:
            batch = workload.batch(rec)
        except Exception as exc:  # every operation of the batch failed
            _log(f"batch raised {type(exc).__name__}: {exc}")
            batch = Batch({"wall": time.perf_counter() - began}, [])
        attempted += len(expected)
        wrong = oracle.mismatches(expected, batch.outputs)
        leaked = shm_segments()
        if leaked:
            _log(f"leaked shared-memory segments: {leaked}")
            wrong = len(expected)
        failed += wrong
        batches.append(batch)
        _log(f"batch {len(batches)}: " + " ".join(
            f"{k}={v:.3f}s" for k, v in batch.phases.items()) + f" wrong={wrong}")
        if not batch.outputs:
            break
    return batches, attempted, failed


def end_to_end(batches, setup_samples, rss_mb, n_sessions) -> dict:
    wall = statistics.median(b.phases["wall"] for b in batches)
    cold = statistics.median(b.phases.get("cold", b.phases["wall"]) for b in batches)
    warm = statistics.median(b.phases.get("warm", b.phases.get("cold", b.phases["wall"]))
                             for b in batches)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "sessions_per_s": (n_sessions / cold, "1/s"),
        # Without a store a repeated request recomputes, so the warm
        # rate is the cold rate.
        "warm_sessions_per_s": (n_sessions / warm, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def descriptor(workload, ref: dict) -> dict:
    import numpy
    from repro.ran import _native

    widths = {int(k): v for k, v in ref["widths"].items()}
    narrow = sum(w * n for w, n in widths.items() if w < 8)
    covered = sum(w * n for w, n in widths.items())
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "sessions": ref["sessions"],
        "mean_session_s": ref["sim_s"] / max(ref["sessions"], 1),
        "total_slots": ref["slots"],
        "cohort_widths": dict(sorted(widths.items())),
        "share_sessions_in_cohorts_below_8": narrow / covered if covered else 0.0,
        "native_kernel": _native.load_kernel() is not None,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def per_layer(parent_spans: list, worker_spans: list, batches: list, workers: int,
              pools: int, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric: span totals plus the counters the
    executor and the store keep themselves, per batch."""
    n = len(batches)
    metrics = tracing.layer_metrics(parent_spans, worker_spans, batches=n,
                                    workers=workers)

    def total(key: str) -> float:
        return sum(b.counters.get(key, 0) for b in batches)

    hits, misses = total("store_hits"), total("store_misses")
    metrics.update({
        "core.runner.tasks_routed": total("tasks_routed") / n,
        "core.runner.tasks_recomputed": total("tasks_recomputed") / n,
        "core.runner.pools_created": float(pools),
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.read_mb": total("store_read_bytes") / n / 1e6,
        "store.written_mb": total("store_written_bytes") / n / 1e6,
        "trace.overhead": statistics.median(b.phases["wall"] for b in batches)
        / untraced_wall,
    })
    return metrics


def traced_phase(args, scratch: Path, expected: list, untraced_wall: float):
    """Run the batches again with every layer wrapped; per-layer metrics."""
    dump_dir = scratch / "spans"
    dump_dir.mkdir(parents=True, exist_ok=True)
    rec = tracing.Recorder(dump_dir)
    workload = make_workload(args.workload, args.seed, scratch)
    if args.workload == "paper_quick":
        import_experiments()
    tracing.install(rec)
    workload.setup()  # forks the pool after install: workers are wrapped
    batches, attempted, failed = run_batches(workload, args.seconds, expected, rec)
    pools = workload.executor.stats()["pools_created"] if workload.executor else 0
    workers = workload.executor.workers if workload.executor else 0
    _, closed = close_workload(workload)  # workers exit and dump their spans
    if not closed:
        _log("executor workers still running after close")
        failed = attempted
    metrics = per_layer(rec.spans, tracing.load_worker_spans(dump_dir), batches,
                        workers, pools, untraced_wall)
    shutil.rmtree(dump_dir)
    return metrics, attempted, failed


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="SCRATCH", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Keep every file the program writes inside this checkout.
    os.environ["REPRO_NATIVE_CACHE"] = str(CACHE / "native")
    os.environ.pop("REPRO_ENGINE", None)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe is not None:
        start = time.perf_counter()
        workload = make_workload(args.workload, args.seed, Path(args.setup_probe))
        workload.setup()
        elapsed = time.perf_counter() - start
        workload.close()
        _stop_resource_tracker()
        print(repr(elapsed))
        return 0

    scratch = CACHE / "tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (CACHE / "tmp").rmdir()
        except OSError:
            pass


def _run(args, scratch: Path) -> int:
    workload = make_workload(args.workload, args.seed, scratch)
    ref = oracle.load(workload.oracle_kind, args.seed, CACHE)
    expected = workload.expected(ref)

    start = time.perf_counter()
    workload.setup()
    setup_samples = [time.perf_counter() - start]
    for _ in range(SETUP_SAMPLES - 1):
        probe_dir = scratch / f"probe{len(setup_samples)}"
        setup_samples.append(setup_probe(args.workload, args.seed, probe_dir))
        shutil.rmtree(probe_dir, ignore_errors=True)
    _log("setup " + " ".join(f"{s:.3f}s" for s in setup_samples))

    batches, attempted, failed = run_batches(workload, args.seconds, expected)
    rss, closed = close_workload(workload)
    if not closed:
        _log("executor workers still running after close")
        failed = attempted
    n_sessions = ref["sessions"]
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
               in end_to_end(batches, setup_samples, rss, n_sessions).items()}

    if args.trace:
        layer, t_attempted, t_failed = traced_phase(
            args, scratch, expected, metrics["wall_s"]["value"])
        attempted += t_attempted
        failed += t_failed
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}

    leftovers = [p.name for p in scratch.iterdir()]
    if leftovers or shm_segments():
        _log(f"left behind: {leftovers} {shm_segments()}")
        failed = attempted
    _stop_resource_tracker()

    print(json.dumps({"descriptor": descriptor(workload, ref)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the runner started, so no
    process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
