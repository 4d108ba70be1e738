"""Reference outputs for the benchmark, computed with the reference engine.

Run as a script, in a separate process so the measuring process never
sees the oracle's caches::

    REPRO_ENGINE=reference python3 perfbench/oracle.py paper 7 out.json

The oracle of a seed depends only on the program source, this
benchmark's workload definitions and the seed, so :func:`load` keeps it
in a cache file keyed by all three and reuses it across runs.

Outputs are compared as digests: a campaign session by the bytes of its
trace columns, a reduced campaign by its merged sketch arrays, an
experiment by its rendered rows without timing lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Experiments submitted first so the two oracle workers finish together.
_HEAVY_FIRST = ("fig19", "fig07", "fig24", "table1", "ext_predict", "fig15",
                "ext_aware", "fig17", "fig18")

_TIMING_LINE = re.compile(r"^\s*\[\d+(\.\d+)? s\]\s*$")


def strip_timing(text: str) -> str:
    """Rendered experiment rows without ``[x s]`` timing lines."""
    return "\n".join(line for line in text.splitlines()
                     if not _TIMING_LINE.match(line))


def trace_digest(trace) -> str:
    """sha256 over every trace column's name, dtype and bytes."""
    import numpy as np
    from repro.xcal.records import TRACE_COLUMNS

    h = hashlib.sha256()
    for name in TRACE_COLUMNS:
        column = np.ascontiguousarray(getattr(trace, name))
        h.update(f"{name}:{column.dtype.str}:{column.size};".encode())
        h.update(column.data)
    return h.hexdigest()


def sketch_digest(sketch) -> str:
    """sha256 over a merged campaign sketch's arrays and exact scalars."""
    arrays, meta = sketch.to_arrays()
    h = hashlib.sha256()
    for name in sorted(arrays):
        array = arrays[name]
        h.update(f"{name}:{array.dtype.str}:{array.size};".encode())
        h.update(array.tobytes())
    h.update(json.dumps(meta, sort_keys=True,
                        default=lambda o: o.tolist() if hasattr(o, "tolist")
                        else repr(o)).encode())
    return h.hexdigest()


def mismatches(expected: list, actual: list) -> int:
    """Operations whose output differs from the reference (a missing
    output counts as a mismatch)."""
    wrong = sum(1 for e, a in zip(expected, actual) if e != a)
    return wrong + abs(len(expected) - len(actual))


def source_fingerprint() -> str:
    """Hash of the program source and of the files defining the inputs."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "src").rglob("*.c"))
    files += [HERE / "workloads.py", HERE / "oracle.py", HERE / "tracing.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def load(kind: str, seed: int, cache_dir: Path, timeout_s: float = 150.0) -> dict:
    """The cached oracle of ``(kind, seed)``, computed if missing."""
    path = cache_dir / f"oracle-{kind}-{seed}-{source_fingerprint()}.json"
    if not path.exists():
        env = dict(os.environ, REPRO_ENGINE="reference")
        subprocess.run([sys.executable, str(HERE / "oracle.py"), kind, str(seed),
                        str(path)], env=env, check=True, timeout=timeout_s,
                       stdout=subprocess.DEVNULL)
    return json.loads(path.read_text())


# ---------------------------------------------------------------------- #
# Computation (oracle process only)
# ---------------------------------------------------------------------- #
_RECORDER = None
_MANIFEST: list = []


def _paper_one(eid_seed: tuple[str, int]) -> tuple[str, str, dict]:
    from repro.experiments import run_experiment
    from tracing import session_census

    eid, seed = eid_seed
    _RECORDER.spans.clear()
    rows = strip_timing(run_experiment(eid, seed=seed, quick=True).render())
    return eid, rows, session_census(_RECORDER.spans)


def _session_one(index: int):
    from repro.xcal.dataset import campaign_reduction

    task = _MANIFEST[index]
    trace = task.execute()
    return (trace_digest(trace), len(trace), trace.duration_s,
            campaign_reduction().fold(task, trace))


def compute(kind: str, seed: int) -> dict:
    """Reference outputs and input census; two worker processes."""
    global _RECORDER, _MANIFEST
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import workloads

    context = multiprocessing.get_context("fork")
    if kind == "paper":
        import tracing
        from repro.experiments import EXPERIMENT_IDS

        workloads.import_experiments()
        _RECORDER = tracing.Recorder()
        tracing.install(_RECORDER)
        order = [e for e in _HEAVY_FIRST if e in EXPERIMENT_IDS]
        order += [e for e in EXPERIMENT_IDS if e not in order]
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            done = {eid: (rows, census) for eid, rows, census
                    in pool.map(_paper_one, [(e, seed) for e in order])}
        widths: dict[str, int] = {}
        for _, census in done.values():
            for width, n in census["widths"].items():
                widths[str(width)] = widths.get(str(width), 0) + n
        return {
            "outputs": [done[eid][0] for eid in EXPERIMENT_IDS],
            "sessions": sum(c["sessions"] for _, c in done.values()),
            "slots": sum(c["slots"] for _, c in done.values()),
            "sim_s": sum(c["sim_s"] for _, c in done.values()),
            "widths": widths,
        }
    if kind == "campaign":
        from repro.core.runner import group_tasks_by_shape
        from repro.xcal.dataset import campaign_reduction

        _MANIFEST = workloads.campaign_manifest(seed)
        with ProcessPoolExecutor(2, mp_context=context) as pool:
            outs = list(pool.map(_session_one, range(len(_MANIFEST)), chunksize=8))
        reduction = campaign_reduction()
        acc = None
        for *_, sketch in outs:
            acc = sketch if acc is None else reduction.merge(acc, sketch)
        widths = {}
        for group in group_tasks_by_shape(_MANIFEST):
            widths[str(len(group))] = widths.get(str(len(group)), 0) + 1
        return {
            "outputs": [out[0] for out in outs],
            "sketch": sketch_digest(acc),
            "sessions": len(outs),
            "slots": sum(out[1] for out in outs),
            "sim_s": sum(out[2] for out in outs),
            "widths": widths,
        }
    raise ValueError(f"unknown oracle kind {kind!r}")


def main(argv: list[str]) -> int:
    kind, seed, out = argv[0], int(argv[1]), Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    if os.environ.get("REPRO_ENGINE") != "reference":
        print("oracle: REPRO_ENGINE must be 'reference'", file=sys.stderr)
        return 2
    result = compute(kind, seed)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
