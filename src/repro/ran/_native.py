"""Native slot-engine kernels.

The slot loop's per-period work — link adaptation, a ~20-slot HARQ
walk, the OLLA update — is far too small for numpy: at those sizes the
per-ufunc dispatch cost dominates the arithmetic by two orders of
magnitude.  This module compiles ``_retx_kernel.c`` into a tiny shared
library with the system C compiler and loads it through :mod:`ctypes`.
The library has three entry points, bundled as a :class:`NativeKernel`:

- ``session_run`` — the whole period loop of one lone session (the
  ``"native"`` engine of :mod:`repro.ran.simulator`), driven through a
  :class:`SessionArgs` struct.  It evaluates decode-error
  probabilities itself and returns to Python only when a decision on
  one is too close to call, for numpy to fill that one period exactly.
- ``retx_period`` — the cohort tensor engine's retransmission walk over
  one CQI period's dirty columns, on decode-error rows numpy evaluated.
- ``ar1_add`` — one AR(1) fading component added in place into a SINR
  buffer (:meth:`repro.channel.fading.Ar1Fading.add_to`), on the power
  tables :func:`repro.channel.fading.ar1_power_tables` computed.

All three produce the same bytes as the numpy code they replace (see
the header comment of ``_retx_kernel.c``).

The kernel is optional for the package: no compiler, a failed build, a
failed load or ``REPRO_NATIVE=0`` leave :func:`load_kernel` returning
``None``, and :func:`repro.ran.config.resolve_engine` then runs every
session through the portable ``vectorized`` engine, and fading through
the numpy scan (same bytes).
:func:`kernel_status` exposes what happened so ``repro cache stats``
and the bench report can say why the native engines did not run.

The build is cached under ``$REPRO_NATIVE_CACHE`` (default
``$XDG_CACHE_HOME/repro-native``) keyed by a source digest, so each
machine compiles once; concurrent builders race benignly through an
atomic rename, and worker processes just ``dlopen`` the cached library.
"""
from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any, NamedTuple

#: Set to ``0``/``off``/``false`` to leave the kernel unloaded (every
#: session then runs through the portable per-session engine).
NATIVE_ENV = "REPRO_NATIVE"

#: Override the build cache directory (useful for hermetic CI runs).
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCE = Path(__file__).with_name("_retx_kernel.c")

_state: dict[str, Any] = {"loaded": False, "fn": None, "error": None}

_i64 = ctypes.c_int64
_f64 = ctypes.c_double
_ptr = ctypes.c_void_p


class NativeKernel(NamedTuple):
    """The library's three entry points (ctypes functions)."""

    #: ``repro_session_run(SessionArgs *) -> int64``.
    session_run: Any
    #: ``repro_retx_period(...)``, see :data:`_ARGTYPES`.
    retx_period: Any
    #: ``repro_ar1_add(n, a, b, sigma, w, chunk, full, tail, out)``.
    ar1_add: Any


class SessionArgs(ctypes.Structure):
    """``repro_session_t``: inputs, outputs and resumable state of one
    session run.  Field order and types mirror the C struct exactly;
    pointer fields hold ``ndarray.ctypes.data`` of arrays the caller
    keeps alive for the whole run."""

    _fields_ = [
        (name, kind)
        for names, kind in (
            ("n_slots period n_periods", _i64),
            ("usable special uniforms retx_uniforms measured "
             "cqi fb dci prb grant mcs_lut", _ptr),
            ("n_cqi n_off off_lo", _i64),
            ("mod_lut", _ptr),
            ("n_mcs", _i64),
            ("tb_full tb_special", _ptr),
            ("n_grants max_layers", _i64),
            ("rank_up rank_keep", _ptr),
            ("n_rank_steps rank_max", _i64),
            ("beta one_minus_beta", _f64),
            ("olla_enabled", _i64),
            ("olla_up olla_down olla_lo olla_hi", _f64),
            ("rtt max_attempts", _i64),
            ("retx_scale", _f64),
            ("eff_lut eff_cap", _ptr),
            ("bias slope guard_rel guard_abs", _f64),
            ("exact have q_due q_tbs q_att q_src q_p "
             "scheduled is_retx error n_prb n_re mcs_index "
             "modulation_order layers tbs_bits delivered_bits "
             "cqi_out dci_format", _ptr),
            ("next_period q_head q_tail rank", _i64),
            ("ewma delta", _f64),
            ("need_period need_key", _i64),
        )
        for name in names.split()
    ]

#: ``repro_retx_period`` signature — positional groups mirror the C
#: declaration: batched columns, lane state, per-call inputs, cohort
#: constants, outputs.
_ARGTYPES = [
    _i64, _ptr, _i64, _i64,                       # nb, bidx, start, stop
    _i64, _ptr, _ptr, _ptr, _ptr, _ptr, _i64,     # cap, due, tbs, att, ph, pn, far
    _ptr, _ptr, _ptr, _ptr,                       # failm, case, tbsf, tbss
    _i64, _ptr, _ptr, _ptr, _i64,                 # n_slots, retx2, decoded2, perr2, stride
    _ptr, _ptr, _ptr,                             # cum4, usable, special
    _i64, ctypes.c_double, _i64,                  # rtt, scale, max_attempts
    _ptr, _ptr,                                   # acks, nacks
    _ptr, _ptr, _ptr,                             # seg col/lo/hi
    _ptr, _ptr, _ptr, _ptr, _ptr,                 # ev col/slot/tbs/ok/retx
    _ptr,                                         # counts
]


def _disabled() -> bool:
    return os.environ.get(NATIVE_ENV, "").strip().lower() in (
        "0", "off", "false", "no")


def _cache_dir() -> Path:
    env = os.environ.get(NATIVE_CACHE_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def _compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


#: Compiler flags (part of the build cache key).  -ffp-contract=off:
#: the kernels transliterate Python float expressions op for op (the
#: rank EWMA, the OLLA update); a compiler allowed to fuse them into
#: FMAs — the default on aarch64, or on x86 under -march flags with FMA
#: — would round differently and drift from the Python engines.
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _build(source: Path, out: Path) -> None:
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set CC to override)")
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out.parent, suffix=".so")
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(source), "-lm"],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, out)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_kernel() -> NativeKernel | None:
    """The compiled kernels, or ``None`` when unavailable.

    First call compiles (or reuses the cached build) and memoizes the
    outcome — including failures, so a broken toolchain costs one
    attempt per process, not one per period.
    """
    if _state["loaded"]:
        return _state["fn"]
    _state["loaded"] = True
    if _disabled():
        _state["error"] = f"disabled via {NATIVE_ENV}"
        return None
    try:
        src = _SOURCE.read_bytes() + " ".join(_CFLAGS).encode()
        tag = hashlib.sha256(src).hexdigest()[:16]
        lib_path = _cache_dir() / f"retx-{tag}.so"
        if not lib_path.exists():
            _build(_SOURCE, lib_path)
        lib = ctypes.CDLL(str(lib_path))
        session_run = lib.repro_session_run
        session_run.restype = _i64
        session_run.argtypes = [ctypes.POINTER(SessionArgs)]
        retx_period = lib.repro_retx_period
        retx_period.restype = _i64
        retx_period.argtypes = _ARGTYPES
        ar1_add = lib.repro_ar1_add
        ar1_add.restype = None
        ar1_add.argtypes = [_i64, _f64, _f64, _f64, _ptr, _i64, _ptr, _ptr, _ptr]
        fn = NativeKernel(session_run=session_run, retx_period=retx_period,
                          ar1_add=ar1_add)
    except Exception as exc:  # noqa: BLE001 - any failure means fallback
        _state["error"] = f"{type(exc).__name__}: {exc}"
        return None
    _state["fn"] = fn
    return fn


def kernel_status() -> dict[str, Any]:
    """Build/load outcome for diagnostics (stats, bench report)."""
    return {
        "loaded": _state["loaded"],
        "available": _state["fn"] is not None,
        "error": _state["error"],
    }

