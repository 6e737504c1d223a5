"""Optional compiled backend for the switch inner loop.

The vectorized NumPy batch body in :mod:`repro.core.switch_program`
eliminates the per-frame Python loop for *clean* batches, but the
classification step (first-time vs duplicate vs shadow read) is
inherently sequential: whether packet ``i`` is a duplicate depends on
the ``seen`` bits left by packets ``< i``.  The NumPy path sidesteps
this by falling back to per-packet handling for messy groups; the
compiled backend instead runs the exact sequential classification in C
over the raw register buffers -- ``seen`` / ``count`` as ``uint8``
arrays, the popcount as ``int64`` -- and returns per-packet verdicts
that the Python side turns into payload updates and responses.

Selection is environment-driven and fail-soft:

* ``REPRO_BACKEND=c`` -- compile (once, cached) and use the C kernel;
  if no C compiler is available the pure-NumPy path is used and the
  reason is recorded in :func:`unavailable_reason`.
* ``REPRO_BACKEND=numpy`` / unset -- pure NumPy (the default).

No third-party packages are involved: the kernel is a single C file
compiled with the system ``cc`` via ``subprocess`` and loaded with
``ctypes``.  The build artifact lives under ``_cbuild/`` next to this
module (or ``$REPRO_BACKEND_CACHE``) and is rebuilt whenever the
embedded source changes (content-hashed filename).

The equivalence test (``tests/core/test_backend_equivalence.py``) gates
the kernel: it must match the per-packet reference bit-for-bit on
adversarial batches, and skips cleanly when no compiler exists.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import numpy as np

__all__ = [
    "CompiledLinkKernel",
    "CompiledSwitchKernel",
    "backend_name",
    "load_link_kernel",
    "load_switch_kernel",
    "unavailable_reason",
]

#: classification verdicts returned per packet by the kernel
CLS_ABSORBED = 0
CLS_COMPLETES = 1
CLS_SHADOW = 2
CLS_DUPLICATE = 3

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* Algorithm 3 lines 4-23, classification + narrow-register updates only.
 *
 * Sequential over the batch (classification is order-dependent); value
 * aggregation stays on the Python side, driven by cls[] / resets[].
 *
 *   cls[i]:    0 absorbed, 1 absorbed + completes aggregation,
 *              2 shadow read (unicast), 3 duplicate (drop)
 *   resets[i]: 1 iff packet i opens a new phase for its slot
 *              (first contribution overwrites the pool slot)
 *   counters:  [0] seen-register accesses, [1] count-register accesses
 */
void switchml_absorb(
    int64_t m, int64_t s, int64_t n,
    const int64_t *vs, const int64_t *wid,
    uint8_t *seen, uint8_t *count, int64_t *pop,
    int8_t *cls, int8_t *resets, int64_t *counters)
{
    int64_t seen_acc = 0, count_acc = 0;
    for (int64_t i = 0; i < m; i++) {
        int64_t v = vs[i];
        int64_t o = (v < s) ? v + s : v - s;
        int64_t w = wid[i];
        int8_t r = 0;
        if (seen[v * n + w] == 0) {
            int64_t cb = count[v];
            seen[v * n + w] = 1;
            pop[v] += 1;
            int64_t ob = o * n + w;
            if (seen[ob]) {
                seen[ob] = 0;
                pop[o] -= 1;
                seen_acc += 4;
            } else {
                seen_acc += 3;
            }
            int64_t c = cb + 1;
            if (c == n)
                c = 0;
            count[v] = (uint8_t)(c & 255);
            count_acc += 2;
            if (cb == 0)
                r = 1;
            cls[i] = (c == 0) ? 1 : 0;
        } else {
            seen_acc += 1;
            count_acc += 1;
            cls[i] = (count[v] == 0) ? 2 : 3;
        }
        resets[i] = r;
    }
    counters[0] = seen_acc;
    counters[1] = count_acc;
}

/* Frame-train send bodies, clean-link fast path: the busy-chain scan
 * plus Bernoulli loss draws of Link.send_bodies for links with no
 * queue cap, no corruption, no jitter, and no observer/telemetry tap.
 *
 * The float arithmetic is the Python loop's, operation for operation
 * (Python floats are IEEE doubles; the build disables FP contraction),
 * so busy_until / busy_time / arrival come out bit-identical -- the
 * sequential max-then-add busy chain is exactly why this can't be a
 * NumPy vectorization.
 *
 * Draws consume the caller's block buffer u[0..u_len); when a draw is
 * needed but the block is spent, the function returns the index of the
 * first unprocessed frame so the caller can refill the block (with the
 * same generator call the per-frame path would make) and re-enter.
 * Returns n when every frame was processed.
 *
 *   ok[i]:      1 delivered, 0 lost (arrival[i] only valid when 1)
 *   fstate:     [0] busy_until, [1] stats.busy_time   (in/out)
 *   istate:     [0] block cursor u_i                  (in/out)
 */
int64_t link_train_bodies(
    int64_t n, int64_t start,
    const double *t, const int64_t *wb,
    double rate, double prop, double loss_p,
    const double *u, int64_t u_len,
    double *arrival, int8_t *ok,
    double *fstate, int64_t *istate)
{
    double busy = fstate[0];
    double busy_time = fstate[1];
    int64_t u_i = istate[0];
    int64_t i = start;
    for (; i < n; i++) {
        if (loss_p != 0.0 && u_i >= u_len)
            break;
        double ti = t[i];
        double ser = (double)wb[i] * 8.0 / rate;
        double done = (busy > ti ? busy : ti) + ser;
        busy = done;
        busy_time = busy_time + ser;
        if (loss_p != 0.0 && u[u_i++] < loss_p) {
            ok[i] = 0;
            arrival[i] = 0.0;
            continue;
        }
        ok[i] = 1;
        arrival[i] = done + prop;
    }
    fstate[0] = busy;
    fstate[1] = busy_time;
    istate[0] = u_i;
    return i;
}
"""

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_I8P = np.ctypeslib.ndpointer(dtype=np.int8, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")


class CompiledSwitchKernel:
    """ctypes wrapper around the compiled ``switchml_absorb`` symbol."""

    def __init__(self, lib: ctypes.CDLL, path: Path):
        self.path = path
        fn = lib.switchml_absorb
        fn.restype = None
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
            _I64P, _I64P, _U8P, _U8P, _I64P, _I8P, _I8P, _I64P,
        ]
        self._fn = fn

    def absorb(
        self,
        s: int,
        n: int,
        vs: np.ndarray,
        wid: np.ndarray,
        seen: np.ndarray,
        count: np.ndarray,
        pop: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Classify one batch, updating ``seen``/``count``/``pop`` in
        place.  Returns ``(cls, resets, seen_accesses, count_accesses)``.
        """
        m = vs.shape[0]
        cls = np.empty(m, dtype=np.int8)
        resets = np.empty(m, dtype=np.int8)
        counters = np.zeros(2, dtype=np.int64)
        self._fn(m, s, n, vs, wid, seen, count, pop, cls, resets, counters)
        return cls, resets, int(counters[0]), int(counters[1])


class CompiledLinkKernel:
    """ctypes wrapper around the compiled ``link_train_bodies`` symbol."""

    def __init__(self, lib: ctypes.CDLL, path: Path):
        self.path = path
        fn = lib.link_train_bodies
        fn.restype = ctypes.c_int64
        fn.argtypes = [
            ctypes.c_int64, ctypes.c_int64,
            _F64P, _I64P,
            ctypes.c_double, ctypes.c_double, ctypes.c_double,
            _F64P, ctypes.c_int64,
            _F64P, _I8P, _F64P, _I64P,
        ]
        self.train_bodies = fn


_cached_kernel: CompiledSwitchKernel | None = None
_cache_state: str | None = None  # None = not attempted yet
_unavailable_reason: str | None = None

_cached_link_kernel: CompiledLinkKernel | None = None
_link_cache_state: str | None = None


def _build_dir() -> Path:
    override = os.environ.get("REPRO_BACKEND_CACHE")
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "_cbuild"


def _find_compiler() -> str | None:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    return None


def _compile_lib() -> tuple[ctypes.CDLL, Path]:
    digest = hashlib.sha256(_KERNEL_SOURCE.encode()).hexdigest()[:16]
    build = _build_dir()
    so_path = build / f"switchml_kernel_{digest}.so"
    if not so_path.exists():
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        build.mkdir(parents=True, exist_ok=True)
        c_path = build / f"switchml_kernel_{digest}.c"
        c_path.write_text(_KERNEL_SOURCE)
        tmp_path = build / f".switchml_kernel_{digest}.{os.getpid()}.so"
        # -ffp-contract=off: the link kernel's doubles must match the
        # Python interpreter's operation-for-operation; a fused
        # multiply-add would round differently
        cmd = [
            compiler, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
            "-o", str(tmp_path), str(c_path),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(
                f"kernel compilation failed ({' '.join(cmd)}): {proc.stderr.strip()}"
            )
        os.replace(tmp_path, so_path)  # atomic vs concurrent builders
    return ctypes.CDLL(str(so_path)), so_path


def _compile_kernel() -> CompiledSwitchKernel:
    lib, so_path = _compile_lib()
    return CompiledSwitchKernel(lib, so_path)


def load_switch_kernel(name: str | None = None) -> CompiledSwitchKernel | None:
    """Resolve the backend selection to a kernel (or ``None``).

    ``name=None`` reads ``$REPRO_BACKEND``.  Only ``"c"`` selects the
    compiled kernel; anything else (or a failed build) yields ``None``,
    i.e. the pure-NumPy path.  The compiled kernel is built at most once
    per process; failures are remembered and reported via
    :func:`unavailable_reason` instead of retrying per batch.
    """
    global _cached_kernel, _cache_state, _unavailable_reason
    if name is None:
        name = os.environ.get("REPRO_BACKEND", "numpy")
    name = name.strip().lower()
    if name in ("", "numpy", "python", "default"):
        return None
    if name != "c":
        raise ValueError(f"unknown REPRO_BACKEND {name!r} (expected 'c' or 'numpy')")
    if _cache_state is None:
        try:
            _cached_kernel = _compile_kernel()
            _cache_state = "ok"
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            _cached_kernel = None
            _cache_state = "failed"
            _unavailable_reason = str(exc)
    return _cached_kernel


def load_link_kernel() -> CompiledLinkKernel | None:
    """The frame-train send-body kernel, or ``None``.

    Unlike the switch kernel this is not opt-in: its output is
    bit-identical to the Python loop by construction (pinned by
    ``tests/net/test_link_kernel.py``), so it is built on
    first use whenever a C compiler is available and silently skipped
    otherwise.
    """
    global _cached_link_kernel, _link_cache_state
    if _link_cache_state is None:
        try:
            lib, so_path = _compile_lib()
            _cached_link_kernel = CompiledLinkKernel(lib, so_path)
            _link_cache_state = "ok"
        except (RuntimeError, OSError, subprocess.SubprocessError, AttributeError):
            _cached_link_kernel = None
            _link_cache_state = "failed"
    return _cached_link_kernel


def backend_name(kernel: CompiledSwitchKernel | None) -> str:
    """Canonical label for bench/docs output."""
    return "c" if kernel is not None else "numpy"


def unavailable_reason() -> str | None:
    """Why ``REPRO_BACKEND=c`` fell back to NumPy (``None`` if it
    didn't, or was never requested)."""
    return _unavailable_reason
