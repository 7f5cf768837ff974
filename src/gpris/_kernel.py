"""Compiled inner loops of both GPI stages, in one library built on first use.

A numpy loop spends most of its time in per-call overhead once the
blocks are small and the lanes exit at ragged times.  Three C files are
built into one shared library and called through ctypes, each running a
whole loop in one call, on the complex arrays as numpy holds them:

- ``_ris_loop.c``, the RIS stage (see ``ris_loop``): it advances the lanes
  a group of G = ``ris_group(P, L)`` at a time, each lane copied as it
  enters the group into a slot of a scratch layout with real and imaginary
  parts split and the (slot, RIS) axis innermost, so the inner loops run
  over the G*L independent blocks of the whole group; a lane that exits
  hands its slot to the next queued lane, once the queue is empty the
  group closes the gap, and lanes that share their blocks (a broadcast
  view, lane stride 0) load them once per slot; tau = 1/(LM) is derived
  from the sizes;
- ``_precoder_loop.c``, the precoder stage of one lane under isotropic
  errors (see ``precoder_loop``), read from its h-hat and xi: one Cholesky
  factor of the common denominator block per iteration and a
  Sherman-Morrison correction per user, on split re/im scratch as well;
- ``_round.c``, one whole alternation round of ``run_joint`` on its
  isotropic path (see ``Rounds``): the precoder stage, the RIS quadratics,
  both loops above (called from C), the projection and the objective of
  every active lane in one call, the first round included, whose
  mu-independent precoder stage runs once and whose quadratics, the same
  for every lane, are formed once per slot.  The RIS quadratics of a lane
  are formed as it enters the RIS loop's group, straight into its slot;
  the estimate they are formed from is split once per ``run_joint``, by
  ``Rounds``.

In all three, every inner loop runs over independent outputs (the rows of a
matvec, the blocks of a Cholesky step, the right-hand sides of a solve) and
each output keeps its accumulation order, so the loops vectorize without
reassociating a reduction.  Where a strip of 8 outputs can run together (the
RIS image's products, over rows padded to whole strips, and the round's),
each output's sum is held in a register and stored once.  The RIS loop's
strips read the padding, so its scratch is allocated zeroed: recycled bytes
there could hold subnormals, which would slow the strips.

The library is built on first use, never at import, with the first C
compiler found on PATH, tuned for the host CPU (``-march=native``).  It is
cached in the package's ``__pycache__`` (or, when that is read-only, in a
private directory under the system temp directory) under a name keyed by
the sources, the flags, the compiler and the host CPU, so a host-tuned
build is never loaded on another CPU; a new build removes the older ones
beside it.  Callers check ``available()`` and, when no compiler is found
(and for the precoder stage on dense errors), run each lane through the
numpy loop ``gpi_precoder.fixed_point``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import platform
import shutil
import stat
import subprocess
import tempfile
from pathlib import Path

import numpy as np

# the loop no longer uses numba; the flag stays because the perfbench report
# still reads it
HAVE_NUMBA = False

_COMPILERS = ("cc", "gcc", "clang")
_DIR = Path(__file__).parent
# every source of the library; pyproject.toml ships them as package data
_SOURCES = (_DIR / "_ris_loop.c", _DIR / "_precoder_loop.c", _DIR / "_round.c",
            _DIR / "_loops.h")
_LIBRARY = "_kernel"
# no FP contraction: the same rounding as the numpy reference on every CPU.
# gcc 12 honours it only with real and imaginary parts in separate arrays: on
# interleaved complex arithmetic it still emits vfmaddsub, so both loops
# work on split re/im copies (tests/test_package.py checks the library)
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

# the RIS loop's group: enough lanes that its inner loops run over 32
# (slot, RIS) columns, four 8-wide vectors, but at most 8 lanes, whose
# scratch is 8 lanes' (7.0 MB at K=4, L=2, M=64).  Per lane-iteration, 4
# lanes at L=8, M=8 ran as fast as 8 and faster than 16 or 30, and 8 lanes
# at L=2, M=64 faster than 4 or 16
_RIS_GROUP = 8
_RIS_COLUMNS = 32

_dbl = ctypes.c_double
_int = ctypes.c_int
_ptr = ctypes.c_void_p


@functools.cache
def find_compiler() -> str | None:
    """Path of the first C compiler on PATH, or None."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def available() -> bool:
    """True when the compiled loops can be built (a C compiler is present)."""
    return find_compiler() is not None


def _host_cpu() -> str:
    """Identify the CPU that -march=native tunes for."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            lines = {ln for ln in fh
                     if ln.startswith(("model name", "flags", "Features",
                                       "CPU implementer", "CPU part"))}
    except OSError:
        lines = set()
    return "|".join([platform.machine(), *sorted(lines)])


def _private_temp_dir() -> Path | None:
    """Per-user cache under the temp directory, refused if others can write it."""
    path = Path(tempfile.gettempdir()) / f"gpris-{os.getuid()}"
    try:
        path.mkdir(mode=0o700, exist_ok=True)
        st = path.lstat()
    except OSError:
        return None
    if (not stat.S_ISDIR(st.st_mode) or st.st_uid != os.getuid()
            or st.st_mode & 0o022):
        return None
    return path


def _cache_dir() -> Path:
    """The package's ``__pycache__`` if writable, else the private temp cache."""
    pycache = _DIR / "__pycache__"
    try:
        pycache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(pycache, os.W_OK):
        return pycache
    temp = _private_temp_dir()
    if temp is None:
        raise OSError("no writable cache directory for the compiled loops")
    return temp


def _build(compiler: str) -> Path:
    """Compile the loops into the cache (atomically) unless already there."""
    key = hashlib.sha256(b"\0".join([
        *(src.read_bytes() for src in _SOURCES), " ".join(_FLAGS).encode(),
        compiler.encode(), _host_cpu().encode()])).hexdigest()[:16]
    name = f"{_LIBRARY}-{key}.so"
    cache = _cache_dir()
    target = cache / name
    if target.exists():
        return target
    tmp = cache / f"{name}.{os.getpid()}.tmp"
    proc = subprocess.run(
        [compiler, *_FLAGS, "-o", str(tmp),
         *(str(src) for src in _SOURCES if src.suffix == ".c"), "-lm"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        tmp.unlink(missing_ok=True)
        raise RuntimeError(f"building {name} with {compiler} "
                           f"failed:\n{proc.stderr}")
    os.replace(tmp, target)
    for stale in cache.glob(f"{_LIBRARY}-*.so"):  # this library's older builds
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


@functools.cache
def _library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("compiled loops unavailable: no C compiler "
                           f"({', '.join(_COMPILERS)}) found on PATH")
    lib = ctypes.CDLL(str(_build(compiler)))
    lib.gpris_ris_loop_work.argtypes = [_int] * 4
    lib.gpris_ris_loop_work.restype = ctypes.c_long
    lib.gpris_ris_loop.argtypes = ([_int] * 5 + [_ptr] * 2 + [_int]
                                   + [_ptr] * 2 + [_dbl] * 2 + [_ptr]
                                   + [_dbl] * 2 + [_ptr, _dbl, _int]
                                   + [_ptr] * 4)
    lib.gpris_ris_loop.restype = _int
    lib.gpris_precoder_loop_work.argtypes = [_int, _int]
    lib.gpris_precoder_loop_work.restype = ctypes.c_long
    lib.gpris_precoder_loop.argtypes = ([_int] * 2 + [_ptr] * 2
                                        + [_dbl, _ptr, _dbl, _int] + [_ptr] * 3)
    lib.gpris_precoder_loop.restype = _int
    lib.gpris_round_work.argtypes = [_int] * 6
    lib.gpris_round_work.restype = ctypes.c_long
    lib.gpris_round.argtypes = ([_int] * 5 + [_ptr] * 3 + [_dbl] * 4 + [_ptr]
                                + [_dbl, _int] * 2 + [_ptr] * 9
                                + [_int, _ptr, _int])
    lib.gpris_round.restype = _int
    return lib


def ris_group(p: int, l: int) -> int:
    """Slots of the RIS loop's group for a call of ``p`` lanes of ``l``
    blocks each (1 for a single lane)."""
    return max(1, min(p, _RIS_GROUP, _RIS_COLUMNS // l))


def ris_loop(c_blocks, u_vecs, w, mu, noise_over_p, inv_rs_ln2, alpha1,
             alpha2, tol, max_iters):
    """Run the RIS fixed-point loop of every lane in one compiled call.

    ``c_blocks`` (..., K, L, M, M) and ``u_vecs`` (..., K, L, M) are the
    quadratics of the P lanes as ``RisQuadratics`` holds them, possibly as
    broadcast views that share one set across the lanes (both with lane
    stride 0: passed without a copy and loaded once per slot); ``mu`` holds
    one weight per lane, normalized by tau = 1/(LM), which the loop derives
    from the sizes; ``w`` holds the (P, LM) unit-norm iterates,
    C-contiguous complex128, and is updated in place.  The kernel runs the
    lanes ``ris_group(P, L)`` at a time, copying each into a slot of its
    layout as it enters the group; every lane's result is bit for bit that
    of a call with that lane alone.  Returns the per-lane iteration counts and
    final steps ||w_t - w_{t-1}||, and the wall time of the compiled call.
    A negative count flags a non-positive-definite denominator block in that
    lane alone, whose iterate is then left at the previous one.
    """
    lib = _library()
    p, lm = w.shape
    k, l, m = c_blocks.shape[-4:-1]
    lanes = c_blocks.shape[:-4]
    if (math.prod(lanes) != p or c_blocks.shape[-1] != m or lm != l * m
            or u_vecs.shape != lanes + (k, l, m)
            or w.dtype != np.complex128 or not w.flags.c_contiguous):
        raise ValueError("c_blocks, u_vecs and w disagree on shape or layout")
    c = np.asarray(c_blocks, dtype=np.complex128).reshape((p, k, l, m, m))
    u = np.asarray(u_vecs, dtype=np.complex128).reshape((p, k, l, m))
    shared = all(x.strides[0] == 0 and x[0].flags.c_contiguous for x in (c, u))
    if not shared:
        c, u = np.ascontiguousarray(c), np.ascontiguousarray(u)
    mu = np.ascontiguousarray(np.broadcast_to(mu, (p,)), dtype=np.float64)
    iters = np.zeros(p, dtype=np.intc)
    step = np.zeros(p)
    seconds = ctypes.c_double()
    g = ris_group(p, l)
    # zeroed, as the module docstring says
    work = np.zeros(lib.gpris_ris_loop_work(g, k, m, l))
    lib.gpris_ris_loop(p, g, k, m, l, c.ctypes.data, u.ctypes.data,
                       int(shared), None, None, float(noise_over_p),
                       float(inv_rs_ln2), mu.ctypes.data,
                       float(alpha1), float(alpha2),
                       w.ctypes.data, float(tol), int(max_iters),
                       iters.ctypes.data, step.ctypes.data,
                       ctypes.byref(seconds), work.ctypes.data)
    return iters, step, seconds.value


def precoder_loop(h_hat, xi, f, noise_over_p, tol, max_iters):
    """Run the precoder fixed-point loop of one lane in one compiled call.

    ``h_hat`` (K, N) and the real ``xi`` (K,) are the lane's isotropic
    quadratics, G_k = h_k h_k^H + xi_k I, as ``PrecoderQuadratics`` holds
    them; ``f`` holds the (KN,) unit-norm column-stacked iterate,
    C-contiguous complex128, and is updated in place.  Returns the
    iteration count, the failed block and the final step, the smaller of
    ||f_t - f_{t-1}|| and ||f_t + f_{t-1}|| (0.0 when no step ran).
    A negative count flags a failure, which leaves the iterate at the
    previous one; the block then names the Bbar block that is not positive
    definite, or is -1 when a quadratic form is not positive.
    """
    lib = _library()
    h = np.ascontiguousarray(h_hat, dtype=np.complex128)
    if (h.ndim != 2 or np.shape(xi) != h.shape[:1] or np.iscomplexobj(xi)
            or f.shape != (h.size,) or f.dtype != np.complex128
            or not f.flags.c_contiguous):
        raise ValueError("h_hat, xi and f disagree on shape or layout")
    k, n = h.shape
    xi = np.ascontiguousarray(xi, dtype=np.float64)
    block, step = ctypes.c_int(), ctypes.c_double()
    work = np.empty(lib.gpris_precoder_loop_work(k, n))
    iters = lib.gpris_precoder_loop(k, n, h.ctypes.data, xi.ctypes.data,
                                    float(noise_over_p), f.ctypes.data,
                                    float(tol), int(max_iters),
                                    ctypes.byref(block), ctypes.byref(step),
                                    work.ctypes.data)
    return iters, block.value, step.value


class Rounds:
    """The alternation rounds of one ``run_joint`` on its isotropic path, one
    compiled call each (see ``_round.c``).

    ``stack`` (KN, LM) and ``conj_rows`` (KLM, N) are the estimate's two
    copies (``ChannelEstimate.stacked`` and ``.conj_rows``), which the
    constructor splits into the layouts ``_round.c`` reads, once for every
    round; ``err_scale`` holds its (K, L) error scales and ``mu`` the P
    lanes' weights.  ``f`` (P, KN) and ``w`` (P, LM) are the lanes'
    precoders and RIS vectors, C-contiguous complex128, which each round
    updates in place for the lanes it runs; the round also leaves its
    objective in ``obj`` and 0 or a failure code in ``status`` (see
    ``_round.c``; ``block`` names a precoder failure's block), each indexed
    by lane.  The objective's h-hat and xi, which the next round's precoder
    stage starts from, stay in ``h`` and ``xi``; for the first round the
    caller writes those of the initial phases into lane ``sel[0]``'s.
    ``seconds`` adds up the precoder, RIS and objective stage times of every
    round.  Each lane's results are bit for bit those of a call with that
    lane alone.
    """

    def __init__(self, stack, conj_rows, err_scale, f, w, mu, noise_over_p,
                 inv_rs_ln2, alpha1, alpha2, precoder, ris):
        lib = _library()
        p, lm = w.shape
        kn, n = f.shape[1], conj_rows.shape[1]
        k, l = err_scale.shape
        m = lm // l
        for x in (f, w):
            if x.dtype != np.complex128 or not x.flags.c_contiguous:
                raise ValueError("f and w must be C-contiguous complex128")
        if (stack.shape != (kn, lm) or conj_rows.shape != (k * lm, n)
                or kn != k * n or f.shape[0] != p or len(mu) != p):
            raise ValueError("the estimate, f, w and mu disagree on shape")
        g = ris_group(p, l)
        self.obj = np.zeros(p)
        self.status, self.block = (np.zeros(p, dtype=np.intc) for _ in range(2))
        self.seconds = np.zeros(3)
        self.h, self.xi = np.zeros((p, k, n), dtype=complex), np.zeros((p, k))
        # conj_rows' rows (k, l, m) as (k, m, l), the order _round.c reads;
        # the scratch, last, is zeroed (see the module docstring)
        rows_kml = conj_rows.reshape(k, l, m, n).transpose(0, 2, 1, 3)
        arrays = (_split_columns(stack),
                  _split_columns(rows_kml.reshape(k * lm, n)),
                  np.ascontiguousarray(err_scale, dtype=np.float64),
                  np.ascontiguousarray(mu, dtype=np.float64), f, w, self.h,
                  self.xi, self.obj, self.status, self.block, self.seconds,
                  np.zeros(lib.gpris_round_work(p, g, k, n, l, m)))
        self._keep = arrays
        ptr = [x.ctypes.data for x in arrays]
        self._call = functools.partial(
            lib.gpris_round, g, k, n, l, m, *ptr[:3], float(noise_over_p),
            float(inv_rs_ln2), float(alpha1), float(alpha2), ptr[3],
            float(precoder.tol), int(precoder.max_iters), float(ris.tol),
            int(ris.max_iters), *ptr[4:])

    def __call__(self, sel, first=False):
        """Run one round of the lanes ``sel``; in the ``first`` round the
        mu-independent precoder stage runs once, for ``sel[0]``, and every
        lane of ``sel`` takes its result (``f`` then holds the same
        precoder in every lane of ``sel``).  Returns the number of lanes
        that failed."""
        sel = np.ascontiguousarray(sel, dtype=np.intc)
        return self._call(len(sel), sel.ctypes.data, int(first))


def _split_columns(x):
    """The complex matrix ``x`` by columns, real and imaginary parts split:
    the (2, cols, rows) float64 array that ``_round.c`` reads, starting on
    a 64-byte boundary as its scratch does (so its 8-double loads along
    the columns do not straddle cache lines when the rows fill them)."""
    size = 2 * x.size
    buf = np.empty(size + 8)
    start = -buf.ctypes.data % 64 // 8
    out = buf[start:start + size].reshape((2,) + x.T.shape)
    out[0], out[1] = x.real.T, x.imag.T
    return out


def warm_up():
    """Build and load the compiled loops so timings exclude it."""
    if available():
        _library()
