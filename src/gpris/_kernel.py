"""Compiled inner loop for the RIS-stage fixed-point iteration.

The plain numpy loop spends most of its time in per-call overhead once the
per-RIS blocks are small, which hides the L * (M_tot/L)^3 scaling of the
block solves.  ``_ris_loop.c`` runs the whole loop of every lane (one per
penalty weight mu) in one compiled call, batches the L independent blocks
along the innermost axis (struct-of-arrays, real and imaginary parts
split), and keeps every inner loop free of cross-block reductions so it
vectorizes without reassociation.

The C file is built on first use, never at import, with the first C compiler
found on PATH, tuned for the host CPU (``-march=native``).  The library is
cached in the package's ``__pycache__`` (or, when that is read-only, in a
private directory under the system temp directory) under a name keyed by the
source, the flags, the compiler and the host CPU, so a host-tuned build is
never loaded on another CPU; a new build removes the older ones beside it.
Callers check ``available()`` and fall back to the numpy loop in ``gpi_ris``
when no compiler is found.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
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
_SOURCE = Path(__file__).with_name("_ris_loop.c")
# no FP contraction: the same rounding as the numpy reference on every CPU
_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

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
    """True when the compiled loop can be built (a C compiler is present)."""
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


def _cache_dirs():
    pycache = _SOURCE.parent / "__pycache__"
    try:
        pycache.mkdir(exist_ok=True)
    except OSError:
        pass
    if os.access(pycache, os.W_OK):
        yield pycache
    temp = _private_temp_dir()
    if temp is not None:
        yield temp


def _build(compiler: str) -> Path:
    """Compile the loop into the cache (atomically) unless already there."""
    key = hashlib.sha256(b"\0".join([
        _SOURCE.read_bytes(), " ".join(_FLAGS).encode(), compiler.encode(),
        _host_cpu().encode()])).hexdigest()[:16]
    name = f"_ris_loop-{key}.so"
    for cache in _cache_dirs():
        target = cache / name
        if target.exists():
            return target
        tmp = cache / f"{name}.{os.getpid()}.tmp"
        proc = subprocess.run(
            [compiler, *_FLAGS, "-o", str(tmp), str(_SOURCE), "-lm"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            tmp.unlink(missing_ok=True)
            raise RuntimeError(f"building {_SOURCE.name} with {compiler} "
                               f"failed:\n{proc.stderr}")
        os.replace(tmp, target)
        for stale in cache.glob("_ris_loop-*.so"):
            if stale != target:
                stale.unlink(missing_ok=True)
        return target
    raise OSError("no writable cache directory for the compiled RIS loop")


@functools.cache
def _library() -> ctypes.CDLL:
    compiler = find_compiler()
    if compiler is None:
        raise RuntimeError("compiled RIS loop unavailable: no C compiler "
                           f"({', '.join(_COMPILERS)}) found on PATH")
    lib = ctypes.CDLL(str(_build(compiler)))
    lib.gpris_ris_loop_work.argtypes = [_int, _int, _int]
    lib.gpris_ris_loop_work.restype = ctypes.c_long
    lib.gpris_ris_loop.argtypes = ([_int] * 4 + [_ptr] * 4 + [_dbl] * 2
                                   + [_ptr] + [_dbl] * 3 + [_ptr] * 2
                                   + [_dbl, _int] + [_ptr] * 3)
    lib.gpris_ris_loop.restype = _int
    return lib


class Prepared:
    """Repacked kernel inputs plus the ctypes arguments that point at them.

    The kernel wants the lane index outermost and the RIS index innermost,
    with real and imaginary parts split, so its inner loops run over
    independent blocks.  It takes C_k and u_k and forms each lane's
    D_k = C_k - u_k u_k^H itself.  ``w0`` is (LM,) or (P, LM), and the
    blocks carry the same leading lane axis.  This is iteration-independent,
    so callers can keep it outside timed regions.  The arrays are held here
    for as long as the pointers are in use; the iterates (wr, wi) are
    updated in place by each call.
    """

    def __init__(self, c_blocks, u_vecs, w0):
        lib = _library()
        w0 = np.asarray(w0)
        lanes = w0.shape[:-1]
        k_users, l_ris, m, _ = c_blocks.shape[-4:]
        if (c_blocks.shape != lanes + (k_users, l_ris, m, m)
                or u_vecs.shape != c_blocks.shape[:-1]):
            raise ValueError("c_blocks, u_vecs and w0 disagree on shape")
        if w0.shape[-1] != l_ris * m:
            raise ValueError(f"w0 must have {l_ris * m} entries per lane, "
                             f"got {w0.shape}")
        p = int(np.prod(lanes))
        self.lanes = lanes
        self.shape = (p, k_users, l_ris, m)
        blocks = (p, k_users, l_ris, m, m)
        self.cr, self.ci = _soa(c_blocks.reshape(blocks), (0, 1, 3, 4, 2))
        self.ur, self.ui = _soa(u_vecs.reshape(blocks[:-1]), (0, 1, 3, 2))
        self.wr, self.wi = _soa(w0.reshape(p, l_ris, m), (0, 2, 1))
        self.mu = np.zeros(p)
        self.iters = np.zeros(p, dtype=np.intc)
        self.res = np.zeros(p)
        self.work = np.empty(lib.gpris_ris_loop_work(k_users, m, l_ris))
        self._loop = lib.gpris_ris_loop
        self._arrays = [_ptr(a.ctypes.data) for a in (
            self.cr, self.ci, self.ur, self.ui)]

    def bind(self, noise_over_p, inv_rs_ln2, mu, tau, alpha1, alpha2, tol,
             max_iters):
        """Zero-argument call running every lane's loop.

        ``mu`` is a float or one weight per lane.  The call returns the
        iteration counts (an int for an unbatched ``w0``, else one per
        lane); a negative count flags a non-positive-definite denominator
        block in that lane, whose iterate is then left at the previous one.
        """
        p, k_users, l_ris, m = self.shape
        self.mu[:] = np.broadcast_to(mu, self.lanes).reshape(p)
        args = (_int(p), _int(k_users), _int(m), _int(l_ris), *self._arrays,
                _dbl(float(noise_over_p)), _dbl(float(inv_rs_ln2)),
                _ptr(self.mu.ctypes.data),
                *(_dbl(float(x)) for x in (tau, alpha1, alpha2)),
                _ptr(self.wr.ctypes.data), _ptr(self.wi.ctypes.data),
                _dbl(float(tol)), _int(int(max_iters)),
                _ptr(self.iters.ctypes.data), _ptr(self.res.ctypes.data),
                _ptr(self.work.ctypes.data))
        loop = functools.partial(self._loop, *args)

        def run():
            loop()
            counts = self.iters.reshape(self.lanes)
            return int(counts) if counts.ndim == 0 else counts.copy()

        return run

    def w(self) -> np.ndarray:
        """Current iterates as (LM,) or (P, LM) complex vectors."""
        w = np.swapaxes(self.wr + 1j * self.wi, -1, -2)
        return w.reshape(self.lanes + (-1,))

    def residual(self):
        """Fixed-point residual ||Dbar^-1 Cbar w - w|| of each lane at the
        iterate the last call returned (a float for an unbatched ``w0``)."""
        res = self.res.reshape(self.lanes)
        return float(res) if res.ndim == 0 else res.copy()


def _soa(x, axes):
    t = np.transpose(np.asarray(x, dtype=np.complex128), axes)
    return np.ascontiguousarray(t.real), np.ascontiguousarray(t.imag)


def warm_up():
    """Build and load the compiled loop so timings exclude it."""
    if available():
        _library()
