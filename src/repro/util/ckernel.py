"""One build/load path for the optional C kernels (ctypes + system cc).

Every compiled fast path in the package (the balanced-sweep kernels in
:mod:`repro.trees._ckernels`, the bound tier's statistics pass in
:mod:`repro.selection._statskernel` and the profiling sketch in
:mod:`repro.selection.profile`) is a :class:`CKernel`: a C source string
plus the ctypes signatures of the functions it exports.  This module owns
everything else:

* the compiler probe (``cc``, ``gcc`` or ``clang`` on ``PATH``);
* one flag set for all kernels — ``-ffp-contract=off`` keeps every
  rounding exactly as written (no FMA contraction), and ``-march=native``
  is retried without when a toolchain rejects it;
* a content-addressed cache: the object is ``<name>-<digest>.so`` under
  ``REPRO_CKERNEL_CACHE`` (default ``<tmpdir>/repro-ckernels``), the digest
  covering source and flags, written by an atomic rename so concurrent
  builders (pool workers, parallel test runs) never load a partial file;
* the once-per-process, thread-safe load and its compile-event counter;
* :data:`PAIRWISE_SUM_C`, NumPy's float64 summation order as C, for
  kernels that must reproduce ``np.sum`` bit for bit.

A kernel that walks Python objects itself (``python_api=True``) is loaded
with :class:`ctypes.PyDLL`, so it runs holding the GIL.  It declares the few
stable-ABI CPython functions it calls instead of including ``Python.h``, so
no Python headers are needed; the symbols resolve against the running
interpreter when the object is loaded.

Kernels are strictly optional: no compiler, a failed compile or a set
``REPRO_NO_CKERNELS`` (any non-empty value) makes :meth:`CKernel.load`
return ``None`` and callers stay on their NumPy path.  Nothing is ever
downloaded or installed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Mapping, Optional, Sequence, Tuple

from repro.obs import get_registry

__all__ = ["CKernel"]

#: -O3/-march=native only widen SIMD lanes of elementwise loops and of the
#: explicitly lane-split reductions; without -ffast-math no floating-point
#: reduction is reassociated, so each kernel's bits are its source's bits.
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")

_OBS = get_registry()

#: NumPy's ``DOUBLE_pairwise_sum`` — the order ``np.sum`` uses along a
#: contiguous float64 axis — as ``pairwise_sum(a, n, absval)``, which sums
#: ``a[0..n)`` (or ``|a|``): sequential from ``0.`` below 8 elements, eight
#: accumulators up to ``PW_BLOCK``, else a split at ``n/2`` rounded down to
#: a multiple of 8.  Kernels prepend it to their source.
PAIRWISE_SUM_C = r"""
#include <math.h>
#include <stdint.h>

#define LANES 8
#define PW_BLOCK 128

static double pairwise_sum(const double *a, int64_t n, int absval)
{
#define AT(i) (absval ? fabs(a[i]) : a[i])
    double res = 0.;
    if (n < 8) {
        for (int64_t i = 0; i < n; i++)
            res += AT(i);
        return res;
    }
    if (n <= PW_BLOCK) {
        double r[LANES];
        for (int k = 0; k < LANES; k++)
            r[k] = AT(k);
        int64_t i;
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < LANES; k++)
                r[k] += AT(i + k);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += AT(i);
        return res;
    }
#undef AT
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2, absval) + pairwise_sum(a + n2, n - n2, absval);
}
"""


def _count_stale(cache_dir: str, name: str, so_name: str) -> int:
    """Cached objects of this kernel whose digest no longer matches."""
    try:
        entries = os.listdir(cache_dir)
    except OSError:
        return 0
    prefix = name + "-"
    return sum(
        1
        for entry in entries
        if entry.startswith(prefix) and entry.endswith(".so") and entry != so_name
    )


def _build(cc: str, source: str, so_path: str, cache_dir: str) -> None:
    os.makedirs(cache_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache_dir) as td:
        src = os.path.join(td, "kernel.c")
        with open(src, "w") as f:
            f.write(source)
        tmp_so = os.path.join(td, "kernel.so")
        try:
            subprocess.run(
                [cc, *FLAGS, src, "-o", tmp_so],
                check=True,
                capture_output=True,
                timeout=120,
            )
        except subprocess.CalledProcessError:
            # some toolchains lack -march=native (e.g. cross cc)
            safe = [f for f in FLAGS if f != "-march=native"]
            subprocess.run(
                [cc, *safe, src, "-o", tmp_so],
                check=True,
                capture_output=True,
                timeout=120,
            )
        os.replace(tmp_so, so_path)  # atomic within cache_dir


class CKernel:
    """A C source compiled on first use and loaded once per process.

    ``name`` prefixes the cached object; ``signatures`` maps each exported
    function to its ``(argtypes, restype)``; ``metric`` names the counter
    that records the load outcome (``compiled``/``reused``/``gated``/
    ``no_compiler``/``failed``).  Load happens once per process, so
    enabling metrics before the first kernel-using call is what captures
    the event.  ``python_api`` loads through :class:`ctypes.PyDLL` (calls
    hold the GIL) for kernels that take Python objects.
    """

    def __init__(
        self,
        name: str,
        source: str,
        signatures: Mapping[str, Tuple[Sequence[type], type]],
        *,
        metric: str,
        python_api: bool = False,
    ) -> None:
        self.name = name
        self.source = source
        self.signatures = dict(signatures)
        self.metric = metric
        self.python_api = python_api
        self._lock = threading.Lock()
        self._lib: Optional[ctypes.CDLL] = None
        self._attempted = False

    def _event(self, outcome: str) -> None:
        if _OBS.enabled:
            _OBS.counter(self.metric, outcome=outcome).inc()

    def _compile(self) -> Optional[ctypes.CDLL]:
        # Build gate only: every kernel's NumPy fallback is either
        # bitwise-equal to it or covered by the same certified error budget.
        # repro: allow[FP009] -- build gate, fallbacks pinned by their tests
        if os.environ.get("REPRO_NO_CKERNELS"):
            self._event("gated")
            return None
        cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
        if cc is None:
            self._event("no_compiler")
            return None
        digest = hashlib.blake2b(
            (self.source + "\0" + " ".join(FLAGS)).encode(), digest_size=16
        ).hexdigest()
        # Cache *location* only; the kernel loaded from any directory is the
        # same digest-addressed object.
        # repro: allow[FP009] -- cache path knob, kernel bytes digest-pinned
        cache_dir = os.environ.get("REPRO_CKERNEL_CACHE") or os.path.join(
            tempfile.gettempdir(), "repro-ckernels"
        )
        so_name = f"{self.name}-{digest}.so"
        so_path = os.path.join(cache_dir, so_name)
        try:
            if os.path.exists(so_path):
                outcome = "reused"
            else:
                # objects under other digests were built from a different
                # source/flag set: a surprise recompile in a warmed
                # environment shows up here
                stale = _count_stale(cache_dir, self.name, so_name)
                if stale and _OBS.enabled:
                    _OBS.counter("repro_ckernels_digest_mismatch_total").inc(stale)
                _build(cc, self.source, so_path, cache_dir)
                outcome = "compiled"
            lib = (ctypes.PyDLL if self.python_api else ctypes.CDLL)(so_path)
            for fname, (argtypes, restype) in self.signatures.items():
                fn = getattr(lib, fname)
                fn.argtypes = list(argtypes)
                fn.restype = restype
        except (OSError, AttributeError, subprocess.SubprocessError):
            self._event("failed")
            return None
        self._event(outcome)
        return lib

    def load(self) -> Optional[ctypes.CDLL]:
        """The loaded library, or ``None`` on the NumPy fallback."""
        if not self._attempted:
            with self._lock:
                if not self._attempted:
                    self._lib = self._compile()
                    self._attempted = True
        return self._lib

    def available(self) -> bool:
        return self.load() is not None
