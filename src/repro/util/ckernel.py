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
  kernels that must reproduce ``np.sum`` bit for bit;
* :data:`CHUNK_WALK_C` and :func:`call_walker`, the one way a serving
  kernel reaches a request's chunks: the kernel walks the Python chunk
  lists itself and reads every chunk where it lies.

An export whose argtypes contain :class:`ctypes.py_object` is bound through
:class:`ctypes.PyDLL`, so it is entered holding the GIL and may touch Python
objects; the walker entries then drop the GIL themselves for their
arithmetic.  Every other export is bound through :class:`ctypes.CDLL`, which
releases the GIL for the whole call.  The walker declares the few stable-ABI
CPython functions it calls instead of including ``Python.h``, so no Python
headers are needed; the symbols resolve against the running interpreter
when the object is loaded.

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
from types import SimpleNamespace
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import get_registry

__all__ = ["CKernel", "CHUNK_WALK_C", "PAIRWISE_SUM_C", "call_walker"]

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

#: The chunk-list walker every serving kernel reads its input through.
#: ``walk_open(&w, items, nested, expect)`` takes a list of ``expect`` chunk
#: lists (``nested``) or one list of ``expect`` chunks (a single item) and
#: fills pointer and length tables through the buffer protocol: chunk ``c``
#: is ``w.ptr[c][0 .. w.len[c])`` and item ``i`` owns chunks ``w.item[i] ..
#: w.item[i + 1]``.  Each chunk's ``Py_buffer`` is held until
#: ``walk_close``, which releases every view taken.  ``walk_open`` holds
#: nothing when it returns ``WALK_RETRY`` (a container is not a list or a
#: chunk is not a C-contiguous native ``<f8`` buffer; :func:`call_walker`
#: then normalises once and retries) or ``WALK_SHAPE`` (another count than
#: ``expect``).  Entries call both with the GIL held and drop it in between
#: with ``PyEval_SaveThread``/``PyEval_RestoreThread``.
CHUNK_WALK_C = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct _object PyObject;
typedef ptrdiff_t Py_ssize_t;
typedef struct {
    void *buf;
    PyObject *obj;
    Py_ssize_t len, itemsize;
    int readonly, ndim;
    char *format;
    Py_ssize_t *shape, *strides, *suboffsets;
    void *internal;
} Py_buffer;
Py_ssize_t PyList_Size(PyObject *);
PyObject *PyList_GetItem(PyObject *, Py_ssize_t);
int PyObject_GetBuffer(PyObject *, Py_buffer *, int);
void PyBuffer_Release(Py_buffer *);
void PyErr_Clear(void);
void *PyEval_SaveThread(void);
void PyEval_RestoreThread(void *);
#define BUF_C_CONTIGUOUS_FORMAT (0x0038 | 0x0004)

#define WALK_RETRY 1    /* normalise the chunks and call again */
#define WALK_NOMEM (-1) /* table or scratch allocation failed */
#define WALK_SHAPE 2    /* chunk counts disagree with the caller's */

typedef struct {
    int64_t n_items, n_chunks, max_len, held;
    const double **ptr;
    int64_t *len, *item;
    Py_buffer *view;
} chunk_walk;

static void walk_close(chunk_walk *w)
{
    for (int64_t c = 0; c < w->held; c++)
        PyBuffer_Release(&w->view[c]);
    free(w->view);  /* one block holds every table */
    w->view = NULL;
    w->held = 0;
}

/* PyList_Size, or -1 (error cleared) for NULL or a non-list */
static Py_ssize_t list_len(PyObject *lst)
{
    Py_ssize_t n = lst != NULL ? PyList_Size(lst) : -1;
    if (n < 0)
        PyErr_Clear();
    return n;
}

static int walk_open(chunk_walk *w, PyObject *items, int nested,
                     int64_t expect)
{
    Py_ssize_t n_items = nested ? list_len(items) : 1;
    w->view = NULL;
    w->held = 0;
    if (n_items < 0)
        return WALK_RETRY;
    int64_t n = 0;
    for (Py_ssize_t i = 0; i < n_items; i++) {
        Py_ssize_t r = list_len(nested ? PyList_GetItem(items, i) : items);
        if (r < 0)
            return WALK_RETRY;
        n += r;
    }
    char *block = malloc((size_t)n * (sizeof(Py_buffer) + sizeof(double *) +
                                      sizeof(int64_t)) +
                         (size_t)(n_items + 1) * sizeof(int64_t));
    if (block == NULL)
        return WALK_NOMEM;
    w->view = (Py_buffer *)block;
    w->ptr = (const double **)(w->view + n);
    w->len = (int64_t *)(w->ptr + n);
    w->item = w->len + n;
    w->n_items = n_items;
    w->n_chunks = n;
    w->max_len = 0;
    int64_t c = 0;
    for (Py_ssize_t i = 0; i < n_items; i++) {
        PyObject *chunks = nested ? PyList_GetItem(items, i) : items;
        Py_ssize_t r = list_len(chunks);
        w->item[i] = c;
        if (r < 0 || r > n - c) {  /* a list changed under the walk */
            walk_close(w);
            return WALK_RETRY;
        }
        for (Py_ssize_t k = 0; k < r; k++, c++) {
            PyObject *chunk = PyList_GetItem(chunks, k);
            Py_buffer *v = &w->view[c];
            if (chunk == NULL ||
                PyObject_GetBuffer(chunk, v, BUF_C_CONTIGUOUS_FORMAT) != 0) {
                PyErr_Clear();
                walk_close(w);
                return WALK_RETRY;
            }
            w->held = c + 1;
            if (v->itemsize != 8 || v->format == NULL || v->format[0] != 'd' ||
                v->format[1] != '\0') {
                walk_close(w);
                return WALK_RETRY;
            }
            w->ptr[c] = (const double *)v->buf;
            w->len[c] = (int64_t)(v->len / 8);
            w->max_len = w->len[c] > w->max_len ? w->len[c] : w->max_len;
        }
    }
    w->item[n_items] = c;
    w->n_chunks = c;
    if ((nested ? n_items : c) != expect) {
        walk_close(w);
        return WALK_SHAPE;
    }
    return 0;
}
"""


def _as_f8_chunks(chunks, nested: bool) -> list:
    """``chunks`` as the walker reads them: lists of ``np.asarray(c,
    float64).ravel()`` (C-contiguous native float64 chunks stay views)."""
    if nested:
        return [_as_f8_chunks(item, False) for item in chunks]
    return [np.asarray(c, dtype=np.float64).ravel() for c in chunks]


def call_walker(entry, chunks, *args, nested: bool = False) -> None:
    """Call a walker entry ``entry(chunks, *args)``.

    When some chunk is not a C-contiguous native ``<f8`` buffer (or a
    container is not a list) the entry takes nothing and returns
    ``WALK_RETRY``; the chunks are then normalised once (``nested`` says
    ``chunks`` is a list of chunk lists) and the call is repeated."""
    rc = entry(chunks, *args)
    if rc == 1:
        rc = entry(_as_f8_chunks(chunks, nested), *args)
    if rc == -1:
        raise MemoryError(f"{entry.__name__}: scratch allocation failed")
    if rc:
        raise ValueError(f"{entry.__name__}: chunk lists changed during the call")


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
    the event.  An export taking a :class:`ctypes.py_object` is bound
    through :class:`ctypes.PyDLL`, every other one through
    :class:`ctypes.CDLL` (see the module docs).
    """

    def __init__(
        self,
        name: str,
        source: str,
        signatures: Mapping[str, Tuple[Sequence[type], type]],
        *,
        metric: str,
    ) -> None:
        self.name = name
        self.source = source
        self.signatures = dict(signatures)
        self.metric = metric
        self._lock = threading.Lock()
        self._lib: Optional[SimpleNamespace] = None
        self._attempted = False

    def _event(self, outcome: str) -> None:
        if _OBS.enabled:
            _OBS.counter(self.metric, outcome=outcome).inc()

    def _compile(self) -> Optional[SimpleNamespace]:
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
            libs = {False: ctypes.CDLL(so_path), True: ctypes.PyDLL(so_path)}
            lib = SimpleNamespace()
            for fname, (argtypes, restype) in self.signatures.items():
                fn = getattr(libs[ctypes.py_object in argtypes], fname)
                fn.argtypes = list(argtypes)
                fn.restype = restype
                setattr(lib, fname, fn)
        except (OSError, AttributeError, subprocess.SubprocessError):
            self._event("failed")
            return None
        self._event(outcome)
        return lib

    def load(self) -> Optional[SimpleNamespace]:
        """The bound exports by name, or ``None`` on the NumPy fallback."""
        if not self._attempted:
            with self._lock:
                if not self._attempted:
                    self._lib = self._compile()
                    self._attempted = True
        return self._lib

    def available(self) -> bool:
        return self.load() is not None
