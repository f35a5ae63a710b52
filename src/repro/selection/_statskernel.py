"""Optional fused statistics kernel for the bound tier (ctypes + cc).

The bound tier's cheap pass needs four statistics per reduction — ``Σ|x|``,
``Σx``, ``max|x|`` and ``min{|x| : x != 0}`` — which the NumPy fallback
computes in five full-matrix sweeps (abs, max, min, two sums) over a packed
copy of the stream.  This kernel does the whole stream in one call: it walks
the stream's chunk lists itself, reads each chunk in place through the
buffer protocol (no packing copy), and takes all four row statistics in one
read with eight independent SIMD lanes per statistic.  The per-rank
partials then merge as :func:`bound_stats_item` merges them: ``max``/``min``
across ranks and NumPy's pairwise order (``np.sum``) for the two sums.

Unlike the balanced-sweep kernels in :mod:`repro.trees._ckernels`, this
kernel is **not** bitwise-equal to its NumPy fallback and does not need to
be: the lane-parallel row summation is just a different fixed association
order, and the bound tier certifies its statistics against the worst case
over *any* binary64 summation of height ``<= n-1`` (the lane + tail +
combine path of a ``width``-element row is at most ``width - 1`` roundings
for every width).  What must hold — and does — is per-process consistency:
availability is decided once per process, the shard workers inherit the
same environment and digest-addressed cache as the parent, and
``bound_stats_item`` and ``bound_stats_stream`` make the same kernel call
per item, so serial and parallel dispatch keep producing identical
statistics and therefore identical decisions.

Availability is decided by the shared loader (:mod:`repro.util.ckernel`):
no compiler, a failed compile or load, or ``REPRO_NO_CKERNELS`` silently
selects the NumPy fallback.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.util.ckernel import PAIRWISE_SUM_C, CKernel

__all__ = ["kernel_available", "stream_stats"]

#: Eight lanes: enough independent add chains to hide FP-add latency, held
#: in SIMD vectors per statistic; the remainder folds into lane 0 and
#: the lanes merge in a fixed order, so any element's leaf-to-root path sees
#: at most ``width - 1`` roundings (the certified-statistics budget the tier
#: already assumes).
_C_SOURCE = PAIRWISE_SUM_C + r"""
#include <stddef.h>
#include <stdlib.h>

/* The stable-ABI CPython calls the stream walker makes (see
 * repro.util.ckernel: declared here, resolved at load). */
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
#define BUF_C_CONTIGUOUS_FORMAT (0x0038 | 0x0004)

/* The eight lanes as LANES / VW vectors of VW doubles: 4-wide where AVX
 * is enabled, 2-wide (SSE2, NEON) elsewhere; the same bits either way. */
#if defined(__AVX__)
#define VW 4
#else
#define VW 2
#endif
#define NV (LANES / VW)
typedef double vd __attribute__((vector_size(VW * sizeof(double))));
typedef int64_t vl __attribute__((vector_size(VW * sizeof(int64_t))));

/* lanewise mask ? a : b */
#define PICK(mask, a, b) ((vd)(((vl)(a) & (mask)) | ((vl)(b) & ~(mask))))

/* out = sum |x|, sum x, max |x|, min nonzero |x| of x[0..w) */
static void row_stats(const double *restrict x, int64_t w, double out[4])
{
    vd zero, inf, s[NV], a[NV], mx[NV], mn[NV];
    vl magnitude;
    for (int k = 0; k < VW; k++) {
        zero[k] = 0.0;
        inf[k] = INFINITY;
        magnitude[k] = INT64_MAX;
    }
    for (int q = 0; q < NV; q++) {
        s[q] = a[q] = mx[q] = zero;
        mn[q] = inf;
    }
    int64_t nb = w - w % LANES;
    for (int64_t j = 0; j < nb; j += LANES) {
        for (int q = 0; q < NV; q++) {
            vd v;
            __builtin_memcpy(&v, x + j + q * VW, sizeof v);
            vd av = (vd)((vl)v & magnitude);
            s[q] = s[q] + v;
            a[q] = a[q] + av;
            mx[q] = PICK(av > mx[q], av, mx[q]);
            /* exact zeros never win a min-nonzero; NaN fails both compares */
            vd cand = PICK(av > 0.0, av, inf);
            mn[q] = PICK(cand < mn[q], cand, mn[q]);
        }
    }
    double sl[LANES], al[LANES], mxl[LANES], mnl[LANES];
    __builtin_memcpy(sl, s, sizeof sl);
    __builtin_memcpy(al, a, sizeof al);
    __builtin_memcpy(mxl, mx, sizeof mxl);
    __builtin_memcpy(mnl, mn, sizeof mnl);
    for (int64_t j = nb; j < w; j++) {
        double v = x[j], av = fabs(v);
        sl[0] = sl[0] + v;
        al[0] = al[0] + av;
        mxl[0] = av > mxl[0] ? av : mxl[0];
        double cand = av > 0.0 ? av : INFINITY;
        mnl[0] = cand < mnl[0] ? cand : mnl[0];
    }
    double st = sl[0], at = al[0], mxt = mxl[0], mnt = mnl[0];
    for (int k = 1; k < LANES; k++) {
        st = st + sl[k];
        at = at + al[k];
        mxt = mxl[k] > mxt ? mxl[k] : mxt;
        mnt = mnl[k] < mnt ? mnl[k] : mnt;
    }
    out[0] = at;
    out[1] = st;
    out[2] = mxt;
    out[3] = mnt;
}

/* items: a list of chunk lists.  Writes abs_sum, sum, max_abs,
 * min_abs_nonzero per item to out[4 i ..] and the element count to n[i].
 * Returns 1 when some chunk is not a C-contiguous native float64 buffer
 * (the caller normalises and retries), -1 when scratch allocation fails. */
int bound_stream_stats(PyObject *items, int64_t n_items, double *out,
                       int64_t *n)
{
    Py_ssize_t max_ranks = 0;
    for (int64_t i = 0; i < n_items; i++) {
        Py_ssize_t r = PyList_Size(PyList_GetItem(items, i));
        if (r < 0) {
            PyErr_Clear();
            return 1;
        }
        max_ranks = r > max_ranks ? r : max_ranks;
    }
    double *part = malloc((2 * (size_t)max_ranks + 1) * sizeof(double));
    if (part == NULL)
        return -1;
    for (int64_t i = 0; i < n_items; i++) {
        PyObject *chunks = PyList_GetItem(items, i);
        Py_ssize_t n_ranks = PyList_Size(chunks);
        double mx = 0.0, mn = INFINITY, row[4];
        int64_t count = 0;
        for (Py_ssize_t r = 0; r < n_ranks; r++) {
            Py_buffer view;
            if (PyObject_GetBuffer(PyList_GetItem(chunks, r), &view,
                                   BUF_C_CONTIGUOUS_FORMAT) != 0) {
                PyErr_Clear();
                free(part);
                return 1;
            }
            int f8 = view.itemsize == 8 && view.format != NULL &&
                     view.format[0] == 'd' && view.format[1] == '\0';
            int64_t w = (int64_t)(view.len / 8);
            if (f8)
                row_stats((const double *)view.buf, w, row);
            PyBuffer_Release(&view);
            if (!f8) {
                free(part);
                return 1;
            }
            part[r] = row[0];
            part[max_ranks + r] = row[1];
            mx = row[2] > mx ? row[2] : mx;
            mn = row[3] < mn ? row[3] : mn;
            count += w;
        }
        out[4 * i] = pairwise_sum(part, n_ranks, 0);
        out[4 * i + 1] = pairwise_sum(part + max_ranks, n_ranks, 0);
        out[4 * i + 2] = mx;
        out[4 * i + 3] = mn;
        n[i] = count;
    }
    free(part);
    return 0;
}
"""

_KERNEL = CKernel(
    "boundstats",
    _C_SOURCE,
    {
        "bound_stream_stats": (
            [ctypes.py_object, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p],
            ctypes.c_int,
        )
    },
    metric="repro_statskernel_compile_events_total",
    python_api=True,
)


def kernel_available() -> bool:
    """True when the fused stats kernel loaded (compiler present, not gated)."""
    return _KERNEL.available()


def stream_stats(batches):
    """Bound-tier statistics of every item of a stream in one kernel call.

    ``batches[i]`` is one reduction's chunk list; chunks of any shape and
    dtype are read as ``np.asarray(c, float64).ravel()`` reads them (C-
    contiguous float64 chunks in place, anything else through one
    normalising copy).  Returns ``(n, stats)``: the int64 element count per
    item and an ``(items, 4)`` array of ``Σ|x|, Σx, max|x|, min nonzero
    |x|``; or ``None`` when the kernel is unavailable (caller stays on the
    NumPy path).
    """
    lib = _KERNEL.load()
    if lib is None:
        return None
    items = [chunks if type(chunks) is list else list(chunks) for chunks in batches]
    out = np.empty((len(items), 4))
    n = np.empty(len(items), dtype=np.int64)
    args = (len(items), out.ctypes.data, n.ctypes.data)
    rc = lib.bound_stream_stats(items, *args)
    if rc > 0:
        items = [
            [np.asarray(c, dtype=np.float64).ravel() for c in chunks]
            for chunks in items
        ]
        rc = lib.bound_stream_stats(items, *args)
    if rc:
        raise MemoryError("bound_stream_stats scratch allocation failed")
    return n, out
