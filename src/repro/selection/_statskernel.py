"""Optional fused statistics kernel for the bound tier (ctypes + cc).

The bound tier's cheap pass needs four statistics per reduction — ``Σ|x|``,
``Σx``, ``max|x|`` and ``min{|x| : x != 0}`` — which the NumPy fallback
computes in five full-matrix sweeps (abs, max, min, two sums) over a packed
copy of the stream.  This kernel does the whole stream in one call: the
shared chunk walker (:data:`repro.util.ckernel.CHUNK_WALK_C`) reads each
chunk in place through the buffer protocol (no packing copy), and the kernel
takes all four row statistics in one read with eight independent SIMD lanes
per statistic, with the GIL released.  The per-rank partials then merge as
:func:`bound_stats_item` merges them: ``max``/``min`` across ranks and
NumPy's pairwise order (``np.sum``) for the two sums.

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

from repro.util.ckernel import CHUNK_WALK_C, PAIRWISE_SUM_C, CKernel, call_walker

__all__ = ["kernel_available", "stream_stats"]

#: Eight lanes: enough independent add chains to hide FP-add latency, held
#: in SIMD vectors per statistic; the remainder folds into lane 0 and
#: the lanes merge in a fixed order, so any element's leaf-to-root path sees
#: at most ``width - 1`` roundings (the certified-statistics budget the tier
#: already assumes).
_C_SOURCE = CHUNK_WALK_C + PAIRWISE_SUM_C + r"""
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

/* items: a list of chunk lists, read in place by the shared walker.
 * Writes abs_sum, sum, max_abs, min_abs_nonzero per item to out[4 i ..]
 * and the element count to n[i]. */
int bound_stream_stats(PyObject *items, int64_t n_items, double *out,
                       int64_t *n)
{
    chunk_walk w;
    int rc = walk_open(&w, items, 1, n_items);
    if (rc)
        return rc;
    int64_t max_ranks = 0;
    for (int64_t i = 0; i < n_items; i++) {
        int64_t r = w.item[i + 1] - w.item[i];
        max_ranks = r > max_ranks ? r : max_ranks;
    }
    double *part = malloc((2 * (size_t)max_ranks + 1) * sizeof(double));
    if (part == NULL) {
        walk_close(&w);
        return WALK_NOMEM;
    }
    void *ts = PyEval_SaveThread();
    for (int64_t i = 0; i < n_items; i++) {
        int64_t first = w.item[i], n_ranks = w.item[i + 1] - first;
        double mx = 0.0, mn = INFINITY, row[4];
        int64_t count = 0;
        for (int64_t r = 0; r < n_ranks; r++) {
            row_stats(w.ptr[first + r], w.len[first + r], row);
            part[r] = row[0];
            part[max_ranks + r] = row[1];
            mx = row[2] > mx ? row[2] : mx;
            mn = row[3] < mn ? row[3] : mn;
            count += w.len[first + r];
        }
        out[4 * i] = pairwise_sum(part, n_ranks, 0);
        out[4 * i + 1] = pairwise_sum(part + max_ranks, n_ranks, 0);
        out[4 * i + 2] = mx;
        out[4 * i + 3] = mn;
        n[i] = count;
    }
    PyEval_RestoreThread(ts);
    free(part);
    walk_close(&w);
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
    n_items = len(batches)
    out = np.empty((n_items, 4))
    n = np.empty(n_items, dtype=np.int64)
    call_walker(
        lib.bound_stream_stats, batches, n_items, out.ctypes.data, n.ctypes.data,
        nested=True,
    )
    return n, out
