"""Runtime profiling of summand sets: cheap estimates of (n, k, dr).

The paper's closing argument: "Achieving reproducible numerical accuracy by
intelligent runtime selection of reduction algorithms depends on being able
to assess the mathematical properties of the floating-point values to be
reduced" — and those properties must be *estimable* at a cost far below the
reduction itself.

:class:`StreamProfile` is a mergeable statistics sketch: each rank folds its
chunk in with one vectorised pass (max, min-nonzero magnitude, |x| sum, and
a composite-precision signed sum so the condition-number estimate stays
meaningful up to k ~ 1e30 instead of saturating at 1/(n·u)); sketches merge
associatively, so profiling costs one extra allreduce of five doubles —
exactly the "profile parameters of interest at runtime" tooling Sec. V.D
calls for.

Accuracy: ``dr`` is exact (it only needs the extreme exponents); ``k̂``
matches the exact condition number to ~n·u² relative, far tighter than the
decade granularity selection needs (tests pin this).

Execution: on the selector's paths (:func:`profile_batch` for streams,
:func:`profile_stream` for one item) the sketch runs as one fused C kernel
when the shared loader (:mod:`repro.util.ckernel`) has a compiler.  It walks
the chunk lists itself through the shared chunk walker and reads each chunk
once where it lies, with no packing copy, so ragged streams take the same
path as uniform ones; the GIL is released while it computes.  It replays
the NumPy operations in their exact order: the |x| sum in NumPy's pairwise
order (eight accumulators up to 128 elements, then a split at ``n/2``
rounded down to a multiple of 8), the TwoSum ladder of :func:`_cp_sum` with
each level's error summed the same way, and the rank-merge chain of
:meth:`StreamProfile.merge`.  Built with ``-ffp-contract=off``, every sketch
field is **bitwise equal** to the NumPy path, which stays as the fallback
(no compiler, or ``REPRO_NO_CKERNELS`` set).  NaN wins ``max_abs`` as in
``np.maximum`` and is skipped by the min-nonzero as ``where=(a > 0)``
skips it, on both paths.  The contract was checked on NumPy 2.4; NumPy does
not promise to keep its private summation order, so the kernel-vs-NumPy
parity tests run in CI against whichever NumPy it installs.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from repro.fp.eft import two_sum, two_sum_array
from repro.fp.properties import exponent
from repro.metrics.properties import SetProfile
from repro.obs import get_registry
from repro.util.ckernel import CHUNK_WALK_C, PAIRWISE_SUM_C, CKernel, call_walker

__all__ = [
    "StreamProfile",
    "kernel_available",
    "profile_chunk",
    "profile_stream",
    "profile_batch",
]

_OBS = get_registry()


def _record_profile_path(path: str, n_items: int) -> None:
    """Count which profiling path a stream took (C kernel, NumPy batched
    sweep, or the NumPy ragged per-item fallback) and how many items rode
    it."""
    if _OBS.enabled:
        _OBS.counter("repro_profile_batch_total", path=path).inc()
        _OBS.counter("repro_profile_items_total", path=path).inc(n_items)


def _nan_max(a: float, b: float) -> float:
    """``np.maximum`` of two floats: a NaN in either operand wins."""
    return a if math.isnan(a) or a >= b else b


@dataclass
class StreamProfile:
    """Mergeable one-pass sketch of a (distributed) summand set."""

    n: int = 0
    max_abs: float = 0.0
    min_abs_nonzero: float = math.inf
    abs_sum_hi: float = 0.0
    abs_sum_lo: float = 0.0
    sum_hi: float = 0.0
    sum_lo: float = 0.0

    # -- accumulation ----------------------------------------------------------
    def update(self, chunk: np.ndarray) -> None:
        """Fold a chunk in (vectorised; one pass over the data)."""
        chunk = np.asarray(chunk, dtype=np.float64).ravel()
        if chunk.size == 0:
            return
        a = np.abs(chunk)
        self.n += int(chunk.size)
        self.max_abs = _nan_max(self.max_abs, float(a.max()))
        # masked min instead of materialising a[a != 0] — one pass, no copy
        mn = float(np.min(a, initial=math.inf, where=(a > 0.0)))
        if mn < self.min_abs_nonzero:
            self.min_abs_nonzero = mn
        # pairwise numpy sums are accurate enough for the magnitudes, but
        # the signed sum needs composite precision to keep k̂ from saturating
        self._add_abs(float(np.sum(a)))  # repro: allow[FP002] -- magnitude sum has no cancellation; pairwise is accurate enough
        s, e = _cp_sum(chunk)
        self._add_signed(s, e)

    def _add_abs(self, value: float) -> None:
        self.abs_sum_hi, err = two_sum(self.abs_sum_hi, value)
        self.abs_sum_lo += err

    def _add_signed(self, hi: float, lo: float) -> None:
        self.sum_hi, err = two_sum(self.sum_hi, hi)
        self.sum_lo += err + lo

    def merge(self, other: "StreamProfile") -> None:
        """Associative sketch merge (the allreduce combine)."""
        self.n += other.n
        self.max_abs = _nan_max(self.max_abs, other.max_abs)
        self.min_abs_nonzero = min(self.min_abs_nonzero, other.min_abs_nonzero)
        self._add_abs(other.abs_sum_hi)
        self.abs_sum_lo += other.abs_sum_lo
        self._add_signed(other.sum_hi, other.sum_lo)

    # -- estimates ----------------------------------------------------------------
    @property
    def abs_sum(self) -> float:
        return self.abs_sum_hi + self.abs_sum_lo

    @property
    def approx_sum(self) -> float:
        return self.sum_hi + self.sum_lo

    def condition_estimate(self) -> float:
        """k̂ = Σ|x| / |Σx| from the sketch (inf when the sum vanishes)."""
        if self.n == 0:
            return 1.0
        s = abs(self.approx_sum)
        t = self.abs_sum
        if t == 0.0:  # repro: allow[FP001] -- all-zero input
            return 1.0
        if s == 0.0:  # repro: allow[FP001] -- vanished sum => infinite condition
            return math.inf
        return t / s

    def dynamic_range_estimate(self) -> int:
        """Exact dr: exponent span of the extreme magnitudes."""
        if not math.isfinite(self.min_abs_nonzero) or self.max_abs == 0.0:  # repro: allow[FP001] -- all-zero input guard
            return 0
        return exponent(self.max_abs) - exponent(self.min_abs_nonzero)

    def as_set_profile(self) -> SetProfile:
        return SetProfile(
            n=self.n,
            condition=self.condition_estimate(),
            dynamic_range=self.dynamic_range_estimate(),
            max_abs=self.max_abs,
            abs_sum=self.abs_sum,
        )


def _cp_sum(x: np.ndarray) -> tuple[float, float]:
    """Composite-precision pairwise sum of an array: (hi, lo)."""
    s = x.copy()
    lo = 0.0
    while s.size > 1:
        if s.size % 2:
            tail = float(s[-1])
            s = s[:-1]
        else:
            tail = None
        t, err = two_sum_array(s[0::2], s[1::2])
        # The err mass is magnitude-homogeneous (per-level roundoffs), so a
        # pairwise np.sum into the scalar lo term is second-order accurate.
        lo += float(np.sum(err))  # repro: allow[FP002,FP003]
        s = t if tail is None else np.append(t, tail)
    return (float(s[0]) if s.size else 0.0), lo


def profile_chunk(chunk: np.ndarray) -> StreamProfile:
    """Sketch one rank's chunk."""
    p = StreamProfile()
    p.update(chunk)
    return p


def _cp_sum_rows(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`_cp_sum`: ``(hi, lo)`` vectors, each row bitwise-equal
    to ``_cp_sum(matrix[r])`` (NumPy applies the same pairwise reduction to
    the contiguous last axis of a matrix as to a 1-D array)."""
    s = matrix.copy()
    n_rows = matrix.shape[0]
    lo = np.zeros(n_rows, dtype=np.float64)
    while s.shape[1] > 1:
        if s.shape[1] % 2:
            tail = s[:, -1:]
            s = s[:, :-1]
        else:
            tail = None
        t, err = two_sum_array(s[:, 0::2], s[:, 1::2])
        lo += np.sum(err, axis=1)  # repro: allow[FP002,FP003]
        s = t if tail is None else np.concatenate([t, tail], axis=1)
    hi = s[:, 0].copy() if s.shape[1] else np.zeros(n_rows, dtype=np.float64)
    return hi, lo


def _numpy_batch(batches) -> "list[StreamProfile] | None":
    """The NumPy sweep behind :func:`profile_batch` (``None`` if ragged)."""
    n_items = len(batches)
    n_ranks = len(batches[0])
    arrays: list[np.ndarray] = []
    for chunks in batches:
        if len(chunks) != n_ranks:
            _record_profile_path("ragged_fallback", n_items)
            return None
        for c in chunks:
            arrays.append(np.asarray(c, dtype=np.float64).ravel())
    if n_ranks == 0:
        _record_profile_path("batched", n_items)
        return [StreamProfile() for _ in range(n_items)]
    width = arrays[0].size
    if any(a.size != width for a in arrays):
        _record_profile_path("ragged_fallback", n_items)
        return None
    matrix = np.concatenate(arrays).reshape(n_items * n_ranks, width) if width else (
        np.zeros((n_items * n_ranks, 0), dtype=np.float64)
    )
    # per-chunk statistics, one vectorised pass over all rows
    a = np.abs(matrix)
    if width:
        row_max = a.max(axis=1)
        row_min = np.min(a, axis=1, initial=math.inf, where=(a > 0.0))
        row_abs = np.sum(a, axis=1)  # repro: allow[FP002] -- magnitude sum has no cancellation; pairwise is accurate enough
    else:
        row_max = np.zeros(matrix.shape[0], dtype=np.float64)
        row_min = np.full(matrix.shape[0], math.inf)
        row_abs = np.zeros(matrix.shape[0], dtype=np.float64)
    cp_hi, cp_lo = _cp_sum_rows(matrix)
    # profile_chunk from the fresh state: abs two_sum(0, v) is exact for
    # v >= 0, the signed sum replays _add_signed from zero
    chunk_sh, err0 = two_sum_array(0.0, cp_hi)
    chunk_sl = 0.0 + (err0 + cp_lo)

    def col(v: np.ndarray, r: int) -> np.ndarray:
        return v.reshape(n_items, n_ranks)[:, r]

    # the rank-merge chain of AdaptiveReducer.profile, vectorised over items
    max_tot = np.zeros(n_items, dtype=np.float64)
    min_tot = np.full(n_items, math.inf)
    ah = np.zeros(n_items, dtype=np.float64)
    al = np.zeros(n_items, dtype=np.float64)
    sh = np.zeros(n_items, dtype=np.float64)
    sl = np.zeros(n_items, dtype=np.float64)
    for r in range(n_ranks):
        max_tot = np.maximum(max_tot, col(row_max, r))
        min_tot = np.minimum(min_tot, col(row_min, r))
        ah, err = two_sum_array(ah, col(row_abs, r))
        al = (al + err) + 0.0  # other.abs_sum_lo is exactly zero
        sh, err = two_sum_array(sh, col(chunk_sh, r))
        sl = sl + (err + col(chunk_sl, r))
    n_total = n_ranks * width
    _record_profile_path("batched", n_items)
    return [
        StreamProfile(
            n=n_total,
            max_abs=float(max_tot[i]),
            min_abs_nonzero=float(min_tot[i]),
            abs_sum_hi=float(ah[i]),
            abs_sum_lo=float(al[i]),
            sum_hi=float(sh[i]),
            sum_lo=float(sl[i]),
        )
        for i in range(n_items)
    ]


#: The fused sketch.  Each function replays one NumPy step operation for
#: operation; the comments name the step.
_C_SOURCE = CHUNK_WALK_C + PAIRWISE_SUM_C + r"""
static inline double two_sum(double a, double b, double *err)
{
    double s = a + b, bb = s - a;
    *err = (a - (s - bb)) + (b - bb);
    return s;
}

/* One chunk's single read, walked leaf by leaf in pairwise order. */
typedef struct {
    const double *x;
    int64_t pairs_end;                /* width rounded down to even */
    double *restrict t, *restrict e;  /* first ladder level's TwoSums */
    double mx[LANES], mn[LANES];
} chunk_pass;

/* The |x| sum of x[off..off+n) in np.sum(np.abs(x))'s order.  Each leaf
 * (<= PW_BLOCK elements, starting at a multiple of 8) is read from memory
 * once: its lane max / min-nonzero and the first _cp_sum level's TwoSum
 * pairs are taken while it is in L1, and no pair straddles two leaves.
 * The max skips NaN; the caller restores it from the |x| sum, which is
 * NaN exactly when the chunk holds one.  "> 0" skips NaN in the min as
 * where=(a > 0) does. */
static double abs_pass(chunk_pass *p, int64_t off, int64_t n)
{
    if (n > PW_BLOCK) {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return abs_pass(p, off, n2) + abs_pass(p, off + n2, n - n2);
    }
    const double *restrict a = p->x + off;
    double res = pairwise_sum(a, n, 1), mx[LANES], mn[LANES];
    for (int k = 0; k < LANES; k++) {
        mx[k] = p->mx[k];
        mn[k] = p->mn[k];
    }
    for (int64_t j = 0; j < n; j += LANES) {
        int64_t m = n - j < LANES ? n - j : LANES;
        for (int k = 0; k < m; k++) {
            double av = fabs(a[j + k]), cand = av > 0.0 ? av : INFINITY;
            mx[k] = av > mx[k] ? av : mx[k];
            mn[k] = cand < mn[k] ? cand : mn[k];
        }
    }
    for (int k = 0; k < LANES; k++) {
        p->mx[k] = mx[k];
        p->mn[k] = mn[k];
    }
    int64_t lim = off + n < p->pairs_end ? off + n : p->pairs_end;
    for (int64_t j = off; j < lim; j += 2)
        p->t[j >> 1] = two_sum(p->x[j], p->x[j + 1], &p->e[j >> 1]);
    return res;
}

/* profile_chunk of x[0..w): row[0..4] = max|x|, min nonzero |x|, sum |x|,
 * and the _cp_sum (hi, lo).  scratch holds three blocks of half >= w/2 + 1
 * doubles: two ping-pong ladder levels and their TwoSum errors. */
static void chunk_sketch(const double *x, int64_t w, double *scratch,
                         int64_t half, double row[5])
{
    chunk_pass p = {x, w - (w & 1), scratch, scratch + 2 * half, {0}, {0}};
    for (int k = 0; k < LANES; k++)
        p.mn[k] = INFINITY;
    double sum_abs = w ? abs_pass(&p, 0, w) : 0.0;
    double mx = sum_abs != sum_abs ? sum_abs : p.mx[0], mn = p.mn[0];
    for (int k = 1; k < LANES; k++) {
        mx = p.mx[k] > mx ? p.mx[k] : mx;
        mn = p.mn[k] < mn ? p.mn[k] : mn;
    }
    /* _cp_sum: TwoSum pairs level by level, each level's errors summed
     * pairwise into lo; an odd level's last value rides up unpaired */
    double hi = w == 1 ? x[0] : 0.0, lo = 0.0;
    if (w > 1) {
        double *s = p.t, *nxt = scratch + half;
        int64_t len = w / 2;
        lo = lo + pairwise_sum(p.e, len, 0);
        if (w & 1)
            s[len++] = x[w - 1];
        while (len > 1) {
            int64_t h = len / 2;
            for (int64_t k = 0; k < h; k++)
                nxt[k] = two_sum(s[2 * k], s[2 * k + 1], &p.e[k]);
            lo = lo + pairwise_sum(p.e, h, 0);
            if (len & 1)
                nxt[h++] = s[len - 1];
            len = h;
            double *tmp = s;
            s = nxt;
            nxt = tmp;
        }
        hi = s[0];
    }
    row[0] = mx;
    row[1] = mn;
    row[2] = sum_abs;
    row[3] = hi;
    row[4] = lo;
}

/* Sketch every item of `items`, a list of chunk lists read in place by the
 * shared walker.  Writes six doubles per item to out (max_abs,
 * min_abs_nonzero, abs_sum_hi, abs_sum_lo, sum_hi, sum_lo) and its element
 * count to n. */
int profile_sketch(PyObject *items, int64_t n_items, double *out, int64_t *n)
{
    chunk_walk w;
    int rc = walk_open(&w, items, 1, n_items);
    if (rc)
        return rc;
    int64_t half = w.max_len / 2 + 1;
    double *scratch = malloc(3 * (size_t)half * sizeof(double));
    if (scratch == NULL) {
        walk_close(&w);
        return WALK_NOMEM;
    }
    void *ts = PyEval_SaveThread();
    for (int64_t i = 0; i < n_items; i++) {
        double max_tot = 0.0, min_tot = INFINITY;
        double ah = 0.0, al = 0.0, sh = 0.0, sl = 0.0, err, row[5];
        int64_t count = 0;
        for (int64_t c = w.item[i]; c < w.item[i + 1]; c++) {
            chunk_sketch(w.ptr[c], w.len[c], scratch, half, row);
            count += w.len[c];
            /* profile_chunk from a fresh sketch: two_sum(0.0, hi) */
            double c_sh = two_sum(0.0, row[3], &err);
            double c_sl = 0.0 + (err + row[4]);
            /* the rank-merge chain of StreamProfile.merge */
            max_tot = (max_tot != max_tot || max_tot >= row[0]) ? max_tot : row[0];
            min_tot = row[1] < min_tot ? row[1] : min_tot;
            ah = two_sum(ah, row[2], &err);
            al = (al + err) + 0.0;
            sh = two_sum(sh, c_sh, &err);
            sl = sl + (err + c_sl);
        }
        double *o = out + 6 * i;
        o[0] = max_tot;
        o[1] = min_tot;
        o[2] = ah;
        o[3] = al;
        o[4] = sh;
        o[5] = sl;
        n[i] = count;
    }
    PyEval_RestoreThread(ts);
    free(scratch);
    walk_close(&w);
    return 0;
}
"""

_KERNEL = CKernel(
    "sketch",
    _C_SOURCE,
    {
        "profile_sketch": (
            [ctypes.py_object, ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p],
            ctypes.c_int,
        )
    },
    metric="repro_sketchkernel_compile_events_total",
)


def kernel_available() -> bool:
    """True when the fused sketch kernel loaded (compiler present, not gated)."""
    return _KERNEL.available()


def _kernel_sketches(lib, batches) -> "list[StreamProfile]":
    """One :class:`StreamProfile` per item from one fused kernel call.

    The kernel walks the chunk lists itself and reads every chunk in place
    (chunks that are not C-contiguous ``<f8`` are first cast as
    ``np.asarray(c, float64).ravel()`` casts them).
    """
    n_items = len(batches)
    buf = np.empty(7 * n_items)
    base = buf.ctypes.data
    call_walker(
        lib.profile_sketch, batches, n_items, base, base + 48 * n_items, nested=True
    )
    fields = buf[: 6 * n_items].tolist()
    counts = buf[6 * n_items :].view(np.int64).tolist()
    return [
        StreamProfile(counts[i], *fields[6 * i : 6 * i + 6]) for i in range(n_items)
    ]


def profile_stream(chunks: "list[np.ndarray]") -> StreamProfile:
    """Sketch a distributed set: profile each chunk, merge (the allreduce).

    One fused kernel call when the C kernel loaded, bitwise-equal to the
    per-chunk loop it replaces."""
    lib = _KERNEL.load()
    if lib is not None:
        return _kernel_sketches(lib, [chunks])[0]
    total = StreamProfile()
    for c in chunks:
        total.merge(profile_chunk(c))
    return total


def profile_batch(batches) -> "list[StreamProfile] | None":
    """Sketch a whole stream of distributed sets in bulk.

    ``batches[i]`` is one reduction's per-rank chunk list; every returned
    sketch is bitwise-equal to :func:`profile_stream` on the same item.
    With the C kernel loaded the whole stream, ragged or not, is one kernel
    call.  On the NumPy fallback, when every chunk across the stream has
    the same length (the serving-path common case), the per-chunk statistics
    are row sweeps over one packed matrix and the per-item rank merges
    replay the :meth:`StreamProfile.merge` recurrence vectorised across
    items; ragged streams return ``None`` there (callers fall back to the
    per-item loop).
    """
    if not batches:
        return []
    lib = _KERNEL.load()
    if lib is None:
        return _numpy_batch(batches)
    _record_profile_path("ckernel", len(batches))
    return _kernel_sketches(lib, batches)
