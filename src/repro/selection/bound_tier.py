"""Bound-driven selection tier: O(1) analytic certification, no profiling.

The serving path's dominant per-item cost is *empirical profiling* — the
composite-precision sketch (`repro.selection.profile`) costs ~4x the
reduction it informs (BENCH_adaptive.json).  This module implements the
alternative ROADMAP item 4 prescribes: decide from **cheap one-pass
statistics** whether an algorithm's *provable* Hallman–Ipsen error bound
(:func:`repro.metrics.bounds.summation_error_bound`, deterministic or
probabilistic at a requested confidence) already meets the reproducibility
threshold, and skip profiling entirely when it does.

Two properties make the tier safe to run in front of the profiling policy:

1. **Certified statistics.**  The cheap pass computes ``Σ|x|`` and ``Σx``
   with plain (pairwise/sequential) binary64 summation, whose own error is
   bounded by the same Hallman–Ipsen machinery.  That turns the noisy
   estimates into a *certified interval* ``[k_lo, k_hi]`` for the true
   condition number — every bound below is evaluated at the conservative
   end, so a certification is a theorem about the data, not a guess.

2. **Decision agreement.**  A candidate is fast-path certified only when
   (a) its provable bound at ``k_hi`` meets the threshold AND (b) the
   profiling policy's own variability estimate at ``k_hi`` would accept it;
   a candidate is skipped only when the policy's estimate at ``k_lo`` would
   provably reject it.  Anything in between is *inconclusive* and falls
   back to the empirical profiling pipeline unchanged.  Consequently a
   tier-resolved decision always carries the same algorithm code the
   profiling path would have chosen — the fast path changes selection
   *cost*, never selection *outcome* (tests pin this).

The statistics pass is precision-aware: each item carries the unit roundoff
of its input dtype (:func:`item_unit_roundoff`), so fp32/fp16 inputs are
certified against their own roundoff instead of being silently upcast
inside the decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF, exponent, unit_roundoff
from repro.metrics.bounds import summation_error_bound
from repro.metrics.properties import SetProfile
from repro.selection._statskernel import stream_stats as _kernel_stream_stats
from repro.selection.policy import SelectionDecision
from repro.selection.profile import StreamProfile

__all__ = [
    "BoundStats",
    "BoundTier",
    "bound_stats_item",
    "bound_stats_stream",
    "item_unit_roundoff",
]


_ROUNDOFF_BY_DTYPE: "dict" = {}


def item_unit_roundoff(chunks) -> float:
    """Unit roundoff of one reduction's input: the promoted dtype of its
    chunks (fp16 -> 2**-11, fp32 -> 2**-24, fp64 and non-arrays -> 2**-53).

    This is the "no silent upcast in the selection decision" hook: the
    reduction *executes* in binary64 either way, but low-precision scenario
    inputs are selected for at their own roundoff.
    """
    dts = {getattr(c, "dtype", None) for c in chunks}
    if None in dts or not dts:
        return UNIT_ROUNDOFF
    if len(dts) == 1:
        dt = next(iter(dts))
    else:
        dt = np.result_type(*dts)
    u = _ROUNDOFF_BY_DTYPE.get(dt)
    if u is None:
        u = unit_roundoff(dt)
        _ROUNDOFF_BY_DTYPE[dt] = u
    return u


@dataclass(frozen=True)
class BoundStats:
    """One cheap pass over one reduction's operands: everything the bound
    tier needs, nothing the composite-precision profile sketch pays for.

    ``abs_sum`` and ``approx_sum`` are plain binary64 summations (the fused
    kernel's lane-parallel order or NumPy pairwise within chunks, pairwise
    across ranks — any fixed order of height ``<= n-1``); their own
    rounding error is certified by the tier before use.  ``u`` is the input
    dtype's unit roundoff.
    """

    n: int
    max_abs: float
    min_abs_nonzero: float
    abs_sum: float
    approx_sum: float
    u: float

    def dynamic_range_estimate(self) -> int:
        """Exact dr from the extreme magnitudes (0 for all-zero sets)."""
        if not math.isfinite(self.min_abs_nonzero) or self.max_abs == 0.0:  # repro: allow[FP001] -- all-zero input guard
            return 0
        return exponent(self.max_abs) - exponent(self.min_abs_nonzero)

    def as_stream_profile(self) -> StreamProfile:
        """The stats as a (lo-parts-zero) sketch: what the reduce stage and
        the shared-memory result arena consume for fast-path items."""
        return StreamProfile(
            n=self.n,
            max_abs=self.max_abs,
            min_abs_nonzero=self.min_abs_nonzero,
            abs_sum_hi=self.abs_sum,
            abs_sum_lo=0.0,
            sum_hi=self.approx_sum,
            sum_lo=0.0,
        )

    @staticmethod
    def from_stream_profile(sketch: StreamProfile, u: float) -> "BoundStats":
        """Inverse of :meth:`as_stream_profile` (the arena replay path)."""
        return BoundStats(
            n=sketch.n,
            max_abs=sketch.max_abs,
            min_abs_nonzero=sketch.min_abs_nonzero,
            abs_sum=sketch.abs_sum_hi,
            approx_sum=sketch.sum_hi,
            u=u,
        )


def _kernel_stats(batches, us) -> "list[BoundStats] | None":
    """Every item's statistics from one fused-kernel call (``None`` when
    the kernel is unavailable)."""
    cols = _kernel_stream_stats(batches)
    if cols is None:
        return None
    counts, rows = cols[0].tolist(), cols[1].tolist()
    return [
        BoundStats(n, row[2], row[3], row[0], row[1], u)
        for n, row, u in zip(counts, rows, us)
    ]


def bound_stats_item(chunks, u: float) -> BoundStats:
    """Cheap one-pass statistics of one reduction's chunk list.

    Operation order is pinned to match :func:`bound_stats_stream`
    lane-for-lane: the fused kernel makes the identical per-item call on
    either path; on the NumPy fallback each chunk's statistics are NumPy
    pairwise reductions, then one pairwise :func:`np.sum` merges the
    per-rank partials (NumPy's last-axis reduction applies the identical
    pairwise routine to each row of a contiguous matrix, which the
    round-trip test pins), so uniform shards of a ragged stream produce
    bitwise-identical statistics on either path.
    """
    fused = _kernel_stats([chunks], [u])
    if fused is not None:
        return fused[0]
    n_ranks = len(chunks)
    chunk_abs = np.zeros(n_ranks, dtype=np.float64)
    chunk_sum = np.zeros(n_ranks, dtype=np.float64)
    chunk_max = np.zeros(n_ranks, dtype=np.float64)
    chunk_min = np.full(n_ranks, math.inf)
    n = 0
    for j, c in enumerate(chunks):
        arr = np.asarray(c, dtype=np.float64).ravel()
        n += int(arr.size)
        if arr.size:
            a = np.abs(arr)
            chunk_max[j] = a.max()
            chunk_min[j] = np.min(a, initial=math.inf, where=(a > 0.0))
            chunk_abs[j] = np.sum(a)  # repro: allow[FP002] -- cheap-statistics pass; its rounding error is certified by the tier before any use
            chunk_sum[j] = np.sum(arr)  # repro: allow[FP002] -- same certified cheap-statistics pass
    return BoundStats(
        n=n,
        max_abs=float(np.max(chunk_max, initial=0.0)),
        min_abs_nonzero=float(np.min(chunk_min, initial=math.inf)),
        abs_sum=float(np.sum(chunk_abs)),  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
        approx_sum=float(np.sum(chunk_sum)),  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
        u=u,
    )


#: reused pack/abs scratch buffers of the NumPy fallback sweep, keyed by
#: (rows, width): a steady-state serving process sees the same stream shape
#: every call, and reallocating two multi-MB temporaries per call costs more
#: in page faults than the whole statistics computation (same
#: persistent-buffer idiom as the dispatch arenas in repro.util.pool)
_SCRATCH: "dict[tuple[int, int], tuple]" = {}
_SCRATCH_SHAPES_MAX = 4


def _pack_scratch(rows: int, width: int):
    key = (rows, width)
    bufs = _SCRATCH.get(key)
    if bufs is None:
        if len(_SCRATCH) >= _SCRATCH_SHAPES_MAX:
            # Pure scratch: every buffer is fully overwritten before each
            # read, so per-worker copies can only differ in which shapes
            # they have cached, never in any computed value.
            # repro: allow[FP010] -- scratch cache, buffers overwritten before every read
            _SCRATCH.clear()
        flat = np.empty(rows * width, dtype=np.float64)
        bufs = (flat, flat.reshape(rows, width), np.empty((rows, width)))
        _SCRATCH[key] = bufs  # repro: allow[FP010] -- scratch cache, see above
    return bufs


def bound_stats_stream(
    batches, us: Sequence[float]
) -> "list[BoundStats]":
    """Cheap statistics for a whole stream.

    With the fused kernel loaded the stream, ragged or not, is one kernel
    call that reads every chunk once in place.  On the NumPy fallback,
    uniform-width streams (the serving-path common case) pack into one
    reused matrix: ~5 NumPy passes replace the profiling sketch's ~50 (the
    composite-precision ladder); ragged streams take the bitwise-identical
    per-item loop.
    """
    n_items = len(batches)
    if n_items == 0:
        return []
    fused = _kernel_stats(batches, us)
    if fused is not None:
        return fused
    n_ranks = len(batches[0])
    if any(len(chunks) != n_ranks for chunks in batches):
        return [bound_stats_item(chunks, u) for chunks, u in zip(batches, us)]
    if n_ranks == 0:
        return [
            BoundStats(0, 0.0, math.inf, 0.0, 0.0, u) for u in us
        ]
    # np.concatenate consumes the raw chunk objects directly (casting floats
    # itself); any shape the fast pack cannot express falls back to the
    # per-chunk normalising loop below, bitwise-identically.
    chunk_list = [c for chunks in batches for c in chunks]
    rows = n_items * n_ranks
    try:
        sizes = np.fromiter(
            (c.size for c in chunk_list), dtype=np.int64, count=rows
        )
    except AttributeError:  # non-array chunks: normalise one by one
        arrays = [np.asarray(c, dtype=np.float64).ravel() for c in chunk_list]
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=rows)
        chunk_list = arrays
    width = int(sizes[0])
    if not bool((sizes == width).all()):
        return [bound_stats_item(chunks, u) for chunks, u in zip(batches, us)]
    if width:
        flat, matrix, absbuf = _pack_scratch(rows, width)
        try:
            np.concatenate(chunk_list, out=flat)
        except (TypeError, ValueError):
            # e.g. integer dtypes or multi-d chunks the same-kind cast into
            # the flat binary64 buffer cannot take: normalise per chunk
            np.concatenate(
                [np.asarray(c, dtype=np.float64).ravel() for c in chunk_list],
                out=flat,
            )
        np.abs(matrix, out=absbuf)
        row_max = absbuf.max(axis=1)
        # min-nonzero: the plain row min is right wherever no zero occurs
        # (the serving-path common case); only zero-containing rows pay the
        # slower where-masked reduction
        row_min = absbuf.min(axis=1)
        zero_rows = np.nonzero(row_min == 0.0)[0]  # repro: allow[FP001] -- exact sentinel: a zero row-min means the row contains a literal 0.0
        if zero_rows.size:
            sub = absbuf[zero_rows]
            row_min[zero_rows] = np.min(
                sub, axis=1, initial=math.inf, where=(sub > 0.0)
            )
        row_abs = np.sum(absbuf, axis=1)  # repro: allow[FP002] -- cheap-statistics pass; its rounding error is certified by the tier before any use
        row_sum = np.sum(matrix, axis=1)  # repro: allow[FP002] -- same certified cheap-statistics pass
    else:
        row_max = np.zeros(rows, dtype=np.float64)
        row_min = np.full(rows, math.inf)
        row_abs = np.zeros(rows, dtype=np.float64)
        row_sum = np.zeros(rows, dtype=np.float64)

    # the rank merge of bound_stats_item, vectorised over items: max/min are
    # order-independent, and a last-axis pairwise np.sum over the contiguous
    # per-rank partials is bitwise-identical to the per-item 1-D np.sum
    max_tot = row_max.reshape(n_items, n_ranks).max(axis=1)
    min_tot = row_min.reshape(n_items, n_ranks).min(axis=1)
    abs_tot = np.sum(row_abs.reshape(n_items, n_ranks), axis=1)  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
    sum_tot = np.sum(row_sum.reshape(n_items, n_ranks), axis=1)  # repro: allow[FP002] -- pairwise merge of the certified statistics pass
    n_total = n_ranks * width
    return [
        BoundStats(
            n=n_total,
            max_abs=float(max_tot[i]),
            min_abs_nonzero=float(min_tot[i]),
            abs_sum=float(abs_tot[i]),
            approx_sum=float(sum_tot[i]),
            u=us[i],
        )
        for i in range(n_items)
    ]


@dataclass(frozen=True)
class BoundTier:
    """The O(1) analytic selection tier.

    ``confidence`` parameterises the probabilistic (martingale) bounds:
    ``1.0`` (default) certifies only against the deterministic worst case;
    ``0.999999`` allows the ``sqrt(n)``-scaled probabilistic forms, which
    is what certifies large well-conditioned reductions at serving-grade
    thresholds.  Frozen and picklable — the shard workers carry it into the
    pool and the parent replays it for the bitwise-identity audit.
    """

    confidence: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")

    @staticmethod
    def engages(policy) -> bool:
        """The tier can only front policies it can reason about: cheapest-
        first walkers exposing ``candidates``, a vectorised ``model`` and a
        ``cost_model`` (:class:`AnalyticPolicy` opts in)."""
        return bool(getattr(policy, "supports_bound_tier", False))

    def decide_stream(
        self,
        stats: Sequence[BoundStats],
        threshold: float,
        policy,
    ) -> "list[SelectionDecision | None]":
        """Resolve what can be *proved*; return ``None`` where profiling
        must decide.

        Walks the policy's candidates cheapest-first with three vectorised
        verdicts per candidate: **certify** (provable bound and the
        policy's own estimate both meet the threshold at the conservative
        ``k_hi``), **reject** (the policy's estimate provably misses the
        threshold even at ``k_lo`` — keep walking), or **inconclusive**
        (fall back to empirical profiling for this item).  Items whose every
        candidate is provably rejected resolve to the policy's documented
        most-robust fall-through.
        """
        n_items = len(stats)
        if n_items == 0:
            return []
        n = np.array([s.n for s in stats], dtype=np.float64)
        abs_sum = np.array([s.abs_sum for s in stats], dtype=np.float64)
        sum_mag = np.abs(np.array([s.approx_sum for s in stats], dtype=np.float64))
        u = np.array([s.u for s in stats], dtype=np.float64)

        # certify the cheap statistics themselves: the stats pass ran in
        # binary64 with tree height <= n-1, so its own error is bounded by
        # the Hallman–Ipsen deterministic form at u = 2**-53
        eps = np.expm1(np.maximum(n - 1.0, 0.0) * math.log1p(UNIT_ROUNDOFF))
        with np.errstate(divide="ignore", invalid="ignore"):
            abs_hi = np.where(eps < 1.0, abs_sum / (1.0 - eps), math.inf)
            stat_err = eps * abs_hi
            denom = sum_mag - stat_err
            k_hi = np.where(denom > 0.0, abs_hi / denom, math.inf)
            k_lo = np.where(
                sum_mag + stat_err > 0.0,
                np.maximum((abs_sum / (1.0 + eps)) / (sum_mag + stat_err), 1.0),
                1.0,
            )

        shape = getattr(policy, "shape", "balanced")
        model = policy.model
        candidates = list(policy.candidates)
        resolved = np.full(n_items, -1, dtype=np.int64)
        predicted = np.zeros(n_items, dtype=np.float64)
        active = np.ones(n_items, dtype=bool)
        bounds_by_code: "dict[str, np.ndarray]" = {}
        for ci, code in enumerate(candidates):
            if not np.any(active):
                break
            try:
                bound_hi = np.asarray(
                    summation_error_bound(
                        code, n, k_hi, 1.0, u, confidence=self.confidence
                    )
                )
            except KeyError:
                bound_hi = np.full(n_items, math.inf)
            bounds_by_code[code] = bound_hi
            est_hi = model.predict_std_array(code, n, k_hi, shape=shape, u=u)
            est_lo = model.predict_std_array(code, n, k_lo, shape=shape, u=u)
            certify = active & (bound_hi <= threshold) & (est_hi <= threshold)
            resolved[certify] = ci
            predicted[certify] = bound_hi[certify]
            reject = active & ~certify & (est_lo > threshold)
            active &= reject
        # every candidate provably rejected: the policy's documented
        # fall-through picks the most robust candidate regardless
        if np.any(active):
            last = len(candidates) - 1
            last_bound = bounds_by_code[candidates[last]]
            resolved[active] = last
            predicted[active] = last_bound[active]

        decisions: "list[SelectionDecision | None]" = [None] * n_items
        relative_costs = policy.cost_model.relative
        # per-item Python below: read every array once as a list
        k_hi_l, predicted_l = k_hi.tolist(), predicted.tolist()
        bound_l = {c: b.tolist() for c, b in bounds_by_code.items()}
        for i in np.nonzero(resolved >= 0)[0].tolist():
            ci = int(resolved[i])
            code = candidates[ci]
            s = stats[i]
            profile = SetProfile(
                s.n, k_hi_l[i], s.dynamic_range_estimate(), s.max_abs, s.abs_sum
            )
            decisions[i] = SelectionDecision(
                code,
                threshold,
                predicted_l[i],
                profile,
                {c: bound_l[c][i] for c in candidates[: ci + 1]},
                relative_costs.get(code, math.nan),
                "bound",
                s.u,
            )
        return decisions

    def decide_item(
        self, stats: BoundStats, threshold: float, policy
    ) -> "SelectionDecision | None":
        """Single-item :meth:`decide_stream` (all lanes are independent, so
        this is bitwise-identical to the item's lane in a stream call)."""
        return self.decide_stream([stats], threshold, policy)[0]
