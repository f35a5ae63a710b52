"""AdaptiveReducer: end-to-end intelligent runtime selection.

This is the system the paper argues for (Sec. V.D): "estimable quantities
such as condition number and dynamic range can guide runtime selection of a
reduction operator with the appropriate performance/reproducibility tradeoff
for the application at hand."

Pipeline per reduction:

0. **Bound tier** (optional, ``bound_confidence=...``) — O(1) Hallman–Ipsen
   analytic certification from one cheap statistics pass
   (:mod:`repro.selection.bound_tier`).  When the provable error bound of
   the policy's cheapest acceptable algorithm already meets the threshold,
   steps 1–2 are skipped entirely; the tier only resolves items where it
   can *prove* the profiling policy would pick the same code, so enabling
   it never changes a selection outcome — only its cost.
1. **Profile** — every rank sketches its chunk in one vectorised pass; the
   sketches merge in an (exactly associative) allreduce.
2. **Select** — a policy (analytic model or calibrated grid classifier)
   picks the cheapest algorithm whose predicted variability meets the
   application's tolerance.
3. **Reduce** — the chosen algorithm's accumulator runs as a custom op
   through the simulated communicator; for PR the max from step 1 doubles
   as the pre-pass, so no extra data pass is needed.

Selection is precision-aware end to end: each item's unit roundoff is taken
from its input dtype (fp16/fp32/fp64), threaded through the bound tier, the
policy query and the decision cache key, so low-precision scenario inputs
are never silently upcast inside the decision (execution stays binary64).

The returned :class:`AdaptiveResult` carries the decision record so
applications (and our benches) can audit what was chosen and why.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.fp.properties import UNIT_ROUNDOFF
from repro.metrics.properties import SetProfile
from repro.mpi.comm import ReduceResult, SimComm
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import tree_cost
from repro.obs import get_registry
from repro.selection.bound_tier import (
    BoundStats,
    BoundTier,
    bound_stats_item,
    bound_stats_stream,
    item_unit_roundoff,
)
from repro.selection.policy import AnalyticPolicy, SelectionDecision
from repro.selection.profile import StreamProfile, profile_batch, profile_stream
from repro.summation.base import SumContext
from repro.summation.registry import all_algorithms, get_algorithm
from repro.trees.tree import ReductionTree
from repro.util.chunking import split_indices
from repro.util.pool import arena_pair, arena_view, get_pool, shard_plan
from repro.util.timing import Stopwatch

__all__ = ["Policy", "AdaptiveResult", "AdaptiveReducer"]

_OBS = get_registry()

#: default decision-cache capacity: one serving process sees a bounded set
#: of (n, k-decade, dr, threshold) signatures in steady state; 4096 covers
#: the whole Fig. 12 grid cross every threshold the benches use with room
#: to spare, while bounding a pathological high-cardinality stream
DEFAULT_DECISION_CACHE_SIZE = 4096


class Policy(Protocol):
    """Anything that can turn (profile, threshold) into a decision."""

    def select(self, profile: SetProfile, threshold: float) -> SelectionDecision:
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class AdaptiveResult:
    """Reduction value plus the audited decision that produced it."""

    value: float
    decision: SelectionDecision
    reduce_result: ReduceResult
    profile_seconds: float
    reduce_seconds: float


class AdaptiveReducer:
    """Profile -> select -> reduce over a simulated communicator."""

    def __init__(
        self,
        comm: SimComm,
        policy: "Policy | None" = None,
        *,
        threshold: float = 1e-13,
        cache_size: int = DEFAULT_DECISION_CACHE_SIZE,
        bound_confidence: "float | None" = None,
    ) -> None:
        """``bound_confidence`` enables the O(1) analytic fast path:
        ``1.0`` certifies against deterministic Hallman–Ipsen bounds only,
        values in ``(0, 1)`` additionally admit the probabilistic
        (martingale) bounds at that confidence.  ``None`` (default)
        disables the tier — the pipeline is exactly the classic
        profile → select → reduce."""
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.comm = comm
        self.policy = policy if policy is not None else AnalyticPolicy()
        self.threshold = threshold
        self.cache_size = int(cache_size)
        self.bound_tier = (
            BoundTier(confidence=float(bound_confidence))
            if bound_confidence is not None
            else None
        )
        self._decision_cache: "OrderedDict[tuple, SelectionDecision]" = OrderedDict()
        # Serialises cache lookup/insert and the hit/miss/eviction counters:
        # the serving daemon drives one reducer from executor threads, and
        # unlocked OrderedDict mutation + read-modify-write counters would
        # drift under interleaving (the concurrency tests reconcile
        # hits + misses == queries exactly).  The policy query itself runs
        # outside the lock — it is deterministic, so two racing misses on the
        # same key compute the same decision and the second insert is benign.
        self._cache_lock = threading.Lock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._cache_invalidations = 0

    @property
    def bound_confidence(self) -> "float | None":
        return None if self.bound_tier is None else self.bound_tier.confidence

    def _engaged_bound_tier(self) -> "BoundTier | None":
        """The tier, iff enabled *and* the policy opts in (the tier must be
        able to prove agreement with the policy's own accept/reject walk)."""
        if self.bound_tier is not None and BoundTier.engages(self.policy):
            return self.bound_tier
        return None

    def profile(self, chunks: Sequence[np.ndarray]) -> StreamProfile:
        """Step 1: sketch + allreduce-merge (:func:`profile_stream`)."""
        return profile_stream(chunks)

    def reduce(
        self,
        chunks: Sequence[np.ndarray],
        *,
        threshold: "float | None" = None,
        tree: "ReductionTree | str" = "topology",
        nondeterministic: bool = False,
    ) -> AdaptiveResult:
        """Adaptively reduce distributed data to one double.

        ``nondeterministic=True`` routes through the arrival-order reduce,
        modelling a production run whose tree the application cannot pin.

        With the bound tier enabled (``bound_confidence=...``), items whose
        cheapest acceptable algorithm is provably certified by a
        Hallman–Ipsen bound skip the profiling sketch entirely — the cheap
        statistics pass doubles as the PR pre-pass, so the fast path costs
        one data scan instead of the sketch's composite-precision ladder.
        The tier never resolves an item unless the profiling policy would
        provably pick the same code, so results are identical either way.
        Tier decisions bypass the decision cache (they are exact, not
        decade-bucketed).  Arrival-order (``nondeterministic``) reductions
        always take the profiling path: their conservative tree-shape hint
        is the policy's business, not the bound tier's.
        """
        t = self.threshold if threshold is None else threshold
        if t < 0:
            raise ValueError("threshold must be >= 0")
        u = item_unit_roundoff(chunks)
        tier = None if nondeterministic else self._engaged_bound_tier()
        decision = None
        bound_elapsed = 0.0
        select_elapsed = 0.0
        if tier is not None:
            with Stopwatch() as sw_bound:
                stats = bound_stats_item(chunks, u)
                decision = tier.decide_item(stats, t, self.policy)
            bound_elapsed = sw_bound.elapsed
        if decision is not None:
            sketch = stats.as_stream_profile()
            profile_elapsed = bound_elapsed
        else:
            with Stopwatch() as sw_profile:
                sketch = self.profile(chunks)
                with Stopwatch() as sw_select:
                    precision_aware = getattr(
                        self.policy, "supports_unit_roundoff", False
                    )
                    u_kw = {"u": u} if precision_aware else {}
                    if nondeterministic and getattr(
                        self.policy, "supports_shape_hint", False
                    ):
                        # arrival-order trees have unknown (chain-heavy)
                        # shapes: profile the tree-shape parameter
                        # conservatively, as the paper's list of profiled
                        # quantities (n, k, dr, tree shape) prescribes
                        decision = self.policy.select(
                            sketch.as_set_profile(), t, shape="unknown", **u_kw
                        )
                    else:
                        decision = self.policy.select(
                            sketch.as_set_profile(), t, **u_kw
                        )
            profile_elapsed = bound_elapsed + sw_profile.elapsed
            select_elapsed = sw_select.elapsed
        algorithm = get_algorithm(decision.code)
        # Reuse the profile's global max as PR's pre-pass: no extra data scan.
        context = (
            SumContext(max_abs=sketch.max_abs, n_hint=sketch.n)
            if algorithm.needs_context
            else None
        )
        op = make_reduction_op(algorithm, context)
        with Stopwatch() as sw_reduce:
            if nondeterministic:
                result = self.comm.reduce_nondeterministic(chunks, op)
            else:
                result = self.comm.reduce(chunks, op, tree)
        if _OBS.enabled:
            _OBS.counter(
                "repro_selector_selections_total", algorithm=decision.code
            ).inc()
            if tier is not None:
                if decision.tier == "bound":
                    _OBS.counter("repro_select_bound_fast_path_total").inc()
                else:
                    _OBS.counter("repro_select_profile_fallback_total").inc()
                _OBS.histogram("repro_selector_bound_seconds").observe(
                    bound_elapsed
                )
            _OBS.histogram("repro_selector_profile_seconds").observe(
                profile_elapsed
            )
            _OBS.histogram("repro_selector_select_seconds").observe(
                select_elapsed
            )
            _OBS.histogram("repro_selector_reduce_seconds").observe(
                sw_reduce.elapsed
            )
        return AdaptiveResult(
            value=result.value,
            decision=decision,
            reduce_result=result,
            profile_seconds=profile_elapsed,
            reduce_seconds=sw_reduce.elapsed,
        )

    # -- batched serving path --------------------------------------------------
    def reduce_many(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        *,
        threshold: "float | None" = None,
        tree: "ReductionTree | str" = "topology",
        workers: "int | None" = None,
    ) -> "list[AdaptiveResult]":
        """Adaptively reduce a stream of independent reductions in bulk.

        The serving path: the stream profiles in one call
        (:func:`repro.selection.profile.profile_batch`: the fused C sketch
        kernel, or a vectorised NumPy sweep, both bitwise-equal to per-item
        profiling), every item's decision is a fresh policy query on its
        exact sketch (the decision cache only counts how often a signature
        — ``n``, condition-number decade, dynamic range, threshold — saw
        the same decision again; it never replaces the query),
        and items choosing the same algorithm execute together through
        :meth:`SimComm.reduce_batch`, so packing, schedule compilation and
        kernel dispatch are paid once per algorithm instead of once per
        item.  Context-needing algorithms (PR) keep their per-item pre-pass.

        ``workers`` adds the multicore axis: the item stream splits into
        contiguous shards, each shard runs the full profile → select →
        grouped-reduce pipeline in a persistent worker process (operands
        ship zero-copy through shared memory), and the reassembled results
        are *bitwise-identical* to the serial path — every item's reduction
        is independent, so sharding cannot change any value or decision.
        ``workers=None`` defers to ``REPRO_WORKERS``/cpu-count behind an
        adaptive bytes-and-items cutover (small batches never pay IPC);
        an explicit ``workers >= 2`` always parallelises; ``workers<=1``
        forces the serial path.  Workers write values, decision codes and
        profile sketches straight into a persistent shared-memory result
        arena; the parent replays selection from those sketches in stream
        order, so :meth:`decision_cache_info` reflects parallel calls too
        and any worker/parent decision drift raises instead of passing
        silently.

        Each item's value is bitwise-equal to a standalone :meth:`reduce`
        with the same decision; ``profile_seconds``/``reduce_seconds`` are
        the *amortised* per-item costs (phase total / number of items).
        """
        t = self.threshold if threshold is None else threshold
        if t < 0:
            raise ValueError("threshold must be >= 0")
        if not batches:
            return []
        us = [item_unit_roundoff(chunks) for chunks in batches]
        pool_workers, n_shards = shard_plan(
            len(batches), _payload_bytes(batches), workers
        )
        if n_shards > 1:
            return self._reduce_many_parallel(
                batches, t, tree, pool_workers, n_shards, us
            )
        sketches, decisions, bound_elapsed, profile_elapsed, select_elapsed = (
            self._tiered_sketch_and_select(batches, t, us)
        )
        results, groups, reduce_elapsed = self._grouped_reduce(
            batches, sketches, decisions, tree
        )
        if _OBS.enabled:
            for code, indices in groups.items():
                _OBS.counter(
                    "repro_selector_selections_total", algorithm=code
                ).inc(len(indices))
            if self._engaged_bound_tier() is not None:
                n_fast = sum(1 for d in decisions if d.tier == "bound")
                _OBS.counter("repro_select_bound_fast_path_total").inc(n_fast)
                _OBS.counter("repro_select_profile_fallback_total").inc(
                    len(decisions) - n_fast
                )
                _OBS.histogram("repro_selector_bound_seconds").observe(
                    bound_elapsed
                )
            _OBS.histogram("repro_selector_profile_seconds").observe(
                bound_elapsed + profile_elapsed
            )
            _OBS.histogram("repro_selector_select_seconds").observe(
                select_elapsed
            )
            _OBS.histogram("repro_selector_reduce_seconds").observe(
                reduce_elapsed
            )
        n_items = len(batches)
        profile_each = (bound_elapsed + profile_elapsed) / n_items
        reduce_each = reduce_elapsed / n_items
        return [
            AdaptiveResult(
                value=rr.value,
                decision=decision,
                reduce_result=rr,
                profile_seconds=profile_each,
                reduce_seconds=reduce_each,
            )
            for rr, decision in zip(results, decisions)
        ]

    def _sketch_and_select(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        threshold: float,
        us: "Sequence[float] | None" = None,
    ) -> tuple:
        """Steps 1+2 for a stream: ``(sketches, decisions, profile elapsed,
        select elapsed)``.  Shared by the serial serving path and the shard
        workers so both run the exact same pipeline.  ``us`` carries each
        item's input-dtype unit roundoff into the policy query (``None``
        means binary64 throughout)."""
        with Stopwatch() as sw_profile:
            # one kernel call (or, on the NumPy fallback, one vectorised
            # sweep for uniform widths), bitwise-equal to the per-item
            # loop, which only ragged streams on the fallback still take
            sketches = profile_batch(batches)
            if sketches is None:
                sketches = [self.profile(chunks) for chunks in batches]
            with Stopwatch() as sw_select:
                if us is None:
                    us = [UNIT_ROUNDOFF] * len(sketches)
                decisions = [
                    self._select_cached(sk, threshold, u)
                    for sk, u in zip(sketches, us)
                ]
        return sketches, decisions, sw_profile.elapsed, sw_select.elapsed

    def _tiered_sketch_and_select(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        threshold: float,
        us: Sequence[float],
    ) -> tuple:
        """Steps 0+1+2 for a stream: ``(sketches, decisions, bound elapsed,
        profile elapsed, select elapsed)``.

        With the bound tier engaged, the cheap statistics sweep runs first
        and the expensive profiling sketch only touches the *inconclusive*
        items; per-item results are position-independent, so profiling a
        fallback subset is bitwise-identical to profiling those items inside
        the full stream.  Tier-resolved items reuse their statistics as a
        (lo-parts-zero) sketch — exactly what the reduce stage and the PR
        pre-pass need."""
        tier = self._engaged_bound_tier()
        if tier is None:
            sketches, decisions, profile_elapsed, select_elapsed = (
                self._sketch_and_select(batches, threshold, us)
            )
            return sketches, decisions, 0.0, profile_elapsed, select_elapsed
        with Stopwatch() as sw_bound:
            stats = bound_stats_stream(batches, us)
            tier_decisions = tier.decide_stream(stats, threshold, self.policy)
        n_items = len(batches)
        sketches: "list[StreamProfile | None]" = [None] * n_items
        decisions: "list[SelectionDecision | None]" = list(tier_decisions)
        fallback = []
        for i, d in enumerate(tier_decisions):
            if d is None:
                fallback.append(i)
            else:
                sketches[i] = stats[i].as_stream_profile()
        profile_elapsed = 0.0
        select_elapsed = 0.0
        if fallback:
            fb_sketches, fb_decisions, profile_elapsed, select_elapsed = (
                self._sketch_and_select(
                    [batches[i] for i in fallback],
                    threshold,
                    [us[i] for i in fallback],
                )
            )
            for j, i in enumerate(fallback):
                sketches[i] = fb_sketches[j]
                decisions[i] = fb_decisions[j]
        return sketches, decisions, sw_bound.elapsed, profile_elapsed, select_elapsed

    def _grouped_reduce(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        sketches: "list[StreamProfile]",
        decisions: "list[SelectionDecision]",
        tree: "ReductionTree | str",
    ) -> tuple:
        """Step 3 for a stream: same-decision items execute together.

        Returns ``(per-item ReduceResults, {code: indices}, elapsed)``.
        Context-needing algorithms (PR) keep their per-item pre-pass.
        """
        groups: "dict[str, list[int]]" = {}
        for i, decision in enumerate(decisions):
            groups.setdefault(decision.code, []).append(i)
        results: "list[ReduceResult | None]" = [None] * len(batches)
        with Stopwatch() as sw_reduce:
            for code, indices in groups.items():
                algorithm = get_algorithm(code)
                if algorithm.needs_context:
                    for i in indices:
                        sk = sketches[i]
                        op = make_reduction_op(
                            algorithm, SumContext(max_abs=sk.max_abs, n_hint=sk.n)
                        )
                        results[i] = self.comm.reduce(batches[i], op, tree)
                else:
                    op = make_reduction_op(algorithm)
                    group_results = self.comm.reduce_batch(
                        [batches[i] for i in indices], op, tree
                    )
                    for i, rr in zip(indices, group_results):
                        results[i] = rr
        return results, groups, sw_reduce.elapsed

    def _reduce_many_parallel(
        self,
        batches: Sequence[Sequence[np.ndarray]],
        threshold: float,
        tree: "ReductionTree | str",
        pool_workers: int,
        n_shards: int,
        us: Sequence[float],
    ) -> "list[AdaptiveResult]":
        """Shard the stream over the persistent pool (bitwise = serial path).

        Operands pack once into the persistent **input arena** (lengths,
        per-item rank counts, per-item unit roundoffs, then every chunk's
        float64 bytes); workers slice zero-copy views out of their cached
        attachment and run the same :meth:`_tiered_sketch_and_select` +
        :meth:`_grouped_reduce` pipeline the serial path uses.  Results come
        back through the **result arena** — value, decision-code index,
        bound-tier flag, the 7 profile-sketch fields per item plus three
        phase timings per shard — so the pickle pipe only carries ``None``.
        The parent rebuilds each :class:`StreamProfile` from the arena and
        replays the selection in stream order — bound-tier items re-run
        :meth:`BoundTier.decide_stream` on their round-tripped statistics,
        profiling items replay :meth:`_select_cached` — so the decision
        sequence (and the parent's cache statistics) are exactly what a
        serial run would produce, and a mismatch against the
        worker-recorded code raises instead of passing silently.  Chunks are
        normalised with the same ``np.asarray(..., float64)`` coercion the
        serial pipeline applies, so worker inputs are bit-identical to what
        the serial path would profile and reduce.
        """
        flats: "list[np.ndarray]" = []
        lengths: "list[int]" = []
        ranks: "list[int]" = []
        for chunks in batches:
            ranks.append(len(chunks))
            for c in chunks:
                # normalise without materialising: asarray of an f8 chunk —
                # including a memoryview-backed slice of a socket receive
                # buffer — is a view, and write_concat below is the single
                # copy (straight into the shared input arena).  The old
                # ascontiguousarray staging copy doubled every ingest.
                a = np.asarray(c, dtype=np.float64)
                if a.ndim != 1:
                    a = a.ravel()
                flats.append(a)
                lengths.append(a.size)
        n_items = len(batches)
        n_chunks = len(flats)
        total = int(sum(lengths))  # repro: allow[FP002] -- integer chunk-length count, not an FP reduction
        shards = split_indices(n_items, n_shards)
        pool = get_pool(pool_workers)
        code_table = tuple(alg.code for alg in all_algorithms())
        # input arena: [lengths i64 x n_chunks][ranks i64 x n_items]
        # [u f64 x n_items][flat f64]
        # result arena: [values f64][code idx i64][bound-tier flag i64]
        # [sketch n i64][sketch f64 x6] per item (80 B), then
        # [bound_s, profile_s, reduce_s] f64 per shard (24 B)
        in_bytes = 8 * (n_chunks + 2 * n_items + total)
        res_bytes = 80 * n_items + 24 * len(shards)
        with arena_pair() as (arena_in, arena_res):
            in_handle = arena_in.reserve(in_bytes)
            res_handle = arena_res.reserve(res_bytes)
            arena_in.write(np.asarray(lengths, dtype=np.int64))
            arena_in.write(
                np.asarray(ranks, dtype=np.int64), offset=8 * n_chunks
            )
            arena_in.write(
                np.asarray(us, dtype=np.float64),
                offset=8 * (n_chunks + n_items),
            )
            arena_in.write_concat(
                flats, total, np.float64, offset=8 * (n_chunks + 2 * n_items)
            )
            payloads = [
                (
                    in_handle,
                    res_handle,
                    n_items,
                    n_chunks,
                    total,
                    s.start,
                    s.stop,
                    shard_index,
                    self.comm,
                    self.policy,
                    threshold,
                    self.cache_size,
                    tree,
                    code_table,
                    self.bound_confidence,
                )
                for shard_index, s in enumerate(shards)
            ]
            pool.map(_reduce_many_shard, payloads, chunksize=1, path="reduce_many")
            values = arena_res.read(np.float64, (n_items,))
            code_idx = arena_res.read(np.int64, (n_items,), offset=8 * n_items)
            tier_flag = arena_res.read(np.int64, (n_items,), offset=16 * n_items)
            sk_n = arena_res.read(np.int64, (n_items,), offset=24 * n_items)
            sk_f = arena_res.read(np.float64, (n_items, 6), offset=32 * n_items)
            stats = arena_res.read(
                np.float64, (len(shards), 3), offset=80 * n_items
            )
        sketches = [
            StreamProfile(
                n=int(sk_n[i]),
                max_abs=float(sk_f[i, 0]),
                min_abs_nonzero=float(sk_f[i, 1]),
                abs_sum_hi=float(sk_f[i, 2]),
                abs_sum_lo=float(sk_f[i, 3]),
                sum_hi=float(sk_f[i, 4]),
                sum_lo=float(sk_f[i, 5]),
            )
            for i in range(n_items)
        ]
        # replay the bound tier for all flagged items in one vectorised call
        # (tier lanes are independent, so batching cannot change any lane)
        tier = self._engaged_bound_tier()
        tier_items = [i for i in range(n_items) if tier_flag[i]]
        tier_replayed: "dict[int, SelectionDecision | None]" = {}
        if tier_items:
            if tier is None:
                raise RuntimeError(
                    "parallel decision drift: workers used the bound tier "
                    "but it is not engaged on the parent"
                )
            replay_stats = [
                BoundStats.from_stream_profile(sketches[i], us[i])
                for i in tier_items
            ]
            replay_decisions = tier.decide_stream(
                replay_stats, threshold, self.policy
            )
            tier_replayed = dict(zip(tier_items, replay_decisions))
        tree_resolved = self.comm._resolve_tree(tree)
        cost = (
            tree_cost(tree_resolved, self.comm.topology)
            if self.comm.topology
            else 0.0
        )
        results: "list[AdaptiveResult]" = []
        by_code: "dict[str, int]" = {}
        n_fast = 0
        bound_elapsed_total = 0.0
        for shard_index, s in enumerate(shards):
            span = s.stop - s.start
            bound_elapsed_total += float(stats[shard_index, 0])  # repro: allow[FP003] -- wall-clock telemetry aggregate, not a numerical result
            profile_each = (
                float(stats[shard_index, 0]) + float(stats[shard_index, 1])
            ) / span
            reduce_each = float(stats[shard_index, 2]) / span
            for i in range(s.start, s.stop):
                if tier_flag[i]:
                    decision = tier_replayed[i]
                    if decision is None:
                        raise RuntimeError(
                            f"parallel decision drift at item {i}: worker "
                            "bound tier resolved it, parent replay fell back"
                        )
                    n_fast += 1
                else:
                    decision = self._select_cached(sketches[i], threshold, us[i])
                worker_code = code_table[int(code_idx[i])]
                if decision.code != worker_code:
                    raise RuntimeError(
                        f"parallel decision drift at item {i}: worker chose "
                        f"{worker_code!r}, parent replay chose {decision.code!r}"
                    )
                value = float(values[i])
                results.append(
                    AdaptiveResult(
                        value=value,
                        decision=decision,
                        reduce_result=ReduceResult(
                            value=value,
                            tree=tree_resolved,
                            simulated_time=cost,
                            algorithm_code=decision.code,
                        ),
                        profile_seconds=profile_each,
                        reduce_seconds=reduce_each,
                    )
                )
                by_code[decision.code] = by_code.get(decision.code, 0) + 1
        if _OBS.enabled:
            for code, count in by_code.items():
                _OBS.counter(
                    "repro_selector_selections_total", algorithm=code
                ).inc(count)
            if tier is not None:
                _OBS.counter("repro_select_bound_fast_path_total").inc(n_fast)
                _OBS.counter("repro_select_profile_fallback_total").inc(
                    n_items - n_fast
                )
                _OBS.histogram("repro_selector_bound_seconds").observe(
                    bound_elapsed_total
                )
        return results

    def _select_cached(
        self,
        sketch: StreamProfile,
        threshold: float,
        u: float = UNIT_ROUNDOFF,
    ) -> SelectionDecision:
        """Policy query with a *validated* decision-granular LRU cache.

        The cache key is decade-granular (``n``, k-decade, dr, threshold,
        u) — but selection itself is a step function of the *exact*
        condition estimate, so two bucket-mates can legitimately straddle a
        selection boundary.  Serving a bucket-mate's memoised decision made
        a served value depend on request **arrival order** (the repro-serve
        bench caught exactly that: two of 64 borderline items flipped
        algorithm with the daemon's cache warm in a different order).  The
        policy query costs ~10us against the profiling sketch's
        milliseconds, so the query always runs on the item's own exact
        profile; a cache entry counts as a **hit** only when it agrees with
        that query, and a disagreeing entry is replaced (counted in
        ``invalidations``).  Every returned decision is therefore identical
        to what a cold standalone :meth:`reduce` of the same item computes,
        regardless of what was served before it.

        The cache is an LRU capped at ``cache_size`` entries: a long-lived
        serving process that sweeps many (n, k-decade, dr, threshold)
        signatures evicts the coldest decision instead of growing without
        bound.  ``u`` is the item's input-dtype unit roundoff: it joins the
        cache key (an fp16 stream must never alias a binary64 stream's
        cached decision) and is forwarded to precision-aware policies.
        """
        key = self._decision_key(sketch, threshold, u)
        with self._cache_lock:
            cached = self._decision_cache.get(key)
            if cached is not None:
                self._decision_cache.move_to_end(key)
        if getattr(self.policy, "supports_unit_roundoff", False):
            decision = self.policy.select(sketch.as_set_profile(), threshold, u=u)
        else:
            decision = self.policy.select(sketch.as_set_profile(), threshold)
        if cached is not None and cached.code == decision.code:
            with self._cache_lock:
                self._cache_hits += 1
            if _OBS.enabled:
                _OBS.counter("repro_selector_decision_cache_hits_total").inc()
            return decision
        evictions = 0
        with self._cache_lock:
            self._cache_misses += 1
            if cached is not None:
                self._cache_invalidations += 1
            self._decision_cache[key] = decision
            while len(self._decision_cache) > self.cache_size:
                self._decision_cache.popitem(last=False)
                self._cache_evictions += 1
                evictions += 1
        if _OBS.enabled:
            _OBS.counter("repro_selector_decision_cache_misses_total").inc()
            if cached is not None:
                _OBS.counter(
                    "repro_selector_decision_cache_invalidations_total"
                ).inc()
            if evictions:
                _OBS.counter(
                    "repro_selector_decision_cache_evictions_total"
                ).inc(evictions)
        return decision

    def _decision_key(
        self, sketch: StreamProfile, threshold: float, u: float = UNIT_ROUNDOFF
    ) -> tuple:
        """Decision-granular cache key: ``(n, k-decade, dr, threshold, u,
        bound confidence)``.  The unit roundoff axis keeps fp32/fp16 streams
        from aliasing binary64 decisions; the confidence axis keeps caches
        honest if the same reducer is reconfigured across tier settings."""
        k = sketch.condition_estimate()
        if math.isinf(k):
            decade: "int | str" = "inf"
        elif k > 0.0:
            decade = int(math.floor(math.log10(k)))
        else:
            decade = 0
        return (
            sketch.n,
            decade,
            sketch.dynamic_range_estimate(),
            float(threshold),
            float(u),
            self.bound_confidence,
        )

    def decision_cache_info(self) -> dict:
        """Cache statistics: ``{"size", "max_size", "hits", "misses",
        "evictions"}``."""
        with self._cache_lock:
            return {
                "size": len(self._decision_cache),
                "max_size": self.cache_size,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "invalidations": self._cache_invalidations,
            }

    def clear_decision_cache(self) -> None:
        with self._cache_lock:
            self._decision_cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0
            self._cache_evictions = 0
            self._cache_invalidations = 0


def _payload_bytes(batches: Sequence[Sequence[np.ndarray]]) -> int:
    """Total float64 bytes a stream would ship to workers (cutover input)."""
    total = 0
    for chunks in batches:
        for c in chunks:
            nbytes = getattr(c, "nbytes", None)
            total += int(nbytes) if nbytes is not None else len(c) * 8
    return total


def _reduce_many_shard(payload: tuple) -> None:
    """Worker: run the serving pipeline on one shard, writing results
    straight into the shared result arena.

    Rebuilds the reducer from its picklable spec (communicator, policy,
    threshold, cache size), slices zero-copy chunk views for items
    ``[start, stop)`` out of the cached input-arena attachment
    (:func:`repro.util.pool.arena_view` — attach once per arena epoch, not
    once per task), and writes values, decision-code indices, the 7
    profile-sketch fields per item and the shard's phase timings into the
    result arena, so nothing but ``None`` returns through the pickle pipe.
    Every arena view is dropped before returning: a lingering view would
    block the attachment swap on the next arena regrow epoch.
    """
    (
        in_handle,
        res_handle,
        n_items,
        n_chunks,
        total,
        start,
        stop,
        shard_index,
        comm,
        policy,
        threshold,
        cache_size,
        tree,
        code_table,
        bound_confidence,
    ) = payload
    lengths = arena_view(in_handle, np.int64, (n_chunks,))
    ranks = arena_view(in_handle, np.int64, (n_items,), offset=8 * n_chunks)
    us_all = arena_view(
        in_handle, np.float64, (n_items,), offset=8 * (n_chunks + n_items)
    )
    flat = arena_view(
        in_handle, np.float64, (total,), offset=8 * (n_chunks + 2 * n_items)
    )
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    chunk_base = np.concatenate(([0], np.cumsum(ranks)))
    batches = []
    for i in range(start, stop):
        c0, c1 = int(chunk_base[i]), int(chunk_base[i + 1])
        batches.append(
            [flat[int(offsets[j]) : int(offsets[j + 1])] for j in range(c0, c1)]
        )
    us = [float(us_all[i]) for i in range(start, stop)]
    reducer = AdaptiveReducer(
        comm,
        policy,
        threshold=threshold,
        cache_size=cache_size,
        bound_confidence=bound_confidence,
    )
    sketches, decisions, bound_elapsed, profile_elapsed, _select_elapsed = (
        reducer._tiered_sketch_and_select(batches, threshold, us)
    )
    results, _groups, reduce_elapsed = reducer._grouped_reduce(
        batches, sketches, decisions, tree
    )
    code_index = {code: idx for idx, code in enumerate(code_table)}
    span = slice(start, stop)
    values_v = arena_view(res_handle, np.float64, (n_items,))
    codes_v = arena_view(res_handle, np.int64, (n_items,), offset=8 * n_items)
    tier_v = arena_view(res_handle, np.int64, (n_items,), offset=16 * n_items)
    skn_v = arena_view(res_handle, np.int64, (n_items,), offset=24 * n_items)
    skf_v = arena_view(res_handle, np.float64, (n_items, 6), offset=32 * n_items)
    stats_v = arena_view(
        res_handle, np.float64, (3,), offset=80 * n_items + 24 * shard_index
    )
    values_v[span] = [rr.value for rr in results]
    codes_v[span] = [code_index[d.code] for d in decisions]
    tier_v[span] = [1 if d.tier == "bound" else 0 for d in decisions]
    skn_v[span] = [sk.n for sk in sketches]
    skf_v[span] = [
        [
            sk.max_abs,
            sk.min_abs_nonzero,
            sk.abs_sum_hi,
            sk.abs_sum_lo,
            sk.sum_hi,
            sk.sum_lo,
        ]
        for sk in sketches
    ]
    stats_v[0] = bound_elapsed
    stats_v[1] = profile_elapsed
    stats_v[2] = reduce_elapsed
    del values_v, codes_v, tier_v, skn_v, skf_v, stats_v
    del batches, flat, lengths, ranks, us_all
    return None
