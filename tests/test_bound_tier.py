"""The bound-driven selection tier: agreement, bitwise identity, precision.

The tier's contract (Sec. V.D's runtime, minus the profiling tax): enabling
``bound_confidence`` must change *selection cost only* — every decision code
and every reduced value stays bitwise-identical to the profiling-only
pipeline, because the tier resolves an item only when it can prove the
profiling policy would choose the same algorithm.  These tests pin that
agreement across data regimes, dtypes, thresholds, worker counts and the
decision cache, plus the fp32/fp16 precision axis (no silent upcast inside
the decision) and the new observability counters.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fp.properties import UNIT_ROUNDOFF, unit_roundoff
from repro.mpi.comm import SimComm
from repro.obs import get_registry
from repro.selection import (
    AdaptiveReducer,
    AnalyticPolicy,
    BoundTier,
    bound_stats_item,
    bound_stats_stream,
    item_unit_roundoff,
)

N_RANKS = 8
CONFIDENCE = 1 - 1e-6


def _chunks(kind: str, seed: int, width: int = 64, dtype=np.float64):
    rng = np.random.default_rng(seed)
    if kind == "easy":
        data = [rng.random(width) for _ in range(N_RANKS)]
    elif kind == "mixed":
        data = [rng.standard_normal(width) for _ in range(N_RANKS)]
    elif kind == "cancel":
        base = [rng.random(width) + 1.0 for _ in range(N_RANKS // 2)]
        data = base + [-b for b in base]
    elif kind == "zero":
        base = [rng.random(width) for _ in range(N_RANKS // 2)]
        data = base + [-b for b in base]
        data = [d.copy() for d in data]
    elif kind == "denormal":
        tiny = float(np.finfo(np.float64).tiny)
        data = [rng.random(width) * 2.0 * tiny for _ in range(N_RANKS)]
    elif kind == "wide":
        data = [
            rng.uniform(-1, 1, width) * 10.0 ** rng.integers(-9, 10, size=width)
            for _ in range(N_RANKS)
        ]
    else:  # pragma: no cover - test bug
        raise ValueError(kind)
    return [np.asarray(d, dtype=dtype) for d in data]


def _stream(kinds, seeds, dtype=np.float64):
    return [_chunks(k, s, dtype=dtype) for k in kinds for s in seeds]


KINDS = ("easy", "mixed", "cancel", "zero", "denormal", "wide")


class TestDecisionAgreement:
    """Tiered and untiered pipelines always pick the same algorithm."""

    @pytest.mark.parametrize("threshold", [1e-7, 1e-11, 1e-13, 1e-15, 0.0])
    def test_reduce_many_agreement_sweep(self, threshold):
        batches = _stream(KINDS, range(4))
        comm = SimComm(N_RANKS)
        plain = AdaptiveReducer(comm, threshold=threshold)
        tiered = AdaptiveReducer(
            comm, threshold=threshold, bound_confidence=CONFIDENCE
        )
        rp = plain.reduce_many(batches, workers=1)
        rt = tiered.reduce_many(batches, workers=1)
        assert [r.decision.code for r in rp] == [r.decision.code for r in rt]
        for a, b in zip(rp, rt):
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_solo_reduce_agreement(self, kind):
        comm = SimComm(N_RANKS)
        plain = AdaptiveReducer(comm, threshold=1e-13)
        tiered = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=CONFIDENCE)
        for seed in range(3):
            chunks = _chunks(kind, seed)
            a = plain.reduce(chunks)
            b = tiered.reduce(chunks)
            assert a.decision.code == b.decision.code
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()

    def test_deterministic_confidence_agreement(self):
        """confidence=1.0 (deterministic bounds only) also never disagrees."""
        batches = _stream(KINDS, range(2))
        comm = SimComm(N_RANKS)
        plain = AdaptiveReducer(comm, threshold=1e-9)
        tiered = AdaptiveReducer(comm, threshold=1e-9, bound_confidence=1.0)
        rp = plain.reduce_many(batches, workers=1)
        rt = tiered.reduce_many(batches, workers=1)
        assert [r.decision.code for r in rp] == [r.decision.code for r in rt]

    def test_fast_path_actually_engages(self):
        """Well-conditioned serving data resolves via the bound tier."""
        batches = _stream(("easy",), range(8))
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-13, bound_confidence=CONFIDENCE
        )
        results = tiered.reduce_many(batches, workers=1)
        assert all(r.decision.tier == "bound" for r in results)
        # and the tier bypasses the decision cache entirely
        assert tiered.decision_cache_info()["misses"] == 0

    def test_inconclusive_items_fall_back(self):
        """Exact-zero sums are beyond cheap-statistics certification."""
        batches = _stream(("zero",), range(4))
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-13, bound_confidence=CONFIDENCE
        )
        results = tiered.reduce_many(batches, workers=1)
        assert all(r.decision.tier == "profile" for r in results)
        assert tiered.decision_cache_info()["misses"] >= 1

    def test_default_is_tier_off(self):
        reducer = AdaptiveReducer(SimComm(N_RANKS))
        assert reducer.bound_confidence is None
        results = reducer.reduce_many(_stream(("easy",), range(2)), workers=1)
        assert all(r.decision.tier == "profile" for r in results)

    def test_nondeterministic_route_skips_tier(self):
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-7, bound_confidence=CONFIDENCE
        )
        res = tiered.reduce(_chunks("easy", 0), nondeterministic=True)
        assert res.decision.tier == "profile"

    def test_confidence_validation(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                AdaptiveReducer(SimComm(2), bound_confidence=bad)
        with pytest.raises(ValueError):
            BoundTier(confidence=2.0)


class TestPrecisionAxis:
    """fp32/fp16 round-trip with precision-aware selection decisions."""

    def test_item_unit_roundoff(self):
        a64 = [np.zeros(4), np.ones(4)]
        a32 = [np.zeros(4, np.float32), np.ones(4, np.float32)]
        a16 = [np.zeros(4, np.float16), np.ones(4, np.float16)]
        assert item_unit_roundoff(a64) == 2.0**-53
        assert item_unit_roundoff(a32) == 2.0**-24
        assert item_unit_roundoff(a16) == 2.0**-11
        # promotion: a mixed fp16/fp64 item decides at binary64
        assert item_unit_roundoff([a16[0], a64[0]]) == 2.0**-53
        # plain python lists have no dtype: binary64
        assert item_unit_roundoff([[1.0, 2.0]]) == 2.0**-53

    @pytest.mark.parametrize("dtype", [np.float32, np.float16])
    def test_low_precision_round_trip(self, dtype):
        u = unit_roundoff(dtype)
        batches = _stream(("easy", "mixed"), range(3), dtype=dtype)
        comm = SimComm(N_RANKS)
        plain = AdaptiveReducer(comm, threshold=1e-13)
        tiered = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=CONFIDENCE)
        rp = plain.reduce_many(batches, workers=1)
        rt = tiered.reduce_many(batches, workers=1)
        for a, b in zip(rp, rt):
            # the decision was made at the input's own roundoff, both paths
            assert a.decision.u == u
            assert b.decision.u == u
            assert a.decision.code == b.decision.code
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
        # at serving thresholds low-precision variability forces the exact
        # algorithm — the decision visibly differs from the binary64 one
        r64 = plain.reduce_many(_stream(("easy",), range(1)), workers=1)
        assert r64[0].decision.code == "ST"
        assert rt[0].decision.code == "PR"

    def test_solo_reduce_low_precision(self):
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-13, bound_confidence=CONFIDENCE
        )
        res = tiered.reduce(_chunks("easy", 0, dtype=np.float16))  # repro: allow[FP005] -- exercises the tier's fp16 precision axis
        assert res.decision.u == 2.0**-11
        assert math.isfinite(res.value)

    def test_cache_key_no_dtype_aliasing(self):
        """Regression (cache-key extension): an fp16 stream whose profile
        signature (n, k-decade, dr, threshold) matches a binary64 stream's
        must not reuse its cached decision."""
        reducer = AdaptiveReducer(SimComm(2), threshold=1e-13)
        rng = np.random.default_rng(5)
        base = rng.random(32)
        b64 = [[base.copy(), base.copy()]]
        b16 = [[base.astype(np.float16), base.astype(np.float16)]]  # repro: allow[FP005] -- the aliasing regression needs a genuine fp16 stream
        r64 = reducer.reduce_many(b64, workers=1)
        info_before = reducer.decision_cache_info()
        r16 = reducer.reduce_many(b16, workers=1)
        info_after = reducer.decision_cache_info()
        # second stream was a cache miss, not an aliased hit
        assert info_after["misses"] == info_before["misses"] + 1
        assert r64[0].decision.u == 2.0**-53
        assert r16[0].decision.u == 2.0**-11
        assert r64[0].decision.code != r16[0].decision.code

    def test_cache_key_no_confidence_aliasing(self):
        """Reconfiguring the tier changes the key's confidence axis."""
        comm = SimComm(2)
        sketch_batches = [[np.ones(16), np.ones(16)]]
        r1 = AdaptiveReducer(comm, threshold=1e-13)
        r2 = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=0.5)
        k1 = r1._decision_key(
            bound_stats_item(sketch_batches[0], UNIT_ROUNDOFF).as_stream_profile(),
            1e-13,
        )
        k2 = r2._decision_key(
            bound_stats_item(sketch_batches[0], UNIT_ROUNDOFF).as_stream_profile(),
            1e-13,
        )
        assert k1 != k2


class TestStatisticsPass:
    def test_stream_matches_item_loop_bitwise(self):
        batches = _stream(KINDS, range(3))
        us = [item_unit_roundoff(c) for c in batches]
        stream = bound_stats_stream(batches, us)
        for st, chunks, u in zip(stream, batches, us):
            item = bound_stats_item(chunks, u)
            assert st == item  # dataclass equality is field-exact

    def test_ragged_stream_falls_back_to_item_loop(self):
        rng = np.random.default_rng(3)
        batches = [
            [rng.random(int(rng.integers(4, 40))) for _ in range(3)]
            for _ in range(6)
        ]
        us = [UNIT_ROUNDOFF] * len(batches)
        stream = bound_stats_stream(batches, us)
        for st, chunks in zip(stream, batches):
            assert st == bound_stats_item(chunks, UNIT_ROUNDOFF)

    def test_chunks_read_as_asarray_ravel(self):
        """In-place reads (contiguous float64) and the normalising copy
        (every other dtype, layout or container) see the same values."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 24))
        variants = [
            [x[0].astype(np.float32), x[1].astype(np.float16), x[2]],  # repro: allow[FP005] -- narrow chunks must be read as their float64 cast
            [np.arange(30), x[3][::-1], x[0][::3]],
            [np.asfortranarray(x[:3, :8]), x[1].astype(">f8"), [1.0, -2.5]],
            (x[2], np.float64(3.0), np.array(-0.5)),
        ]
        for chunks in variants:
            copies = [np.array(c, dtype=np.float64).ravel() for c in chunks]
            want = bound_stats_item(copies, UNIT_ROUNDOFF)
            assert bound_stats_item(chunks, UNIT_ROUNDOFF) == want
            assert bound_stats_stream([chunks], [UNIT_ROUNDOFF]) == [want]

    def test_fused_kernel_order(self):
        """The fused kernel's documented order: eight lanes per chunk (the
        tail folds into lane 0, lanes merge 0..7), max/min across ranks,
        and ``np.sum`` over the per-rank partials."""
        from repro.selection import _statskernel

        if not _statskernel.kernel_available():
            pytest.skip("fused statistics kernel unavailable")

        def lanes(x):
            s = [np.float64(0.0)] * 8
            a = [np.float64(0.0)] * 8
            nb = x.size - x.size % 8
            for j in range(x.size):
                k = j % 8 if j < nb else 0
                s[k] = s[k] + x[j]
                a[k] = a[k] + abs(x[j])
            st, at = s[0], a[0]
            for k in range(1, 8):
                st, at = st + s[k], at + a[k]
            return at, st

        rng = np.random.default_rng(5)
        for width in (0, 1, 7, 8, 9, 17, 40):
            for ranks in (1, 3, 9):
                chunks = [
                    rng.uniform(-1, 1, width) * 10.0 ** rng.integers(-8, 9, width)
                    for _ in range(ranks)
                ]
                got = bound_stats_item(chunks, UNIT_ROUNDOFF)
                partials = np.array([lanes(c) for c in chunks]).reshape(ranks, 2)
                assert got.abs_sum == np.sum(partials[:, 0])  # repro: allow[FP001,FP002] -- pins the kernel's exact summation order
                assert got.approx_sum == np.sum(partials[:, 1])  # repro: allow[FP001,FP002] -- pins the kernel's exact summation order
                mags = np.abs(np.concatenate(chunks))
                assert got.max_abs == (mags.max() if mags.size else 0.0)  # repro: allow[FP001] -- exact max
                assert got.min_abs_nonzero == np.min(  # repro: allow[FP001] -- exact min
                    mags, initial=math.inf, where=mags > 0.0
                )

    def test_numpy_sweep_is_safe_under_concurrent_callers(self, monkeypatch):
        """Two threads sweeping different streams on the NumPy fallback
        each get their own statistics (no buffer shared between calls)."""
        import threading

        import repro.selection.bound_tier as bt

        monkeypatch.setattr(bt, "_kernel_stats", lambda batches, us: None)
        streams = []
        for seed in (11, 12):
            rng = np.random.default_rng(seed)
            streams.append(
                [
                    [rng.standard_normal(128) * 10.0**seed for _ in range(48)]
                    for _ in range(8)
                ]
            )
        us = [UNIT_ROUNDOFF] * 8
        expected = [bound_stats_stream(s, us) for s in streams]
        wrong = [0, 0]
        start = threading.Barrier(2)

        def sweep(k):
            start.wait()
            for _ in range(150):
                if bound_stats_stream(streams[k], us) != expected[k]:
                    wrong[k] += 1

        threads = [threading.Thread(target=sweep, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [0, 0]

    def test_empty_and_zero_items(self):
        zero = bound_stats_item([np.zeros(8), np.zeros(8)], UNIT_ROUNDOFF)
        assert zero.abs_sum == 0.0 and zero.n == 16
        assert zero.dynamic_range_estimate() == 0
        empty = bound_stats_item([], UNIT_ROUNDOFF)
        assert empty.n == 0

    def test_subset_lanes_match_full_stream(self):
        """decide_stream lanes are independent: a subset call returns the
        same decisions the full-stream call produced for those items."""
        batches = _stream(KINDS, range(2))
        us = [item_unit_roundoff(c) for c in batches]
        stats = bound_stats_stream(batches, us)
        tier = BoundTier(confidence=CONFIDENCE)
        policy = AnalyticPolicy()
        full = tier.decide_stream(stats, 1e-13, policy)
        subset_idx = [0, 3, 5, len(stats) - 1]
        subset = tier.decide_stream([stats[i] for i in subset_idx], 1e-13, policy)
        for j, i in enumerate(subset_idx):
            if full[i] is None:
                assert subset[j] is None
            else:
                assert subset[j] is not None
                assert subset[j].code == full[i].code
                assert subset[j].predicted_std == full[i].predicted_std


class TestParallelPath:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_bitwise_identity(self, workers):
        batches = _stream(KINDS, range(3))
        comm = SimComm(N_RANKS)
        tiered = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=CONFIDENCE)
        serial = tiered.reduce_many(batches, workers=1)
        parallel = tiered.reduce_many(batches, workers=workers)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
            assert a.decision.code == b.decision.code
            assert a.decision.tier == b.decision.tier
            assert a.decision.u == b.decision.u

    def test_parallel_low_precision_round_trip(self):
        batches = _stream(("easy", "mixed"), range(4), dtype=np.float32)  # repro: allow[FP005] -- exercises the parallel fp32 precision axis
        comm = SimComm(N_RANKS)
        tiered = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=CONFIDENCE)
        serial = tiered.reduce_many(batches, workers=1)
        parallel = tiered.reduce_many(batches, workers=2)
        for a, b in zip(serial, parallel):
            assert b.decision.u == 2.0**-24
            assert a.decision.code == b.decision.code
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()


class TestObservability:
    def setup_method(self):
        reg = get_registry()
        reg.reset()
        reg.enable()

    def teardown_method(self):
        reg = get_registry()
        reg.reset()
        reg.disable()

    @staticmethod
    def _counter_total(snapshot, name):
        return sum(
            s["value"] for s in snapshot.get("counters", {}).get(name, [])
        )

    def test_fast_path_and_fallback_counters_reconcile(self):
        batches = _stream(("easy", "zero"), range(3))
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-13, bound_confidence=CONFIDENCE
        )
        results = tiered.reduce_many(batches, workers=1)
        snap = get_registry().snapshot()
        fast = self._counter_total(snap, "repro_select_bound_fast_path_total")
        fallback = self._counter_total(snap, "repro_select_profile_fallback_total")
        assert fast + fallback == len(batches)
        assert fast == sum(1 for r in results if r.decision.tier == "bound")
        assert fast > 0 and fallback > 0
        assert "repro_selector_bound_seconds" in snap.get("histograms", {})

    def test_solo_reduce_counters(self):
        tiered = AdaptiveReducer(
            SimComm(N_RANKS), threshold=1e-13, bound_confidence=CONFIDENCE
        )
        tiered.reduce(_chunks("easy", 0))
        snap = get_registry().snapshot()
        assert self._counter_total(snap, "repro_select_bound_fast_path_total") == 1

    def test_tier_off_emits_no_bound_metrics(self):
        plain = AdaptiveReducer(SimComm(N_RANKS), threshold=1e-13)
        plain.reduce_many(_stream(("easy",), range(2)), workers=1)
        snap = get_registry().snapshot()
        assert self._counter_total(snap, "repro_select_bound_fast_path_total") == 0
