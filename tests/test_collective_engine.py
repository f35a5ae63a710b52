"""Vectorized collective engine: bitwise pins against the object path.

The compiled collective path (``SimComm`` with ``engine="vector"``: one
:meth:`VectorOps.fold` sweep for the rank-local phase, then the rank tree as
a compiled level schedule) is only admissible because every value it
produces is bitwise equal to the object path — one accumulator per rank and
one Python ``op.combine`` per tree node.  These tests pin that equality for
every VectorOps algorithm over ragged chunk lists (including empty chunks
and single-rank communicators), balanced/serial/random/topology trees,
arrival-order reductions, the batched ``reduce_batch`` stream, and the
serving layer (``AdaptiveReducer.reduce_many`` + the batched profiler).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mpi.comm import SimComm
from repro.mpi.ops import make_reduction_op
from repro.mpi.topology import MachineTopology
from repro.selection.profile import StreamProfile, profile_batch
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.trees import _ckernels
from repro.trees.shapes import balanced, random_shape, serial
from repro.util.chunking import pack_ragged

#: every algorithm exposing VectorOps (the vector-capable collective ops)
VOPS_CODES = ("ST", "K", "KBN", "CP", "PW", "DD")

_PROFILE_FIELDS = (
    "n", "max_abs", "min_abs_nonzero",
    "abs_sum_hi", "abs_sum_lo", "sum_hi", "sum_lo",
)


def _bits_equal(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _ragged_chunks(n_ranks: int, seed: int, max_len: int = 120) -> list:
    """Adversarial rank chunks: ragged lengths, empties, zeros and -0.0."""
    rng = np.random.default_rng(seed)
    chunks = []
    for r in range(n_ranks):
        w = int(rng.integers(0, max_len))
        c = rng.uniform(-1.0, 1.0, w) * 10.0 ** rng.integers(-9, 10, size=w)
        if w and rng.random() < 0.5:
            idx = rng.integers(0, w, size=max(1, w // 5))
            c[idx] = 0.0
            c[idx[: len(idx) // 2]] = -0.0
        chunks.append(c)
    return chunks


def _trees(n_ranks: int, seed: int):
    yield balanced(n_ranks)
    yield serial(n_ranks)
    yield random_shape(n_ranks, seed=seed)


class TestVectorEngineBitwise:
    @pytest.mark.parametrize("code", VOPS_CODES)
    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 7, 16])
    def test_vector_equals_object_over_trees(self, code, n_ranks):
        comm = SimComm(n_ranks)
        op = make_reduction_op(get_algorithm(code))
        for seed in range(4):
            chunks = _ragged_chunks(n_ranks, seed=seed * 31 + n_ranks)
            for tree in _trees(n_ranks, seed=seed):
                ref = comm.reduce(chunks, op, tree, engine="object").value
                out = comm.reduce(chunks, op, tree, engine="vector").value
                assert _bits_equal(ref, out), (code, n_ranks, seed)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_topology_tree_and_cost_metadata(self, code):
        topo = MachineTopology(nodes=2, sockets_per_node=2, cores_per_socket=3)
        comm = SimComm(topology=topo)
        op = make_reduction_op(get_algorithm(code))
        chunks = _ragged_chunks(comm.n_ranks, seed=5)
        ref = comm.reduce(chunks, op, "topology", engine="object")
        out = comm.reduce(chunks, op, "topology", engine="vector")
        assert _bits_equal(ref.value, out.value)
        assert out.simulated_time == ref.simulated_time
        assert out.algorithm_code == code

    @pytest.mark.parametrize("code", ["K", "CP", "DD"])
    def test_nondeterministic_same_seed_same_bits(self, code):
        op = make_reduction_op(get_algorithm(code))
        chunks = _ragged_chunks(12, seed=77)
        runs_obj = [
            SimComm(12, seed=3).reduce_nondeterministic(
                chunks, op, jitter=0.5, engine="object"
            )
            for _ in range(3)
        ]
        runs_vec = [
            SimComm(12, seed=3).reduce_nondeterministic(
                chunks, op, jitter=0.5, engine="vector"
            )
            for _ in range(3)
        ]
        for a, b in zip(runs_obj, runs_vec):
            assert _bits_equal(a.value, b.value)
            assert np.array_equal(a.tree.parents(), b.tree.parents())

    def test_auto_engine_matches_explicit_vector(self):
        comm = SimComm(6)
        op = make_reduction_op(get_algorithm("K"))
        chunks = _ragged_chunks(6, seed=11)
        auto = comm.reduce(chunks, op, "balanced").value
        vec = comm.reduce(chunks, op, "balanced", engine="vector").value
        assert _bits_equal(auto, vec)

    def test_allreduce_broadcasts_one_bit_pattern(self):
        comm = SimComm(5)
        op = make_reduction_op(get_algorithm("CP"))
        chunks = _ragged_chunks(5, seed=13)
        values = comm.allreduce(chunks, op, "balanced")
        assert len(values) == 5
        assert len({np.float64(v).tobytes() for v in values}) == 1


class TestLocalPhase:
    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_fold_matrix_rows_equal_object_accumulators(self, code):
        alg = get_algorithm(code)
        op = make_reduction_op(alg)
        chunks = _ragged_chunks(10, seed=23)
        matrix, lengths = pack_ragged(chunks)
        states = op.local_matrix(matrix, lengths)
        values = np.asarray(alg.vector_ops.result(states), dtype=np.float64)
        for r, chunk in enumerate(chunks):
            acc = alg.make_accumulator(None)
            acc.add_array(chunk)
            assert _bits_equal(acc.result(), values[r]), (code, r)

    @pytest.mark.parametrize("code", VOPS_CODES)
    def test_local_states_equals_numpy_fold(self, code):
        """The compiled pointer-table kernels and the NumPy fold agree."""
        alg = get_algorithm(code)
        op = make_reduction_op(alg)
        chunks = _ragged_chunks(9, seed=29)
        states = op.local_states(chunks)
        matrix, lengths = pack_ragged(chunks)
        ref = alg.vector_ops.fold(matrix, lengths)
        assert len(states) == len(ref)
        for got, want in zip(states, ref):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("code", ["ST", "K", "KBN", "CP", "DD"])
    def test_fold_chunks_kernel_matches_numpy_fold(self, code):
        vops = get_algorithm(code).vector_ops
        if not _ckernels.has_fold_kernel(vops):
            pytest.skip("compiled fold kernels unavailable")
        chunks = _ragged_chunks(11, seed=37)
        got = _ckernels.fold_chunks(chunks, vops)
        matrix, lengths = pack_ragged(chunks)
        want = vops.fold(matrix, lengths)
        for g, w in zip(got, want):
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_local_matrix_without_vops_raises(self):
        op = make_reduction_op(get_algorithm("PR"))
        with pytest.raises(TypeError):
            op.local_matrix(np.zeros((1, 1)), np.array([1]))


class TestEngineSelection:
    def test_pr_falls_back_to_object_on_auto(self):
        comm = SimComm(4)
        op = make_reduction_op(get_algorithm("PR"))
        chunks = [np.arange(1.0, 5.0) for _ in range(4)]
        auto = comm.reduce(chunks, op, "balanced").value
        ref = comm.reduce(chunks, op, "balanced", engine="object").value
        assert _bits_equal(auto, ref)

    def test_pr_vector_engine_raises(self):
        comm = SimComm(4)
        op = make_reduction_op(get_algorithm("PR"))
        chunks = [np.arange(1.0, 5.0) for _ in range(4)]
        with pytest.raises(ValueError, match="vector engine"):
            comm.reduce(chunks, op, "balanced", engine="vector")

    def test_unknown_engine_raises(self):
        comm = SimComm(2)
        op = make_reduction_op(get_algorithm("ST"))
        with pytest.raises(ValueError, match="unknown engine"):
            comm.reduce([np.ones(2)] * 2, op, "balanced", engine="simd")

    def test_supports_vector_flags(self):
        assert make_reduction_op(get_algorithm("K")).supports_vector
        assert not make_reduction_op(get_algorithm("PR")).supports_vector


class TestReduceBatch:
    @pytest.mark.parametrize("code", ["ST", "K", "CP", "DD"])
    def test_batch_equals_reduce_loop(self, code):
        comm = SimComm(6)
        op = make_reduction_op(get_algorithm(code))
        batches = [_ragged_chunks(6, seed=100 + i) for i in range(7)]
        got = comm.reduce_batch(batches, op, "balanced")
        for result, chunks in zip(got, batches):
            ref = comm.reduce(chunks, op, "balanced")
            assert _bits_equal(result.value, ref.value)
            assert result.algorithm_code == ref.algorithm_code
            assert result.simulated_time == ref.simulated_time

    def test_batch_object_fallback_for_pr(self):
        comm = SimComm(3)
        op = make_reduction_op(get_algorithm("PR"))
        batches = [[np.arange(1.0, 6.0)] * 3 for _ in range(3)]
        got = comm.reduce_batch(batches, op, "balanced")
        for result, chunks in zip(got, batches):
            ref = comm.reduce(chunks, op, "balanced", engine="object")
            assert _bits_equal(result.value, ref.value)

    def test_empty_batch(self):
        comm = SimComm(3)
        op = make_reduction_op(get_algorithm("K"))
        assert comm.reduce_batch([], op, "balanced") == []

    def test_batch_checks_rank_count(self):
        comm = SimComm(3)
        op = make_reduction_op(get_algorithm("K"))
        with pytest.raises(ValueError):
            comm.reduce_batch([[np.ones(2)] * 2], op, "balanced")


class TestBatchedProfiling:
    def test_profile_batch_bitwise_equals_sequential(self):
        rng = np.random.default_rng(8)
        batches = [
            [rng.standard_normal(64) * 10.0 ** rng.integers(-6, 7) for _ in range(5)]
            for _ in range(9)
        ]
        got = profile_batch(batches)
        assert got is not None
        reducer = AdaptiveReducer(SimComm(5))
        for sketch, chunks in zip(got, batches):
            ref = reducer.profile(chunks)
            for field in _PROFILE_FIELDS:
                a, b = getattr(sketch, field), getattr(ref, field)
                if field == "n":
                    assert a == b
                else:
                    assert _bits_equal(a, b), field

    def test_profile_batch_ragged_returns_none(self, monkeypatch):
        # only the NumPy fallback declines ragged streams; the C sketch
        # kernel takes them (tests/test_sketch_kernel.py)
        from repro.selection import profile as profile_mod

        monkeypatch.setattr(profile_mod._KERNEL, "load", lambda: None)
        batches = [[np.arange(3.0), np.arange(5.0)]] * 2
        assert profile_batch(batches) is None

    def test_profile_batch_empty_and_zero_rank(self):
        assert profile_batch([]) == []
        sketches = profile_batch([[], []])
        assert sketches is not None and len(sketches) == 2
        assert all(s.n == 0 for s in sketches)

    def test_profile_batch_zero_width_chunks(self):
        batches = [[np.empty(0), np.empty(0)]] * 3
        sketches = profile_batch(batches)
        assert sketches is not None
        ref = StreamProfile()
        for s in sketches:
            for field in _PROFILE_FIELDS:
                assert getattr(s, field) == getattr(ref, field) or (
                    field == "min_abs_nonzero" and np.isinf(s.min_abs_nonzero)
                )


class TestServingPath:
    def test_reduce_many_equals_reduce_loop(self):
        rng = np.random.default_rng(17)
        comm = SimComm(6)
        batches = [
            [rng.random(48) * 10.0 ** int(rng.integers(-3, 4)) for _ in range(6)]
            for _ in range(10)
        ]
        many = AdaptiveReducer(comm, threshold=1e-13).reduce_many(
            batches, tree="balanced"
        )
        solo_reducer = AdaptiveReducer(comm, threshold=1e-13)
        for result, chunks in zip(many, batches):
            ref = solo_reducer.reduce(chunks, tree="balanced")
            assert result.decision.code == ref.decision.code
            assert _bits_equal(result.value, ref.value)

    def test_reduce_many_audit_profiles_are_per_item(self):
        rng = np.random.default_rng(21)
        comm = SimComm(4)
        batches = [[rng.random(32) for _ in range(4)] for _ in range(5)]
        results = AdaptiveReducer(comm).reduce_many(batches, tree="balanced")
        reducer = AdaptiveReducer(comm)
        for result, chunks in zip(results, batches):
            sketch = reducer.profile(chunks)
            assert result.decision.profile.n == sketch.n
            assert _bits_equal(result.decision.profile.max_abs, sketch.max_abs)

    def test_decision_cache_hits_accumulate(self):
        rng = np.random.default_rng(19)
        comm = SimComm(4)
        reducer = AdaptiveReducer(comm, threshold=1e-13)
        batches = [[rng.random(64) for _ in range(4)] for _ in range(8)]
        reducer.reduce_many(batches, tree="balanced")
        info = reducer.decision_cache_info()
        assert info["hits"] + info["misses"] == len(batches)
        assert info["hits"] > 0
        assert info["size"] == info["misses"]
        reducer.clear_decision_cache()
        info = reducer.decision_cache_info()
        assert info == {
            "size": 0,
            "max_size": reducer.cache_size,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "invalidations": 0,
        }

    def test_decision_cache_is_capped_lru(self):
        """Regression: the decision cache must not grow without bound in a
        long-lived serving process — distinct (n, ...) signatures beyond
        ``cache_size`` evict the coldest entry instead of accumulating."""
        comm = SimComm(2)
        reducer = AdaptiveReducer(comm, threshold=1e-13, cache_size=4)
        for n in range(1, 10):  # 9 distinct n => 9 distinct cache keys
            reducer.reduce_many([[np.ones(n)] * 2], tree="balanced")
        info = reducer.decision_cache_info()
        assert info["max_size"] == 4
        assert info["size"] <= 4
        assert info["misses"] == 9
        assert info["evictions"] == info["misses"] - info["size"] == 5

    def test_decision_cache_lru_keeps_recently_used(self):
        comm = SimComm(2)
        reducer = AdaptiveReducer(comm, threshold=1e-13, cache_size=2)

        def stream(n):
            return [[np.ones(n)] * 2]

        reducer.reduce_many(stream(4), tree="balanced")  # miss: {4}
        reducer.reduce_many(stream(8), tree="balanced")  # miss: {4, 8}
        reducer.reduce_many(stream(4), tree="balanced")  # hit: 4 now hottest
        reducer.reduce_many(stream(16), tree="balanced")  # miss: evicts 8, not 4
        reducer.reduce_many(stream(4), tree="balanced")  # still a hit
        info = reducer.decision_cache_info()
        assert info["hits"] == 2
        assert info["evictions"] == 1
        assert info["size"] == 2

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            AdaptiveReducer(SimComm(2), cache_size=0)

    def test_reduce_many_empty_stream(self):
        assert AdaptiveReducer(SimComm(3)).reduce_many([]) == []

    def test_reduce_many_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            AdaptiveReducer(SimComm(3)).reduce_many(
                [[np.ones(4)] * 3], threshold=-1.0
            )
