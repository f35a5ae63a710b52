"""The shared chunk-list walker behind every serving C kernel.

The fold, fused-reduce, profiling-sketch and bound-statistics kernels all
reach a request's chunks through one C walker (``CHUNK_WALK_C`` in
:mod:`repro.util.ckernel`): it reads C-contiguous native ``<f8`` chunks in
place and sends anything else through one ``np.asarray(c, float64).ravel()``
normalisation.  These tests pin, on the input variety the daemon and the
public API accept (low-precision, integer and byte-swapped dtypes; strided,
reversed, Fortran-ordered and 0-d arrays; plain lists; tuple chunk lists;
empty chunks and ragged rank counts):

* every kernel's bits against its reference — ``VectorOps.fold`` plus the
  compiled balanced schedule for fold/reduce, the NumPy sketch for profile,
  and the documented lane order for the statistics;
* every public path's bits against the same call on normalised copies (this
  part also runs on the NumPy fallback, ``REPRO_NO_CKERNELS=1``);
* that every buffer view is released after a call, including one that
  bailed out on a later chunk, so a ``bytearray`` receive buffer can grow;
* that walker entries release the GIL while they compute, as do the
  array-pointer kernels.
"""

from __future__ import annotations

import math
import sys
import threading
import time

import numpy as np
import pytest

from repro.mpi.comm import SimComm
from repro.mpi.ops import make_reduction_op
from repro.selection import _statskernel
from repro.selection import profile as profile_mod
from repro.selection.bound_tier import bound_stats_stream
from repro.selection.profile import (
    StreamProfile,
    profile_batch,
    profile_chunk,
    profile_stream,
)
from repro.summation import get_algorithm
from repro.trees import _ckernels
from repro.trees.schedule import compile_tree
from repro.trees.shapes import balanced
from repro.util.chunking import pack_ragged

#: the algorithms with compiled fold and fused-reduce kernels
KERNEL_CODES = ("ST", "K", "KBN", "CP", "DD")

SKETCH_FIELDS = (
    "n", "max_abs", "min_abs_nonzero", "abs_sum_hi", "abs_sum_lo", "sum_hi", "sum_lo",
)

U = 2.0**-53

needs_kernels = pytest.mark.skipif(
    not (
        _ckernels.kernels_available()
        and profile_mod.kernel_available()
        and _statskernel.kernel_available()
    ),
    reason="C kernels unavailable (no compiler or REPRO_NO_CKERNELS)",
)


def _wide(rng, w: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, w) * 10.0 ** rng.integers(-8, 9, size=w)


#: every chunk form the walker must read like ``np.asarray(c, float64)
#: .ravel()``; each takes (rng, width) and returns a chunk of ~width values
FORMS = {
    "f8": _wide,
    "f4": lambda rng, w: _wide(rng, w).astype(np.float32),  # repro: allow[FP005] -- low-precision chunks are the input under test
    "f2": lambda rng, w: rng.uniform(-100.0, 100.0, w).astype(np.float16),  # repro: allow[FP005] -- low-precision chunks are the input under test
    "i8": lambda rng, w: rng.integers(-(2**40), 2**40, size=w),
    "be_f8": lambda rng, w: _wide(rng, w).astype(">f8"),
    "strided": lambda rng, w: _wide(rng, 2 * w)[::2],
    "reversed": lambda rng, w: _wide(rng, w)[::-1],
    "fortran_2d": lambda rng, w: np.asfortranarray(_wide(rng, 4 * (w // 4)).reshape(4, -1)),
    "c_2d": lambda rng, w: _wide(rng, 2 * (w // 2)).reshape(2, -1),
    "zero_d": lambda rng, w: np.array(_wide(rng, 1)[0]),
    "zero_d_f4": lambda rng, w: np.array(_wide(rng, 1)[0], dtype=np.float32),  # repro: allow[FP005] -- low-precision chunks are the input under test
    "list": lambda rng, w: _wide(rng, w).tolist(),
    "empty": lambda rng, w: np.empty(0),
    "readonly": lambda rng, w: _readonly(_wide(rng, w)),
}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _items(seed: int, n_items: int = 6, n_ranks: "int | None" = None) -> list:
    """Item chunk lists cycling through every form at ragged widths;
    ``n_ranks=None`` makes the rank count ragged too, and every other item
    is a tuple."""
    rng = np.random.default_rng(seed)
    forms = list(FORMS.values())
    items = []
    for i in range(n_items):
        ranks = n_ranks if n_ranks is not None else int(rng.integers(0, 9))
        chunks = []
        for _ in range(ranks):
            form = forms[(seed + sum(map(len, items)) + len(chunks)) % len(forms)]
            chunks.append(form(rng, int(rng.integers(0, 70))))
        items.append(tuple(chunks) if i % 2 else chunks)
    return items


def _f8(chunks) -> list:
    """Independent normalised copies: the values every kernel must read."""
    return [np.array(c, dtype=np.float64).ravel() for c in chunks]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_same_sketch(got: StreamProfile, want: StreamProfile, where) -> None:
    for field in SKETCH_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        if field == "n":
            assert a == b, where
        elif math.isnan(a) or math.isnan(b):
            assert math.isnan(a) and math.isnan(b), (where, field)
        else:
            assert _bits(a) == _bits(b), (where, field, a, b)


# -- references -----------------------------------------------------------------


def _ref_fold(chunks, vops) -> tuple:
    return vops.fold(*pack_ragged(_f8(chunks)))


def _ref_reduce(items, n_ranks: int, vops) -> np.ndarray:
    flat = [c for chunks in items for c in chunks]
    states = tuple(s.reshape(len(items), n_ranks) for s in _ref_fold(flat, vops))
    root = compile_tree(balanced(n_ranks)).reduce_states(states, vops)
    return np.asarray(vops.result(root), dtype=np.float64).reshape(len(items))


def _ref_sketch(chunks) -> StreamProfile:
    total = StreamProfile()
    for c in _f8(chunks):
        total.merge(profile_chunk(c))
    return total


def _lanes(x: np.ndarray) -> tuple:
    """The stats kernel's row order: eight lanes, tail into lane 0, lanes
    merged 0..7 (see ``test_bound_tier.test_fused_kernel_order``)."""
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


def _ref_stats(chunks) -> tuple:
    xs = _f8(chunks)
    partials = np.array([_lanes(x) for x in xs], dtype=np.float64).reshape(len(xs), 2)
    mags = np.abs(np.concatenate(xs)) if xs else np.empty(0)
    return (
        sum(x.size for x in xs),
        np.sum(partials[:, 0]),  # repro: allow[FP002] -- pins the kernel's exact summation order
        np.sum(partials[:, 1]),  # repro: allow[FP002] -- pins the kernel's exact summation order
        mags.max() if mags.size else 0.0,
        np.min(mags, initial=math.inf, where=mags > 0.0),
    )


# -- kernel bits against the references ------------------------------------------


@needs_kernels
class TestKernelParity:
    @pytest.mark.parametrize("code", KERNEL_CODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_fold_chunks(self, code, seed):
        vops = get_algorithm(code).vector_ops
        chunks = [c for item in _items(seed) for c in item]
        got = _ckernels.fold_chunks(chunks, vops)
        want = _ref_fold(chunks, vops)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w), code

    @pytest.mark.parametrize("code", KERNEL_CODES)
    @pytest.mark.parametrize("n_ranks", [1, 3, 8])
    def test_reduce_balanced_chunks(self, code, n_ranks):
        vops = get_algorithm(code).vector_ops
        items = _items(10 + n_ranks, n_items=5, n_ranks=n_ranks)
        flat = tuple(c for chunks in items for c in chunks)
        got = _ckernels.reduce_balanced_chunks(flat, n_ranks, vops)
        assert _bits(got) == _bits(_ref_reduce(items, n_ranks, vops)), code

    def test_reduce_into_out_vector(self):
        vops = get_algorithm("CP").vector_ops
        items = _items(21, n_items=3, n_ranks=4)
        flat = [c for chunks in items for c in chunks]
        out = np.full(3, np.nan)
        assert _ckernels.reduce_balanced_chunks(flat, 4, vops, out=out) is out
        assert _bits(out) == _bits(_ref_reduce(items, 4, vops))

    @pytest.mark.parametrize("seed", range(4))
    def test_profile_sketch(self, seed):
        items = _items(30 + seed)
        got = profile_mod._kernel_sketches(profile_mod._KERNEL.load(), tuple(items))
        assert len(got) == len(items)
        for i, chunks in enumerate(items):
            _assert_same_sketch(got[i], _ref_sketch(chunks), (seed, i))

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_stream_stats(self, seed):
        items = _items(40 + seed)
        n, stats = _statskernel.stream_stats(items)
        for i, chunks in enumerate(items):
            count, abs_sum, approx_sum, max_abs, min_nz = _ref_stats(chunks)
            assert n[i] == count
            assert _bits(stats[i]) == _bits([abs_sum, approx_sum, max_abs, min_nz]), i

    def test_empty_streams(self):
        vops = get_algorithm("K").vector_ops
        assert all(s.size == 0 for s in _ckernels.fold_chunks([], vops))
        assert _ckernels.reduce_balanced_chunks([], 4, vops).size == 0
        assert profile_mod._kernel_sketches(profile_mod._KERNEL.load(), []) == []
        n, stats = _statskernel.stream_stats([[], []])
        assert list(n) == [0, 0] and stats.shape == (2, 4)

    def test_chunk_count_checks(self):
        vops = get_algorithm("K").vector_ops
        with pytest.raises(ValueError, match="multiple of n_ranks"):
            _ckernels.reduce_balanced_chunks([np.ones(2)] * 5, 2, vops)
        with pytest.raises(ValueError, match="contiguous float64"):
            _ckernels.reduce_balanced_chunks(
                [np.ones(2)] * 4, 2, vops, out=np.empty(3)
            )


# -- public paths: the variety reads exactly like its normalised copies ------------


class TestVarietyEqualsNormalised:
    """Runs on either path: kernels loaded or ``REPRO_NO_CKERNELS=1``."""

    @pytest.mark.parametrize("code", KERNEL_CODES)
    def test_reduce_batch(self, code):
        comm = SimComm(5)
        op = make_reduction_op(get_algorithm(code))
        items = _items(50, n_items=6, n_ranks=5)
        got = [r.value for r in comm.reduce_batch(items, op, "balanced")]
        want = [r.value for r in comm.reduce_batch([_f8(c) for c in items], op, "balanced")]
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("code", KERNEL_CODES)
    def test_local_states(self, code):
        op = make_reduction_op(get_algorithm(code))
        chunks = [c for item in _items(51) for c in item]
        got, want = op.local_states(chunks), op.local_states(_f8(chunks))
        for g, w in zip(got, want):
            assert _bits(g) == _bits(w)

    def test_profile_batch(self):
        def sketches(items):
            # the NumPy fallback leaves ragged streams to the per-item loop
            got = profile_batch(items)
            return got if got is not None else [profile_stream(c) for c in items]

        items = _items(52, n_items=8, n_ranks=4)
        got, want = sketches(items), sketches([_f8(c) for c in items])
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_sketch(g, w, i)

    def test_bound_stats_stream(self):
        items = _items(53)
        us = [U] * len(items)
        assert bound_stats_stream(items, us) == bound_stats_stream(
            [_f8(c) for c in items], us
        )


# -- buffer views are released on every return path --------------------------------


def _calls():
    """One call per walker entry on a chunk list."""
    k = get_algorithm("K").vector_ops
    return {
        "fold": lambda chunks: _ckernels.fold_chunks(chunks, k),
        "reduce": lambda chunks: _ckernels.reduce_balanced_chunks(chunks, len(chunks), k),
        "sketch": lambda chunks: profile_mod._kernel_sketches(
            profile_mod._KERNEL.load(), [chunks]
        ),
        "stats": lambda chunks: _statskernel.stream_stats([chunks]),
    }


@needs_kernels
class TestViewsReleased:
    @pytest.mark.parametrize("entry", ["fold", "reduce", "sketch", "stats"])
    @pytest.mark.parametrize("bail", [False, True], ids=["success", "bailed"])
    def test_receive_buffer_can_grow(self, entry, bail):
        """A daemon receive buffer must grow for the connection's next
        request: once the caller drops its chunk views, no export may be
        left behind — also when the walker bailed out on a later chunk (a
        float32 view of the same buffer, as an fp32 frame's payload is)
        after taking views of the earlier ones."""
        buf = bytearray(np.arange(64, dtype=np.float64).tobytes())
        payload = np.frombuffer(buf, dtype=np.float64)
        chunks = [payload[:24], memoryview(buf).cast("d")[24:40], payload[40:]]
        if bail:
            chunks.append(np.frombuffer(buf, dtype=np.float32)[:6])  # repro: allow[FP005] -- an fp32 payload view is the input under test
        _calls()[entry](chunks)
        chunks[1].release()
        del chunks, payload
        buf.extend(bytes(64))  # BufferError if a view were still held
        assert len(buf) == 64 * 8 + 64


# -- the GIL is released while kernels compute --------------------------------------


def _max_gap_ratio(work, calls: int = 5) -> float:
    """Median over ``calls`` runs of ``work`` in a background thread of the
    longest stall of a main-thread counter during the run, as a fraction of
    the run.  A call that kept the GIL stalls the counter for all of its
    compute (ratio near 1); a GIL-free one barely stalls it."""
    ratios = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        for _ in range(calls):
            span = []
            done = threading.Event()

            def run():
                t0 = time.perf_counter()
                work()
                span.extend((t0, time.perf_counter()))
                done.set()

            stamps = []
            thread = threading.Thread(target=run)
            thread.start()
            while not done.is_set():
                stamps.append(time.perf_counter())
            thread.join()
            t0, t1 = span
            inside = [t0] + [t for t in stamps if t0 < t < t1] + [t1]
            ratios.append(max(np.diff(inside)) / (t1 - t0))
    finally:
        sys.setswitchinterval(old)
    return float(np.median(ratios))


@needs_kernels
class TestGilReleased:
    @pytest.fixture(scope="class")
    def big(self):
        return np.random.default_rng(3).standard_normal(1 << 16)

    def test_reduce_walker(self, big):
        vops = get_algorithm("DD").vector_ops
        flat = [big] * (48 * 4)
        assert _max_gap_ratio(lambda: _ckernels.reduce_balanced_chunks(flat, 48, vops)) < 0.5

    def test_sketch_walker(self, big):
        items = [[big] * 48] * 3
        assert _max_gap_ratio(lambda: profile_batch(items)) < 0.5

    def test_stats_walker(self, big):
        items = [[big] * 48] * 8
        assert _max_gap_ratio(lambda: _statskernel.stream_stats(items)) < 0.5

    def test_sweep_matrix(self, big):
        vops = get_algorithm("DD").vector_ops
        mat = np.tile(big, 64).reshape(256, -1)  # 32 MB
        assert _max_gap_ratio(lambda: _ckernels.sweep_matrix(mat, vops)) < 0.5
