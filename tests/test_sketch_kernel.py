"""The fused C profiling-sketch kernel against the NumPy sketch.

Every field of every sketch must be bitwise equal (NaN compared as NaN)
between the kernel and both NumPy paths it replaces: the vectorised
uniform-width sweep and the per-item ``profile_chunk`` + ``merge`` loop.
The corpus covers the widths around NumPy's pairwise-sum block edges, 1 to
48 ranks, non-finite and edge values, low-precision and non-contiguous
chunks, and ragged streams.  A subprocess test then checks that the
selector's decisions and values do not change when ``REPRO_NO_CKERNELS=1``
selects the fallback.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.mpi import SimComm
from repro.selection import AdaptiveReducer
from repro.selection import profile as profile_mod
from repro.selection.profile import StreamProfile, profile_batch, profile_chunk

FIELDS = ("max_abs", "min_abs_nonzero", "abs_sum_hi", "abs_sum_lo", "sum_hi", "sum_lo")

#: 1–39 cover the < 8 sequential and eight-accumulator leaves with every
#: remainder; 127–129, 255/256 and 300/1000 straddle the 128-element block
#: and the n/2 split (test_width_past_numpy_buffer goes past 8192)
WIDTHS = [*range(1, 40), 127, 128, 129, 255, 256, 300, 1000]

#: the NumPy reference overflows and meets inf - inf on purpose here
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308)


def assert_same(got: StreamProfile, ref: StreamProfile, where) -> None:
    assert got.n == ref.n, where
    for field in FIELDS:
        a, b = np.float64(getattr(got, field)), np.float64(getattr(ref, field))
        if np.isnan(a) or np.isnan(b):
            assert np.isnan(a) and np.isnan(b), (where, field, a, b)
        else:
            assert a.view(np.uint64) == b.view(np.uint64), (where, field, a, b)


def loop_sketch(chunks) -> StreamProfile:
    """The NumPy per-item fallback of ``profile_stream``."""
    total = StreamProfile()
    for c in chunks:
        total.merge(profile_chunk(c))
    return total


@pytest.fixture
def lib():
    lib = profile_mod._KERNEL.load()
    if lib is None:
        pytest.skip("C sketch kernel unavailable (no compiler or REPRO_NO_CKERNELS)")
    return lib


def check(lib, batches) -> "list[StreamProfile]":
    """Kernel sketches == the per-item loop, and == the NumPy sweep where it
    applies (uniform widths)."""
    got = profile_mod._kernel_sketches(lib, batches)
    assert len(got) == len(batches)
    swept = profile_mod._numpy_batch(batches)
    for i, chunks in enumerate(batches):
        assert_same(got[i], loop_sketch(chunks), ("loop", i))
        if swept is not None:
            assert_same(got[i], swept[i], ("sweep", i))
    return got


def wide(rng, n):
    return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, size=n)


def narrow(rng, n):
    return rng.uniform(1.0, 16.0, n)


def cancelling(rng, n):
    # small integers: exact zeros, exact cancellation, vanishing sums
    return np.round(rng.standard_normal(n) * 3.0)


def with_specials(rng, n, share):
    x = wide(rng, n)
    mask = rng.random(n) < share
    x[mask] = rng.choice(SPECIALS, int(mask.sum()))
    return x


class TestUniformStreams:
    @pytest.mark.parametrize("ranks", [1, 3, 8, 48])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_widths_and_ranks(self, lib, width, ranks):
        rng = np.random.default_rng([width, ranks])
        batches = [
            [make(rng, width) for _ in range(ranks)]
            for make in (wide, narrow, cancelling)
        ]
        check(lib, batches)

    def test_width_past_numpy_buffer(self, lib):
        rng = np.random.default_rng(1)
        check(lib, [[wide(rng, 20000) for _ in range(2)], [narrow(rng, 20000)] * 2])


class TestEdgeInputs:
    @pytest.mark.parametrize("seed", range(24))
    def test_non_finite_and_special_values(self, lib, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.choice([1, 2, 7, 8, 9, 17, 130]))
        share = float(rng.choice([0.02, 0.3, 1.0]))
        batches = [
            [with_specials(rng, width, share) for _ in range(3)] for _ in range(4)
        ]
        check(lib, batches)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_nan_wins_max_in_any_rank(self, lib, rank):
        chunks = [np.array([1.0, 2.0]), np.array([3.0, -4.0]), np.array([0.5, 5.0])]
        chunks[rank] = np.array([math.nan, 0.25])
        (got,) = check(lib, [chunks])
        assert math.isnan(got.max_abs)
        assert got.min_abs_nonzero == 0.25  # NaN is skipped by the min

    def test_infinities(self, lib):
        got = check(
            lib,
            [
                [np.array([math.inf, 1.0]), np.array([2.0, 3.0])],
                [np.array([math.inf, -math.inf]), np.array([1.0, 1.0])],
                [np.array([-math.inf, 5e-324]), np.array([0.0, -0.0])],
            ],
        )
        assert all(s.max_abs == math.inf for s in got)

    def test_signed_zeros_and_all_zero_chunks(self, lib):
        got = check(
            lib,
            [
                [np.full(9, -0.0), np.zeros(9)],
                [np.zeros(9), np.array([-0.0] * 8 + [1.0])],
            ],
        )
        assert got[0].max_abs == 0.0 and got[0].min_abs_nonzero == math.inf

    def test_subnormals(self, lib):
        rng = np.random.default_rng(3)
        sub = lambda n: rng.integers(-(2**20), 2**20, n) * 5e-324  # noqa: E731
        check(lib, [[sub(33), sub(33)], [sub(33), np.full(33, 5e-324)]])

    def test_empty_chunks_and_items(self, lib):
        rng = np.random.default_rng(4)
        got = check(
            lib,
            [
                [np.empty(0), np.empty(0)],
                [np.empty(0), wide(rng, 5), np.empty(0)],
                [],
                [wide(rng, 3)],
            ],
        )
        assert got[0].n == 0 and got[2] == StreamProfile()

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64])
    def test_low_precision_and_integer_chunks(self, lib, dtype):
        rng = np.random.default_rng(5)
        if dtype is np.int64:
            make = lambda: rng.integers(-(2**62), 2**62, 40)  # noqa: E731
        else:
            make = lambda: (rng.standard_normal(40) * 100).astype(dtype)  # noqa: E731
        check(lib, [[make(), make()], [make(), make()]])

    def test_non_contiguous_chunks_and_lists(self, lib):
        rng = np.random.default_rng(6)
        base = wide(rng, 400)
        batches = [
            [base[::2][:50], base[::-3][:50]],  # strided and reversed views
            [np.asfortranarray(base[:100].reshape(10, 10)), base[100:200]],
            [base[:7].tolist(), base[7:107]],  # a plain list is a chunk too
        ]
        check(lib, batches)


class TestRaggedStreams:
    @pytest.mark.parametrize("seed", range(12))
    def test_ragged_widths_and_rank_counts(self, lib, seed):
        rng = np.random.default_rng(100 + seed)
        batches = [
            [
                wide(rng, int(rng.integers(0, 300)))
                for _ in range(int(rng.integers(0, 6)))
            ]
            for _ in range(5)
        ]
        check(lib, batches)

    def test_profile_batch_takes_ragged_streams(self, lib):
        rng = np.random.default_rng(7)
        batches = [[wide(rng, 3), wide(rng, 5)], [wide(rng, 9)]]
        got = profile_batch(batches)
        assert got is not None
        for sketch, chunks in zip(got, batches):
            assert_same(sketch, loop_sketch(chunks), "profile_batch")


class TestSelectorPaths:
    def test_single_item_profile_uses_kernel_bits(self, lib):
        rng = np.random.default_rng(8)
        comm = SimComm(8)
        reducer = AdaptiveReducer(comm)
        for _ in range(4):
            chunks = comm.scatter_array(wide(rng, 8 * 37))
            assert_same(reducer.profile(chunks), loop_sketch(chunks), "profile")

    def test_concurrent_calls_match_serial(self, lib):
        # the daemon calls the kernel from executor threads; ctypes drops
        # the GIL inside it, so calls overlap for real
        rng = np.random.default_rng(10)
        streams = [
            [[wide(rng, 64) for _ in range(6)] for _ in range(3)] for _ in range(8)
        ]
        expected = [profile_mod._kernel_sketches(lib, s) for s in streams]
        results: dict = {}

        def work(i):
            for _ in range(25):
                results[i] = profile_batch(streams[i])
                if results[i] != expected[i]:
                    return

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [results[i] for i in range(8)] == expected

    def test_profile_stream_fallback(self, monkeypatch):
        monkeypatch.setattr(profile_mod._KERNEL, "load", lambda: None)
        rng = np.random.default_rng(9)
        chunks = [wide(rng, 5), wide(rng, 11)]
        assert_same(profile_mod.profile_stream(chunks), loop_sketch(chunks), "fallback")


#: Three traffic recipes at the serving shape (48 ranks x 128 values): wide
#: exponents, narrow all-positive sets, and the paper's (k, dr) grid.  The
#: script prints every decision code and value bit pattern.
_PARITY_SCRIPT = textwrap.dedent(
    """
    import math
    import numpy as np
    from repro.generators.conditioned import generate_sum_set
    from repro.mpi import SimComm
    from repro.selection import AdaptiveReducer, profile_stream
    from repro.selection import profile as profile_mod

    ranks, n = 48, 48 * 128
    rng = np.random.default_rng(2024)
    rows = [
        rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, size=n)
        for _ in range(6)
    ]
    rows += [generate_sum_set(n, 1.0, 4, seed=rng).values for _ in range(6)]
    rows += [
        generate_sum_set(n, k, dr, seed=rng).values
        for k in (1.0, 1e3, 1e6, 1e9, 1e12, math.inf)
        for dr in (8, 32)
    ]
    comm = SimComm(ranks)
    batches = [comm.scatter_array(np.asarray(r, dtype=np.float64)) for r in rows]
    print("kernel", profile_mod._KERNEL.available())
    bits = lambda v: int(np.float64(v).view(np.uint64))
    for conf in (None, 0.999999):
        reducer = AdaptiveReducer(SimComm(ranks), bound_confidence=conf)
        for r in reducer.reduce_many(batches, workers=1):
            print("many", conf, r.decision.code, bits(r.value))
        for chunks in batches[::5]:
            r = reducer.reduce(chunks)
            print("one", conf, r.decision.code, bits(r.value))
    for chunks in batches:
        s = profile_stream(chunks)
        print("sketch", s.n, *(bits(getattr(s, f)) for f in (
            "max_abs", "min_abs_nonzero", "abs_sum_hi", "abs_sum_lo",
            "sum_hi", "sum_lo")))
    """
)


def _run_parity(no_ckernels: bool) -> "list[str]":
    env = {k: v for k, v in os.environ.items() if k != "REPRO_NO_CKERNELS"}
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if no_ckernels:
        env["REPRO_NO_CKERNELS"] = "1"
    out = subprocess.run(
        [sys.executable, "-c", _PARITY_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return out.stdout.splitlines()


def test_decisions_and_values_match_without_ckernels():
    on, off = _run_parity(False), _run_parity(True)
    assert off[0] == "kernel False"
    if on[0] != "kernel True":
        pytest.skip("no C compiler: both runs are the NumPy fallback")
    assert len(on) == len(off) > 60
    for a, b in zip(on[1:], off[1:]):
        assert a == b
