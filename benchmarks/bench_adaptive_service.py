"""Perf trajectory: seed-path vs vector-engine collective reductions.

The acceptance bar for the vectorized collective engine is quantitative: a
48-rank reduction of 4096-element chunks must beat the seed's object path
(one Python accumulator per rank, one Python ``op.combine`` per tree node)
by >= 10x for both Kahan and composite precision, and the batched serving
path (:meth:`AdaptiveReducer.reduce_many`) must amortise its per-reduction
profile+select overhead below the per-call pipeline's.  This bench times
both generations at a fixed paper-shaped workload and writes the numbers to
``BENCH_adaptive.json`` at the repo root so future PRs extend the perf
trajectory instead of re-arguing it.

Methodology
-----------
* The seed collective path is **frozen inline** below (the body
  ``SimComm.reduce`` shipped before the engine split), so the comparison is
  against what the seed actually executed, not today's object engine called
  through new plumbing.
* Vector and seed paths are asserted bitwise-equal before any timing.
* Timings are best-of-N wall times (minimum = least noisy point estimate).

Run directly (CI does, as a smoke job that uploads the JSON artifact)::

    python benchmarks/bench_adaptive_service.py

or under pytest, where the speedup floors are asserted::

    python -m pytest benchmarks/bench_adaptive_service.py -q
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.mpi.comm import SimComm
from repro.mpi.ops import make_reduction_op
from repro.obs import get_registry
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.trees import _ckernels
from repro.trees.shapes import balanced
from repro.util.pool import default_workers, pool_info

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_adaptive.json"

#: the acceptance-criterion workload: 48 ranks (the paper's testbed node
#: width), 4096-element chunks, balanced rank tree
N_RANKS = 48
CHUNK_LEN = 4096

#: serving-path workload: a stream of same-shape reductions
BATCH_ITEMS = 64
BATCH_CHUNK_LEN = 256


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time; the minimum is the least noisy point estimate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _seed_reduce(comm: SimComm, chunks, op, tree) -> float:
    """Frozen copy of the seed's ``SimComm.reduce`` execution body."""
    accs = [op.local(chunk) for chunk in chunks]
    slots = accs + [None] * (comm.n_ranks - 1)
    for a, b, out in tree.iter_steps():
        slots[out] = op.combine(slots[a], slots[b])
    return op.finalize(slots[tree.root_slot])


def _workload(seed: int, n_ranks: int = N_RANKS, chunk_len: int = CHUNK_LEN):
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(-1.0, 1.0, chunk_len) * 10.0 ** rng.integers(-6, 7, size=chunk_len)
        for _ in range(n_ranks)
    ]


def bench_collective(code: str = "K", repeats: int = 5) -> dict:
    """One 48-rank collective: seed object walk vs compiled vector engine."""
    chunks = _workload(seed=1234)
    comm = SimComm(N_RANKS)
    op = make_reduction_op(get_algorithm(code))
    tree = balanced(N_RANKS)

    ref = _seed_reduce(comm, chunks, op, tree)
    out = comm.reduce(chunks, op, tree, engine="vector").value
    assert np.float64(ref).tobytes() == np.float64(out).tobytes(), (
        f"vector engine diverged from seed path for {code}: {ref!r} vs {out!r}"
    )

    t_seed = _best_of(lambda: _seed_reduce(comm, chunks, op, tree), repeats)
    t_vector = _best_of(
        lambda: comm.reduce(chunks, op, tree, engine="vector"), repeats
    )
    return {
        "case": "collective_reduce",
        "algorithm": code,
        "n_ranks": N_RANKS,
        "chunk_len": CHUNK_LEN,
        "seed_path_s": t_seed,
        "vector_path_s": t_vector,
        "speedup": t_seed / t_vector,
        "reductions_per_s_vector": 1.0 / t_vector,
    }


def bench_serving(repeats: int = 3) -> dict:
    """Serving path: reduce_many stream vs a loop of standalone reduce calls."""
    rng = np.random.default_rng(99)
    batches = [
        [rng.random(BATCH_CHUNK_LEN) for _ in range(N_RANKS)]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)

    reducer = AdaptiveReducer(comm, threshold=1e-13)
    many = reducer.reduce_many(batches, tree="balanced")
    solo = [reducer.reduce(b, tree="balanced") for b in batches]
    for m, s in zip(many, solo):
        assert m.decision.code == s.decision.code
        assert np.float64(m.value).tobytes() == np.float64(s.value).tobytes(), (
            "serving path diverged from the per-call pipeline"
        )

    def run_many():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return r.reduce_many(batches, tree="balanced")

    def run_loop():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return [r.reduce(b, tree="balanced") for b in batches]

    t_many = _best_of(run_many, repeats)
    t_loop = _best_of(run_loop, repeats)
    results = run_many()
    solo_one = AdaptiveReducer(comm, threshold=1e-13).reduce(
        batches[0], tree="balanced"
    )
    cache = reducer.decision_cache_info()
    return {
        "case": "adaptive_serving",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": BATCH_CHUNK_LEN,
        "loop_s": t_loop,
        "reduce_many_s": t_many,
        "speedup": t_loop / t_many,
        # amortised per-reduction overhead of the profile+select stage,
        # vs what one standalone call pays for the same stage
        "profile_select_s_per_item_many": results[0].profile_seconds,
        "profile_select_s_per_item_loop": solo_one.profile_seconds,
        "reduce_s_per_item_many": results[0].reduce_seconds,
        "reduce_s_per_item_loop": solo_one.reduce_seconds,
        "decision_cache": cache,
    }


def bench_bound_tier(repeats: int = 3) -> dict:
    """The profiling tax vs the Hallman–Ipsen fast path (same serving
    stream).  ``bound_confidence`` close to 1 lets the probabilistic bounds
    certify the well-conditioned items, so the whole stream resolves from
    the cheap statistics pass — the acceptance criterion is that bound-tier
    selection is >= ``BOUND_TIER_FLOOR`` times cheaper per item than the
    empirical profile+select stage it replaces, with values
    bitwise-unchanged."""
    rng = np.random.default_rng(99)
    batches = [
        [rng.random(BATCH_CHUNK_LEN) for _ in range(N_RANKS)]
        for _ in range(BATCH_ITEMS)
    ]
    comm = SimComm(N_RANKS)
    confidence = 1 - 1e-6

    profiled = AdaptiveReducer(comm, threshold=1e-13).reduce_many(
        batches, tree="balanced", workers=1
    )
    tiered = AdaptiveReducer(
        comm, threshold=1e-13, bound_confidence=confidence
    ).reduce_many(batches, tree="balanced", workers=1)
    for p, b in zip(profiled, tiered):
        assert p.decision.code == b.decision.code
        assert np.float64(p.value).tobytes() == np.float64(b.value).tobytes(), (
            "bound tier changed a reduction value"
        )
    hits = sum(1 for r in tiered if r.decision.tier == "bound")

    def run_profiled():
        r = AdaptiveReducer(comm, threshold=1e-13)
        return r.reduce_many(batches, tree="balanced", workers=1)

    def run_tiered():
        r = AdaptiveReducer(comm, threshold=1e-13, bound_confidence=confidence)
        return r.reduce_many(batches, tree="balanced", workers=1)

    t_profiled = _best_of(run_profiled, repeats)
    t_tiered = _best_of(run_tiered, repeats)
    # per-item selection-stage costs (profile_seconds amortises the whole
    # pre-reduce stage: statistics+bounds on the fast path, sketch+policy on
    # the profiling path); best-of-N, same methodology as the wall times
    profile_select = min(
        run_profiled()[0].profile_seconds for _ in range(repeats)
    )
    bound_select = min(run_tiered()[0].profile_seconds for _ in range(repeats))
    return {
        "case": "bound_tier_serving",
        "items": BATCH_ITEMS,
        "n_ranks": N_RANKS,
        "chunk_len": BATCH_CHUNK_LEN,
        "bound_confidence": confidence,
        "fast_path_hit_rate": hits / BATCH_ITEMS,
        "profile_select_s_per_item": profile_select,
        "bound_select_s_per_item": bound_select,
        "select_speedup": profile_select / bound_select,
        "reduce_many_s_profiled": t_profiled,
        "reduce_many_s_bound_tier": t_tiered,
        "end_to_end_speedup": t_profiled / t_tiered,
    }


def run_all(repeats: int = 5) -> dict:
    cases = [
        bench_collective("K", repeats),
        bench_collective("CP", repeats),
        bench_serving(max(2, repeats - 2)),
        bench_bound_tier(max(2, repeats - 2)),
    ]
    return {
        "bench": "adaptive_service",
        "schema": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "ckernels": _ckernels.kernels_available(),
        # serving-engine context: the worker count auto-parallel paths would
        # use, and the persistent pool's reuse counters (starts vs dispatches)
        "workers": default_workers(),
        "pool_reuse": pool_info(),
        "cases": cases,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Adaptive-service bench (collective + serving path)."
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="enable repro.obs metrics for the run and write the registry "
        "snapshot (JSON) here; inspect with repro-metrics",
    )
    args = parser.parse_args(argv)
    registry = get_registry()
    if args.metrics_out:
        registry.enable()
    payload = run_all()
    payload["metrics_enabled"] = registry.enabled
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(registry.to_json() + "\n")
        print(f"metrics snapshot written to {metrics_path}")
    for c in payload["cases"]:
        if c["case"] == "collective_reduce":
            print(
                f"{c['case']:>18} {c['algorithm']:>3}  R={c['n_ranks']} "
                f"m={c['chunk_len']}  seed={c['seed_path_s'] * 1e3:.2f}ms  "
                f"vector={c['vector_path_s'] * 1e3:.2f}ms  "
                f"speedup={c['speedup']:.1f}x"
            )
        elif c["case"] == "adaptive_serving":
            print(
                f"{c['case']:>18}      B={c['items']}  loop={c['loop_s'] * 1e3:.1f}ms  "
                f"reduce_many={c['reduce_many_s'] * 1e3:.1f}ms  "
                f"speedup={c['speedup']:.1f}x  "
                f"cache={c['decision_cache']}"
            )
        else:
            print(
                f"{c['case']:>18}      B={c['items']}  "
                f"profile_select={c['profile_select_s_per_item'] * 1e6:.1f}us/item  "
                f"bound_select={c['bound_select_s_per_item'] * 1e6:.1f}us/item  "
                f"select_speedup={c['select_speedup']:.1f}x  "
                f"hit_rate={c['fast_path_hit_rate']:.2f}"
            )
    return 0


# -- pytest entry points: assert the acceptance floors -------------------------


def _collective_floor() -> float:
    """>= 10x needs the compiled fold kernels; the NumPy fold still has to
    beat the per-rank accumulator loop, but only by a bandwidth-bound
    margin, so the no-compiler floor drops to parity."""
    return 10.0 if _ckernels.kernels_available() else 1.0


def _assert_collective_floor(code: str) -> None:
    """The structural margin is ~13x; a loaded CI box can still starve one
    side's best-of-N, so take more repeats and allow a single re-measure
    (same policy as fig4's timing-ranking check)."""
    row = bench_collective(code, repeats=5)
    if row["speedup"] < _collective_floor():
        row = bench_collective(code, repeats=5)
    assert row["speedup"] >= _collective_floor(), row


def test_collective_vector_speedup_floor_kahan():
    """Acceptance: >= 10x over the seed object walk (R=48, m=4096, K)."""
    _assert_collective_floor("K")


def test_collective_vector_speedup_floor_cp():
    """Acceptance: >= 10x over the seed object walk (R=48, m=4096, CP)."""
    _assert_collective_floor("CP")


def test_serving_path_amortises_overhead():
    row = bench_serving(repeats=2)
    assert row["speedup"] > 1.0, row
    assert row["decision_cache"]["hits"] > 0, row


#: What the bound tier still saves per item.  Both selection stages read the
#: stream once — the tier's fused statistics kernel and the fused profiling
#: sketch — so the tier's margin is the sketch's extra per-element work (the
#: pairwise |x| sum and the TwoSum ladder) plus the per-item policy query it
#: skips: 2.3-3.4x at this workload on a 2-vCPU Xeon with the C kernels, on
#: one core, and on the NumPy fallback of both stages.  The floor stood at
#: 5x while the sketch was ~50 NumPy passes against the kernel's one.
BOUND_TIER_FLOOR = 2.0


def test_bound_tier_kills_profiling_tax():
    """Acceptance: the analytic fast path certifies the whole serving
    stream and its per-item selection cost is >= ``BOUND_TIER_FLOOR`` times
    below the empirical profile+select stage (one re-measure allowed, same
    policy as the collective floors)."""
    row = bench_bound_tier(repeats=3)
    if row["select_speedup"] < BOUND_TIER_FLOOR:
        row = bench_bound_tier(repeats=3)
    assert row["fast_path_hit_rate"] == 1.0, row
    assert row["select_speedup"] >= BOUND_TIER_FLOOR, row


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
