"""Perf trajectory: multicore serving engine throughput vs worker count.

The acceptance bar for the multicore serving engine is quantitative: on a
>= 4-core machine, the large-batch serving cases (``reduce_many`` on shard
threads and ``evaluate_ensemble`` on the persistent process pool) must clear
>= 2x throughput at 4 workers vs the serial path, and the persistent pool
must eliminate the per-call executor startup cost that a naive
``ProcessPoolExecutor``-per-request design pays.
This bench sweeps workers in {1, 2, 4, cpu_count - 1}, measures both, and
writes ``BENCH_serving_scale.json`` at the repo root so future PRs extend
the trajectory instead of re-arguing it.

Methodology
-----------
* Every parallel result is asserted bitwise-equal to the serial path
  **before** any timing (the engine's contract: sharding must not perturb
  the numerics).
* Each worker count is warmed with one untimed run first, so
  the sweep measures steady-state serving throughput, not one-off process
  spin-up; the spin-up cost itself is measured separately by the
  ``pool_startup`` case (cold executor-per-call vs warm persistent pool).
* Timings are best-of-N wall times (minimum = least noisy point estimate).
* On boxes with fewer cores than a sweep point, the speedup column is
  still recorded (it documents the oversubscribed regime); the pytest
  floors skip instead of failing.

Run directly (CI does, as a smoke job that uploads the JSON artifact)::

    python benchmarks/bench_serving_scale.py --scale ci

or under pytest, where the bitwise identity and scaling floors are
asserted::

    python -m pytest benchmarks/bench_serving_scale.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.mpi.comm import SimComm
from repro.obs import get_registry
from repro.selection.selector import AdaptiveReducer
from repro.summation import get_algorithm
from repro.trees import evaluate_ensemble
from repro.util.pool import get_pool, pool_info
from repro.util.rng import permutation_stream

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_serving_scale.json"

#: serving workloads per scale: (items, ranks, chunk_len) for reduce_many,
#: (n, n_trees) for the ensemble sweep
WORKLOADS = {
    "ci": {"reduce": (48, 8, 512), "ensemble": (4096, 512)},
    "paper": {"reduce": (256, 48, 4096), "ensemble": (65_536, 1000)},
}


def worker_sweep() -> "list[int]":
    """The sweep points: 1, 2, 4 and cpu_count - 1, deduplicated."""
    cpu = os.cpu_count() or 1
    return sorted({1, 2, 4, max(1, cpu - 1)})


def _physical_core_count() -> "int | None":
    """Unique (physical id, core id) pairs from /proc/cpuinfo, else None."""
    pairs = set()
    phys = core = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("physical id"):
                    phys = line.split(":", 1)[1].strip()
                elif line.startswith("core id"):
                    core = line.split(":", 1)[1].strip()
                elif not line.strip():
                    if phys is not None and core is not None:
                        pairs.add((phys, core))
                    phys = core = None
    except OSError:
        return None
    if phys is not None and core is not None:
        pairs.add((phys, core))
    return len(pairs) or None


def machine_info() -> dict:
    """True core counts, not just ``os.cpu_count()``.

    ``logical_cores`` is what the OS advertises (SMT threads included);
    ``usable_cores`` is this process's scheduling affinity — on a
    container-pinned CI runner this is the honest parallelism budget and
    the number every oversubscription flag is computed against;
    ``physical_cores`` deduplicates hyperthread siblings (falls back to the
    logical count when /proc/cpuinfo doesn't expose the topology).
    """
    logical = os.cpu_count() or 1
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        usable = logical
    physical = _physical_core_count() or logical
    return {
        "logical_cores": logical,
        "usable_cores": usable,
        "physical_cores": physical,
    }


def usable_cores() -> int:
    return machine_info()["usable_cores"]


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time; the minimum is the least noisy point estimate."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reduce_workload(scale: str):
    items, ranks, chunk_len = WORKLOADS[scale]["reduce"]
    rng = np.random.default_rng(424242)
    batches = [
        [
            rng.uniform(-1.0, 1.0, chunk_len)
            * 10.0 ** rng.integers(-6, 7, size=chunk_len)
            for _ in range(ranks)
        ]
        for _ in range(items)
    ]
    return batches, SimComm(ranks)


def bench_reduce_many(scale: str = "ci", repeats: int = 3) -> dict:
    """Large-batch adaptive serving: reduce_many throughput per worker count."""
    batches, comm = _reduce_workload(scale)
    reducer = AdaptiveReducer(comm, threshold=1e-13)
    serial = reducer.reduce_many(batches, tree="balanced", workers=1)

    usable = usable_cores()
    rows = []
    t1 = None
    for w in worker_sweep():
        out = reducer.reduce_many(batches, tree="balanced", workers=w)  # warm
        for a, b in zip(serial, out):
            assert np.float64(a.value).tobytes() == np.float64(b.value).tobytes()
            assert a.decision.code == b.decision.code
        t = _best_of(
            lambda w=w: reducer.reduce_many(batches, tree="balanced", workers=w),
            repeats,
        )
        t1 = t if w == 1 else t1
        rows.append(
            {
                "workers": w,
                "wall_s": t,
                "items_per_s": len(batches) / t,
                "speedup_vs_1": (t1 / t) if t1 else None,
                "bitwise_equal_serial": True,
                # more workers than schedulable cores: the wall time measures
                # contention, not scaling — excluded from speedup-floor gating
                "oversubscribed": w > usable,
            }
        )
    items, ranks, chunk_len = WORKLOADS[scale]["reduce"]
    return {
        "case": "reduce_many_scale",
        "items": items,
        "n_ranks": ranks,
        "chunk_len": chunk_len,
        "sweep": rows,
    }


def bench_ensemble(scale: str = "ci", repeats: int = 3) -> dict:
    """Ensemble-evaluation serving: tree-axis sharding per worker count."""
    n, n_trees = WORKLOADS[scale]["ensemble"]
    rng = np.random.default_rng(515151)
    data = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-6, 7, size=n)
    alg = get_algorithm("K")
    perms = np.stack(list(permutation_stream(n, n_trees, seed=7)))
    serial = evaluate_ensemble(data, "balanced", alg, n_trees, perms=perms, workers=1)

    usable = usable_cores()
    rows = []
    t1 = None
    for w in worker_sweep():
        out = evaluate_ensemble(
            data, "balanced", alg, n_trees, perms=perms, workers=w
        )  # warm
        assert serial.tobytes() == out.tobytes()
        t = _best_of(
            lambda w=w: evaluate_ensemble(
                data, "balanced", alg, n_trees, perms=perms, workers=w
            ),
            repeats,
        )
        t1 = t if w == 1 else t1
        rows.append(
            {
                "workers": w,
                "wall_s": t,
                "trees_per_s": n_trees / t,
                "speedup_vs_1": (t1 / t) if t1 else None,
                "bitwise_equal_serial": True,
                "oversubscribed": w > usable,
            }
        )
    return {
        "case": "ensemble_scale",
        "algorithm": "K",
        "n": n,
        "n_trees": n_trees,
        "sweep": rows,
    }


def _noop(x: int) -> int:
    return x


def bench_pool_startup(repeats: int = 3) -> dict:
    """Per-request cost: cold executor-per-call vs warm persistent pool.

    The cold side is what ``map_parallel`` paid before the persistent pool:
    spawn a fresh ``ProcessPoolExecutor``, run one trivial batch, tear it
    down.  The warm side dispatches the same batch through the already-live
    pool.  The ratio is the startup tax the pool removes from every call.
    """
    work = list(range(8))

    def cold():
        with ProcessPoolExecutor(max_workers=2) as ex:
            return list(ex.map(_noop, work))

    pool = get_pool(2)
    pool.map(_noop, work)  # warm: workers live and imported

    t_cold = _best_of(cold, repeats)
    t_warm = _best_of(lambda: pool.map(_noop, work), repeats)
    return {
        "case": "pool_startup",
        "cold_executor_s": t_cold,
        "warm_pool_s": t_warm,
        "startup_tax_removed_x": t_cold / t_warm,
    }


def run_all(scale: str = "ci", repeats: int = 3) -> dict:
    cases = [
        bench_reduce_many(scale, repeats),
        bench_ensemble(scale, repeats),
        bench_pool_startup(repeats),
    ]
    return {
        "bench": "serving_scale",
        "schema": 1,
        "scale": scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        # kept for schema compatibility; the honest numbers live in "cores"
        "cpu_count": os.cpu_count(),
        "cores": machine_info(),
        "worker_sweep": worker_sweep(),
        "pool": pool_info(),
        "cases": cases,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving-engine scaling bench (persistent pool + shm)."
    )
    parser.add_argument("--scale", choices=sorted(WORKLOADS), default="ci")
    parser.add_argument("--repeats", type=int, default=3)
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
    payload = run_all(args.scale, args.repeats)
    payload["metrics_enabled"] = registry.enabled
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    cores = payload["cores"]
    print(
        f"wrote {OUTPUT}  (logical={cores['logical_cores']} "
        f"usable={cores['usable_cores']} physical={cores['physical_cores']})"
    )
    if args.metrics_out:
        metrics_path = Path(args.metrics_out)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(registry.to_json() + "\n")
        print(f"metrics snapshot written to {metrics_path}")
    for c in payload["cases"]:
        if c["case"] == "pool_startup":
            print(
                f"{c['case']:>18}  cold={c['cold_executor_s'] * 1e3:.1f}ms  "
                f"warm={c['warm_pool_s'] * 1e3:.1f}ms  "
                f"tax_removed={c['startup_tax_removed_x']:.0f}x"
            )
            continue
        for row in c["sweep"]:
            flag = "  [oversubscribed]" if row.get("oversubscribed") else ""
            print(
                f"{c['case']:>18}  w={row['workers']}  "
                f"wall={row['wall_s'] * 1e3:.1f}ms  "
                f"speedup_vs_1={row['speedup_vs_1']:.2f}x{flag}"
            )
    return 0


# -- pytest entry points: identity always, scaling floors where measurable ----


def test_reduce_many_bitwise_identity():
    """The identity contract holds on any machine, any core count."""
    row = bench_reduce_many("ci", repeats=1)
    assert all(r["bitwise_equal_serial"] for r in row["sweep"]), row


def test_ensemble_bitwise_identity():
    row = bench_ensemble("ci", repeats=1)
    assert all(r["bitwise_equal_serial"] for r in row["sweep"]), row


def test_reduce_many_scaling_floor():
    """Acceptance: >= 2x throughput at 4 workers vs serial (needs >= 4 cores).

    Gated on *usable* cores (scheduling affinity), not ``os.cpu_count()``:
    an oversubscribed sweep point measures contention, not scaling, and is
    excluded from floor gating by construction.
    """
    if usable_cores() < 4:
        pytest.skip("scaling floor needs >= 4 schedulable cores")
    row = bench_reduce_many("ci", repeats=3)
    by_w = {r["workers"]: r for r in row["sweep"]}
    assert not by_w[4]["oversubscribed"]
    assert by_w[4]["speedup_vs_1"] >= 2.0, row


def test_reduce_many_speedup_floor_two_workers():
    """CI gate: parallel must beat serial at workers=2 on >= 4-core runners."""
    if usable_cores() < 4:
        pytest.skip("speedup floor needs >= 4 schedulable cores")
    row = bench_reduce_many("ci", repeats=3)
    by_w = {r["workers"]: r for r in row["sweep"]}
    assert not by_w[2]["oversubscribed"]
    assert by_w[2]["speedup_vs_1"] > 1.0, row


def test_persistent_pool_removes_startup_tax():
    """A warm dispatch must be cheaper than executor-per-call spin-up."""
    row = bench_pool_startup(repeats=2)
    assert row["warm_pool_s"] < row["cold_executor_s"], row


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
