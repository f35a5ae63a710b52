"""The benchmark's three traffic mixes and their bitwise expectations.

Every item is one 6144-value float64 vector (48 ranks x 128), generated
from the run's seed.  The mixes vary the two input properties the
paper's selection depends on, the sum's condition number and its
dynamic range, so that each one sends the work through different layers
of ``repro-serve``.  Expected result bits come from a profiling-only
``AdaptiveReducer`` in this process, never from the daemon under test.

``BENCHMARK.json`` gates only ``reduce_wide`` and ``batch_mixed``.
``batch_narrow`` stays runnable for its traced per-layer split (the mix on
which the bound tier certifies every item and profiling does no work), but
its end-to-end figures are not gated: on a 2-vCPU share of a busy host,
nine runs spread by 26 % (throughput), 24 % (p50) and 39 % (p90 latency)
in interquartile range over median, more than any bound the benchmark
may set, while the other two mixes stayed within about 15 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RANKS = 48
CHUNK = 128
N_VALUES = RANKS * CHUNK
THRESHOLD = 1e-13
BOUND_CONFIDENCE = 0.999999
ROWS_PER_FRAME = 16

#: the paper's (k, dr) grid that ``batch_mixed`` cycles through
MIXED_GRID = tuple(
    (k, dr)
    for k in (1.0, 1e3, 1e6, 1e9, 1e12, math.inf)
    for dr in (8, 32)
)
#: dynamic range of the all-positive ``batch_narrow`` sets
NARROW_DR = 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    endpoint: str  # "/v1/reduce" (one 1-D item) or "/v1/reduce_many" (rows)
    rows: int  # items per request
    workers: int  # daemon --workers
    frames: int  # distinct requests generated per run, then cycled
    open_rate: float  # open-loop requests per second (~1/5 of capacity)

    def daemon_args(self) -> "list[str]":
        return [
            "--port", "0",
            "--ranks", str(RANKS),
            "--bound-confidence", repr(BOUND_CONFIDENCE),
            "--workers", str(self.workers),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="reduce_wide",
            why="one wide-exponent item per request: the bound tier resolves "
            "none, so every item pays frame parse, render, bound stats, "
            "profile and select",
            endpoint="/v1/reduce",
            rows=1,
            workers=1,
            frames=256,
            open_rate=85.0,
        ),
        Workload(
            name="batch_narrow",
            why="16 all-positive narrow-range rows per frame: the bound tier "
            "certifies every item, so profiling does no work and grouped "
            "reduce_batch dominates",
            endpoint="/v1/reduce_many",
            rows=ROWS_PER_FRAME,
            workers=1,
            frames=32,
            open_rate=33.0,
        ),
        Workload(
            name="batch_mixed",
            why="16 rows per frame from the paper's (k, dr) grid at workers=2: "
            "ST/K/CP/PR across both tiers, the only mix that runs the "
            "process pool",
            endpoint="/v1/reduce_many",
            rows=ROWS_PER_FRAME,
            workers=2,
            frames=24,
            open_rate=16.0,
        ),
    )
}


@dataclass
class Frame:
    """One request's rows and the bits and algorithms it must come back with."""

    rows: np.ndarray  # shape (rows, N_VALUES), float64
    expected_bits: np.ndarray  # uint64 per row
    expected_codes: "list[str]"


def _wide_row(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, N_VALUES) * 10.0 ** rng.integers(
        -6, 7, size=N_VALUES
    )


def generate_rows(workload: Workload, seed: int) -> np.ndarray:
    """All rows of a run, ``(frames * rows, N_VALUES)``, from ``seed`` alone."""
    from repro.generators.conditioned import generate_sum_set

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload.name)])
    n_rows = workload.frames * workload.rows
    if workload.name == "reduce_wide":
        return np.stack([_wide_row(rng) for _ in range(n_rows)])
    if workload.name == "batch_narrow":
        cells = [(1.0, NARROW_DR)] * n_rows
    else:
        # the grid in a fixed cyclic order: every run, whatever its seed,
        # sends the same (k, dr) cells in the same frames, and only the
        # values differ, so frame cost does not vary with the seed
        cells = [MIXED_GRID[i % len(MIXED_GRID)] for i in range(n_rows)]
    return np.stack(
        [
            np.asarray(generate_sum_set(N_VALUES, k, dr, seed=rng).values, np.float64)
            for k, dr in cells
        ]
    )


def expected_results(rows: np.ndarray) -> "tuple[np.ndarray, list[str]]":
    """Result bits and algorithm codes from a profiling-only reducer.

    The reducer has no bound tier, so a daemon answer that matches these
    also shows that the tier agreed with profiling.
    """
    from repro.mpi.comm import SimComm
    from repro.selection.selector import AdaptiveReducer

    comm = SimComm(RANKS)
    reducer = AdaptiveReducer(SimComm(RANKS), threshold=THRESHOLD)
    results = reducer.reduce_many(
        [comm.scatter_array(row) for row in rows], workers=1
    )
    bits = np.array([r.value for r in results], dtype="<f8").view("<u8")
    return bits, [r.decision.code for r in results]


def build_frames(workload: Workload, seed: int) -> "list[Frame]":
    rows = generate_rows(workload, seed)
    bits, codes = expected_results(rows)
    r = workload.rows
    return [
        Frame(rows[i * r : (i + 1) * r], bits[i * r : (i + 1) * r], codes[i * r : (i + 1) * r])
        for i in range(workload.frames)
    ]
