"""Failure-injection: non-finite operands across the stack.

Documents (and pins) each layer's contract when NaN/inf reach it:

* the exact layers (superaccumulator, PR, AS) *reject* non-finite input
  loudly — silently absorbing a NaN would forfeit their guarantees;
* the plain floating-point algorithms (ST, K, CP) *propagate* per IEEE
  semantics, like the hardware loop they model;
* metrics and generators reject, since k/dr are undefined.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exact import ExactSum
from repro.metrics import condition_number, dynamic_range
from repro.mpi import SimComm
from repro.summation import SumContext, get_algorithm

NASTY = [math.nan, math.inf, -math.inf]


class TestExactLayersReject:
    @pytest.mark.parametrize("bad", NASTY)
    def test_superaccumulator(self, bad):
        acc = ExactSum()
        with pytest.raises(ValueError):
            acc.add(bad)
        with pytest.raises(ValueError):
            acc.add_array(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", NASTY)
    def test_prerounded(self, bad):
        alg = get_algorithm("PR")
        acc = alg.make_accumulator(SumContext(max_abs=1.0))
        with pytest.raises(ValueError):
            acc.add(bad)
        with pytest.raises(ValueError):
            acc.add_array(np.array([0.5, bad]))

    def test_distillation_raises_or_propagates_loudly(self):
        alg = get_algorithm("AS")
        with pytest.raises((ValueError, RuntimeError, OverflowError)):
            alg.sum_array(np.array([1.0, math.nan]))


class TestFloatingLayersPropagate:
    @pytest.mark.parametrize("code", ["ST", "K", "CP", "DD", "PW", "FB"])
    def test_nan_propagates(self, code):
        alg = get_algorithm(code)
        out = alg.sum_array(np.array([1.0, math.nan, 2.0]))
        assert math.isnan(out)

    @pytest.mark.parametrize("code", ["ST", "PW"])
    def test_inf_propagates(self, code):
        alg = get_algorithm(code)
        assert get_algorithm(code).sum_array(np.array([1.0, math.inf])) == math.inf

    def test_conflicting_infs_nan(self):
        out = get_algorithm("ST").sum_array(np.array([math.inf, -math.inf]))
        assert math.isnan(out)


class TestMetricsReject:
    def test_condition_number(self):
        with pytest.raises(ValueError):
            condition_number(np.array([1.0, math.nan]))

    def test_dynamic_range(self):
        with pytest.raises(ValueError):
            dynamic_range(np.array([1.0, math.inf]))


class TestCollectiveMaxAllreduce:
    """Regression: ``SimComm.max_allreduce`` used Python ``max``, whose NaN
    behaviour depends on operand order (``max(1.0, nan) == 1.0`` but
    ``max(nan, 1.0)`` is nan) — PR's pre-pass context became rank-order
    dependent.  A NaN summand must poison the max deterministically."""

    def test_nan_poisons_max_in_any_position(self):
        comm = SimComm(3)
        for vals in (
            [math.nan, 1.0, 2.0],
            [1.0, math.nan, 2.0],
            [2.0, 1.0, math.nan],
        ):
            assert math.isnan(comm.max_allreduce(vals))

    def test_nan_max_is_order_independent(self):
        comm = SimComm(2)
        assert math.isnan(comm.max_allreduce([1.0, math.nan]))
        assert math.isnan(comm.max_allreduce([math.nan, 1.0]))

    def test_finite_max_unchanged(self):
        comm = SimComm(3)
        assert comm.max_allreduce([1.0, 5.0, 2.0]) == 5.0
        assert comm.max_allreduce([math.inf, 1.0, 2.0]) == math.inf


class TestIntervalLayer:
    def test_interval_rejects_nan_endpoints(self):
        from repro.interval import Interval

        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_enclosure_of_nan_data_is_nan_safe(self):
        """Directed rounding of NaN data yields NaN endpoints; constructing
        the Interval then fails loudly rather than certifying garbage."""
        from repro.interval import sum_interval_array

        with pytest.raises(ValueError):
            sum_interval_array(np.array([1.0, math.nan]))


class TestSelectorSketchKernelParity:
    """The selector's profiling sketch of non-finite input is the same
    whether the fused C sketch kernel or the NumPy fallback computes it:
    NaN wins ``max_abs`` as ``np.maximum`` lets it, in any rank position,
    and the min-nonzero skips it."""

    FIELDS = ("n", "max_abs", "min_abs_nonzero", "abs_sum_hi", "abs_sum_lo",
              "sum_hi", "sum_lo")

    @pytest.mark.parametrize("bad", NASTY)
    @pytest.mark.parametrize("rank", [0, 2])
    def test_sketch_same_with_kernel_on_and_off(self, bad, rank, monkeypatch):
        from repro.selection import AdaptiveReducer
        from repro.selection import profile as profile_mod

        chunks = [
            np.array([1.0, -2.0, 0.0]),
            np.array([3.0, 2.0**-990]),
            np.array([-0.5, 4.0, -0.0]),
        ]
        chunks[rank] = np.append(chunks[rank], bad)
        reducer = AdaptiveReducer(SimComm(3))
        with np.errstate(invalid="ignore", over="ignore"):
            on = reducer.profile(chunks)
            monkeypatch.setattr(profile_mod._KERNEL, "load", lambda: None)
            off = reducer.profile(chunks)
        for field in self.FIELDS:
            a, b = getattr(on, field), getattr(off, field)
            assert (math.isnan(a) and math.isnan(b)) or (
                np.float64(a).tobytes() == np.float64(b).tobytes()
            ), (field, a, b)
        assert math.isnan(off.max_abs) == math.isnan(bad)
        assert off.min_abs_nonzero == 2.0**-990
