"""Self-test of the benchmark's trace arithmetic and daemon launch.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import traceview  # noqa: E402
from traceview import QueueMatcher, coverage, self_times, union_length  # noqa: E402


def span(sid, name, start, end, parent=None, rid=None, n=1, elements=0):
    return (sid, name, start, end, parent, rid, n, elements)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert union_length([(20, 25), (0, 10), (2, 3)]) == 15


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(1, "selector.reduce_many", 0, 100),
        span(2, "bound_tier.bound_stats_stream", 10, 30, parent=1),
        # two overlapping children count once
        span(3, "profile.profile_batch", 40, 70, parent=1),
        span(4, "policy.select", 60, 80, parent=1),
        span(5, "policy.select", 65, 75, parent=4),
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - (20 + 40)
    assert selfs[2] == 20
    assert selfs[3] == 30
    assert selfs[4] == 20 - 10
    assert selfs[5] == 10


def test_self_time_clips_children_to_the_parent():
    spans = [span(1, "a.x", 0, 50), span(2, "a.y", 40, 60, parent=1)]
    assert self_times(spans)[1] == 40


def test_queue_wait_matches_items_by_identity():
    matcher = QueueMatcher()
    a, b, c = [1.0], [1.0], [1.0]  # equal values, distinct objects
    matcher.submit([a, b], 100, rid=7)
    matcher.submit([c], 150, rid=8)
    matcher.tick([c, a], 300, tick_sid=41)
    matcher.tick([b], 500, tick_sid=42)
    assert sorted(matcher.waits) == [(7, 100, 300, 41), (7, 100, 500, 42), (8, 150, 300, 41)]
    # an item the batcher never saw is not invented a wait
    matcher.tick([[1.0]], 600, tick_sid=43)
    assert len(matcher.waits) == 3


def test_coverage_counts_queue_wait_and_shared_ticks_once():
    dump = {
        "spans": [
            span(1, "frames.parse_frame", 10, 20, rid=1),
            span(2, "batcher.submit_many", 20, 22, rid=1),
            span(3, "selector.reduce_many", 30, 80),
            span(4, "profile.profile_batch", 35, 55, parent=3),
            span(5, "protocol.render_response_into", 85, 90, rid=1),
        ],
        "waits": [(1, 22, 30, 3), (1, 22, 30, 3)],
    }
    share, shares = coverage(dump, [(1, 0, 100)], (0, 1000))
    # covered: 10..22 parse+submit, 22..30 queue, 30..80 tick, 85..90 render
    assert share == pytest.approx((12 + 8 + 50 + 5) / 100)
    assert shares["profile"] == pytest.approx(0.20)
    assert shares["selector"] == pytest.approx(0.30)
    assert shares["batcher.queue"] == pytest.approx(0.08)


def test_layer_metrics_per_item_and_window():
    dump = {
        "spans": [
            span(1, "selector.reduce_many", 0, 4000, n=4),
            span(2, "profile.profile_batch", 1000, 3000, parent=1, n=4, elements=400),
            span(3, "selector.reduce_many", 10_000, 11_000, n=2),  # outside window
        ],
        "waits": [(1, 0, 500, 1), (2, 0, 1500, 1), (3, 0, 2500, 1)],
        "cache": {"hits": 3, "misses": 1},
        "restarts": 0,
    }
    m = traceview.layer_metrics(dump, (0, 5000), (0, 5000))
    assert m["selector.us_per_item"] == pytest.approx(1.0)
    assert m["profile.us_per_item"] == pytest.approx(0.5)
    assert m["profile.ns_per_element"] == pytest.approx(5.0)
    assert m["batcher.items_per_tick"] == 4
    assert m["batcher.queue_wait_us_p50"] == pytest.approx(1.5)
    assert m["selector.decision_cache_hit_ratio"] == pytest.approx(0.75)
    assert m["pool.map_calls"] == 0


def test_untraced_runs_launch_the_unmodified_cli():
    import run
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        cmd = run.daemon_command(workload, traced=False)
        assert cmd[:3] == [sys.executable, "-m", "repro.serve.cli"]
        assert "traced_serve" not in " ".join(cmd)
        traced = run.daemon_command(workload, traced=True)
        assert traced[1].endswith("traced_serve.py")
        # both launch the daemon with the same arguments
        assert cmd[3:] == traced[2:]
    env = run.daemon_env()
    assert "PERFBENCH_TRACE_OUT" not in env
