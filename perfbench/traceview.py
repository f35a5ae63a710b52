"""Span arithmetic for the traced run: self time, queue waits, layer metrics.

A span is ``(sid, name, start_ns, end_ns, parent_sid, rid, n, elements)``:
``rid`` ties a span to one client request (``None`` for batch work), ``n``
counts the items or shards the call handled and ``elements`` the float64
values it touched (bytes for arena writes).  Times are CLOCK_MONOTONIC
nanoseconds, which the daemon and the benchmark process share.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

SID, NAME, START, END, PARENT, RID, N, ELEMENTS = range(8)

#: layers whose work moves into pool workers when ``WorkerPool.map`` runs;
#: wrappers exist only in the daemon process, so there they go unmeasured
IN_WORKER_LAYERS = ("bound_tier.", "profile.", "policy.", "comm.")


def union_length(intervals) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> "dict[int, int]":
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c[START], s[START]), min(c[END], s[END]))
            for c in children.get(s[SID], ())
            if c[END] > s[START] and c[START] < s[END]
        )
        out[s[SID]] = (s[END] - s[START]) - covered
    return out


class QueueMatcher:
    """Pairs each item's ``submit_many`` with the ``reduce_many`` that runs it.

    Items are matched by identity: the batcher hands ``reduce_many`` the
    very objects it was given at submit.  ``waits`` collects
    ``(rid, submit_ns, tick_start_ns, tick_sid)`` per item.
    """

    def __init__(self) -> None:
        self._pending: "dict[int, tuple[int, object]]" = {}
        self.waits: "list[tuple[object, int, int, int]]" = []

    def submit(self, items, now_ns: int, rid) -> None:
        for item in items:
            self._pending[id(item)] = (now_ns, rid)

    def tick(self, items, start_ns: int, tick_sid: int) -> None:
        for item in items:
            entry = self._pending.pop(id(item), None)
            if entry is not None:
                self.waits.append((entry[1], entry[0], start_ns, tick_sid))


def _in(window, t: int) -> bool:
    return window[0] <= t <= window[1]


class LayerStats:
    """Busy time, calls and item/element counts per span name in a window."""

    def __init__(self, spans, window) -> None:
        self.busy = defaultdict(int)
        self.calls = defaultdict(int)
        self.n = defaultdict(int)
        self.elements = defaultdict(int)
        self.max_elements = defaultdict(int)
        for s in spans:
            if not _in(window, s[START]):
                continue
            name = s[NAME]
            self.busy[name] += s[END] - s[START]
            self.calls[name] += 1
            self.n[name] += s[N]
            self.elements[name] += s[ELEMENTS]
            self.max_elements[name] = max(self.max_elements[name], s[ELEMENTS])

    def us_per(self, name: str, denominator: float) -> float:
        return self.busy[name] / 1e3 / denominator if denominator else 0.0


def layer_metrics(dump: dict, closed_window, open_window) -> "dict[str, float]":
    """The per-layer figures that come from spans (see ``PER_LAYER`` in run.py).

    Busy-time figures come from the closed-loop window, which sets
    throughput; queue wait comes from the open-loop window, which sets
    latency.
    """
    spans = dump["spans"]
    c = LayerStats(spans, closed_window)
    items = c.n["selector.reduce_many"]
    ticks = c.calls["selector.reduce_many"]
    parses = c.calls["frames.parse_frame"]
    waits = [
        (tick - submit) / 1e3
        for _rid, submit, tick, _sid in dump["waits"]
        if _in(open_window, submit)
    ]
    cache = dump["cache"]
    lookups = cache["hits"] + cache["misses"]
    reduce_batch_s = c.busy["comm.reduce_batch"] / 1e9
    return {
        "frames.parse_us_per_req": (
            c.us_per("frames.parse_frame", parses) + c.us_per("frames.payload_array", parses)
        ),
        "frames.encode_us_per_req": c.us_per(
            "frames.append_frame", c.calls["frames.append_frame"]
        ),
        "protocol.render_us_per_req": c.us_per(
            "protocol.render_response_into", c.calls["protocol.render_response_into"]
        ),
        "batcher.queue_wait_us_p50": statistics.median(waits) if waits else 0.0,
        "batcher.items_per_tick": items / ticks if ticks else 0.0,
        "selector.us_per_item": c.us_per("selector.reduce_many", items),
        "selector.decision_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "bound_tier.stats_us_per_item": c.us_per(
            "bound_tier.bound_stats_stream", c.n["bound_tier.bound_stats_stream"]
        ),
        "bound_tier.decide_us_per_item": c.us_per(
            "bound_tier.decide_stream", c.n["bound_tier.decide_stream"]
        ),
        "profile.us_per_item": c.us_per("profile.profile_batch", items),
        "profile.ns_per_element": (
            c.busy["profile.profile_batch"] / c.elements["profile.profile_batch"]
            if c.elements["profile.profile_batch"]
            else 0.0
        ),
        "policy.select_us_per_call": c.us_per("policy.select", c.calls["policy.select"]),
        "policy.select_calls": float(c.calls["policy.select"]),
        "comm.reduce_batch_us_per_item": c.us_per(
            "comm.reduce_batch", c.n["comm.reduce_batch"]
        ),
        "comm.bytes_per_s": (
            c.elements["comm.reduce_batch"] * 8 / reduce_batch_s if reduce_batch_s else 0.0
        ),
        "pool.map_calls": float(c.calls["pool.map"]),
        "pool.map_us_per_call": c.us_per("pool.map", c.calls["pool.map"]),
        "pool.shards_per_call": (
            c.n["pool.map"] / c.calls["pool.map"] if c.calls["pool.map"] else 0.0
        ),
        "pool.arena_bytes": float(c.max_elements["pool.write_concat"]),
        "pool.restarts": float(dump["restarts"]),
    }


def coverage(dump: dict, requests, window) -> "tuple[float, dict[str, float]]":
    """Share of client-side request time that server spans cover.

    ``requests`` are the client's ``(rid, sent_ns, done_ns)``.  A request
    is covered by its own spans, by its items' queue waits, and by every
    ``reduce_many`` tick that ran one of its items, all clipped to the
    request's own interval.  Returns the covered share and a per-layer
    split of client time by self time (queue wait as ``batcher.queue``).
    """
    spans = [s for s in dump["spans"] if _in(window, s[START])]
    own = defaultdict(list)
    by_sid = {s[SID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[RID] is not None:
            own[s[RID]].append(s)
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    selfs = self_times(spans)
    waits = defaultdict(list)
    for rid, submit, tick, sid in dump["waits"]:
        waits[rid].append((submit, tick, sid))

    def subtree(sid):
        stack, out = [sid], []
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(c[SID] for c in children.get(cur, ()))
        return out

    client_total = 0
    covered_total = 0
    shares = defaultdict(int)
    for rid, sent, done in requests:
        client_total += done - sent
        intervals = []
        counted: "set[int]" = set()
        for s in own.get(rid, ()):
            intervals.append((s[START], s[END]))
            counted.update(subtree(s[SID]))
        first_tick = None
        first_submit = None
        for submit, tick, sid in waits.get(rid, ()):
            intervals.append((submit, tick))
            first_submit = submit if first_submit is None else min(first_submit, submit)
            first_tick = tick if first_tick is None else min(first_tick, tick)
            tick_span = by_sid.get(sid)
            if tick_span is not None and sid not in counted:
                intervals.append((tick_span[START], tick_span[END]))
                counted.update(subtree(sid))
        clipped = [(max(a, sent), min(b, done)) for a, b in intervals if b > sent and a < done]
        covered_total += union_length(clipped)
        for sid in counted:
            if sid in by_sid:
                shares[by_sid[sid][NAME].split(".")[0]] += selfs[sid]
        if first_tick is not None:
            shares["batcher.queue"] += first_tick - first_submit
    if not client_total:
        return 0.0, {}
    return covered_total / client_total, {k: v / client_total for k, v in sorted(shares.items())}
