"""Run ``repro-serve`` with spans recorded around each layer's public calls.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    PERFBENCH_TRACE_OUT=trace.json python perfbench/traced_serve.py --port 0 ...

The arguments are those of ``repro.serve.cli``.  The wrappers are
installed in this process only; pool workers start from fresh imports
and run unwrapped.  Spans stay in memory and are written to
``PERFBENCH_TRACE_OUT`` after the SIGTERM drain returns.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import time

from traceview import QueueMatcher


class Tracer:
    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.queue = QueueMatcher()
        self.reducers: "dict[int, object]" = {}
        self.pools: "dict[int, object]" = {}
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        #: the request a span belongs to, from the ``rid`` its frame header carries
        self.rid = contextvars.ContextVar("perfbench_rid", default=None)

    def wrap(self, name, fn, counts=None, after=None):
        """``fn`` timed as span ``name``.

        ``counts(args, kwargs, result)`` gives the span's ``(n, elements)``;
        ``after(sid, start, args, kwargs, result)`` runs once the span has
        ended, so its cost stays outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            token = self._current.set(sid)
            parent = None if token.old_value is contextvars.Token.MISSING else token.old_value
            result = None
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic_ns()
                self._current.reset(token)
                if after is not None:
                    after(sid, start, args, kwargs, result)
                n, elements = counts(args, kwargs, result) if counts else (1, 0)
                self.spans.append((sid, name, start, end, parent, self.rid.get(), n, elements))

        return traced

    def dump(self) -> dict:
        hits = misses = 0
        for reducer in self.reducers.values():
            info = reducer.decision_cache_info()
            hits += info["hits"]
            misses += info["misses"]
        return {
            "spans": self.spans,
            "waits": self.queue.waits,
            "cache": {"hits": hits, "misses": misses},
            # the same per-pool counter pool_info() sums; the pools are
            # gone from pool_info() once the drain has shut them down
            "restarts": sum(p.restarts for p in self.pools.values()),
        }


def _items(i):
    """Span counts for a call whose ``args[i]`` is a sequence of items."""
    return lambda args, kwargs, result: (len(args[i]), 0)


def _elements(i):
    """Span counts for a call whose ``args[i]`` is a list of per-rank chunk lists."""
    return lambda args, kwargs, result: (
        len(args[i]),
        sum(len(c) for chunks in args[i] for c in chunks),
    )


def install(tracer: Tracer) -> None:
    """Patch each layer's entry points where their callers look them up."""
    import repro.selection.selector as selector
    import repro.serve.daemon as daemon
    from repro.mpi.comm import SimComm
    from repro.selection.bound_tier import BoundTier
    from repro.selection.policy import AnalyticPolicy
    from repro.serve.batcher import MicroBatcher
    from repro.util.pool import SharedArena, WorkerPool

    def set_rid(_sid, _start, _args, _kwargs, result):
        if result is not None:
            tracer.rid.set(result[0].get("rid"))

    def on_submit(_sid, start, args, _kwargs, result):
        if result is not None:  # rejected submits never reach a tick
            tracer.queue.submit(args[1], start, tracer.rid.get())

    def on_tick(sid, start, args, _kwargs, _result):
        tracer.reducers[id(args[0])] = args[0]
        tracer.queue.tick(args[1], start, sid)

    def on_map(_sid, _start, args, _kwargs, _result):
        tracer.pools[id(args[0])] = args[0]

    wrap = tracer.wrap
    daemon.parse_frame = wrap("frames.parse_frame", daemon.parse_frame, after=set_rid)
    daemon.payload_array = wrap("frames.payload_array", daemon.payload_array)
    daemon.append_frame = wrap("frames.append_frame", daemon.append_frame)
    daemon.render_response_into = wrap(
        "protocol.render_response_into", daemon.render_response_into
    )
    MicroBatcher.submit_many = wrap(
        "batcher.submit_many", MicroBatcher.submit_many, _items(1), after=on_submit
    )
    selector.AdaptiveReducer.reduce_many = wrap(
        "selector.reduce_many", selector.AdaptiveReducer.reduce_many, _items(1), after=on_tick
    )
    selector.bound_stats_stream = wrap(
        "bound_tier.bound_stats_stream", selector.bound_stats_stream, _elements(0)
    )
    BoundTier.decide_stream = wrap("bound_tier.decide_stream", BoundTier.decide_stream, _items(1))
    selector.profile_batch = wrap("profile.profile_batch", selector.profile_batch, _elements(0))
    AnalyticPolicy.select = wrap("policy.select", AnalyticPolicy.select)
    SimComm.reduce_batch = wrap("comm.reduce_batch", SimComm.reduce_batch, _elements(1))
    WorkerPool.map = wrap("pool.map", WorkerPool.map, _items(2), after=on_map)
    # write_concat(arrays, total, dtype): the span's elements are bytes written
    SharedArena.write_concat = wrap(
        "pool.write_concat",
        SharedArena.write_concat,
        lambda args, kwargs, result: (len(args[1]), int(args[2]) * 8),
    )


def main() -> int:
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    install(tracer)
    from repro.serve.cli import main as serve_main

    code = serve_main(sys.argv[1:])
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
