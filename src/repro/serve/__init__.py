"""repro.serve — the network serving front end.

ROADMAP item 1 calls network serving "the piece that turns library into
service": the batched selection/reduction engines
(:meth:`repro.selection.selector.AdaptiveReducer.reduce_many`, the bound
tier, the persistent worker pool) only pay off when they sit in front of
real concurrent traffic.  This package is that front end, built on stdlib
``asyncio`` with a hand-rolled minimal HTTP/1.1 layer — no new
dependencies:

* :mod:`repro.serve.protocol` — wire parsing/rendering (reusable
  per-connection receive buffers, cached response-header scaffolds) plus
  the async clients used by the tests and the serving bench, including
  the buffer-reusing :class:`~repro.serve.protocol.KeepAliveClient`;
* :mod:`repro.serve.frames` — the ``application/x-repro-frame`` binary
  codec: versioned frames whose payload bytes reach NumPy as zero-copy
  views of the receive buffer (JSON stays for compatibility);
* :mod:`repro.serve.batcher` — the dynamic micro-batcher: a bounded queue
  drained into one ``reduce_many`` call per tick (max-batch-size and
  max-linger knobs), with per-request deadlines, backpressure, and a
  graceful drain;
* :mod:`repro.serve.daemon` — the asyncio HTTP daemon exposing
  ``POST /v1/reduce``, ``POST /v1/reduce_many``, ``POST /v1/ensemble``,
  ``GET /metrics`` (Prometheus text) and ``GET /healthz``;
* :mod:`repro.serve.cli` — the ``repro-serve`` entry point, including the
  SIGTERM/SIGINT handling that drains in-flight requests and releases the
  shard threads and the worker pool's shared-memory arenas (``atexit``
  alone does not run on SIGTERM).

Every response value is bitwise-identical to a standalone
:meth:`AdaptiveReducer.reduce` of the same payload — micro-batching changes
*cost*, never *results* — which is the whole point of serving a
reproducibility engine.
"""

from repro.serve.batcher import (
    BatcherClosing,
    BatcherFull,
    DeadlineExceeded,
    MicroBatcher,
)
from repro.serve.daemon import ReproServeDaemon
from repro.serve.frames import FRAME_CONTENT_TYPE, encode_frame, parse_frame
from repro.serve.protocol import KeepAliveClient

__all__ = [
    "MicroBatcher",
    "BatcherFull",
    "BatcherClosing",
    "DeadlineExceeded",
    "ReproServeDaemon",
    "FRAME_CONTENT_TYPE",
    "encode_frame",
    "parse_frame",
    "KeepAliveClient",
]
