"""Asyncio load generator speaking HTTP/1.1 and the binary frame codec.

The codec is written out here rather than imported from ``repro.serve``,
so that a change to the daemon's codec changes what is measured and not
the client doing the measuring.  Each connection is keep-alive; the open
loop pipelines requests on it, so a response is matched to its request
by order.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from dataclasses import dataclass, field

import numpy as np

CONTENT_TYPE = "application/x-repro-frame"
_PREAMBLE = struct.Struct("<4sBBHII")
_MAGIC = b"RPRF"
_KIND_REQUEST = 1


def decode_response_frame(body: bytes) -> "tuple[dict, np.ndarray]":
    magic, _version, _kind, _flags, head_len, payload_len = _PREAMBLE.unpack_from(body, 0)
    if magic != _MAGIC or _PREAMBLE.size + head_len + payload_len != len(body):
        raise ValueError("malformed response frame")
    header = json.loads(body[_PREAMBLE.size : _PREAMBLE.size + head_len])
    payload = np.frombuffer(body, dtype="<u8", offset=_PREAMBLE.size + head_len)
    return header, payload


@dataclass
class Outcome:
    """What one phase's requests came back with."""

    attempted: int = 0
    failed: int = 0
    items: int = 0
    rejected: int = 0  # 429/503/504 answers (also counted in ``failed``)
    latencies: "list[float]" = field(default_factory=list)  # seconds, successes
    lateness: "list[float]" = field(default_factory=list)  # send minus due, seconds
    mix: "dict[tuple[str, str], int]" = field(default_factory=dict)
    errors: "list[str]" = field(default_factory=list)
    # per request: (rid, sent, done) monotonic ns, for trace coverage
    spans: "list[tuple[int, int, int]]" = field(default_factory=list)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.items += other.items
        self.rejected += other.rejected
        self.latencies += other.latencies
        self.lateness += other.lateness
        self.errors += other.errors[: max(0, 5 - len(self.errors))]
        self.spans += other.spans
        for key, count in other.mix.items():
            self.mix[key] = self.mix.get(key, 0) + count

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


class Traffic:
    """The request bodies of one run plus the checker for their answers."""

    def __init__(self, workload, frames, *, with_rid: bool) -> None:
        self.workload = workload
        self.frames = frames
        self.with_rid = with_rid
        self._next = 0
        self._rid = 0
        self._payloads = [
            np.ascontiguousarray(f.rows[0] if workload.rows == 1 else f.rows, dtype="<f8")
            for f in frames
        ]
        self._wire = [b"".join(self._encode(i, None)) for i in range(len(frames))]

    def _encode(self, i: int, rid: "int | None") -> "list[bytes]":
        payload = self._payloads[i]
        header = {"dtype": "<f8", "shape": list(payload.shape)}
        if rid is not None:
            # read only by the traced launcher, to tie spans to requests
            header["rid"] = rid
        head = json.dumps(header, separators=(",", ":")).encode()
        head += b" " * (-(_PREAMBLE.size + len(head)) % 8)
        body = payload.data.cast("B")
        preamble = _PREAMBLE.pack(_MAGIC, 1, _KIND_REQUEST, 0, len(head), len(body))
        length = len(preamble) + len(head) + len(body)
        http = (
            f"POST {self.workload.endpoint} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: {CONTENT_TYPE}\r\nContent-Length: {length}\r\n\r\n"
        ).encode()
        return [http + preamble + head, body]

    def next_request(self) -> "tuple[int, int, list]":
        """``(frame index, rid, wire parts)``; frames cycle in order.

        Traced runs put a fresh ``rid`` in each header and send the
        payload bytes as they are, without joining them to the header.
        """
        i = self._next % len(self.frames)
        self._next += 1
        self._rid += 1
        if self.with_rid:
            return i, self._rid, self._encode(i, self._rid)
        return i, self._rid, [self._wire[i]]

    def check(self, frame_index: int, status: int, body: bytes, out: Outcome) -> bool:
        """Record one answer; False if it counts as failed."""
        frame = self.frames[frame_index]
        if status != 200:
            if status in (429, 503, 504):
                out.rejected += 1
            out.fail(f"HTTP {status}: {body[:120]!r}")
            return False
        try:
            header, bits = decode_response_frame(body)
        except (ValueError, struct.error) as exc:
            out.fail(f"bad frame: {exc}")
            return False
        metas = header.get("results") if self.workload.rows > 1 else [header]
        if bits.shape != frame.expected_bits.shape or not np.array_equal(bits, frame.expected_bits):
            out.fail(f"bit mismatch on frame {frame_index}")
            return False
        codes = [m.get("algorithm") for m in metas or []]
        if codes != frame.expected_codes:
            out.fail(f"algorithm mismatch on frame {frame_index}: {codes}")
            return False
        for m in metas:
            key = (m["algorithm"], m["tier"])
            out.mix[key] = out.mix.get(key, 0) + 1
        out.items += len(metas)
        return True


async def _read_response(reader: asyncio.StreamReader) -> "tuple[int, bytes]":
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    return status, body


async def open_connections(port: int, n: int):
    return [await asyncio.open_connection("127.0.0.1", port) for _ in range(n)]


async def close_connections(conns) -> None:
    for _reader, writer in conns:
        writer.close()
    for _reader, writer in conns:
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def closed_loop(conns, traffic: Traffic, seconds: float) -> "tuple[Outcome, float]":
    """Each connection sends its next request when the previous answer is in.

    Returns the outcome and the phase's wall time in seconds.
    """
    out = Outcome()
    stop_at = time.monotonic() + seconds

    async def run(reader, writer) -> None:
        while time.monotonic() < stop_at:
            i, rid, wire = traffic.next_request()
            out.attempted += 1
            sent = time.monotonic_ns()
            try:
                writer.writelines(wire)
                status, body = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                out.fail(f"connection dropped: {exc!r}")
                return
            done = time.monotonic_ns()
            if traffic.check(i, status, body, out):
                out.latencies.append((done - sent) / 1e9)
                out.spans.append((rid, sent, done))

    start = time.monotonic()
    await asyncio.gather(*(run(r, w) for r, w in conns))
    return out, time.monotonic() - start


async def open_loop(conns, traffic: Traffic, rate: float, seconds: float) -> Outcome:
    """Send on a fixed schedule, round-robin over pipelined connections.

    Latency runs from when a request was due, so a stall also charges the
    requests queued behind it; lateness is how far sends trailed the
    schedule.
    """
    out = Outcome()
    n_requests = max(1, int(rate * seconds))
    t0 = time.monotonic_ns() + 20_000_000
    interval = 1e9 / rate
    inflight = [asyncio.Queue() for _ in conns]

    async def send() -> None:
        for k in range(n_requests):
            due = t0 + int(k * interval)
            delay = (due - time.monotonic_ns()) / 1e9
            if delay > 0:
                await asyncio.sleep(delay)
            c = k % len(conns)
            i, rid, wire = traffic.next_request()
            sent = time.monotonic_ns()
            out.attempted += 1
            out.lateness.append((sent - due) / 1e9)
            writer = conns[c][1]
            if writer.is_closing():
                out.fail("connection dropped before send")
                continue
            writer.writelines(wire)
            inflight[c].put_nowait((i, rid, due, sent))
        for q in inflight:
            q.put_nowait(None)

    async def receive(c: int) -> None:
        reader = conns[c][0]
        while True:
            entry = await inflight[c].get()
            if entry is None:
                return
            i, rid, due, sent = entry
            try:
                status, body = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
                out.fail(f"connection dropped: {exc!r}")
                conns[c][1].close()
                continue
            done = time.monotonic_ns()
            if traffic.check(i, status, body, out):
                out.latencies.append((done - due) / 1e9)
                out.spans.append((rid, sent, done))

    await asyncio.gather(send(), *(receive(c) for c in range(len(conns))))
    return out


async def one_request(port: int, traffic: Traffic) -> Outcome:
    """A single request on a fresh connection (the set-up probe)."""
    out = Outcome()
    conns = []
    i, _rid, wire = traffic.next_request()
    out.attempted += 1
    try:
        conns = await open_connections(port, 1)
        reader, writer = conns[0]
        writer.writelines(wire)
        status, body = await _read_response(reader)
        traffic.check(i, status, body, out)
    except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
        out.fail(f"connection dropped: {exc!r}")
    finally:
        await close_connections(conns)
    return out
