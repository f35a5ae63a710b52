"""The binary wire format under test: frame round-trips, zero-copy
payload views, exhaustive malformed-frame rejection (truncations, bad
magic/version/flags, absurd declared lengths, dtype/shape mismatches),
and the daemon's binary endpoints against bitwise serial recomputation —
including mixed binary/JSON pipelining on one keep-alive connection.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import threading

import numpy as np
import pytest

from repro.generators.conditioned import generate_sum_set
from repro.mpi import SimComm
from repro.obs import get_registry
from repro.selection import AdaptiveReducer
from repro.serve import ReproServeDaemon
from repro.serve.frames import (
    FRAME_CONTENT_TYPE,
    FRAME_MAGIC,
    FRAME_VERSION,
    KIND_REQUEST,
    KIND_RESPONSE,
    PREAMBLE_SIZE,
    WIRE_DTYPES,
    encode_frame,
    parse_frame,
    payload_array,
)
from repro.serve.protocol import HttpError, KeepAliveClient, encode_values
from repro.util.pool import shutdown_pool


@pytest.fixture
def global_obs():
    """The process-global registry, enabled and clean for one test."""
    reg = get_registry()
    reg.reset()
    reg.enable()
    yield reg
    reg.disable()
    reg.reset()


def _request_frame(values: np.ndarray, **header_extra) -> bytes:
    arr = np.ascontiguousarray(values)
    header = {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        **header_extra,
    }
    return encode_frame(header, arr, kind=KIND_REQUEST)


# ---------------------------------------------------------------------------
# frame encode/parse round-trips
# ---------------------------------------------------------------------------


class TestFrameRoundTrip:
    def test_roundtrip_preserves_bits_and_header(self):
        vec = np.array([1.5, -2.25, 1e-300, np.pi], dtype="<f8")
        raw = _request_frame(vec, threshold=1e-10)
        header, payload = parse_frame(raw, kind=KIND_REQUEST)
        assert header["threshold"] == 1e-10  # repro: allow[FP007] -- exact JSON round-trip of the frame header is the property under test
        arr = payload_array(header, payload)
        assert arr.tobytes() == vec.tobytes()

    def test_payload_is_zero_copy_view(self):
        vec = np.arange(64, dtype="<f8")
        raw = bytearray(_request_frame(vec))
        header, payload = parse_frame(raw, kind=KIND_REQUEST)
        arr = payload_array(header, payload)
        # the ndarray aliases the frame bytes — no intermediate copy
        assert np.shares_memory(arr, np.frombuffer(payload, dtype=np.uint8))
        del arr, payload  # release exports so the bytearray stays usable

    def test_payload_offset_is_8_aligned(self):
        for n in (0, 1, 7, 64):
            raw = _request_frame(np.arange(n, dtype="<f8"), pad="x" * n)
            head_len = int.from_bytes(raw[8:12], "little")
            assert (PREAMBLE_SIZE + head_len) % 8 == 0

    def test_all_wire_dtypes_roundtrip(self):
        for dtype_str in WIRE_DTYPES:
            vec = np.linspace(-3, 3, 40).astype(dtype_str)
            header, payload = parse_frame(
                _request_frame(vec), kind=KIND_REQUEST
            )
            arr = payload_array(header, payload)
            assert arr.dtype == np.dtype(dtype_str)
            assert arr.tobytes() == vec.tobytes()

    def test_2d_shape_roundtrip(self):
        mat = np.arange(24, dtype="<f8").reshape(4, 6)
        header, payload = parse_frame(_request_frame(mat), kind=KIND_REQUEST)
        arr = payload_array(header, payload)
        assert arr.shape == (4, 6)
        np.testing.assert_array_equal(arr, mat)

    def test_empty_payload(self):
        header, payload = parse_frame(
            _request_frame(np.empty(0, dtype="<f8")), kind=KIND_REQUEST
        )
        assert payload_array(header, payload).size == 0

    def test_unaligned_payload_copies_and_counts(self, global_obs):
        vec = np.arange(16, dtype="<f8")
        # deliberately misalign: header padded to 8n, then shift by 4
        frame = _request_frame(vec)
        shifted = bytearray(4) + bytearray(frame)
        view = memoryview(shifted)[4:]
        header, payload = parse_frame(view, kind=KIND_REQUEST)
        arr = payload_array(header, payload)
        assert arr.tobytes() == vec.tobytes()
        assert not np.shares_memory(arr, np.frombuffer(payload, np.uint8))
        snap = global_obs.snapshot()["gauges"]["repro_serve_bytes_copied"]
        assert snap[0]["value"] == vec.nbytes


# ---------------------------------------------------------------------------
# malformed frames: every shape of junk answers 400, nothing hangs
# ---------------------------------------------------------------------------


class TestMalformedFrames:
    def test_truncation_sweep_always_clean_400(self):
        """Every proper prefix of a valid frame is rejected cleanly."""
        frame = _request_frame(np.arange(12, dtype="<f8"), threshold=1e-9)
        for i in range(len(frame)):
            with pytest.raises(HttpError) as exc:
                parse_frame(frame[:i], kind=KIND_REQUEST)
            assert exc.value.status == 400

    def test_bad_magic(self):
        frame = bytearray(_request_frame(np.arange(4, dtype="<f8")))
        frame[:4] = b"EVIL"
        with pytest.raises(HttpError, match="magic"):
            parse_frame(bytes(frame), kind=KIND_REQUEST)

    def test_unknown_version(self):
        frame = bytearray(_request_frame(np.arange(4, dtype="<f8")))
        frame[4] = FRAME_VERSION + 1
        with pytest.raises(HttpError, match="version"):
            parse_frame(bytes(frame), kind=KIND_REQUEST)

    def test_reserved_flags_must_be_zero(self):
        frame = bytearray(_request_frame(np.arange(4, dtype="<f8")))
        frame[6] = 1
        with pytest.raises(HttpError, match="flags"):
            parse_frame(bytes(frame), kind=KIND_REQUEST)

    def test_kind_mismatch(self):
        frame = encode_frame(
            {"dtype": "<f8", "shape": [0]}, kind=KIND_RESPONSE
        )
        with pytest.raises(HttpError, match="kind"):
            parse_frame(frame, kind=KIND_REQUEST)

    def test_absurd_header_length(self):
        frame = bytearray(_request_frame(np.arange(4, dtype="<f8")))
        frame[8:12] = (1 << 30).to_bytes(4, "little")
        with pytest.raises(HttpError) as exc:
            parse_frame(bytes(frame), kind=KIND_REQUEST)
        assert exc.value.status == 400

    def test_length_closure_over_and_under(self):
        frame = _request_frame(np.arange(4, dtype="<f8"))
        for mutated in (frame + b"\0", frame[:-1]):
            with pytest.raises(HttpError) as exc:
                parse_frame(mutated, kind=KIND_REQUEST)
            assert exc.value.status == 400

    def test_non_json_header(self):
        head = b"\xffnotjson"
        body = FRAME_MAGIC + bytes([FRAME_VERSION, KIND_REQUEST, 0, 0])
        body += len(head).to_bytes(4, "little") + (0).to_bytes(4, "little")
        with pytest.raises(HttpError, match="JSON"):
            parse_frame(body + head, kind=KIND_REQUEST)

    def test_non_object_header(self):
        head = b"[1,2,3]"
        body = FRAME_MAGIC + bytes([FRAME_VERSION, KIND_REQUEST, 0, 0])
        body += len(head).to_bytes(4, "little") + (0).to_bytes(4, "little")
        with pytest.raises(HttpError, match="object"):
            parse_frame(body + head, kind=KIND_REQUEST)

    @pytest.mark.parametrize("dtype", ["<i8", ">f8", "f16", "object", 8])
    def test_dtype_whitelist(self, dtype):
        header = {"dtype": dtype, "shape": [4]}
        payload = memoryview(bytes(32))
        with pytest.raises(HttpError, match="dtype"):
            payload_array(header, payload)

    @pytest.mark.parametrize(
        "shape",
        [None, "4", [], [-1], [2.5], [True], [2, "x"], [3], [1 << 40]],
    )
    def test_shape_rejections(self, shape):
        header = {"dtype": "<f8", "shape": shape}
        payload = memoryview(bytes(32))  # 4 float64s
        with pytest.raises(HttpError) as exc:
            payload_array(header, payload)
        assert exc.value.status == 400

    def test_absurd_shape_never_allocates(self):
        # a declared petabyte shape must be rejected by arithmetic alone
        header = {"dtype": "<f8", "shape": [1 << 47]}
        with pytest.raises(HttpError, match="does not match"):
            payload_array(header, memoryview(bytes(16)))


# ---------------------------------------------------------------------------
# daemon integration: binary endpoints, bitwise identity, pipelining
# ---------------------------------------------------------------------------


def _serial_hex(vec: np.ndarray, ranks: int) -> str:
    comm = SimComm(ranks)
    result = AdaptiveReducer(comm).reduce(comm.scatter_array(vec))
    return float(result.value).hex()


def _response_array(body) -> "tuple[dict, np.ndarray]":
    header, payload = parse_frame(
        bytes(body), kind=KIND_RESPONSE, what="response"
    )
    return header, payload_array(header, payload, what="response")


class TestDaemonBinary:
    RANKS = 8

    def _vec(self, n=512, seed=3):
        rng = np.random.default_rng(seed)
        return rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, size=n)

    def test_binary_reduce_bitwise_equals_serial_and_json(self, global_obs):
        vec = self._vec()

        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r = await client.request(
                        "POST",
                        "/v1/reduce",
                        json.dumps({"values_b64": encode_values(vec)}).encode(),
                    )
                    assert r.status == 200
                    json_hex = r.json()["value_hex"]
                    r = await client.request(
                        "POST",
                        "/v1/reduce",
                        _request_frame(vec),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    assert r.status == 200
                    assert r.headers["content-type"] == FRAME_CONTENT_TYPE
                    header, arr = _response_array(r.body)
                    return json_hex, header, float(arr[0]).hex()

        json_hex, header, binary_hex = asyncio.run(run())
        assert binary_hex == json_hex == _serial_hex(vec, self.RANKS)
        assert header["status"] == 200
        assert header["algorithm"]
        assert header["n"] == vec.size
        codecs = {
            s["labels"]["codec"]: s["value"]
            for s in global_obs.snapshot()["counters"][
                "repro_serve_codec_total"
            ]
        }
        assert codecs == {"json": 1, "binary": 1}

    def test_binary_reduce_many_bitwise(self):
        vecs = [self._vec(seed=s) for s in range(5)]
        mat = np.ascontiguousarray(np.stack(vecs))

        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r = await client.request(
                        "POST",
                        "/v1/reduce_many",
                        _request_frame(mat),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    assert r.status == 200, bytes(r.body)
                    header, arr = _response_array(r.body)
                    return header, arr.copy()

        header, values = asyncio.run(run())
        assert header["shape"] == [len(vecs)]
        assert len(header["results"]) == len(vecs)
        for v, vec in zip(values, vecs):
            assert float(v).hex() == _serial_hex(vec, self.RANKS)

    def test_binary_f4_selects_at_its_own_roundoff(self):
        """fp32 wire inputs must reach selection as fp32 (not a silent
        upcast): the profile keys off the input dtype's unit roundoff."""
        vec = self._vec(n=2048).astype("<f4")  # repro: allow[FP005] -- fp32 wire payloads selecting at their own roundoff is the behaviour under test

        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r4 = await client.request(
                        "POST",
                        "/v1/reduce",
                        _request_frame(vec),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    assert r4.status == 200
                    # a response body views the client's receive buffer
                    # and is only valid until the next request: parse
                    # each one before pipelining the next
                    h4, _ = _response_array(r4.body)
                    r8 = await client.request(
                        "POST",
                        "/v1/reduce",
                        _request_frame(vec.astype("<f8")),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    assert r8.status == 200
                    h8, _ = _response_array(r8.body)
                    return h4, h8

        h4, h8 = asyncio.run(run())
        # same data, different wire precision: the f4 request must be
        # allowed to pick a different (cheaper/stronger) algorithm tier
        # than the f8 one — equality of predicted_std would mean the
        # daemon upcast the payload before profiling
        assert h4["predicted_std"] != h8["predicted_std"]

    def test_binary_wrong_ndim_400(self):
        mat = np.arange(24, dtype="<f8").reshape(4, 6)
        vec = np.arange(8, dtype="<f8")

        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r1 = await client.request(
                        "POST",
                        "/v1/reduce",
                        _request_frame(mat),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    one = (r1.status, r1.json())  # before the body recycles
                    r2 = await client.request(
                        "POST",
                        "/v1/reduce_many",
                        _request_frame(vec),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    return one, (r2.status, r2.json())

        (s1, b1), (s2, b2) = asyncio.run(run())
        assert s1 == 400 and "1-D" in b1["error"]
        assert s2 == 400 and "2-D" in b2["error"]

    def test_ensemble_rejects_binary(self):
        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r = await client.request(
                        "POST",
                        "/v1/ensemble",
                        _request_frame(np.arange(8, dtype="<f8")),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    return r.status, r.json()

        status, body = asyncio.run(run())
        assert status == 400
        assert "JSON-only" in body["error"]

    def test_mixed_codec_pipelining_with_errors(self):
        """Binary junk, JSON junk, and valid requests of both codecs
        interleave on ONE keep-alive connection; every error is a clean
        400 and framing never desynchronises."""
        vec = self._vec(n=128)
        expected_hex = _serial_hex(vec, self.RANKS)

        async def run():
            async with ReproServeDaemon(ranks=self.RANKS) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    outcomes = []
                    # valid binary
                    r = await client.request(
                        "POST", "/v1/reduce", _request_frame(vec),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    _, arr = _response_array(r.body)
                    outcomes.append((r.status, float(arr[0]).hex()))
                    # truncated binary frame (bad length closure)
                    r = await client.request(
                        "POST", "/v1/reduce", _request_frame(vec)[:-3],
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    outcomes.append((r.status, None))
                    # JSON junk
                    r = await client.request(
                        "POST", "/v1/reduce", b"{not json",
                    )
                    outcomes.append((r.status, None))
                    # bad magic
                    r = await client.request(
                        "POST", "/v1/reduce", b"X" * 64,
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    outcomes.append((r.status, None))
                    # valid JSON after all that, same connection
                    r = await client.request(
                        "POST",
                        "/v1/reduce",
                        json.dumps(
                            {"values_b64": encode_values(vec)}
                        ).encode(),
                    )
                    outcomes.append((r.status, r.json()["value_hex"]))
                    # valid binary again
                    r = await client.request(
                        "POST", "/v1/reduce", _request_frame(vec),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    _, arr = _response_array(r.body)
                    outcomes.append((r.status, float(arr[0]).hex()))
                    return outcomes

        outcomes = asyncio.run(run())
        assert [s for s, _ in outcomes] == [200, 400, 400, 400, 200, 200]
        assert outcomes[0][1] == expected_hex
        assert outcomes[4][1] == expected_hex
        assert outcomes[5][1] == expected_hex

    def test_binary_reduce_many_all_or_nothing_429(self):
        mat = np.ascontiguousarray(
            np.stack([self._vec(n=64, seed=s) for s in range(6)])
        )

        async def run():
            async with ReproServeDaemon(
                ranks=self.RANKS, queue_size=4, max_linger_us=50_000.0
            ) as daemon:
                async with KeepAliveClient(daemon.host, daemon.port) as client:
                    r = await client.request(
                        "POST",
                        "/v1/reduce_many",
                        _request_frame(mat),
                        content_type=FRAME_CONTENT_TYPE,
                    )
                    return r.status, r.json()

        status, body = asyncio.run(run())
        assert status == 429
        assert "cannot" in body["error"]


#: the paper's (k, dr) grid: at 512 values it selects ST, CP and PR across
#: both selection tiers
KDR_GRID = tuple(
    (k, dr) for k in (1.0, 1e3, 1e6, 1e9, 1e12, math.inf) for dr in (8, 32)
)


def _shm_segments() -> "set[str]":
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


class TestDaemonWorkersTwo:
    """The daemon at ``workers=2``, its default on 3-core hosts."""

    RANKS = 8
    CONFIDENCE = 0.999999

    def _grid_frame(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.stack(
            [
                np.asarray(generate_sum_set(512, k, dr, seed=rng).values, np.float64)
                for k, dr in KDR_GRID
            ]
        )

    def test_binary_reduce_many_bitwise_equal_to_one_worker(self):
        frames = [self._grid_frame(seed) for seed in range(3)]
        comm = SimComm(self.RANKS)
        expected = AdaptiveReducer(
            comm, threshold=1e-13, bound_confidence=self.CONFIDENCE
        ).reduce_many(
            [comm.scatter_array(row) for frame in frames for row in frame],
            workers=1,
        )
        shutdown_pool()  # start with no shard threads
        segments = _shm_segments()

        async def post(daemon, frame):
            async with KeepAliveClient(daemon.host, daemon.port) as client:
                r = await client.request(
                    "POST",
                    "/v1/reduce_many",
                    _request_frame(frame),
                    content_type=FRAME_CONTENT_TYPE,
                )
                assert r.status == 200, bytes(r.body)
                header, arr = _response_array(r.body)
                return header["results"], arr.copy()

        async def run():
            async with ReproServeDaemon(
                ranks=self.RANKS,
                workers=2,
                bound_confidence=self.CONFIDENCE,
                max_linger_us=20_000.0,
            ) as daemon:
                replies = await asyncio.gather(*(post(daemon, f) for f in frames))
                shard_threads = [
                    t for t in threading.enumerate()
                    if t.name.startswith("repro-shard")
                ]
                return replies, shard_threads, _shm_segments()

        replies, shard_threads, segments_during = asyncio.run(run())
        assert shard_threads, "no tick was sharded"
        assert segments_during == segments
        served = [
            (meta, value)
            for metas, values in replies
            for meta, value in zip(metas, values)
        ]
        assert len(served) == len(expected)
        tiers = set()
        for (meta, value), want in zip(served, expected):
            assert float(value).hex() == float(want.value).hex()
            assert meta["algorithm"] == want.decision.code
            assert meta["tier"] == want.decision.tier
            tiers.add(meta["tier"])
        assert tiers == {"bound", "profile"}
