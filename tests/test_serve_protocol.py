"""Wire-protocol tests for the serve layer.

Three concerns, each pinned independently of the networked e2e suite:

* **Round-trips** — hypothesis drives every codec's encoded form through
  :func:`~repro.serve.protocol.pack_vector` / ``unpack_vector`` and whole
  frames through ``pack_frame`` / ``unpack_frame``, asserting the binary
  wire form reproduces the in-memory representation exactly (bit-exact
  floats, identical support, identical signs).
* **Rejection** — malformed, truncated, and oversized frames raise
  :class:`~repro.exceptions.ProtocolError` with the documented machine
  codes, and a live server maps those codes onto the right HTTP statuses
  (400/404/413/426), refusing version-mismatched handshakes.
* **Transport.decode** — the boundary-crossing decode validates payload
  dtype/shape/support against the model template and raises instead of
  silently reshaping; a regression pin for the transport fix.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ProtocolError
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.serve import protocol
from repro.systems.compression import (
    EncodedVector,
    Float16Codec,
    IdentityCodec,
    QSGDCodec,
    SignSGDCodec,
    TopKCodec,
)
from repro.systems.transport import Transport

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)

vectors = st.lists(finite_floats, min_size=1, max_size=64).map(
    lambda values: np.array(values, dtype=np.float64)
)


def all_codecs():
    return [
        None,  # the raw float64 path used when the server runs codec-free
        IdentityCodec(),
        Float16Codec(),
        TopKCodec(fraction=0.3),
        TopKCodec(k=2),
        QSGDCodec(levels=16),
        QSGDCodec(levels=5),  # non-power-of-two level count
        SignSGDCodec(),
    ]


def encode(codec, values, rng):
    if codec is None:
        return EncodedVector(
            codec="raw",
            dim=values.size,
            wire_bytes=values.size * 8,
            data={"values": np.asarray(values, dtype=np.float64)},
        )
    return codec.encode(values, rng=rng)


# --------------------------------------------------------------------------- #
# Vector round-trips
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "codec", all_codecs(), ids=lambda c: "raw" if c is None else repr(c)
)
@given(values=vectors, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vector_wire_roundtrip_is_exact(codec, values, seed):
    """pack_vector → unpack_vector reproduces every codec field bit-exactly."""
    encoded = encode(codec, values, np.random.default_rng(seed))
    wire = protocol.pack_vector(codec, encoded)
    assert len(wire) == protocol.payload_wire_bytes(codec, values.size)
    decoded = protocol.unpack_vector(codec, values.size, wire)
    assert decoded.codec == encoded.codec
    assert decoded.dim == encoded.dim
    assert decoded.wire_bytes == encoded.wire_bytes
    assert set(decoded.data) == set(encoded.data)
    for key, original in encoded.data.items():
        assert np.array_equal(
            np.asarray(decoded.data[key], dtype=np.float64),
            np.asarray(original, dtype=np.float64),
        ), key
    if codec is not None:
        assert np.array_equal(codec.decode(decoded), codec.decode(encoded))


@given(values=vectors)
@settings(max_examples=25, deadline=None)
def test_float16_wire_bytes_match_ledger_exactly(values):
    """float16 is the codec whose real packed bytes equal the nominal ones."""
    codec = Float16Codec()
    wire = protocol.pack_vector(codec, codec.encode(values))
    assert len(wire) == codec.wire_bytes(values.size)


@given(value=st.floats(allow_nan=True, allow_infinity=True, width=64))
@settings(max_examples=50, deadline=None)
def test_hex_float_roundtrip(value):
    restored = protocol.unhex_float(protocol.hex_float(value))
    if np.isnan(value):
        assert np.isnan(restored)
    else:
        assert restored == value and np.signbit(restored) == np.signbit(value)


# --------------------------------------------------------------------------- #
# Frame round-trips and rejection
# --------------------------------------------------------------------------- #

headers = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(), st.text(max_size=8), st.none(), st.booleans()),
    max_size=6,
)
blob_lists = st.lists(st.binary(max_size=128), max_size=5)


@given(header=headers, blobs=blob_lists)
@settings(max_examples=50, deadline=None)
def test_frame_roundtrip(header, blobs):
    packed = protocol.pack_frame(header, blobs)
    restored_header, restored_blobs = protocol.unpack_frame(packed)
    assert restored_header == header
    assert restored_blobs == blobs


@given(header=headers, blobs=blob_lists, cut=st.integers(min_value=1, max_value=64))
@settings(max_examples=50, deadline=None)
def test_truncated_frame_is_rejected(header, blobs, cut):
    packed = protocol.pack_frame(header, blobs)
    with pytest.raises(ProtocolError):
        protocol.unpack_frame(packed[: max(0, len(packed) - cut)])


def test_bad_magic_and_garbage_are_rejected():
    with pytest.raises(ProtocolError):
        protocol.unpack_frame(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ProtocolError):
        protocol.unpack_frame(b"")
    # Valid preamble, header bytes that are not JSON.
    frame = bytearray(protocol.pack_frame({"a": 1}))
    frame[protocol._HEADER_STRUCT.size] = 0xFF
    with pytest.raises(ProtocolError):
        protocol.unpack_frame(bytes(frame))


def test_trailing_bytes_are_rejected():
    packed = protocol.pack_frame({"kind": "x"}, [b"abc"])
    with pytest.raises(ProtocolError):
        protocol.unpack_frame(packed + b"\x00")


def test_oversized_frame_rejected_with_too_large():
    packed = protocol.pack_frame({"kind": "x"}, [b"y" * 256])
    with pytest.raises(ProtocolError) as excinfo:
        protocol.unpack_frame(packed, max_bytes=64)
    assert excinfo.value.code == "too_large"
    assert protocol.http_status_for(excinfo.value) == 413


def test_version_mismatch_frame_rejected_with_426_code():
    packed = bytearray(protocol.pack_frame({"kind": "x"}))
    # The u16 version field sits right after the 4-byte magic.
    packed[4:6] = (protocol.PROTOCOL_VERSION + 1).to_bytes(2, "little")
    with pytest.raises(ProtocolError) as excinfo:
        protocol.unpack_frame(bytes(packed))
    assert excinfo.value.code == "version_mismatch"
    assert protocol.http_status_for(excinfo.value) == 426


def test_error_code_to_http_status_table():
    assert protocol.HTTP_STATUS_FOR_CODE == {
        "malformed": 400,
        "bad_codec": 400,
        "unknown_task": 404,
        "too_large": 413,
        "version_mismatch": 426,
    }
    assert protocol.http_status_for(ProtocolError("x")) == 400
    assert protocol.http_status_for(ProtocolError("x", code="unknown_task")) == 404


# --------------------------------------------------------------------------- #
# Transport.decode validation (regression pin for the silent-reshape fix)
# --------------------------------------------------------------------------- #


def test_transport_decode_roundtrips_valid_payload():
    transport = Transport(Float16Codec())
    template = np.zeros((3, 4))
    values = np.linspace(-1, 1, template.size)
    encoded = transport.codec.encode(values)
    decoded = transport.decode(encoded, template)
    assert decoded.shape == template.shape
    assert np.array_equal(decoded.ravel(), transport.codec.decode(encoded))


def test_transport_decode_rejects_wrong_codec_name():
    transport = Transport(Float16Codec())
    encoded = IdentityCodec().encode(np.ones(4))
    with pytest.raises(ProtocolError) as excinfo:
        transport.decode(encoded, np.zeros(4))
    assert excinfo.value.code == "bad_codec"


def test_transport_decode_rejects_dim_mismatch_instead_of_reshaping():
    """The old path reshaped whatever arrived; dim mismatches must now raise."""
    transport = Transport(IdentityCodec())
    encoded = transport.codec.encode(np.ones(6))
    with pytest.raises(ProtocolError):
        transport.decode(encoded, np.zeros((2, 4)))  # 8 scalars != 6


def test_transport_decode_rejects_wire_byte_lie():
    transport = Transport(Float16Codec())
    encoded = transport.codec.encode(np.ones(4))
    forged = EncodedVector(
        codec=encoded.codec, dim=encoded.dim, wire_bytes=1, data=encoded.data
    )
    with pytest.raises(ProtocolError):
        transport.decode(forged, np.zeros(4))


def test_transport_decode_rejects_non_float_values():
    transport = Transport(IdentityCodec())
    encoded = transport.codec.encode(np.ones(4))
    forged = EncodedVector(
        codec=encoded.codec,
        dim=4,
        wire_bytes=encoded.wire_bytes,
        data={"values": np.ones(4, dtype=np.int64)},
    )
    with pytest.raises(ProtocolError):
        transport.decode(forged, np.zeros(4))


def test_transport_decode_rejects_bad_topk_indices():
    codec = TopKCodec(k=2)
    transport = Transport(codec)
    encoded = codec.encode(np.array([5.0, -4.0, 3.0, 1.0]))
    for indices in ([3, 3], [1, 0], [2, 99]):  # duplicate, unsorted, out of range
        forged = EncodedVector(
            codec=codec.name,
            dim=4,
            wire_bytes=encoded.wire_bytes,
            data={
                "indices": np.array(indices, dtype=np.uint32),
                "values": np.asarray(encoded.data["values"]),
            },
        )
        with pytest.raises(ProtocolError):
            transport.decode(forged, np.zeros(4))


def test_transport_decode_rejects_qsgd_out_of_range():
    codec = QSGDCodec(levels=4)
    transport = Transport(codec)
    encoded = codec.encode(np.ones(4), rng=np.random.default_rng(0))
    bad = {
        "levels": np.array([99, 0, 0, 0]),
        "signs": np.asarray(encoded.data["signs"]),
        "norm": np.asarray(encoded.data["norm"]),
    }
    forged = EncodedVector(
        codec=codec.name, dim=4, wire_bytes=encoded.wire_bytes, data=bad
    )
    with pytest.raises(ProtocolError):
        transport.decode(forged, np.zeros(4))


def test_transport_decode_rejects_signsgd_bad_signs():
    codec = SignSGDCodec()
    transport = Transport(codec)
    encoded = codec.encode(np.array([1.0, -2.0, 3.0]))
    forged = EncodedVector(
        codec=codec.name,
        dim=3,
        wire_bytes=encoded.wire_bytes,
        data={"signs": np.array([1, 0, -1]), "scale": np.asarray(encoded.data["scale"])},
    )
    with pytest.raises(ProtocolError):
        transport.decode(forged, np.zeros(3))


# --------------------------------------------------------------------------- #
# Live server: HTTP status mapping, handshake refusal, duplicate idempotence
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live_server():
    from repro.serve.server import FederationServer

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("fedavg"), num_rounds=1)
    server.start()
    yield server
    server.stop()


@pytest.fixture(scope="module")
def live_client(live_server):
    from repro.serve.worker import ServerClient

    client = ServerClient(live_server.url)
    yield client
    client.close()


def test_server_refuses_version_mismatch_handshake(live_client):
    body = json.dumps({"protocol_version": protocol.PROTOCOL_VERSION + 1}).encode()
    status, _, data = live_client.post("/v1/handshake", body)
    assert status == 426
    assert b"version" in data.lower()


def test_server_accepts_current_version_handshake(live_server, live_client):
    from repro.serve.worker import handshake

    info = handshake(live_client, worker_id="protocol-test")
    assert info["protocol_version"] == protocol.PROTOCOL_VERSION
    assert info["model_dim"] == live_server.model_dim
    assert info["config"]["name"] == live_server.config.name


def test_server_maps_malformed_submit_to_400(live_client):
    status, _, _ = live_client.post("/v1/submit", b"garbage bytes")
    assert status == 400


def test_server_maps_unknown_task_to_404(live_client):
    frame = protocol.pack_frame(
        {
            "kind": "submit",
            "task_id": "r999-c999-0",
            "client_id": 0,
            "num_samples": 1,
            "local_epochs": 1,
            "train_loss": protocol.hex_float(0.0),
            "codec": "float16",
            "payload": [],
            "var_keys": [],
            "var_shapes": [],
        }
    )
    status, _, _ = live_client.post("/v1/submit", frame)
    assert status == 404


def test_server_refuses_oversized_body_with_413():
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(
        config, AlgorithmSpec("fedavg"), num_rounds=1, max_frame_bytes=1024
    )
    server.start()
    client = ServerClient(server.url)
    try:
        status, _, _ = client.post("/v1/submit", b"\x00" * 4096)
        assert status == 413
    finally:
        client.close()
        server.stop()


@pytest.mark.parametrize("declared", ["abc", "-5", "+5", "1_0", "12 34"])
def test_server_refuses_bad_content_length_with_400(live_server, declared):
    """A Content-Length that is not a plain non-negative integer is coded
    ``malformed`` → 400 and the connection closes: it must neither raise out
    of the handler thread (``int("abc")``) nor reach ``rfile.read(-5)``,
    which would block until the peer hangs up."""
    import http.client

    errors = live_server.metrics.counter("serve.errors.malformed")
    before = errors.value
    conn = http.client.HTTPConnection("127.0.0.1", live_server.port, timeout=10)
    try:
        conn.request("POST", "/v1/submit", headers={"Content-Length": declared})
        response = conn.getresponse()
        reply = json.loads(response.read())
        assert response.status == 400
        assert reply["code"] == "malformed"
        assert errors.value == before + 1
        # The request stream is unsynchronised: the server hung up on it.
        conn.sock.settimeout(10)
        assert conn.sock.recv(1) == b""
    finally:
        conn.close()


def test_duplicate_delta_submission_is_idempotent():
    """The same submit frame twice: first 'ok', second 'duplicate', one count."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient, WorkerEnvironment, handshake

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("fedavg"), num_rounds=1)
    server.start()
    client = ServerClient(server.url)
    try:
        info = handshake(client, worker_id="dup-test")
        from repro.experiments.configs import ExperimentConfig

        env = WorkerEnvironment(
            ExperimentConfig.from_record(info["config"]), info["algorithm"]
        )
        status, content_type, data = client.post("/v1/task", b"")
        assert status == 200 and not content_type.startswith("application/json")
        header, blobs = protocol.unpack_frame(data)
        frame = env.execute(protocol.decode_task(header, blobs))

        status, _, first = client.post("/v1/submit", frame)
        assert status == 200 and json.loads(first)["status"] == "ok"
        status, _, second = client.post("/v1/submit", frame)
        assert status == 200 and json.loads(second)["status"] == "duplicate"
        assert server.board.duplicates == 1

        # Only the first copy is charged to the wire-byte counters.
        counters = server.metrics.snapshot()["counters"]
        payload_bytes = sum(len(blob) for blob in blobs)  # task download side
        assert counters["serve.download_payload_bytes"] >= payload_bytes
        submit_header, frame_blobs = protocol.unpack_frame(frame)
        submitted_payload = sum(
            len(blob) for blob in frame_blobs[: len(submit_header["payload"])]
        )
        assert counters.get("serve.payload_bytes.float16", 0) == submitted_payload
    finally:
        client.close()
        server.stop()
