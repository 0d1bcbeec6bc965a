"""Wire-protocol tests for the serve layer.

Four concerns, each pinned independently of the networked e2e suite:

* **Round-trips** — hypothesis drives every codec's encoded form through
  its own :meth:`~repro.systems.compression.Codec.pack` / ``unpack`` and
  whole frames through ``pack_frame`` / ``unpack_frame``, asserting the
  binary wire form reproduces the in-memory representation exactly
  (bit-exact floats, identical support, identical signs).
* **Format** — the sha256 of one fixed task frame and one fixed submit frame
  per codec, recorded on the commit before codecs owned their bytes
  (``fd19288``): a refactor of the packing code must not move a byte.  The
  additive task forms — the model held (lean), the model and the client's
  variables held (header only) — are pinned as recorded when introduced.
* **Rejection** — the decoders are *total*: over arbitrary bytes and over
  field-mutated valid frames, ``unpack_frame``, ``decode_task``,
  ``decode_submit`` and every ``Codec.unpack`` return or raise
  :class:`~repro.exceptions.ProtocolError`, nothing else; forged payload
  bytes (bad top-k support, out-of-range QSGD levels, non-finite scales)
  are refused at ``unpack``; and a live server maps the error codes onto
  the right HTTP statuses (400/404/413/426), refusing version-mismatched
  handshakes.
* **The population is guarded** — a submission whose persistent variables
  do not match the leased client's own is answered 400 and merged nowhere.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import LocalTrainingConfig
from repro.exceptions import ProtocolError
from repro.experiments.configs import AlgorithmSpec, ExperimentConfig, preset_config
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage
from repro.serve import protocol
from repro.systems.compression import (
    CODEC_REGISTRY,
    Float16Codec,
    IdentityCodec,
    QSGDCodec,
    SignSGDCodec,
    TopKCodec,
    build_codec,
)
from repro.systems.executor import LocalUpdateTask

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)

vectors = st.lists(finite_floats, min_size=1, max_size=64).map(
    lambda values: np.array(values, dtype=np.float64)
)


def all_codecs():
    return [
        build_codec(None),  # "raw": float64, what a codec-free server speaks
        IdentityCodec(),
        Float16Codec(),
        TopKCodec(fraction=0.3),
        TopKCodec(k=2),
        QSGDCodec(levels=16),
        QSGDCodec(levels=5),  # non-power-of-two level count
        SignSGDCodec(),
    ]


def codec_id(codec):
    return f"{codec.name}-{getattr(codec, 'k', '')}{getattr(codec, 'levels', '')}"


every_codec = pytest.mark.parametrize("codec", all_codecs(), ids=codec_id)


# --------------------------------------------------------------------------- #
# Vector round-trips
# --------------------------------------------------------------------------- #


@every_codec
@given(values=vectors, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_vector_wire_roundtrip_is_exact(codec, values, seed):
    """pack → unpack reproduces every codec field bit-exactly."""
    encoded = codec.encode(values, rng=np.random.default_rng(seed))
    wire = codec.pack(encoded)
    assert len(wire) == codec.packed_bytes(values.size)
    decoded = codec.unpack(values.size, wire)
    assert decoded.codec == encoded.codec == codec.name
    assert decoded.dim == encoded.dim
    assert decoded.wire_bytes == encoded.wire_bytes
    assert set(decoded.data) == set(encoded.data)
    for key, original in encoded.data.items():
        assert decoded.data[key].dtype == original.dtype, key
        assert np.array_equal(decoded.data[key], original), key
    assert np.array_equal(codec.decode(decoded), codec.decode(encoded))


@pytest.mark.parametrize("dim", [0, 1, 7, 8, 9, 1000])
@every_codec
def test_packed_bytes_against_the_nominal_wire_bytes(codec, dim):
    """The documented gaps: x2 for identity/raw, +4 for qsgd/signsgd, else 0."""
    gap = codec.packed_bytes(dim) - codec.wire_bytes(dim)
    if isinstance(codec, IdentityCodec):
        assert codec.packed_bytes(dim) == 2 * codec.wire_bytes(dim) == 8 * dim
    elif isinstance(codec, (QSGDCodec, SignSGDCodec)):
        assert gap == 4
    else:
        assert gap == 0


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
# Format pins: the frames are byte-for-byte what fd19288 emitted
# --------------------------------------------------------------------------- #

TASK_ID = "r4-c3-9"


def fixed_task_and_message():
    """One task and its upload, from one seed (the recording used the same)."""
    rng = np.random.default_rng(20240519)
    d = 37
    client = ClientState(
        client_id=3,
        dataset=None,
        variables={"w": rng.normal(size=d), "y": rng.normal(size=(d, 1))},
        rounds_participated=2,
        local_work_done=5,
    )
    task = LocalUpdateTask(
        client_index=3,
        client=client,
        global_params=rng.normal(size=d),
        server_state={"control": rng.normal(size=d)},
        config=LocalTrainingConfig(epochs=2, batch_size=16, learning_rate=0.05),
        round_index=4,
        rng=123456789,
    )
    message = ClientMessage(
        client_id=3,
        payload={"delta": rng.normal(size=d), "aux": rng.normal(size=(3, 5))},
        num_samples=40,
        local_epochs=2,
        train_loss=0.75,
    )
    return task, message


def submit_frame(codec):
    task, message = fixed_task_and_message()
    return protocol.encode_submit(
        TASK_ID, message, task.client, codec, rng=np.random.default_rng(7)
    )


#: sha256 of the frames `encode_task` / `encode_submit` produced at fd19288
#: (through `pack_vector`, before codecs packed themselves) for the fixture
#: above.  PROTOCOL_VERSION is still 1: these never change without a bump.
FRAME_PINS = {
    "task": "df2422e97f8e9bea6703f8586a5e4fa3f8681da800a7c54329647d8327c12fbd",
    "raw": "fb90aa38fa0c40202cba4550df92ced74347f2d95077328b01c69973414f5f95",
    "identity": "a522c087bb0ebab8d5c8a3abbd77d98273555a61e4c71662ef5148060a2a07c9",
    "float16": "235520393c232c8129b7cb84eba021177e3e9b4fcb5ca0969b83cb33caae5a12",
    "topk": "a51d164a5e15f8830332a3941715cb81cffd20e53099a8de4cbcb172ee694218",
    "qsgd": "c870cf89af240814707dc7b1e863e6784ec621105c8572736545a4e942dad658",
    "signsgd": "c13f088c11dec14fade387e2dd1344d41ca8e0b9d9c23f03fc7ab557a2b2e8f0",
    "topk-k2": "4c8b2d27d9a918d12df10d4e2c758060997ecff02b2e0e81720424ffbe46f345",
    "qsgd-5": "d9cda6022de4429eef2b39b38118d50cb2aaf801ae9b7db2d0418dc11dcda1ed",
    # Recorded when the lean frame was introduced (θ and state left out).
    "task-lean": "ad33ca903ca903658d10c35a3d3c332b249cef441c5c5663a7e28de4791254bc",
    # Recorded when frames could name the client's variables (header only).
    "task-held": "f2434bdf62b0a36a80abd2b406022a272f58a286872d11e919cced131a26eaca",
}


def held_model(task):
    """What a worker holds after decoding the fixture's full frame."""
    digest = protocol.model_digest(task.global_params, task.server_state)
    return protocol.HeldModel(digest, task.global_params, task.server_state)


def lean_frame(task):
    return protocol.encode_task(TASK_ID, task, model=held_model(task).digest)


def held_vars(task):
    """What a worker holds of the fixture's client after its accepted submit."""
    variables = task.client.variables
    return {task.client_index: protocol.HeldVars(protocol.vars_digest(variables), variables)}


def held_frame(task):
    """The fixture's task with both the model and the variables held."""
    return protocol.encode_task(
        TASK_ID,
        task,
        model=held_model(task).digest,
        variables=held_vars(task)[task.client_index].digest,
    )


def test_protocol_version_is_still_one():
    assert protocol.PROTOCOL_VERSION == 1


def test_task_frame_bytes_are_pinned():
    task, _ = fixed_task_and_message()
    frame = protocol.encode_task(TASK_ID, task)
    assert hashlib.sha256(frame).hexdigest() == FRAME_PINS["task"]


def test_lean_task_frame_bytes_are_pinned():
    task, _ = fixed_task_and_message()
    assert hashlib.sha256(lean_frame(task)).hexdigest() == FRAME_PINS["task-lean"]


def test_held_task_frame_bytes_are_pinned():
    task, _ = fixed_task_and_message()
    assert hashlib.sha256(held_frame(task)).hexdigest() == FRAME_PINS["task-held"]


@pytest.mark.parametrize(
    "pin, codec",
    [(name, build_codec(name)) for name in sorted(CODEC_REGISTRY)]
    + [
        ("raw", build_codec(None)),
        ("topk-k2", TopKCodec(k=2, fraction=None)),
        ("qsgd-5", QSGDCodec(levels=5)),
    ],
    ids=lambda value: value if isinstance(value, str) else "",
)
def test_submit_frame_bytes_are_pinned(pin, codec):
    assert hashlib.sha256(submit_frame(codec)).hexdigest() == FRAME_PINS[pin]


# --------------------------------------------------------------------------- #
# Frame codecs are symmetric: a task in, a task out
# --------------------------------------------------------------------------- #


def assert_same_arrays(decoded, original):
    assert sorted(decoded) == sorted(original)
    for key, value in original.items():
        assert decoded[key].shape == np.shape(value), key
        assert decoded[key].tobytes() == np.asarray(value).tobytes(), key


def test_decode_task_returns_the_task_that_was_encoded():
    task, _ = fixed_task_and_message()
    header, blobs = protocol.unpack_frame(protocol.encode_task(TASK_ID, task))
    task_id, decoded = protocol.decode_task(header, blobs)
    assert task_id == TASK_ID
    assert isinstance(decoded, LocalUpdateTask)
    assert decoded.config == task.config
    assert (decoded.client_index, decoded.round_index, decoded.rng) == (3, 4, 123456789)
    assert decoded.global_params.tobytes() == task.global_params.tobytes()
    assert_same_arrays(decoded.server_state, task.server_state)
    client = decoded.client
    assert (client.client_id, client.rounds_participated, client.local_work_done) == (3, 2, 5)
    assert client.dataset is None  # the worker binds its own copy
    assert_same_arrays(client.variables, task.client.variables)


def test_lean_frame_is_the_full_frame_without_the_model():
    task, _ = fixed_task_and_message()
    full_header, full_blobs = protocol.unpack_frame(protocol.encode_task(TASK_ID, task))
    header, blobs = protocol.unpack_frame(lean_frame(task))
    held = held_model(task)
    dropped = {"params_shape", "state_keys", "state_shapes"}
    assert header == {
        **{k: v for k, v in full_header.items() if k not in dropped},
        "model": held.digest,
    }
    assert blobs == full_blobs[2:]  # θ and the one state vector left out
    task_id, decoded = protocol.decode_task(header, blobs, held=held)
    assert task_id == TASK_ID
    assert decoded.global_params is held.params
    assert decoded.server_state == held.state
    assert decoded.server_state is not held.state
    assert_same_arrays(decoded.client.variables, task.client.variables)
    # A full frame needs no held model, and ignores one.
    _, full = protocol.decode_task(full_header, full_blobs, held=held)
    assert full.global_params.tobytes() == task.global_params.tobytes()


def test_lean_frame_of_a_model_the_worker_does_not_hold_is_refused():
    task, _ = fixed_task_and_message()
    header, blobs = protocol.unpack_frame(lean_frame(task))
    held = held_model(task)
    with pytest.raises(ProtocolError, match="holds None"):
        protocol.decode_task(header, blobs)
    with pytest.raises(ProtocolError, match="lean task frame"):
        protocol.decode_task(header, blobs, held=held._replace(digest="0" * 64))


def test_held_frame_is_the_lean_frame_without_the_variables():
    task, _ = fixed_task_and_message()
    lean_header, lean_blobs = protocol.unpack_frame(lean_frame(task))
    header, blobs = protocol.unpack_frame(held_frame(task))
    held = held_vars(task)
    digest = held[task.client_index].digest
    dropped = {"var_keys", "var_shapes"}
    assert header == {
        **{k: v for k, v in lean_header.items() if k not in dropped},
        "vars": digest,
    }
    assert blobs == []  # header only: the worker holds everything else
    task_id, decoded = protocol.decode_task(
        header, blobs, held=held_model(task), held_vars=held
    )
    assert task_id == TASK_ID
    assert_same_arrays(decoded.client.variables, task.client.variables)
    # The client copies the held arrays into its own store: a task that
    # writes its variables cannot change what the digest names.
    for key, value in decoded.client.variables.items():
        assert not np.shares_memory(value, held[task.client_index].variables[key])
    # The variables are named independently of the model.
    full_vars = protocol.encode_task(TASK_ID, task, variables=digest)
    _, decoded = protocol.decode_task(*protocol.unpack_frame(full_vars), held_vars=held)
    assert decoded.global_params.tobytes() == task.global_params.tobytes()
    assert_same_arrays(decoded.client.variables, task.client.variables)


@pytest.mark.parametrize(
    "held, match",
    [
        (None, "holds None"),  # no held map at all
        ({}, "holds None"),
        ({3: "another"}, "holds 'another'"),  # an unknown digest
        ({4: "own"}, "holds None"),  # the digest is held for another client
    ],
    ids=["no-map", "empty-map", "unknown-digest", "other-client"],
)
def test_a_held_vars_frame_the_worker_cannot_match_is_refused(held, match):
    task, _ = fixed_task_and_message()
    header, blobs = protocol.unpack_frame(held_frame(task))
    own = held_vars(task)[task.client_index]
    if held:
        held = {
            index: own if digest == "own" else own._replace(digest=digest)
            for index, digest in held.items()
        }
    with pytest.raises(ProtocolError, match=match):
        protocol.decode_task(header, blobs, held=held_model(task), held_vars=held)


def test_a_held_vars_frame_carrying_variable_blobs_is_refused():
    task, _ = fixed_task_and_message()
    header, _ = protocol.unpack_frame(held_frame(task))
    with pytest.raises(ProtocolError, match="carries 1 variable blobs"):
        protocol.decode_task(
            header, [b"\x00" * 8], held=held_model(task), held_vars=held_vars(task)
        )


def test_vars_digest_is_the_digest_of_the_frames_variable_fields_and_blobs():
    """Server (arrays) and worker (the blobs it sent) name the same bytes."""
    task, message = fixed_task_and_message()
    variables = task.client.variables
    digest = protocol.vars_digest(variables)

    def frame_digest(frame):
        header, blobs = protocol.unpack_frame(frame)
        fields = {"var_keys": header["var_keys"], "var_shapes": header["var_shapes"]}
        hasher = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
        for blob in blobs[-len(variables) :]:
            hasher.update(blob)
        return hasher.hexdigest()

    assert digest == frame_digest(protocol.encode_task(TASK_ID, task))
    # The worker files an accepted submit's blobs under the server's digest.
    frame = protocol.encode_submit(TASK_ID, message, task.client, Float16Codec())
    assert digest == frame_digest(frame)
    submitted = protocol.submitted_vars(frame, digest)
    assert submitted.digest == digest
    assert_same_arrays(submitted.variables, variables)
    assert not any(value.flags.writeable for value in submitted.variables.values())

    nudged = variables["w"].copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    for other in (
        protocol.vars_digest({**variables, "w": nudged}),
        protocol.vars_digest({**variables, "w": variables["w"].reshape(1, -1)}),
        protocol.vars_digest({"v": variables["w"], "y": variables["y"]}),
        protocol.vars_digest({"w": variables["w"]}),
    ):
        assert other != digest


def test_model_digest_names_shapes_keys_and_bytes():
    task, _ = fixed_task_and_message()
    params, state = task.global_params, task.server_state
    digest = protocol.model_digest(params, state)
    assert digest == protocol.model_digest(params.copy(), {"control": state["control"]})
    nudged = params.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    for other in (
        protocol.model_digest(nudged, state),
        protocol.model_digest(params.reshape(1, -1), state),
        protocol.model_digest(params, {"c": state["control"]}),
        protocol.model_digest(params, {}),
    ):
        assert other != digest


@every_codec
def test_decode_submit_returns_the_outcome_and_its_real_bytes(codec):
    task, message = fixed_task_and_message()
    header, blobs = protocol.unpack_frame(submit_frame(codec))
    task_id, outcome, payload_bytes = protocol.decode_submit(header, blobs, codec)
    assert task_id == TASK_ID
    assert payload_bytes == codec.packed_bytes(37) + codec.packed_bytes(15)
    assert payload_bytes == sum(len(blob) for blob in blobs[:2])
    decoded = outcome.message
    assert (decoded.client_id, decoded.num_samples, decoded.local_epochs) == (3, 40, 2)
    assert decoded.train_loss == 0.75
    # Exactly one codec application (keys in sorted order on one rng), and
    # every vector back in its own shape.
    rng = np.random.default_rng(7)
    for key in sorted(message.payload):
        vector = message.payload[key]
        expected = codec.decode(codec.encode(vector.ravel(), rng=rng))
        assert decoded.payload[key].shape == vector.shape
        assert np.array_equal(decoded.payload[key].ravel(), expected)
    assert_same_arrays(outcome.client.variables, task.client.variables)
    assert (outcome.client.rounds_participated, outcome.client.local_work_done) == (2, 5)


def test_decode_submit_refuses_another_codecs_frame():
    header, blobs = protocol.unpack_frame(submit_frame(IdentityCodec()))
    with pytest.raises(ProtocolError) as excinfo:
        protocol.decode_submit(header, blobs, Float16Codec())
    assert excinfo.value.code == "bad_codec"


# --------------------------------------------------------------------------- #
# Forged payload bytes are refused by the codec that owns the format
# --------------------------------------------------------------------------- #


def f64(value):
    return struct.pack("<d", value)


def test_unpack_rejects_a_length_that_does_not_fit_the_declared_dim():
    """Six float64s declared as eight scalars: refused, never reshaped."""
    codec = IdentityCodec()
    wire = codec.pack(codec.encode(np.ones(6)))
    with pytest.raises(ProtocolError):
        codec.unpack(8, wire)
    with pytest.raises(ProtocolError):
        codec.unpack(-1, b"")


@every_codec
def test_unpack_rejects_padded_and_truncated_bytes(codec):
    wire = codec.pack(codec.encode(np.linspace(-1, 1, 12), rng=0))
    for forged in (wire + b"\x00", wire[:-1]):
        with pytest.raises(ProtocolError):
            codec.unpack(12, forged)


def test_unpack_fixes_the_dtype_whatever_bytes_arrive():
    """int64 ones on the wire are read as (denormal) float64s, not as ints."""
    values = IdentityCodec().unpack(4, np.ones(4, dtype="<i8").tobytes()).data["values"]
    assert values.dtype == np.float64 and values.shape == (4,)
    assert Float16Codec().unpack(4, b"\x01" * 8).data["values"].dtype == np.float16


@pytest.mark.parametrize("indices", [[3, 3], [1, 0], [2, 99]])
def test_unpack_rejects_bad_topk_indices(indices):
    """Duplicate, unsorted and out-of-range support."""
    codec = TopKCodec(k=2)
    good = codec.pack(codec.encode(np.array([5.0, -4.0, 3.0, 1.0])))
    assert codec.unpack(4, good).data["indices"].tolist() == [0, 1]
    forged = np.array(indices, dtype="<u4").tobytes() + good[8:]
    with pytest.raises(ProtocolError, match="indices"):
        codec.unpack(4, forged)


def test_unpack_rejects_qsgd_out_of_range():
    codec = QSGDCodec(levels=4)  # 4 bits a coordinate: sign + a level up to 7
    assert codec.bits_per_coordinate == 4
    assert codec.unpack(4, bytes([0x4C, 0x00]) + f64(2.0)).data["levels"].tolist() == [4, 4, 0, 0]
    with pytest.raises(ProtocolError, match="levels"):
        codec.unpack(4, bytes([0x70, 0x00]) + f64(2.0))  # level 7 > 4
    for norm in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ProtocolError, match="norm"):
            codec.unpack(4, bytes([0x40, 0x00]) + f64(norm))


def test_unpack_rejects_signsgd_bad_scale():
    """The sign bits cannot be forged (a bit is +1 or -1); the scale can."""
    codec = SignSGDCodec()
    assert codec.unpack(3, bytes([0b01000000]) + f64(0.5)).data["signs"].tolist() == [1, -1, 1]
    for scale in (-0.5, float("nan"), float("-inf")):
        with pytest.raises(ProtocolError, match="scale"):
            codec.unpack(3, bytes([0b01000000]) + f64(scale))


# --------------------------------------------------------------------------- #
# The decoders are total: ProtocolError or a value, whatever arrives
# --------------------------------------------------------------------------- #

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-3, max_value=40)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


HELD = held_model(fixed_task_and_message()[0])
HELD_VARS = held_vars(fixed_task_and_message()[0])


def decode_whatever(header, blobs, codec):
    """Every decoder over one frame; anything but ProtocolError escapes.

    A task frame is also decoded against the fixture's held model and
    variables, so a lean or held frame is tried with its own and, mutated,
    with another.
    """
    for decode in (
        lambda: protocol.decode_task(header, blobs),
        lambda: protocol.decode_task(header, blobs, held=HELD, held_vars=HELD_VARS),
        lambda: protocol.decode_submit(header, blobs, codec),
    ):
        try:
            decode()
        except ProtocolError:
            pass


@given(data=st.binary(max_size=256))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_only_raise_protocol_error(data):
    for frame in (data, protocol.pack_frame({})[: protocol._HEADER_STRUCT.size] + data):
        try:
            header, blobs = protocol.unpack_frame(frame)
        except ProtocolError:
            continue
        decode_whatever(header, blobs, Float16Codec())


@given(
    header=st.dictionaries(st.text(max_size=12), json_values, max_size=8),
    blobs=st.lists(st.binary(max_size=64), max_size=5),
)
@settings(max_examples=100, deadline=None)
def test_arbitrary_headers_only_raise_protocol_error(header, blobs):
    restored, restored_blobs = protocol.unpack_frame(protocol.pack_frame(header, blobs))
    decode_whatever(restored, restored_blobs, IdentityCodec())


def valid_frames():
    task, _ = fixed_task_and_message()
    frames = [(Float16Codec(), protocol.encode_task(TASK_ID, task))]
    frames += [(Float16Codec(), lean_frame(task)), (Float16Codec(), held_frame(task))]
    frames += [(codec, submit_frame(codec)) for codec in all_codecs()]
    return [(codec, *protocol.unpack_frame(frame)) for codec, frame in frames]


@given(
    frame=st.sampled_from(valid_frames()),
    field=st.integers(min_value=0, max_value=30),
    value=json_values,
    nested=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_field_mutated_frames_only_raise_protocol_error(frame, field, value, nested):
    """One header field of a valid frame replaced by arbitrary JSON."""
    codec, header, blobs = frame
    keys = sorted(header)
    key = keys[field % len(keys)]
    mutated = dict(header)
    if nested and isinstance(header[key], list) and header[key]:
        # Reach inside: one shape, one key, one payload descriptor.
        mutated[key] = [value, *header[key][1:]]
    else:
        mutated[key] = value
    restored, _ = protocol.unpack_frame(protocol.pack_frame(mutated, blobs))
    decode_whatever(restored, blobs, codec)


@given(
    frame=st.sampled_from(valid_frames()),
    index=st.integers(min_value=0, max_value=8),
    blob=st.binary(max_size=400),
    drop=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_blob_mutated_frames_only_raise_protocol_error(frame, index, blob, drop):
    codec, header, blobs = frame
    mutated = list(blobs)
    if not mutated:  # a header-only frame: a blob where none belongs
        mutated.append(blob)
    elif drop:
        del mutated[index % len(mutated)]
    else:
        mutated[index % len(mutated)] = blob
    decode_whatever(header, mutated, codec)


@every_codec
@given(dim=st.integers(min_value=-2, max_value=40), data=st.data())
@settings(max_examples=150, deadline=None)
def test_codec_unpack_only_raises_protocol_error(codec, dim, data):
    """Arbitrary bytes — of the right length too, to get past the size check."""
    right = codec.packed_bytes(dim) if dim >= 0 else 0
    blob = data.draw(st.binary(max_size=64) | st.binary(min_size=right, max_size=right))
    try:
        encoded = codec.unpack(dim, blob)
    except ProtocolError:
        return
    assert codec.decode(encoded).shape == (dim,)  # what unpack accepts, decode can take


@pytest.mark.parametrize(
    "field, value",
    [
        ("params_shape", "37"),
        ("params_shape", [-37]),
        ("params_shape", [3.5]),
        ("params_shape", [2**62, 2**62]),
        ("state_keys", "control"),
        ("state_shapes", [[37], [37]]),
        ("var_keys", ["w", "y", "z"]),  # zip() used to drop the third silently
        ("var_keys", ["w", "w"]),
        ("client_id", "3"),
        ("client_index", -1),
        ("seed", 1.5),
        ("epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.05),
        ("learning_rate", "0x1p99999"),
        ("task_id", 9),
        ("model", 41),
        ("vars", 41),
    ],
)
def test_decode_task_turns_every_bad_field_into_a_protocol_error(field, value):
    task, _ = fixed_task_and_message()
    header, blobs = protocol.unpack_frame(protocol.encode_task(TASK_ID, task))
    with pytest.raises(ProtocolError):
        protocol.decode_task({**header, field: value}, blobs)


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


@pytest.mark.parametrize(
    "route, body",
    [
        ("/v1/handshake", b"[1]"),
        ("/v1/handshake", b"1"),
        ("/v1/handshake", b'"x"'),
        ("/v1/handshake", b"{not json"),
        ("/v1/task", b"[1]"),
        ("/v1/task", b"1"),
        ("/v1/task", b'"x"'),
        ("/v1/task", b"\xff"),
        ("/v1/task", b'{"model": 5}'),
        ("/v1/task", b'{"model": null}'),
        ("/v1/task", b'{"model": ["abc"]}'),
        ("/v1/task", b'{"vars": ["abc"]}'),
        ("/v1/task", b'{"vars": {"3": 5}}'),
        ("/v1/task", b'{"vars": {"c3": "abc"}}'),
    ],
)
def test_a_body_that_is_not_a_json_object_is_answered_400(
    live_server, live_client, route, body
):
    """Regression: JSON that is not an object (``[1]``, ``1``, ``"x"``) made
    the handshake call ``.get`` on it — a 500 and a traceback.  The lease
    body is read by the same helper: its model must be a string, its vars
    an object from client indices to digest strings.  None is parked."""
    def parked():
        waits = live_server.metrics.snapshot()["histograms"]
        return waits.get("serve.lease_wait_seconds", {}).get("count", 0)

    internal = live_server.metrics.counter("serve.errors.internal")
    before, parked_before = internal.value, parked()
    status, content_type, reply = live_client.post(route, body)
    assert status == 400 and content_type == "application/json"
    assert json.loads(reply)["code"] == "malformed"
    assert internal.value == before
    assert parked() == parked_before


def test_a_lease_naming_the_tasks_model_gets_the_lean_frame():
    """Empty body and a stale model: the v1 frame, byte for byte.  The
    model of the task: the frame without θ and state."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient, hold

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("scaffold"), num_rounds=1)
    server.start()
    client = ServerClient(server.url)

    def lease(body):
        status, content_type, data = client.post("/v1/task", body)
        assert status == 200 and content_type == "application/octet-stream"
        header, blobs = protocol.unpack_frame(data)
        return data, header, blobs, server.board.client_of(header["task_id"])

    try:
        data, header, blobs, ticket = lease(b"")
        assert data == protocol.encode_task(ticket.task_id, ticket.task)
        _, task = protocol.decode_task(header, blobs)
        held = hold(task)
        assert held.digest == ticket.model and sorted(held.state) == ["control"]
        with pytest.raises(ValueError, match="read-only"):
            task.global_params[0] = 0.0

        lean, header, blobs, ticket = lease(json.dumps({"model": held.digest}).encode())
        assert lean == protocol.encode_task(
            ticket.task_id, ticket.task, model=held.digest
        )
        _, task = protocol.decode_task(header, blobs, held=held)
        assert task.global_params is held.params

        stale, _, _, ticket = lease(json.dumps({"model": "0" * 64}).encode())
        assert stale == protocol.encode_task(ticket.task_id, ticket.task)

        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.model_frames"] == 2
        assert counters["serve.download_payload_bytes"] == len(data) + len(lean) + len(stale)
        assert len(lean) < len(data) - 8 * server.model_dim
    finally:
        client.close()
        server.stop()


def test_a_lease_naming_a_pending_clients_variables_leaves_them_out():
    """The board leases the named client first; its frame names the
    variables instead of carrying them.  A stale digest changes nothing."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("fedadmm"), num_rounds=1)
    # As if merges had written every row: the board knows each digest.
    server.board.digests.update(
        (index, protocol.vars_digest(client.variables))
        for index, client in enumerate(server.simulation.clients)
    )
    server.start()
    client = ServerClient(server.url)

    def lease(request):
        status, content_type, data = client.post("/v1/task", json.dumps(request).encode())
        assert status == 200 and content_type == "application/octet-stream"
        header, _ = protocol.unpack_frame(data)
        return data, server.board.client_of(header["task_id"])

    try:
        first, ticket = lease({})
        assert first == protocol.encode_task(ticket.task_id, ticket.task)
        model = ticket.model
        pending = [t for t in server.board._tickets.values() if t.state == "pending"]
        assert len(pending) == 2
        last = pending[-1].task
        digest = protocol.vars_digest(server.simulation.clients[last.client_index].variables)

        stale, ticket = lease({"model": model, "vars": {str(last.client_index): "0" * 64}})
        assert ticket.task is pending[0].task  # the head: nothing named is pending
        assert stale == protocol.encode_task(ticket.task_id, ticket.task, model=model)

        held, ticket = lease({"model": model, "vars": {str(last.client_index): digest}})
        assert ticket.task is last
        assert held == protocol.encode_task(
            ticket.task_id, ticket.task, model=model, variables=digest
        )
        assert protocol.unpack_frame(held)[1] == []  # header only

        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.model_frames"] == 1
        assert counters["serve.client_state_frames"] == 2
        assert counters["serve.download_payload_bytes"] == len(first) + len(stale) + len(held)
    finally:
        client.close()
        server.stop()


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


def _leased_task(algorithm, **overrides):
    """A one-round server, a handshaken worker environment and one leased task."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient, WorkerEnvironment, handshake

    config = preset_config("serve", **overrides).with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec(algorithm), num_rounds=1)
    server.start()
    client = ServerClient(server.url)
    info = handshake(client, worker_id="protocol-test")
    env = WorkerEnvironment(
        ExperimentConfig.from_record(info["config"]), info["algorithm"]
    )
    status, content_type, data = client.post("/v1/task", b"")
    assert status == 200 and not content_type.startswith("application/json")
    return server, client, env, protocol.unpack_frame(data)


@pytest.fixture
def leased_fedadmm_task():
    server, client, env, frame = _leased_task("fedadmm")
    yield server, client, env, frame
    client.close()
    server.stop()


def test_duplicate_delta_submission_is_idempotent():
    """The same submit frame twice: first 'ok', second 'duplicate', one count."""
    server, client, env, (header, blobs) = _leased_task("fedavg")
    try:
        frame = env.execute(*protocol.decode_task(header, blobs))

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


def _forge_variables(header, blobs, forgery):
    """A submit frame whose persistent variables were tampered with."""
    first_var = len(header["payload"])  # payload blobs come first
    header, blobs = dict(header), list(blobs)
    if forgery == "renamed":
        header["var_keys"] = ["v", *header["var_keys"][1:]]
    elif forgery == "extra":
        header["var_keys"] = [*header["var_keys"], "z"]
        header["var_shapes"] = [*header["var_shapes"], [2]]
        blobs.append(protocol.pack_array(np.ones(2)))
    elif forgery == "missing":
        header["var_keys"] = header["var_keys"][:-1]
        header["var_shapes"] = header["var_shapes"][:-1]
        del blobs[-1]
    elif forgery == "reshaped":
        (dim,) = header["var_shapes"][0]
        header["var_shapes"] = [[dim - 1], *header["var_shapes"][1:]]
        blobs[first_var] = blobs[first_var][:-8]
    elif forgery == "non-finite":
        blobs[first_var] = struct.pack("<d", float("nan")) + blobs[first_var][8:]
    return protocol.pack_frame(header, blobs)


@pytest.mark.parametrize(
    "forgery", ["renamed", "extra", "missing", "reshaped", "non-finite"]
)
def test_submitted_variables_must_match_the_leased_clients_own(
    leased_fedadmm_task, forgery
):
    """Regression: these were answered ``200 ok`` and merged into the population;
    the client's next task then died of a ``ShapeError`` in whichever worker
    leased it, round after reclaimed round."""
    server, client, env, (header, blobs) = leased_fedadmm_task
    task_id, task = protocol.decode_task(header, blobs)
    leased = server.simulation.clients[task.client_index]
    before = {key: value.tobytes() for key, value in leased.variables.items()}
    assert sorted(before) == ["w", "y"]
    honest = env.execute(task_id, task)

    errors = server.metrics.counter("serve.errors.malformed")
    refused = errors.value
    forged = _forge_variables(*protocol.unpack_frame(honest), forgery)
    status, _, reply = client.post("/v1/submit", forged)
    assert status == 400 and json.loads(reply)["code"] == "malformed"
    assert errors.value == refused + 1
    # Nothing was resolved, nothing merged: the task is still out on lease.
    assert server.board.client_of(task_id).state == "leased"
    assert {k: v.tobytes() for k, v in leased.variables.items()} == before

    status, _, reply = client.post("/v1/submit", honest)
    assert status == 200 and json.loads(reply)["status"] == "ok"


@pytest.mark.parametrize(
    "field, value",
    [
        ("client_id", "zero"),
        ("num_samples", None),
        ("var_keys", "w"),
        ("var_keys", ["w", "y", "z"]),
        ("var_shapes", [[-1], [3]]),
        ("var_shapes", [[2.5], [3]]),
        ("payload", [{"key": "delta", "shape": [-4]}]),
        ("payload", [{"key": "delta", "shape": "4"}]),
        ("payload", [{"key": ["delta"], "shape": [4]}]),
        ("payload", {"delta": [4]}),
        ("train_loss", 0.5),
        ("task_id", ["r0"]),
    ],
)
def test_server_answers_every_malformed_submit_header_with_400(
    leased_fedadmm_task, field, value
):
    """Regression: these raised ValueError/TypeError out of ``decode_submit``;
    the handler thread died with a traceback and the worker got no reply."""
    server, client, env, (header, blobs) = leased_fedadmm_task
    honest = env.execute(*protocol.decode_task(header, blobs))
    submit_header, submit_blobs = protocol.unpack_frame(honest)
    forged = protocol.pack_frame({**submit_header, field: value}, submit_blobs)
    status, content_type, reply = client.post("/v1/submit", forged)
    assert status == 400 and content_type == "application/json"
    assert json.loads(reply)["code"] == "malformed"
    status, _, reply = client.post("/v1/submit", honest)  # same connection, still up
    assert status == 200 and json.loads(reply)["status"] == "ok"


def test_a_handler_bug_is_answered_with_500_not_a_dead_connection(
    live_server, live_client, monkeypatch
):
    def broken(body):
        raise RuntimeError("a bug, not a bad request")

    with monkeypatch.context() as patch:
        patch.setattr(live_server, "handle_submit", broken)
        status, content_type, reply = live_client.post("/v1/submit", b"anything")
    assert status == 500 and content_type == "application/json"
    assert json.loads(reply) == {
        "error": "RuntimeError('a bug, not a bad request')",
        "code": "internal",
    }
    assert live_server.metrics.counter("serve.errors.internal").value == 1
    # The worker-side client reconnects on the closed connection and carries on.
    status, _, _ = live_client.post("/v1/submit", b"garbage bytes")
    assert status == 400


@pytest.mark.parametrize("codec", [None, "identity", "float16", "topk"])
def test_a_non_finite_payload_is_refused_before_it_reaches_theta(codec):
    """Regression: these codecs decode NaN and ±inf as sent, and the submit
    was answered ``200 ok`` and its Δ summed into θ — one NaN poisons every
    client from the next round on."""
    server, client, env, (header, blobs) = _leased_task("fedavg", codec=codec)
    try:
        task_id, task = protocol.decode_task(header, blobs)
        honest = env.execute(task_id, task)
        submit_header, submit_blobs = protocol.unpack_frame(honest)
        (delta,) = protocol.decode_submit(
            submit_header, submit_blobs, server.codec
        )[1].message.payload.values()
        poisoned = delta.ravel().copy()
        poisoned[:3] = [np.nan, np.inf, -np.inf]
        submit_blobs[0] = server.codec.pack(
            server.codec.encode(poisoned, rng=np.random.default_rng(0))
        )
        forged = protocol.pack_frame(submit_header, submit_blobs)

        errors = server.metrics.counter("serve.errors.malformed")
        status, _, reply = client.post("/v1/submit", forged)
        assert status == 400 and json.loads(reply)["code"] == "malformed"
        assert "not finite" in json.loads(reply)["error"]
        assert errors.value == 1
        assert server.board.client_of(task_id).state == "leased"  # nothing resolved

        status, _, reply = client.post("/v1/submit", honest)
        assert status == 200 and json.loads(reply)["status"] == "ok"
    finally:
        client.close()
        server.stop()
