"""Wire-protocol tests for the serve layer.

Four concerns, each pinned independently of the networked e2e suite:

* **Round-trips** — hypothesis drives every codec's encoded form through
  its own :meth:`~repro.systems.compression.Codec.pack` / ``unpack`` and
  whole frames through ``pack_frame`` / ``unpack_frame``, asserting the
  binary wire form reproduces the in-memory representation exactly
  (bit-exact floats, identical support, identical signs).
* **Format** — the sha256 of the fixture's task frame (nothing named, every
  array named, every array held plus a drop) and of its submit frame per
  codec, recorded from the protocol-2 encoder when it was written: a
  refactor of the packing code must not move a byte.
* **One task-frame form** — for FedAvg, FedADMM and SCAFFOLD tasks and any
  subset of their arrays in the worker's cache, ``decode_task`` gives back
  the encoded task bit for bit and applies the frame to the cache.
* **Rejection** — the decoders are *total*: over arbitrary bytes and over
  field- and entry-mutated valid frames, ``unpack_frame``, ``decode_task``,
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
from hypothesis.extra.numpy import arrays as numpy_arrays

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
# Format pins: the frames are byte-for-byte what the protocol-2 encoder emitted
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


#: sha256 of the frames `encode_task` / `encode_submit` produced for the
#: fixture above when protocol 2 was written (its one task-frame form, the
#: submit's variables as entries).  Never change these without a
#: PROTOCOL_VERSION bump.
FRAME_PINS = {
    "task": "de3b65af59098978e46aa1a46cd3df02d933c7f24b49373671388b428ac10e98",
    "task-named": "04f5c34abc36b5c5d429f9ac3f8fd9d78836f18d87b4307d1c3eb7a7ac3c0908",
    "task-held": "23600c44f3cd9760325649da9e60aee4152cc463aa74a10b2afdad5365f52ced",
    "raw": "38337478cc27e168eb1b26c01bb33979f793b68299b2bd66d9c1829b82904b91",
    "identity": "bb5dfe5fe6e1474e78c376cf211198358276d6db9d1896915b39cfa698615e2c",
    "float16": "a6bee8efb3ee72c13604426cf798b9d6d7cad5321165abcfed3a496dcfb074fd",
    "topk": "37d29d3440af4e337a210aaa1cb430275c3b7410db029932dac51c0e661196d1",
    "qsgd": "ffbf0b34a5a4450e237a743932facae80ede193994bae6d5b63d66fc0e7e6110",
    "signsgd": "803bdb6c7aedb9ee4e5579700ba89439ee8a41f8c54f52915f2a534ab020bd1f",
    "topk-k2": "f1f0c38038cbeaaf07b1981c9d010b70a1845add9cab6318564274ac4e685cbe",
    "qsgd-5": "e9b6c7e5819218d12cced66a77f2d840a241eceb5e2fa5434859860bee969734",
}

STALE = "0" * 64


def named(task):
    """Every array of ``task`` named by its digest, as the server names them."""
    return {name: protocol.blob_digest(a) for name, a in protocol.task_arrays(task).items()}


def task_frame(task, form):
    """The fixture's task frame: nothing named, every array named, or every
    array named and held (header only) with one stale digest dropped."""
    if form == "task":
        return protocol.encode_task(TASK_ID, task)
    digests = named(task)
    if form == "task-named":
        return protocol.encode_task(TASK_ID, task, digests)
    return protocol.encode_task(TASK_ID, task, digests, set(digests.values()), [STALE])


def cache_of(task):
    """A worker cache holding every array of ``task``, read-only, and a stale one."""
    cache = {STALE: np.zeros(1)}
    for name, array in protocol.task_arrays(task).items():
        cache[protocol.blob_digest(array)] = np.array(array)
    for array in cache.values():
        array.flags.writeable = False
    return cache


def test_protocol_version_is_two():
    assert protocol.PROTOCOL_VERSION == 2


@pytest.mark.parametrize("form", ["task", "task-named", "task-held"])
def test_task_frame_bytes_are_pinned(form):
    task, _ = fixed_task_and_message()
    assert hashlib.sha256(task_frame(task, form)).hexdigest() == FRAME_PINS[form]


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


def assert_same_task(decoded, task):
    """Every field of ``task``, every array bit for bit (shape included)."""
    assert decoded.config == task.config
    assert (decoded.client_index, decoded.round_index, decoded.rng) == (
        task.client_index,
        task.round_index,
        task.rng,
    )
    assert decoded.global_params.shape == task.global_params.shape
    assert decoded.global_params.tobytes() == task.global_params.tobytes()
    assert_same_arrays(decoded.server_state, task.server_state)
    client, original = decoded.client, task.client
    assert (client.client_id, client.rounds_participated, client.local_work_done) == (
        original.client_id,
        original.rounds_participated,
        original.local_work_done,
    )
    assert_same_arrays(client.variables, original.variables)


#: (server-state keys, client-variable keys) of each algorithm's tasks.
ALGORITHM_ARRAYS = {
    "fedavg": ((), ()),
    "fedadmm": ((), ("w", "y")),
    "scaffold": (("control",), ("control",)),
}


@st.composite
def algorithm_tasks(draw):
    """A task shaped like one of FedAvg's, FedADMM's or SCAFFOLD's."""
    state_keys, var_keys = ALGORITHM_ARRAYS[draw(st.sampled_from(sorted(ALGORITHM_ARRAYS)))]
    dim = draw(st.integers(min_value=0, max_value=6))
    # Any double: -0.0, infinities and NaN payloads must come back as sent.
    vector = numpy_arrays(np.float64, dim, elements=st.floats(width=64))
    params = draw(vector)
    # An untrained FedADMM row starts at w = θ: params and var.w share bytes.
    shared = draw(st.booleans(), label="var.w is params")
    return LocalUpdateTask(
        client_index=draw(st.integers(min_value=0, max_value=99)),
        client=ClientState(
            client_id=draw(st.integers(min_value=0, max_value=99)),
            dataset=None,
            variables={
                key: params.copy() if shared and key == "w" else draw(vector)
                for key in var_keys
            },
            rounds_participated=draw(st.integers(min_value=0, max_value=9)),
            local_work_done=draw(st.integers(min_value=0, max_value=99)),
        ),
        global_params=params,
        server_state={key: draw(vector) for key in state_keys},
        config=LocalTrainingConfig(
            epochs=draw(st.integers(min_value=1, max_value=5)),
            batch_size=draw(st.none() | st.integers(min_value=1, max_value=64)),
            learning_rate=draw(st.floats(min_value=1e-4, max_value=1.0)),
        ),
        round_index=draw(st.integers(min_value=0, max_value=99)),
        rng=draw(st.integers(min_value=0, max_value=2**63 - 1)),
    )


@given(task=algorithm_tasks(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_a_task_decodes_bit_for_bit_whatever_subset_of_its_arrays_is_held(task, data):
    """The one task-frame form.  The server names each array (the protocol
    still reads an unnamed row, which a server no longer sends); whichever
    subset of them the worker holds, the frame carries each digest it does
    not hold exactly once, at its first entry, and every unnamed array, and
    decodes to the task.  The cache then holds every named array under its
    digest, read-only, and nothing the frame dropped."""
    arrays = protocol.task_arrays(task)
    digests = named(task)
    if data.draw(st.booleans(), label="unwritten row"):
        digests.update((name, None) for name in arrays if name.startswith("var."))
    names = [name for name in arrays if digests[name] is not None]
    held_names = data.draw(st.sets(st.sampled_from(names)) if names else st.just(set()))
    cache = {digests[name]: np.array(arrays[name]) for name in held_names}
    stale = [STALE] if data.draw(st.booleans(), label="stale entry") else []
    cache.update((digest, np.zeros(1)) for digest in stale)
    for array in cache.values():
        array.flags.writeable = False
    before = dict(cache)

    frame = protocol.encode_task(TASK_ID, task, digests, set(cache), stale)
    header, blobs = protocol.unpack_frame(frame)
    task_id, decoded = protocol.decode_task(header, blobs, cache)

    assert task_id == TASK_ID
    assert_same_task(decoded, task)
    carried, first = [], {}  # first: digest → the first entry naming it
    for name in arrays:
        digest = digests[name]
        if digest is None or (digest not in before and digest not in first):
            carried.append(name)
        if digest is not None:
            first.setdefault(digest, name)
    assert [entry[0] for entry in header["arrays"] if entry[3]] == carried
    assert [len(blob) for blob in blobs] == [8 * arrays[name].size for name in carried]
    assert header["drop"] == stale
    model = {"params": decoded.global_params}
    model.update((f"state.{key}", value) for key, value in decoded.server_state.items())
    for name, value in model.items():
        assert not value.flags.writeable  # no task may write into a held model
        if digests[name] in before:
            assert value is before[digests[name]]
        elif name not in carried:  # read from the entry that carried its digest
            assert value is model[first[digests[name]]]
    # The client copies its variables into its own store: a task that writes
    # them cannot change what a held (or newly filed) digest names.
    for value in decoded.client.variables.values():
        assert not any(np.shares_memory(value, held) for held in cache.values())
    filed = {digest for digest in digests.values() if digest is not None}
    assert set(cache) == (set(before) - set(stale)) | filed
    for name, array in arrays.items():
        if digests[name] is not None:
            held = cache[digests[name]]
            assert not held.flags.writeable
            assert held.shape == array.shape and held.tobytes() == array.tobytes()


def test_blob_digest_names_shape_and_bytes():
    """``same_blob`` says two arrays share a digest without hashing them:
    bytes, not values, so −0.0 is not 0.0 and NaN is NaN."""
    task, _ = fixed_task_and_message()
    w = task.client.variables["w"]
    digest = protocol.blob_digest(w)
    assert digest == protocol.blob_digest(w.copy()) == protocol.blob_digest(list(w))
    assert protocol.same_blob(w, w.copy()) and protocol.same_blob(w, list(w))
    nan = np.full(3, np.nan)
    assert protocol.same_blob(nan, nan.copy())
    nudged = w.copy()
    nudged[0] = np.nextafter(nudged[0], np.inf)
    signed = np.zeros(3)
    signed[0] = -0.0
    for one, other in (
        (w, nudged),
        (w, w.reshape(1, -1)),
        (w, w[:-1]),
        (np.zeros(3), signed),
    ):
        assert protocol.blob_digest(one) != protocol.blob_digest(other)
        assert not protocol.same_blob(one, other)


#: Floats whose bytes ``==`` misreads: signed zeros, NaN, infinities.
TRICKY_FLOATS = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, 5e-324])


@given(
    first=st.lists(TRICKY_FLOATS, min_size=1, max_size=4),
    second=st.lists(TRICKY_FLOATS, min_size=1, max_size=4),
    column=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_same_blob_is_equal_digests(first, second, column):
    """Whatever the floats, ``same_blob`` answers what hashing both would."""
    one, other = np.array(first), np.array(second)
    if column:
        other = other.reshape(-1, 1)
    assert protocol.same_blob(one, other) == (
        protocol.blob_digest(one) == protocol.blob_digest(other)
    )
    assert protocol.same_blob(one, one.copy())


def test_submitted_vars_files_the_frames_own_variables_under_the_replys_digests():
    """The worker files an accepted submit's variables under the server's
    digests — read-only views of the frame it sent, never hashed."""
    task, message = fixed_task_and_message()
    variables = task.client.variables
    frame = protocol.encode_submit(TASK_ID, message, task.client, Float16Codec())
    reply = {key: protocol.blob_digest(value) for key, value in variables.items()}
    filed = protocol.submitted_vars(frame, reply)
    assert sorted(filed) == sorted(reply.values())
    for key, digest in reply.items():
        assert filed[digest].tobytes() == variables[key].tobytes()
        assert filed[digest].shape == variables[key].shape
        assert not filed[digest].flags.writeable


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


CACHE = cache_of(fixed_task_and_message()[0])


def decode_whatever(header, blobs, codec):
    """Every decoder over one frame; anything but ProtocolError escapes.

    A task frame is also decoded against a cache holding every array of the
    fixture (a copy: decoding applies the frame to it), so a frame that
    names them is tried with its own and, mutated, with another.
    """
    for decode in (
        lambda: protocol.decode_task(header, blobs),
        lambda: protocol.decode_task(header, blobs, dict(CACHE)),
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


def valid_task_frames():
    """The pinned forms, and the one a worker holding only the model gets."""
    task, _ = fixed_task_and_message()
    digests = named(task)
    model = {digests["params"], digests["state.control"]}
    frames = [task_frame(task, form) for form in ("task", "task-named", "task-held")]
    frames.append(protocol.encode_task(TASK_ID, task, digests, model, [STALE]))
    return [(Float16Codec(), *protocol.unpack_frame(frame)) for frame in frames]


def valid_frames():
    submits = [(codec, *protocol.unpack_frame(submit_frame(codec))) for codec in all_codecs()]
    return valid_task_frames() + submits


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
    frame=st.sampled_from(valid_task_frames() + valid_frames()[-3:]),
    entry=st.integers(min_value=0, max_value=8),
    position=st.integers(min_value=0, max_value=5),
    value=json_values,
)
@settings(max_examples=400, deadline=None)
def test_entry_mutated_frames_only_raise_protocol_error(frame, entry, position, value):
    """One part of one array entry (name, shape, digest, carried) replaced
    by arbitrary JSON; position 4 removes the entry, 5 replaces the first
    dropped digest (of a task frame)."""
    codec, header, blobs = frame
    entries = [list(item) for item in header["arrays"]]
    mutated = dict(header, arrays=entries)
    if position == 5 and "drop" in header:
        mutated["drop"] = [value, *header["drop"][1:]]
    elif position == 4:
        del entries[entry % len(entries)]
    else:
        entries[entry % len(entries)][position % 4] = value
    restored, _ = protocol.unpack_frame(protocol.pack_frame(mutated, blobs))
    decode_whatever(restored, blobs, codec)


def _entry_forgery(header, blobs, forgery):
    """The fixture's task frame (model held, variables carried), forged."""
    entries = [list(item) for item in header["arrays"]]
    header, blobs = dict(header, arrays=entries), list(blobs)
    params, _, w, y = entries
    if forgery == "unknown-digest":
        params[2] = "f" * 64
    elif forgery == "carried-without-blob":
        del blobs[-1]
    elif forgery == "stray-blob":
        blobs.append(protocol.pack_array(np.ones(2)))
    elif forgery == "wrong-byte-count":
        blobs[0] = blobs[0][:-8]
    elif forgery == "wrong-shape-for-byte-count":
        w[1] = [36]
    elif forgery == "non-string-digest":
        params[2] = 41
    elif forgery == "held-without-digest":
        params[2] = None
    elif forgery == "carried-not-a-boolean":
        w[3] = 1
    elif forgery == "held-shape-differs":
        params[1] = [1, 37]
    elif forgery == "framed-shape-differs":
        # y named by w's digest, read from w's entry: shape (37,), not (37, 1).
        y[2], y[3] = w[2], False
        del blobs[-1]
    elif forgery == "not-an-entry":
        entries[0] = {"name": "params"}
    elif forgery == "duplicate-name":
        y[0] = "var.w"
    elif forgery == "unknown-name":
        w[0] = "weights"
    elif forgery == "no-params":
        params[0] = "state.params"
    elif forgery == "drop-names-a-frame-digest":
        header["drop"] = [w[2]]
    elif forgery == "drop-not-strings":
        header["drop"] = [7]
    return header, blobs


@pytest.mark.parametrize(
    "forgery",
    [
        "unknown-digest",
        "carried-without-blob",
        "stray-blob",
        "wrong-byte-count",
        "wrong-shape-for-byte-count",
        "non-string-digest",
        "held-without-digest",
        "carried-not-a-boolean",
        "held-shape-differs",
        "framed-shape-differs",
        "not-an-entry",
        "duplicate-name",
        "unknown-name",
        "no-params",
        "drop-names-a-frame-digest",
        "drop-not-strings",
    ],
)
def test_each_bad_entry_or_drop_is_a_protocol_error(forgery):
    """The decoder refuses each forged entry or drop list, and leaves the
    cache as it was; the honest frame decodes against the same cache."""
    _, header, blobs = valid_task_frames()[-1]
    cache = dict(CACHE)
    with pytest.raises(ProtocolError):
        protocol.decode_task(*_entry_forgery(header, blobs, forgery), cache)
    assert cache == CACHE
    protocol.decode_task(header, blobs, cache)
    assert STALE not in cache


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
        ("arrays", "params"),
        ("arrays", None),
        ("arrays", [["params", [-37], None, True]]),
        ("arrays", [["params", [3.5], None, True]]),
        ("arrays", [["params", [2**62, 2**62], None, True]]),
        ("drop", "abc"),
        ("drop", None),
        ("client_id", "3"),
        ("client_index", -1),
        ("seed", 1.5),
        ("epochs", 0),
        ("batch_size", 0),
        ("learning_rate", 0.05),
        ("learning_rate", "0x1p99999"),
        ("task_id", 9),
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
        ("/v1/task", b'{"held": "abc"}'),
        ("/v1/task", b'{"held": null}'),
        ("/v1/task", b'{"held": {"abc": 1}}'),
        ("/v1/task", b'{"held": [5]}'),
        ("/v1/task", b'{"held": [null]}'),
        ("/v1/task", b'{"held": [], "model": "abc"}'),
        # Protocol 1's lease bodies.
        ("/v1/task", b'{"model": "abc"}'),
        ("/v1/task", b'{"vars": {"3": "abc"}}'),
        # Protocol 1 read this index with int(): past Python's digit limit
        # that raised ValueError, answered 500 with a traceback.
        ("/v1/task", b'{"vars": {"' + b"7" * 5000 + b'": "x"}}'),
    ],
)
def test_a_body_that_is_not_a_json_object_is_answered_400(
    live_server, live_client, route, body
):
    """Regression: JSON that is not an object (``[1]``, ``1``, ``"x"``) made
    the handshake call ``.get`` on it — a 500 and a traceback.  The lease
    body is read by the same helper and must be exactly ``{}`` or
    ``{"held": [digest, ...]}``.  None is parked."""
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


def test_a_lease_listing_the_tasks_model_gets_a_frame_without_it():
    """Nothing held: every array is carried, named.  The worker files θ, the
    state and the client's row; SCAFFOLD's initial client control and
    server control are both zeros, one digest, so listing what it holds,
    its next frame carries nothing.  A held digest that is current nowhere
    is dropped."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("scaffold"), num_rounds=1)
    server.start()
    client = ServerClient(server.url)

    def lease(held):
        status, content_type, data = client.post("/v1/task", protocol.encode_lease(held))
        assert status == 200 and content_type == "application/octet-stream"
        header, blobs = protocol.unpack_frame(data)
        return data, header, blobs, server.board.client_of(header["task_id"])

    try:
        cache = {}
        data, header, blobs, ticket = lease(cache)
        assert data == protocol.encode_task(ticket.task_id, ticket.task, ticket.digests)
        _, task = protocol.decode_task(header, blobs, cache)
        model = {ticket.digests["params"], ticket.digests["state.control"]}
        assert ticket.digests["var.control"] == ticket.digests["state.control"]
        assert set(cache) == model
        with pytest.raises(ValueError, match="read-only"):
            task.global_params[0] = 0.0

        lean, header, blobs, ticket = lease(cache)
        assert lean == protocol.encode_task(
            ticket.task_id, ticket.task, ticket.digests, model
        )
        assert blobs == []  # header only
        _, task = protocol.decode_task(header, blobs, cache)
        assert task.global_params is cache[ticket.digests["params"]]

        stale, header, _, ticket = lease({STALE})
        assert stale == protocol.encode_task(
            ticket.task_id, ticket.task, ticket.digests, {STALE}, [STALE]
        )

        counters = server.metrics.snapshot()["counters"]
        assert counters["serve.model_frames"] == 2
        assert counters["serve.download_payload_bytes"] == len(data) + len(lean) + len(stale)
        assert len(lean) < len(data) - 8 * server.model_dim
    finally:
        client.close()
        server.stop()


def test_a_lease_listing_a_pending_clients_variables_leaves_them_out():
    """The board leases first the task whose client's row the worker holds;
    its frame carries nothing.  A stale digest changes nothing but the drop."""
    from repro.serve.server import FederationServer
    from repro.serve.worker import ServerClient

    config = preset_config("serve").with_overrides(num_rounds=1)
    server = FederationServer(config, AlgorithmSpec("fedadmm"), num_rounds=1)
    # The naming pass: the board knows each row's digest before any merge.
    assert server.board.digests == {
        index: {key: protocol.blob_digest(value) for key, value in client.variables.items()}
        for index, client in enumerate(server.simulation.clients)
    }
    server.start()
    client = ServerClient(server.url)

    def lease(held):
        status, content_type, data = client.post("/v1/task", protocol.encode_lease(held))
        assert status == 200 and content_type == "application/octet-stream"
        header, blobs = protocol.unpack_frame(data)
        return data, header, blobs, server.board.client_of(header["task_id"])

    try:
        first, _, _, ticket = lease(())
        assert first == protocol.encode_task(ticket.task_id, ticket.task, ticket.digests)
        model = {ticket.digests["params"]}
        pending = [t for t in server.board._tickets.values() if t.state == "pending"]
        assert len(pending) == 2
        last = pending[-1]
        row = set(server.board.digests[last.task.client_index].values())

        stale, header, _, ticket = lease(model | {STALE})
        assert ticket is pending[0]  # the head: nothing held is pending
        assert header["drop"] == [STALE]
        assert stale == protocol.encode_task(
            ticket.task_id, ticket.task, ticket.digests, model | {STALE}, [STALE]
        )

        held, header, blobs, ticket = lease(model | row)
        assert ticket is last
        assert held == protocol.encode_task(
            ticket.task_id, ticket.task, ticket.digests, model | row
        )
        assert blobs == [] and header["drop"] == []  # header only

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
            "arrays": [],
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
    entries = [list(entry) for entry in header["arrays"]]
    header, blobs = dict(header, arrays=entries), list(blobs)
    if forgery == "renamed":
        entries[0][0] = "var.v"
    elif forgery == "extra":
        entries.append(["var.z", [2], None, True])
        blobs.append(protocol.pack_array(np.ones(2)))
    elif forgery == "missing":
        del entries[-1]
        del blobs[-1]
    elif forgery == "reshaped":
        (dim,) = entries[0][1]
        entries[0][1] = [dim - 1]
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
        ("arrays", "var.w"),
        ("arrays", [["var.w", [-1], None, True], ["var.y", [3], None, True]]),
        ("arrays", [["var.w", [2.5], None, True], ["var.y", [3], None, True]]),
        ("arrays", [["params", [3], None, True], ["var.y", [3], None, True]]),
        ("arrays", [["var.w", [3], "f" * 64, False], ["var.y", [3], None, True]]),
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
