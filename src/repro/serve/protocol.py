"""Wire protocol for the networked federation runtime.

The serve layer speaks a small binary protocol over HTTP POST bodies.  Every
body is one *frame*:

``MAGIC(4) | version u16 | blob_count u16 | header_len u32 | header | blobs``

where ``header`` is UTF-8 JSON and each blob is ``length u32 | bytes``.  All
integers are little-endian.  The header carries small structured fields
(task ids, seeds, shapes, hex-exact floats); the blobs carry array payloads.

Uploaded model deltas travel as the *encoded* representation of the
:mod:`repro.systems.compression` codecs, packed by the codec itself
(:meth:`~repro.systems.compression.Codec.pack`) — so the bytes counted by
the :class:`~repro.federated.messages.CommunicationLedger` correspond to
real bytes in the HTTP body, modulo each codec's documented gap between
``packed_bytes`` and ``wire_bytes``.  This module knows frames, not codecs.

The frame codecs are symmetric: ``encode_task``/``decode_task`` carry a
:class:`~repro.systems.executor.LocalUpdateTask`, ``encode_submit``/
``decode_submit`` a :class:`~repro.systems.executor.LocalUpdateOutcome`.
The decoders are total: whatever the bytes, they return or raise
:class:`~repro.exceptions.ProtocolError`.

The model and the client's variables are content-addressed.
:func:`model_digest` names a task's global parameters θ and server state,
:func:`vars_digest` a client's persistent variables (wᵢ, yᵢ, ...).  A task
frame carries each part or names it:

- the **full frame** carries θ (``params_shape`` + one blob), the server
  state (``state_keys``/``state_shapes`` + one blob each) and the client's
  variables (``var_keys``/``var_shapes`` + one blob each) — every task frame
  of protocol version 1 is one;
- ``"model": digest`` in place of the θ and state fields and blobs makes the
  **lean frame**; it decodes against a :class:`HeldModel` — the θ and state
  of the last full frame the worker decoded;
- ``"vars": digest`` in place of the variable fields and blobs names the
  client's variables; it decodes against the worker's map of
  :class:`HeldVars` by client index — the variables of the submits the
  server accepted from it.  With ``"model"`` too the frame is header only.

A frame naming a model or variables the worker does not hold is a
:class:`~repro.exceptions.ProtocolError`.  A worker names what it holds in
its ``/v1/task`` request body (``{"model": digest, "vars": {"<client_index>":
digest, ...}}``, see :func:`encode_lease`); the server leaves out what the
worker holds of the task it leases, so θ crosses the wire once per worker
per model and a client's variables only when the worker lacks them.

Floats that must survive the trip bit-exactly (train losses, learning rates)
are transported as ``float.hex()`` strings: JSON reprs round-trip doubles,
but hex strings also survive NaN and are unambiguous to human readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Any, NamedTuple

import numpy as np

from repro.algorithms.base import LocalTrainingConfig
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage
from repro.systems.compression import Codec
from repro.systems.executor import LocalUpdateOutcome, LocalUpdateTask

#: Version carried in every frame and checked during the handshake.
PROTOCOL_VERSION = 1

#: Frame magic: "repro federation protocol".
MAGIC = b"RFP1"

#: Hard cap on a single frame; requests beyond this are rejected outright.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Most scalars any array in a frame can declare: one bit each (signSGD).
_MAX_SCALARS = 8 * MAX_FRAME_BYTES

_HEADER_STRUCT = struct.Struct("<4sHHI")
_BLOB_LEN = struct.Struct("<I")

#: Machine-readable ProtocolError codes → HTTP status.
HTTP_STATUS_FOR_CODE = {
    "malformed": 400,
    "bad_codec": 400,
    "unknown_task": 404,
    "too_large": 413,
    "version_mismatch": 426,
}


def http_status_for(error: ProtocolError) -> int:
    """Map a ProtocolError onto the HTTP status the server should send."""
    return HTTP_STATUS_FOR_CODE.get(getattr(error, "code", "malformed"), 400)


def json_object(body: bytes, what: str) -> dict[str, Any]:
    """A JSON request body that must be an object; empty means ``{}``."""
    if not body:
        return {}
    try:
        request = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, absurd nesting
        raise ProtocolError(f"{what} body is not JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(f"{what} body must be a JSON object, got {request!r:.40}")
    return request


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def pack_frame(header: dict[str, Any], blobs: list | None = None) -> bytes:
    """Serialise a header dict plus binary blobs into one frame.

    A blob is any C-contiguous buffer — bytes, or an array whose raw bytes
    are the blob — joined into the frame with no copy of its own.
    """
    blobs = [memoryview(blob) for blob in blobs or []]
    if len(blobs) > 0xFFFF:
        raise ProtocolError(f"too many blobs in one frame: {len(blobs)}")
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_HEADER_STRUCT.pack(MAGIC, PROTOCOL_VERSION, len(blobs), len(header_bytes))]
    parts.append(header_bytes)
    for blob in blobs:
        parts.append(_BLOB_LEN.pack(blob.nbytes))
        parts.append(blob)
    return b"".join(parts)


def unpack_frame(
    data: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> tuple[dict[str, Any], list[memoryview]]:
    """Parse one frame, validating structure, version, and size bounds.

    The blobs are read-only views of ``data``, not copies of it.
    """
    if len(data) > max_bytes:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {max_bytes}-byte limit",
            code="too_large",
        )
    if len(data) < _HEADER_STRUCT.size:
        raise ProtocolError(
            f"frame truncated: {len(data)} bytes is shorter than the "
            f"{_HEADER_STRUCT.size}-byte preamble"
        )
    magic, version, blob_count, header_len = _HEADER_STRUCT.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"frame speaks protocol version {version}, this build speaks "
            f"{PROTOCOL_VERSION}",
            code="version_mismatch",
        )
    offset = _HEADER_STRUCT.size
    if offset + header_len > len(data):
        raise ProtocolError("frame truncated inside the JSON header")
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8/JSON, absurd nesting
        raise ProtocolError(f"frame header is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise ProtocolError("frame header must be a JSON object")
    offset += header_len
    view = memoryview(data).toreadonly()
    blobs: list[memoryview] = []
    for index in range(blob_count):
        if offset + _BLOB_LEN.size > len(data):
            raise ProtocolError(f"frame truncated before blob {index}")
        (length,) = _BLOB_LEN.unpack_from(data, offset)
        offset += _BLOB_LEN.size
        if offset + length > len(data):
            raise ProtocolError(f"frame truncated inside blob {index}")
        blobs.append(view[offset : offset + length])
        offset += length
    if offset != len(data):
        raise ProtocolError(f"{len(data) - offset} trailing bytes after the last blob")
    return header, blobs


# ---------------------------------------------------------------------------
# Header fields and float64 blobs
# ---------------------------------------------------------------------------


def hex_float(value: float) -> str:
    """Bit-exact, NaN-safe string form of a double."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    return value.hex()


def unhex_float(text: str) -> float:
    """Inverse of :func:`hex_float`."""
    if text == "nan":
        return math.nan
    try:
        return float.fromhex(text)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ProtocolError(f"bad hex float {text!r}: {exc}") from None


_REQUIRED = object()


def _field(header: dict[str, Any], key: str, kind: type, default: Any = _REQUIRED) -> Any:
    """``header[key]``, which must be a ``kind`` (ints: non-negative)."""
    value = header.get(key, default)
    if value is _REQUIRED:
        raise ProtocolError(f"frame missing field {key!r}")
    if value is default:  # absent, or spelled out (``"batch_size": null``)
        return value
    if type(value) is not kind or (kind is int and value < 0):
        raise ProtocolError(
            f"frame field {key!r} must be a {'non-negative ' * (kind is int)}"
            f"{kind.__name__}, got {value!r}"
        )
    return value


def _shape(value: Any) -> tuple[int, ...]:
    """A declared array shape: a list of non-negative ints of sane size."""
    if not (
        isinstance(value, list)
        and all(type(side) is int and 0 <= side <= _MAX_SCALARS for side in value)
        and math.prod(value) <= _MAX_SCALARS
    ):
        raise ProtocolError(f"bad array shape {value!r}")
    return tuple(value)


def pack_array(array: np.ndarray) -> bytes:
    """Raw little-endian float64 bytes of an array (shape travels in the header)."""
    return _blob(array).tobytes()


def unpack_array(data: bytes | memoryview, shape: Any, copy: bool = True) -> np.ndarray:
    """Inverse of :func:`pack_array`; validates the byte count against shape.

    With ``copy=False`` the result is a read-only view of ``data``.
    """
    shape = _shape(shape)
    if len(data) != math.prod(shape) * 8:
        raise ProtocolError(
            f"float64 blob has {len(data)} bytes, expected "
            f"{math.prod(shape) * 8} for shape {shape}"
        )
    try:
        array = np.frombuffer(data, dtype="<f8").reshape(shape)
    except ValueError as exc:  # e.g. (0, huge, huge): empty but unaddressable
        raise ProtocolError(f"bad array shape {shape}: {exc}") from None
    return array.copy() if copy else array


def _blob(array: np.ndarray) -> np.ndarray:
    """The array whose raw bytes :func:`pack_array` returns (no copy if it is one)."""
    return np.ascontiguousarray(array, dtype="<f8")


def _named(prefix: str, arrays: dict[str, np.ndarray]) -> tuple[dict, list[np.ndarray]]:
    """Header fields + float64 blob arrays of a name → array dict, keys sorted."""
    keys = sorted(arrays)
    shapes = [list(np.shape(arrays[key])) for key in keys]
    fields = {f"{prefix}_keys": keys, f"{prefix}_shapes": shapes}
    return fields, [_blob(arrays[key]) for key in keys]


def _unpack_named(
    header: dict[str, Any], prefix: str, blobs: list[bytes | memoryview], copy: bool = True
) -> dict[str, np.ndarray]:
    """Inverse of :func:`_named` over the blobs that belong to it."""
    keys = _field(header, f"{prefix}_keys", list)
    shapes = _field(header, f"{prefix}_shapes", list)
    if not (
        len(keys) == len(shapes) == len(blobs)
        and all(type(key) is str for key in keys)
        and len(set(keys)) == len(keys)
    ):
        raise ProtocolError(
            f"{prefix}_keys must be distinct strings, one per shape and blob: "
            f"{len(keys)} keys, {len(shapes)} shapes, {len(blobs)} blobs"
        )
    return {
        key: unpack_array(blob, shape, copy)
        for key, shape, blob in zip(keys, shapes, blobs)
    }


def _digest(fields: dict[str, Any], arrays: list[np.ndarray]) -> str:
    """sha256 of the JSON of ``fields``, then each blob array's bytes.

    The buffers are hashed in place: they are the bytes a frame's blobs
    carry, without the copy ``pack_array`` makes.
    """
    hasher = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
    for array in arrays:
        hasher.update(array)
    return hasher.hexdigest()


def vars_digest(variables: dict[str, np.ndarray]) -> str:
    """sha256 of what a held-vars frame leaves out: keys, shapes, bytes.

    The JSON of ``var_keys``/``var_shapes``, then each variable's float64
    bytes in sorted key order — the fields and blobs :func:`encode_task`
    writes for them, so both sides of the wire agree.
    """
    return _digest(*_named("var", variables))


def _client(header: dict[str, Any], variables: dict[str, np.ndarray]) -> ClientState:
    """The client state both frame kinds carry (its dataset stays behind)."""
    return ClientState(
        client_id=_field(header, "client_id", int),
        dataset=None,
        # Views suffice: the ClientState copies them into its own store.
        variables=variables,
        rounds_participated=_field(header, "rounds_participated", int, 0),
        local_work_done=_field(header, "local_work_done", int, 0),
    )


# ---------------------------------------------------------------------------
# Task frames (server → worker)
# ---------------------------------------------------------------------------


class HeldModel(NamedTuple):
    """The model a worker holds: what lean task frames leave out."""

    digest: str
    params: np.ndarray
    state: dict[str, np.ndarray]


class HeldVars(NamedTuple):
    """One client's variables a worker holds: what held-vars frames leave out."""

    digest: str
    #: Read-only views of the blobs of an accepted submit: no task writes them.
    variables: dict[str, np.ndarray]


def encode_lease(held: HeldModel | None, held_vars: dict[int, HeldVars]) -> bytes:
    """The ``/v1/task`` request body: the model and client variables held."""
    request: dict[str, Any] = {}
    if held is not None:
        request["model"] = held.digest
    if held_vars:
        request["vars"] = {str(index): entry.digest for index, entry in held_vars.items()}
    return json.dumps(request).encode("utf-8")


def decode_lease(body: bytes) -> tuple[str | None, dict[int, str]]:
    """Inverse of :func:`encode_lease`: ``(model digest, {client_index: digest})``.

    An empty body (a worker that holds nothing, or an older one) names nothing.
    """
    request = json_object(body, "task request")
    model = request.get("model")
    if "model" in request and type(model) is not str:
        raise ProtocolError(f"task request model must be a string, got {model!r:.40}")
    named = request.get("vars", {})
    if not isinstance(named, dict):
        raise ProtocolError(f"task request vars must be an object, got {named!r:.40}")
    held: dict[int, str] = {}
    for key, digest in named.items():
        if not (key.isascii() and key.isdigit()) or type(digest) is not str:
            raise ProtocolError(
                "task request vars must map client indices to digest strings, "
                f"got {key!r:.20}: {digest!r:.40}"
            )
        held[int(key)] = digest
    return model, held


def _model(
    global_params: np.ndarray, server_state: dict[str, np.ndarray]
) -> tuple[dict, list[np.ndarray]]:
    """The header fields and arrays a full task frame spends on the model."""
    state_fields, state = _named("state", server_state)
    fields = {"params_shape": list(np.shape(global_params)), **state_fields}
    return fields, [_blob(global_params), *state]


def model_digest(global_params: np.ndarray, server_state: dict[str, np.ndarray]) -> str:
    """sha256 of exactly what the lean frame leaves out: shapes, keys, bytes.

    θ's float64 bytes, then each server-state array's in sorted key order,
    after the JSON of their shapes and keys — the same bytes
    :func:`encode_task` writes, so both sides of the wire agree.
    """
    return _digest(*_model(global_params, server_state))


def encode_task(
    task_id: str,
    task: LocalUpdateTask,
    model: str | None = None,
    variables: str | None = None,
) -> bytes:
    """Frame one :class:`~repro.systems.executor.LocalUpdateTask` for the wire.

    The global parameters, server-state vectors, and the client's persistent
    variables ship as raw float64 blobs; everything else rides in the header.
    Isolated executors hand tasks integer seeds, which JSON carries exactly.
    With ``model`` — the task's :func:`model_digest` — the frame is the
    *lean* one: the digest stands in for θ and the server state.  With
    ``variables`` — the client's :func:`vars_digest` — the digest stands in
    for the client's variables.
    """
    if variables is None:
        var_fields, var_blobs = _named("var", task.client.variables)
    else:
        var_fields, var_blobs = {"vars": variables}, []
    if model is None:
        model_fields, model_blobs = _model(task.global_params, task.server_state)
    else:
        model_fields, model_blobs = {"model": model}, []
    config = task.config
    header = {
        "kind": "task",
        "task_id": task_id,
        "client_index": int(task.client_index),
        "client_id": int(task.client.client_id),
        "round_index": int(task.round_index),
        "seed": int(task.rng),
        "epochs": int(config.epochs),
        "batch_size": None if config.batch_size is None else int(config.batch_size),
        "learning_rate": hex_float(config.learning_rate),
        "rounds_participated": int(task.client.rounds_participated),
        "local_work_done": int(task.client.local_work_done),
        **model_fields,
        **var_fields,
    }
    return pack_frame(header, [*model_blobs, *var_blobs])


def decode_task(
    header: dict[str, Any],
    blobs: list[bytes | memoryview],
    held: HeldModel | None = None,
    held_vars: dict[int, HeldVars] | None = None,
) -> tuple[str, LocalUpdateTask]:
    """Parse a task frame back into ``(task_id, task)``.

    A lean frame takes θ and the server state from ``held`` (the state dict
    is a fresh one over the held arrays); a frame naming the client's
    variables takes them from ``held_vars[client_index]``.  The task's
    client carries no dataset — the worker binds its own copy.
    """
    model = _field(header, "model", str, None)
    if model is None:
        split = 1 + len(_field(header, "state_keys", list))
        if not blobs:
            raise ProtocolError("task frame carries no parameter blob")
        global_params = unpack_array(blobs[0], header.get("params_shape"))
        server_state = _unpack_named(header, "state", blobs[1:split])
    elif held is None or held.digest != model:
        raise ProtocolError(
            f"lean task frame names model {model[:16]!r}, this worker holds "
            f"{None if held is None else held.digest[:16]!r}"
        )
    else:
        split = 0
        global_params, server_state = held.params, dict(held.state)
    client_index = _field(header, "client_index", int)
    digest = _field(header, "vars", str, None)
    if digest is None:
        variables = _unpack_named(header, "var", blobs[split:], copy=False)
    else:
        entry = None if held_vars is None else held_vars.get(client_index)
        if entry is None or entry.digest != digest:
            raise ProtocolError(
                f"task frame names client {client_index}'s variables "
                f"{digest[:16]!r}, this worker holds "
                f"{None if entry is None else entry.digest[:16]!r}"
            )
        if len(blobs) != split:
            raise ProtocolError(
                f"task frame names its variables but carries {len(blobs) - split} "
                "variable blobs"
            )
        variables = entry.variables
    try:
        config = LocalTrainingConfig(
            epochs=_field(header, "epochs", int),
            batch_size=_field(header, "batch_size", int, None),
            learning_rate=unhex_float(_field(header, "learning_rate", str)),
        )
    except ConfigurationError as exc:
        raise ProtocolError(f"task frame: {exc}") from None
    task = LocalUpdateTask(
        client_index=client_index,
        client=_client(header, variables),
        global_params=global_params,
        server_state=server_state,
        config=config,
        round_index=_field(header, "round_index", int),
        rng=_field(header, "seed", int),
    )
    return _field(header, "task_id", str), task


# ---------------------------------------------------------------------------
# Submit frames (worker → server)
# ---------------------------------------------------------------------------


def encode_submit(
    task_id: str, message: ClientMessage, client: ClientState, codec: Codec, rng=None
) -> bytes:
    """Frame one finished local update: codec-encoded payload + client vars.

    The payload vectors are *encoded* with ``codec`` here on the worker, so
    the HTTP body carries the compressed representation — the server decodes
    and re-derives the wire costs through its own transport, keeping the
    ledger identical to simulation.
    """
    payload_keys = sorted(message.payload)
    arrays = [np.asarray(message.payload[key]) for key in payload_keys]
    var_fields, var_blobs = _named("var", client.variables)
    header = {
        "kind": "submit",
        "task_id": task_id,
        "client_id": int(message.client_id),
        "num_samples": int(message.num_samples),
        "local_epochs": int(message.local_epochs),
        "train_loss": hex_float(message.train_loss),
        "codec": codec.name,
        "payload": [
            {"key": key, "shape": list(array.shape)}
            for key, array in zip(payload_keys, arrays)
        ],
        **var_fields,
        "rounds_participated": int(client.rounds_participated),
        "local_work_done": int(client.local_work_done),
    }
    blobs = [codec.pack(codec.encode(array.ravel(), rng=rng)) for array in arrays]
    return pack_frame(header, blobs + var_blobs)


def submitted_vars(frame: bytes, digest: str) -> HeldVars:
    """The client variables of an accepted submit frame, as a worker holds them.

    Read-only views of the frame's own variable blobs, filed under
    ``digest`` — the :func:`vars_digest` the server took of them when it
    accepted the submit, so the worker never hashes.  The views keep the
    frame alive rather than copy out of it — one long-lived buffer per held
    client, which fragments the heap less than a copy per blob (measured in
    peak RSS).
    """
    header, blobs = unpack_frame(frame)
    variables = _unpack_named(header, "var", blobs[len(header["payload"]) :], copy=False)
    return HeldVars(digest, variables)


def decode_submit(
    header: dict[str, Any], blobs: list[bytes | memoryview], codec: Codec
) -> tuple[str, LocalUpdateOutcome, int]:
    """Parse a submit frame into ``(task_id, outcome, payload_bytes)``.

    Every payload vector goes through ``codec.unpack`` — length and
    semantic validation — before ``codec.decode``, so malformed uploads
    surface as :class:`ProtocolError` here, at the boundary, rather than
    corrupting aggregation.  ``payload_bytes`` is the real size of the
    codec-packed blobs.
    """
    if header.get("codec") != codec.name:
        raise ProtocolError(
            f"submit encoded with codec {header.get('codec')!r}, server expects "
            f"{codec.name!r}",
            code="bad_codec",
        )
    descriptors = _field(header, "payload", list)
    payload: dict[str, np.ndarray] = {}
    payload_bytes = 0
    for meta, blob in zip(descriptors, blobs):
        if not isinstance(meta, dict) or type(meta.get("key")) is not str:
            raise ProtocolError("submit payload descriptor must carry key and shape")
        shape = _shape(meta.get("shape"))
        encoded = codec.unpack(math.prod(shape), blob)
        payload[meta["key"]] = codec.decode(encoded).reshape(shape)
        payload_bytes += len(blob)
    if len(payload) != len(descriptors):
        raise ProtocolError(
            f"submit frame carries {len(blobs)} blobs for {len(descriptors)} "
            "payload vectors with distinct keys"
        )
    client = _client(
        header, _unpack_named(header, "var", blobs[len(descriptors) :], copy=False)
    )
    message = ClientMessage(
        client_id=client.client_id,
        payload=payload,
        num_samples=_field(header, "num_samples", int),
        local_epochs=_field(header, "local_epochs", int),
        train_loss=unhex_float(_field(header, "train_loss", str)),
    )
    return _field(header, "task_id", str), LocalUpdateOutcome(message, client), payload_bytes
