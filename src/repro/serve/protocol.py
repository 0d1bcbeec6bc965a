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

Every float64 array a frame carries or names is one entry ``[name, shape,
digest, carried]`` of the header's ``"arrays"`` list: ``params`` (θ), then
``state.<key>`` (the server state), then ``var.<key>`` (the client's
persistent variables, wᵢ and yᵢ for FedADMM), keys sorted.  ``digest`` is
the array's :func:`blob_digest`, or ``null`` when nobody hashed it; the body
carries, in entry order, exactly the arrays whose ``carried`` is true —
each digest at its first entry only — and ``"drop"`` lists held digests
the worker may forget.  A worker keeps one read-only ``digest → array``
cache: :func:`decode_task` takes each entry from the body, from an earlier
entry of the frame with its digest or from the cache, then files every
named array under its digest and deletes the dropped ones;
:func:`submitted_vars` files an accepted submit's variables under the
digests of the server's reply.  Who names what, and when a frame leaves an
array out, is the wire contract of ``docs/api/serve.md`` ("Task frames and
the worker's cache").

Floats that must survive the trip bit-exactly (train losses, learning rates)
are transported as ``float.hex()`` strings: JSON reprs round-trip doubles,
but hex strings also survive NaN and are unambiguous to human readers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Any, Collection, Iterable

import numpy as np

from repro.algorithms.base import LocalTrainingConfig
from repro.exceptions import ConfigurationError, ProtocolError
from repro.federated.client import ClientState
from repro.federated.messages import ClientMessage
from repro.systems.compression import Codec
from repro.systems.executor import LocalUpdateOutcome, LocalUpdateTask

#: Version carried in every frame and checked during the handshake.
PROTOCOL_VERSION = 2

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


def unpack_array(data: bytes | memoryview, shape: Any) -> np.ndarray:
    """Inverse of :func:`pack_array`: a view of ``data``, whose byte count
    must fit ``shape`` (read-only for a frame's blobs)."""
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
    return array


def _blob(array: np.ndarray) -> np.ndarray:
    """The array whose raw bytes :func:`pack_array` returns (no copy if it is one)."""
    return np.ascontiguousarray(array, dtype="<f8")


def _named(prefix: str, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``prefix.key`` → array, keys sorted: the order of a frame's entries."""
    return {f"{prefix}.{key}": arrays[key] for key in sorted(arrays)}


def blob_digest(array: np.ndarray) -> str:
    """The name of an array in a frame: sha256 of its shape, then its bytes.

    The shape's JSON, then the float64 bytes a frame's blob carries, hashed
    in place.  Only the server calls it.
    """
    hasher = hashlib.sha256(json.dumps(list(np.shape(array))).encode("ascii"))
    hasher.update(_blob(array))
    return hasher.hexdigest()


def same_blob(first: np.ndarray, second: np.ndarray) -> bool:
    """Whether two arrays have one :func:`blob_digest`: same shape, same bytes.

    The bytes are compared as integers, not as floats: ``==`` equates −0.0
    with 0.0 and never matches NaN.
    """
    first, second = _blob(first), _blob(second)
    return first.shape == second.shape and np.array_equal(
        first.view(np.int64), second.view(np.int64)
    )


def carries(digest: str | None, held: Collection[str]) -> bool:
    """Whether a frame carries an array: nobody hashed it, or it is not held."""
    return digest is None or digest not in held


def _pack_arrays(
    arrays: dict[str, np.ndarray],
    digests: dict[str, str | None],
    held: Collection[str],
) -> tuple[list[list], list[np.ndarray]]:
    """The ``"arrays"`` entries of named arrays, and the blobs a body carries.

    A digest is carried at its first entry only: a later entry that shares
    it (θ⁰ and an untrained wᵢ) is read from the earlier one.
    """
    entries, blobs = [], []
    named: set[str] = set()
    for name, array in arrays.items():
        digest = digests.get(name)
        carried = carries(digest, held) and digest not in named
        entries.append([name, list(np.shape(array)), digest, carried])
        if carried:
            blobs.append(_blob(array))
        if digest is not None:
            named.add(digest)
    return entries, blobs


def _unpack_arrays(
    header: dict[str, Any], blobs: list[bytes | memoryview], cache: dict[str, np.ndarray]
) -> tuple[dict[str, np.ndarray], dict[str, str | None]]:
    """Inverse of :func:`_pack_arrays`: ``(name → array, name → digest)``.

    A carried entry is a read-only view of its blob; any other is the array
    an earlier entry of the frame named by its digest, else
    ``cache[digest]``, and its shape must be the entry's.
    """
    arrays: dict[str, np.ndarray] = {}
    digests: dict[str, str | None] = {}
    framed: dict[str, np.ndarray] = {}  # digest → array, from earlier entries
    used = 0
    for entry in _field(header, "arrays", list):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise ProtocolError(
                f"array entry must be [name, shape, digest, carried], got {entry!r:.60}"
            )
        name, shape, digest, in_body = entry
        if type(name) is not str or name in arrays:
            raise ProtocolError(f"array names must be distinct strings, got {name!r:.40}")
        if not (digest is None or type(digest) is str) or type(in_body) is not bool:
            raise ProtocolError(
                f"array {name!r:.40} needs a string or null digest and a boolean "
                f"carried, got {digest!r:.40}, {in_body!r:.10}"
            )
        if in_body:
            if used == len(blobs):
                raise ProtocolError(f"frame carries no blob for array {name!r:.40}")
            array = unpack_array(blobs[used], shape)
            used += 1
        else:
            array = None if digest is None else framed.get(digest, cache.get(digest))
            if array is None:
                raise ProtocolError(
                    f"array {name!r:.40} is named by digest {digest!r:.20}, "
                    "which this worker does not hold"
                )
            if array.shape != _shape(shape):
                raise ProtocolError(
                    f"array {name!r:.40} declares shape {shape!r:.40}, its held "
                    f"digest names shape {list(array.shape)}"
                )
        arrays[name] = array
        digests[name] = digest
        if digest is not None:
            framed.setdefault(digest, array)
    if used != len(blobs):
        raise ProtocolError(f"frame carries {len(blobs)} blobs for {used} carried arrays")
    return arrays, digests


def _grouped(arrays: dict[str, np.ndarray], *kinds: str) -> dict[str, dict[str, np.ndarray]]:
    """Arrays by kind, then key: ``params`` (key ``""``) or ``<kind>.<key>``."""
    groups: dict[str, dict[str, np.ndarray]] = {kind: {} for kind in kinds}
    for name, array in arrays.items():
        kind, _, key = name.partition(".")
        # ``params`` has no key; every other kind must have one.
        if kind not in groups or not (name == "params" if kind == "params" else key):
            raise ProtocolError(f"frame array {name!r:.40} is not one of {kinds}")
        groups[kind][key] = array
    return groups


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


def encode_lease(held: Iterable[str]) -> bytes:
    """The ``/v1/task`` request body: the digests of the arrays a worker holds."""
    return json.dumps({"held": sorted(held)}).encode("utf-8")


def decode_lease(body: bytes) -> set[str]:
    """Inverse of :func:`encode_lease`: the held digests.

    The body is exactly ``{}`` (or empty: a worker that holds nothing) or
    ``{"held": [digest, ...]}``; anything else is refused.
    """
    request = json_object(body, "task request")
    held = request.get("held", [])
    if set(request) - {"held"} or not (
        isinstance(held, list) and all(type(digest) is str for digest in held)
    ):
        raise ProtocolError(
            f'task request must be {{}} or {{"held": [digest, ...]}}, got {request!r:.60}'
        )
    return set(held)


def task_arrays(task: LocalUpdateTask) -> dict[str, np.ndarray]:
    """Every array a task frame names, by entry name, in frame order."""
    return {
        "params": task.global_params,
        **_named("state", task.server_state),
        **_named("var", task.client.variables),
    }


def encode_task(
    task_id: str,
    task: LocalUpdateTask,
    digests: dict[str, str | None] | None = None,
    held: Collection[str] = frozenset(),
    drop: Iterable[str] = (),
) -> bytes:
    """Frame one :class:`~repro.systems.executor.LocalUpdateTask` for the wire.

    ``digests`` names the task's arrays (entry name → :func:`blob_digest`;
    a missing or ``None`` one is unnamed); the frame carries each array but
    those whose digest is in ``held``, the lessee's lease, or named by an
    earlier entry.  ``drop`` lists held digests the lessee may forget.
    Everything else rides in the header; isolated executors hand tasks
    integer seeds, which JSON carries exactly.
    """
    entries, blobs = _pack_arrays(task_arrays(task), digests or {}, held)
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
        "arrays": entries,
        "drop": sorted(drop),
    }
    return pack_frame(header, blobs)


def decode_task(
    header: dict[str, Any],
    blobs: list[bytes | memoryview],
    cache: dict[str, np.ndarray] | None = None,
) -> tuple[str, LocalUpdateTask]:
    """Parse a task frame back into ``(task_id, task)`` and apply it to ``cache``.

    Each array comes from the body or from ``cache`` (digest → read-only
    array) by its digest.  Once the frame has decoded, every array it names
    — θ, the server state and the client's variables — is filed in
    ``cache`` under its digest and the digests the frame drops are deleted
    from it.  The task's client carries no dataset — the worker binds its
    own copy.
    """
    cache = {} if cache is None else cache
    arrays, digests = _unpack_arrays(header, blobs, cache)
    groups = _grouped(arrays, "params", "state", "var")
    if "" not in groups["params"]:
        raise ProtocolError("task frame names no params array")
    drop = _field(header, "drop", list)
    if not all(type(digest) is str for digest in drop) or set(drop) & set(digests.values()):
        raise ProtocolError(f"drop must list digests the frame does not name: {drop!r:.60}")
    try:
        config = LocalTrainingConfig(
            epochs=_field(header, "epochs", int),
            batch_size=_field(header, "batch_size", int, None),
            learning_rate=unhex_float(_field(header, "learning_rate", str)),
        )
    except ConfigurationError as exc:
        raise ProtocolError(f"task frame: {exc}") from None
    task = LocalUpdateTask(
        client_index=_field(header, "client_index", int),
        client=_client(header, groups["var"]),
        global_params=arrays["params"],
        server_state=groups["state"],
        config=config,
        round_index=_field(header, "round_index", int),
        rng=_field(header, "seed", int),
    )
    task_id = _field(header, "task_id", str)
    cache.update(
        (digest, arrays[name]) for name, digest in digests.items() if digest is not None
    )
    for digest in drop:
        cache.pop(digest, None)
    return task_id, task


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
    ledger identical to simulation.  The variables follow the payload as
    ``var.<key>`` entries, unnamed and carried.
    """
    payload_keys = sorted(message.payload)
    arrays = [np.asarray(message.payload[key]) for key in payload_keys]
    entries, var_blobs = _pack_arrays(_named("var", client.variables), {}, ())
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
        "arrays": entries,
        "rounds_participated": int(client.rounds_participated),
        "local_work_done": int(client.local_work_done),
    }
    blobs = [codec.pack(codec.encode(array.ravel(), rng=rng)) for array in arrays]
    return pack_frame(header, blobs + var_blobs)


def _submitted_variables(
    header: dict[str, Any], blobs: list[bytes | memoryview]
) -> dict[str, np.ndarray]:
    """A submit frame's variables by key: views of the blobs after the payload."""
    arrays, _ = _unpack_arrays(header, blobs[len(_field(header, "payload", list)) :], {})
    return _grouped(arrays, "var")["var"]


def submitted_vars(frame: bytes, digests: dict[str, str]) -> dict[str, np.ndarray]:
    """An accepted submit frame's variables, as a worker files them in its cache.

    ``digests`` is the server's reply (``key → digest`` of each variable, the
    :func:`blob_digest` the server took when it accepted the submit), so the
    worker never hashes.  The arrays are read-only views of the frame's own
    blobs: they keep the frame alive rather than copy out of it — one
    long-lived buffer per held client, which fragments the heap less than a
    copy per blob (measured in peak RSS).
    """
    variables = _submitted_variables(*unpack_frame(frame))
    return {digest: variables[key] for key, digest in digests.items()}


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
    client = _client(header, _submitted_variables(header, blobs))
    message = ClientMessage(
        client_id=client.client_id,
        payload=payload,
        num_samples=_field(header, "num_samples", int),
        local_epochs=_field(header, "local_epochs", int),
        train_loss=unhex_float(_field(header, "train_loss", str)),
    )
    return _field(header, "task_id", str), LocalUpdateOutcome(message, client), payload_bytes
