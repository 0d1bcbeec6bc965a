"""Update-compression codecs for the transport layer.

A :class:`Codec` maps a flat float vector to a compact wire representation
and back.  The decode side is lossy for every codec except
:class:`IdentityCodec`; the engine aggregates the *decoded* vectors, so
compression error feeds into convergence exactly as it would in a real
deployment.  ``wire_bytes(dim)`` gives the nominal on-the-wire size of an
encoded d-vector, used both by the :class:`~repro.federated.messages.CommunicationLedger`
and by the network time model (straggler prediction needs sizes before the
update is computed).

A codec also owns its *bytes*: ``pack`` turns an encoded vector into the
exact binary form the serve layer ships, ``unpack`` parses and validates
bytes that arrived from another process (raising
:class:`~repro.exceptions.ProtocolError`, never anything else), and
``packed_bytes(dim)`` is the length of that form.  Everything that knows a
codec's wire format lives in its class; adding a codec is one class here
plus its :data:`CODEC_REGISTRY` entry.

The codec family mirrors the standard gradient-compression literature:
float16 casting, top-k sparsification (Aji & Heafield, 2017), QSGD
stochastic quantisation (Alistarh et al., 2017), and signSGD with a
magnitude scale (Bernstein et al., 2018).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, ProtocolError, SimulationError
from repro.federated.messages import BYTES_PER_FLOAT
from repro.utils.rng import SeedLike, as_rng

#: Bytes the ledger costs one scalar side-channel value at (norms, scales).
_SCALAR_BYTES = 4

#: Bytes that scalar really occupies in a packed vector: a float64, so the
#: receiver rebuilds exactly the norm/scale the sender computed.
_PACKED_SCALAR_BYTES = 8

#: Bytes used for one coordinate index in sparse encodings (uint32).
_INDEX_BYTES = 4

#: Largest QSGD level count: levels are int32 and a packed coordinate
#: (level bits + sign bit) must fit a uint32.
_MAX_QSGD_LEVELS = 2**31 - 1


@dataclass
class EncodedVector:
    """A codec's wire representation of one flat vector."""

    codec: str
    dim: int
    wire_bytes: int
    data: dict[str, np.ndarray] = field(default_factory=dict)


def _le_bytes(array: np.ndarray, dtype: str) -> bytes:
    """The array's values as contiguous little-endian ``dtype`` bytes."""
    return np.ascontiguousarray(array, dtype=dtype).tobytes()


def _pack_bits(values: np.ndarray, bits: int) -> bytes:
    """Pack small unsigned ints, ``bits`` each, MSB-first, into bytes."""
    values = np.asarray(values, dtype=np.uint32)
    # Explode each value into its `bits` bits (MSB first), then let packbits
    # fold the flat bit-stream into bytes.
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    bit_matrix = (values[:, None] >> shifts[None, :]) & 1
    return np.packbits(bit_matrix.astype(np.uint8).ravel()).tobytes()


def _unpack_bits(data: bytes, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`_pack_bits` for ``count`` values."""
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count * bits)
    bit_matrix = flat.reshape(count, bits).astype(np.uint32)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    return (bit_matrix << shifts[None, :]).sum(axis=1, dtype=np.uint32)


def _rescaled(codec: str, values: np.ndarray, reduce, what: str) -> float:
    """``reduce(values)`` for a vector on which the plain reduction overflowed.

    A finite vector is reduced divided by its largest magnitude, then scaled
    back, so a norm or mean that fits float64 is returned even when the sum
    of squares (or of magnitudes) does not.  A non-finite vector, or one
    whose result itself exceeds float64, is refused.
    """
    if not np.isfinite(values).all():
        raise SimulationError(
            f"{codec} cannot encode a vector with NaN or infinite coordinates"
        )
    peak = float(np.abs(values).max())
    result = peak * float(reduce(values / peak))
    if not math.isfinite(result):
        raise SimulationError(f"{codec} cannot encode a vector whose {what} exceeds float64")
    return result


def _signs(values: np.ndarray) -> np.ndarray:
    """int8 -1 exactly where ``values < 0``, +1 elsewhere (-0.0 and NaN too)."""
    signs = np.less(values, 0).view(np.int8) * np.int8(-2)
    signs += np.int8(1)
    return signs


class Codec:
    """One compression scheme: its arithmetic, its cost and its bytes.

    ``encode``/``decode`` are the (lossy) arithmetic, ``wire_bytes`` the
    nominal size the ledger and the network model charge, and
    ``pack``/``unpack``/``packed_bytes`` the exact binary form.  The two
    sizes differ only where a class says so: ``packed_bytes`` defaults to
    ``wire_bytes``.
    """

    name = "base"

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        """Compress a flat vector into its wire representation."""
        raise NotImplementedError

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        """Reconstruct a (possibly lossy) flat float64 vector."""
        raise NotImplementedError

    def wire_bytes(self, dim: int) -> int:
        """Nominal bytes on the wire for an encoded d-dimensional vector."""
        raise NotImplementedError

    def pack(self, encoded: EncodedVector) -> bytes:
        """The exact binary form of one encoded vector."""
        raise NotImplementedError

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        """Parse and validate bytes from another process.

        Checks the length against ``dim`` (:meth:`_check_packed`) and every
        field ``decode`` relies on (index ranges, level bounds, finite
        scales); raises :class:`~repro.exceptions.ProtocolError` only.
        """
        raise NotImplementedError

    def packed_bytes(self, dim: int) -> int:
        """Exact length of :meth:`pack` for a d-dimensional vector."""
        return self.wire_bytes(dim)

    def roundtrip(self, vector: np.ndarray, rng: SeedLike = None) -> tuple[np.ndarray, int]:
        """Encode then decode; returns (reconstruction, wire bytes)."""
        encoded = self.encode(np.asarray(vector, dtype=np.float64), rng=rng)
        return self.decode(encoded), encoded.wire_bytes

    def _encoded(self, dim: int, **data: np.ndarray) -> EncodedVector:
        return EncodedVector(
            codec=self.name, dim=dim, wire_bytes=self.wire_bytes(dim), data=data
        )

    def _check_packed(self, dim: int, data: bytes) -> None:
        if dim < 0:
            raise ProtocolError(f"negative vector dimension {dim}")
        if len(data) != self.packed_bytes(dim):
            raise ProtocolError(
                f"{self.name} payload has {len(data)} bytes, expected "
                f"{self.packed_bytes(dim)} for dim {dim}"
            )

    def _unpack_scalar(self, data: bytes, what: str) -> np.ndarray:
        """The float64 norm/scale trailing a packed vector."""
        value = np.frombuffer(data, dtype="<f8").astype(np.float64)
        if not (np.isfinite(value[0]) and value[0] >= 0):
            raise ProtocolError(
                f"invalid {self.name} payload: {what!r} must be a finite "
                "non-negative scalar"
            )
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class IdentityCodec(Codec):
    """No compression: float32 transport, exact float64 reconstruction.

    Packed as float64 — twice the nominal float32 cost — because the
    reconstruction has to be exact.
    """

    name = "identity"

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        values = np.asarray(vector, dtype=np.float64)
        return self._encoded(values.size, values=values.copy())

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        return np.asarray(encoded.data["values"], dtype=np.float64).copy()

    def wire_bytes(self, dim: int) -> int:
        return dim * BYTES_PER_FLOAT

    def pack(self, encoded: EncodedVector) -> bytes:
        return _le_bytes(encoded.data["values"], "<f8")

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        self._check_packed(dim, data)
        return self._encoded(
            dim, values=np.frombuffer(data, dtype="<f8").astype(np.float64)
        )

    def packed_bytes(self, dim: int) -> int:
        return dim * 8


class RawCodec(IdentityCodec):
    """No codec configured: the identity packing under the name ``"raw"``.

    Not a registry entry — it is the absence of a choice, what
    ``build_codec(None)`` returns — so the serve layer holds one codec
    object whether or not the run compresses its uploads.
    """

    name = "raw"


class Float16Codec(Codec):
    """Half-precision casting: 2 bytes per coordinate, small rounding error."""

    name = "float16"

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        values = np.asarray(vector, dtype=np.float64)
        return self._encoded(values.size, values=values.astype(np.float16))

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        return np.asarray(encoded.data["values"], dtype=np.float64)

    def wire_bytes(self, dim: int) -> int:
        return dim * 2

    def pack(self, encoded: EncodedVector) -> bytes:
        return _le_bytes(encoded.data["values"], "<f2")

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        self._check_packed(dim, data)
        return self._encoded(
            dim, values=np.frombuffer(data, dtype="<f2").astype(np.float16)
        )


class TopKCodec(Codec):
    """Keep only the ``k`` largest-magnitude coordinates (value + index pairs).

    ``fraction`` selects ``k = max(1, round(fraction * d))``; alternatively a
    fixed ``k`` may be given.  The reconstruction is zero off-support, which
    is why delta-style uploads (FedADMM's Δ_i) tolerate it far better than
    raw-model uploads.  Packed as ``k`` uint32 indices then ``k`` float32
    values.
    """

    name = "topk"

    def __init__(self, fraction: float | None = 0.1, k: int | None = None):
        if k is not None:
            if k <= 0:
                raise ConfigurationError(f"k must be positive, got {k}")
            self.k = int(k)
            self.fraction = None
        else:
            if fraction is None or not 0 < fraction <= 1:
                raise ConfigurationError(
                    f"fraction must lie in (0, 1], got {fraction!r}"
                )
            self.fraction = float(fraction)
            self.k = None

    def num_kept(self, dim: int) -> int:
        """Number of coordinates kept for a d-dimensional vector."""
        kept = self.k if self.k is not None else max(1, int(round(self.fraction * dim)))
        return min(kept, dim)

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        values = np.asarray(vector, dtype=np.float64)
        kept = self.num_kept(values.size)
        if kept >= values.size:
            indices = np.arange(values.size, dtype=np.uint32)
        else:
            indices = np.argpartition(np.abs(values), -kept)[-kept:].astype(np.uint32)
        indices = np.sort(indices)
        return self._encoded(
            values.size, indices=indices, values=values[indices].astype(np.float32)
        )

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        out = np.zeros(encoded.dim, dtype=np.float64)
        out[encoded.data["indices"].astype(np.int64)] = encoded.data["values"]
        return out

    def wire_bytes(self, dim: int) -> int:
        kept = self.num_kept(dim)
        return kept * (BYTES_PER_FLOAT + _INDEX_BYTES)

    def pack(self, encoded: EncodedVector) -> bytes:
        data = encoded.data
        return _le_bytes(data["indices"], "<u4") + _le_bytes(data["values"], "<f4")

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        self._check_packed(dim, data)
        split = self.num_kept(dim) * _INDEX_BYTES
        indices = np.frombuffer(data[:split], dtype="<u4").astype(np.uint32)
        if indices.size and not (
            indices[-1] < dim and np.all(np.diff(indices.astype(np.int64)) > 0)
        ):
            raise ProtocolError(
                f"invalid topk payload: 'indices' must be strictly increasing "
                f"and below {dim}"
            )
        values = np.frombuffer(data[split:], dtype="<f4").astype(np.float32)
        return self._encoded(dim, indices=indices, values=values)


class QSGDCodec(Codec):
    """QSGD stochastic quantisation to ``levels`` uniform levels per sign.

    Each coordinate is mapped to ``sign(v_i) * l_i / levels * ||v||_2`` where
    ``l_i`` is an integer level chosen by unbiased stochastic rounding and
    the sign is -1 exactly where ``v_i < 0`` (so -0.0 and NaN encode as +1).
    ``levels`` lies in ``[1, 2**31 - 1]``: every level fits an int32 and a
    packed coordinate fits 32 bits.  The wire cost is
    ``ceil(log2(levels + 1)) + 1`` bits per coordinate (level + sign) plus
    one float for the norm — costed at 4 bytes, packed as a float64, so
    ``packed_bytes`` is ``wire_bytes + 4``.
    """

    name = "qsgd"

    def __init__(self, levels: int = 16):
        if not 1 <= levels <= _MAX_QSGD_LEVELS:
            raise ConfigurationError(
                f"levels must lie in [1, {_MAX_QSGD_LEVELS}], got {levels}"
            )
        self.levels = int(levels)

    @property
    def bits_per_coordinate(self) -> int:
        """Bits per coordinate: the level index plus the sign bit."""
        return int(math.ceil(math.log2(self.levels + 1))) + 1

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        rng = as_rng(rng)
        values = np.asarray(vector, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow takes the branch below
            norm = float(np.linalg.norm(values))
        if not math.isfinite(norm):
            norm = _rescaled(self.name, values, np.linalg.norm, "L2 norm")
        if norm == 0.0:
            levels = np.zeros(values.size, dtype=np.int32)
            signs = np.ones(values.size, dtype=np.int8)
        else:
            # |v| / norm * levels lies in [0, levels], so the int32 cast is
            # the floor; then + Bernoulli(fraction), in the float buffer.
            scaled = np.abs(values)
            scaled /= norm
            scaled *= self.levels
            levels = scaled.astype(np.int32)
            scaled -= levels
            levels += rng.random(values.size) < scaled
            signs = _signs(values)
        return self._encoded(
            values.size,
            levels=levels,
            signs=signs,
            norm=np.array([norm], dtype=np.float64),
        )

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        norm = float(encoded.data["norm"][0])
        decoded = encoded.data["signs"].astype(np.float64)
        decoded *= encoded.data["levels"]
        decoded /= self.levels
        decoded *= norm
        return decoded

    def wire_bytes(self, dim: int) -> int:
        return (dim * self.bits_per_coordinate + 7) // 8 + _SCALAR_BYTES

    def pack(self, encoded: EncodedVector) -> bytes:
        data, bits = encoded.data, self.bits_per_coordinate
        negatives = (np.asarray(data["signs"]) < 0).astype(np.uint32)
        levels = np.asarray(data["levels"], dtype=np.uint32)
        packed = _pack_bits((negatives << (bits - 1)) | levels, bits)
        return packed + _le_bytes(data["norm"], "<f8")

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        self._check_packed(dim, data)
        bits = self.bits_per_coordinate
        ints = _unpack_bits(data[:-_PACKED_SCALAR_BYTES], bits, dim)
        levels = (ints & ((1 << (bits - 1)) - 1)).astype(np.int32)
        if np.any(levels > self.levels):
            raise ProtocolError(
                f"invalid qsgd payload: 'levels' must lie in [0, {self.levels}]"
            )
        return self._encoded(
            dim,
            levels=levels,
            signs=np.where(ints >> (bits - 1), -1, 1).astype(np.int8),
            norm=self._unpack_scalar(data[-_PACKED_SCALAR_BYTES:], "norm"),
        )

    def packed_bytes(self, dim: int) -> int:
        return self.wire_bytes(dim) - _SCALAR_BYTES + _PACKED_SCALAR_BYTES


class SignSGDCodec(Codec):
    """One bit per coordinate plus a mean-magnitude scale (scaled signSGD).

    The scale is costed at 4 bytes and packed as a float64, so
    ``packed_bytes`` is ``wire_bytes + 4``.
    """

    name = "signsgd"

    def encode(self, vector: np.ndarray, rng: SeedLike = None) -> EncodedVector:
        values = np.asarray(vector, dtype=np.float64)
        with np.errstate(over="ignore"):  # an overflow takes the branch below
            scale = float(np.mean(np.abs(values))) if values.size else 0.0
        if not math.isfinite(scale):
            scale = _rescaled(
                self.name, values, lambda v: np.mean(np.abs(v)), "mean magnitude"
            )
        return self._encoded(
            values.size,
            signs=_signs(values),
            scale=np.array([scale], dtype=np.float64),
        )

    def decode(self, encoded: EncodedVector) -> np.ndarray:
        scale = float(encoded.data["scale"][0])
        return encoded.data["signs"].astype(np.float64) * scale

    def wire_bytes(self, dim: int) -> int:
        return (dim + 7) // 8 + _SCALAR_BYTES

    def pack(self, encoded: EncodedVector) -> bytes:
        negatives = (np.asarray(encoded.data["signs"]) < 0).astype(np.uint8)
        return np.packbits(negatives).tobytes() + _le_bytes(encoded.data["scale"], "<f8")

    def unpack(self, dim: int, data: bytes) -> EncodedVector:
        self._check_packed(dim, data)
        negatives = np.unpackbits(
            np.frombuffer(data[:-_PACKED_SCALAR_BYTES], dtype=np.uint8), count=dim
        )
        return self._encoded(
            dim,
            signs=np.where(negatives, -1, 1).astype(np.int8),
            scale=self._unpack_scalar(data[-_PACKED_SCALAR_BYTES:], "scale"),
        )

    def packed_bytes(self, dim: int) -> int:
        return self.wire_bytes(dim) - _SCALAR_BYTES + _PACKED_SCALAR_BYTES


CODEC_REGISTRY: dict[str, type[Codec]] = {
    IdentityCodec.name: IdentityCodec,
    Float16Codec.name: Float16Codec,
    TopKCodec.name: TopKCodec,
    QSGDCodec.name: QSGDCodec,
    SignSGDCodec.name: SignSGDCodec,
}


def build_codec(name: str | None, **kwargs) -> Codec:
    """Instantiate a codec by registry name; ``None`` is the raw packing."""
    if name is None:
        return RawCodec()
    try:
        codec_cls = CODEC_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown codec {name!r}; available: {sorted(CODEC_REGISTRY)}"
        ) from None
    return codec_cls(**kwargs)
