"""The transport layer: compress client uploads and cost the wire.

``Transport`` wraps a :class:`~repro.systems.compression.Codec` and applies
it to every named vector in a :class:`~repro.federated.messages.ClientMessage`
payload.  The engine aggregates the *round-tripped* (encode → decode)
vectors, so lossy codecs perturb training exactly as they would in a real
deployment, while the returned wire-byte counts feed the
:class:`~repro.federated.messages.CommunicationLedger` and the network time
model.

Downlink (server → client) traffic is costed as uncompressed float32,
matching common practice where broadcast bandwidth is cheap and only the
many uplinks are compressed.  Payloads that arrive from another process
are parsed and validated by the codec itself
(:meth:`~repro.systems.compression.Codec.unpack`), not here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.federated.messages import ClientMessage
from repro.systems.compression import Codec, IdentityCodec
from repro.utils.rng import SeedLike


class Transport:
    """Applies one codec to every uplink payload vector."""

    def __init__(self, codec: Codec | None = None):
        self.codec = codec if codec is not None else IdentityCodec()

    def compress_message(
        self, message: ClientMessage, rng: SeedLike = None
    ) -> tuple[ClientMessage, int]:
        """Round-trip one upload through the codec.

        Returns a new message whose payload holds the decoded (lossy)
        vectors, plus the total bytes the encoded payload occupies on the
        wire.  The original message is left untouched.
        """
        wire_bytes = 0
        decoded_payload: dict[str, np.ndarray] = {}
        for key, vector in message.payload.items():
            # Codecs operate on flat vectors; ravel around them so payloads
            # of any shape survive the round trip with their shape intact.
            array = np.asarray(vector)
            decoded, vec_bytes = self.codec.roundtrip(array.ravel(), rng=rng)
            decoded_payload[key] = decoded.reshape(array.shape)
            wire_bytes += vec_bytes
        compressed = replace(
            message,
            payload=decoded_payload,
            metadata={**message.metadata, "codec": self.codec.name,
                      "wire_bytes": wire_bytes},
        )
        return compressed, wire_bytes

    def upload_wire_bytes(self, num_floats: int) -> int:
        """Nominal post-compression bytes for an upload of ``num_floats`` scalars."""
        return self.codec.wire_bytes(num_floats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Transport(codec={self.codec.name!r})"
