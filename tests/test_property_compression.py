"""Property-based tests for the transport-compression codecs.

Hypothesis drives each codec over arbitrary finite float vectors and checks
the contracts the engine relies on:

* every codec round-trips to the original shape and float64 dtype, with the
  advertised wire size,
* top-k keeps exactly ``k`` coordinates (exactly ``k`` nonzeros when the
  input has no zeros) and reconstructs zero off-support,
* QSGD's stochastic rounding is unbiased: averaging decodes over many seeds
  converges to the original vector,
* signSGD reconstructions all share one magnitude — the mean absolute
  value — which never exceeds the largest input magnitude,
* QSGD and signSGD encode exactly as the reference encoders below (the
  code they replaced): same arrays, same packed bytes, same decodes,
  wherever the reference's norm / mean magnitude fits float64; where it
  overflows on a finite vector the rescaled value keeps the round trip
  finite, and a NaN or infinite coordinate is refused.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.systems.compression import (
    CODEC_REGISTRY,
    Float16Codec,
    IdentityCodec,
    QSGDCodec,
    SignSGDCodec,
    TopKCodec,
    build_codec,
)
from repro.utils.rng import as_rng

#: Bounded, finite, non-degenerate coordinate values.  float16 overflows at
#: |x| > 65504, so the shared strategy stays well inside every codec's range.
finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False, width=64
)

vectors = st.lists(finite_floats, min_size=1, max_size=64).map(
    lambda values: np.array(values, dtype=np.float64)
)

nonzero_vectors = st.lists(
    finite_floats.filter(lambda x: abs(x) > 1e-6), min_size=1, max_size=64
).map(lambda values: np.array(values, dtype=np.float64))


def all_codecs():
    return [
        IdentityCodec(),
        Float16Codec(),
        TopKCodec(fraction=0.25),
        TopKCodec(k=3),
        QSGDCodec(levels=16),
        SignSGDCodec(),
    ]


class TestRoundTripContracts:
    @settings(max_examples=60, deadline=None)
    @given(vector=vectors, seed=st.integers(0, 2**31 - 1))
    def test_shape_dtype_and_wire_bytes(self, vector, seed):
        for codec in all_codecs():
            decoded, wire = codec.roundtrip(vector, rng=seed)
            assert decoded.shape == vector.shape
            assert decoded.dtype == np.float64
            assert wire == codec.wire_bytes(vector.size)
            assert np.isfinite(decoded).all()

    @settings(max_examples=60, deadline=None)
    @given(vector=vectors)
    def test_identity_is_lossless(self, vector):
        decoded, _ = IdentityCodec().roundtrip(vector)
        np.testing.assert_array_equal(decoded, vector)

    @settings(max_examples=60, deadline=None)
    @given(vector=vectors)
    def test_float16_error_bounded_by_half_precision(self, vector):
        decoded, _ = Float16Codec().roundtrip(vector)
        # Relative error of round-to-nearest float16 is 2^-11 per coordinate.
        tolerance = np.maximum(np.abs(vector) * 2**-10, 1e-4)
        assert (np.abs(decoded - vector) <= tolerance).all()


class TestTopK:
    @settings(max_examples=80, deadline=None)
    @given(vector=nonzero_vectors, k=st.integers(1, 8))
    def test_exactly_k_nonzeros(self, vector, k):
        codec = TopKCodec(k=k)
        decoded, _ = codec.roundtrip(vector)
        assert np.count_nonzero(decoded) == min(k, vector.size)

    @settings(max_examples=80, deadline=None)
    @given(vector=vectors, k=st.integers(1, 8))
    def test_keeps_largest_magnitudes_and_zeroes_rest(self, vector, k):
        codec = TopKCodec(k=k)
        encoded = codec.encode(vector)
        kept = encoded.data["indices"].astype(np.int64)
        assert kept.size == codec.num_kept(vector.size)
        decoded = codec.decode(encoded)
        off_support = np.setdiff1d(np.arange(vector.size), kept)
        assert (decoded[off_support] == 0.0).all()
        if off_support.size:
            # No discarded coordinate strictly dominates a kept one.
            assert np.abs(vector[off_support]).max() <= (
                np.abs(vector[kept]).min() + 1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(vector=vectors, fraction=st.floats(0.01, 1.0))
    def test_fraction_matches_num_kept(self, vector, fraction):
        codec = TopKCodec(fraction=fraction)
        encoded = codec.encode(vector)
        assert encoded.data["indices"].size == codec.num_kept(vector.size)


class TestQSGD:
    @settings(max_examples=15, deadline=None)
    @given(vector=st.lists(finite_floats, min_size=2, max_size=8).map(
        lambda values: np.array(values, dtype=np.float64)
    ))
    def test_unbiased_in_expectation_over_seeds(self, vector):
        codec = QSGDCodec(levels=4)
        norm = float(np.linalg.norm(vector))
        if norm == 0.0:
            return
        decodes = np.stack(
            [codec.roundtrip(vector, rng=seed)[0] for seed in range(400)]
        )
        mean = decodes.mean(axis=0)
        # Monte-Carlo tolerance: each coordinate's rounding noise is bounded
        # by one quantisation step, norm / levels.
        step = norm / codec.levels
        assert (np.abs(mean - vector) <= 0.15 * step + 1e-9).all()

    @settings(max_examples=60, deadline=None)
    @given(vector=vectors, seed=st.integers(0, 2**31 - 1))
    def test_decode_magnitude_bounded_by_norm(self, vector, seed):
        codec = QSGDCodec(levels=8)
        decoded, _ = codec.roundtrip(vector, rng=seed)
        norm = np.linalg.norm(vector)
        # Each coordinate's level is at most levels + 1 (stochastic rounding
        # can round |v_i|/norm * levels up once).
        bound = norm * (codec.levels + 1) / codec.levels
        assert (np.abs(decoded) <= bound + 1e-9).all()

    def test_zero_vector_stays_zero(self):
        decoded, _ = QSGDCodec().roundtrip(np.zeros(5), rng=0)
        np.testing.assert_array_equal(decoded, np.zeros(5))

    @pytest.mark.parametrize("bad", [0, -1, 2**31])
    def test_levels_outside_int32_are_refused(self, bad):
        # 2**31 used to be accepted and overflowed the int32 level of a
        # coordinate at full scale, flipping its sign.
        with pytest.raises(ConfigurationError, match="levels"):
            QSGDCodec(levels=bad)

    def test_largest_levels_round_trip(self):
        # A coordinate at full scale gets the top level, 2**31 - 1.
        codec = QSGDCodec(levels=2**31 - 1)
        for vector in (np.array([0.0, 5.0]), np.array([-5.0, 0.0])):
            decoded, _ = codec.roundtrip(vector, rng=0)
            np.testing.assert_array_equal(decoded, vector)
            packed = codec.pack(codec.encode(vector, rng=0))
            served = codec.decode(codec.unpack(vector.size, packed))
            np.testing.assert_array_equal(served, vector)


# --------------------------------------------------------------------------- #
# Reference encoders: QSGD and signSGD as written before the sign helper and
# the integer floor.  Every array, packed byte and decoded byte must match.
# --------------------------------------------------------------------------- #


def reference_qsgd_encode(codec, vector, rng=None):
    rng = as_rng(rng)
    values = np.asarray(vector, dtype=np.float64)
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        levels = np.zeros(values.size, dtype=np.int32)
        signs = np.ones(values.size, dtype=np.int8)
    else:
        scaled = np.abs(values)
        scaled /= norm
        scaled *= codec.levels
        floor = np.floor(scaled)
        scaled -= floor
        floor += rng.random(values.size) < scaled
        levels = floor.astype(np.int32)
        signs = np.ones(values.size, dtype=np.int8)
        signs[values < 0] = -1
    return codec._encoded(
        values.size,
        levels=levels,
        signs=signs,
        norm=np.array([norm], dtype=np.float64),
    )


def reference_signsgd_encode(codec, vector, rng=None):
    values = np.asarray(vector, dtype=np.float64)
    scale = float(np.mean(np.abs(values))) if values.size else 0.0
    return codec._encoded(
        values.size,
        signs=np.where(values < 0, -1, 1).astype(np.int8),
        scale=np.array([scale], dtype=np.float64),
    )


#: Coordinates that stress the sign and level arithmetic: signed zeros,
#: subnormals and the smallest/largest normal magnitudes.
edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -1e300, 1e300]
)

edge_vectors = st.lists(
    st.one_of(finite_floats, edge_floats), min_size=0, max_size=64
).map(lambda values: np.array(values, dtype=np.float64))


@st.composite
def one_hot_vectors(draw):
    """One non-zero coordinate among signed zeros: |v_i| == norm, so that
    coordinate scales to exactly ``levels`` (its square must not underflow)."""
    size = draw(st.integers(1, 16))
    zeros = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=size, max_size=size))
    vector = np.array(zeros, dtype=np.float64)
    vector[draw(st.integers(0, size - 1))] = draw(
        finite_floats.filter(lambda x: abs(x) > 1e-150)
    )
    return vector


def assert_same_encoding(codec, reference, vector, seed=None):
    """Arrays, packed bytes and decoded bytes equal the reference's."""
    expected = reference(codec, vector, rng=seed)
    actual = codec.encode(vector, rng=seed)
    assert actual.codec == expected.codec and actual.dim == expected.dim
    assert actual.wire_bytes == expected.wire_bytes
    assert list(actual.data) == list(expected.data)
    for key, array in expected.data.items():
        assert actual.data[key].dtype == array.dtype, key
        assert actual.data[key].tobytes() == array.tobytes(), key
    assert codec.pack(actual) == codec.pack(expected)
    assert codec.decode(actual).tobytes() == codec.decode(expected).tobytes()


class TestEncodeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(
        vector=st.one_of(edge_vectors, one_hot_vectors()),
        levels=st.sampled_from([1, 5, 16, 256, 2**31 - 1]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_qsgd(self, vector, levels, seed):
        codec = QSGDCodec(levels=levels)
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(np.linalg.norm(vector))
        if not overflows:
            assert_same_encoding(codec, reference_qsgd_encode, vector, seed)
            return
        # Squares of +-1e300 overflow: the reference made every coordinate
        # NaN here; the norm rescaled by max|v| keeps the round trip finite.
        encoded = codec.encode(vector, rng=seed)
        decoded = codec.decode(encoded)
        assert np.isfinite(decoded).all()
        assert np.abs(decoded).max() <= float(encoded.data["norm"][0])
        served = codec.decode(codec.unpack(vector.size, codec.pack(encoded)))
        assert served.tobytes() == decoded.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(vector=st.one_of(edge_vectors, one_hot_vectors()))
    def test_signsgd(self, vector):
        assert_same_encoding(SignSGDCodec(), reference_signsgd_encode, vector)

    @pytest.mark.parametrize("levels", [1, 16, 2**31 - 1])
    def test_non_finite_inputs(self, levels):
        # NaN and inf are refused by name; the finite slice still agrees.
        vector = np.array([np.nan, 1.0, -0.0, -2.0, np.inf, -np.inf])
        for codec in (QSGDCodec(levels=levels), SignSGDCodec()):
            for case in (vector, vector[3:]):
                with pytest.raises(SimulationError, match=codec.name):
                    codec.encode(case, rng=3)
        assert_same_encoding(QSGDCodec(levels=levels), reference_qsgd_encode, vector[1:4], 3)
        assert_same_encoding(SignSGDCodec(), reference_signsgd_encode, vector[1:4])


class TestSignSGD:
    @settings(max_examples=80, deadline=None)
    @given(vector=vectors)
    def test_magnitude_is_mean_abs_and_bounded(self, vector):
        decoded, _ = SignSGDCodec().roundtrip(vector)
        scale = float(np.mean(np.abs(vector)))
        np.testing.assert_allclose(np.abs(decoded), scale)
        # The shared magnitude never exceeds the largest input coordinate.
        assert scale <= np.abs(vector).max() + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(vector=nonzero_vectors)
    def test_signs_preserved(self, vector):
        decoded, _ = SignSGDCodec().roundtrip(vector)
        if np.abs(vector).sum() > 0:
            assert (np.sign(decoded) == np.where(vector < 0, -1.0, 1.0)).all()


def test_registry_round_trip_consistency():
    """Every registered codec honours the shared encode/decode contract."""
    vector = np.linspace(-2.0, 2.0, 17)
    for name in CODEC_REGISTRY:
        codec = build_codec(name)
        decoded, wire = codec.roundtrip(vector, rng=0)
        assert decoded.shape == vector.shape
        assert wire > 0
        encoded = codec.encode(vector, rng=0)
        assert encoded.codec == name
        assert encoded.dim == vector.size


if __name__ == "__main__":  # pragma: no cover
    pytest.main([__file__, "-q"])
