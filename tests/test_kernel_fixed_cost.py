"""The training step's kernels against the bodies they replaced, bit for bit.

The oracles below are the kernels as they stood at commit ``f848122`` —
both cross-entropies, both ReLUs, and the forward / backward passes of
``Linear``, ``BatchedLinear``, ``Conv2D`` and ``BatchedConv2D``, bodies
copied verbatim (``self`` spelled ``layer`` / ``op``) — so this file is the
one place that says what "the same kernel" means: the same **bytes**
(``tobytes()``, not ``array_equal``: the sign of a zero is part of the
contract), for every shape, cohort size and memory layout the step can be
handed.  The other sections pin what the shortened backward chain leans on
(``backward_params`` writes what ``backward`` writes; the model never asks
the first parametric op for an input gradient, profiled or not) and
ROADMAP item 7's probe for the ops touched here: a stacked step at C = 1
is the per-client step, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.base import Dataset
from repro.federated.local_problem import LocalProblem
from repro.nn.batched import (
    BatchedConv2D,
    BatchedCrossEntropy,
    BatchedLinear,
    BatchedReLU,
    _Workspace,
    build_batched_model,
)
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, softmax
from repro.nn.layers import Conv2D, Linear, ReLU
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP, SmallCNN
from repro.obs import Profiler


# --------------------------------------------------------------------------- #
# The oracles: parent bodies, verbatim
# --------------------------------------------------------------------------- #
def oracle_cross_entropy(predictions, targets):
    targets = np.asarray(targets, dtype=np.int64)
    n = targets.size
    rows = np.arange(n)
    shifted = predictions - predictions.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    total = probs.sum(axis=-1, keepdims=True)
    loss = -float((shifted[rows, targets] - np.log(total)[:, 0]).mean())
    probs /= total
    probs[rows, targets] -= 1.0
    probs /= n
    return loss, probs


def oracle_batched_cross_entropy(logits, targets):
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[1]
    log_probs = log_softmax(logits)
    picked = np.take_along_axis(log_probs, targets[:, :, None], axis=2)
    losses = -picked[:, :, 0].mean(axis=1)
    one_hot = _Workspace().view(logits.shape)
    one_hot.fill(0.0)
    np.put_along_axis(one_hot, targets[:, :, None], 1.0, axis=2)
    grad = (softmax(logits) - one_hot) / n
    return losses, grad


def oracle_relu_forward(x):
    return np.where(x > 0, x, 0.0)


def oracle_linear_forward(layer, x):
    layer._input = x
    return x @ layer.weight.value + layer.bias.value


def oracle_linear_backward(layer, grad_output):
    np.matmul(layer._input.T, grad_output, out=layer.weight.grad)
    np.sum(grad_output, axis=0, out=layer.bias.grad)
    return grad_output @ layer.weight.value.T


def oracle_batched_linear_forward(op, params, x):
    cohort = params.shape[0]
    weight = params[:, op.weight_slice].reshape(
        cohort, op.in_features, op.out_features
    )
    bias = params[:, op.bias_slice]
    op._input = x
    op._weight = weight
    return x @ weight + bias[:, None, :]


def oracle_batched_linear_backward(op, grads, grad_output):
    cohort = grads.shape[0]
    grads[:, op.weight_slice] = (
        op._input.transpose(0, 2, 1) @ grad_output
    ).reshape(cohort, -1)
    grads[:, op.bias_slice] = grad_output.sum(axis=1)
    return grad_output @ op._weight.transpose(0, 2, 1)


def oracle_conv_forward(layer, x):
    n, _, height, width = x.shape
    out_h = conv_output_size(height, layer.kernel_size, layer.stride, layer.padding)
    out_w = conv_output_size(width, layer.kernel_size, layer.stride, layer.padding)

    cols = im2col(x, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding)
    weight_mat = layer.weight.value.reshape(layer.out_channels, -1)
    out = cols @ weight_mat.T + layer.bias.value
    out = out.reshape(n, out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)

    layer._cols = cols
    layer._input_shape = x.shape
    return out


def oracle_conv_backward(layer, grad_output):
    grad_mat = grad_output.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
    np.matmul(
        grad_mat.T, layer._cols, out=layer.weight.grad.reshape(layer.out_channels, -1)
    )
    np.sum(grad_mat, axis=0, out=layer.bias.grad)
    weight_mat = layer.weight.value.reshape(layer.out_channels, -1)
    grad_cols = grad_mat @ weight_mat
    return col2im(
        grad_cols,
        layer._input_shape,
        layer.kernel_size,
        layer.kernel_size,
        layer.stride,
        layer.padding,
    )


def oracle_batched_conv_forward(op, params, x):
    cohort, n, _, height, width = x.shape
    out_h = conv_output_size(height, op.kernel_size, op.stride, op.padding)
    out_w = conv_output_size(width, op.kernel_size, op.stride, op.padding)

    folded = x.reshape(cohort * n, op.in_channels, height, width)
    cols = im2col(
        folded, op.kernel_size, op.kernel_size, op.stride, op.padding
    ).reshape(cohort, n * out_h * out_w, -1)
    weight = params[:, op.weight_slice].reshape(cohort, op.out_channels, -1)
    bias = params[:, op.bias_slice]
    out = cols @ weight.transpose(0, 2, 1) + bias[:, None, :]
    out = out.reshape(cohort, n, out_h, out_w, op.out_channels)

    op._cols = cols
    op._weight = weight
    op._input_shape = x.shape
    return out.transpose(0, 1, 4, 2, 3)


def oracle_batched_conv_backward(op, grads, grad_output):
    cohort, n = op._input_shape[0], op._input_shape[1]
    grad_mat = grad_output.transpose(0, 1, 3, 4, 2).reshape(
        cohort, -1, op.out_channels
    )
    grads[:, op.weight_slice] = (
        grad_mat.transpose(0, 2, 1) @ op._cols
    ).reshape(cohort, -1)
    grads[:, op.bias_slice] = grad_mat.sum(axis=1)

    grad_cols = grad_mat @ op._weight
    folded_shape = (cohort * n,) + op._input_shape[2:]
    grad_input = col2im(
        grad_cols.reshape(-1, grad_cols.shape[2]),
        folded_shape,
        op.kernel_size,
        op.kernel_size,
        op.stride,
        op.padding,
    )
    return grad_input.reshape(op._input_shape)


def oracle_batched_loss_and_grad(batched, params, features, labels):
    x = features
    for op in batched.ops:
        x = op.forward(params, x)
    losses, grad_output = batched.loss.value_and_grad(x, labels)
    grads = batched._grads_for(params.shape[0])
    for op in reversed(batched.ops):
        grad_output = op.backward(grads, grad_output)
    return losses, grads


# --------------------------------------------------------------------------- #
# Inputs: signed zeros in the values, every layout the step can be handed
# --------------------------------------------------------------------------- #
COHORTS = st.sampled_from([1, 2, 7])
SAMPLES = st.integers(min_value=1, max_value=70)
SEEDS = st.integers(min_value=0, max_value=10_000)
#: ``batch`` is what the step really sees (a slice of the epoch's gather
#: along the sample axis); the other two are there because a kernel must
#: not care.
LAYOUTS = st.sampled_from(["contiguous", "batch", "strided", "fortran"])
#: The gradient a stacked ``Linear`` is handed keeps its axes in C order (every
#: op and loss returns a fresh C-ordered array or a reshape of one).  With
#: ``out=`` a reduction walks its operands in the output's axis order, so a
#: Fortran-ordered stack — which nothing produces — would add up its bias
#: gradient in another order than the parent's temporary did.
GRAD_LAYOUTS = st.sampled_from(["contiguous", "batch", "strided"])
#: Parameter and gradient stacks are whole buffers or prefixes of larger ones.
STACKS = st.sampled_from(["whole", "prefix"])


def values(rng, shape):
    """Normal draws with exact ``0.0`` and ``-0.0`` entries mixed in."""
    array = rng.normal(size=shape)
    array[rng.random(shape) < 0.15] = 0.0
    array[rng.random(shape) < 0.1] = -0.0
    return array


def laid_out(array, layout):
    """The same values under another memory layout."""
    if layout == "batch":
        shape = list(array.shape)
        shape[-2] += 5
        big = np.full(shape, np.nan)
        view = big[..., 2 : 2 + array.shape[-2], :]
    elif layout == "strided":
        big = np.full(array.shape[:-1] + (2 * array.shape[-1],), np.nan)
        view = big[..., ::2]
    elif layout == "fortran":
        return np.asfortranarray(array)
    else:
        return np.ascontiguousarray(array)
    view[...] = array
    return view


def stacked(array, stack):
    """``array`` as itself or as the leading rows of a longer buffer."""
    if stack == "whole":
        return array
    big = np.full((array.shape[0] + 3,) + array.shape[1:], np.nan)
    big[: array.shape[0]] = array
    return big[: array.shape[0]]


def same_bytes(new, old):
    """Shape, dtype and every bit of each result equal."""
    assert len(new) == len(old)
    for got, expected in zip(new, old):
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# (a) New kernel == parent kernel, byte for byte
# --------------------------------------------------------------------------- #
class TestKernelsEqualParentBodies:
    @given(
        n=SAMPLES, classes=st.integers(1, 12), scale=st.sampled_from([1.0, 30.0, 800.0]),
        layout=LAYOUTS, seed=SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_cross_entropy(self, n, classes, scale, layout, seed):
        rng = np.random.default_rng(seed)
        logits = laid_out(scale * values(rng, (n, classes)), layout)
        labels = rng.integers(0, classes, size=n)
        same_bytes(
            CrossEntropyLoss().value_and_grad(logits, labels),
            oracle_cross_entropy(logits, labels),
        )

    @given(
        cohort=COHORTS, n=SAMPLES, classes=st.integers(1, 12),
        scale=st.sampled_from([1.0, 30.0, 800.0]), layout=LAYOUTS, seed=SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_cross_entropy(self, cohort, n, classes, scale, layout, seed):
        rng = np.random.default_rng(seed)
        logits = laid_out(scale * values(rng, (cohort, n, classes)), layout)
        # Labels arrive as a batch slice of the epoch's gathered labels.
        labels = rng.integers(0, classes, size=(cohort, n + 4))[:, 3 : 3 + n]
        same_bytes(
            BatchedCrossEntropy().value_and_grad(logits, labels),
            oracle_batched_cross_entropy(logits, labels),
        )

    @given(
        flat=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            min_size=1, max_size=48,
        ),
        cohort=COHORTS, layout=LAYOUTS,
    )
    @settings(max_examples=200, deadline=None)
    def test_relu_on_every_float(self, flat, cohort, layout):
        # NaN, +-inf, +-0.0 and subnormals: ``fmax`` then ``+ 0.0`` is
        # ``where(x > 0, x, 0.0)`` on all of them, sign of zero included.
        row = np.array(flat + [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324])
        x = laid_out(np.tile(row, (3, 1)), layout)
        same_bytes([ReLU().forward(x)], [oracle_relu_forward(x)])
        stack = laid_out(np.tile(row, (cohort, 2, 1)), layout)
        same_bytes([BatchedReLU().forward(None, stack)], [oracle_relu_forward(stack)])

    def test_relu_backward_still_masks_with_x_positive(self):
        x = np.array([[-1.0, 0.0, -0.0, 2.0, np.nan, np.inf]])
        grad = np.full_like(x, 3.0)
        expected = grad * (x > 0)
        relu, batched = ReLU(), BatchedReLU()
        relu.forward(x)
        batched.forward(None, x[None])
        same_bytes([relu.backward(grad)], [expected])
        same_bytes([batched.backward(None, grad[None])], [expected[None]])

    @given(
        n=SAMPLES, fan_in=st.integers(1, 9), fan_out=st.integers(1, 9),
        x_layout=LAYOUTS, g_layout=LAYOUTS, seed=SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_linear(self, n, fan_in, fan_out, x_layout, g_layout, seed):
        rng = np.random.default_rng(seed)
        layer = Linear(fan_in, fan_out, rng=seed)
        layer.bias.value[...] = values(rng, fan_out)
        x = laid_out(values(rng, (n, fan_in)), x_layout)
        grad_output = laid_out(values(rng, (n, fan_out)), g_layout)

        def run(forward, backward):
            layer.weight.grad.fill(np.nan)
            layer.bias.grad.fill(np.nan)
            out, grad_input = forward(x), backward(grad_output)
            return out, grad_input, layer.weight.grad.copy(), layer.bias.grad.copy()

        same_bytes(
            run(layer.forward, layer.backward),
            run(
                lambda x: oracle_linear_forward(layer, x),
                lambda g: oracle_linear_backward(layer, g),
            ),
        )

    @given(
        cohort=COHORTS, n=SAMPLES, fan_in=st.integers(1, 9), fan_out=st.integers(1, 9),
        x_layout=LAYOUTS, g_layout=GRAD_LAYOUTS, stack=STACKS, seed=SEEDS,
    )
    @settings(max_examples=80, deadline=None)
    def test_batched_linear(
        self, cohort, n, fan_in, fan_out, x_layout, g_layout, stack, seed
    ):
        rng = np.random.default_rng(seed)
        offset = 3  # the op's slices sit inside a longer flat layout
        op = BatchedLinear(fan_in, fan_out, offset)
        dim = op.bias_slice.stop + 2
        params = stacked(values(rng, (cohort, dim)), stack)
        x = laid_out(values(rng, (cohort, n, fan_in)), x_layout)
        grad_output = laid_out(values(rng, (cohort, n, fan_out)), g_layout)

        def run(forward, backward):
            grads = stacked(np.full((cohort, dim), np.nan), stack)
            return forward(params, x), backward(grads, grad_output), grads

        same_bytes(
            run(op.forward, op.backward),
            run(
                lambda p, x: oracle_batched_linear_forward(op, p, x),
                lambda grads, g: oracle_batched_linear_backward(op, grads, g),
            ),
        )

    @given(
        n=st.integers(1, 6), channels=st.integers(1, 3), out_channels=st.integers(1, 4),
        size=st.integers(3, 6), kernel=st.integers(1, 3), stride=st.integers(1, 2),
        padding=st.integers(0, 1), g_layout=LAYOUTS, seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_conv(
        self, n, channels, out_channels, size, kernel, stride, padding, g_layout, seed
    ):
        rng = np.random.default_rng(seed)
        layer = Conv2D(channels, out_channels, kernel, stride, padding, rng=seed)
        layer.bias.value[...] = values(rng, out_channels)
        x = values(rng, (n, channels, size, size))
        out_size = conv_output_size(size, kernel, stride, padding)
        grad_output = laid_out(
            values(rng, (n, out_channels, out_size, out_size)), g_layout
        )

        def run(forward, backward):
            layer.weight.grad.fill(np.nan)
            layer.bias.grad.fill(np.nan)
            out, grad_input = forward(x), backward(grad_output)
            return out, grad_input, layer.weight.grad.copy(), layer.bias.grad.copy()

        same_bytes(
            run(layer.forward, layer.backward),
            run(
                lambda x: oracle_conv_forward(layer, x),
                lambda g: oracle_conv_backward(layer, g),
            ),
        )

    @given(
        cohort=COHORTS, n=st.integers(1, 6), channels=st.integers(1, 3),
        out_channels=st.integers(1, 4), size=st.integers(3, 6),
        kernel=st.integers(1, 3), stride=st.integers(1, 2), padding=st.integers(0, 1),
        g_layout=LAYOUTS, stack=STACKS, seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_conv(
        self, cohort, n, channels, out_channels, size, kernel, stride, padding,
        g_layout, stack, seed,
    ):
        rng = np.random.default_rng(seed)
        op = BatchedConv2D(channels, out_channels, kernel, stride, padding, offset=3)
        dim = op.bias_slice.stop + 2
        params = stacked(values(rng, (cohort, dim)), stack)
        x = values(rng, (cohort, n, channels, size, size))
        out_size = conv_output_size(size, kernel, stride, padding)
        grad_output = laid_out(
            values(rng, (cohort, n, out_channels, out_size, out_size)), g_layout
        )

        def run(forward, backward):
            grads = stacked(np.full((cohort, dim), np.nan), stack)
            return forward(params, x), backward(grads, grad_output), grads

        same_bytes(
            run(op.forward, op.backward),
            run(
                lambda p, x: oracle_batched_conv_forward(op, p, x),
                lambda grads, g: oracle_batched_conv_backward(op, grads, g),
            ),
        )


# --------------------------------------------------------------------------- #
# (b) The backward chain stops at the first parametric op
# --------------------------------------------------------------------------- #
def _mlp():
    return MLP(6, (5, 4), num_classes=3, rng=0), (3, 9, 6)


def _small_cnn():
    model = SmallCNN(rng=0, image_size=4, num_classes=3, conv_channels=(2, 3), hidden=4)
    return model, (3, 5, 16)


def _batch(batched, feature_shape, seed=0):
    rng = np.random.default_rng(seed)
    cohort, n, _ = feature_shape
    return (
        rng.normal(scale=0.5, size=(cohort, batched.dim)),
        values(rng, feature_shape),
        rng.integers(0, 3, size=(cohort, n)),
    )


class TestBackwardStopsAtTheFirstParametricOp:
    @given(
        cohort=COHORTS, n=st.integers(1, 12), g_layout=LAYOUTS, stack=STACKS, seed=SEEDS
    )
    @settings(max_examples=40, deadline=None)
    def test_backward_params_writes_what_backward_writes(
        self, cohort, n, g_layout, stack, seed
    ):
        rng = np.random.default_rng(seed)
        cases = [
            (BatchedLinear(4, 3, 2), (cohort, n, 4), (cohort, n, 3)),
            (BatchedConv2D(2, 3, 2, 1, 1, 2), (cohort, n, 2, 4, 4), (cohort, n, 3, 5, 5)),
        ]
        for op, in_shape, out_shape in cases:
            dim = op.bias_slice.stop + 1
            params = values(rng, (cohort, dim))
            assert op.forward(params, values(rng, in_shape)).shape == out_shape
            grad_output = laid_out(values(rng, out_shape), g_layout)
            written = []
            for method in (op.backward, op.backward_params):
                grads = stacked(np.full((cohort, dim), np.nan), stack)
                method(grads, grad_output)
                written.append(grads)
            assert op.backward_params(written[1], grad_output) is None
            same_bytes(written[1:], written[:1])
            # Everything outside the op's own slices is left alone.
            untouched = np.ones(dim, dtype=bool)
            untouched[op.weight_slice.start : op.bias_slice.stop] = False
            assert np.isnan(written[1][:, untouched]).all()
            assert not np.isnan(written[1][:, ~untouched]).any()

    @pytest.mark.parametrize("build", [_mlp, _small_cnn])
    def test_profiled_and_plain_take_the_same_walk(self, build):
        model, feature_shape = build()
        batched = build_batched_model(model, CrossEntropyLoss())
        first = next(
            i for i, op in enumerate(batched.ops)
            if isinstance(op, (BatchedLinear, BatchedConv2D))
        )
        calls, depth = [], [0]

        def record(index, name):
            method = getattr(batched.ops[index], name)

            def recorded(*args):
                if not depth[0]:  # the model's calls, not ``backward``'s own
                    calls.append((index, name))
                depth[0] += 1
                try:
                    return method(*args)
                finally:
                    depth[0] -= 1

            setattr(batched.ops[index], name, recorded)

        for index in range(len(batched.ops)):
            record(index, "backward")
            record(index, "backward_params")
        # Later ops hand back input gradients, the first parametric op only
        # writes its slice, and nothing before it (the CNN's image reshape)
        # runs at all.
        expected_walk = [
            (index, "backward") for index in range(len(batched.ops) - 1, first, -1)
        ] + [(first, "backward_params")]
        params, features, labels = _batch(batched, feature_shape)

        expected = oracle_batched_loss_and_grad(
            build_batched_model(model, CrossEntropyLoss()), params, features, labels
        )

        plain = [a.copy() for a in batched.loss_and_grad(params, features, labels)]
        assert calls == expected_walk
        calls.clear()
        batched.profiler = Profiler()
        profiled = [a.copy() for a in batched.loss_and_grad(params, features, labels)]
        assert calls == expected_walk
        same_bytes(plain, expected)
        same_bytes(profiled, expected)
        timed = batched.profiler.snapshot()
        backward_keys = {key for key in timed if key.endswith(".backward")}
        assert backward_keys == {
            f"kernel.{type(op).__name__}.backward" for op in batched.ops[first:]
        }


# --------------------------------------------------------------------------- #
# (c) ROADMAP item 7, step 1, for Linear / ReLU / CrossEntropy
# --------------------------------------------------------------------------- #
class TestStackOfOneIsThePerClientStep:
    @given(
        n=SAMPLES, width=st.integers(1, 12), classes=st.integers(1, 8),
        hidden=st.lists(st.integers(1, 10), max_size=3), seed=SEEDS,
    )
    @settings(max_examples=100, deadline=None)
    def test_mlp_cross_entropy_loss_and_grad(self, n, width, classes, hidden, seed):
        rng = np.random.default_rng(seed)
        model = MLP(width, tuple(hidden), num_classes=classes, rng=seed)
        features, labels = values(rng, (n, width)), rng.integers(0, classes, size=n)
        problem = LocalProblem(
            model=model,
            loss=CrossEntropyLoss(),
            dataset=Dataset(features=features, labels=labels, name="t"),
        )
        batched = build_batched_model(model, CrossEntropyLoss())
        params = rng.normal(scale=0.5, size=problem.dim)

        value, grad = problem.loss_and_grad(params, features, labels)
        losses, grads = batched.loss_and_grad(
            params[None], features[None], labels[None]
        )
        same_bytes([losses[0], grads[0]], [np.float64(value), grad])
