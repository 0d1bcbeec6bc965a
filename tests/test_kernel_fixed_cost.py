"""The training step's kernels against the bodies they replaced, bit for bit.

The oracles below are the kernels as they stood at commit ``f848122``, when
there were two sets of them — the cross-entropy, the ReLU, and the forward /
backward passes of ``Linear`` and ``Conv2D``, each once per client and once
with a client axis (``Batched*``), bodies copied verbatim (``self`` spelled
``layer`` / ``op``) — so this file is the one place that says what "the
same kernel" means: the same **bytes** (``tobytes()``, not ``array_equal``:
the sign of a zero is part of the contract), for every shape, cohort size
and memory layout the step can be handed.  Today's one layer set is held to
both: to the per-client bodies on one client's batch, to the stacked bodies
when bound to a stack.  The other sections pin what the shortened backward
chain leans on (``backward_params`` writes what ``backward`` writes; the
model never asks the first parametric layer for an input gradient, traced
or not) and close ROADMAP item 7: for every layer and loss, a stack of one
is the per-client call and row *i* of a stack is that client in a stack of
one — and why the two SGD loops nevertheless stay two.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.base import LocalTrainingConfig, run_local_sgd
from repro.datasets.base import Dataset
from repro.federated.local_problem import LocalProblem
from repro.nn.batched import (
    BatchedCohort,
    _Workspace,
    batched_run_local_sgd,
    build_batched_model,
)
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, softmax
from repro.nn.layers import (
    Conv2D,
    Flatten,
    Linear,
    MaxPool2D,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.models import MLP, SmallCNN, _ImageReshape
from repro.obs import Tracer


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


def oracle_mse(predictions, targets):
    diff = predictions - targets
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


def oracle_batched_mse(predictions, targets):
    diff = predictions - targets
    per_client = diff.size // diff.shape[0]
    losses = (diff**2).reshape(diff.shape[0], -1).mean(axis=1)
    return losses, 2.0 * diff / per_client


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
    batched._bind(params)
    x = features
    for layer in batched.layers:
        x = layer.forward(x)
    losses, grad_output = batched.loss.value_and_grad(x, labels, client_axes=1)
    for layer in reversed(batched.layers):
        grad_output = layer.backward(grad_output)
    return losses, batched._param_grads


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


#: The stacked oracles address a layer's parameters as columns of a row;
#: the layer under test sits between two others, so its columns are inside
#: a longer flat layout: 3 before, 2 after.
COLUMNS_BEFORE, COLUMNS_AFTER = 3, 2


def stack_bound(layer):
    """``layer`` bound into a stack, and the parent's view of its columns."""
    batched = build_batched_model(
        Sequential(Linear(2, 1, rng=0), layer, Linear(1, 1, rng=0)), CrossEntropyLoss()
    )
    weight_stop = COLUMNS_BEFORE + layer.weight.size
    columns = SimpleNamespace(
        **{name: getattr(layer, name) for name in vars(layer) if name[0] != "_"},
        weight_slice=slice(COLUMNS_BEFORE, weight_stop),
        bias_slice=slice(weight_stop, weight_stop + layer.bias.size),
    )
    assert batched.dim == columns.bias_slice.stop + COLUMNS_AFTER
    return batched, batched.layers[1], columns


def bound_gradients(batched, params, stack):
    """Bind ``params``; the gradient rows (whole workspace or a prefix), NaN-filled."""
    if stack == "prefix":
        batched._bind(np.empty((params.shape[0] + 3, batched.dim)))
    batched._bind(params)
    batched._param_grads.fill(np.nan)
    return batched._param_grads


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
            CrossEntropyLoss().value_and_grad(logits, labels, client_axes=1),
            oracle_batched_cross_entropy(logits, labels),
        )

    @given(
        cohort=COHORTS, n=SAMPLES, width=st.integers(1, 12), layout=LAYOUTS, seed=SEEDS
    )
    @settings(max_examples=80, deadline=None)
    def test_mse(self, cohort, n, width, layout, seed):
        # These two bodies are 7f171f4's (the last commit with two losses).
        rng = np.random.default_rng(seed)
        predictions = laid_out(30.0 * values(rng, (cohort, n, width)), layout)
        targets = values(rng, (cohort, n, width))
        same_bytes(
            MSELoss().value_and_grad(predictions, targets, client_axes=1),
            oracle_batched_mse(predictions, targets),
        )
        same_bytes(
            MSELoss().value_and_grad(predictions[0], targets[0]),
            oracle_mse(predictions[0], targets[0]),
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
        same_bytes([ReLU().forward(stack)], [oracle_relu_forward(stack)])

    def test_relu_backward_still_masks_with_x_positive(self):
        x = np.array([[-1.0, 0.0, -0.0, 2.0, np.nan, np.inf]])
        grad = np.full_like(x, 3.0)
        expected = grad * (x > 0)
        relu, on_a_stack = ReLU(), ReLU()
        relu.forward(x)
        on_a_stack.forward(x[None])
        same_bytes([relu.backward(grad)], [expected])
        same_bytes([on_a_stack.backward(grad[None])], [expected[None]])

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
        batched, layer, op = stack_bound(Linear(fan_in, fan_out, rng=seed))
        params = stacked(values(rng, (cohort, batched.dim)), stack)
        x = laid_out(values(rng, (cohort, n, fan_in)), x_layout)
        grad_output = laid_out(values(rng, (cohort, n, fan_out)), g_layout)
        grads = bound_gradients(batched, params, stack)
        expected = stacked(np.full((cohort, batched.dim), np.nan), stack)

        same_bytes(
            (layer.forward(x), layer.backward(grad_output), grads),
            (
                oracle_batched_linear_forward(op, params, x),
                oracle_batched_linear_backward(op, expected, grad_output),
                expected,
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
        batched, layer, op = stack_bound(
            Conv2D(channels, out_channels, kernel, stride, padding, rng=seed)
        )
        params = stacked(values(rng, (cohort, batched.dim)), stack)
        x = values(rng, (cohort, n, channels, size, size))
        out_size = conv_output_size(size, kernel, stride, padding)
        grad_output = laid_out(
            values(rng, (cohort, n, out_channels, out_size, out_size)), g_layout
        )
        grads = bound_gradients(batched, params, stack)
        expected = stacked(np.full((cohort, batched.dim), np.nan), stack)

        same_bytes(
            (layer.forward(x), layer.backward(grad_output), grads),
            (
                oracle_batched_conv_forward(op, params, x),
                oracle_batched_conv_backward(op, expected, grad_output),
                expected,
            ),
        )


# --------------------------------------------------------------------------- #
# (b) The backward chain stops at the first parametric layer
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


class TestBackwardStopsAtTheFirstParametricLayer:
    @given(
        cohort=COHORTS, n=st.integers(1, 12), g_layout=LAYOUTS, stack=STACKS, seed=SEEDS
    )
    @settings(max_examples=40, deadline=None)
    def test_backward_params_writes_what_backward_writes(
        self, cohort, n, g_layout, stack, seed
    ):
        rng = np.random.default_rng(seed)
        cases = [
            (Linear(4, 3, rng=seed), (cohort, n, 4), (cohort, n, 3)),
            (Conv2D(2, 3, 2, 1, 1, rng=seed), (cohort, n, 2, 4, 4), (cohort, n, 3, 5, 5)),
        ]
        for template, in_shape, out_shape in cases:
            batched, layer, op = stack_bound(template)
            params = values(rng, (cohort, batched.dim))
            batched._bind(params)
            assert layer.forward(values(rng, in_shape)).shape == out_shape
            grad_output = laid_out(values(rng, out_shape), g_layout)
            written = []
            for method in (layer.backward, layer.backward_params):
                grads = bound_gradients(batched, params, stack)
                method(grad_output)
                written.append(grads.copy())
            assert layer.backward_params(grad_output) is None
            same_bytes(written[1:], written[:1])
            # Everything outside the layer's own columns is left alone.
            untouched = np.ones(batched.dim, dtype=bool)
            untouched[op.weight_slice.start : op.bias_slice.stop] = False
            assert np.isnan(written[1][:, untouched]).all()
            assert not np.isnan(written[1][:, ~untouched]).any()

    @pytest.mark.parametrize("build", [_mlp, _small_cnn])
    def test_profiled_and_plain_take_the_same_walk(self, build):
        model, feature_shape = build()
        batched = build_batched_model(model, CrossEntropyLoss())
        first = next(
            i for i, layer in enumerate(batched.layers)
            if isinstance(layer, (Linear, Conv2D))
        )
        calls, depth = [], [0]

        def record(index, name):
            method = getattr(batched.layers[index], name)

            def recorded(*args):
                if not depth[0]:  # the model's calls, not ``backward``'s own
                    calls.append((index, name))
                depth[0] += 1
                try:
                    return method(*args)
                finally:
                    depth[0] -= 1

            setattr(batched.layers[index], name, recorded)

        for index in range(len(batched.layers)):
            record(index, "backward")
            record(index, "backward_params")
        # Later layers hand back input gradients, the first parametric one
        # only writes its gradients, and nothing before it (the CNN's image
        # reshape) runs at all.
        expected_walk = [
            (index, "backward") for index in range(len(batched.layers) - 1, first, -1)
        ] + [(first, "backward_params")]
        params, features, labels = _batch(batched, feature_shape)

        expected = oracle_batched_loss_and_grad(
            build_batched_model(model, CrossEntropyLoss()), params, features, labels
        )

        plain = [a.copy() for a in batched.loss_and_grad(params, features, labels)]
        assert calls == expected_walk
        calls.clear()
        batched.tracer = Tracer()
        traced = [a.copy() for a in batched.loss_and_grad(params, features, labels)]
        assert calls == expected_walk
        same_bytes(plain, expected)
        same_bytes(traced, expected)
        spans = [record.name for record in batched.tracer.records]
        backward_spans = [name for name in spans if name.endswith(".backward")]
        assert backward_spans == [
            f"kernel.{type(batched.layers[index]).__name__}.backward"
            for index, _ in expected_walk
        ]
        assert spans[len(batched.layers)] == "kernel.CrossEntropyLoss"


# --------------------------------------------------------------------------- #
# (c) ROADMAP item 7: one layer set, with and without a client axis
# --------------------------------------------------------------------------- #
#: name -> (layer factory, one sample's input shape, one sample's output shape)
LAYERS = {
    "linear": (lambda: Linear(5, 4, rng=1), (5,), (4,)),
    "relu": (ReLU, (5,), (5,)),
    "tanh": (Tanh, (5,), (5,)),
    "flatten": (Flatten, (2, 3, 3), (18,)),
    "conv_padded": (lambda: Conv2D(2, 3, 3, 1, 1, rng=1), (2, 5, 5), (3, 5, 5)),
    "conv_strided": (lambda: Conv2D(2, 3, 3, 2, 0, rng=1), (2, 6, 6), (3, 2, 2)),
    "maxpool": (lambda: MaxPool2D(2), (2, 4, 4), (2, 2, 2)),
    "maxpool_overlapping": (lambda: MaxPool2D(3, stride=1), (2, 4, 4), (2, 2, 2)),
    "image_reshape": (lambda: _ImageReshape(2, 3, 3), (18,), (2, 3, 3)),
}


class TestStackOfOneIsThePerClientStep:
    @pytest.mark.parametrize("name", LAYERS)
    @given(cohort=st.sampled_from([1, 2, 5]), n=st.integers(1, 9), seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_layer(self, name, cohort, n, seed):
        if name.startswith("conv"):
            n += 1  # one sample a client: see the xfail below
        self.check_layer(name, cohort, n, seed)

    @pytest.mark.xfail(
        strict=True,
        reason="Conv2D's weight gradient at one sample a client: the transposed "
        "output gradient then reshapes as a view, not a copy, and for that "
        "layout matmul sums a stack of one (and the per-client call) in another "
        "order than a longer stack.  So with n = 1 a client's row does depend "
        "on whether it has company — as it did with the Batched* twins; no "
        "golden or bench shape trains a conv model on single-sample batches.",
    )
    def test_conv_with_one_sample_a_client(self):
        self.check_layer("conv_padded", cohort=2, n=1, seed=0)

    @staticmethod
    def check_layer(name, cohort, n, seed):
        make, in_shape, out_shape = LAYERS[name]
        rng = np.random.default_rng(seed)
        per_client = make()
        batched = build_batched_model(Sequential(make()), CrossEntropyLoss())
        (layer,) = batched.layers
        params = values(rng, (cohort, batched.dim))
        x = values(rng, (cohort, n) + in_shape)
        grad_output = values(rng, (cohort, n) + out_shape)

        def on_a_stack(rows, backward):
            """(output, input gradient, parameter gradients) for clients ``rows``."""
            batched._bind(params[rows])
            batched._param_grads.fill(np.nan)
            out = layer.forward(x[rows])
            grad_input = getattr(layer, backward)(grad_output[rows])
            return out, grad_input, batched._param_grads.copy()

        whole = on_a_stack(slice(0, cohort), "backward")
        for c in range(cohort):
            one = on_a_stack(slice(c, c + 1), "backward")
            # Row c does not depend on who else is in the stack ...
            same_bytes(one, [part[c : c + 1] for part in whole])
            # ... and a stack of one is the per-client call.
            per_client.set_flat_params(params[c])
            per_client.set_flat_grad(np.full(batched.dim, np.nan))
            out = per_client.forward(x[c])
            grad_input = per_client.backward(grad_output[c])
            same_bytes(
                [part[0] for part in one], [out, grad_input, per_client.get_flat_grad()]
            )
            # ``backward_params``: the same gradients, no input gradient.
            _, nothing, grads = on_a_stack(slice(c, c + 1), "backward_params")
            per_client.set_flat_grad(np.full(batched.dim, np.nan))
            per_client.forward(x[c])
            assert per_client.backward_params(grad_output[c]) is None
            if batched.dim:
                assert nothing is None
            same_bytes([grads[0]], [per_client.get_flat_grad()])
            same_bytes([grads], [one[2]])

    @pytest.mark.parametrize("loss", [CrossEntropyLoss(), MSELoss()], ids=["ce", "mse"])
    @given(
        cohort=st.sampled_from([1, 2, 5]), n=SAMPLES, classes=st.integers(1, 8),
        scale=st.sampled_from([1.0, 30.0]), seed=SEEDS,
    )
    @settings(max_examples=50, deadline=None)
    def test_loss(self, loss, cohort, n, classes, scale, seed):
        rng = np.random.default_rng(seed)
        predictions = scale * values(rng, (cohort, n, classes))
        if isinstance(loss, MSELoss):
            targets = values(rng, (cohort, n, classes))
        else:
            targets = rng.integers(0, classes, size=(cohort, n))
        losses, grad = loss.value_and_grad(predictions, targets, client_axes=1)
        assert losses.shape == (cohort,)
        for c in range(cohort):
            rows = slice(c, c + 1)
            one = loss.value_and_grad(predictions[rows], targets[rows], client_axes=1)
            same_bytes(one, [losses[rows], grad[rows]])
            value, per_client = loss.value_and_grad(predictions[c], targets[c])
            assert type(value) is float
            same_bytes([one[0][0], one[1][0]], [np.float64(value), per_client])

    @given(
        n=SAMPLES, width=st.integers(1, 12), classes=st.integers(1, 8),
        hidden=st.lists(st.integers(1, 10), max_size=3), seed=SEEDS,
    )
    @settings(max_examples=100, deadline=None)
    def test_mlp_cross_entropy_loss_and_grad(self, n, width, classes, hidden, seed):
        rng = np.random.default_rng(seed)
        model = MLP(width, tuple(hidden), num_classes=classes, rng=seed)
        features, labels = values(rng, (n, width)), rng.integers(0, classes, size=n)
        self.check_step(model, rng, features[None], labels[None])

    @given(cohort=st.sampled_from([1, 3]), n=st.integers(2, 6), seed=SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_small_cnn_end_to_end(self, cohort, n, seed):
        rng = np.random.default_rng(seed)
        model = SmallCNN(
            rng=seed, image_size=8, num_classes=3, conv_channels=(2, 3), hidden=4
        )
        features = values(rng, (cohort, n, 64))
        self.check_step(model, rng, features, rng.integers(0, 3, size=(cohort, n)))

    @staticmethod
    def check_step(model, rng, features, labels):
        """``loss_and_grad``: row c of the stack, c in a stack of one, c alone."""
        batched = build_batched_model(model, CrossEntropyLoss())
        params = rng.normal(scale=0.5, size=(features.shape[0], batched.dim))
        whole = [a.copy() for a in batched.loss_and_grad(params, features, labels)]
        for c in range(features.shape[0]):
            rows = slice(c, c + 1)
            one = batched.loss_and_grad(params[rows], features[rows], labels[rows])
            same_bytes(one, [part[rows] for part in whole])
            problem = LocalProblem(
                model=model,
                loss=CrossEntropyLoss(),
                dataset=Dataset(features=features[c], labels=labels[c], name="t"),
            )
            value, grad = problem.loss_and_grad(params[c], features[c], labels[c])
            same_bytes([one[0][0], one[1][0]], [np.float64(value), grad])


class TestTheTwoSgdLoopsStayTwo:
    """Every kernel call of a stack of one is the per-client call (above), and
    so are the trained parameters — but one client is not routed through the
    stacked loop: it costs 19-36 % per update on mini-batched shapes, and the
    loops book the train loss differently, which shows in its last bit."""

    def test_same_parameters_but_the_mean_loss_differs_in_the_last_bit(self):
        # A fixed case where the last bit moves (it does in about one case
        # in three, by one or two ulp).
        rng = np.random.default_rng(7)
        model = MLP(12, (16,), num_classes=4, rng=0)
        n, batch_size, epochs = 80, 16, 2  # 10 steps
        features, labels = rng.normal(size=(n, 12)), rng.integers(0, 4, size=n)
        start = rng.normal(scale=0.5, size=model.num_params)
        anchor, dual = start + 0.1, rng.normal(scale=0.01, size=start.shape)
        config = LocalTrainingConfig(epochs, batch_size, learning_rate=0.1)
        problem = LocalProblem(
            model=model, loss=CrossEntropyLoss(),
            dataset=Dataset(features=features, labels=labels, name="t"),
        )
        params, mean_loss = run_local_sgd(
            problem, start, config, rng=np.random.default_rng(7),
            extra_grad=lambda w: dual + 0.3 * (w - anchor),  # FedADMM's term
        )

        shuffles = np.random.default_rng(7)
        cohort = BatchedCohort(
            model=build_batched_model(model, CrossEntropyLoss()),
            features=features[None], labels=labels[None], epochs=np.array([epochs]),
            epoch_orders=[shuffles.permutation(n)[None] for _ in range(epochs)],
        )
        stacked_params, stacked_loss = batched_run_local_sgd(
            cohort, start[None], config, extra_grad=lambda w: dual + 0.3 * (w - anchor)
        )

        same_bytes([stacked_params[0]], [params])
        # ``np.mean`` of the ten losses reduces pairwise; the stacked loop
        # keeps a running sum per client.  Same numbers, another order.
        assert stacked_loss[0] != mean_loss
        assert abs(stacked_loss[0] - mean_loss) <= np.spacing(mean_loss)
