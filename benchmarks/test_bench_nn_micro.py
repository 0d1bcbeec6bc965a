"""Micro-benchmarks of the NN substrate.

These are true repeated-measurement benchmarks (unlike the experiment
regenerations): forward+backward throughput of the small-MLP step used
by the bench presets, the flat
parameter packing that every federated round relies on, and the
cohort-amortisation ratio of each layer on a stack (one cohort-C call
vs C cohort-1 calls of the same layer), written to
``BENCH_backend_kernels.json`` for the regression gate.
"""

import time

import numpy as np
from bench_utils import emit_summary, print_header, run_once

from repro.experiments.tables import format_table
from repro.nn.batched import build_batched_model
from repro.nn.layers import Conv2D, Linear, Sequential
from repro.nn.losses import CrossEntropyLoss
from repro.nn.models import MLP


def _step(model, loss, x, y):
    model.zero_grad()
    predictions = model.forward(x)
    _, grad = loss.value_and_grad(predictions, y)
    model.backward(grad)
    return model.get_flat_grad()


def test_micro_mlp_forward_backward(benchmark):
    model = MLP(input_dim=784, hidden_dims=(32,), rng=0)
    loss = CrossEntropyLoss()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(32, 784))
    y = rng.integers(0, 10, size=32)
    grad = benchmark(lambda: _step(model, loss, x, y))
    emit_summary("nn_micro_mlp", {"num_params": int(grad.size)}, benchmark)
    assert grad.shape == (model.num_params,)


def test_micro_flat_param_roundtrip(benchmark):
    model = MLP(input_dim=784, hidden_dims=(128, 64), rng=0)
    flat = model.get_flat_params()

    def roundtrip():
        model.set_flat_params(flat)
        return model.get_flat_params()

    result = benchmark(roundtrip)
    emit_summary(
        "nn_micro_flat_roundtrip", {"num_params": int(flat.size)}, benchmark
    )
    assert result.shape == flat.shape


# --------------------------------------------------------------------------- #
# Per-kernel cohort amortisation
# --------------------------------------------------------------------------- #
#: Cohort size / per-client batch for the kernel micro-benchmarks.  64
#: clients is the smallest population where the stacked kernels' win is
#: comfortably above measurement noise on one core.
KERNEL_COHORT = 64
KERNEL_BATCH = 16


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _layer_speedups(layer, x: np.ndarray, grad_out: np.ndarray) -> dict:
    """One stacked call of ``layer`` vs one call per client, same layer code."""
    cohort = x.shape[0]
    # A layer meets a stack as part of a model bound to the parameter rows.
    stacked = build_batched_model(Sequential(layer), CrossEntropyLoss())
    looped = stacked.clone()
    params = np.random.default_rng(0).normal(size=(cohort, stacked.dim))
    stacked._bind(params)
    (many,), (one,) = stacked.layers, looped.layers

    def stacked_forward():
        many.forward(x)

    def stacked_backward():
        many.forward(x)
        many.backward(grad_out)

    def loop_forward():
        for c in range(cohort):
            looped._bind(params[c : c + 1])
            one.forward(x[c : c + 1])

    def loop_backward():
        for c in range(cohort):
            looped._bind(params[c : c + 1])
            one.forward(x[c : c + 1])
            one.backward(grad_out[c : c + 1])

    return {
        "forward_speedup": round(_best_of(loop_forward) / _best_of(stacked_forward), 3),
        "backward_speedup": round(
            _best_of(loop_backward) / _best_of(stacked_backward), 3
        ),
    }


def _linear_speedups() -> dict:
    cohort, n, in_f, out_f = KERNEL_COHORT, KERNEL_BATCH, 64, 32
    x = np.random.default_rng(0).normal(size=(cohort, n, in_f))
    return _layer_speedups(
        Linear(in_f, out_f, rng=0), x, np.ones((cohort, n, out_f))
    )


def _conv2d_speedups() -> dict:
    cohort, n = KERNEL_COHORT, 4
    in_ch, out_ch, size = 2, 4, 8
    x = np.random.default_rng(0).normal(size=(cohort, n, in_ch, size, size))
    return _layer_speedups(
        Conv2D(in_ch, out_ch, 3, 1, 1, rng=0),
        x,
        np.ones((cohort, n, out_ch, size, size)),
    )


def _cross_entropy_speedups() -> dict:
    cohort, n, classes = KERNEL_COHORT, KERNEL_BATCH, 10
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(cohort, n, classes))
    labels = rng.integers(0, classes, size=(cohort, n))
    loss = CrossEntropyLoss()

    def stacked_call():
        loss.value_and_grad(logits, labels, client_axes=1)

    def loop_call():
        for c in range(cohort):
            loss.value_and_grad(logits[c : c + 1], labels[c : c + 1], client_axes=1)

    return {"speedup": round(_best_of(loop_call) / _best_of(stacked_call), 3)}


def test_micro_backend_kernels(benchmark):
    """Stacked-kernel amortisation: one cohort-64 call must beat 64
    cohort-1 calls of the same op — the per-kernel version of the
    executor-level speedup the vectorized path is built on."""

    def measure():
        return {
            "linear": _linear_speedups(),
            "conv2d": _conv2d_speedups(),
            "cross_entropy": _cross_entropy_speedups(),
        }

    kernels = run_once(benchmark, measure)
    # Keyed "numpy" as the committed baseline is: the kernels are NumPy.
    summary = {"clients": KERNEL_COHORT, "numpy": kernels}
    rows = [{"kernel": kernel, **ratios} for kernel, ratios in kernels.items()]
    print_header(f"Stacked-kernel amortisation ({KERNEL_COHORT} clients)")
    print(format_table(rows))
    emit_summary("backend_kernels", summary, benchmark=benchmark)

    # Sanity floor: batching a cohort into one kernel call must win; the
    # committed baseline in benchmarks/baselines/ pins the actual ratios
    # under the 20% gate.
    for kernel, ratios in kernels.items():
        for metric, value in ratios.items():
            assert value > 1.0, (kernel, metric, value)
