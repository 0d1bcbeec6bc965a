"""Fig. 8: local-training initialisation for FedADMM.

Initialisation I warm-starts local SGD from the stored local model w_i;
initialisation II restarts from the downloaded global model theta.  The paper
reports I is superior across server step sizes; the bench run prints both
series per eta for comparison.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.studies import STUDIES

ETAS = (1.0, 0.5)


def _run():
    config = preset_config("fig6", "mnist", non_iid=True, num_rounds=BENCH_ROUNDS)
    return STUDIES.sweep("fig8", config, etas=ETAS)


def test_fig8_local_initialisation_study(benchmark):
    results = run_once(benchmark, _run)
    print_header("Fig. 8 — warm start (I) vs restart from theta (II), non-IID MNIST")
    print(
        series_to_text(
            {label: accuracy_series(result) for label, result in results.items()},
            max_points=10,
        )
    )
    emit_summary(
        "fig8",
        {label: accuracy_series(result) for label, result in results.items()},
        benchmark,
    )
    assert len(results) == 2 * len(ETAS)
    for label, result in results.items():
        assert result.history.best_accuracy() > 0.2, label
