"""Fig. 6: the effect of the server gathering step size eta on FedADMM,
including a mid-run decrease of eta (the paper adjusts at round 60; the bench
preset adjusts at the midpoint of its shorter budget).
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.studies import STUDIES

ETAS = (0.5, 1.0, 1.5)


def _run():
    config = preset_config("fig6", "mnist", non_iid=True, num_rounds=BENCH_ROUNDS)
    # The study appends the 1.0 -> 0.5 switch at the midpoint of the budget.
    return STUDIES.sweep("fig6", config, etas=ETAS)


def test_fig6_server_step_size_study(benchmark):
    results = run_once(benchmark, _run)
    print_header("Fig. 6 — FedADMM under different server step sizes (non-IID MNIST)")
    print(
        series_to_text(
            {label: accuracy_series(result) for label, result in results.items()},
            max_points=10,
        )
    )
    emit_summary(
        "fig6",
        {label: accuracy_series(result) for label, result in results.items()},
        benchmark,
    )
    assert len(results) == len(ETAS) + 1  # three constants plus the mid-run switch
    for result in results.values():
        assert result.rounds_run == BENCH_ROUNDS
