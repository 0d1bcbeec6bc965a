"""Fig. 9: dynamic adaptation of rho for FedADMM.

The paper shows a small rho early (efficient incorporation of local data)
followed by a larger rho later (tighter consensus) can further improve the
run; the bench compares two constant-rho runs with a piecewise schedule that
switches at the midpoint of the budget.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.core.rho import PiecewiseRho
from repro.experiments.configs import preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.studies import STUDIES

CONSTANT_RHOS = (0.1, 0.3)
SWITCH = (0.1, 0.3)


def _run():
    config = preset_config("fig6", "mnist", non_iid=True, num_rounds=BENCH_ROUNDS)
    schedule = PiecewiseRho(values=list(SWITCH), boundaries=[BENCH_ROUNDS // 2])
    return STUDIES.sweep("fig9", config, rhos=[*CONSTANT_RHOS, schedule])


def test_fig9_dynamic_rho_schedule(benchmark):
    results = run_once(benchmark, _run)
    print_header("Fig. 9 — FedADMM with constant vs dynamically increased rho")
    print(
        series_to_text(
            {label: accuracy_series(result) for label, result in results.items()},
            max_points=10,
        )
    )
    emit_summary(
        "fig9",
        {label: accuracy_series(result) for label, result in results.items()},
        benchmark,
    )
    assert len(results) == len(CONSTANT_RHOS) + 1
    for result in results.values():
        assert result.rounds_run == BENCH_ROUNDS
