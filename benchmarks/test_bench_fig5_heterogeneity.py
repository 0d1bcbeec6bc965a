"""Fig. 5: adaptability to heterogeneous data distributions.

The paper fixes FedADMM's hyperparameters and tunes every baseline, then
compares IID and non-IID runs (m=200, E=10, B=50).  At bench scale the same
protocol runs with 40 clients on the synthetic FMNIST stand-in.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.studies import STUDIES
from repro.experiments.tables import format_table


def _run():
    algorithms = [
        AlgorithmSpec("fedadmm", {"rho": 0.3}),
        AlgorithmSpec("fedavg", {}),
        AlgorithmSpec("fedprox", {"rho": 0.1}),
        AlgorithmSpec("scaffold", {}),
    ]
    # The study's axis swaps in the IID / non-IID preset pair.
    config = preset_config("fig5", "fmnist", num_rounds=BENCH_ROUNDS)
    return STUDIES.sweep("fig5", config, algorithms=algorithms)


def test_fig5_data_heterogeneity_adaptability(benchmark):
    outcome = run_once(benchmark, _run)
    rows = []
    for setting, comparison in outcome.items():
        print_header(f"Fig. 5 — {setting} accuracy paths (FMNIST, m=40)")
        print(
            series_to_text(
                {
                    label: accuracy_series(result)
                    for label, result in comparison.results.items()
                },
                max_points=10,
            )
        )
        for label, rounds in comparison.rounds_table().items():
            rows.append(
                {
                    "setting": setting,
                    "method": label,
                    "rounds_to_target": rounds if rounds is not None else f"{BENCH_ROUNDS}+",
                    "best_accuracy": comparison.results[label].history.best_accuracy(),
                }
            )
    print(format_table(rows))
    emit_summary("fig5", {"rows": rows}, benchmark)
    assert set(outcome) == {"iid", "non_iid"}
