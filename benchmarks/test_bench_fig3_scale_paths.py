"""Fig. 3: convergence paths as the client population grows.

The paper fixes hyperparameters (tuned at 100 clients) and scales the system
up, showing FedADMM's advantage grows with the population.  At bench scale
the sweep uses 20 and 40 clients on the synthetic FMNIST stand-in and prints
the accuracy-versus-round series per algorithm and population.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.studies import STUDIES

POPULATIONS = [20, 40]


def _run():
    base = preset_config(
        "fig3", "fmnist", non_iid=True, scale="bench", num_rounds=BENCH_ROUNDS
    )
    algorithms = [
        AlgorithmSpec("fedadmm", {"rho": 0.3}),
        AlgorithmSpec("fedavg", {}),
        AlgorithmSpec("fedprox", {"rho": 0.1}),
    ]
    return STUDIES.sweep("fig3", base, populations=POPULATIONS, algorithms=algorithms)


def test_fig3_convergence_paths_vs_population(benchmark):
    sweeps = run_once(benchmark, _run)
    for population, comparison in sweeps.items():
        print_header(f"Fig. 3 — convergence paths, m={population} clients (non-IID FMNIST)")
        series = {
            label: accuracy_series(result)
            for label, result in comparison.results.items()
        }
        print(series_to_text(series, max_points=12))
    emit_summary(
        "fig3",
        {
            str(population): {
                label: accuracy_series(result)
                for label, result in comparison.results.items()
            }
            for population, comparison in sweeps.items()
        },
        benchmark,
    )
    assert set(sweeps) == set(POPULATIONS)
    for comparison in sweeps.values():
        for result in comparison.results.values():
            assert len(result.history) > 0
