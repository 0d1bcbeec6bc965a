"""Fig. 4: rounds to a prescribed accuracy versus client population,
plus the reduction of FedADMM over the best baseline at each population.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.studies import STUDIES
from repro.experiments.tables import format_table

POPULATIONS = [20, 40]


def _run():
    base = preset_config(
        "fig3", "fmnist", non_iid=False, scale="bench", num_rounds=BENCH_ROUNDS
    )
    algorithms = [
        AlgorithmSpec("fedadmm", {"rho": 0.3}),
        AlgorithmSpec("fedavg", {}),
        AlgorithmSpec("scaffold", {}),
    ]
    return STUDIES.sweep("fig3", base, populations=POPULATIONS, algorithms=algorithms)


def test_fig4_rounds_to_target_vs_population(benchmark):
    sweeps = run_once(benchmark, _run)
    rows = []
    for population, comparison in sweeps.items():
        for label, rounds in comparison.rounds_table().items():
            rows.append(
                {
                    "population": population,
                    "method": label,
                    "rounds_to_target": rounds if rounds is not None else f"{BENCH_ROUNDS}+",
                    "final_accuracy": comparison.results[label].history.final_accuracy(),
                }
            )
        rows.append(
            {
                "population": population,
                "method": "reduction(FedADMM vs best baseline)",
                "rounds_to_target": "-",
                "final_accuracy": comparison.reduction_of("fedadmm(rho=0.3)"),
            }
        )
    print_header("Fig. 4 — rounds to target vs population (IID FMNIST)")
    print(format_table(rows))
    emit_summary("fig4", {"rows": rows}, benchmark)
    assert len(rows) == len(POPULATIONS) * 4
