"""Ablation benches for the design choices called out in DESIGN.md.

* Dual variables on/off: with duals disabled FedADMM's local problem reduces
  to FedProx's (Section III-B); the ablation quantifies what the duals add.
* Tracking server update vs plain averaging: FedADMM's eq. (5) vs replacing
  the global model by the average of the uploaded client models.
* Warm start vs restart for the local subproblem (cheap companion to Fig. 8).
"""

from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import run_comparison
from repro.experiments.tables import format_table


def _run():
    config = preset_config("fig6", "mnist", non_iid=True, num_rounds=BENCH_ROUNDS)
    algorithms = [
        AlgorithmSpec("fedadmm", {"rho": 0.3}),
        AlgorithmSpec("fedadmm", {"rho": 0.3, "use_duals": False}),
        AlgorithmSpec("fedadmm", {"rho": 0.3, "warm_start": False}),
        AlgorithmSpec("fedprox", {"rho": 0.3}),
        AlgorithmSpec("fedavg", {}),
    ]
    return run_comparison(config, algorithms, stop_at_target=False)


def test_ablation_duals_tracking_warmstart(benchmark):
    comparison = run_once(benchmark, _run)
    rows = [
        {
            "variant": label,
            "rounds_to_target": (
                rounds if rounds is not None else f"{BENCH_ROUNDS}+"
            ),
            "best_accuracy": comparison.results[label].history.best_accuracy(),
            "final_accuracy": comparison.results[label].history.final_accuracy(),
        }
        for label, rounds in comparison.rounds_table().items()
    ]
    print_header("Ablation — duals on/off, warm start on/off, vs FedProx/FedAvg")
    print(format_table(rows))
    emit_summary("ablation", {"rows": rows}, benchmark)
    assert len(rows) == 5
    for row in rows:
        assert row["best_accuracy"] > 0.2
