"""Statistical- and system-heterogeneity study on the synthetic MNIST stand-in.

Reproduces, at example scale, the protocol behind the paper's Fig. 5 and the
system-heterogeneity handling of Table III:

* statistical heterogeneity — the same comparison under IID and non-IID
  (two-shards-per-client) partitions;
* system heterogeneity — FedADMM and FedProx let every selected client draw
  its local epoch count uniformly from {1, ..., E}, while FedAvg and SCAFFOLD
  always run the full E epochs (so FedADMM also does ~50% less local work).

Run with:  python examples/heterogeneity_study.py
"""

from __future__ import annotations

from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.figures import accuracy_series, series_to_text
from repro.experiments.runner import rounds_summary
from repro.experiments.studies import STUDIES
from repro.experiments.tables import format_table

NUM_ROUNDS = 20

ALGORITHMS = [
    AlgorithmSpec("fedadmm", {"rho": 0.3}),
    AlgorithmSpec("fedavg", {}),
    AlgorithmSpec("fedprox", {"rho": 0.1}),
    AlgorithmSpec("scaffold", {}),
]


def main() -> None:
    # The fig5 study's one axis swaps in the IID / non-IID preset pair; the
    # same expansion the CLI runs, here with an explicit algorithm set.
    config = preset_config("fig5", "mnist", num_rounds=NUM_ROUNDS)
    outcome = STUDIES.sweep("fig5", config, algorithms=ALGORITHMS)

    rows = []
    for setting, comparison in outcome.items():
        print(f"\n=== {setting.upper()} — accuracy vs round ===")
        print(
            series_to_text(
                {
                    label: accuracy_series(result)
                    for label, result in comparison.results.items()
                },
                max_points=10,
            )
        )
        for label, info in rounds_summary(comparison).items():
            rows.append(
                {
                    "setting": setting,
                    "method": label,
                    "rounds_to_target": info["formatted"],
                    "final_accuracy": info["final_accuracy"],
                }
            )

    print("\n=== Summary (target accuracy "
          f"{config.target_accuracy:.0%}) ===")
    print(format_table(rows))
    print(
        "\nNote: FedADMM and FedProx run with randomly reduced local epochs "
        "(system heterogeneity), i.e. roughly half the local computation of "
        "FedAvg/SCAFFOLD in this comparison."
    )


if __name__ == "__main__":
    main()
