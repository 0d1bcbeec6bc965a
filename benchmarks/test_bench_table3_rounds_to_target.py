"""Table III: rounds (and speedup vs FedSGD) to reach a target accuracy.

The paper's Table III spans MNIST/FMNIST/CIFAR-10 at 100 and 1,000 clients
under IID and non-IID distributions.  At bench scale this regenerates the
MNIST and FMNIST columns with 30 clients on the synthetic stand-ins; the
regenerated rows (and how they compare with the paper's) are recorded in
EXPERIMENTS.md.
"""

import pytest
from bench_utils import BENCH_ROUNDS, emit_summary, print_header, run_once

from repro.experiments.configs import preset_config
from repro.experiments.studies import STUDIES
from repro.experiments.tables import table3_text


def _run(dataset: str, non_iid: bool):
    config = preset_config(
        "table3", dataset, non_iid, scale="bench", num_rounds=BENCH_ROUNDS
    )
    return STUDIES.sweep("table3", config)  # the paper's five at rho=0.3


@pytest.mark.parametrize(
    "dataset,non_iid",
    [("mnist", False), ("mnist", True), ("fmnist", False), ("fmnist", True)],
    ids=["mnist-iid", "mnist-noniid", "fmnist-iid", "fmnist-noniid"],
)
def test_table3_rounds_to_target(benchmark, dataset, non_iid):
    comparison = run_once(benchmark, lambda: _run(dataset, non_iid))
    label = f"{dataset} ({'non-IID' if non_iid else 'IID'})"
    print_header(f"Table III — rounds to target accuracy, {label}")
    print(table3_text({label: comparison}))
    emit_summary(
        f"table3_{dataset}_{'noniid' if non_iid else 'iid'}",
        {
            "rounds_to_target": comparison.rounds_table(),
            "final_accuracies": {
                method: result.history.final_accuracy()
                for method, result in comparison.results.items()
            },
        },
        benchmark,
    )
    # Every algorithm must at least have produced a full history and the
    # communication accounting must hold (FedADMM == FedAvg upload per round).
    rounds_table = comparison.rounds_table()
    assert len(rounds_table) == 5
    fedadmm = next(k for k in comparison.results if k.startswith("fedadmm"))
    fedavg = comparison.results["fedavg"]
    admm = comparison.results[fedadmm]
    assert (
        admm.ledger.upload_floats // max(admm.ledger.rounds, 1)
        == fedavg.ledger.upload_floats // max(fedavg.ledger.rounds, 1)
    )
