"""The paper's claims the reproduction keeps, stated once as data.

Each case regenerates one table or figure of the paper at ``"bench"``
scale with a 25-round budget — the same sweep ``repro <study>`` runs and
prints, e.g. ``repro table3 --dataset mnist --rounds 25`` — and lists what
must hold of the gathered result as ``(text, predicate)`` rows.  The one
test runs each case once and checks, besides its claims, that the sweep
gathered exactly the expected runs and that a study which does not stop at
its target ran its whole budget.

One case is not a figure: ``communication`` checks, on the serve preset
with every client every round, the paper's "identical communication costs
per round as FedAvg/Prox" — in ledger floats in-process, and in θ frames,
upload bytes and client-state frames (once per worker a run) when served.

Only what the bench scale supports is claimed.  At these sizes FedADMM is
not the fewest-rounds method on every column (non-IID Table III: MNIST 8
rounds vs FedAvg's 6), every IID Table III / Fig. 4 / Fig. 5 run reaches
its target in round 1, and FedProx needs 7 rounds at all three ρ of Table
V's 20-client column; none of those orderings is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable

import pytest

from repro.core.rho import PiecewiseRho
from repro.experiments.configs import AlgorithmSpec, preset_config
from repro.experiments.runner import (
    ComparisonResult,
    build_simulation,
    prepare_environment,
    run_comparison,
)
from repro.experiments.studies import STUDIES
from repro.federated.engine import SimulationResult

from test_serve_digests import joining, threaded_run

ROUNDS = 25
ADMM, PROX = "fedadmm(rho=0.3)", "fedprox(rho=0.1)"
TABLE3 = ("fedsgd(server_learning_rate=0.5)", ADMM, "fedavg", PROX, "scaffold")
ABLATION = (ADMM, "fedadmm(rho=0.3, use_duals=False)",
            "fedadmm(rho=0.3, warm_start=False)", "fedprox(rho=0.3)", "fedavg")
SPECS = {
    ADMM: AlgorithmSpec("fedadmm", {"rho": 0.3}),
    PROX: AlgorithmSpec("fedprox", {"rho": 0.1}),
    "fedavg": AlgorithmSpec("fedavg", {}),
    "scaffold": AlgorithmSpec("scaffold", {}),
    ABLATION[1]: AlgorithmSpec("fedadmm", {"rho": 0.3, "use_duals": False}),
    ABLATION[2]: AlgorithmSpec("fedadmm", {"rho": 0.3, "warm_start": False}),
    ABLATION[3]: AlgorithmSpec("fedprox", {"rho": 0.3}),
}
NON_IID_MNIST = preset_config("fig6", "mnist", non_iid=True, num_rounds=ROUNDS)
SERVE_ROUNDS = 5
#: The serve preset, every client every round: from round 1 on each worker
#: has tasks whose rows it holds, so no worker takes another's.
SERVE = preset_config("serve", client_fraction=1.0, num_rounds=SERVE_ROUNDS)
SERVED = ("1 worker", "2 workers")


def _algorithms(*labels: str) -> list[AlgorithmSpec]:
    return [SPECS[label] for label in labels]


def _sweep(study: str, dataset: str, non_iid=None, **options):
    config = preset_config(study, dataset, non_iid, num_rounds=ROUNDS)
    return lambda: STUDIES.sweep(study, config, **options)


def _table5() -> dict[int, ComparisonResult]:
    columns = {}
    for population in (20, 40):
        config = preset_config("table5", "fmnist", num_clients=population, num_rounds=ROUNDS)
        sweep = STUDIES.sweep("table5", config, prox_rhos=(0.01, 0.1, 1.0))
        columns[population] = sweep[config.name]
    return columns


def _table1() -> dict[float, dict[str, float]]:
    rows: dict = {}
    for row in STUDIES.run("table1")["rows"]:
        rows.setdefault(row["epsilon"], {})[row["method"]] = row["predicted_rounds"]
    return rows


def _leaves(node: Any, path: tuple = ()):
    """``(key path, run)`` for every run of a gathered result, in order."""
    if isinstance(node, ComparisonResult):
        node = node.results
    if not isinstance(node, dict):
        yield path, node
        return
    for key, child in node.items():
        yield from _leaves(child, (*path, key))


def _upload_per_round(result: SimulationResult) -> int:
    return result.ledger.upload_floats // max(result.ledger.rounds, 1)


@dataclass(frozen=True)
class Served:
    """The ``serve.*`` status counters of one served run."""

    workers: int
    counters: dict[str, float]

    @property
    def wire(self) -> tuple[float, float]:
        """θ frames sent, and upload payload bytes received."""
        uploads = [v for k, v in self.counters.items() if k.startswith("serve.payload_bytes.")]
        return self.counters["serve.model_frames"], sum(uploads)


def _communication() -> dict[str, dict[str, Any]]:
    """FedADMM and FedAvg on one config and seed: in-process, and served."""
    labels = (ADMM, "fedavg")
    runs: dict[str, dict[str, Any]] = {
        "in-process": {
            label: build_simulation(SERVE, SPECS[label]).run(SERVE_ROUNDS, target_accuracy=None)
            for label in labels
        }
    }
    for workers, key in enumerate(SERVED, start=1):
        runs[key] = {
            label: Served(
                workers,
                threaded_run(
                    SERVE, SPECS[label], SERVE_ROUNDS, workers, delay_fn=joining(workers)
                )[0].status_snapshot()["counters"],
            )
            for label in labels
        }
    return runs


def _same_floats_per_round(runs) -> bool:
    admm, fedavg = (runs["in-process"][label].ledger for label in (ADMM, "fedavg"))
    return all(
        getattr(admm, name) // admm.rounds == getattr(fedavg, name) // fedavg.rounds
        for name in ("upload_floats", "download_floats")
    )


def _more_work_needs_no_more_rounds(results: dict[int, SimulationResult]) -> bool:
    # A run that misses the target counts as one round over the budget.
    rounds = {e: r.rounds_to_target or ROUNDS + 1 for e, r in results.items()}
    return min(rounds[5], rounds[10]) <= rounds[1]


def _imbalanced(comparison: ComparisonResult) -> bool:
    stats = prepare_environment(comparison.config)[2]
    return stats.std_samples > 0.3 * stats.mean_samples


UPLOAD = (
    "FedADMM uploads as many floats per round as FedAvg",
    lambda c: _upload_per_round(c.results[ADMM]) == _upload_per_round(c.results["fedavg"]),
)
LEARNS = (
    "every run's best accuracy exceeds 0.2",
    lambda result: all(r.history.best_accuracy() > 0.2 for _, r in _leaves(result)),
)
MORE_WORK = (
    "the best of E = 5, 10 needs no more rounds to target than E = 1",
    _more_work_needs_no_more_rounds,
)
TABLE1 = (
    "FedADMM's predicted rounds are below FedAvg's and SCAFFOLD's at eps <= 1e-3",
    lambda rows: all(
        rows[eps]["fedadmm"] < min(rows[eps]["fedavg"], rows[eps]["scaffold"])
        for eps in (1e-3, 1e-4)
    ),
)
IMBALANCED = (
    "the partition's volume std exceeds 0.3x its mean (Table VI)",
    _imbalanced,
)
SAME_FLOATS = (
    "in-process, FedADMM uploads and downloads as many floats per round as FedAvg",
    _same_floats_per_round,
)
SAME_WIRE = (
    "served, FedADMM is sent as many θ frames and uploads as many bytes as FedAvg",
    lambda runs: all(runs[key][ADMM].wire == runs[key]["fedavg"].wire for key in SERVED),
)
STATE_ONCE = (
    "served, FedADMM's client state crosses once per worker a run",
    lambda runs: all(
        runs[key][ADMM].counters["serve.client_state_frames"] == runs[key][ADMM].workers
        for key in SERVED
    ),
)


@dataclass(frozen=True)
class Case:
    id: str
    #: Regenerates the artefact; returns the gathered result.
    run: Callable[[], Any]
    #: The gathered keys, one tuple of values per sweep level.
    labels: tuple[tuple, ...]
    claims: tuple[tuple[str, Callable[[Any], bool]], ...] = ()
    stops_at_target: bool = True


CASES = [
    Case("table1", _table1,
         ((1e-2, 1e-3, 1e-4), ("fedavg", "fedprox", "scaffold", "fedpd", "fedadmm")),
         (TABLE1,)),
    *(
        Case(f"table3-{dataset}-{'noniid' if non_iid else 'iid'}",
             _sweep("table3", dataset, non_iid), (TABLE3,), (UPLOAD,))
        for dataset in ("mnist", "fmnist")
        for non_iid in (False, True)
    ),
    *(
        Case(f"table4-{'noniid' if non_iid else 'iid'}",
             _sweep("table4", "mnist", non_iid, epochs=(1, 5, 10)),
             ((1, 5, 10),), (MORE_WORK,))
        for non_iid in (False, True)
    ),
    Case("table5", _table5,
         ((20, 40), (ADMM, *(f"fedprox(rho={rho})" for rho in (0.01, 0.1, 1.0))))),
    Case("table6", _sweep("table6", "fmnist"),
         ((ADMM, "fedavg", PROX, "scaffold"),), (IMBALANCED, LEARNS),
         stops_at_target=False),
    Case("fig3", _sweep("fig3", "fmnist", True, populations=[20, 40],
                        algorithms=_algorithms(ADMM, "fedavg", PROX)),
         ((20, 40), (ADMM, "fedavg", PROX))),
    Case("fig4", _sweep("fig3", "fmnist", False, populations=[20, 40],
                        algorithms=_algorithms(ADMM, "fedavg", "scaffold")),
         ((20, 40), (ADMM, "fedavg", "scaffold"))),
    Case("fig5", _sweep("fig5", "fmnist",
                        algorithms=_algorithms(ADMM, "fedavg", PROX, "scaffold")),
         (("iid", "non_iid"), (ADMM, "fedavg", PROX, "scaffold"))),
    Case("fig6", lambda: STUDIES.sweep("fig6", NON_IID_MNIST, etas=(0.5, 1.0, 1.5)),
         (("eta=0.5", "eta=1.0", "eta=1.5", "eta=1.0->0.5@12"),),
         stops_at_target=False),
    Case("fig8", lambda: STUDIES.sweep("fig8", NON_IID_MNIST, etas=(1.0, 0.5)),
         (("I-warm-eta=1.0", "II-restart-eta=1.0", "I-warm-eta=0.5",
           "II-restart-eta=0.5"),), (LEARNS,), stops_at_target=False),
    Case("fig9", lambda: STUDIES.sweep("fig9", NON_IID_MNIST, rhos=[
             0.1, 0.3, PiecewiseRho(values=[0.1, 0.3], boundaries=[ROUNDS // 2])]),
         (("rho=0.1", "rho=0.3", "rho=0.1->0.3@12"),), stops_at_target=False),
    Case("ablation", lambda: run_comparison(
             NON_IID_MNIST, _algorithms(*ABLATION), stop_at_target=False),
         (ABLATION,), (LEARNS,), stops_at_target=False),
    Case("communication", _communication, (("in-process", *SERVED), (ADMM, "fedavg")),
         (SAME_FLOATS, SAME_WIRE, STATE_ONCE)),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.id)
def test_paper_claims(case: Case):
    result = case.run()
    runs = dict(_leaves(result))
    assert tuple(runs) == tuple(product(*case.labels))
    for path, run in runs.items():
        if isinstance(run, SimulationResult):
            assert len(run.history) > 0, path
            assert case.stops_at_target or run.rounds_run == ROUNDS, path
    failed = [text for text, holds in case.claims if not holds(result)]
    assert not failed, f"{case.id}: {failed}"
