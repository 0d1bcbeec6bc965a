"""Compare two sets of ledgers: ``python3 bench/compare.py A B``.

A is the base (the parent commit, or the first of two run sets), B the
candidate.  Each is a ledger file written by ``run.py`` or a directory
holding several, one per run (``ledger_*.json`` at any depth, so that runs
written with ``--out A/1``, ``--out A/2`` ... compare as ``A``).  For every workload x end-to-end
metric the metric's direction and bound come from ``BENCHMARK.json``; one row
prints both medians, their quartiles and a verdict:

* ``worse``      -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- it is not, but either side's spread (q3 - q1 over the
  median) is wider than the bound, so "unchanged" cannot be claimed -- unless
  every run of B reads better than every run of A;
* ``ok``         -- otherwise.

With several runs on a side the median and quartiles are taken over the
runs' values, which is the run-to-run spread the verdicts are about.  With a
single run they are that run's own: the quartiles of its per-repeat values,
which are wider than a median's spread from run to run, so a lone pair of
ledgers reports ``unresolved`` sooner than several pairs would.

When every ledger has the same seed the inputs are identical, so the metrics
that do not depend on the clock (bytes per round, rounds to target, final
accuracy, completed operations) must not get worse at all.  Exits 1 on any
``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Clock-independent metrics: exact functions of the seed.
EXACT = {
    "upload_bytes_per_round",
    "download_bytes_per_round",
    "rounds_to_target",
    "final_accuracy",
    "completed_ops_share",
}


def load_side(path: Path) -> list[dict]:
    """The ledgers of one side: a file, or every ledger in a directory."""
    files = sorted(path.rglob("ledger_*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no ledger_*.json in {path}")
    return [json.loads(file.read_text()) for file in files]


def summarise(runs: list[dict], workload: str, metric: str) -> dict:
    """One side's median, quartiles and per-run values of one metric."""
    records = [
        run["workloads"][workload]["end_to_end"]["metrics"][metric] for run in runs
    ]
    values = [record["value"] for record in records]
    if len(records) == 1:
        return {**records[0], "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "q1": q1, "q3": q3, "values": values}


def worsening(base: float, candidate: float, better: str) -> float:
    """By what share of the base the candidate is worse (negative = better)."""
    delta = candidate - base if better == "lower" else base - candidate
    return delta / abs(base) if base else (float("inf") if delta > 0 else 0.0)


def spread(record: dict) -> float:
    if "q1" not in record or not record["value"]:
        return 0.0
    return (record["q3"] - record["q1"]) / abs(record["value"])


def verdict(metric: dict, base: dict, candidate: dict, same_seed: bool) -> str:
    bound = 0.0 if same_seed and metric["name"] in EXACT else metric["bound"]
    if worsening(base["value"], candidate["value"], metric["better"]) > bound:
        return "worse"
    every_run_better = all(
        worsening(a, b, metric["better"]) < 0
        for a in base["values"]
        for b in candidate["values"]
    )
    if max(spread(base), spread(candidate)) > metric["bound"] and not every_run_better:
        return "unresolved"
    return "ok"


def compare(base: list[dict], candidate: list[dict]) -> tuple[list[tuple], int]:
    """Rows ``(workload, metric, A, B, verdict)`` and the worse count."""
    same_seed = len({run["seed"] for run in base + candidate}) == 1
    rows, worse = [], 0
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for metric in SPEC["end_to_end"]:
            a = summarise(base, name, metric["name"])
            b = summarise(candidate, name, metric["name"])
            result = verdict(metric, a, b, same_seed)
            rows.append((name, metric, a, b, result))
            worse += result == "worse"
    return rows, worse


def _cell(record: dict) -> str:
    text = f"{record['value']:.6g}"
    if "q1" in record:
        text += f" [{record['q1']:.4g}, {record['q3']:.4g}]"
    return text


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A B   (ledger files or directories)",
              file=sys.stderr)
        return 2
    base, candidate = (load_side(Path(path)) for path in argv)
    rows, worse = compare(base, candidate)
    print(f"A: {len(base)} run(s), B: {len(candidate)} run(s)")
    print(f"{'workload':13s} {'metric':26s} {'A median [q1, q3]':34s} "
          f"{'B median [q1, q3]':34s} {'B vs A':>8s}  verdict")
    for name, metric, a, b, result in rows:
        change = worsening(a["value"], b["value"], metric["better"])
        print(f"{name:13s} {metric['name']:26s} {_cell(a):34s} {_cell(b):34s} "
              f"{-change:>+8.1%}  {result}")
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved "
          f"(B vs A: positive = better)")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
