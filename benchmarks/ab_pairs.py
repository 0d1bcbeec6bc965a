"""Alternating parent/change pairs of the perf ledger, and the verdict on a claim.

    python3 benchmarks/ab_pairs.py --base <rev> --workload NAME [NAME ...] \\
        --pairs N [--first-seed N0] [--seconds S] [--metric client_updates_per_s]

Side A is ``git archive <rev>`` unpacked into a temporary directory, side B
the working tree this file sits in.  Pair ``i`` runs ``python3 bench/run.py
--workload NAME --seed N0+i --trace 0`` once on each side, in a fresh process
each, and alternates which side goes first; ``--first-seed N0`` (default 0)
repeats a claim on seeds it was not found on.  After the pairs, one ``--seed
N0 --trace 1`` run a side per workload measures the layers.  For every workload
it then prints the claimed metric pair by pair, the wins, each side's median
and quartiles, and the verdict of the ``choosing-metrics`` guide, section 8:
a gain is claimed only from at least ten pairs, when B wins at least nine
tenths of them (ties count for neither) and the medians lie further apart
than A's own quartiles; then the traced runs' per-layer medians side by
side, which says in which layer a change in the claimed metric appeared.
It finishes with ``bench/compare.py A B`` over the ledgers it wrote, which
gives every other end-to-end metric its ``ok`` / ``unresolved`` / ``worse``.

Stdlib only.  Run it on an otherwise idle machine; it starts one process at
a time.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import compare  # bench/compare.py: BENCHMARK.json, the ledger reader, the verdicts

SPEC = compare.SPEC
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}
#: Fewer pairs cannot carry a claim: with one, A's quartiles are its one value.
MIN_PAIRS = 10


def unpack_revision(rev: str, target: Path) -> None:
    """The committed files of ``rev``, without touching the repository."""
    archive = target / "base.tar"
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=ROOT, check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_once(
    tree: Path, workload: str, seed: int, seconds: float, out: Path, trace: int = 0
) -> dict:
    """One ``bench/run.py`` process in ``tree``; its result as a one-workload ledger."""
    child = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {workload} seed {seed} in {tree} exited {child.returncode}:\n"
            f"{child.stdout}{child.stderr}"
        )
    return json.loads(lines[-1])


def report_claim(
    workload: str, metric: dict, a: dict, b: dict, first_seed: int = 0
) -> bool:
    """Pairs, wins, quartiles and the section-8 verdict for one workload.

    ``a`` / ``b`` are ``compare.summarise`` records: every run's value, the
    median and, with more than one pair, the quartiles; pair ``i`` ran seed
    ``first_seed + i``.  Returns whether the gain is claimed.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = list(zip(a["values"], b["values"]))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    print(f"\n## {workload}: {metric['name']} ({metric['unit']}, {metric['better']} is better)")
    for index, (x, y) in enumerate(pairs):
        first = "A" if index % 2 == 0 else "B"
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"pair {index} (seed {first_seed + index}, {first} first): "
              f"A {x:.6g}  B {y:.6g}  {change}")
    for side, record in (("A", a), ("B", b)):
        print(f"{side} median {record['value']:.6g} [q1 {record.get('q1', record['value']):.6g}, "
              f"q3 {record.get('q3', record['value']):.6g}]")
    gain = sign * (b["value"] - a["value"])
    spread = a.get("q3", a["value"]) - a.get("q1", a["value"])
    print(f"B wins {wins}/{len(pairs)} ({ties} ties); medians differ by "
          f"{gain / a['value']:+.1%} of A, A's interquartile distance is "
          f"{spread / a['value']:.1%}")
    if len(pairs) < MIN_PAIRS:
        print(f"verdict: gain NOT claimed (needs >= {MIN_PAIRS} pairs, ran {len(pairs)})")
        return False
    met = wins >= 0.9 * len(pairs) and gain > spread
    print(f"verdict: gain {'CLAIMED' if met else 'NOT claimed'} "
          f"(needs >= {0.9 * len(pairs):g} wins and medians further apart than A's quartiles)")
    return met


def report_layers(workload: str, a: dict, b: dict, seed: int = 0) -> None:
    """One traced run a side: every per-layer metric, A beside B."""
    print(f"\n## {workload}: per layer, one traced run a side (seed {seed})")
    print(f"{'metric':44s} {'A':>12s} {'B':>12s}  change")
    for name, metric in PER_LAYER.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        change = f"{(y - x) / x:+.1%}" if x else "n/a"
        print(f"{name:44s} {x:12.6g} {y:12.6g}  {change:>7s} {metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of side A")
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0,
                        help="seed of pair 0 and of the traced runs; pair i runs seed N + i")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--metric", default="client_updates_per_s", choices=sorted(END_TO_END))
    parser.add_argument("--out", type=Path, default=ROOT / "benchmarks" / "results" / "ab_pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    sides = {"A": args.out / "A", "B": args.out / "B"}
    for path in sides.values():  # an earlier, longer run must not be counted
        shutil.rmtree(path, ignore_errors=True)
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        unpack_revision(args.base, Path(scratch))
        trees = {"A": Path(scratch), "B": ROOT}
        for index in range(args.pairs):
            seed = args.first_seed + index
            ledgers = {side: {"seed": seed, "workloads": {}} for side in sides}
            for workload in args.workload:
                for side in ("AB" if index % 2 == 0 else "BA"):
                    out = (sides[side] / f"{index:03d}").resolve()
                    result = run_once(trees[side], workload, seed, args.seconds, out)
                    ledgers[side]["workloads"][workload] = {"end_to_end": result}
                    print(f"pair {index} {side} {workload}: {args.metric} = "
                          f"{result['metrics'][args.metric]['value']:.6g}, "
                          f"{result['failed']}/{result['attempted']} failed", flush=True)
            for side, ledger in ledgers.items():
                path = sides[side] / f"{index:03d}" / f"ledger_seed{seed}.json"
                path.write_text(json.dumps(ledger, indent=1) + "\n")
        layers = {
            (side, workload): run_once(
                trees[side], workload, args.first_seed, args.seconds,
                (sides[side] / "trace").resolve(), trace=1,
            )
            for workload in args.workload
            for side in "AB"
        }

    runs = {side: compare.load_side(path) for side, path in sides.items()}
    for workload in args.workload:
        a, b = (compare.summarise(runs[side], workload, args.metric) for side in "AB")
        report_claim(workload, END_TO_END[args.metric], a, b, args.first_seed)
        report_layers(
            workload, layers["A", workload], layers["B", workload], args.first_seed
        )
        moved = [
            name
            for name in sorted(compare.EXACT)
            if compare.summarise(runs["A"], workload, name)["values"]
            != compare.summarise(runs["B"], workload, name)["values"]
        ]
        print(f"clock-independent metrics equal in every pair: "
              f"{'yes' if not moved else 'NO: ' + ', '.join(moved)}")
    print(f"\n## bench/compare.py {sides['A']} {sides['B']}")
    # compare.py walks every workload BENCHMARK.json declares; these ledgers
    # hold the ones measured here.
    SPEC["workloads"] = [w for w in SPEC["workloads"] if w["name"] in args.workload]
    return compare.main([str(sides["A"]), str(sides["B"])])


if __name__ == "__main__":
    sys.exit(main())
