"""The perf ledger's one command.

Driver form (one workload, one process, as ``BENCHMARK.json``'s contract
runs it)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the workload with the outside-in probes installed and
reports the per-layer metrics.  Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Ledger form (no ``--workload``) runs every workload in both modes, each in a
fresh child process, prints the tables and writes ``<out>/ledger_seed<N>.json``
for ``compare.py``; ``--smoke`` does the same in-process with K=2, R=1.
"""

from __future__ import annotations

import os

# One BLAS thread: the workloads' own parallelism (cohort threads, worker
# threads) is what is being measured, and two BLAS threads on two cores
# double the CPU time for the same wall time and twice the noise.
BLAS_PINNING = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINNING)  # before numpy loads its BLAS

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: the program's source is not at {ROOT / 'src'}")
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import numpy as np

import checks
import measure
from harness import run_repeat
from workloads import BY_NAME, WORKLOADS, Workload

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

WARMUP_ROUNDS = 5
SMOKE_ROUNDS = 2


def repeat_until(deadline_s: float, one_repeat) -> list:
    """Run repeats for ``deadline_s``; never start one that cannot finish.

    At least one repeat runs.
    """
    started = time.perf_counter()
    results, longest = [], 0.0
    while not results or time.perf_counter() - started + longest <= deadline_s:
        repeat_started = time.perf_counter()
        results.append(one_repeat())
        longest = max(longest, time.perf_counter() - repeat_started)
    return results


def warm_up(workload: Workload, seed: int) -> None:
    """A short discarded repeat: imports, BLAS and allocator warm."""
    run_repeat(workload.shrunk(min(workload.rounds, WARMUP_ROUNDS)), seed)


def measure_end_to_end(workload: Workload, seed: int, seconds: float):
    """Timed untraced repeats, then RSS; returns (records, repeats)."""
    repeats = repeat_until(seconds, lambda: run_repeat(workload, seed))
    records = measure.end_to_end(workload, repeats)
    records["peak_rss_mb"] = {"value": measure.peak_rss_mb()}
    return records, repeats


def measure_per_layer(workload: Workload, seed: int, seconds: float, out: Path):
    """Untraced base, store and memory passes, then traced repeats."""
    started = time.perf_counter()
    base = [run_repeat(workload, seed)]
    if seconds:  # a second base repeat steadies trace.overhead_share
        base.append(run_repeat(workload, seed))
    values = measure.store_pass(workload, seed, base[-1], out)
    values["mem.peak_traced_kb"] = measure.memory_pass(workload, seed)
    traced = repeat_until(
        seconds - (time.perf_counter() - started),
        lambda: measure.traced_repeat(workload, seed),
    )
    per_repeat = [
        measure.layer_metrics(workload, repeat, probes) for repeat, probes in traced
    ]
    for name in per_repeat[0]:
        values[name] = statistics.median(sample[name] for sample in per_repeat)
    values["trace.overhead_share"] = (
        statistics.median(measure.scaled(workload, repeat)[1] for repeat, _ in traced)
        / statistics.median(measure.scaled(workload, repeat)[1] for repeat in base)
        - 1.0
    )
    # Spans stay in memory during the run and are written once, here.
    traced[-1][1].tracer.write_chrome_trace(out / f"trace_{workload.name}.json")
    records = {name: {"value": value} for name, value in values.items()}
    return records, [repeat for repeat, _ in traced]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool, out: Path
) -> dict:
    """Measure one workload in this process; returns the result object."""
    workload = BY_NAME[name]
    if smoke:  # K=2, one repeat of each kind, no warm-up
        workload, seconds = workload.shrunk(SMOKE_ROUNDS), 0.0
    else:
        warm_up(workload, seed)
    out.mkdir(parents=True, exist_ok=True)
    if trace:
        records, repeats = measure_per_layer(workload, seed, seconds, out)
        declared = PER_LAYER
    else:
        records, repeats = measure_end_to_end(workload, seed, seconds)
        declared = END_TO_END
    failures = checks.check_workload(workload, seed, repeats)
    for metric, record in records.items():
        if not np.isfinite(record["value"]):
            failures.append(f"{workload.name}: metric {metric} is not finite")
    attempted = sum(repeat.updates_attempted for repeat in repeats)
    lost = sum(
        repeat.updates_attempted - repeat.updates_completed + repeat.wire_failures
        for repeat in repeats
    )
    failed = min(attempted, lost + len(failures))
    if not trace:
        records["completed_ops_share"] = {"value": 1.0 - failed / attempted}
    if set(records) != set(declared):
        raise SystemExit(
            f"metrics out of step with BENCHMARK.json: "
            f"{sorted(set(records) ^ set(declared))}"
        )
    records = {  # in the file's order, with the file's units
        metric: {**records[metric], "unit": declaration["unit"]}
        for metric, declaration in declared.items()
    }
    (out / f"samples_{workload.name}_trace{int(trace)}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "repeats": [
                    {
                        "setup_s": repeat.setup_s,
                        "setup_speed": repeat.setup_speed,
                        "round_s": repeat.round_s,
                        "round_cpu_s": repeat.round_cpu_s,
                        "speed": repeat.speed,
                        "tail_s": repeat.tail_s,
                        "digest": repeat.digest(),
                    }
                    for repeat in repeats
                ],
            }
        )
    )
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": records,
        "failures": failures,
    }


def print_result(name: str, result: dict) -> None:
    print(f"# {name}: {result['attempted']} client updates attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for metric, record in result["metrics"].items():
        spread = (
            f"  (per repeat: q1 {record['q1']:.6g}, q3 {record['q3']:.6g}, n={record['n']})"
            if "q1" in record
            else ""
        )
        print(f"{metric:42s} {record['value']:>14.6g} {record['unit']}{spread}")
    for line in result["failures"]:
        print(f"FAILED CHECK {line}")


def contract_line(result: dict) -> str:
    """The last stdout line: exactly the keys the contract names."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": record["value"], "unit": record["unit"]}
                for name, record in result["metrics"].items()
            },
        }
    )


def environment() -> dict:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "blas_pinning": BLAS_PINNING,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit.stdout.strip() if commit.returncode == 0 else None,
    }


def run_child(name: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """One workload in a fresh process, so RSS and caches are its own."""
    child = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--out", str(out), "--full-json",
        ],
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = child.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name} (trace={int(trace)}) printed nothing:\n{child.stderr}")
    return json.loads(lines[-1])


def run_ledger(seed: int, seconds: float, smoke: bool, out: Path) -> int:
    """Every workload, both modes; writes the ledger file compare.py reads."""
    out.mkdir(parents=True, exist_ok=True)
    ledger = {"seed": seed, "smoke": smoke, "environment": environment(), "workloads": {}}
    for workload in WORKLOADS:
        modes = {}
        for trace in (False, True):
            if smoke:
                result = run_workload(workload.name, seed, 0.0, trace, True, out)
            else:
                result = run_child(workload.name, seed, seconds, trace, out)
            print_result(f"{workload.name} trace={int(trace)}", result)
            modes["per_layer" if trace else "end_to_end"] = result
        attempted = sum(mode["attempted"] for mode in modes.values())
        failed = sum(mode["failed"] for mode in modes.values())
        ledger["workloads"][workload.name] = {
            **modes,
            "failed_ops_share": failed / attempted,
        }
        print(f"{'failed_ops_share':42s} {failed / attempted:>14.6g} fraction\n")
    path = out / ("ledger_smoke.json" if smoke else f"ledger_seed{seed}.json")
    path.write_text(json.dumps(ledger, indent=1) + "\n")
    print(f"wrote {path}")
    correct = all(
        mode["correct"]
        for entry in ledger["workloads"].values()
        for mode in (entry["end_to_end"], entry["per_layer"])
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="K=2, R=1, no warm-up: a seconds-scale pass over everything")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--full-json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload is None:
        return run_ledger(args.seed, args.seconds, args.smoke, args.out)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.out
    )
    print_result(args.workload, result)
    print(json.dumps(result) if args.full_json else contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
