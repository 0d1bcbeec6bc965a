"""Shared helpers for the benchmark suite.

The suite measures speed (kernels, executors, the sweep orchestrator, the
serve layer, million-client scale) and the multi-seed claims (async
staleness, systems heterogeneity, robustness); each benchmark writes a
``BENCH_<name>.json`` summary that the baseline gate below compares.  The
paper's tables and figures are not here: their claims are the cases of
``tests/test_paper_claims.py``, and ``repro <study>`` prints any of them.
pytest-benchmark measures the wall-clock cost; ``run_once`` keeps each
experiment to a single measured iteration since a federated sweep is far
too expensive to repeat many times.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterator

BENCH_SEED = 0

#: Where the machine-readable per-benchmark summaries land.  One
#: ``BENCH_<name>.json`` per benchmark invocation, so the perf/metric
#: trajectory can be tracked across PRs (CI uploads the directory as an
#: artifact; it is gitignored locally).
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Committed reference summaries the CI regression gate compares against.
#: Refresh with ``python benchmarks/refresh_baselines.py`` after an
#: intentional perf/metric change (see docs/tutorials/fast-sweeps.md).
BASELINES_DIR = Path(__file__).resolve().parent / "baselines"

#: Default relative regression tolerated by :func:`compare_to_baseline`.
DEFAULT_TOLERANCE = 0.20


def run_once(benchmark, func: Callable[[], Any]) -> Any:
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def print_header(title: str) -> None:
    """Print a visually separated section header in the benchmark output."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def _wall_seconds(benchmark) -> float | None:
    """Total measured seconds from a pytest-benchmark fixture, if available."""
    try:
        return float(benchmark.stats.stats.total)
    except AttributeError:
        return None


def emit_summary(name: str, payload: dict[str, Any], benchmark=None) -> Path:
    """Write ``BENCH_<name>.json`` with the benchmark's headline numbers.

    ``payload`` should hold the regenerated metrics a future PR wants to
    diff (rounds-to-target, accuracies, simulated seconds, ...); the
    measured wall-clock is attached automatically when the
    pytest-benchmark fixture is passed.  Returns the written path.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    summary: dict[str, Any] = {"bench": name}
    if benchmark is not None:
        wall = _wall_seconds(benchmark)
        if wall is not None:
            summary["wall_seconds"] = wall
    summary.update(payload)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return path


# --------------------------------------------------------------------------- #
# Baseline regression gate
# --------------------------------------------------------------------------- #
def _flatten_metrics(payload: Any, prefix: str = "") -> Iterator[tuple[str, float]]:
    """Yield ``(dotted.key, value)`` for every numeric leaf in a summary."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _flatten_metrics(value, f"{prefix}{key}.")
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            yield from _flatten_metrics(value, f"{prefix}{index}.")
    elif isinstance(payload, bool):
        return
    elif isinstance(payload, (int, float)):
        yield prefix.rstrip("."), float(payload)


def metric_direction(key: str) -> str | None:
    """Which way a metric may move without regressing.

    ``"higher"`` — speedups and accuracies must not drop;
    ``"lower"`` — wall-clock/simulated seconds and rounds-to-target must
    not grow; ``None`` — the metric is informational and not gated
    (counts, parameters, configuration echoes).

    Matched against the *whole* dotted path, not just the leaf: summaries
    routinely nest the headline metric over per-algorithm dicts
    (``rounds_to_target.fedavg``, ``final_accuracies.fedprox(rho=0.1)``),
    and those must gate exactly like their scalar spellings.  Time-like
    patterns win ties because ``seconds_to_target``-style metrics are
    durations however the name continues.
    """
    if "seconds" in key or "rounds_to_target" in key or "latency" in key:
        return "lower"
    if "speedup" in key or "accurac" in key:
        return "higher"
    if "per_sec" in key or "throughput" in key:
        return "higher"
    return None


def compare_to_baseline(
    results_dir: Path = RESULTS_DIR,
    baselines_dir: Path = BASELINES_DIR,
    tolerance: float = DEFAULT_TOLERANCE,
    only: list[str] | None = None,
) -> list[str]:
    """Compare fresh ``BENCH_*.json`` summaries against committed baselines.

    For every baseline file, the same-named file must exist under
    ``results_dir`` (a missing result means the gated benchmark silently
    stopped running — that *is* a failure) and every gated metric present
    in both must not regress by more than ``tolerance`` (relative):
    lower-is-better metrics must stay below ``baseline * (1 + tolerance)``
    and higher-is-better ones above ``baseline / (1 + tolerance)`` — the
    symmetric form, so a 25% slowdown trips the gate whether it shows up
    as seconds growing or as a speedup ratio shrinking.  Metrics absent
    from the *baseline* are skipped — that is how baselines deliberately
    omit machine-dependent numbers (``refresh_baselines.py`` strips
    absolute timings by default) — but a gated baseline metric missing
    from the *fresh* result fails: a renamed or nulled metric must not
    silently disable its own gate.

    Returns a list of human-readable failure lines; empty means the gate
    passes.  Intentional regressions are merged by refreshing the baseline
    and labelling the PR ``allow-bench-regression`` (see ci.yml).
    """
    failures: list[str] = []
    baselines = sorted(baselines_dir.glob("BENCH_*.json"))
    if only is not None:
        # A CI job that only ran a subset of the benchmarks gates only
        # those files; a name with no committed baseline is a config
        # error, not a silent no-op.
        wanted = set(only)
        missing = wanted - {path.name for path in baselines}
        if missing:
            return [
                f"--only names without a committed baseline: "
                f"{', '.join(sorted(missing))}"
            ]
        baselines = [path for path in baselines if path.name in wanted]
    if not baselines:
        return [f"no baselines found under {baselines_dir}"]
    for baseline_path in baselines:
        current_path = results_dir / baseline_path.name
        if not current_path.exists():
            failures.append(
                f"{baseline_path.name}: no fresh result in {results_dir} "
                f"(did the gated benchmark run?)"
            )
            continue
        baseline = dict(_flatten_metrics(json.loads(baseline_path.read_text())))
        current = dict(_flatten_metrics(json.loads(current_path.read_text())))
        for key, reference in baseline.items():
            direction = metric_direction(key)
            if direction is None:
                continue
            if key not in current:
                # A gated metric that vanished (renamed, restructured, or
                # a null where the baseline has a number) would otherwise
                # silently disable its own gate.
                failures.append(
                    f"{baseline_path.name}: gated metric {key} missing "
                    f"from the fresh result (baseline {reference:g})"
                )
                continue
            value = current[key]
            if direction == "higher":
                regressed = value < reference / (1.0 + tolerance)
            else:
                limit = reference * (1.0 + tolerance)
                if "rounds_to_target" in key:
                    # Round counts are discrete and often tiny (a baseline
                    # of 1 would fail on *any* shift at a relative gate):
                    # always allow one round of absolute slack.
                    limit = max(limit, reference + 1.0)
                regressed = value > limit
            if regressed:
                failures.append(
                    f"{baseline_path.name}: {key} regressed "
                    f"({direction} is better): baseline {reference:g} -> "
                    f"current {value:g} (tolerance {tolerance:.0%})"
                )
    return failures


def speedup_summary(
    serial_seconds: float, parallel_seconds: float, jobs: int
) -> dict[str, Any]:
    """Wall-clock speedup record for a parallel-vs-serial measurement.

    ``speedup`` is serial time over parallel time (>1 means the parallel
    run won); ``cpu_count`` is recorded alongside because the measurement
    is only meaningful relative to the cores that were available — on a
    single-core runner a process pool cannot beat the serial loop.
    """
    return {
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": (
            round(serial_seconds / parallel_seconds, 3)
            if parallel_seconds > 0
            else None
        ),
    }
