"""Smoke test: ``bench/run.py --smoke`` still yields every named metric.

Runs the ledger command at K=2, R=1 and asserts that every workload,
end-to-end metric and layer metric named in ``BENCHMARK.json`` is present and
finite, that the checks pass, and that each traced repeat left a loadable
Chrome trace -- so the benchmark cannot rot unnoticed between perf PRs.
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _check_trace_module():
    spec = importlib.util.spec_from_file_location(
        "ledger_check_trace", ROOT / "benchmarks" / "check_trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_ledger_reports_every_named_metric(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    ledger = json.loads((tmp_path / "ledger_smoke.json").read_text())

    assert list(ledger["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    check_trace = _check_trace_module()
    for name, entry in ledger["workloads"].items():
        for mode, declared in (
            ("end_to_end", SPEC["end_to_end"]),
            ("per_layer", SPEC["per_layer"]),
        ):
            result = entry[mode]
            assert result["correct"], (name, mode, result["failures"])
            assert result["attempted"] >= 1 and result["failed"] == 0
            metrics = result["metrics"]
            assert set(metrics) == {metric["name"] for metric in declared}
            for metric in declared:
                record = metrics[metric["name"]]
                assert record["unit"] == metric["unit"]
                assert math.isfinite(record["value"]), (name, metric["name"])
        assert entry["failed_ops_share"] == 0
        for metric in SPEC["end_to_end"]:
            # The contract asks for end-to-end metrics that are never 0.
            assert entry["end_to_end"]["metrics"][metric["name"]]["value"] > 0

        # The traced repeat's spans load, have unique ids and resolvable
        # parents; the program's own client_task spans are off by design.
        failures, spans = check_trace.check_chrome_trace(tmp_path / f"trace_{name}.json")
        assert [line for line in failures if "client_task" not in line] == []
        assert {"run", "round"} <= {event["name"] for event in spans.values()}
