"""Validate a Chrome trace produced by ``repro --trace``.

Stdlib-only (no ``repro`` import, no PYTHONPATH) so CI can sanity-check
the observability smoke artifact with a bare ``python``::

    python benchmarks/check_trace.py run.trace.json [run.trace.json.spans.jsonl]

Checks, in order:

* the file is Chrome ``trace_event`` JSON: a ``traceEvents`` list of
  complete (``"ph": "X"``) events with numeric, non-negative ``ts``/``dur``
  and ``pid``/``tid``/``args``;
* span identity: every ``args.span_id`` is unique and every non-null
  ``args.parent_id`` resolves to another span in the same trace;
* the span tree matches the runtime's instrumentation contract —
  ``client_task`` spans hang off ``round`` spans (or the ``shard`` spans
  the hierarchical plan nests inside each round), ``local_sgd`` off
  ``client_task``, ``compress``/``aggregate`` off ``round``/``shard``,
  and ``round`` off the top-level ``run`` span;
* every ``local_sgd`` span says how much work it timed: ``args.steps`` and
  ``args.epochs`` are positive integers (duration / steps = time per SGD
  step in that deployment shape);
* (optional second argument) the JSON-lines span log names the same span
  ids as the Chrome trace and is sorted by ``(virtual time, seq)``, the
  tracer's total order.

Exit status 0 when every check passes, 1 otherwise (failures listed on
stderr).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: parent span names allowed for each child span name (the runtime's
#: round -> client_task -> local_sgd nesting contract; the hierarchical
#: plan inserts a shard tier between round and the per-client work).
EXPECTED_PARENT = {
    "client_task": ("round", "shard"),
    "local_sgd": ("client_task",),
    "compress": ("round", "shard"),
    "aggregate": ("round",),
    "shard": ("round",),
    "round": ("run",),
}

REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "dur", "pid", "tid", "args")


def _sort_key(payload: dict) -> tuple[float, int]:
    """Mirror ``SpanRecord.sort_key`` on a raw span-log payload."""
    virtual = payload.get("virtual_end_s")
    if virtual is None:
        virtual = payload.get("virtual_start_s")
    if virtual is None:
        virtual = -1.0
    return (float(virtual), int(payload.get("seq", 0)))


def check_chrome_trace(path: Path) -> tuple[list[str], dict[str, dict]]:
    """Validate the Chrome trace; returns (failures, spans by span_id)."""
    failures: list[str] = []
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: unreadable ({error})"], {}

    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return [f"{path}: no traceEvents list (or empty)"], {}

    spans: dict[str, dict] = {}
    for index, event in enumerate(events):
        where = f"{path}: traceEvents[{index}]"
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            failures.append(f"{where}: missing keys {missing}")
            continue
        if event["ph"] != "X":
            failures.append(f"{where}: ph={event['ph']!r}, expected complete 'X'")
        for key in ("ts", "dur"):
            value = event[key]
            if not isinstance(value, (int, float)) or value < 0:
                failures.append(f"{where}: {key}={value!r} not a non-negative number")
        args = event["args"]
        span_id = args.get("span_id")
        if not span_id:
            failures.append(f"{where}: args.span_id missing/empty")
            continue
        if span_id in spans:
            failures.append(f"{where}: duplicate span_id {span_id}")
            continue
        spans[span_id] = event

    # Parentage: ids resolve, and names nest per the runtime contract.
    for span_id, event in spans.items():
        name = event["name"]
        parent_id = event["args"].get("parent_id")
        if parent_id is None:
            if name in EXPECTED_PARENT:
                failures.append(
                    f"{path}: {name} span {span_id} is a root; expected a "
                    f"{' or '.join(EXPECTED_PARENT[name])} parent"
                )
            continue
        parent = spans.get(parent_id)
        if parent is None:
            failures.append(
                f"{path}: span {span_id} ({name}) parent {parent_id} "
                f"not in trace"
            )
            continue
        expected = EXPECTED_PARENT.get(name)
        if expected is not None and parent["name"] not in expected:
            failures.append(
                f"{path}: {name} span {span_id} nests under "
                f"{parent['name']!r}, expected "
                f"{' or '.join(repr(e) for e in expected)}"
            )

    for span_id, event in spans.items():
        if event["name"] != "local_sgd":
            continue
        for key in ("steps", "epochs"):
            value = event["args"].get(key)
            if type(value) is not int or value <= 0:
                failures.append(
                    f"{path}: local_sgd span {span_id} has {key}={value!r}, "
                    f"expected a positive integer"
                )

    names = [event["name"] for event in spans.values()]
    for required in ("run", "round", "client_task"):
        if required not in names:
            failures.append(f"{path}: no {required!r} span recorded")
    return failures, spans


def check_span_log(path: Path, spans: dict[str, dict]) -> list[str]:
    """Validate the JSON-lines span log against the Chrome trace."""
    failures: list[str] = []
    try:
        lines = [line for line in path.read_text().splitlines() if line.strip()]
    except OSError as error:
        return [f"{path}: unreadable ({error})"]
    payloads = []
    for number, line in enumerate(lines, start=1):
        try:
            payloads.append(json.loads(line))
        except json.JSONDecodeError as error:
            failures.append(f"{path}:{number}: not JSON ({error})")
    log_ids = {payload.get("span_id") for payload in payloads}
    if spans and log_ids != set(spans):
        failures.append(
            f"{path}: span ids disagree with the Chrome trace "
            f"({len(log_ids)} vs {len(spans)})"
        )
    keys = [_sort_key(payload) for payload in payloads]
    if keys != sorted(keys):
        failures.append(f"{path}: records not sorted by (virtual time, seq)")
    return failures


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print(
            "usage: python benchmarks/check_trace.py TRACE.json [SPANS.jsonl]",
            file=sys.stderr,
        )
        return 1
    failures, spans = check_chrome_trace(Path(argv[0]))
    if len(argv) == 2:
        failures.extend(check_span_log(Path(argv[1]), spans))
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    names: dict[str, int] = {}
    for event in spans.values():
        names[event["name"]] = names.get(event["name"], 0) + 1
    breakdown = ", ".join(f"{name}={count}" for name, count in sorted(names.items()))
    print(f"OK {len(spans)} spans ({breakdown})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
