"""Structured tracing: nested spans over wall and virtual clocks.

A :class:`Tracer` produces :class:`SpanRecord` s — picklable, plain-data
descriptions of one timed operation.  Spans nest through a per-thread
stack, so ``with tracer.span("round"): with tracer.span("compress"): ...``
records the ``compress`` span as a child of the ``round`` span without any
explicit parent bookkeeping.  Each record carries

* **wall clock** — a Unix-epoch start plus a ``perf_counter``-measured
  duration, and
* **virtual clock** — the simulator's clock at open/close, read from the
  tracer's ``virtual_clock`` callable (the async/semi-sync plans point it
  at their scheduler's ``now``; the sync plan at cumulative simulated
  seconds), or passed explicitly.

Records created *outside* the tracer — by client executors running tasks
in worker threads or processes — are merged back with :meth:`Tracer.adopt`:
orphan roots are re-parented under the caller's open span and every record
gets a fresh position in the tracer's global FIFO sequence, so the final
span log is totally ordered by ``(virtual time, seq)`` no matter where the
work physically ran.

Exports: :meth:`Tracer.chrome_trace` writes the Chrome ``trace_event``
format (open in ``chrome://tracing`` or https://ui.perfetto.dev), and
:meth:`Tracer.write_span_log` a JSON-lines file of raw records.  Both
round-trip: :func:`load_chrome_trace` / :func:`read_span_log` reconstruct
the records, which the tests and ``benchmarks/check_trace.py`` lean on.

:class:`NullTracer` is the disabled mode: ``span()`` returns a shared
inert context manager and ``emit``/``adopt`` do nothing, so a traced code
path costs one attribute lookup and one no-op ``with`` when tracing is
off (measured in ``benchmarks/test_bench_obs_overhead.py``).
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.utils.serialization import dumps_strict

#: Span attribute values must stay JSON-serialisable primitives so records
#: pickle cheaply and export losslessly.
AttrValue = Any


@dataclass
class SpanRecord:
    """One finished span: plain data, picklable across process boundaries."""

    name: str
    category: str = "sim"
    span_id: str = ""
    parent_id: str | None = None
    start_s: float = 0.0  #: Unix-epoch wall-clock at open.
    duration_s: float = 0.0  #: ``perf_counter``-measured wall duration.
    virtual_start_s: float | None = None
    virtual_end_s: float | None = None
    pid: int = 0
    tid: int = 0
    seq: int = 0  #: Global FIFO position assigned by the owning tracer.
    attrs: dict[str, AttrValue] = field(default_factory=dict)

    def sort_key(self) -> tuple[float, int]:
        """Total order: virtual time first, FIFO sequence among ties.

        Records without a virtual clock sort by wall-clock start, which for
        single-process traces preserves emission order.
        """
        virtual = (
            self.virtual_end_s
            if self.virtual_end_s is not None
            else (self.virtual_start_s if self.virtual_start_s is not None else -1.0)
        )
        return (virtual, self.seq)

    def to_payload(self) -> dict:
        """JSON-safe dict (the span-log line format)."""
        return {
            "name": self.name,
            "cat": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "virtual_start_s": self.virtual_start_s,
            "virtual_end_s": self.virtual_end_s,
            "pid": self.pid,
            "tid": self.tid,
            "seq": self.seq,
            "attrs": self.attrs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SpanRecord":
        return cls(
            name=payload["name"],
            category=payload.get("cat", "sim"),
            span_id=payload.get("span_id", ""),
            parent_id=payload.get("parent_id"),
            start_s=float(payload.get("start_s", 0.0)),
            duration_s=float(payload.get("duration_s", 0.0)),
            virtual_start_s=payload.get("virtual_start_s"),
            virtual_end_s=payload.get("virtual_end_s"),
            pid=int(payload.get("pid", 0)),
            tid=int(payload.get("tid", 0)),
            seq=int(payload.get("seq", 0)),
            attrs=dict(payload.get("attrs", {})),
        )


def new_span_id() -> str:
    """A collision-safe span id, unique across processes."""
    return f"{os.getpid():x}-{uuid.uuid4().hex[:12]}"


class _ActiveSpan:
    """Context manager for one open span; ``set`` attaches attributes."""

    __slots__ = ("_tracer", "record", "_start_perf")

    def __init__(self, tracer: "Tracer", record: SpanRecord):
        self._tracer = tracer
        self.record = record
        self._start_perf = 0.0

    def set(self, key: str, value: AttrValue) -> None:
        """Attach one attribute to the span."""
        self.record.attrs[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self._start_perf = time.perf_counter()
        self.record.start_s = time.time()
        if self._tracer.virtual_clock is not None:
            self.record.virtual_start_s = float(self._tracer.virtual_clock())
        self._tracer._push(self.record)
        return self

    def __exit__(self, *exc_info) -> None:
        self.record.duration_s = time.perf_counter() - self._start_perf
        if self._tracer.virtual_clock is not None:
            self.record.virtual_end_s = float(self._tracer.virtual_clock())
        elif self.record.virtual_start_s is not None:
            self.record.virtual_end_s = self.record.virtual_start_s
        self._tracer._pop(self.record)


class _NullSpan:
    """Shared inert span: the entire cost of tracing when disabled."""

    __slots__ = ()

    def set(self, key: str, value: AttrValue) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects nested :class:`SpanRecord` s with deterministic ordering.

    Thread-safe: the record list and FIFO counter are lock-protected, and
    span parentage follows a *per-thread* stack so concurrent threads each
    nest their own spans correctly.
    """

    enabled = True

    def __init__(self, virtual_clock: Callable[[], float] | None = None):
        #: Read at span open/close to stamp the simulator's virtual clock.
        #: Plans with a scheduler point this at ``scheduler.now``.
        self.virtual_clock = virtual_clock
        self._records: list[SpanRecord] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    # Span creation
    # ------------------------------------------------------------------ #
    def span(self, name: str, category: str = "sim", virtual: float | None = None,
             **attrs: AttrValue) -> _ActiveSpan:
        """Open a span as a context manager; closes (and records) on exit."""
        record = SpanRecord(
            name=name,
            category=category,
            span_id=new_span_id(),
            parent_id=self.current_span_id(),
            virtual_start_s=virtual,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFF,
            attrs=dict(attrs),
        )
        return _ActiveSpan(self, record)

    def emit(
        self,
        name: str,
        category: str = "sim",
        duration_s: float = 0.0,
        start_s: float | None = None,
        virtual_start_s: float | None = None,
        virtual_end_s: float | None = None,
        parent_id: str | None = None,
        **attrs: AttrValue,
    ) -> SpanRecord:
        """Record a span directly, without opening a context.

        Used where the operation's extent is known only after the fact —
        scheduler flight times on the virtual clock, orchestrator spec
        durations measured inside worker processes.
        """
        record = SpanRecord(
            name=name,
            category=category,
            span_id=new_span_id(),
            parent_id=parent_id if parent_id is not None else self.current_span_id(),
            start_s=time.time() - duration_s if start_s is None else start_s,
            duration_s=duration_s,
            virtual_start_s=virtual_start_s,
            virtual_end_s=virtual_end_s,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFF,
            attrs=dict(attrs),
        )
        self._append(record)
        return record

    def adopt(self, records: Iterable[SpanRecord], parent_id: str | None = None) -> None:
        """Merge records produced elsewhere (worker threads/processes).

        Orphan roots (``parent_id is None``) are re-parented under
        ``parent_id`` — by default the caller's currently open span — while
        parent links *within* the batch (e.g. a worker's ``local_sgd``
        under its ``client_task``) are preserved.  Every record is assigned
        a fresh position in this tracer's global FIFO sequence, in batch
        order.
        """
        adopt_under = parent_id if parent_id is not None else self.current_span_id()
        batch = list(records)
        own_ids = {record.span_id for record in batch}
        with self._lock:
            for record in batch:
                if record.parent_id is None or record.parent_id not in own_ids:
                    if record.parent_id is None:
                        record.parent_id = adopt_under
                self._seq += 1
                record.seq = self._seq
                self._records.append(record)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def current_span_id(self) -> str | None:
        """Id of this thread's innermost open span, or ``None``."""
        stack = getattr(self._local, "stack", None)
        return stack[-1].span_id if stack else None

    @property
    def records(self) -> list[SpanRecord]:
        """Finished spans in emission (FIFO) order."""
        with self._lock:
            return list(self._records)

    def sorted_records(self) -> list[SpanRecord]:
        """Finished spans totally ordered by ``(virtual time, seq)``."""
        return sorted(self.records, key=SpanRecord.sort_key)

    def clear(self) -> None:
        """Drop every recorded span (the FIFO counter keeps advancing)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # ------------------------------------------------------------------ #
    # Internal stack plumbing
    # ------------------------------------------------------------------ #
    def _push(self, record: SpanRecord) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is record:
            stack.pop()
        self._append(record)

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._seq += 1
            record.seq = self._seq
            self._records.append(record)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` representation of every span.

        One complete (``"ph": "X"``) event per record; virtual-clock
        readings, span ids, and attributes travel in ``args`` so the
        export round-trips through :func:`load_chrome_trace`.
        """
        events = []
        for record in self.sorted_records():
            events.append(
                {
                    "name": record.name,
                    "cat": record.category,
                    "ph": "X",
                    "ts": record.start_s * 1e6,
                    "dur": max(record.duration_s, 0.0) * 1e6,
                    "pid": record.pid,
                    "tid": record.tid,
                    "args": {
                        "span_id": record.span_id,
                        "parent_id": record.parent_id,
                        "seq": record.seq,
                        "virtual_start_s": record.virtual_start_s,
                        "virtual_end_s": record.virtual_end_s,
                        **record.attrs,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write the Chrome-trace JSON; returns the written path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dumps_strict(self.chrome_trace(), indent=1) + "\n")
        return path

    def write_span_log(self, path: str | Path) -> Path:
        """Write the JSON-lines span log (one record per line, sorted)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [
            dumps_strict(record.to_payload(), sort_keys=True)
            for record in self.sorted_records()
        ]
        path.write_text("\n".join(lines) + ("\n" if lines else ""))
        return path


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op.

    A single shared instance (:data:`NULL_TRACER`) serves every untraced
    simulation, so "tracing off" costs one truthiness/attribute check per
    traced site.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def span(self, name: str, category: str = "sim", virtual: float | None = None,
             **attrs: AttrValue) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def emit(self, name: str, **kwargs: AttrValue) -> None:  # type: ignore[override]
        return None

    def adopt(self, records: Iterable[SpanRecord], parent_id: str | None = None) -> None:
        return None

    def current_span_id(self) -> None:
        return None


#: Shared inert tracer used wherever tracing is not explicitly enabled.
NULL_TRACER = NullTracer()


# --------------------------------------------------------------------------- #
# Loaders (round-trip for tests and benchmarks/check_trace.py)
# --------------------------------------------------------------------------- #
def load_chrome_trace(path: str | Path) -> list[SpanRecord]:
    """Reconstruct :class:`SpanRecord` s from a Chrome-trace JSON file."""
    payload = json.loads(Path(path).read_text())
    records = []
    for event in payload.get("traceEvents", []):
        args = dict(event.get("args", {}))
        records.append(
            SpanRecord(
                name=event["name"],
                category=event.get("cat", "sim"),
                span_id=args.pop("span_id", ""),
                parent_id=args.pop("parent_id", None),
                start_s=float(event.get("ts", 0.0)) / 1e6,
                duration_s=float(event.get("dur", 0.0)) / 1e6,
                virtual_start_s=args.pop("virtual_start_s", None),
                virtual_end_s=args.pop("virtual_end_s", None),
                pid=int(event.get("pid", 0)),
                tid=int(event.get("tid", 0)),
                seq=int(args.pop("seq", 0)),
                attrs=args,
            )
        )
    return records


def read_span_log(path: str | Path) -> list[SpanRecord]:
    """Reconstruct :class:`SpanRecord` s from a JSON-lines span log."""
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(SpanRecord.from_payload(json.loads(line)))
    return records


def span_tree(records: Iterable[SpanRecord]) -> dict[str | None, list[SpanRecord]]:
    """Group records by ``parent_id`` (``None`` holds the roots)."""
    children: dict[str | None, list[SpanRecord]] = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)
    return children


def hotspot_table(records: Iterable[SpanRecord], top: int | None = None) -> str:
    """The hot-spot table: spans grouped by name, most self time first.

    A span's self time is its duration minus the part of it that its
    children cover.  Children on other threads may overlap one another, so
    the union of their intervals is what counts.  A span whose parent is
    not among ``records`` keeps its whole duration; so does a root opened
    on a thread with no open span.  Each row's share is its self time over
    the sum of every row's, so the shares partition the recorded time.
    """
    records = list(records)
    children = span_tree(records)
    rows: dict[str, list] = {}  # name -> [calls, total s, self s]
    for record in records:
        start, end = record.start_s, record.start_s + record.duration_s
        covered, reach = 0.0, start
        for child_start, child_end in sorted(
            (child.start_s, child.start_s + child.duration_s)
            for child in children.get(record.span_id, ())
        ):
            low, high = max(child_start, reach), min(child_end, end)
            if high > low:
                covered += high - low
                reach = high
        row = rows.setdefault(record.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += record.duration_s
        row[2] += max(record.duration_s - covered, 0.0)
    if not rows:
        return "(no spans recorded)"
    ordered = sorted(rows.items(), key=lambda item: (-item[1][2], item[0]))
    grand_self = sum(own for _, _, own in rows.values())
    width = max(len("hotspot"), *(len(name) for name in rows))
    lines = [
        f"{'hotspot':<{width}}  {'calls':>8}  {'total s':>9}  {'self s':>9}  "
        f"{'mean ms':>9}  {'share':>6}"
    ]
    for index, (name, (calls, total, own)) in enumerate(ordered):
        if top is not None and index >= top:
            lines.append(f"... ({len(ordered) - top} more)")
            break
        share = own / grand_self if grand_self > 0 else 0.0
        lines.append(
            f"{name:<{width}}  {calls:>8d}  {total:>9.3f}  {own:>9.3f}  "
            f"{1e3 * total / calls:>9.3f}  {share:>6.1%}"
        )
    return "\n".join(lines)
