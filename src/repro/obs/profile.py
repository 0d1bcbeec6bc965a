"""Profiling hooks: per-phase and per-kernel wall-clock accumulation.

A :class:`Profiler` is a lock-protected ``key → (total seconds, calls)``
accumulator with a context-manager timer::

    with profiler.time("pipeline.local_updates"):
        ...

The federation runtime feeds it from two levels:

* **per-phase** — :class:`~repro.federated.rounds.ClientWorkPipeline`
  times its systems simulation, local updates, and codec round-trips;
* **per-kernel** — :class:`~repro.nn.batched.BatchedModel` times each
  layer's stacked forward/backward (only when a profiler is attached; the
  hot loop pays a single ``None`` check otherwise).

``hotspot_table()`` renders the classic profile view — keys sorted by
total time with call counts, means, and share of profiled time — which
``repro profile <study>`` prints after running a study.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator


class Profiler:
    """Accumulates wall-clock per key; cheap enough for per-kernel use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._totals: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    def add(self, key: str, seconds: float, calls: int = 1) -> None:
        """Fold ``seconds`` of measured time into ``key``."""
        with self._lock:
            self._totals[key] = self._totals.get(key, 0.0) + seconds
            self._calls[key] = self._calls.get(key, 0) + calls

    @contextmanager
    def time(self, key: str) -> Iterator[None]:
        """Time the enclosed block under ``key``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(key, time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``key → {seconds, calls, mean_ms}`` in total-time order."""
        with self._lock:
            items = sorted(
                self._totals.items(), key=lambda item: item[1], reverse=True
            )
            return {
                key: {
                    "seconds": total,
                    "calls": self._calls[key],
                    "mean_ms": 1e3 * total / self._calls[key],
                }
                for key, total in items
            }

    def hotspot_table(self, top: int | None = None) -> str:
        """The hot-spot table: one row per key, hottest first."""
        rows = self.snapshot()
        if not rows:
            return "(no profile samples recorded)"
        grand_total = sum(entry["seconds"] for entry in rows.values())
        width = max(len(key) for key in rows)
        lines = [
            f"{'hotspot':<{width}}  {'calls':>8}  {'total s':>9}  "
            f"{'mean ms':>9}  {'share':>6}"
        ]
        for index, (key, entry) in enumerate(rows.items()):
            if top is not None and index >= top:
                lines.append(f"... ({len(rows) - top} more)")
                break
            share = entry["seconds"] / grand_total if grand_total > 0 else 0.0
            lines.append(
                f"{key:<{width}}  {entry['calls']:>8d}  "
                f"{entry['seconds']:>9.3f}  {entry['mean_ms']:>9.3f}  "
                f"{share:>6.1%}"
            )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._totals.clear()
            self._calls.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._totals)
