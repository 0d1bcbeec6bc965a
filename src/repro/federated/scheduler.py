"""Virtual-clock event scheduling for the buffered execution plans.

The buffered plans (:class:`repro.federated.plans.BufferedPlan`) do not
advance in lock-step rounds; instead a virtual clock runs forward and
clients complete their local updates at the simulated times predicted by
the :mod:`repro.systems.network` duration model.  This module provides the
two pieces that make that event-driven loop deterministic and testable in
isolation:

* :class:`EventQueue` — a min-heap of :class:`ClientCompletion` events
  keyed by virtual time, with FIFO tie-breaking (a monotonically increasing
  sequence number) so that two events scheduled for the same instant always
  pop in schedule order, independent of heap internals.
* :class:`AsyncScheduler` — the server's view of the client population:
  which clients are idle, which are in flight, and what the clock reads.
  Dispatching a client books a completion event ``duration`` simulated
  seconds into the future; popping the next completion advances the clock
  to that event's time (time never runs backwards).

Neither class knows anything about models, algorithms, or messages: the
``payload`` attached to a dispatch is opaque, so the scheduler can be
exercised by fast unit tests without running any training.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.exceptions import ConfigurationError, SimulationError
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ClientCompletion:
    """One client finishing its in-flight local update at ``time``."""

    time: float
    seq: int
    client_id: int
    payload: Any = field(default=None, compare=False)

    def sort_key(self) -> tuple[float, int]:
        """Heap ordering: earliest time first, FIFO among simultaneous events."""
        return (self.time, self.seq)


class EventQueue:
    """Min-heap of :class:`ClientCompletion` events with deterministic order."""

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[float, int], ClientCompletion]] = []
        self._counter = itertools.count()

    def push(self, time: float, client_id: int, payload: Any = None) -> ClientCompletion:
        """Schedule a completion; returns the booked event."""
        if time < 0:
            raise ConfigurationError(f"event time must be non-negative, got {time}")
        event = ClientCompletion(
            time=float(time), seq=next(self._counter), client_id=int(client_id),
            payload=payload,
        )
        heapq.heappush(self._heap, (event.sort_key(), event))
        return event

    def pop(self) -> ClientCompletion:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[1]

    def peek_time(self) -> float:
        """Virtual time of the earliest scheduled event."""
        if not self._heap:
            raise SimulationError("peek on an empty event queue")
        return self._heap[0][1].time

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class AsyncScheduler:
    """Tracks the virtual clock and which clients are idle vs in flight.

    The server dispatches work to idle clients (:meth:`dispatch`), then
    repeatedly asks for the next completion (:meth:`next_completion`),
    which advances the clock.  ``now`` only ever moves forward; dispatches
    start at the current clock reading.
    """

    def __init__(self, num_clients: int, tracer: Tracer | None = None):
        if num_clients <= 0:
            raise ConfigurationError(
                f"num_clients must be positive, got {num_clients}"
            )
        self.num_clients = num_clients
        #: When an enabled tracer is attached, every completion emits a
        #: ``client_flight`` span spanning dispatch → completion on the
        #: virtual clock (wall duration is irrelevant and left at zero).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._queue = EventQueue()
        self._in_flight: set[int] = set()
        self._dispatch_time: dict[int, float] = {}
        self._now = 0.0

    # ------------------------------------------------------------------ #
    # Clock and occupancy
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current virtual time in simulated seconds."""
        return self._now

    @property
    def num_in_flight(self) -> int:
        """Clients currently running a local update."""
        return len(self._in_flight)

    def is_idle(self, client_id: int) -> bool:
        """Whether a client is free to receive new work."""
        return client_id not in self._in_flight

    def idle_clients(self) -> Iterator[int]:
        """Client ids currently free, in ascending order (deterministic)."""
        return (c for c in range(self.num_clients) if c not in self._in_flight)

    # ------------------------------------------------------------------ #
    # Event flow
    # ------------------------------------------------------------------ #
    def dispatch(
        self, client_id: int, duration_s: float, payload: Any = None
    ) -> ClientCompletion:
        """Book a completion event ``duration_s`` into the future."""
        if not 0 <= client_id < self.num_clients:
            raise ConfigurationError(
                f"client_id {client_id} outside population of {self.num_clients}"
            )
        if client_id in self._in_flight:
            raise SimulationError(
                f"client {client_id} is already in flight; one update at a time"
            )
        if duration_s < 0:
            raise ConfigurationError(
                f"duration_s must be non-negative, got {duration_s}"
            )
        self._in_flight.add(client_id)
        if self.tracer.enabled:
            self._dispatch_time[client_id] = self._now
        return self._queue.push(self._now + duration_s, client_id, payload)

    def next_completion(self) -> ClientCompletion:
        """Pop the earliest completion, advancing the clock to its time."""
        event = self._queue.pop()
        self._in_flight.discard(event.client_id)
        # The clock never runs backwards even under pathological durations.
        self._now = max(self._now, event.time)
        if self.tracer.enabled:
            self.tracer.emit(
                "client_flight",
                category="scheduler",
                virtual_start_s=self._dispatch_time.pop(event.client_id, None),
                virtual_end_s=event.time,
                client=event.client_id,
                event_seq=event.seq,
            )
        return event

    def peek_time(self) -> float:
        """Virtual time of the earliest pending completion."""
        return self._queue.peek_time()

    def advance_to(self, time_s: float) -> None:
        """Move the clock forward to ``time_s`` (never backwards).

        Used by deadline-bounded plans: the server closes a round at its
        deadline even when no completion lands exactly on it.
        """
        self._now = max(self._now, float(time_s))

    def has_pending(self) -> bool:
        """Whether any client is still in flight."""
        return bool(self._queue)
