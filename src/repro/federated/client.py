"""Per-client state, held in one stacked arena.

A :class:`ClientState` owns a client's local dataset and a *row* of a
:class:`ClientStateStore`, in which the algorithm keeps that client's
persistent variables (for FedADMM the primal/dual pair ``(w_i, y_i)``; for
SCAFFOLD the control variate ``c_i``).  The store holds one float64
``(rows, *shape)`` array per variable name.  A cohort of one reads its row
in place: :func:`gather` hands it the live ``(1, *shape)`` view and the
update writes its new state straight into it, so :func:`scatter` has
nothing left to do.  A stack reads a private copy of its rows with one
``np.take`` and writes them back with one indexed assignment.

Contract (``docs/architecture.md``, "Client state"):

* :meth:`ClientState.get` returns the *live* row: the next ``set``,
  ``scatter`` or one-client update on that client overwrites it, so a
  caller that keeps a vector across a round must ``.copy()`` it.
* Rows are disjoint across a round's tasks and parts, so thread,
  vectorized and served parts may write them concurrently.  A task that
  raises may leave its rows half-written; nothing reads live rows after a
  failed task (the run stops, and a served reclaim restarts from the
  server's frame).
* A store is sized once and never grows, so no row a round's parts read
  or write is ever reallocated.  A new handle has a private one-row store;
  a list population is adopted into one shared store when a simulation is
  built (:meth:`ClientStateStore.adopt`); a lazy population's clients keep
  their own, so its memory grows with the clients it touches.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import ConfigurationError
from repro.partition.base import Partition


class ClientStateStore:
    """Every client's persistent variables: one float64 array per name.

    A store is sized once, for the clients it holds (an adopted list, or one
    standalone client).  A name's ``(rows, *shape)`` array is created on its
    first write, so :meth:`take` is one ``np.take`` and :meth:`put`
    one indexed store.
    """

    # Slots: a lazy population keeps one store per touched client.
    __slots__ = ("rows", "_arrays")

    def __init__(self, rows: int):
        self.rows = rows
        self._arrays: dict[str, np.ndarray] = {}

    @classmethod
    def adopt(cls, clients: Sequence[ClientState]) -> ClientStateStore:
        """Move ``clients`` onto one new store, row ``i`` for client ``i``, values kept."""
        store = cls(len(clients))
        for row, client in enumerate(clients):
            variables = client.variables
            client.store, client.row = store, row
            client.variables = variables
        return store

    def _named(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        array = self._arrays.get(key)
        if array is None:
            # A name's first write may come from any part's thread; setdefault
            # is atomic, so racing parts end up writing into the same array.
            # Left unzeroed: a row is only read once its client has set it.
            array = self._arrays.setdefault(key, np.empty((self.rows, *shape)))
        if array.shape[1:] != shape:
            raise ConfigurationError(
                f"variable {key!r} holds rows of shape {array.shape[1:]}, got {shape}"
            )
        return array

    def names(self) -> tuple[str, ...]:
        """The variable names written so far, in first-write order."""
        return tuple(self._arrays)

    def row(self, key: str, row: int) -> np.ndarray:
        """The live ``(*shape)`` view of one row."""
        return self._arrays[key][row]

    def row_stack(self, key: str, row: int) -> np.ndarray:
        """The live ``(1, *shape)`` view of one row: a cohort of one."""
        return self._arrays[key][row : row + 1]

    def write(self, key: str, row: int, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        self._named(key, value.shape)[row] = value

    def take(self, key: str, rows: Sequence[int]) -> np.ndarray:
        """A fresh ``(len(rows), *shape)`` stack of the rows."""
        return self._arrays[key].take(rows, axis=0)

    def put(self, key: str, rows: Sequence[int], values: np.ndarray) -> None:
        """Write ``values[i]`` into row ``rows[i]``."""
        self._named(key, values.shape[1:])[rows] = values


class ClientState:
    """One client's data and its row of algorithm-specific variables."""

    __slots__ = (
        "client_id", "dataset", "rounds_participated", "local_work_done",
        "store", "row", "_keys",
    )

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        variables: dict[str, np.ndarray] | None = None,
        rounds_participated: int = 0,
        local_work_done: int = 0,
    ):
        self.client_id = client_id
        self.dataset = dataset
        self.rounds_participated = rounds_participated
        self.local_work_done = local_work_done
        # A private one-row store until a simulation adopts the client.
        self.store, self.row = ClientStateStore(1), 0
        self._keys: tuple[str, ...] = ()  # the names set on this row, in order
        if variables:
            self.variables = variables

    def __repr__(self) -> str:
        return (
            f"ClientState(client_id={self.client_id}, row={self.row}, "
            f"variables={list(self._keys)}, "
            f"rounds_participated={self.rounds_participated})"
        )

    @property
    def num_samples(self) -> int:
        """Local training-set size ``n_i``."""
        return len(self.dataset)

    @property
    def variables(self) -> dict[str, np.ndarray]:
        """Every persistent variable as its live row, in first-set order."""
        return {key: self.store.row(key, self.row) for key in self._keys}

    @variables.setter
    def variables(self, values: dict[str, np.ndarray]) -> None:
        self._keys = ()
        for key, value in values.items():
            self.set(key, value)

    def _missing(self, key: str) -> ConfigurationError:
        return ConfigurationError(
            f"client {self.client_id} has no variable {key!r}; "
            f"available: {sorted(self._keys)}"
        )

    def get(self, key: str) -> np.ndarray:
        """The live row of a persistent variable (raises if never set)."""
        if key not in self._keys:
            raise self._missing(key)
        return self.store.row(key, self.row)

    def set(self, key: str, value: np.ndarray) -> None:
        """Write ``value`` into this client's row of ``key``."""
        self.store.write(key, self.row, value)
        self._mark(key)

    def _mark(self, key: str) -> None:
        if key not in self._keys:
            self._keys += (key,)

    def has(self, key: str) -> bool:
        """Whether the persistent variable ``key`` exists."""
        return key in self._keys

    def record_participation(self, epochs: int) -> None:
        """Update participation counters after a local update."""
        self.rounds_participated += 1
        self.local_work_done += epochs


def _row_by_row(clients: Sequence[ClientState]) -> bool:
    """Whether a cohort's clients live on different stores.

    Clients of an adopted list share one store; a lazy population's clients
    and hand-built handles each keep a store of their own.
    """
    store = clients[0].store
    return any(client.store is not store for client in clients)


def _is_live_row(client: ClientState, key: str, stack: np.ndarray) -> bool:
    """Whether ``stack`` is ``client``'s live ``(1, *shape)`` row of ``key``."""
    if key not in client._keys:
        return False
    live = client.store.row_stack(key, client.row)
    # Only a view of the store can overlap a row, and the one view handed
    # out is the row itself.  Comparing addresses through
    # ``__array_interface__`` instead makes NumPy keep a ~1 MB buffer, which
    # raised a serial run's peak RSS by 18 MiB.
    return (
        stack.shape == live.shape
        and stack.strides == live.strides
        and np.shares_memory(stack, live)
    )


def gather(clients: Sequence[ClientState], key: str) -> np.ndarray:
    """The clients' ``key`` rows as a ``(C, *shape)`` array.

    A one-client cohort gets the live ``(1, *shape)`` view of its row, to
    update in place; a stack gets a private copy (one ``np.take`` for a
    cohort on one store), to write back with :func:`scatter`.
    """
    for client in clients:
        if key not in client._keys:
            raise client._missing(key)
    if len(clients) == 1:
        return clients[0].store.row_stack(key, clients[0].row)
    if _row_by_row(clients):
        return np.array([client.get(key) for client in clients])
    return clients[0].store.take(key, [client.row for client in clients])


def scatter(clients: Sequence[ClientState], key: str, stack: np.ndarray) -> None:
    """Write row ``i`` of ``stack`` as client ``i``'s ``key``.

    One indexed assignment for a cohort on one store, and nothing at all
    for the live row :func:`gather` handed a cohort of one.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if len(stack) != len(clients):
        raise ConfigurationError(
            f"scatter of {len(stack)} rows onto {len(clients)} clients"
        )
    if len(clients) == 1 and _is_live_row(clients[0], key, stack):
        return
    if _row_by_row(clients):
        for client, value in zip(clients, stack):
            client.set(key, value)
        return
    clients[0].store.put(key, [client.row for client in clients], stack)
    for client in clients:
        client._mark(key)


def build_clients(dataset: Dataset, partition: Partition) -> list[ClientState]:
    """Materialise a :class:`ClientState` per partition cell.

    Clients that received zero samples are dropped with re-indexing so every
    remaining client can perform local training (the paper assumes every
    client holds data).
    """
    states: list[ClientState] = []
    for client_id in range(partition.num_clients):
        local = partition.client_dataset(dataset, client_id)
        if len(local) == 0:
            continue
        states.append(ClientState(client_id=len(states), dataset=local))
    if not states:
        raise ConfigurationError("partition produced no clients with data")
    return states
