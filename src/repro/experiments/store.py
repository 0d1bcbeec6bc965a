"""Persistent, content-addressed experiment store.

Every sweep point (a :class:`~repro.experiments.orchestrator.RunSpec`) is
addressed by a stable hash of its *content*: the full
:class:`~repro.experiments.configs.ExperimentConfig` (which includes the
seed), the algorithm spec, the stop-at-target flag, and the code-relevant
package version.  Two invocations that would train the same thing hash to
the same key, so a store can answer "has this exact run already been
done?" across process boundaries and interruptions — the enabling layer
for resumable (``--resume``) and parallel (``--jobs``) sweeps.

On disk a store is one directory::

    <root>/runs.jsonl        append-only JSON-lines status transitions
    <root>/results/<key>.json  one atomically-written result payload per run
    <root>/results/<key>.npz   optional binary sidecar of named arrays (a
                               simulation checkpoint the serve layer
                               writes every round)

The index is an append-only log: each line records one
:class:`RunStatus` transition (``pending`` → ``running`` → ``done`` /
``failed``) and replaying the log last-wins yields the current state.
Appends are single ``write`` calls of one newline-terminated line, and
:meth:`ExperimentStore.records` discards a torn final line, so a crash
mid-append can never corrupt earlier records.  Result payloads are
written to a temporary file and ``os.replace``-d into place *before* the
``done`` line is appended; a crash between the two leaves the run
``running`` and it is simply re-executed on resume.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.federated.evaluation import Evaluation
from repro.federated.history import RoundRecord, TrainingHistory
from repro.federated.messages import CommunicationLedger
from repro.utils.serialization import dumps_strict, to_jsonable
from repro.version import __version__

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.experiments.orchestrator import RunSpec
    from repro.federated.engine import SimulationResult


class RunStatus(str, Enum):
    """Lifecycle of one stored run."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


#: Statuses whose specs must be (re-)executed when a sweep is resumed:
#: everything except ``done`` — a ``running`` record with no result means
#: the worker died mid-run, and ``failed`` runs deserve another attempt.
RERUN_STATUSES = (RunStatus.PENDING, RunStatus.RUNNING, RunStatus.FAILED)


@dataclass
class RunRecord:
    """Current state of one run, replayed from the JSON-lines index."""

    key: str
    status: RunStatus
    study: str = ""
    spec_key: tuple = ()
    config_name: str = ""
    algorithm: str = ""
    seed: int = 0
    updated_at: float = 0.0
    duration_s: float | None = None
    error: str | None = None

    def to_line(self) -> str:
        """Serialise as one newline-terminated JSON line."""
        payload = asdict(self)
        payload["status"] = self.status.value
        payload["spec_key"] = list(self.spec_key)
        return dumps_strict(payload, sort_keys=True) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "RunRecord":
        known = {f for f in cls.__dataclass_fields__}
        kwargs = {k: v for k, v in payload.items() if k in known}
        kwargs["status"] = RunStatus(kwargs["status"])
        kwargs["spec_key"] = tuple(kwargs.get("spec_key", ()))
        return cls(**kwargs)


# --------------------------------------------------------------------------- #
# Result (de)serialisation
# --------------------------------------------------------------------------- #
def result_to_payload(result: "SimulationResult") -> dict:
    """Serialise a :class:`SimulationResult` into a JSON-safe payload.

    The payload round-trips bit-identically: JSON floats are written with
    ``repr`` precision, which reconstructs the exact IEEE-754 double, so a
    history loaded from the store compares equal to the freshly computed
    one (the property the resume tests pin).
    """
    return {
        "algorithm": result.algorithm,
        "history": {
            "algorithm": result.history.algorithm,
            "records": [to_jsonable(rec) for rec in result.history.records],
        },
        "final_params": result.final_params.tolist(),
        "ledger": to_jsonable(result.ledger),
        "final_evaluation": to_jsonable(result.final_evaluation),
        "rounds_run": result.rounds_run,
        "target_accuracy": result.target_accuracy,
        "rounds_to_target": result.rounds_to_target,
        "metadata": to_jsonable(result.metadata),
    }


def payload_to_result(payload: dict) -> "SimulationResult":
    """Reconstruct a :class:`SimulationResult` written by :func:`result_to_payload`."""
    from repro.federated.engine import SimulationResult

    records = [
        RoundRecord(**{**rec, "dropped_clients": tuple(rec.get("dropped_clients", ()))})
        for rec in payload["history"]["records"]
    ]
    history = TrainingHistory(
        algorithm=payload["history"]["algorithm"], records=records
    )
    evaluation = (
        Evaluation(**payload["final_evaluation"])
        if payload["final_evaluation"] is not None
        else None
    )
    return SimulationResult(
        algorithm=payload["algorithm"],
        history=history,
        final_params=np.asarray(payload["final_params"], dtype=np.float64),
        ledger=CommunicationLedger(**payload["ledger"]),
        final_evaluation=evaluation,
        rounds_run=payload["rounds_run"],
        target_accuracy=payload["target_accuracy"],
        rounds_to_target=payload["rounds_to_target"],
        metadata=payload.get("metadata", {}),
    )


def _canonical(obj: object) -> object:
    """Like :func:`to_jsonable`, but address-free for arbitrary objects.

    ``to_jsonable`` falls back to ``str`` for unknown objects, which for
    plain classes is the default repr — including the instance's memory
    address.  Content keys must be stable across processes, so objects
    with instance state (e.g. the ``PiecewiseRho``/``PiecewiseStepSize``
    policies carried in algorithm kwargs) serialise as their qualified
    type plus their recursively-canonicalised ``__dict__`` instead.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            field.name: _canonical(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        # Raw set iteration order varies with per-process hash
        # randomisation; sort by canonical JSON form to keep keys stable.
        return sorted(
            (_canonical(item) for item in obj),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
    state = getattr(obj, "__dict__", None)
    if state is not None:
        return {
            "__type__": f"{type(obj).__module__}.{type(obj).__qualname__}",
            "state": _canonical(state),
        }
    return str(obj)


def _atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Let ``write(handle)`` fill ``path`` atomically (temp file + ``os.replace``).

    A reader can never observe a partial file: either the old content (or
    absence) or the complete new content.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


class ExperimentStore:
    """Content-addressed run store backing resumable, parallel sweeps."""

    INDEX_NAME = "runs.jsonl"
    RESULTS_DIR = "results"

    def __init__(self, root: str | Path, version: str = __version__):
        self.root = Path(root)
        self.version = version
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Addressing
    # ------------------------------------------------------------------ #
    def key_for(self, spec: "RunSpec") -> str:
        """Stable content hash of one sweep point.

        Covers the full config (seed included), the algorithm name and
        constructor kwargs, the stop-at-target flag, and the package
        version, so a code release invalidates cached results.
        """
        config = _canonical(spec.config)
        # Hashed since PR 2, when the field existed; kept so stores written
        # before it was folded into ``mode`` still resume.
        config["async_mode"] = spec.config.mode == "async"
        # Likewise the stacked kernels' array backend field: only NumPy ever
        # ran, so it hashes as the ``None`` default it always held.
        config["backend"] = None
        # A config that values no coalition hashes as it did before the
        # field existed, so every stored full-population run keeps its key.
        if spec.config.coalition is None:
            del config["coalition"]
        content = {
            "config": config,
            "algorithm": {
                "name": spec.algorithm.name,
                "kwargs": _canonical(spec.algorithm.kwargs),
            },
            "stop_at_target": spec.stop_at_target,
            "version": self.version,
        }
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:20]

    # ------------------------------------------------------------------ #
    # Index
    # ------------------------------------------------------------------ #
    @property
    def index_path(self) -> Path:
        return self.root / self.INDEX_NAME

    def _result_path(self, key: str) -> Path:
        return self.root / self.RESULTS_DIR / f"{key}.json"

    def _arrays_path(self, key: str) -> Path:
        return self._result_path(key).with_suffix(".npz")

    def _append(self, record: RunRecord) -> None:
        # One write() of one newline-terminated line: a crash mid-append
        # leaves at most a torn *final* line, which records() discards.
        # If a previous crash left such a torn line, terminate it first so
        # the new record starts on its own line instead of extending it.
        needs_newline = False
        if self.index_path.exists():
            with self.index_path.open("rb") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() > 0:
                    handle.seek(-1, os.SEEK_END)
                    needs_newline = handle.read(1) != b"\n"
        with self.index_path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(record.to_line())
            handle.flush()

    def records(self) -> dict[str, RunRecord]:
        """Replay the index log; the last record per key wins."""
        state: dict[str, RunRecord] = {}
        if not self.index_path.exists():
            return state
        text = self.index_path.read_text(encoding="utf-8")
        lines = text.split("\n")
        if lines and lines[-1]:
            # No trailing newline: the final append was interrupted.
            lines = lines[:-1]
        for line in lines:
            if not line:
                continue
            try:
                payload = json.loads(line)
                record = RunRecord.from_payload(payload)
            except (json.JSONDecodeError, KeyError, ValueError, TypeError):
                continue  # skip corrupt lines rather than losing the store
            state[record.key] = record
        return state

    def record(self, key: str) -> RunRecord | None:
        """The current state of one run, or ``None`` if never seen."""
        return self.records().get(key)

    def mark(
        self,
        spec: "RunSpec",
        status: RunStatus,
        duration_s: float | None = None,
        error: str | None = None,
    ) -> RunRecord:
        """Append one status transition for ``spec`` and return the record."""
        record = RunRecord(
            key=self.key_for(spec),
            status=status,
            study=spec.study,
            spec_key=spec.key,
            config_name=spec.config.name,
            algorithm=spec.algorithm.label(),
            seed=spec.config.seed,
            updated_at=time.time(),
            duration_s=duration_s,
            error=error,
        )
        self._append(record)
        return record

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def save_result(
        self,
        spec: "RunSpec",
        result: "SimulationResult",
        duration_s: float | None = None,
        arrays: dict[str, np.ndarray] | None = None,
    ) -> RunRecord:
        """Persist one finished run: payload first (atomic), then the ``done`` line.

        ``arrays`` go, bit for bit, into an ``.npz`` sidecar replaced just
        before the payload (see :meth:`load_arrays`) — state too bulky for
        JSON number lists.
        """
        key = self.key_for(spec)
        if arrays is not None:
            _atomic_write(
                self._arrays_path(key), lambda handle: np.savez(handle, **arrays)
            )
        payload = result_to_payload(result)
        _atomic_write_text(
            self._result_path(key), dumps_strict(payload, sort_keys=True)
        )
        return self.mark(spec, RunStatus.DONE, duration_s=duration_s)

    def has_result(self, key: str, records: dict[str, RunRecord] | None = None) -> bool:
        """Whether ``key`` is ``done`` *and* its payload file exists.

        Pass a ``records()`` snapshot when checking many keys so the
        JSON-lines index is replayed once, not once per key.
        """
        record = (records if records is not None else self.records()).get(key)
        return (
            record is not None
            and record.status is RunStatus.DONE
            and self._result_path(key).exists()
        )

    def load_result(self, key: str) -> "SimulationResult":
        """Load one stored result; unknown keys raise ``ConfigurationError``."""
        path = self._result_path(key)
        if not path.exists():
            raise ConfigurationError(f"no stored result for run {key!r}")
        return payload_to_result(json.loads(path.read_text(encoding="utf-8")))

    def load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """The arrays saved beside one result, or ``None`` if it has none."""
        path = self._arrays_path(key)
        if not path.exists():
            return None
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}

    # ------------------------------------------------------------------ #
    # Maintenance (the `repro runs` subcommand)
    # ------------------------------------------------------------------ #
    def clean(self, statuses: Iterable[RunStatus] | None = None) -> list[str]:
        """Drop runs in ``statuses`` (default: every non-``done`` status).

        The index is compacted (rewritten atomically with one line per
        surviving run) and the dropped runs' payload files — result and
        array sidecar — are removed.
        Returns the dropped keys.
        """
        drop = set(statuses) if statuses is not None else set(RERUN_STATUSES)
        state = self.records()
        dropped = [key for key, rec in state.items() if rec.status in drop]
        survivors = [rec for key, rec in state.items() if key not in set(dropped)]
        _atomic_write_text(
            self.index_path, "".join(rec.to_line() for rec in survivors)
        )
        for key in dropped:
            self._result_path(key).unlink(missing_ok=True)
            self._arrays_path(key).unlink(missing_ok=True)
        return dropped

    def summary(self) -> dict[str, int]:
        """Run counts per status value (for listings and tests)."""
        counts: dict[str, int] = {status.value: 0 for status in RunStatus}
        for record in self.records().values():
            counts[record.status.value] += 1
        return counts
