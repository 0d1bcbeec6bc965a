"""Process-wide observability context.

The federation runtime never threads tracer/metrics handles
through every constructor.  Instead, a single module-level
:class:`ObsContext` holds the active sinks, and engines resolve them at
construction time via :func:`get_obs`.  Enabling observability for a run
is therefore one ``with`` block::

    from repro.obs import MetricsRegistry, Tracer, observe

    tracer, metrics = Tracer(), MetricsRegistry()
    with observe(tracer=tracer, metrics=metrics):
        result = run_single(config, algorithm)
    tracer.write_chrome_trace("run.trace.json")

The default context carries the :data:`~repro.obs.trace.NULL_TRACER`
and no metrics registry, so code paths that consult the context in the
common (disabled) case cost one attribute read.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class ObsContext:
    """The two observability sinks an engine resolves at construction."""

    tracer: Tracer = NULL_TRACER
    metrics: Optional[MetricsRegistry] = None

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled


_DEFAULT = ObsContext()
_active = _DEFAULT


def get_obs() -> ObsContext:
    """The currently active observability context (never ``None``)."""
    return _active


def set_obs(context: Optional[ObsContext]) -> ObsContext:
    """Install ``context`` (or the inert default) and return the previous one."""
    global _active
    previous = _active
    _active = context if context is not None else _DEFAULT
    return previous


_UNSET = object()


@contextmanager
def observe(
    tracer: object = _UNSET,
    metrics: object = _UNSET,
) -> Iterator[ObsContext]:
    """Activate sinks for the enclosed block, restoring the previous context.

    Only the sinks passed explicitly are replaced; the rest are inherited
    from the context active at entry, so nested ``observe`` blocks compose.
    """
    updates = {}
    if tracer is not _UNSET:
        updates["tracer"] = tracer if tracer is not None else NULL_TRACER
    if metrics is not _UNSET:
        updates["metrics"] = metrics
    context = replace(get_obs(), **updates)
    previous = set_obs(context)
    try:
        yield context
    finally:
        set_obs(previous)
