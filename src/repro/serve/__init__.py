"""Networked federation runtime: server, workers, wire protocol, load gen.

The serve layer puts the existing composition root on a real socket.  A
:class:`~repro.serve.server.FederationServer` drives the standard
state + pipeline + plan machinery in-process, but its executor publishes
local-update tasks to an HTTP task board that separate
:mod:`~repro.serve.worker` processes drain; uploads travel as the
:mod:`repro.systems.compression` codecs' encoded bytes, so the ledger's
wire accounting corresponds to real bytes in the HTTP bodies.  Because
tasks are integer-seeded through the isolated-executor seam, networked
histories are bit-identical to in-process isolated simulation runs.

Import submodules directly (``repro.serve.server``, ``repro.serve.worker``,
``repro.serve.loadgen``, ``repro.serve.protocol``); this package module
re-exports the main entry points for convenience.
"""

import importlib

from repro.serve.protocol import PROTOCOL_VERSION

__all__ = ["PROTOCOL_VERSION", "FederationServer", "run_worker", "run_load_test"]

#: Lazy re-exports: `repro.serve.protocol` must import without pulling in
#: the whole experiment stack (server/worker/loadgen import it).
_LAZY = {"FederationServer": "server", "run_worker": "worker", "run_load_test": "loadgen"}


def __getattr__(name):
    if name in _LAZY:
        return getattr(importlib.import_module(f"repro.serve.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
