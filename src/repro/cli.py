"""Command-line interface for regenerating the paper's experiments.

Usage (after ``pip install -e .``)::

    python -m repro.cli --list
    python -m repro.cli table3 --dataset mnist --non-iid --rounds 25
    python -m repro.cli fig6 --rounds 30 --etas 0.5 1.0 --output fig6.json
    python -m repro.cli semisync --dataset blobs --clients 8 --rounds 3

    # Parallel, resumable sweeps against a persistent run store
    python -m repro.cli table3 --jobs 4 --store-dir runs/
    python -m repro.cli table3 --jobs 4 --store-dir runs/ --resume
    python -m repro.cli runs list --store-dir runs/
    python -m repro.cli runs show <key> --store-dir runs/
    python -m repro.cli runs clean --store-dir runs/

    # The networked runtime (see repro.serve and docs/tutorials/serving.md)
    python -m repro.cli serve --rounds 5 --workers 2
    python -m repro.cli worker http://127.0.0.1:8765
    python -m repro.cli loadtest --budget 10 --workers 4

Every study subcommand is generated from the declarative
:data:`~repro.experiments.studies.STUDIES` registry: one subcommand per
registered study, each carrying the shared flag groups (data, systems
layer, execution plan, orchestration) plus the study's own extra flags.
Adding a study to the registry exposes it here with no CLI edits.  The
extra ``runs`` subcommand inspects and maintains the persistent
:class:`~repro.experiments.store.ExperimentStore` behind ``--store-dir``
/ ``--resume``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Any

from repro.exceptions import ConfigurationError, ProtocolError, ReproError
from repro.experiments.orchestrator import SpecEvent, SweepOrchestrator
from repro.experiments.registry import StudyRequest
from repro.experiments.store import ExperimentStore, RunStatus
from repro.experiments.studies import STUDIES
from repro.experiments.tables import format_table
from repro.federated.staleness import STALENESS_REGISTRY
from repro.obs import MetricsRegistry, Tracer, hotspot_table, observe
from repro.systems import CODEC_REGISTRY, EXECUTOR_REGISTRY, NETWORK_REGISTRY
from repro.utils.serialization import save_json, to_jsonable

#: Name → one-line description of every runnable experiment (registry view).
EXPERIMENTS: dict[str, str] = STUDIES.descriptions()

#: Where run records land when ``--resume`` is given without ``--store-dir``.
DEFAULT_STORE_DIR = ".repro_runs"


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def finite_float(text: str) -> float:
    """argparse type: a finite float (``nan`` and ``inf`` parse as floats)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def positive_float(text: str) -> float:
    """argparse type: a finite float above 0."""
    value = finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def non_negative_float(text: str) -> float:
    """argparse type: a finite float of at least 0."""
    value = finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return value


def port_number(text: str) -> int:
    """argparse type: a TCP port, 0 (any free one) to 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port in 0..65535, got {value}")
    return value


def _shared_flags() -> argparse.ArgumentParser:
    """The flag groups every study subcommand inherits."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dataset", default=None,
                        choices=["mnist", "fmnist", "cifar10", "blobs"],
                        help="default: the study's own preset dataset "
                             "(the paper's for that table/figure)")
    common.add_argument("--non-iid", action="store_true",
                        help="use the two-shards-per-client non-IID partition")
    common.add_argument("--clients", type=int, default=None,
                        help="override the preset client population")
    common.add_argument("--rounds", type=int, default=None,
                        help="override the preset round budget")
    common.add_argument("--rho", type=finite_float, default=0.3,
                        help="FedADMM proximal coefficient (default 0.3)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output", default=None,
                        help="optional path to save the raw results as JSON")
    systems = common.add_argument_group(
        "client-systems layer (see repro.systems)")
    systems.add_argument("--codec", default=None, choices=sorted(CODEC_REGISTRY),
                         help="compress uploads with this codec and account "
                              "post-compression wire bytes")
    systems.add_argument("--dropout", type=float, default=None,
                         help="per-client per-round mid-round crash probability")
    systems.add_argument("--deadline", type=float, default=None, dest="deadline_s",
                         help="fault deadline in simulated seconds; slower "
                              "clients are dropped as stragglers")
    systems.add_argument("--network", default=None, choices=sorted(NETWORK_REGISTRY),
                         help="per-client bandwidth/latency/compute model "
                              "producing simulated round durations")
    systems.add_argument("--adversary", default=None,
                         help="adversarial client behaviour "
                              "(sign_flip, gaussian_noise, scale, label_flip); "
                              "see docs/tutorials/robustness.md")
    systems.add_argument("--adversary-fraction", type=float, default=None,
                         dest="adversary_fraction",
                         help="fraction of the population that misbehaves "
                              "(preset default 0.2 on the robustness study)")
    systems.add_argument("--defense", default=None,
                         help="robust aggregation defense "
                              "(median, trimmed_mean, norm_clip); unknown "
                              "names fail fast with exit code 2")
    systems.add_argument("--executor", default=None, choices=sorted(EXECUTOR_REGISTRY),
                         help="how local updates run: serial, thread pool, "
                              "or vectorized (stacked-NumPy cohorts)")
    plan = common.add_argument_group(
        "execution plan (see repro.federated.plans)")
    plan.add_argument("--mode", default=None,
                      choices=["sync", "semisync", "async"],
                      help="round-loop strategy: lock-step sync, "
                           "deadline-bounded semisync, or event-driven async")
    plan.add_argument("--async", dest="mode", action="store_const",
                      const="async", help="shorthand for --mode async")
    plan.add_argument("--plan", default=None, dest="plan",
                      choices=["flat", "hierarchical"],
                      help="sync-round topology: flat single server, or "
                           "hierarchical sharded edge aggregators with "
                           "streaming constant-memory aggregation")
    plan.add_argument("--shards", type=int, default=None, dest="num_shards",
                      help="hierarchical: number of edge aggregator shards "
                           "the population is split across (default 1)")
    plan.add_argument("--buffer-size", type=int, default=None,
                      help="async: updates aggregated per model version "
                           "(default: the sync per-round cohort size)")
    plan.add_argument("--max-concurrency", type=int, default=None,
                      help="async: clients training at any simulated instant "
                           "(default: twice the buffer size)")
    plan.add_argument("--staleness", default=None,
                      choices=sorted(STALENESS_REGISTRY),
                      help="staleness weighting for buffered updates "
                           "(default: polynomial decay)")
    plan.add_argument("--round-deadline", type=float, default=None,
                      dest="round_deadline_s",
                      help="semisync: per-round aggregation deadline in "
                           "simulated seconds (default: derived from the "
                           "network model's median client duration)")
    orchestration = common.add_argument_group(
        "sweep orchestration (see repro.experiments.orchestrator)")
    orchestration.add_argument("--jobs", type=int, default=1,
                               help="run the study's sweep points across N "
                                    "worker processes (default: 1, serial "
                                    "and bit-identical to --jobs N)")
    orchestration.add_argument("--resume", action="store_true",
                               help="skip sweep points already done in the "
                                    "run store; re-run failed/interrupted "
                                    "ones (implies a store)")
    orchestration.add_argument("--store-dir", default=None,
                               help="persist per-run records/results in this "
                                    f"directory (default with --resume: "
                                    f"{DEFAULT_STORE_DIR})")
    orchestration.add_argument("--progress", action="store_true",
                               help="stream per-spec [k/n] progress lines "
                                    "with durations and an ETA, even for "
                                    "plain serial invocations")
    obs = common.add_argument_group(
        "observability (see repro.obs and docs/tutorials/observability.md)")
    obs.add_argument("--trace", default=None, dest="trace_path", metavar="PATH",
                     help="record spans and write a Chrome trace_event JSON "
                          "here (open in chrome://tracing or Perfetto); a "
                          "raw span log lands next to it at PATH.spans.jsonl")
    obs.add_argument("--metrics", default=None, dest="metrics_path",
                     metavar="PATH",
                     help="record runtime counters/gauges/histograms and "
                          "write the JSON snapshot here")
    return common


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate the FedADMM paper's tables and figures.",
    )
    parser.add_argument("--list", action="store_true",
                        help="list experiments and exit")
    shared = _shared_flags()
    subparsers = parser.add_subparsers(dest="experiment", metavar="experiment")
    for study in STUDIES:
        sub = subparsers.add_parser(
            study.name, help=study.description, parents=[shared],
            description=study.description,
        )
        for flag in study.flags:
            sub.add_argument(flag.name, **flag.kwargs)
    profile = subparsers.add_parser(
        "profile", parents=[shared],
        help="run a study traced and print its hot-spot table",
        description="Run one study under a tracer (with per-kernel spans "
                    "on the vectorized executor), then print the spans' "
                    "self time by name.",
    )
    profile.add_argument("study", choices=sorted(EXPERIMENTS),
                         help="the study to profile")
    profile.add_argument("--top", type=positive_int, default=None,
                         help="show only the N hottest entries")
    runs = subparsers.add_parser(
        "runs", help="inspect/maintain the persistent run store",
        description="List, show, and clean the run records behind "
                    "--store-dir / --resume.",
    )
    runs.add_argument("action", choices=["list", "show", "clean"])
    runs.add_argument("key", nargs="?", default=None,
                      help="run key (for `runs show`)")
    runs.add_argument("--store-dir", default=DEFAULT_STORE_DIR,
                      help=f"store directory (default: {DEFAULT_STORE_DIR})")
    runs.add_argument("--status", nargs="+", default=None,
                      choices=[status.value for status in RunStatus],
                      help="list: only these statuses; "
                           "clean: drop these statuses "
                           "(default: pending/running/failed)")
    _add_contributions_parser(subparsers, shared)
    _add_serve_parsers(subparsers)
    return parser


def _add_contributions_parser(subparsers, shared) -> None:
    """The `contributions` subcommand (client data valuation)."""
    from repro.algorithms import ALGORITHM_REGISTRY

    contributions = subparsers.add_parser(
        "contributions", parents=[shared],
        help="score each client's contribution (leave-one-out / Shapley)",
        description="Value every client's participation by re-running the "
                    "federation on client coalitions: leave-one-out "
                    "deltas or truncated Monte-Carlo Shapley scores. "
                    "Each coalition is an ordinary run: --jobs runs them "
                    "in parallel and --resume reuses every one already in "
                    "the --store-dir store "
                    "(see docs/tutorials/robustness.md).",
    )
    contributions.add_argument("--algorithm", default="fedavg",
                               choices=sorted(ALGORITHM_REGISTRY))
    contributions.add_argument("--method", default="loo",
                               choices=["loo", "shapley"])
    contributions.add_argument("--permutations", type=int, default=10,
                               help="Shapley: sampled permutations")
    contributions.add_argument("--tolerance", type=float, default=0.01,
                               help="Shapley: truncate a permutation walk "
                                    "once the prefix utility is this close "
                                    "to the full-coalition utility")


def _add_serve_parsers(subparsers) -> None:
    """The networked-runtime subcommands (see repro.serve)."""
    from repro.algorithms import ALGORITHM_REGISTRY

    def add_scenario_flags(sub):
        sub.add_argument("--algorithm", default="fedavg",
                         choices=sorted(ALGORITHM_REGISTRY))
        sub.add_argument("--rho", type=finite_float, default=0.3,
                         help="FedADMM proximal coefficient")
        sub.add_argument("--dataset", default="blobs",
                         choices=["mnist", "fmnist", "cifar10", "blobs"])
        sub.add_argument("--iid", action="store_true",
                         help="use the IID partition (default: non-IID shards)")
        sub.add_argument("--codec", default="float16",
                         choices=sorted(CODEC_REGISTRY) + ["none"],
                         help="upload codec; 'none' ships raw float64")
        sub.add_argument("--mode", default="sync",
                         choices=["sync", "semisync", "async"])
        sub.add_argument("--rounds", type=int, default=None,
                         help="override the scenario's round budget")
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument("--output", default=None,
                         help="optional path to save the result/report JSON")

    serve = subparsers.add_parser(
        "serve", help="run a federation server with optional local workers",
        description="Serve one federated run over loopback/LAN HTTP: the "
                    "composition root drives rounds while worker processes "
                    "pull seeded tasks and push codec-encoded deltas "
                    "(see docs/tutorials/serving.md).",
    )
    add_scenario_flags(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=port_number, default=0,
                       help="listen port (default: an ephemeral free port)")
    serve.add_argument("--workers", type=non_negative_int, default=2,
                       help="worker processes to spawn locally; 0 means "
                            "workers attach externally via `repro worker`")
    serve.add_argument("--lease-s", type=positive_float, default=30.0,
                       help="task lease; a silent worker's task is "
                            "reclaimed after this many seconds")
    serve.add_argument("--store-dir", default=None,
                       help="checkpoint every round into this run store")
    serve.add_argument("--resume", action="store_true",
                       help="resume from the --store-dir checkpoint")

    worker = subparsers.add_parser(
        "worker", help="attach a worker process to a federation server",
        description="Pull seeded local-update tasks from a running "
                    "`repro serve` server and push encoded deltas back.",
    )
    worker.add_argument("url", help="server URL, e.g. http://127.0.0.1:8765")
    worker.add_argument("--max-tasks", type=int, default=None)
    worker.add_argument("--poll-interval", type=non_negative_float, default=0.05,
                        help="seconds to back off after a connection error "
                             "(task requests block server-side; there is no "
                             "idle polling)")
    worker.add_argument("--worker-id", default=None)

    loadtest = subparsers.add_parser(
        "loadtest", help="drive a server with replayed heterogeneous traffic",
        description="Run server + paced workers replaying the lognormal "
                    "client profiles; report sustained rounds/sec, p99 "
                    "round latency, and real-vs-ledger wire bytes.",
    )
    add_scenario_flags(loadtest)
    loadtest.add_argument("--workers", type=int, default=2)
    loadtest.add_argument("--budget", type=float, default=10.0,
                          dest="simulated_budget_s",
                          help="stop once this much simulated time has "
                               "accumulated (default: 10s)")
    loadtest.add_argument("--max-rounds", type=int, default=None,
                          help="hard cap on rounds regardless of budget")
    loadtest.add_argument("--time-scale", type=float, default=0.01,
                          help="real seconds slept per simulated second "
                               "of a client's round profile")


def _format_duration(seconds: float) -> str:
    """Compact human-readable duration: ``42.1s``, ``3m10s``, ``1h02m``."""
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _progress_printer(event: SpecEvent) -> None:
    """Render one orchestrator progress event as a ``[k/n]`` line."""
    if event.event == "start":
        return
    position = f"[{event.index + 1}/{event.total}]"
    elapsed = "" if event.elapsed_s is None else f" {event.elapsed_s:.1f}s"
    eta = "" if event.eta_s is None else f" (eta {_format_duration(event.eta_s)})"
    suffix = f" ({event.error.splitlines()[-1]})" if event.error else ""
    print(f"{position} {event.event:7s} {event.spec.label()}{elapsed}{eta}{suffix}")


def build_orchestrator(args: Any) -> SweepOrchestrator | None:
    """Construct the sweep orchestrator the given CLI flags ask for.

    Returns ``None`` when no orchestration flag was used, so plain
    invocations keep the exact historical output (no progress lines, no
    store writes).
    """
    jobs = getattr(args, "jobs", None)
    jobs = 1 if jobs is None else jobs
    resume = getattr(args, "resume", False)
    store_dir = getattr(args, "store_dir", None)
    want_progress = getattr(args, "progress", False)
    if jobs == 1 and not resume and store_dir is None and not want_progress:
        return None
    if store_dir is None and resume:
        store_dir = DEFAULT_STORE_DIR
    store = ExperimentStore(store_dir) if store_dir is not None else None
    return SweepOrchestrator(
        jobs=jobs, store=store, resume=resume, progress=_progress_printer
    )


def run_experiment(name: str, args: Any) -> dict:
    """Run one named experiment and return a JSON-serialisable result summary."""
    study = STUDIES.get(name)  # unknown names raise ValueError
    request = StudyRequest.from_args(args, option_names=study.option_names())
    return STUDIES.run(name, request, orchestrator=build_orchestrator(args))


# --------------------------------------------------------------------------- #
# The `runs` subcommand (store inspection/maintenance)
# --------------------------------------------------------------------------- #
def _record_row(record) -> dict:
    return {
        "key": record.key,
        "status": record.status.value,
        "study": record.study,
        "spec": "/".join(str(part) for part in record.spec_key),
        "algorithm": record.algorithm,
        "seed": record.seed,
        "duration_s": (
            "-" if record.duration_s is None else f"{record.duration_s:.1f}"
        ),
    }


def _format_bytes(count: float) -> str:
    """Human-readable byte count (``12.3 MiB``)."""
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(value) < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


def _print_wire_totals(result) -> None:
    """Wire-byte totals, preferring the run's metrics snapshot when saved."""
    snapshot = result.metadata.get("metrics")
    if isinstance(snapshot, dict):
        counters = snapshot.get("counters", {})
        uploads = sum(
            value for name, value in counters.items()
            if name.startswith("wire.upload_bytes.")
        )
        downloads = counters.get("wire.download_bytes", 0.0)
        if uploads or downloads:
            print(f"upload_wire_bytes: {_format_bytes(uploads)} (from metrics)")
            print(f"download_wire_bytes: {_format_bytes(downloads)} (from metrics)")
            return
    print(
        "upload_wire_bytes: "
        f"{_format_bytes(result.history.total_upload_wire_bytes())}"
    )


def handle_runs(args: Any) -> int:
    """Implement ``repro runs list|show|clean``."""
    store = ExperimentStore(args.store_dir)
    if args.action == "list":
        records = store.records()
        wanted = set(args.status) if args.status else None
        rows = [
            _record_row(record)
            for record in records.values()
            if wanted is None or record.status.value in wanted
        ]
        if rows:
            print(format_table(rows))
        counts = ", ".join(
            f"{status}={count}" for status, count in store.summary().items()
        )
        print(f"{len(rows)} run(s) listed ({counts}) in {store.root}")
        return 0
    if args.action == "show":
        if not args.key:
            print("error: `runs show` needs a run key", file=sys.stderr)
            return 2
        record = store.record(args.key)
        if record is None:
            print(f"error: no run {args.key!r} in {store.root}", file=sys.stderr)
            return 1
        print(format_table([_record_row(record)]))
        if record.updated_at:
            age = max(0.0, time.time() - record.updated_at)
            print(f"\nstatus: {record.status.value} "
                  f"(as of {_format_duration(age)} ago)")
        if record.duration_s is not None:
            print(f"run duration: {_format_duration(record.duration_s)}")
        if record.error:
            print(f"\nerror:\n{record.error}")
        if store.has_result(record.key):
            result = store.load_result(record.key)
            print(f"\nrounds_run: {result.rounds_run}")
            print(f"rounds_to_target: {result.rounds_to_target}")
            print(f"final_accuracy: {result.history.final_accuracy():.4f}")
            print(f"simulated_seconds: {result.simulated_seconds:.1f}")
            _print_wire_totals(result)
        return 0
    # clean
    statuses = (
        [RunStatus(value) for value in args.status] if args.status else None
    )
    dropped = store.clean(statuses)
    print(f"dropped {len(dropped)} run(s) from {store.root}")
    return 0


# --------------------------------------------------------------------------- #
# The serve layer subcommands (`serve`, `worker`, `loadtest`)
# --------------------------------------------------------------------------- #
def _serve_scenario(args):
    """(config, spec) for the serve/loadtest flags."""
    from repro.experiments.configs import AlgorithmSpec, preset_config

    config = preset_config(
        "serve",
        dataset=args.dataset,
        non_iid=not args.iid,
        seed=args.seed,
        codec=None if args.codec == "none" else args.codec,
        mode=args.mode,
        **({} if args.rounds is None else {"num_rounds": args.rounds}),
    )
    kwargs = {"rho": args.rho} if args.algorithm == "fedadmm" else {}
    return config, AlgorithmSpec(args.algorithm, kwargs)


def handle_serve(args: Any) -> int:
    """Implement ``repro serve``: server plus optional local workers."""
    import multiprocessing

    from repro.serve.server import FederationServer
    from repro.serve.worker import run_worker

    config, spec = _serve_scenario(args)
    server = FederationServer(
        config, spec,
        host=args.host, port=args.port,
        lease_s=args.lease_s,
        store_dir=args.store_dir, resume=args.resume,
    )
    server.start()
    print(f"serving {config.name} / {spec.label()} at {server.url}")
    if server.resumed_from_round:
        print(f"resumed from round {server.resumed_from_round}")
    workers = [
        multiprocessing.Process(
            target=run_worker,
            kwargs=dict(url=server.url, worker_id=f"local-{index}"),
            daemon=True,
        )
        for index in range(args.workers)
    ]
    for process in workers:
        process.start()
    try:
        result = server.wait()
    except KeyboardInterrupt:
        print("\ninterrupted; finishing the in-flight round ...")
        server.request_stop()
        result = server.wait(timeout=60)
    finally:
        server.stop()
        for process in workers:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
    print(f"rounds_run: {result.rounds_run}")
    print(f"final_accuracy: {result.history.final_accuracy():.4f}")
    print(f"upload_wire_bytes: {_format_bytes(result.ledger.upload_wire_bytes)}")
    counters = server.metrics.snapshot()["counters"]
    codec_name = result.metadata.get("codec") or "raw"
    real = counters.get(f"serve.payload_bytes.{codec_name}", 0)
    print(f"real_upload_payload_bytes: {_format_bytes(real)}")
    if args.output:
        path = save_json(to_jsonable(server.status_snapshot()), args.output)
        print(f"Saved serve status to {path}")
    return 0


def handle_worker(args: Any) -> int:
    """Implement ``repro worker``: attach to a running server."""
    from repro.serve.worker import run_worker

    try:
        completed = run_worker(
            args.url,
            max_tasks=args.max_tasks,
            poll_interval=args.poll_interval,
            worker_id=args.worker_id,
        )
    except OSError as exc:  # e.g. nothing listens at the URL (refused)
        print(f"error: worker for {args.url} stopped: {exc}", file=sys.stderr)
        return 1
    print(f"completed {completed} task(s)")
    return 0


def handle_loadtest(args: Any) -> int:
    """Implement ``repro loadtest``: paced traffic replay + report."""
    from repro.serve.loadgen import run_load_test

    config, spec = _serve_scenario(args)
    report = run_load_test(
        config, spec,
        num_workers=args.workers,
        simulated_budget_s=args.simulated_budget_s,
        max_rounds=args.max_rounds,
        time_scale=args.time_scale,
    )
    payload = report.to_payload()
    for key, value in payload.items():
        print(f"{key}: {value}")
    if args.output:
        path = save_json(payload, args.output)
        print(f"Saved load report to {path}")
    return 0


# --------------------------------------------------------------------------- #
# The `contributions` subcommand (client data valuation)
# --------------------------------------------------------------------------- #
def run_contributions(args: Any) -> dict:
    """Implement ``repro contributions``: leave-one-out / Shapley valuation."""
    from repro.experiments.configs import AlgorithmSpec
    from repro.experiments.contributions import compute_contributions

    request = StudyRequest.from_args(args)
    config = request.config("contributions")
    kwargs = {"rho": request.rho} if args.algorithm == "fedadmm" else {}
    spec = AlgorithmSpec(args.algorithm, kwargs)
    report = compute_contributions(
        config, spec,
        method=args.method,
        permutations=args.permutations,
        tolerance=args.tolerance,
        orchestrator=build_orchestrator(args),
    )
    print(f"{args.method} contribution scores for {config.name} / "
          f"{spec.label()} ({config.num_clients} clients, "
          f"{config.num_rounds} rounds)")
    print(f"utility(all clients) = {report.utility_full:.4f}   "
          f"utility(no clients) = {report.utility_empty:.4f}")
    rows = [
        {"client": client, "score": f"{score:+.4f}"}
        for client, score in report.ranked()
    ]
    print(format_table(rows))
    reuse = f", {report.runs_reused} reused" if report.runs_reused else ""
    print(f"{report.runs_executed} coalition run(s) executed{reuse}")
    if args.method == "shapley":
        print(f"permutations: {report.permutations} "
              f"(truncated walks: {report.metadata['truncated_walks']})")
    return report.to_payload()


def _support_summary(study) -> str:
    """One-line modes/executors support summary for a study listing."""
    if not study.modes and not study.executors:
        return "closed form (no training; plan/executor flags rejected)"
    return (
        f"modes: {'|'.join(study.modes)}   "
        f"executors: {'|'.join(study.executors)}"
    )


def _print_listing() -> None:
    print("Available experiments:\n")
    for study in sorted(STUDIES, key=lambda s: s.name):
        print(f"  {study.name:8s} {study.description}")
        print(f"  {'':8s}   {_support_summary(study)}")


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli``."""
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`repro runs list | head -1`).  The
        # flush at interpreter exit would raise again, so stdout is pointed
        # at the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv: list[str] | None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list or args.experiment is None:
        _print_listing()
        return 0
    handler = {
        "runs": handle_runs,
        "serve": handle_serve,
        "worker": handle_worker,
        "loadtest": handle_loadtest,
    }.get(args.experiment)
    if handler is not None:
        try:
            return handler(args)
        except (ConfigurationError, ProtocolError) as exc:
            # Same fail-fast contract as the study subcommands: bad flag
            # values and unreachable/incompatible servers die with one
            # clear line, not a traceback.
            print(f"error: {exc}", file=sys.stderr)
            return 2

    profiling = args.experiment == "profile"
    study_name = args.study if profiling else args.experiment
    trace_path = getattr(args, "trace_path", None)
    tracer = Tracer() if profiling or trace_path else None
    metrics = MetricsRegistry() if getattr(args, "metrics_path", None) else None
    try:
        with observe(tracer=tracer, metrics=metrics):
            result = (
                run_contributions(args) if study_name == "contributions"
                else run_experiment(study_name, args)
            )
    except ReproError as exc:
        # One clear line instead of a traceback: exit 2 for unsupported
        # flag combinations (e.g. `--mode sync` on the async study), 1 for
        # a sweep whose points failed (the orchestrator's summary).
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    if trace_path:
        trace_path = tracer.write_chrome_trace(trace_path)
        span_log = tracer.write_span_log(f"{args.trace_path}.spans.jsonl")
        print(f"\nWrote Chrome trace to {trace_path} "
              f"({len(tracer)} spans; span log: {span_log})")
    if metrics is not None:
        metrics_path = metrics.write_json(args.metrics_path)
        print(f"Wrote metrics snapshot to {metrics_path}")
    if profiling:
        print(f"\nHot spots for {study_name}:")
        print(hotspot_table(tracer.records, top=args.top))
    if args.output:
        path = save_json(to_jsonable(result), args.output)
        print(f"\nSaved raw results to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
