"""Command-line interface for the reproduction.

Subcommands:

* ``figures`` — regenerate every figure of the paper and report the checks.
* ``experiment E3`` — run one experiment and print its result table.
* ``search "Database, Disorder Risks"`` — query the built-in demo
  repository (the disease-susceptibility workflow plus its Fig. 4
  execution) at a chosen access level.
* ``validate spec.json`` — validate a specification stored as JSON.
* ``info`` — print the library version and the demo repository statistics.
* ``serve`` — run a standalone Gamma evaluation server (unix/TCP socket)
  that any number of client processes share as a warm kernel service.
* ``snapshots gc`` — garbage-collect and compact a kernel snapshot
  directory (age/size bounds) for long-lived deployments.

Run ``python -m repro.cli --help`` for the full usage.
"""

from __future__ import annotations

import argparse
import inspect
import signal
import sys
from typing import TYPE_CHECKING, Sequence

from repro import __version__
from repro.errors import ReproError

if TYPE_CHECKING:
    from repro.storage.repository import WorkflowRepository


def build_demo_repository() -> WorkflowRepository:
    """The repository used by the ``search`` and ``info`` subcommands."""
    from repro.execution.gallery import disease_susceptibility_execution
    from repro.privacy.policy import PrivacyPolicy
    from repro.storage.repository import WorkflowRepository
    from repro.views.access import ANALYST, OWNER, PUBLIC
    from repro.workflow.gallery import disease_susceptibility_specification

    specification = disease_susceptibility_specification()
    policy = PrivacyPolicy(specification)
    policy.set_access_view(PUBLIC, {"W1"})
    policy.set_access_view(ANALYST, {"W1", "W2", "W4"})
    policy.set_access_view(OWNER, {"W1", "W2", "W3", "W4"})
    policy.protect_data_label("disorders", OWNER)
    policy.hide_structure("M13", "M11", minimum_level=OWNER)
    repository = WorkflowRepository("demo")
    repository.add_specification(specification, policy=policy)
    repository.add_execution(disease_susceptibility_execution())
    return repository


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import reproduce_all_figures

    artifacts = reproduce_all_figures()
    failures = 0
    for figure_id in sorted(artifacts):
        artifact = artifacts[figure_id]
        status = "ok" if artifact.all_checks_pass else "FAILED"
        print(f"[{status}] {figure_id}: {artifact.description}")
        if args.verbose:
            print(artifact.rendering)
            print()
        if not artifact.all_checks_pass:
            failures += 1
            for name, passed in artifact.checks.items():
                if not passed:
                    print(f"    failed check: {name}")
    return 1 if failures else 0


def _experiment_span() -> str:
    """The experiment id range, derived from the registry (e.g. ``E1-E12``)."""
    from repro.experiments import ALL_EXPERIMENTS

    ids = sorted(ALL_EXPERIMENTS, key=lambda name: int(name.lstrip("E")))
    if len(ids) == 1:
        return ids[0]
    return f"{ids[0]}-{ids[-1]}"


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import ALL_EXPERIMENTS, ALL_HEADLINES
    from repro.experiments.reporting import format_table

    experiment_id = args.experiment_id.upper()
    if experiment_id not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {experiment_id!r}; choose one of "
            f"{', '.join(sorted(ALL_EXPERIMENTS))}",
            file=sys.stderr,
        )
        return 2
    runner = ALL_EXPERIMENTS[experiment_id]
    parameters = inspect.signature(runner).parameters
    kwargs = {}
    if args.workers is not None:
        if "workers" in parameters:
            kwargs["workers"] = args.workers
        else:
            print(
                f"note: {experiment_id} does not take --workers; ignoring",
                file=sys.stderr,
            )
    if getattr(args, "endpoints", None):
        if "endpoints" in parameters:
            kwargs["endpoints"] = [
                endpoint.strip()
                for endpoint in args.endpoints.split(",")
                if endpoint.strip()
            ]
        else:
            print(
                f"note: {experiment_id} does not take --endpoints; ignoring",
                file=sys.stderr,
            )
    for option in ("probe_interval", "coalesce", "tls_ca", "auth_token"):
        value = getattr(args, option, None)
        if value is None:
            continue
        if option in parameters:
            kwargs[option] = value
        else:
            flag = "--" + option.replace("_", "-")
            print(
                f"note: {experiment_id} does not take {flag}; ignoring",
                file=sys.stderr,
            )
    rows = runner(**kwargs)
    print(format_table(rows, title=f"{experiment_id} result table"))
    print()
    print("headline:", ALL_HEADLINES[experiment_id](rows))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.query.repository_engine import RepositoryQueryEngine
    from repro.views.access import ANALYST, User

    repository = build_demo_repository()
    engine = RepositoryQueryEngine(repository)
    level = ANALYST if args.level is None else args.level
    user = User("cli-user", level=level)
    outcome = engine.search(user, args.query)
    print(f"query kind: {outcome.kind}; hits: {outcome.hits}")
    for answer in outcome.answers:
        if not answer.ok:
            print(f"  [{answer.specification_id}] {answer.result.status}: "
                  f"{answer.result.note}")
            continue
        payload = answer.result.answer
        if hasattr(payload, "render"):
            print(f"  [{answer.specification_id}] score={answer.score:.3f}")
            print("    " + payload.render().replace("\n", "\n    "))
        else:
            print(f"  [{answer.specification_id}] score={answer.score:.3f} "
                  f"answer={payload!r}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.workflow.serialization import specification_from_json

    try:
        with open(args.path, "r", encoding="utf8") as handle:
            text = handle.read()
        specification = specification_from_json(text)
    except (OSError, ReproError) as exc:
        print(f"invalid specification: {exc}", file=sys.stderr)
        return 1
    print(
        f"ok: {specification.root_id} with {len(specification)} workflows and "
        f"{len(specification.module_ids())} modules"
    )
    return 0


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import GammaServer

    if args.unix:
        address: str | tuple = ("unix", args.unix)
    else:
        address = ("tcp", args.host, args.port)
    if bool(args.tls_cert) != bool(args.tls_key):
        print("--tls-cert and --tls-key must be given together", file=sys.stderr)
        return 2
    if args.tls_client_ca and not args.tls_cert:
        print("--tls-client-ca requires --tls-cert/--tls-key", file=sys.stderr)
        return 2
    policy = args.policy
    if policy is None and args.auth_token:
        from repro.service.security import PolicyTable

        policy = PolicyTable.single_token(args.auth_token)
    server = GammaServer(
        address,
        budget_bytes=args.budget_bytes,
        total_budget_bytes=args.total_budget_bytes,
        snapshot_dir=args.snapshot_dir,
        tls_cert=args.tls_cert,
        tls_key=args.tls_key,
        tls_client_ca=args.tls_client_ca,
        policy=policy,
    )
    security = "tls" if args.tls_cert else "plaintext"
    if policy is not None:
        security += "+token"
    print(f"gamma server listening on {server.address} "
          f"(snapshot_dir={args.snapshot_dir}, security={security})")
    # SIGTERM (kill, supervisors, container stop) takes the same orderly
    # path as Ctrl-C: close() snapshots warm kernels and unlinks the socket.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.close()
    return 0


def _cmd_snapshots_gc(args: argparse.Namespace) -> int:
    from repro.service.persistence import KernelSnapshotStore

    store = KernelSnapshotStore(args.directory)
    max_age = None if args.max_age_hours is None else args.max_age_hours * 3600.0
    report = store.gc(
        max_age_seconds=max_age,
        max_total_bytes=args.max_bytes,
        dry_run=args.dry_run,
    )
    prefix = "would remove" if args.dry_run else "removed"
    print(
        f"{prefix} {report['removed_by_age']} snapshot(s) by age, "
        f"{report['removed_by_size']} by size; kept {report['kept']} "
        f"({report['bytes_before']} -> {report['bytes_after']} bytes)"
    )
    if args.compact and not args.dry_run:
        compaction = store.compact()
        print(
            f"compacted {compaction['rewritten']} snapshot(s), dropped "
            f"{compaction['dropped']} unreadable "
            f"({compaction['bytes_before']} -> {compaction['bytes_after']} bytes)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    del args
    repository = build_demo_repository()
    print(f"repro {__version__}")
    for key, value in repository.statistics().items():
        print(f"  {key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy-enabled provenance-aware workflow system (CIDR 2011 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figures = subparsers.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--verbose", action="store_true", help="print renderings")
    figures.set_defaults(handler=_cmd_figures)

    experiment = subparsers.add_parser(
        "experiment", help=f"run one experiment ({_experiment_span()})"
    )
    experiment.add_argument("experiment_id", help="experiment id, e.g. E3")
    experiment.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "Gamma servers to fork for experiments backed by the "
            "evaluation service (E9, E10), one per worker, each on a "
            "private unix socket; 0 forces the in-process fallback"
        ),
    )
    experiment.add_argument(
        "--coalesce",
        type=int,
        default=None,
        help=(
            "batch-coalescing threshold for service-backed experiments "
            "(E9): buffer submitted tasks per shard and flush once a "
            "shard holds this many, so one IPC round trip carries many "
            "subset evaluations; 0 dispatches each request immediately"
        ),
    )
    experiment.add_argument(
        "--endpoints",
        default=None,
        help=(
            "comma-separated Gamma server addresses (host:port, "
            "tls://host:port or unix:/path) for federation experiments "
            "(E11): sweep an already-running federation instead of "
            "spawning local servers"
        ),
    )
    experiment.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        help=(
            "health-prober cadence in seconds for elastic federation "
            "experiments (E11); lost endpoints are pinged and re-admitted "
            "on recovery"
        ),
    )
    experiment.add_argument(
        "--tls-ca",
        default=None,
        help=(
            "CA bundle that pins the federation servers' TLS "
            "certificates when --endpoints uses tls:// addresses"
        ),
    )
    experiment.add_argument(
        "--auth-token",
        default=None,
        help="tenant token presented to token-authenticated endpoints",
    )
    experiment.set_defaults(handler=_cmd_experiment)

    serve = subparsers.add_parser(
        "serve",
        help=(
            "run a standalone Gamma evaluation server (shared warm "
            "kernels; answers federation ping probes for elastic pools)"
        ),
    )
    serve.add_argument("--unix", help="unix socket path to listen on")
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument("--port", type=int, default=7441, help="TCP bind port")
    serve.add_argument("--budget-bytes", type=int, default=None,
                       help="per-kernel cache byte budget")
    serve.add_argument("--total-budget-bytes", type=int, default=None,
                       help="registry-wide cache byte budget (cross-kernel LRU)")
    serve.add_argument("--snapshot-dir", default=None,
                       help="warm-kernel snapshot directory (persist + preload)")
    serve.add_argument("--tls-cert", default=None,
                       help="server TLS certificate (PEM); enables TLS")
    serve.add_argument("--tls-key", default=None,
                       help="server TLS private key (PEM)")
    serve.add_argument(
        "--tls-client-ca",
        default=None,
        help="CA bundle for *required* client certificates (mutual TLS)",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        help=(
            "single shared auth token every client must present before "
            "its first frame (shorthand for a one-tenant --policy)"
        ),
    )
    serve.add_argument(
        "--policy",
        default=None,
        help=(
            "JSON tenant policy file: per-tenant token, fair-share "
            "weight and queue quota (see README 'Production deployment')"
        ),
    )
    serve.set_defaults(handler=_cmd_serve)

    snapshots = subparsers.add_parser(
        "snapshots", help="manage kernel snapshot directories"
    )
    snapshots_sub = snapshots.add_subparsers(dest="snapshots_command", required=True)
    gc = snapshots_sub.add_parser(
        "gc", help="bound a snapshot directory by age/size; optionally compact"
    )
    gc.add_argument("directory", help="snapshot directory to collect")
    gc.add_argument("--max-age-hours", type=float, default=None,
                    help="delete snapshots older than this many hours")
    gc.add_argument("--max-bytes", type=int, default=None,
                    help="delete oldest snapshots until the directory fits")
    gc.add_argument("--compact", action="store_true",
                    help="rewrite surviving snapshots in canonical form")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be removed without deleting")
    gc.set_defaults(handler=_cmd_snapshots_gc)

    search = subparsers.add_parser("search", help="query the demo repository")
    search.add_argument("query", help='e.g. "Database, Disorder Risks" or "PROVENANCE d10"')
    search.add_argument(
        "--level",
        type=int,
        default=None,
        help=(
            "access level of the querying user (0=public, 1=analyst, "
            "2=owner; default analyst)"
        ),
    )
    search.set_defaults(handler=_cmd_search)

    validate = subparsers.add_parser("validate", help="validate a specification JSON file")
    validate.add_argument("path", help="path to the specification JSON")
    validate.set_defaults(handler=_cmd_validate)

    info = subparsers.add_parser("info", help="print version and demo statistics")
    info.set_defaults(handler=_cmd_info)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return int(args.handler(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
