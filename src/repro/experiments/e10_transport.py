"""Experiment E10 -- transports and pipelining for secure-view search.

PR 3 measured the sharded service on flat Gamma sweeps (E9); this
experiment measures what the paper's *secure-view search* -- a deep
best-first branch-and-bound whose every node used to pay one service
round trip -- gains from the two PR 4 mechanisms:

* **transport abstraction** -- the same exact solver runs against the
  in-process oracle (``workers=0``), the ``multiprocess`` cell
  (``workers=N``: a pool over N forked servers on private unix
  sockets), and a standalone :class:`~repro.service.server.GammaServer`
  over unix and TCP sockets, byte-identical by contract (every row is
  checked against the local-kernel oracle);
* **pipelined frontier evaluation** -- ``pipeline_depth`` k > 1
  dispatches the Gamma batches of the top-k frontier nodes
  speculatively, so per-node transport latency overlaps evaluation
  instead of serializing with it.

The sweep crosses transport x pipeline depth on one workload and
reports wall time, the solver's evaluation count (identical across all
cells -- the pipelining-changes-nothing invariant), dispatch-latency
percentiles from the coordinator (where the time goes), and retry
counters.  The expected shape: depth k > 1 beats k = 1 most on the
highest-latency transports (sockets), and ``matches_oracle`` is True
everywhere.  In process there is no latency to hide, so the solver
never speculates there: every in-process cell runs as depth 1, its
synchronous calls reading each Gamma straight from the coordinator's
kernels (no batch, no latency sample, so ``p50_ms`` reads 0.0).  On
the default workload on a 2-core VM the three in-process cells take
about 2.5 ms each; speculating there took 11-12 ms at depths 4 and 8.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.reporting import ResultTable
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
)
from repro.service import GammaServer, ShardCoordinator


@dataclass(frozen=True)
class E10Config:
    """Parameters of experiment E10.

    The workload is a workflow of ``modules`` distinct private modules
    (2-in/2-out, domain 3) with escalating Gamma targets -- enough
    frontier depth that per-node latency dominates a sequential
    socket-backed search.
    """

    transports: tuple[str, ...] = ("inprocess", "multiprocess", "unix", "tcp")
    depths: tuple[int, ...] = (1, 4, 8)
    modules: int = 3
    workers: int = 2
    n_inputs: int = 2
    n_outputs: int = 2
    domain_size: int = 3
    seed: int = 83


def build_requirements(config: E10Config) -> WorkflowPrivacyRequirements:
    """A fresh requirements object (fresh local kernels) for one cell."""
    requirements = WorkflowPrivacyRequirements()
    for index in range(config.modules):
        relation = ModuleRelation.random(
            f"E10M{index}",
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=config.seed + index,
        )
        requirements.add(relation, 2 + index % 2)
    return requirements


def _coordinator_for(
    transport: str, config: E10Config, server: GammaServer | None, workers: int
) -> ShardCoordinator:
    if transport == "inprocess":
        return ShardCoordinator(0)
    if transport == "multiprocess":
        return ShardCoordinator(max(1, workers))
    if transport in ("unix", "tcp"):
        assert server is not None
        return ShardCoordinator(address=server.address)
    raise ValueError(f"unknown E10 transport {transport!r}")


def run(
    config: E10Config | None = None,
    *,
    workers: int | None = None,
) -> ResultTable:
    """Run E10: one row per (transport, pipeline depth).

    ``workers`` (the CLI's ``--workers``) overrides how many servers the
    multiprocess cell forks.  Socket cells share one warm
    server per address family, so the depth sweep also shows the
    multi-tenant warm-kernel effect (later cells hit warm kernels).
    """
    config = config or E10Config()
    worker_count = config.workers if workers is None else max(1, workers)
    oracle = exact_secure_view(build_requirements(config))
    rows: ResultTable = []
    socket_dir = Path(tempfile.mkdtemp(prefix="e10-"))
    servers: dict[str, GammaServer] = {}
    try:
        for transport in config.transports:
            if transport == "unix" and transport not in servers:
                servers[transport] = GammaServer(
                    ("unix", str(socket_dir / "e10.sock"))
                ).start()
            if transport == "tcp" and transport not in servers:
                servers[transport] = GammaServer(("tcp", "127.0.0.1", 0)).start()
            for depth in config.depths:
                requirements = build_requirements(config)
                with _coordinator_for(
                    transport, config, servers.get(transport), worker_count
                ) as coordinator:
                    started = time.perf_counter()
                    result = exact_secure_view(
                        requirements, service=coordinator, pipeline_depth=depth
                    )
                    elapsed_ms = (time.perf_counter() - started) * 1000.0
                    stats = coordinator.service_stats()
                rows.append(
                    {
                        "transport": transport,
                        "depth": depth,
                        "time_ms": round(elapsed_ms, 3),
                        "evaluations": result.evaluations,
                        "cost": result.cost,
                        "batches": stats["batches"],
                        "retried": stats["retried_batches"],
                        "p50_ms": stats.get("p50_ms", 0.0),
                        "p99_ms": stats.get("p99_ms", 0.0),
                        "matches_oracle": (
                            result.hidden_labels == oracle.hidden_labels
                            and result.cost == oracle.cost
                            and result.evaluations == oracle.evaluations
                        ),
                    }
                )
    finally:
        for server in servers.values():
            server.close()
        import shutil

        shutil.rmtree(socket_dir, ignore_errors=True)
    return rows


def headline(rows: ResultTable) -> dict[str, object]:
    """Aggregate numbers quoted in EXPERIMENTS.md.

    ``best_pipeline_speedup`` is the best time(depth=1)/time(depth=k)
    over the socket transports -- the latency actually hidden by
    speculative frontier dispatch; on a loaded single-core machine it
    can dip below 1.0 (speculation costs compute there), which the
    acceptance contract accounts for by asserting speedup only on
    multi-core hardware.
    """
    by_transport: dict[str, dict[int, float]] = {}
    for row in rows:
        by_transport.setdefault(str(row["transport"]), {})[int(row["depth"])] = float(
            row["time_ms"]
        )
    best = 0.0
    for transport in ("unix", "tcp", "multiprocess"):
        times = by_transport.get(transport)
        if not times or 1 not in times:
            continue
        base = times[1]
        for depth, elapsed in times.items():
            if depth > 1 and elapsed > 0:
                best = max(best, base / elapsed)
    return {
        "best_pipeline_speedup": round(best, 2),
        "all_match_oracle": all(bool(row["matches_oracle"]) for row in rows),
        "transports": len(by_transport),
    }


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    rows = run()
    print_table(rows, title="E10 -- transports x pipelined secure-view search")
    print(headline(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
