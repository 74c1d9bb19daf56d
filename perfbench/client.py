"""The load-generating client of one benchmark run (one fresh process).

``run.py`` launches this script pinned to its CPU.  It imports the
program, connects (plain TCP, or TLS plus token for both tenants), prints
``READY <monotonic seconds>`` -- the end of set-up -- and, unless
``--setup-only``, runs the workload's closed loop for ``--seconds`` (or,
with ``--views``, for that many views: one episode of ``small_cold_tcp``),
re-solves every served view with the in-process oracle, and writes a
JSON result file to ``--out``.  Every view records the host factor
probed on the ``--probe-cpus`` right before it (see ``metrics.host_factor``).

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/client.py --workload small_cold_tcp \\
        --seed 1 --seconds 10 --port 7441 --out result.json
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import threading
import time

import metrics
import spans
import workloads
from repro.errors import ServiceOverloadError
from repro.privacy import workflow_privacy
from repro.privacy.relations import ModuleRelation
from repro.service.coordinator import ShardCoordinator

#: Gamma-privacy re-checks per run (a seeded sample of the served views).
GAMMA_SAMPLE = 12
#: Resubmissions of a view shed by admission control before it fails.
OVERLOAD_RETRIES = 3
CALIBRATION_LOOP = 400_000
#: Length of one ``publish_warm_tls`` round: the tenants pause between
#: rounds while the host's speed is probed.
ROUND_S = 0.5
#: Longest wait at a round barrier before the run is abandoned.
ROUND_TIMEOUT_S = 120.0
PLACEHOLDER = "<hidden>"


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (median of three)."""
    return sorted(metrics.loop_ms(CALIBRATION_LOOP) for _ in range(3))[1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--port", type=int, default=None)
    parser.add_argument("--tls-ca", default=None)
    parser.add_argument("--tokens", default=None, help="JSON file: tenant -> token")
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--probe-cpus", default="",
        help="comma-separated CPUs the host-speed probes run on (default: where it runs)",
    )
    parser.add_argument(
        "--views", type=int, default=0,
        help="small_cold_tcp: serve exactly this many views (0: run --seconds)",
    )
    parser.add_argument(
        "--first-index", type=int, default=0,
        help="small_cold_tcp: index of the first view in the seeded sequence",
    )
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--corrupt-oracle",
        action="store_true",
        help="alter the first oracle answer (proves mismatches are caught)",
    )
    return parser.parse_args(argv)


def summary_of(result) -> dict:
    """What the oracle comparison looks at in a ``SecureViewResult``."""
    return {
        "hidden": sorted(result.hidden_labels),
        "cost": result.cost,
        "evaluations": result.evaluations,
    }


def oracle_of(requirements, corrupt: bool) -> dict:
    """The in-process answer (no service), optionally corrupted."""
    answer = summary_of(workflow_privacy.exact_secure_view(requirements))
    if corrupt:
        answer["cost"] += 1.0
    return answer


def grouped_gamma(relation, hidden) -> int:
    """Gamma recomputed from the definition in one grouped pass.

    ``reference_achieved_gamma`` rescans the table once per input
    (O(rows^2), about 10^8 steps on a 10 000-row relation), so the large
    workload re-derives Gamma here instead: group rows by their visible
    inputs, count distinct visible-output projections per group, and
    multiply by the completions of the hidden outputs.
    """
    visible_in = [i for i, a in enumerate(relation.inputs) if a.name not in hidden]
    visible_out = [i for i, a in enumerate(relation.outputs) if a.name not in hidden]
    groups: dict[tuple, set] = {}
    for key, value in relation.rows_view.items():
        groups.setdefault(tuple(key[i] for i in visible_in), set()).add(
            tuple(value[i] for i in visible_out)
        )
    completions = 1
    for index, attribute in enumerate(relation.outputs):
        if index not in visible_out:
            completions *= len(attribute.domain)
    return min(len(outputs) for outputs in groups.values()) * completions


class Run:
    """State of one measured run: views, failures and checks."""

    def __init__(self, args, tracer: spans.Tracer | None) -> None:
        self.args = args
        self.tracer = tracer
        self.views: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.lock = threading.Lock()
        #: ``service_stats()`` of every coordinator used.
        self.coordinator_stats: list[dict] = []
        #: In-process kernel counters summed over per-view coordinators.
        self.kernel_stats: dict[str, float] = {}

    def host_factor(self) -> float:
        """``metrics.host_factor()`` on the CPUs this run's work uses."""
        cpus = [int(cpu) for cpu in self.args.probe_cpus.split(",") if cpu]
        return metrics.host_factor(cpus)

    def fail(self, view: dict, message: str) -> None:
        view["ok"] = False
        with self.lock:
            if len(self.failures) < 20:
                self.failures.append(f"view {view['id']}: {message}")

    def serve(self, thread: int, index: int, factor: float, body) -> tuple[dict, object]:
        """Run ``body()`` as one timed view; returns (view record, result).

        ``factor`` is the ``metrics.host_factor()`` probed for this view.
        A view shed by admission control is resubmitted after the
        server's retry hint; any other exception fails the view.  The
        view's ``latency_ms`` is the time of its last attempt, failed or not.
        """
        view = {
            "id": f"{thread}/{index}",
            "thread": thread,
            "index": index,
            "position": index - self.args.first_index,
            "factor": factor,
            "ok": True,
        }
        with self.lock:
            self.attempted += 1
        if self.tracer is not None:
            self.tracer.set_view(view["id"])
        try:
            for attempt in range(OVERLOAD_RETRIES + 1):
                started = time.perf_counter()
                try:
                    if self.tracer is not None:
                        with self.tracer.span("view"):
                            result = body()
                    else:
                        result = body()
                except ServiceOverloadError as exc:
                    if attempt == OVERLOAD_RETRIES:
                        raise
                    time.sleep(exc.retry_after_ms / 1000.0)
                    continue
                finally:
                    view["latency_ms"] = (time.perf_counter() - started) * 1000.0
                return view, result
        except Exception as exc:  # a failed view is counted, not fatal
            self.fail(view, f"raised {exc!r}")
            return view, None
        finally:
            if self.tracer is not None:
                self.tracer.set_view(None)

    def record(self, view: dict) -> None:
        with self.lock:
            self.views.append(view)

    def view_walls(self) -> tuple[float, float]:
        """(wall, scaled wall) in seconds of a single-threaded closed loop.

        With one thread and the host probes taken between views, the
        loop's measured time is the sum of its view timers.
        """
        return (
            sum(view["latency_ms"] for view in self.views) / 1000.0,
            sum(view["latency_ms"] * view["factor"] for view in self.views) / 1000.0,
        )

    def compare(self, view: dict, oracle: dict) -> None:
        """Fail ``view`` unless the served answer equals the oracle's."""
        if view["served"] != oracle:
            self.fail(view, f"served {view['served']} != oracle {oracle}")

    def check_gamma(self, view: dict, requirements, gamma_of) -> None:
        """The paper's invariant on a served view: every module reaches Gamma."""
        hidden = set(view["served"]["hidden"])
        for requirement in requirements.requirements:
            relation = requirement.relation
            achieved = gamma_of(relation, hidden & set(relation.attribute_names()))
            if achieved < requirement.gamma:
                self.fail(
                    view,
                    f"module {requirement.module_id} reaches Gamma {achieved} "
                    f"< {requirement.gamma} under the served labels",
                )

    def check_masking(self, view: dict, executions, masked) -> None:
        """Every published execution hides exactly the served labels' values."""
        hidden = set(view["served"]["hidden"])
        for execution, secure in zip(executions, masked):
            published = secure.data_items
            if execution.data_items.keys() != published.keys():
                self.fail(view, "masking changed the data items")
                return
            for data_id, item in execution.data_items.items():
                expected = PLACEHOLDER if item.label in hidden else item.value
                if published[data_id].value != expected:
                    self.fail(view, f"item {data_id} is masked wrongly")
                    return

    def gamma_sample(self, ids: list[str]) -> set[str]:
        """The seeded sample of view ids whose Gamma is re-checked."""
        ids = sorted(ids)
        rng = random.Random(f"gamma-sample/{self.args.seed}")
        return set(rng.sample(ids, min(GAMMA_SAMPLE, len(ids))))


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
def small_cold_tcp(run: Run, coordinators: list) -> tuple[float, float]:
    """Distinct small views, one at a time, over one plain-TCP connection."""
    (coordinator,) = coordinators
    seed = run.args.seed
    shapes = workloads.small_shapes()
    measured = 0.0
    first = index = run.args.first_index
    while (
        index - first < run.args.views if run.args.views else measured < run.args.seconds
    ):
        view, result = run.serve(
            0,
            index,
            run.host_factor(),
            lambda: workflow_privacy.exact_secure_view(
                workloads.small_view(shapes, seed, index),
                service=coordinator,
                pipeline_depth=1,
            ),
        )
        if result is not None:
            view["served"] = summary_of(result)
        run.record(view)
        measured += view["latency_ms"] / 1000.0
        index += 1
    run.coordinator_stats.append(coordinator.service_stats())

    sample = run.gamma_sample([view["id"] for view in run.views])
    for view in run.views:
        if not view["ok"]:
            continue
        requirements = workloads.small_view(shapes, seed, view["index"])
        corrupt = run.args.corrupt_oracle and view["index"] == 0
        run.compare(view, oracle_of(requirements, corrupt))
        if view["id"] in sample:
            run.check_gamma(view, requirements, ModuleRelation.reference_achieved_gamma)
    return run.view_walls()


def large_cold_inproc(run: Run, coordinators: list) -> tuple[float, float]:
    """Fresh 10 000-row relations per view, solved through ShardCoordinator(0).

    Each view gets its own in-process coordinator, so the registry holds
    only that view's kernels.  Table generation, the host probe, the stats
    read-out and the oracle run with the clock stopped: the loop's
    measured time is the sum of the view timers.
    """
    seed = run.args.seed
    sample = run.gamma_sample([f"0/{index}" for index in range(8 * GAMMA_SAMPLE)])
    measured = 0.0
    index = 0
    while measured < run.args.seconds:
        modules = workloads.large_tables(seed, index)
        state: dict = {}

        def body():
            requirements = workflow_privacy.WorkflowPrivacyRequirements()
            for module in modules:
                requirements.add(workloads.large_relation(module), module.gamma)
            state["requirements"] = requirements
            state["coordinator"] = coordinator = ShardCoordinator(0)
            return workflow_privacy.exact_secure_view(requirements, service=coordinator)

        view, result = run.serve(0, index, run.host_factor(), body)
        coordinator = state.get("coordinator")
        if coordinator is not None:
            run.coordinator_stats.append(coordinator.service_stats())
            for key, value in coordinator.kernel_stats().items():
                run.kernel_stats[key] = run.kernel_stats.get(key, 0) + value
            coordinator.close()
        measured += view["latency_ms"] / 1000.0
        if result is not None:
            view["served"] = summary_of(result)
            requirements = state["requirements"]
            corrupt = run.args.corrupt_oracle and index == 0
            run.compare(view, oracle_of(requirements, corrupt))
            if view["id"] in sample:
                run.check_gamma(view, requirements, grouped_gamma)
        run.record(view)
        index += 1
    return run.view_walls()


def publish_warm_tls(run: Run, coordinators: list) -> tuple[float, float]:
    """Two tenants re-publishing a fixed catalogue over TLS, one thread each.

    The loop runs in rounds of ``ROUND_S``: between rounds both tenants
    wait while the host's speed is probed, and each round's wall time is
    scaled by its own probe.
    """
    seed = run.args.seed
    entries = workloads.catalogue()
    barrier = threading.Barrier(len(coordinators) + 1, timeout=ROUND_TIMEOUT_S)
    #: The current round: its deadline and host factor (None: stop).
    current: dict = {}

    def tenant_loop(tenant: int, coordinator) -> None:
        index = 0
        while True:
            barrier.wait()
            if current["deadline"] is None:
                return
            while time.perf_counter() < current["deadline"]:
                entry_index, inputs = workloads.publish_order(seed, tenant, index)
                entry = entries[entry_index]

                def body():
                    executor = entry.executor()
                    executions = [
                        executor.execute(values, execution_id=f"{tenant}/{index}/{number}")
                        for number, values in enumerate(inputs)
                    ]
                    requirements = workloads.publish_requirements(entry, executor)
                    result = workflow_privacy.exact_secure_view(
                        requirements, service=coordinator, pipeline_depth=4
                    )
                    masked = [
                        workflow_privacy.apply_secure_view(execution, result.hidden_labels)
                        for execution in executions
                    ]
                    return result, executions, masked

                view, published = run.serve(tenant, index, current["factor"], body)
                if published is not None:
                    result, executions, masked = published
                    view["served"] = summary_of(result)
                    view["entry"] = entry_index
                    run.check_masking(view, executions, masked)
                run.record(view)
                index += 1
            barrier.wait()

    threads = [
        threading.Thread(target=tenant_loop, args=(tenant, coordinator), daemon=True)
        for tenant, coordinator in enumerate(coordinators)
    ]
    for thread in threads:
        thread.start()
    wall = scaled = 0.0
    try:
        while wall < run.args.seconds:
            current["factor"] = run.host_factor()
            current["deadline"] = time.perf_counter() + ROUND_S
            started = time.perf_counter()
            barrier.wait()
            barrier.wait()
            elapsed = time.perf_counter() - started
            wall += elapsed
            scaled += elapsed * current["factor"]
        current["deadline"] = None
        barrier.wait()
    except BaseException:
        barrier.abort()
        raise
    finally:
        for thread in threads:
            thread.join()
    for coordinator in coordinators:
        run.coordinator_stats.append(coordinator.service_stats())

    oracles = []
    for entry in entries:
        requirements = workloads.publish_requirements(entry, entry.executor())
        oracles.append((requirements, oracle_of(requirements, False)))
    sample = run.gamma_sample([view["id"] for view in run.views])
    for view in run.views:
        if not view["ok"]:
            continue
        requirements, oracle = oracles[view["entry"]]
        if run.args.corrupt_oracle and view["id"] == "0/0":
            oracle = dict(oracle, cost=oracle["cost"] + 1.0)
        run.compare(view, oracle)
        if view["id"] in sample:
            run.check_gamma(view, requirements, ModuleRelation.reference_achieved_gamma)
    return wall, scaled


RUNNERS = {
    "small_cold_tcp": small_cold_tcp,
    "large_cold_inproc": large_cold_inproc,
    "publish_warm_tls": publish_warm_tls,
}


def connect(args) -> list:
    """The workload's coordinators, connected and authenticated."""
    if args.workload == "small_cold_tcp":
        return [ShardCoordinator(address=("tcp", "127.0.0.1", args.port), coalesce=0)]
    if args.workload == "publish_warm_tls":
        with open(args.tokens, encoding="utf-8") as handle:
            tokens = json.load(handle)
        return [
            ShardCoordinator(
                address=("tls", "127.0.0.1", args.port),
                tls_ca=args.tls_ca,
                auth_token=tokens[name],
                coalesce=8,
            )
            for name, _weight in workloads.TENANTS
        ]
    return []


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in RUNNERS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install_client(tracer)
    coordinators = connect(args)
    print(f"READY {time.monotonic():.6f}", flush=True)
    if args.setup_only:
        for coordinator in coordinators:
            coordinator.close()
        return 0

    run = Run(args, tracer)
    calib_before = calibrate()
    wall, scaled_wall = RUNNERS[args.workload](run, coordinators)
    calib_after = calibrate()
    server_stats = coordinators[0].transport.fetch_stats() if coordinators else {}
    for coordinator in coordinators:
        coordinator.close()

    result = {
        "wall_s": wall,
        "scaled_wall_s": scaled_wall,
        "attempted": run.attempted,
        "failed": sum(1 for view in run.views if not view["ok"]),
        "failures": run.failures,
        "views": [
            {
                "index": view["index"],
                "position": view["position"],
                "ok": view["ok"],
                "latency_ms": view["latency_ms"],
                "factor": view["factor"],
                "evaluations": view.get("served", {}).get("evaluations"),
            }
            for view in run.views
        ],
        "calib_before_ms": calib_before,
        "calib_after_ms": calib_after,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "coordinators": run.coordinator_stats,
        "kernel_stats": run.kernel_stats or server_stats,
        "server_stats": server_stats,
        "trace": tracer.dump() if tracer is not None else None,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
