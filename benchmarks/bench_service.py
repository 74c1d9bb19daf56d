"""Benchmarks for the Gamma evaluation service (repro.service).

Three contracts from ISSUE 3:

* **equivalence** -- the sharded service returns exactly the in-process
  kernel's results on the full 6-attribute/domain-4 sweep;
* **warm start** -- restarting against a snapshot directory skips at
  least 90% of the cold partition/grouping computations (measured on
  kernel counters, so it holds regardless of machine speed);
* **strong scaling** -- with 4 workers the sweep completes at least 2x
  faster than ``workers=0``.  Scaling is physics: it needs cores.  The
  assertion is enforced on machines with >= 4 CPUs and reported (but
  not asserted) on smaller ones, where the same run measures the IPC
  overhead ceiling instead.

And one from ISSUE 4:

* **pipelined dispatch** -- a deep secure-view search over the socket
  transport with ``pipeline_depth`` k >= 4 must beat per-node dispatch
  (k = 1): speculation hides the per-node round trip.  Like strong
  scaling, the speedup needs spare cores (on one core the speculative
  batches still compete with the client for CPU), so the assertion is
  enforced on >= 4-CPU machines and reported on smaller ones; result
  equality against the in-process oracle is asserted everywhere.

And one from ISSUE 5:

* **federation** -- the signature-routed connection pool over 1 vs 3
  *separate server processes* (spawned via ``repro serve``, so the
  speedup is real OS parallelism, not GIL-shared threads).  A cold
  sweep must scale with federation size on >= 4 cores (reported on
  smaller machines); byte-equality with the in-process oracle is
  asserted everywhere, and the guarded op is the warm federated sweep
  (pool dispatch overhead).

And one from ISSUE 10:

* **TLS overhead** -- the warm sweep through a TLS-terminating,
  token-authenticated server versus plaintext TCP.  Byte-equality is
  asserted; the ratio is informational only (the op name deliberately
  carries no guarded marker).

And a floor on in-process dispatch:

* **direct in-process calls** -- a warm 2-task ``ShardCoordinator(0)
  .gammas()`` costs at most 4x the two ``SharedGammaKernel.entry``
  reads it answers from (a batch round trip per call measured ~30x).
  A within-run ratio, so runner speed cancels out; ``make
  bench-floors`` checks it with the other speedup floors.
* **no in-process speculation** -- an E10 secure-view search on a
  fresh ``ShardCoordinator(0)`` costs at most 1.5x at depth 4 what it
  costs at depth 1 (speculating there measured about 4x), also in
  ``make bench-floors``.

The ``service``-named benchmarks are regression-guarded by
``check_regression.py``.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import socket as socket_module
import subprocess
import sys
import tempfile
import time

from bench_core_operations import _best_seconds
from repro.experiments.e9_sharding import E9Config, workload_requests
from repro.experiments.e10_transport import E10Config, build_requirements
from repro.privacy.workflow_privacy import exact_secure_view
from repro.service import GammaServer, ShardCoordinator

#: The 6-attribute/domain-4 workload of E2/E4/E9 (64-row relations).
CONFIG = E9Config(n_inputs=3, n_outputs=3, domain_size=4, seed=71)

#: Structures per sweep: enough work that dispatch overhead amortizes.
SWEEP_MODULES = 24

#: Calls per timed round of the in-process overhead floor: one warm call
#: takes microseconds, too short to time alone.
OVERHEAD_CALLS = 2000

#: Fresh solves per depth in the in-process pipelining floor (a solve
#: takes a few milliseconds, so a best-of-9 rides out scheduler noise).
PIPELINED_SEARCH_ROUNDS = 9


def _cold_work(stats: dict[str, int]) -> int:
    return stats.get("partition_refinements", 0) + stats.get("grouping_passes", 0)


def _run_sweep(workers: int, requests, snapshot_dir: str | None = None):
    with ShardCoordinator(workers, snapshot_dir=snapshot_dir) as coordinator:
        started = time.perf_counter()
        gammas = coordinator.gammas(requests)
        elapsed = time.perf_counter() - started
        stats = coordinator.kernel_stats()
        preloaded = coordinator.preloaded_entries
    return gammas, elapsed, stats, preloaded


def test_service_inprocess_sweep(benchmark):
    """Baseline: the in-process fallback sweeping the E9 workload."""
    requests = workload_requests(SWEEP_MODULES, CONFIG)
    gammas = benchmark.pedantic(
        lambda: ShardCoordinator(0).gammas(requests), rounds=3, iterations=1
    )
    assert len(gammas) == len(requests)
    assert min(gammas) >= 1


def test_inprocess_gammas_overhead_floor():
    """A warm 2-task in-process gammas() costs <= 4x its two kernel reads.

    ``ShardCoordinator(0)`` reads each request straight from the
    transport's kernel: no request id, batch, report or pump.  Timed
    directly (not via pytest-benchmark), like the speedup floors in
    ``bench_core_operations.py``, because it compares two paths against
    each other, not against history.
    """
    sweep = workload_requests(2, CONFIG)
    requests = [sweep[1], sweep[len(sweep) // 2 + 1]]
    coordinator = ShardCoordinator(0)
    expected = coordinator.gammas(requests)  # adopts and warms both kernels
    kernels = coordinator.transport.kernels
    reads = [
        (kernels[structure.signature], visible_inputs, visible_outputs)
        for structure, visible_inputs, visible_outputs in requests
    ]
    assert [kernel.entry(vi, vo)[2] for kernel, vi, vo in reads] == expected

    def through_service():
        for _ in range(OVERHEAD_CALLS):
            coordinator.gammas(requests)

    def kernel_reads():
        for _ in range(OVERHEAD_CALLS):
            for kernel, visible_inputs, visible_outputs in reads:
                kernel.entry(visible_inputs, visible_outputs)

    service_s, kernel_s = (
        _best_seconds(run) for run in (through_service, kernel_reads)
    )
    ratio = service_s / kernel_s if kernel_s else float("inf")
    per_call_us = service_s / OVERHEAD_CALLS * 1e6
    assert ratio <= 4.0, (
        f"in-process gammas() costs {ratio:.2f}x its kernel reads "
        f"({per_call_us:.2f} us vs {kernel_s / OVERHEAD_CALLS * 1e6:.2f} us)"
    )


def test_inprocess_pipelined_search_floor():
    """In process, a depth-4 secure-view search costs <= 1.5x depth 1.

    An in-process coordinator answers each check at the cost of its
    kernel reads, so there is no latency for speculation to hide: the
    solver runs depth k > 1 exactly as depth 1 (speculating measured
    about 4x).  Each round solves the E10 default workload on a fresh
    ``ShardCoordinator(0)``; both depths are timed in one run, so runner
    speed cancels out.
    """
    config = E10Config()
    oracle = exact_secure_view(build_requirements(config))

    def fresh_solves(depth: int):
        cells = iter(
            [
                (build_requirements(config), ShardCoordinator(0))
                for _ in range(PIPELINED_SEARCH_ROUNDS)
            ]
        )

        def solve():
            requirements, coordinator = next(cells)
            result = exact_secure_view(
                requirements, service=coordinator, pipeline_depth=depth
            )
            assert result.hidden_labels == oracle.hidden_labels
            assert result.evaluations == oracle.evaluations

        return solve

    sequential_s, pipelined_s = (
        _best_seconds(fresh_solves(depth), rounds=PIPELINED_SEARCH_ROUNDS)
        for depth in (1, 4)
    )
    ratio = pipelined_s / sequential_s if sequential_s else float("inf")
    assert ratio <= 1.5, (
        f"in-process depth 4 costs {ratio:.2f}x depth 1 "
        f"({pipelined_s * 1000:.2f} ms vs {sequential_s * 1000:.2f} ms)"
    )


def test_service_sharded_sweep_equivalence_and_scaling(benchmark):
    """Sharded sweep: byte-identical results; >=2x with 4 workers on >=4 cores."""
    requests = workload_requests(SWEEP_MODULES, CONFIG)
    baseline, inprocess_elapsed, _, _ = _run_sweep(0, requests)

    cores = os.cpu_count() or 1
    workers = 4 if cores >= 4 else max(2, cores)
    gammas = benchmark.pedantic(
        lambda: _run_sweep(workers, requests)[0], rounds=3, iterations=1
    )
    assert gammas == baseline, "sharded sweep diverged from the in-process kernel"

    _, sharded_elapsed, _, _ = _run_sweep(workers, requests)
    speedup = inprocess_elapsed / sharded_elapsed if sharded_elapsed else 0.0
    print()
    print(
        f"strong scaling: {workers} workers, {len(requests)} tasks, "
        f"{inprocess_elapsed * 1000:.1f} ms in-process -> "
        f"{sharded_elapsed * 1000:.1f} ms sharded ({speedup:.2f}x, {cores} cores)"
    )
    if cores >= 4:
        assert speedup >= 2.0, (
            f"expected >=2x with {workers} workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )


def test_service_warm_start_skips_cold_work(benchmark):
    """A warm restart skips >=90% of the cold partition computations."""
    requests = workload_requests(SWEEP_MODULES, CONFIG)
    snapshot_dir = tempfile.mkdtemp(prefix="bench-service-")
    try:
        _, _, cold_stats, cold_preloaded = _run_sweep(0, requests, snapshot_dir)
        assert cold_preloaded == 0
        cold = _cold_work(cold_stats)
        assert cold > 0

        def warm_sweep():
            return _run_sweep(0, requests, snapshot_dir)

        _, _, warm_stats, warm_preloaded = benchmark.pedantic(
            warm_sweep, rounds=3, iterations=1
        )
        warm = _cold_work(warm_stats)
        print()
        print(
            f"warm start: cold work {cold} -> {warm} "
            f"({warm_preloaded} entries preloaded)"
        )
        assert warm_preloaded > 0
        assert warm <= 0.1 * cold, (
            f"warm restart recomputed {warm}/{cold} partition computations"
        )
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)


def test_service_pipelined_dispatch_deep_search(benchmark):
    """Pipelined (k=4) secure-view search over a socket beats per-node dispatch.

    One warm server, two searches: ``pipeline_depth=1`` (one round trip
    per search node) versus ``pipeline_depth=4`` (top-4 frontier nodes
    speculatively in flight).  Equality with the local oracle is
    asserted unconditionally; the speedup only on >= 4 cores.
    """
    config = E10Config(modules=3, seed=83)
    oracle = exact_secure_view(build_requirements(config))
    socket_dir = tempfile.mkdtemp(prefix="bench-pipeline-")
    try:
        with GammaServer(("unix", os.path.join(socket_dir, "bench.sock"))) as server:

            def search(depth: int):
                with ShardCoordinator(address=server.address) as client:
                    started = time.perf_counter()
                    result = exact_secure_view(
                        build_requirements(config),
                        service=client,
                        pipeline_depth=depth,
                    )
                    return result, time.perf_counter() - started

            # Warm the server's kernels once so both depths measure
            # dispatch, not cold partition work.
            search(1)
            sequential, sequential_elapsed = search(1)
            pipelined = benchmark.pedantic(
                lambda: search(4), rounds=3, iterations=1
            )
            result, pipelined_elapsed = pipelined
            for candidate in (sequential, result):
                assert candidate.hidden_labels == oracle.hidden_labels
                assert candidate.cost == oracle.cost
                assert candidate.evaluations == oracle.evaluations
            cores = os.cpu_count() or 1
            speedup = (
                sequential_elapsed / pipelined_elapsed if pipelined_elapsed else 0.0
            )
            print()
            print(
                f"pipelined dispatch: depth 1 {sequential_elapsed * 1000:.1f} ms -> "
                f"depth 4 {pipelined_elapsed * 1000:.1f} ms "
                f"({speedup:.2f}x, {cores} cores)"
            )
            if cores >= 4:
                assert speedup >= 1.0, (
                    f"expected pipelining to beat per-node dispatch on "
                    f"{cores} cores, got {speedup:.2f}x"
                )
    finally:
        shutil.rmtree(socket_dir, ignore_errors=True)


def _spawn_federation(socket_dir: str, n_servers: int):
    """``n_servers`` separate ``repro serve`` processes on unix sockets."""
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    processes, addresses = [], []
    for index in range(n_servers):
        path = os.path.join(socket_dir, f"fed-{n_servers}-{index}.sock")
        processes.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--unix", path],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
        )
        addresses.append(f"unix:{path}")
    deadline = time.monotonic() + 30.0
    for address in addresses:
        path = address[len("unix:") :]
        while True:
            probe = socket_module.socket(socket_module.AF_UNIX)
            try:
                probe.connect(path)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError(f"federation server at {path} never came up")
                time.sleep(0.05)
            finally:
                probe.close()
    return processes, addresses


def _stop_federation(processes) -> None:
    for process in processes:
        process.terminate()
    for process in processes:
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
            process.kill()
            process.wait(timeout=5.0)


def test_service_federated_pool_scaling(benchmark):
    """Signature-routed pool over 1 vs 3 server processes; scaling needs cores.

    The cold sweep's partition work parallelizes across the federation's
    processes, so cold time must drop with federation size wherever the
    hardware can show it (>= 4 cores); the guarded benchmark op is the
    warm federated sweep -- the pool's steady-state dispatch overhead.
    """
    requests = workload_requests(SWEEP_MODULES, CONFIG)
    baseline = ShardCoordinator(0).gammas(requests)
    socket_dir = tempfile.mkdtemp(prefix="bench-federation-")
    cold: dict[int, float] = {}
    try:
        for n_servers in (1, 3):
            processes, addresses = _spawn_federation(socket_dir, n_servers)
            try:
                with ShardCoordinator(
                    endpoints=addresses, task_timeout=120.0
                ) as client:
                    started = time.perf_counter()
                    gammas = client.gammas(requests)
                    cold[n_servers] = time.perf_counter() - started
                    assert gammas == baseline, (
                        f"{n_servers}-server federation diverged from the "
                        "in-process kernel"
                    )
                    if n_servers == 3:
                        warm = benchmark.pedantic(
                            lambda: client.gammas(requests), rounds=3, iterations=1
                        )
                        assert warm == baseline
            finally:
                _stop_federation(processes)
    finally:
        shutil.rmtree(socket_dir, ignore_errors=True)
    cores = os.cpu_count() or 1
    speedup = cold[1] / cold[3] if cold[3] else 0.0
    print()
    print(
        f"federation: cold sweep {cold[1] * 1000:.1f} ms on 1 server -> "
        f"{cold[3] * 1000:.1f} ms on 3 servers ({speedup:.2f}x, {cores} cores)"
    )
    if cores >= 4:
        assert speedup >= 1.3, (
            f"expected a 3-server federation to beat 1 server on {cores} "
            f"cores, got {speedup:.2f}x"
        )


def test_tls_overhead_warm_sweep(benchmark):
    """TLS + token handshake overhead on a warm socket sweep (informational).

    The same warm sweep through a plaintext TCP server and through a
    TLS-terminating, token-authenticated one.  Byte-equality is asserted
    (security must be invisible in the results); the overhead ratio is
    printed but deliberately *not* regression-guarded -- the op name
    carries no guarded marker -- because symmetric-crypto throughput
    varies wildly across CI hosts (AES-NI vs not) and a TLS library
    update must not fail the kernel perf gate.
    """
    from repro.service import PolicyTable, generate_self_signed_cert

    requests = workload_requests(SWEEP_MODULES, CONFIG)
    baseline = ShardCoordinator(0).gammas(requests)
    cert_dir = tempfile.mkdtemp(prefix="bench-tls-")
    token = "bench-tls-token"
    try:
        cert, key = generate_self_signed_cert(cert_dir)
        with GammaServer(("tcp", "127.0.0.1", 0)) as plain_server, GammaServer(
            ("tcp", "127.0.0.1", 0),
            tls_cert=str(cert),
            tls_key=str(key),
            policy=PolicyTable.single_token(token, name="bench"),
        ) as tls_server:

            def sweep(address, **kwargs):
                with ShardCoordinator(address=address, **kwargs) as client:
                    started = time.perf_counter()
                    gammas = client.gammas(requests)
                    return gammas, time.perf_counter() - started

            plain_address = ("tcp",) + plain_server.address[1:]
            tls_address = ("tls",) + tls_server.address[1:]
            tls_kwargs = {"tls_ca": str(cert), "auth_token": token}
            # Warm both servers so the measured sweeps are dispatch-bound.
            sweep(plain_address)
            sweep(tls_address, **tls_kwargs)
            plain_gammas, plain_elapsed = sweep(plain_address)
            tls_gammas, tls_elapsed = benchmark.pedantic(
                lambda: sweep(tls_address, **tls_kwargs), rounds=3, iterations=1
            )
            assert plain_gammas == baseline
            assert tls_gammas == baseline, "TLS transport diverged from the oracle"
            overhead = tls_elapsed / plain_elapsed if plain_elapsed else 0.0
            print()
            print(
                f"tls overhead: warm sweep {plain_elapsed * 1000:.1f} ms plaintext "
                f"-> {tls_elapsed * 1000:.1f} ms tls+token ({overhead:.2f}x)"
            )
    finally:
        shutil.rmtree(cert_dir, ignore_errors=True)


def test_service_sharded_warm_restart(benchmark):
    """Sharded workers preload their own shard's snapshots on start."""
    requests = workload_requests(8, CONFIG)
    snapshot_dir = tempfile.mkdtemp(prefix="bench-service-shard-")
    try:
        baseline, _, cold_stats, _ = _run_sweep(2, requests, snapshot_dir)
        cold = _cold_work(cold_stats)
        gammas, _, warm_stats, warm_preloaded = benchmark.pedantic(
            lambda: _run_sweep(2, requests, snapshot_dir), rounds=2, iterations=1
        )
        assert gammas == baseline
        assert warm_preloaded > 0
        assert _cold_work(warm_stats) <= 0.1 * cold
    finally:
        shutil.rmtree(snapshot_dir, ignore_errors=True)
