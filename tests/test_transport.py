"""Tests for the transport/server mechanics the conformance matrix skips.

The cross-transport equivalence, pipelining and recovery contracts
(formerly per-transport copies here) live in
``test_transport_conformance.py`` as one parametrized matrix; this file
keeps what is *not* a per-transport contract: frame/wire round-trips,
the data-only frame decoder failing closed (malformed and code-carrying
payloads, plus a decoder fuzz property), socket-server specifics (shared warm kernels across tenants, the
``need``-structures re-ship, restart budgets, the stats probe),
connection-pool unit behavior, the coordinator's speculative-error
banking, discard bookkeeping and structure LRU, and snapshot-store GC +
compaction.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from service_workloads import entry_requests, search_requirements

from repro.errors import ServiceError, WorkerCrashError
from repro.experiments import e10_transport
from repro.privacy.kernel_registry import GammaKernelRegistry, RelationStructure
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
    secure_view,
)
from repro.service import (
    GammaServer,
    KernelSnapshotStore,
    ShardCoordinator,
    SocketTransport,
    parse_address,
)
from repro.service.protocol import (
    MSG_BATCH,
    MSG_NEED,
    GammaBatch,
    GammaTask,
    ShardReport,
    TaskResult,
    batch_from_wire,
    batch_to_wire,
    decode_frame_from_buffer,
    encode_frame,
    message_from_wire,
    message_to_wire,
    read_frame,
    structure_from_wire,
    structure_to_wire,
    write_frame,
)

@pytest.fixture(scope="module")
def unix_server(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gamma") / "gamma.sock")
    with GammaServer(("unix", path)) as server:
        yield server


@pytest.fixture(scope="module")
def unix_client(unix_server):
    with ShardCoordinator(address=unix_server.address, task_timeout=60.0) as client:
        yield client


class TestWireForms:
    def test_structure_round_trip(self):
        structure = ModuleRelation.random("P", seed=7).structure_signature
        rebuilt = structure_from_wire(structure_to_wire(structure))
        assert rebuilt == structure
        assert rebuilt.signature == structure.signature

    def test_batch_round_trip(self):
        structure = ModuleRelation.random("P", seed=8).structure_signature
        batch = GammaBatch(
            5,
            1,
            (GammaTask(9, structure.signature, (0,), (1,), "entry"),),
            {structure.signature: structure},
            request_id=3,
        )
        rebuilt = batch_from_wire(batch_to_wire(batch))
        assert rebuilt == batch

    def test_completion_message_round_trip(self):
        result = TaskResult(4, "sig", 2, (1, 2), (0, 0, 1))
        report = ShardReport(0, 4, 1, {"kernels": 1}, 2, True, 1.5, 3, 0.75)
        message = (MSG_BATCH, 0, 4, (result,), report)
        rebuilt = message_from_wire(message_to_wire(message))
        assert rebuilt == message
        assert rebuilt[4].queue_depth == 3
        assert rebuilt[4].queue_wait_ms == 0.75

    def test_need_message_round_trip(self):
        message = (MSG_NEED, 12, ("aa", "bb"))
        assert message_from_wire(message_to_wire(message)) == message

    def test_frames_over_socketpair(self):
        structure = ModuleRelation.random("P", seed=9).structure_signature
        batch = GammaBatch(
            1, 0, (GammaTask(1, structure.signature, (), (), "gamma"),),
            {structure.signature: structure},
        )
        left, right = socket.socketpair()
        try:
            write_frame(left, (MSG_BATCH, batch))
            message = read_frame(right)
            assert message == (MSG_BATCH, batch)
        finally:
            left.close()
            right.close()

    def test_partial_frames_survive_in_buffer(self):
        message = (MSG_NEED, 7, ("aa", "bb"))
        frame = encode_frame(message)
        # Feed the frame byte by byte: every prefix decodes to None and
        # leaves the buffer intact (a recv timeout mid-frame must not
        # desync the stream); the full frame decodes and is consumed.
        buffer = bytearray()
        for byte in frame[:-1]:
            buffer.append(byte)
            assert decode_frame_from_buffer(buffer) is None
        buffer.append(frame[-1])
        assert decode_frame_from_buffer(buffer) == message
        assert buffer == bytearray()
        # Two frames back to back decode one at a time.
        buffer = bytearray(frame + frame)
        assert decode_frame_from_buffer(buffer) == message
        assert decode_frame_from_buffer(buffer) == message
        assert buffer == bytearray()

    def test_torn_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = encode_frame((MSG_NEED, 1, ("aa",)))
            left.sendall(frame[: len(frame) // 2])
            left.close()
            with pytest.raises(ServiceError, match="mid-frame"):
                read_frame(right)
        finally:
            right.close()

    def test_parse_address_forms(self):
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("tcp:localhost:7441") == ("tcp", "localhost", 7441)
        assert parse_address("localhost:7441") == ("tcp", "localhost", 7441)
        assert parse_address(("unix", "/x")) == ("unix", "/x")
        with pytest.raises(ServiceError):
            parse_address("not-an-address")


def raw_frame(payload: bytes) -> bytes:
    """``payload`` behind a valid length prefix, whatever it holds."""
    return struct.pack(">I", len(payload)) + payload


class _CreatesFile:
    """Pickles to a call of ``open(path, "w")``: decoding it runs code."""

    def __init__(self, path: str) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


def _shipping(structure_wire: list, signature: str = "0" * 32) -> list:
    """A task-less batch wire form shipping one structure wire form."""
    return ["batch", [1, 0, 1, [], {signature: structure_wire}]]


def _self_signed(inputs, outputs=((1, 0, 0, 1),)) -> list:
    """Unchecked columns over input domains (2, 2) and output domain (2,),
    shipped under their own signature: only the shape and value checks
    can refuse them."""
    structure = RelationStructure((2, 2), (2,), inputs, outputs)
    return _shipping(structure_to_wire(structure), structure.signature)


_SIZES = [[2, 2], [2]]
_INPUTS = ((0, 1, 0, 1), (0, 0, 1, 1))
_SOUND = RelationStructure((2, 2), (2,), _INPUTS, ((1, 0, 0, 1),))


def _sound_batch(task_wire: list) -> list:
    """A batch shipping ``_SOUND`` under its own signature with one task."""
    return [
        "batch",
        [1, 0, 1, [task_wire], {_SOUND.signature: structure_to_wire(_SOUND)}],
    ]


#: Validly framed, validly pickled payloads that are not messages, carry
#: a structure the sender never declared consistently, or ask for a task
#: form the wire does not have.
MALFORMED_PAYLOADS = (
    ["batch", [1]],
    [],
    ["need", 1],
    {"a": 1},
    # A -1 dimension numpy would infer from the payload length.
    _shipping([*_SIZES, ["i64", [-1, 2], bytes(32)], ["i64", [1, 4], bytes(32)]]),
    # A payload longer than the declared cells.
    _shipping([*_SIZES, ["i64", [2, 4], bytes(72)], ["i64", [1, 4], bytes(32)]]),
    # Fewer input columns than input domains.
    _self_signed(_INPUTS[:1]),
    # Ragged: four input rows, three output rows.
    _self_signed(_INPUTS, ((1, 0, 0),)),
    # Values outside [0, domain): they would merge refinement blocks.
    _self_signed(((0, 1, 0, 2), (0, 0, 1, 1))),
    _self_signed(_INPUTS, ((1, 0, -1, 1),)),
    # A warm-handoff import filing a structure under another signature.
    ["import", {"0" * 32: [structure_to_wire(_SOUND), []]}],
    # Sampled-Gamma tasks: the 6-element form carrying a sample spec's
    # wire list, and a 5-element task with want="sample".
    _sound_batch(
        [1, _SOUND.signature, [0], [0], "sample", [64, 0.95, 0, None, None, None, 8]]
    ),
    _sound_batch([1, _SOUND.signature, [0], [0], "sample"]),
)


class TestDataOnlyFrames:
    def test_malformed_and_code_carrying_frames_drop_only_their_client(
        self, tmp_path, monkeypatch
    ):
        uncaught = []
        monkeypatch.setattr(threading, "excepthook", uncaught.append)
        victim = tmp_path / "created-by-a-frame"
        evil = pickle.dumps(["ping", _CreatesFile(str(victim))])
        payloads = [pickle.dumps(wire) for wire in MALFORMED_PAYLOADS] + [evil]
        relation = ModuleRelation.random("F", seed=61)
        baseline = ShardCoordinator(0).gammas(entry_requests(relation))
        with GammaServer(("unix", str(tmp_path / "closed.sock"))) as server:
            for payload in payloads:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(server.address[1])
                try:
                    sock.sendall(raw_frame(payload))
                    # Dropped without an answer.
                    assert sock.recv(1) == b""
                finally:
                    sock.close()
            assert server.stats()["server_errors"] == len(payloads)
            with ShardCoordinator(address=server.address) as client:
                assert client.gammas(entry_requests(relation)) == baseline
        assert not victim.exists()
        assert uncaught == []

    @pytest.mark.parametrize("want", ["gamma", "entry"])
    def test_sound_batch_with_a_plain_task_is_answered(self, tmp_path, want):
        # The control for the refused task forms above: the same batch
        # with a 5-element task of a kept ``want`` gets its result.
        partition, counts, gamma = (
            GammaKernelRegistry().kernel_for(_SOUND).entry((0,), (0,))
        )
        with GammaServer(("unix", str(tmp_path / "open.sock"))) as server:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(5.0)
            sock.connect(server.address[1])
            try:
                wire = _sound_batch([1, _SOUND.signature, [0], [0], want])
                sock.sendall(raw_frame(pickle.dumps(wire)))
                kind, _, batch_id, results, _ = read_frame(sock)
            finally:
                sock.close()
            assert server.stats()["server_errors"] == 0
        assert (kind, batch_id) == (MSG_BATCH, 1)
        [result] = results
        assert result.task_id == 1 and result.signature == _SOUND.signature
        assert result.gamma == gamma
        if want == "entry":
            assert result.counts == tuple(int(c) for c in counts)
            assert result.partition == tuple(int(b) for b in partition)
        else:
            assert result.counts is None and result.partition is None

    def test_code_carrying_reply_is_refused_by_the_client(self, tmp_path):
        victim = tmp_path / "created-by-a-reply"
        path = str(tmp_path / "hostile.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen(1)

        def hostile_server():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                reply = ["stats", _CreatesFile(str(victim))]
                conn.sendall(raw_frame(pickle.dumps(reply)))
                conn.recv(1)  # hold the connection until the client leaves

        thread = threading.Thread(target=hostile_server, daemon=True)
        thread.start()
        try:
            transport = SocketTransport(("unix", path), max_restarts=0)
            try:
                with pytest.raises(ServiceError):
                    transport.fetch_stats(timeout=5.0)
                assert transport.is_dead
                assert transport.crashed_shards((0,)) == (0,)
            finally:
                transport.close()
            thread.join(timeout=5.0)
        finally:
            listener.close()
        assert not victim.exists()

    def test_refused_global_raises_service_error_in_both_readers(self, tmp_path):
        victim = tmp_path / "created-by-a-read"
        frame = raw_frame(pickle.dumps(["ping", _CreatesFile(str(victim))]))
        with pytest.raises(ServiceError, match="global"):
            decode_frame_from_buffer(bytearray(frame))
        left, right = socket.socketpair()
        try:
            left.sendall(frame)
            with pytest.raises(ServiceError, match="global"):
                read_frame(right)
        finally:
            left.close()
            right.close()
        assert not victim.exists()


#: Leaves of the fuzzed plain-data trees; message kinds are over-sampled
#: so trees reach the per-kind decoders, not just the kind dispatch.
PLAIN_LEAVES = (
    st.none()
    | st.integers()
    | st.binary(max_size=16)
    | st.sampled_from(["batch", "need", "export", "exported", "import", "i64"])
    | st.text(max_size=8)
)
PLAIN_TREES = st.recursive(
    PLAIN_LEAVES,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=4) | st.integers(), children, max_size=4),
    max_leaves=24,
)
FUZZED_STREAMS = (
    st.binary(max_size=96)
    | st.binary(max_size=96).map(raw_frame)
    | PLAIN_TREES.map(lambda tree: raw_frame(pickle.dumps(tree)))
)


@settings(max_examples=200, deadline=None)
@given(stream=FUZZED_STREAMS)
def test_decoders_yield_a_message_a_partial_frame_or_service_error(stream):
    try:
        decoded = decode_frame_from_buffer(bytearray(stream))
    except ServiceError:
        decoded = None
    assert decoded is None or isinstance(decoded, tuple)
    left, right = socket.socketpair()
    try:
        left.sendall(stream)
        left.close()
        try:
            read = read_frame(right)
        except ServiceError:
            read = None
        assert read is None or isinstance(read, tuple)
    finally:
        right.close()


class TestSocketServer:
    def test_merged_kernel_stats_are_coherent(self, unix_client):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=77
        )
        requests = entry_requests(relation)
        oracle = ShardCoordinator(0)
        oracle.gammas(requests)
        expected = oracle.kernel_stats()
        unix_client.gammas(requests)
        stats = unix_client.kernel_stats()
        # The shared server accumulates over every test in this module,
        # so compare coherence, not equality: all oracle keys present
        # and counters at least as large as one cold sweep's.
        for key, value in expected.items():
            assert key in stats
            assert stats[key] >= 0
        assert stats["kernels"] >= 1
        report = unix_client.shard_reports()[0]
        assert report.dispatch_latency_ms >= 0.0

    def test_two_clients_share_one_warm_server(self, unix_server):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=78
        )
        requests = entry_requests(relation)
        with ShardCoordinator(address=unix_server.address) as first:
            baseline = first.gammas(requests)
            warmed = first.kernel_stats()["grouping_passes"]
        with ShardCoordinator(address=unix_server.address) as second:
            assert second.gammas(requests) == baseline
            # The second tenant's sweep was served from the first's warm
            # kernels: no further grouping passes were needed.
            assert second.kernel_stats()["grouping_passes"] == warmed

    def test_server_stats_probe(self, unix_server, unix_client):
        relation = ModuleRelation.random("P", seed=79)
        unix_client.gammas(entry_requests(relation))
        stats = unix_client.transport.fetch_stats()
        assert stats["server_batches"] >= 1
        assert stats["server_clients"] >= 1
        # Fairness gauges of the round-robin scheduler.
        assert stats["server_dispatchers"] >= 1
        assert stats["server_tenants"] >= 1
        assert stats["server_queue_depth"] >= 0
        assert stats["queue_wait_p95_ms"] >= 0
        report = unix_client.shard_reports()[0]
        assert report.queue_wait_ms >= 0.0
        assert report.queue_depth >= 0

    def test_connection_loss_recovers_transparently(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=80)
        requests = entry_requests(relation)
        path = str(tmp_path / "flaky.sock")
        with GammaServer(("unix", path)) as server:
            with ShardCoordinator(address=server.address) as client:
                baseline = client.gammas(requests)
                # Sever the transport's socket under it: the next call
                # detects the dead "shard", reconnects and re-ships.
                client.transport._sock.close()
                assert client.gammas(requests) == baseline
                assert client.worker_restarts >= 1

    def test_reconnect_gives_up_past_max_restarts(self, tmp_path):
        path = str(tmp_path / "gone.sock")
        with GammaServer(("unix", path)) as server:
            transport = SocketTransport(server.address, max_restarts=0)
        # The server is closed; the socket is dead and reconnect is capped.
        relation = ModuleRelation.random("P", seed=81)
        with ShardCoordinator(transport=transport, task_timeout=5.0) as client:
            with pytest.raises((WorkerCrashError, ServiceError)):
                client.gammas(entry_requests(relation))

    def test_batch_larger_than_server_cache_still_completes(self, tmp_path):
        # Two distinct structures in one request against a one-slot
        # server cache: the batch's own signatures are pinned during
        # eviction, so this completes instead of livelocking on
        # need/re-ship.
        relations = [
            ModuleRelation.random(f"B{i}", n_inputs=2, n_outputs=1, seed=95 + i)
            for i in range(2)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        baseline = ShardCoordinator(0).gammas(requests)
        path = str(tmp_path / "pin.sock")
        with GammaServer(("unix", path), structure_cache_size=1) as server:
            with ShardCoordinator(address=server.address, task_timeout=20.0) as client:
                assert client.gammas(requests) == baseline

    def test_cli_serve_sigterm_snapshots_and_unlinks(self, tmp_path):
        # SIGTERM (kill, supervisors, container stop) must take the same
        # orderly close as Ctrl-C: exit 0, warm kernels snapshotted, the
        # unix socket file removed.
        path = tmp_path / "serve.sock"
        snapshots = tmp_path / "snapshots"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--unix", str(path),
             "--snapshot-dir", str(snapshots)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 60.0
            while not path.exists():
                assert server.poll() is None, server.stderr.read().decode()
                assert time.monotonic() < deadline, "server never listened"
                time.sleep(0.05)
            requirements = WorkflowPrivacyRequirements()
            for index in range(2):
                requirements.add(
                    ModuleRelation.random(f"T{index}", n_inputs=2, n_outputs=2,
                                          seed=120 + index),
                    2,
                )
            with ShardCoordinator(address=("unix", str(path))) as client:
                served = exact_secure_view(requirements, service=client)
            assert served.hidden_labels == exact_secure_view(requirements).hidden_labels
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=60.0) == 0, server.stderr.read().decode()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()
        assert not path.exists()
        assert set(KernelSnapshotStore(snapshots).signatures()) == {
            module.relation.structure_signature.signature
            for module in requirements.requirements
        }

    def test_server_rejects_empty_structure_cache(self, tmp_path):
        with pytest.raises(ServiceError):
            GammaServer(("unix", str(tmp_path / "x.sock")), structure_cache_size=0)

    def test_server_reships_structures_after_cache_eviction(self, tmp_path):
        relations = [
            ModuleRelation.random(f"N{i}", n_inputs=2, n_outputs=1, seed=90 + i)
            for i in range(3)
        ]
        path = str(tmp_path / "tiny.sock")
        with GammaServer(("unix", path), structure_cache_size=1) as server:
            with ShardCoordinator(address=server.address) as client:
                baselines = [
                    ShardCoordinator(0).gammas(entry_requests(r)) for r in relations
                ]
                # Round-robin twice: every structure is evicted between
                # its uses, so the server must ask for re-ships.
                for _ in range(2):
                    for relation, baseline in zip(relations, baselines):
                        assert client.gammas(entry_requests(relation)) == baseline


class TestShippedStructureSignatures:
    def test_structure_shipped_under_another_signature_is_refused(self, tmp_path):
        victim = ModuleRelation.random("V", seed=71)
        poison = ModuleRelation.random("P", seed=72)
        requests = entry_requests(victim)
        expected = ShardCoordinator(0).gammas(requests)
        assert ShardCoordinator(0).gammas(entry_requests(poison)) != expected
        signature = victim.structure_signature.signature
        poisoning = GammaBatch(
            batch_id=1,
            shard_id=0,
            tasks=(),
            structures={signature: poison.structure_signature},
        )
        with GammaServer(("unix", str(tmp_path / "shared.sock"))) as server:
            with ShardCoordinator(address=server.address) as client:
                assert client.gammas(requests[:1]) == expected[:1]
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(5.0)
                sock.connect(server.address[1])
                try:
                    sock.sendall(encode_frame((MSG_BATCH, poisoning)))
                    # An answer if the batch was accepted (even an empty
                    # one is answered), EOF if it was refused: either
                    # way the server has handled the frame.
                    reply = sock.recv(1)
                finally:
                    sock.close()
                assert client.gammas(requests) == expected
            assert reply == b""
            assert server.stats()["server_errors"] == 1


class TestPipelinedSecureView:
    def _check_equivalent(self, candidate, baseline):
        assert candidate.hidden_labels == baseline.hidden_labels
        assert candidate.cost == baseline.cost
        assert candidate.module_gammas == baseline.module_gammas
        assert candidate.evaluations == baseline.evaluations
        assert candidate.optimal

    def test_secure_view_wrapper_passes_depth(self):
        baseline = exact_secure_view(search_requirements())
        result = secure_view(
            search_requirements(),
            solver="exact",
            service=ShardCoordinator(0),
            pipeline_depth=4,
        )
        self._check_equivalent(result, baseline)

    def test_speculative_error_does_not_abort_other_collects(self):
        # An error belonging to request B, arriving while request A's
        # collect() is pumping, must be banked on B -- not raised out of
        # A's collect (that would make pipelined search fail where
        # sequential search would have succeeded).
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=65)
        requests = entry_requests(relation)
        with ShardCoordinator(2, task_timeout=30.0) as coordinator:
            doomed = coordinator.submit(requests)
            doomed_batches = [
                batch_id
                for batch_id, request_ids in coordinator._batch_requests.items()
                if doomed in request_ids
            ]
            coordinator.transport._result_queue.put(
                ("error", 0, doomed_batches[0], "injected failure")
            )
            healthy = coordinator.submit(requests)
            results = coordinator.collect(healthy)
            assert len(results) == len(requests)
            with pytest.raises(ServiceError, match="injected failure"):
                coordinator.collect(doomed)

    def test_discard_drops_results_without_leaking_state(self):
        relation = ModuleRelation.random("P", seed=60)
        coordinator = ShardCoordinator(0)
        requests = entry_requests(relation)
        keep = coordinator.submit(requests)
        drop = coordinator.submit(requests)
        coordinator.discard(drop)
        results = coordinator.collect(keep)
        assert len(results) == len(requests)
        with pytest.raises(ServiceError):
            coordinator.collect(drop)
        assert not coordinator._pending
        assert not coordinator._batch_requests


class TestPooledTransportUnits:
    def test_empty_endpoint_list_rejected(self):
        from repro.service import PooledTransport

        with pytest.raises(ServiceError, match="at least one endpoint"):
            PooledTransport([])

    def test_build_transport_rejects_address_and_endpoints(self):
        from repro.service.transport import build_transport

        with pytest.raises(ServiceError, match="not both"):
            build_transport(address="127.0.0.1:1", endpoints=["127.0.0.1:2"])

    def test_routing_is_identity_until_failover(self, unix_server):
        with ShardCoordinator(endpoints=[unix_server.address] * 3) as client:
            pool = client.transport
            assert pool.shard_count == 3
            assert [pool.endpoint_of(shard) for shard in range(3)] == [0, 1, 2]
            assert pool.lost_endpoints == ()
            assert pool.failovers == 0
            assert "endpoints=3" in repr(pool)

    def test_pool_stats_probe_merges_endpoints(self, unix_server):
        relation = ModuleRelation.random("P", seed=83)
        with ShardCoordinator(endpoints=[unix_server.address] * 2) as client:
            client.gammas(entry_requests(relation))
            stats = client.transport.fetch_stats()
            assert stats["pool_endpoints"] == 2
            assert stats["pool_lost_endpoints"] == 0
            assert stats["server_batches"] >= 1


class TestStructureLRU:
    def test_cache_is_bounded_and_correct(self):
        relations = [
            ModuleRelation.random(f"L{i}", n_inputs=2, n_outputs=1, seed=100 + i)
            for i in range(6)
        ]
        oracle = ShardCoordinator(0)
        coordinator = ShardCoordinator(0, structure_cache_size=2)
        for relation in relations:
            requests = [(relation.structure_signature, (0,), ())]
            assert coordinator.gammas(requests) == oracle.gammas(requests)
        assert len(coordinator._structures) <= 2
        assert coordinator.service_stats()["structure_evictions"] > 0

    def test_miss_reships_from_snapshot_store(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=2, n_outputs=2, seed=110)
        # Warm the snapshot store with this structure.
        with ShardCoordinator(0, snapshot_dir=str(tmp_path)) as warmup:
            warmup.gammas(entry_requests(relation))
        coordinator = ShardCoordinator(
            0, snapshot_dir=str(tmp_path), structure_cache_size=1
        )
        # Force the eviction of the relation's structure.
        other = ModuleRelation.random("Q", n_inputs=1, n_outputs=1, seed=111)
        coordinator.gammas(entry_requests(relation))
        coordinator.gammas(entry_requests(other))
        assert relation.structure_signature.signature not in coordinator._structures
        # The signature is still resolvable -- via the store.
        structure = coordinator._structure_for(
            relation.structure_signature.signature
        )
        assert structure == relation.structure_signature
        assert coordinator.service_stats()["structure_reloads"] >= 1

    def test_miss_without_store_raises_clearly(self):
        coordinator = ShardCoordinator(0, structure_cache_size=1)
        with pytest.raises(ServiceError, match="structure_cache_size"):
            coordinator._structure_for("feedface")


class TestSnapshotGC:
    def _store_with_snapshots(self, tmp_path, count):
        registry = GammaKernelRegistry()
        for index in range(count):
            relation = ModuleRelation.random(
                f"G{index}", n_inputs=2, n_outputs=1, seed=200 + index
            )
            registry.ensure_kernel(relation.structure_signature).entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        return store

    def test_gc_by_age(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 3)
        signatures = store.signatures()
        old = store.path_for(signatures[0])
        stale_time = old.stat().st_mtime - 7200
        os.utime(old, (stale_time, stale_time))
        report = store.gc(max_age_seconds=3600)
        assert report["removed_by_age"] == 1
        assert report["kept"] == 2
        assert len(store) == 2

    def test_gc_by_size_removes_oldest_first(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 3)
        signatures = store.signatures()
        oldest = store.path_for(signatures[1])
        stale_time = oldest.stat().st_mtime - 500
        os.utime(oldest, (stale_time, stale_time))
        total = store.total_bytes()
        report = store.gc(max_total_bytes=total - 1)
        assert report["removed_by_size"] >= 1
        assert signatures[1] not in store.signatures()
        assert store.total_bytes() <= total - 1

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 2)
        report = store.gc(max_total_bytes=0, dry_run=True)
        assert report["removed_by_size"] == 2
        assert len(store) == 2

    def test_compact_preserves_entries_and_drops_corrupt(self, tmp_path):
        store = self._store_with_snapshots(tmp_path, 2)
        signatures = store.signatures()
        expected = {
            signature: store.load(signature) for signature in signatures
        }
        store.path_for("feedface").write_bytes(b"torn")
        report = store.compact()
        assert report["rewritten"] == 2
        assert report["dropped"] == 1
        for signature in signatures:
            assert store.load(signature) == expected[signature]

    def test_cli_snapshots_gc(self, tmp_path, capsys):
        from repro.cli import main

        store = self._store_with_snapshots(tmp_path, 2)
        assert len(store) == 2
        assert (
            main(
                [
                    "snapshots",
                    "gc",
                    str(tmp_path),
                    "--max-bytes",
                    "0",
                    "--compact",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "removed" in output
        assert len(KernelSnapshotStore(tmp_path)) == 0


class TestExperimentE10:
    def test_small_sweep_matches_oracle(self):
        config = e10_transport.E10Config(
            transports=("inprocess", "unix"), depths=(1, 4), modules=2, seed=9
        )
        rows = e10_transport.run(config)
        assert len(rows) == 4
        assert all(row["matches_oracle"] for row in rows)
        evaluations = {row["evaluations"] for row in rows}
        assert len(evaluations) == 1, "pipelining must not change the search"
        headline = e10_transport.headline(rows)
        assert headline["all_match_oracle"] is True

    def test_workers_override(self):
        config = e10_transport.E10Config(
            transports=("multiprocess",), depths=(1,), modules=2, seed=10
        )
        rows = e10_transport.run(config, workers=2)
        assert rows and all(row["matches_oracle"] for row in rows)


class TestExperimentE11:
    def test_small_sweep_matches_oracle(self):
        from repro.experiments import e11_federation

        config = e11_federation.E11Config(
            servers=(1, 2), tenants=2, modules=2, tenancy=False
        )
        rows = e11_federation.run(config)
        assert len(rows) == 4
        assert all(row["matches_oracle"] for row in rows)
        evaluations = {row["evaluations"] for row in rows}
        assert len(evaluations) == 1, "federation must not change the search"
        headline = e11_federation.headline(rows)
        assert headline["all_match_oracle"] is True
        assert headline["federations"] == 2

    def test_endpoints_override_sweeps_given_federation(self, unix_server):
        from repro.experiments import e11_federation

        config = e11_federation.E11Config(
            servers=(3,), tenants=1, modules=2, tenancy=False
        )
        rows = e11_federation.run(config, endpoints=[unix_server.address])
        assert len(rows) == 1
        assert rows[0]["servers"] == 1
        assert rows[0]["matches_oracle"]
