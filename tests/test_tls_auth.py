"""TLS, token-authentication and tenancy-scheduling failure modes.

The conformance matrix proves the happy path (TLS + token transports are
byte-identical to in-process); this suite proves everything *around* it
fails closed: wrong tokens, expired and unpinned certificates, plaintext
clients against TLS servers, truncated handshakes, poisoned reply
payloads, exhausted tenant credit.  It also unit-tests the deficit
round-robin scheduler's proportionality and the pooled stats budget
pre-split, which the end-to-end suites only exercise implicitly.
"""

from __future__ import annotations

import json
import shutil
import socket
import struct
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import ServiceAuthError, ServiceError, ServiceOverloadError
from repro.privacy.relations import ModuleRelation
from repro.service import GammaServer, PolicyTable, ShardCoordinator, TenantPolicy
from repro.service.pool import PooledTransport
from repro.service.protocol import (
    MSG_ERROR,
    MSG_PING,
    MSG_PONG,
    MSG_STATS,
    encode_frame,
    read_frame,
)
from repro.service.security import (
    AUTH_MAGIC,
    AUTH_OK,
    AUTH_REJECT,
    MAX_TOKEN_BYTES,
    build_client_ssl_context,
    expect_auth_reply,
    generate_self_signed_cert,
    read_token_preamble,
    send_token,
)
from repro.service.server import _FairScheduler, _Tenant
from repro.service.transport import DEFAULT_CONNECT_TIMEOUT, SocketTransport, connect

from service_workloads import entry_requests

TOKEN = "tls-auth-suite-secret"


@pytest.fixture(scope="module")
def cert_dir():
    directory = tempfile.mkdtemp(prefix="tls-auth-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture(scope="module")
def certs(cert_dir):
    return generate_self_signed_cert(cert_dir, stem="good")


@pytest.fixture(scope="module")
def expired_certs(cert_dir):
    return generate_self_signed_cert(cert_dir, stem="expired", expired=True)


# ---------------------------------------------------------------------- #
# Policy table
# ---------------------------------------------------------------------- #
class TestPolicyTable:
    def test_empty_table_does_not_require_auth(self):
        table = PolicyTable()
        assert table.requires_auth is False
        assert table.authenticate(b"anything") is None

    def test_single_token_convenience(self):
        table = PolicyTable.single_token("s3cret", name="ops")
        assert table.requires_auth is True
        assert table.authenticate(b"s3cret").name == "ops"
        assert table.authenticate(b"wrong") is None
        assert table.authenticate(None) is None

    def test_from_mapping_accepts_wrapped_and_bare_shapes(self):
        wrapped = PolicyTable.from_mapping(
            {"tenants": {"a": {"token": "ta", "weight": 4, "max_queue_depth": 8}}}
        )
        bare = PolicyTable.from_mapping({"a": {"token": "ta", "weight": 4}})
        for table in (wrapped, bare):
            policy = table.for_tenant("a")
            assert policy.token == "ta"
            assert policy.weight == 4.0
        assert wrapped.for_tenant("a").max_queue_depth == 8
        assert bare.for_tenant("a").max_queue_depth is None

    def test_from_mapping_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown policy keys"):
            PolicyTable.from_mapping({"a": {"token": "t", "quota": 3}})

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text(
            json.dumps({"tenants": {"gold": {"token": "tg", "weight": 4}}})
        )
        table = PolicyTable.from_file(path)
        assert table.authenticate(b"tg").weight == 4.0

    def test_duplicate_names_and_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate tenant name"):
            PolicyTable([TenantPolicy("a"), TenantPolicy("a")])
        with pytest.raises(ValueError, match="tokens must be unique"):
            PolicyTable(
                [TenantPolicy("a", token="t"), TenantPolicy("b", token="t")]
            )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TenantPolicy("")
        with pytest.raises(ValueError):
            TenantPolicy("a", weight=0.0)
        with pytest.raises(ValueError):
            TenantPolicy("a", max_queue_depth=0)

    def test_for_tenant_defaults_unknown_names(self):
        table = PolicyTable.single_token("t", name="known")
        anonymous = table.for_tenant("stranger")
        assert anonymous.weight == 1.0
        assert anonymous.token is None


# ---------------------------------------------------------------------- #
# Handshake wire format (socketpair level, no TLS)
# ---------------------------------------------------------------------- #
class TestHandshakePreamble:
    def _pair(self):
        client, server = socket.socketpair()
        client.settimeout(5.0)
        server.settimeout(5.0)
        return client, server

    def test_round_trip(self):
        client, server = self._pair()
        try:
            send_token(client, "hello-token")
            assert read_token_preamble(server) == b"hello-token"
        finally:
            client.close()
            server.close()

    def test_wrong_magic_is_rejected_without_reading_more(self):
        client, server = self._pair()
        try:
            client.sendall(b"XXXXX" + struct.pack(">H", 5) + b"abcde")
            assert read_token_preamble(server) is None
        finally:
            client.close()
            server.close()

    def test_truncated_preamble_is_rejected(self):
        client, server = self._pair()
        try:
            client.sendall(AUTH_MAGIC + struct.pack(">H", 32) + b"short")
            client.close()
            assert read_token_preamble(server) is None
        finally:
            server.close()

    def test_oversized_length_is_rejected_before_reading_payload(self):
        client, server = self._pair()
        try:
            client.sendall(AUTH_MAGIC + struct.pack(">H", MAX_TOKEN_BYTES + 1))
            assert read_token_preamble(server) is None
        finally:
            client.close()
            server.close()

    def test_zero_length_is_rejected(self):
        client, server = self._pair()
        try:
            client.sendall(AUTH_MAGIC + struct.pack(">H", 0))
            assert read_token_preamble(server) is None
        finally:
            client.close()
            server.close()

    def test_send_token_validates_length(self):
        client, server = self._pair()
        try:
            with pytest.raises(ServiceAuthError):
                send_token(client, "")
            with pytest.raises(ServiceAuthError):
                send_token(client, "x" * (MAX_TOKEN_BYTES + 1))
        finally:
            client.close()
            server.close()

    def test_expect_auth_reply_statuses(self):
        client, server = self._pair()
        try:
            server.sendall(AUTH_OK)
            expect_auth_reply(client)  # no raise
            server.sendall(AUTH_REJECT)
            with pytest.raises(ServiceAuthError, match="rejected"):
                expect_auth_reply(client)
            server.close()
            with pytest.raises(ServiceAuthError, match="closed the connection"):
                expect_auth_reply(client)
        finally:
            client.close()


# ---------------------------------------------------------------------- #
# TLS + token failure modes against a live server
# ---------------------------------------------------------------------- #
def tls_server(certs, **kwargs):
    cert, key = certs
    kwargs.setdefault("policy", PolicyTable.single_token(TOKEN, name="suite"))
    return GammaServer(
        ("tcp", "127.0.0.1", 0), tls_cert=str(cert), tls_key=str(key), **kwargs
    )


class TestTLSFailureModes:
    def test_good_token_evaluates_and_stamps_tenant(self, certs):
        relation = ModuleRelation.random(
            "T", n_inputs=2, n_outputs=1, domain_size=3, seed=7
        )
        baseline = ShardCoordinator(0).gammas(entry_requests(relation))
        with tls_server(certs) as server:
            with ShardCoordinator(
                address=("tls",) + server.address[1:],
                tls_ca=str(certs[0]),
                auth_token=TOKEN,
            ) as client:
                assert client.gammas(entry_requests(relation)) == baseline
            stats = server.stats()
        assert stats["server_auth_failures"] == 0
        assert stats["server_tls_failures"] == 0

    def test_wrong_token_fails_closed(self, certs):
        with tls_server(certs) as server:
            with pytest.raises(ServiceAuthError):
                ShardCoordinator(
                    address=("tls",) + server.address[1:],
                    tls_ca=str(certs[0]),
                    auth_token="not-the-token",
                )
            assert server.stats()["server_auth_failures"] >= 1

    def test_absent_token_fails_closed(self, certs):
        """A TLS-fine but tokenless client never reaches the codec."""
        with tls_server(certs) as server:
            sock = connect(
                ("tls",) + server.address[1:],
                ssl_context=build_client_ssl_context(certs[0]),
            )
            try:
                # First bytes are a protocol frame, not AUTH_MAGIC: the
                # server must reject before decoding it.
                sock.settimeout(5.0)
                sock.sendall(encode_frame((MSG_PING,)))
                try:
                    reply = read_frame(sock)
                except (ServiceError, OSError):
                    reply = None
                assert reply is None  # closed, never answered
            finally:
                sock.close()
            assert server.stats()["server_auth_failures"] >= 1

    def test_expired_certificate_fails_closed(self, expired_certs):
        with tls_server(expired_certs) as server:
            with pytest.raises(ServiceAuthError, match="certificate"):
                ShardCoordinator(
                    address=("tls",) + server.address[1:],
                    tls_ca=str(expired_certs[0]),
                    auth_token=TOKEN,
                )
            # The client aborts its side first; give the server's
            # connection thread a beat to observe the dead handshake.
            deadline = time.monotonic() + 5.0
            while (
                server.stats()["server_tls_failures"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server.stats()["server_tls_failures"] >= 1

    def test_unpinned_self_signed_certificate_fails_closed(self, certs):
        """No tls_ca means the system trust store: self-signed fails."""
        with tls_server(certs) as server:
            with pytest.raises(ServiceAuthError, match="certificate"):
                ShardCoordinator(
                    address=("tls",) + server.address[1:], auth_token=TOKEN
                )

    def test_plaintext_client_against_tls_server_fails_closed(self, certs):
        with tls_server(certs) as server:
            with pytest.raises(ServiceError):
                ShardCoordinator(
                    address=("tcp",) + server.address[1:],
                    auth_token=TOKEN,
                    max_restarts=0,
                )
            deadline = time.monotonic() + 5.0
            while (
                server.stats()["server_tls_failures"] < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert server.stats()["server_tls_failures"] >= 1

    def test_token_client_against_tokenless_server_fails_closed(self, tmp_path):
        """AUTH_MAGIC decodes as an oversized frame on a no-auth server,
        so the preamble is dropped -- never half-interpreted -- and the
        client is told its token was not accepted."""
        with GammaServer(("unix", str(tmp_path / "plain.sock"))) as server:
            with pytest.raises(ServiceAuthError):
                ShardCoordinator(address=server.address, auth_token=TOKEN)

    def test_truncated_handshake_leaves_server_serving(self, certs):
        relation = ModuleRelation.random(
            "T2", n_inputs=2, n_outputs=1, domain_size=3, seed=8
        )
        baseline = ShardCoordinator(0).gammas(entry_requests(relation))
        with tls_server(certs) as server:
            raw = socket.create_connection(server.address[1:], timeout=5.0)
            wrapped = build_client_ssl_context(certs[0]).wrap_socket(
                raw, server_hostname="127.0.0.1"
            )
            wrapped.sendall(AUTH_MAGIC + struct.pack(">H", 64) + b"only-partial")
            wrapped.close()
            # The connection thread must have failed closed without
            # wedging the acceptor: a well-behaved client still works.
            with ShardCoordinator(
                address=("tls",) + server.address[1:],
                tls_ca=str(certs[0]),
                auth_token=TOKEN,
            ) as client:
                assert client.gammas(entry_requests(relation)) == baseline

    def test_recover_reauthenticates_through_tls(self, certs):
        relation = ModuleRelation.random(
            "T3", n_inputs=2, n_outputs=2, domain_size=3, seed=9
        )
        baseline = ShardCoordinator(0).gammas(entry_requests(relation))
        with tls_server(certs) as server:
            with ShardCoordinator(
                address=("tls",) + server.address[1:],
                tls_ca=str(certs[0]),
                auth_token=TOKEN,
                task_timeout=30.0,
            ) as client:
                assert client.gammas(entry_requests(relation)) == baseline
                client.inject_crash(0)
                assert client.gammas(entry_requests(relation)) == baseline
                assert client.worker_restarts >= 1


# ---------------------------------------------------------------------- #
# Satellite 1 regression: poisoned reply payload must not kill the writer
# ---------------------------------------------------------------------- #
class TestWriterPoisonRegression:
    def test_unencodable_stats_reply_answers_error_and_server_survives(
        self, tmp_path
    ):
        with GammaServer(("unix", str(tmp_path / "poison.sock"))) as server:
            original_stats = server.stats
            server.stats = lambda: {"poisoned": lambda: None}  # unpicklable
            try:
                sock = connect(server.address, timeout=5.0)
                try:
                    sock.settimeout(5.0)
                    sock.sendall(encode_frame((MSG_STATS,)))
                    reply = read_frame(sock)
                    assert reply[0] == MSG_ERROR
                    assert "encode" in reply[3]
                    # Same connection, same writer thread: still alive.
                    sock.sendall(encode_frame((MSG_PING,)))
                    assert read_frame(sock)[0] == MSG_PONG
                finally:
                    sock.close()
            finally:
                server.stats = original_stats
            stats = server.stats()
            assert stats["server_errors"] >= 1


# ---------------------------------------------------------------------- #
# Deficit round-robin scheduler unit tests
# ---------------------------------------------------------------------- #
def fake_batch(signature="sig", tasks=1):
    task = SimpleNamespace(
        signature=signature, visible_inputs=(0,), visible_outputs=(0,)
    )
    return SimpleNamespace(tasks=[task] * tasks)


def fake_item(units=1.0, signature="sig"):
    return (fake_batch(signature), time.monotonic(), 0, units)


def make_tenant(tenant_id, name, weight, max_depth=10_000):
    client, server_end = socket.socketpair()
    tenant = _Tenant(
        tenant_id,
        server_end,
        outbox_depth=4,
        name=name,
        weight=weight,
        max_depth=max_depth,
    )
    return tenant, client


class TestDeficitScheduler:
    def test_estimate_units_is_rows_times_visible_subsets(self):
        scheduler = _FairScheduler(lambda *a: None, dispatchers=0, max_queue_depth=4)
        kernels = {"sig": SimpleNamespace(structure=SimpleNamespace(row_count=12))}
        batch = fake_batch("sig", tasks=2)
        # 2 tasks x 12 rows x (1 visible input + 1 visible output)
        assert scheduler.estimate_units(batch, kernels) == 48.0
        # Unknown structure degrades to 1 row, never below 1 unit/task.
        assert scheduler.estimate_units(batch, {}) == 4.0
        scheduler.stop()

    def test_service_cost_interleaves_by_weight(self):
        """A weight-4 tenant drains ~4x the cost units of a weight-1
        tenant while both stay backlogged -- the tentpole fairness
        property, at the scheduler unit level."""
        dispatched: list[str] = []
        done = threading.Event()
        target = 60

        def record(tenant, item, wait_ms):
            dispatched.append(tenant.name)
            if len(dispatched) >= target:
                done.set()
                time.sleep(0.05)  # hold the dispatcher; keeps the count exact
            time.sleep(0.0005)

        scheduler = _FairScheduler(record, dispatchers=1, max_queue_depth=10_000)
        gold, gold_sock = make_tenant(1, "gold", weight=4.0)
        bronze, bronze_sock = make_tenant(2, "bronze", weight=1.0)
        try:
            scheduler.register(gold)
            scheduler.register(bronze)
            for _ in range(target * 2):
                assert scheduler.enqueue(gold, fake_item())[0] == "queued"
                assert scheduler.enqueue(bronze, fake_item())[0] == "queued"
            assert done.wait(timeout=30.0)
            window = dispatched[:target]
            ratio = window.count("gold") / max(1, window.count("bronze"))
            assert ratio >= 3.0, f"weighted ratio {ratio:.2f} < 3.0 over {window}"
        finally:
            scheduler.unregister(gold)
            scheduler.unregister(bronze)
            scheduler.stop()
            gold_sock.close()
            bronze_sock.close()

    def test_full_queue_with_exhausted_credit_sheds_with_retry_hint(self):
        blocked = threading.Event()

        def stall(tenant, item, wait_ms):
            blocked.wait(timeout=10.0)

        scheduler = _FairScheduler(stall, dispatchers=1, max_queue_depth=2)
        tenant, client = make_tenant(1, "flood", weight=1.0, max_depth=2)
        try:
            scheduler.register(tenant)
            verdicts = [scheduler.enqueue(tenant, fake_item())[0] for _ in range(4)]
            # Depth 2 plus at most one batch already pulled by the
            # stalled dispatcher fit; beyond that admission control
            # must shed rather than block forever.
            assert verdicts.count("queued") <= 3
            verdict, retry_after_ms = scheduler.enqueue(tenant, fake_item())
            assert verdict == "overload"
            assert retry_after_ms >= 1.0
            assert scheduler.sheds >= 1
            assert tenant.shed >= 1
        finally:
            blocked.set()
            scheduler.unregister(tenant)
            scheduler.stop()
            client.close()

    def test_observed_service_time_refines_the_cost_charge(self):
        scheduler = _FairScheduler(lambda *a: None, dispatchers=0, max_queue_depth=4)
        try:
            cheap, costly = fake_batch("cheap"), fake_batch("costly")
            for _ in range(20):
                scheduler.observe_service_time(cheap, units=10.0, ms=1.0)
                scheduler.observe_service_time(costly, units=10.0, ms=100.0)
            # Same estimated units, but the per-signature EWMA knows the
            # costly signature burns ~100x the service time per unit.
            assert scheduler._charge(costly, 10.0) > scheduler._charge(cheap, 10.0) * 10
        finally:
            scheduler.stop()

    def test_unregister_drops_queued_work(self):
        scheduler = _FairScheduler(lambda *a: None, dispatchers=0, max_queue_depth=8)
        tenant, client = make_tenant(1, "gone", weight=1.0)
        try:
            scheduler.register(tenant)
            scheduler.enqueue(tenant, fake_item(units=5.0))
            assert scheduler.queue_depth() == 1
            scheduler.unregister(tenant)
            assert scheduler.queue_depth() == 0
            assert tenant.queued_units == 0.0
            assert scheduler.enqueue(tenant, fake_item())[0] == "closed"
        finally:
            scheduler.stop()
            client.close()


# ---------------------------------------------------------------------- #
# Server-level overload: the client sees ServiceOverloadError
# ---------------------------------------------------------------------- #
class TestServerOverload:
    def test_flooding_tenant_receives_overload_with_retry_hint(self, tmp_path):
        relation = ModuleRelation.random(
            "F", n_inputs=2, n_outputs=2, domain_size=3, seed=11
        )
        requests = entry_requests(relation)[:2]
        policy = {"tenants": {"flood": {"token": "tf", "max_queue_depth": 1}}}
        with GammaServer(
            ("unix", str(tmp_path / "overload.sock")), policy=policy
        ) as server:
            original = server._evaluate

            def slow_evaluate(*args, **kwargs):
                time.sleep(0.05)
                return original(*args, **kwargs)

            server._evaluate = slow_evaluate
            overloads = 0
            hint = 0.0
            with ShardCoordinator(
                address=server.address, auth_token="tf", task_timeout=30.0
            ) as client:
                # A bounded submit window with interleaved collects: deep
                # enough to outrun the depth-1 queue, shallow enough that
                # replies keep draining (a totally deaf flooder is
                # *dropped*, not shed -- that is the outbox contract).
                window = [client.submit(requests) for _ in range(8)]
                for _ in range(48):
                    window.append(client.submit(requests))
                    try:
                        client.collect(window.pop(0))
                    except ServiceOverloadError as exc:
                        overloads += 1
                        hint = max(hint, exc.retry_after_ms)
                    if overloads >= 3:
                        break
                for request_id in window:
                    try:
                        client.collect(request_id)
                    except ServiceOverloadError as exc:
                        overloads += 1
                        hint = max(hint, exc.retry_after_ms)
                assert overloads >= 1
                assert hint > 0.0
                assert client.service_stats()["overloads"] == overloads
            assert server.stats()["server_overloads"] >= overloads


# ---------------------------------------------------------------------- #
# Satellites 2 + 3: connect-timeout default and stats budget pre-split
# ---------------------------------------------------------------------- #
class TestTransportDefaults:
    def test_one_connect_timeout_default_everywhere(self):
        import inspect

        from repro.service import pool as pool_module
        from repro.service import transport as transport_module

        assert DEFAULT_CONNECT_TIMEOUT == 5.0
        assert (
            inspect.signature(transport_module.probe_endpoint)
            .parameters["timeout"]
            .default
            == DEFAULT_CONNECT_TIMEOUT
        )
        assert (
            inspect.signature(transport_module.connect).parameters["timeout"].default
            == DEFAULT_CONNECT_TIMEOUT
        )
        assert (
            inspect.signature(SocketTransport.__init__)
            .parameters["connect_timeout"]
            .default
            == DEFAULT_CONNECT_TIMEOUT
        )
        assert (
            inspect.signature(PooledTransport.__init__)
            .parameters["connect_timeout"]
            .default
            == DEFAULT_CONNECT_TIMEOUT
        )

    def _pool(self, tmp_path, count=2):
        servers = [
            GammaServer(("unix", str(tmp_path / f"s{index}.sock"))).start()
            for index in range(count)
        ]
        pool = PooledTransport(
            [server.address for server in servers], probe_interval=None
        )
        return servers, pool

    def test_fetch_stats_presplits_budget_across_live_endpoints(
        self, tmp_path, monkeypatch
    ):
        servers, pool = self._pool(tmp_path)
        budgets: list[float] = []
        original = SocketTransport.fetch_stats

        def recording(self, timeout=10.0):
            budgets.append(timeout)
            return original(self, timeout)

        monkeypatch.setattr(SocketTransport, "fetch_stats", recording)
        try:
            stats = pool.fetch_stats(timeout=2.0)
            assert stats["server_batches"] >= 0
            assert len(budgets) == 2
            # First endpoint gets half the budget, not the whole deadline;
            # its unused slice rolls forward to the second.
            assert budgets[0] == pytest.approx(1.0, rel=0.2)
            assert budgets[1] >= budgets[0]
        finally:
            pool.close()
            for server in servers:
                server.close()

    def test_fetch_stats_skips_known_dead_endpoints_up_front(
        self, tmp_path, monkeypatch
    ):
        servers, pool = self._pool(tmp_path)
        budgets: list[float] = []
        original = SocketTransport.fetch_stats

        def recording(self, timeout=10.0):
            budgets.append(timeout)
            return original(self, timeout)

        monkeypatch.setattr(SocketTransport, "fetch_stats", recording)
        try:
            pool._endpoints[0].transport._dead = True
            pool.fetch_stats(timeout=2.0)
            # One probe only, with the whole budget: the dead endpoint
            # is excluded before the split, not discovered mid-loop.
            assert len(budgets) == 1
            assert budgets[0] == pytest.approx(2.0, rel=0.2)
        finally:
            pool.close()
            for server in servers:
                server.close()
