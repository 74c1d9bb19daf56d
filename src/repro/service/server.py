"""Standalone Gamma evaluation server: one warm kernel service, many clients.

HyProv and the distributed-ledger provenance line both argue for a
*shared* provenance/evaluation service reachable across process and
machine boundaries; this module is that endpoint for Gamma evaluation.
``repro serve`` (or :class:`GammaServer` embedded in tests) listens on a
unix-domain socket and/or a TCP port, speaks the length-prefixed frame
protocol of :mod:`repro.service.protocol`, and serves every connected
client from one shared, snapshot-backed kernel registry (an
:class:`~repro.service.transport.InProcessTransport`) -- so the kernels
one tenant warmed are hits for every other tenant with a structurally
identical module.

Handled frames (one reply per request):

* ``("batch", GammaBatch)`` -> ``("batch", shard_id, batch_id, results,
  report)`` or ``("error", shard_id, batch_id, traceback)``.  Clients
  ship each structure once per connection into the kernel registry, the
  server's one structure store; a task whose signature no kernel holds
  fails closed with ``error``.
* ``("stats",)`` -> ``("stats", kernel_and_service_stats)``.
* ``("stop",)`` -> ``("stopped", 0)`` and a server shutdown (admin
  hook; disable with ``allow_remote_stop=False``).

Concurrency and fairness: one *reader* thread per client connection
parses frames, adopts the structures a batch ships into the registry,
and answers the cheap frames (ping, stats, export, import, stop)
inline; batch evaluations go through a **deficit-weighted fair
scheduler** -- every connection owns a bounded request queue (a full
queue blocks only that client's reader: natural per-tenant
backpressure), and one dispatcher thread drains the queues by
*deficit round-robin over estimated batch cost*: each tenant accrues
``weight x quantum`` dispatch credit per scheduler round and each
dispatched batch debits its estimated cost (``rows x visible subsets``
from the registry's kernel, refined per signature by an EWMA of
observed service time), so service *cost* -- not batch count --
interleaves across tenants in proportion to their configured weights.
Weights and per-tenant queue quotas come from the server-side
:class:`~repro.service.security.PolicyTable`.  Admission control: when
a tenant's bounded queue is full *and* its deficit is exhausted, the
batch is shed with an ``("overload", shard, batch, retry_after_ms)``
reply (clients raise :class:`~repro.errors.ServiceOverloadError`)
instead of blocking the reader forever.  Each completed batch's
:class:`ShardReport` is stamped with the tenant's identity, queue depth
at arrival and the time the batch waited before dispatch
(``queue_depth`` / ``queue_wait_ms``), and ``stats`` exposes the
aggregate and per-tenant gauges.

One evaluation hop: Gamma depends only on a module's own relation and
visibility, so a decoded batch whose structures the registry holds has
nothing left to route -- the dispatcher hands it straight to the
registry's :meth:`~repro.service.transport.InProcessTransport.evaluate`,
and the reply carries the client's task ids and per-task ``want``
unchanged.  The registry is not thread-safe: one lock serializes the
dispatcher's evaluations with the readers' structure adoption,
``export``, ``import`` and ``stats``.  Multi-core serving is several
``repro serve`` processes behind one ``ShardCoordinator(endpoints=[...])``
client.

Security: ``tls_cert``/``tls_key`` wrap every accepted connection in
server-side TLS (optionally verifying client certificates against
``tls_client_ca``), and a policy table with tokens requires the raw
token preamble of :mod:`repro.service.security` on every connection --
validated with a constant-time compare *before any frame is decoded*,
so unauthenticated peers never reach the frame decoder.  Authenticated
peers reach only the data-only decoder of :mod:`repro.service.protocol`:
a frame that does not decode to a well-formed request -- including one
that references any global -- drops that client and counts in the
``server_errors`` stat, while every other tenant keeps being served.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import queue as queue_module
import select
import socket
import ssl
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import replace
from typing import Mapping

from repro.errors import ServiceError
from repro.privacy.kernel_registry import SharedGammaKernel
from repro.service.protocol import (
    MSG_BATCH,
    MSG_ERROR,
    MSG_EXPORT,
    MSG_EXPORTED,
    MSG_IMPORT,
    MSG_IMPORTED,
    MSG_OVERLOAD,
    MSG_PING,
    MSG_PONG,
    MSG_STATS,
    MSG_STOP,
    MSG_STOPPED,
    GammaBatch,
    ShardReport,
    TaskResult,
    decode_frame_from_buffer,
    encode_frame,
    read_frame,
)
from repro.service.security import (
    DEFAULT_HANDSHAKE_TIMEOUT,
    PolicyTable,
    TenantPolicy,
    build_server_ssl_context,
    read_token_preamble,
    send_auth_reply,
)
from repro.service.transport import InProcessTransport, parse_address

#: Default cap on one tenant's queued batches; a full queue blocks that
#: tenant's reader thread (backpressure) while the tenant still has
#: dispatch credit, and sheds with an ``overload`` reply once it does
#: not.  Per-tenant quotas in the policy table override it.
DEFAULT_TENANT_QUEUE = 32

#: Recent queue waits kept for the stats percentiles.
WAIT_WINDOW = 2048

#: Recent queue waits kept *per tenant* for the per-tenant p95 gauge.
TENANT_WAIT_WINDOW = 512

#: Smoothing factor of the service-time EWMAs refining the cost model.
COST_EWMA_ALPHA = 0.2

#: How many unspent quanta a backlogged tenant may bank.  Bounds the
#: burst a tenant can buy by queueing politely for a while, without
#: letting idle-earned credit grow without limit.
DEFICIT_BURST_ROUNDS = 4.0

#: Cap on distinct signatures tracked by the per-signature service-time
#: EWMA (drop-oldest beyond it; the global EWMA covers evictees).
COST_SIGNATURES = 4096


#: Writer-thread shutdown sentinel (outbox items are always tuples).
_WRITER_STOP = object()


class _Tenant:
    """Server-side queueing and scheduling state of one client connection."""

    __slots__ = (
        "tenant_id",
        "name",
        "weight",
        "max_depth",
        "conn",
        "io_lock",
        "pending",
        "outbox",
        "writer",
        "enqueued",
        "dispatched",
        "shed",
        "deficit",
        "queued_units",
        "waits_ms",
        "closed",
        "_on_error",
    )

    def __init__(
        self,
        tenant_id: int,
        conn: socket.socket,
        outbox_depth: int,
        *,
        name: str,
        weight: float = 1.0,
        max_depth: int = DEFAULT_TENANT_QUEUE,
        io_lock: threading.Lock | None = None,
        on_error=None,
    ) -> None:
        self.tenant_id = tenant_id
        #: Identity from the token handshake (or an anonymous
        #: per-connection name); stamped into every ShardReport.
        self.name = name
        self.weight = float(weight)
        self.max_depth = int(max_depth)
        self.conn = conn
        #: TLS connections only: SSL objects admit no concurrent read +
        #: write, so the reader and writer threads interleave their
        #: socket operations through this lock (plaintext sockets are
        #: full-duplex and skip it).
        self.io_lock = io_lock
        #: Queued (batch, enqueued_at, depth, units) items, FIFO.
        self.pending: deque[tuple] = deque()
        #: Outbound reply frames, drained by this tenant's writer thread.
        #: Dispatchers must never block on a tenant's socket -- a tenant
        #: that stops *reading* would otherwise park a shared dispatcher
        #: mid-``sendall`` and starve every other tenant, the exact
        #: head-of-line blocking the fair scheduler removes.  A full
        #: outbox means the tenant is not consuming replies; it is
        #: dropped, not waited for.
        self.outbox: queue_module.Queue = queue_module.Queue(maxsize=outbox_depth)
        self.writer: threading.Thread | None = None
        self.enqueued = 0
        self.dispatched = 0
        #: Batches shed by admission control (overload replies sent).
        self.shed = 0
        #: Deficit-round-robin credit, in estimated cost units.  Topped
        #: up ``weight x quantum`` per scheduler round while backlogged,
        #: debited by each dispatched batch's estimated cost.
        self.deficit = 0.0
        #: Estimated cost units currently sitting in ``pending``.
        self.queued_units = 0.0
        #: Recent queue waits, for the per-tenant p95 gauge.
        self.waits_ms: deque[float] = deque(maxlen=TENANT_WAIT_WINDOW)
        self.closed = False
        self._on_error = on_error if on_error is not None else lambda: None

    def start_writer(self) -> None:
        self.writer = threading.Thread(
            target=self._write_loop,
            name=f"gamma-writer-{self.tenant_id}",
            daemon=True,
        )
        self.writer.start()

    def _send_bytes(self, payload: bytes) -> None:
        if self.io_lock is not None:
            with self.io_lock:
                # The TLS reader leaves the socket non-blocking between
                # its polls; writes need a blocking socket again.
                self.conn.settimeout(None)
                self.conn.sendall(payload)
        else:
            self.conn.sendall(payload)

    def _write_loop(self) -> None:
        while True:
            message = self.outbox.get()
            if message is _WRITER_STOP:
                return
            try:
                payload = encode_frame(message)
            except Exception as exc:
                # A poisoned reply payload (an unpicklable stats value,
                # say) must not silently kill the writer thread and hang
                # every later reply: count it and answer with a
                # structured error so the client is not left waiting
                # either.
                self._on_error()
                shard_id, batch_id = 0, 0
                kind = message[0] if message else "?"
                if kind in (MSG_BATCH, MSG_ERROR) and len(message) >= 3:
                    shard_id, batch_id = message[1], message[2]
                try:
                    payload = encode_frame(
                        (
                            MSG_ERROR,
                            shard_id,
                            batch_id,
                            f"server failed to encode the {kind!r} reply: {exc!r}",
                        )
                    )
                except Exception:  # pragma: no cover - error text is plain
                    continue
            try:
                self._send_bytes(payload)
            except OSError:
                # Socket gone: stop writing; the reader observes the dead
                # connection and unregisters the tenant.
                return
            except Exception:  # pragma: no cover - unexpected send failure
                self._on_error()
                return

    def send(self, message: tuple) -> bool:
        """Queue one reply frame; drops the tenant when it stopped reading."""
        try:
            self.outbox.put_nowait(message)
            return True
        except queue_module.Full:
            self.drop()
            return False

    def drop(self) -> None:
        """Sever a tenant that no longer consumes replies."""
        with contextlib.suppress(OSError):
            self.conn.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self.conn.close()

    def stop_writer(self) -> None:
        if self.writer is None:
            return
        # Unblock the writer even when the outbox is full of undeliverable
        # replies -- drain first, then hand it the stop sentinel.
        while True:
            try:
                self.outbox.put_nowait(_WRITER_STOP)
                break
            except queue_module.Full:
                try:
                    self.outbox.get_nowait()
                except queue_module.Empty:  # pragma: no cover - race only
                    pass
        self.writer.join(timeout=2.0)


def _percentile(waits: list[float], fraction: float) -> float:
    return round(waits[int(fraction * (len(waits) - 1))], 3)


class _FairScheduler:
    """Deficit round-robin over bounded per-tenant batch queues.

    One condition variable guards every queue, the rotation order and
    the cost model.  Each tenant holds a *deficit* of dispatch credit in
    estimated cost units; a dispatcher visiting a tenant with pending
    work and positive deficit takes one batch and debits its cost.  When
    a full rotation finds work but no credit anywhere, every backlogged
    tenant is topped up by ``weight x quantum`` (the quantum tracks the
    EWMA of recent batch cost, so one round of credit is roughly one
    average batch for a weight-1 tenant) -- service *cost* therefore
    interleaves in proportion to configured weights, not batch counts,
    and a tenant shipping few huge batches cannot crowd out one shipping
    many small ones.  Cost estimates start at ``rows x visible subsets``
    from the structure's registry kernel and are refined by a
    per-signature EWMA of observed service time per unit.  Items of an
    unregistered (disconnected) tenant are dropped instead of evaluated
    into a dead socket.

    Admission control: :meth:`enqueue` on a *full* tenant queue blocks
    (per-tenant backpressure) only while the tenant still holds credit;
    once its deficit is exhausted the batch is shed with an estimated
    ``retry_after_ms`` instead, so a flooding tenant receives explicit
    ``overload`` replies rather than a silently frozen connection.
    """

    def __init__(self, dispatch, dispatchers: int, max_queue_depth: int) -> None:
        if max_queue_depth < 1:
            raise ServiceError("tenant queue must hold at least one batch")
        self._dispatch = dispatch
        self.max_queue_depth = int(max_queue_depth)
        self.dispatchers = int(dispatchers)
        self._cond = threading.Condition()
        self._tenants: dict[int, _Tenant] = {}
        self._rotation: deque[int] = deque()
        self._waits_ms: deque[float] = deque(maxlen=WAIT_WINDOW)
        #: Observed ms of service time per estimated cost unit: global
        #: EWMA plus a per-signature refinement (wide-subset structures
        #: cost more per row than narrow ones).
        self._ms_per_unit: float | None = None
        self._ms_per_unit_by_sig: "OrderedDict[str, float]" = OrderedDict()
        #: EWMA of per-batch estimated cost -- the deficit quantum.
        self._quantum_units = 1.0
        self._sheds = 0
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._loop, name=f"gamma-dispatch-{index}", daemon=True
            )
            for index in range(self.dispatchers)
        ]
        for thread in self._threads:
            thread.start()

    # -- cost model -----------------------------------------------------
    def estimate_units(
        self, batch: GammaBatch, kernels: Mapping[str, SharedGammaKernel]
    ) -> float:
        """Estimated cost of ``batch`` in abstract units.

        ``rows x visible subsets`` per task: the kernel's partition
        refinement walks the structure's rows once per visible column,
        so the product tracks the dominant term without evaluating
        anything.  The scheduler refines units into expected service
        time through the observed per-signature EWMAs at debit time.
        """
        units = 0.0
        for task in batch.tasks:
            kernel = kernels.get(task.signature)
            rows = kernel.structure.row_count if kernel is not None else 1
            subsets = max(1, len(task.visible_inputs) + len(task.visible_outputs))
            units += max(1.0, float(rows * subsets))
        return max(units, 1.0)

    def _charge(self, batch: GammaBatch, units: float) -> float:
        """``units`` scaled by the observed service-time refinement."""
        if self._ms_per_unit is None:
            return units
        scale = 0.0
        tasks = max(len(batch.tasks), 1)
        for task in batch.tasks:
            scale += self._ms_per_unit_by_sig.get(task.signature, self._ms_per_unit)
        return units * (scale / tasks) / self._ms_per_unit

    def observe_service_time(self, batch: GammaBatch, units: float, ms: float) -> None:
        """Fold one batch's measured service time into the EWMAs."""
        if units <= 0.0:
            return
        observed = max(ms, 0.0) / units
        with self._cond:
            if self._ms_per_unit is None:
                self._ms_per_unit = observed
            else:
                self._ms_per_unit += COST_EWMA_ALPHA * (observed - self._ms_per_unit)
            for signature in {task.signature for task in batch.tasks}:
                previous = self._ms_per_unit_by_sig.get(signature)
                refined = (
                    observed
                    if previous is None
                    else previous + COST_EWMA_ALPHA * (observed - previous)
                )
                self._ms_per_unit_by_sig[signature] = refined
                self._ms_per_unit_by_sig.move_to_end(signature)
            while len(self._ms_per_unit_by_sig) > COST_SIGNATURES:
                self._ms_per_unit_by_sig.popitem(last=False)

    def retry_after_ms(self, tenant: _Tenant) -> float:
        """When the tenant's credit should cover its queued work again."""
        ms_per_unit = self._ms_per_unit if self._ms_per_unit is not None else 1.0
        backlog_units = tenant.queued_units - min(tenant.deficit, 0.0)
        return max(1.0, round(backlog_units * ms_per_unit / tenant.weight, 3))

    # -- tenant lifecycle ----------------------------------------------
    def register(self, tenant: _Tenant) -> None:
        with self._cond:
            self._tenants[tenant.tenant_id] = tenant
            self._rotation.append(tenant.tenant_id)

    def unregister(self, tenant: _Tenant) -> None:
        with self._cond:
            tenant.closed = True
            tenant.pending.clear()
            tenant.queued_units = 0.0
            self._tenants.pop(tenant.tenant_id, None)
            self._cond.notify_all()

    def enqueue(self, tenant: _Tenant, item: tuple) -> tuple[str, float]:
        """Queue one batch: ``("queued", 0)``, ``("closed", 0)`` on a
        stopping server / dropped tenant, or ``("overload",
        retry_after_ms)`` when the queue is full and credit exhausted."""
        units = item[3]
        with self._cond:
            while (
                len(tenant.pending) >= tenant.max_depth
                and not self._stopping
                and not tenant.closed
            ):
                if tenant.deficit <= 0.0:
                    tenant.shed += 1
                    self._sheds += 1
                    return ("overload", self.retry_after_ms(tenant))
                self._cond.wait(0.1)
            if self._stopping or tenant.closed:
                return ("closed", 0.0)
            tenant.pending.append(item)
            tenant.queued_units += units
            tenant.enqueued += 1
            self._cond.notify()
            return ("queued", 0.0)

    # -- dispatchers ----------------------------------------------------
    def _visit(self) -> tuple[_Tenant, tuple] | None:
        """One rotation pass: the first backlogged tenant with credit."""
        for _ in range(len(self._rotation)):
            tenant_id = self._rotation.popleft()
            tenant = self._tenants.get(tenant_id)
            if tenant is None:
                continue  # disconnected; fell out of the rotation
            self._rotation.append(tenant_id)
            if tenant.pending and tenant.deficit > 0.0:
                item = tenant.pending.popleft()
                units = self._charge(item[0], item[3])
                tenant.deficit -= units
                tenant.queued_units = max(tenant.queued_units - item[3], 0.0)
                tenant.dispatched += 1
                self._quantum_units += COST_EWMA_ALPHA * (
                    units - self._quantum_units
                )
                self._cond.notify_all()  # a slot freed: wake blocked readers
                return tenant, item
        return None

    def _top_up(self) -> bool:
        """Advance the credit clock when a round ends with no credit left.

        Grants every backlogged tenant the fewest whole rounds of
        ``weight x quantum`` credit that makes at least one of them
        dispatchable -- skipping empty rounds in closed form, because a
        batch far above the quantum drives its tenant's deficit deep
        negative and iterating one round at a time would stall the
        dispatchers.  Banking is bounded (:data:`DEFICIT_BURST_ROUNDS`)
        and idle tenants' debt is forgiven up to zero so returning
        tenants start fresh rather than owing for old bursts.  Returns
        False when no tenant has work queued.
        """
        backlogged = [t for t in self._tenants.values() if t.pending]
        if not backlogged:
            return False
        quantum = max(self._quantum_units, 1e-9)
        rounds = min(
            max(1, math.ceil((1e-9 - t.deficit) / (t.weight * quantum)))
            for t in backlogged
        )
        for tenant in self._tenants.values():
            if tenant.pending:
                cap = DEFICIT_BURST_ROUNDS * tenant.weight * quantum
                tenant.deficit = min(
                    tenant.deficit + rounds * tenant.weight * quantum, cap
                )
            else:
                tenant.deficit = max(tenant.deficit, 0.0)
        self._cond.notify_all()  # credit granted: re-check admission
        return True

    def _pop_next(self) -> tuple[_Tenant, tuple] | None:
        """The next (tenant, item) by deficit round-robin; None when idle."""
        entry = self._visit()
        if entry is not None:
            return entry
        # No tenant had both work and credit: the rotation round is
        # over.  Advance the clock and take the first dispatchable
        # batch (guaranteed to exist when _top_up granted credit).
        if not self._top_up():
            return None
        return self._visit()

    def _loop(self) -> None:
        while True:
            with self._cond:
                entry = self._pop_next()
                while entry is None and not self._stopping:
                    self._cond.wait(0.2)
                    entry = self._pop_next()
                if entry is None:
                    return  # stopping and drained
            tenant, item = entry
            wait_ms = (time.monotonic() - item[1]) * 1000.0
            with self._cond:
                self._waits_ms.append(wait_ms)
                tenant.waits_ms.append(wait_ms)
            started = time.monotonic()
            self._dispatch(tenant, item, wait_ms)
            self.observe_service_time(
                item[0], item[3], (time.monotonic() - started) * 1000.0
            )

    # -- gauges ---------------------------------------------------------
    def queue_depth(self) -> int:
        with self._cond:
            return sum(len(tenant.pending) for tenant in self._tenants.values())

    def tenant_count(self) -> int:
        with self._cond:
            return len(self._tenants)

    @property
    def sheds(self) -> int:
        with self._cond:
            return self._sheds

    def wait_percentiles(self) -> dict[str, float]:
        with self._cond:
            waits = sorted(self._waits_ms)
        if not waits:
            return {"queue_wait_p50_ms": 0.0, "queue_wait_p95_ms": 0.0}
        return {
            "queue_wait_p50_ms": _percentile(waits, 0.50),
            "queue_wait_p95_ms": _percentile(waits, 0.95),
        }

    def tenant_gauges(self) -> dict[str, dict[str, float]]:
        """Live per-tenant-name gauges (several connections may share a
        name; counts sum, percentiles take the worst)."""
        with self._cond:
            tenants = list(self._tenants.values())
            snapshot = {
                tenant.tenant_id: (sorted(tenant.waits_ms), len(tenant.pending))
                for tenant in tenants
            }
        gauges: dict[str, dict[str, float]] = {}
        for tenant in tenants:
            waits, depth = snapshot[tenant.tenant_id]
            entry = gauges.setdefault(
                tenant.name,
                {
                    "weight": tenant.weight,
                    "enqueued": 0,
                    "dispatched": 0,
                    "shed": 0,
                    "queued": 0,
                    "queue_wait_p95_ms": 0.0,
                },
            )
            entry["weight"] = max(entry["weight"], tenant.weight)
            entry["enqueued"] += tenant.enqueued
            entry["dispatched"] += tenant.dispatched
            entry["shed"] += tenant.shed
            entry["queued"] += depth
            if waits:
                entry["queue_wait_p95_ms"] = max(
                    entry["queue_wait_p95_ms"], _percentile(waits, 0.95)
                )
        return gauges

    def stop(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)


class GammaServer:
    """Socket front-end over one shared, snapshot-backed kernel registry.

    ``address`` accepts the forms of
    :func:`repro.service.transport.parse_address`; TCP port 0 picks a
    free port (read the bound address back from :attr:`address`).
    ``budget_bytes``/``total_budget_bytes``/``snapshot_dir`` configure
    the registry (an :class:`~repro.service.transport.InProcessTransport`);
    ``max_queue_depth`` bounds each tenant's request queue (per-tenant
    quotas in ``policy`` override it).

    ``tls_cert``/``tls_key`` (or a prebuilt ``ssl_context``) terminate
    TLS on every accepted connection; ``tls_client_ca`` additionally
    requires client certificates (mutual TLS).  ``policy`` is a
    :class:`~repro.service.security.PolicyTable`, a mapping accepted by
    :meth:`PolicyTable.from_mapping`, or a JSON policy file path; when
    any tenant carries a token, every connection must open with the
    token preamble (checked before any frame is decoded) and the token
    selects the tenant's name, weight and queue quota.
    """

    def __init__(
        self,
        address: str | tuple,
        *,
        budget_bytes: int | None = None,
        total_budget_bytes: int | None = None,
        snapshot_dir: str | None = None,
        allow_remote_stop: bool = True,
        backlog: int = 16,
        max_queue_depth: int = DEFAULT_TENANT_QUEUE,
        tls_cert: str | None = None,
        tls_key: str | None = None,
        tls_client_ca: str | None = None,
        ssl_context: "ssl.SSLContext | None" = None,
        policy: "PolicyTable | Mapping | str | None" = None,
        handshake_timeout: float = DEFAULT_HANDSHAKE_TIMEOUT,
    ) -> None:
        parsed = parse_address(address)
        self.allow_remote_stop = bool(allow_remote_stop)
        if ssl_context is None and tls_cert is not None:
            if tls_key is None:
                raise ServiceError("tls_cert requires tls_key")
            ssl_context = build_server_ssl_context(
                tls_cert, tls_key, client_ca=tls_client_ca
            )
        self._ssl_context = ssl_context
        if policy is None:
            policy = PolicyTable()
        elif isinstance(policy, str):
            policy = PolicyTable.from_file(policy)
        elif not isinstance(policy, PolicyTable):
            policy = PolicyTable.from_mapping(policy)
        self._policy = policy
        self._handshake_timeout = float(handshake_timeout)
        self._backend = InProcessTransport(
            budget_bytes=budget_bytes,
            total_budget_bytes=total_budget_bytes,
            snapshot_dir=snapshot_dir,
        )
        #: Serializes every registry touch: the dispatcher's evaluations
        #: and the readers' structure adoption, export, import and stats.
        self._backend_lock = threading.Lock()
        self._scheduler = _FairScheduler(self._dispatch_item, 1, max_queue_depth)
        self._tenant_ids = itertools.count(1)
        self._stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._unix_path: str | None = None
        self._accept_thread: threading.Thread | None = None
        self._closed = False
        self._batches_served = 0
        self._clients_served = 0
        #: Unexpected server-side failures (reply-encode poison, dispatch
        #: crashes outside the evaluate path...) that earlier versions
        #: swallowed silently; surfaced through ``stats``.
        self._error_lock = threading.Lock()
        self._server_errors = 0
        self._auth_failures = 0
        self._tls_failures = 0

        if parsed[0] == "unix":
            path = parsed[1]
            with contextlib.suppress(OSError):
                os.unlink(path)
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(path)
            self._unix_path = path
            self.address: tuple = ("unix", path)
        else:
            _, host, port = parsed
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            bound_host, bound_port = self._listener.getsockname()
            self.address = ("tcp", bound_host, bound_port)
        self._listener.listen(backlog)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "GammaServer":
        """Begin accepting clients on a background thread."""
        if self._accept_thread is not None:
            raise ServiceError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gamma-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept clients until :meth:`close` (the CLI foreground mode)."""
        self.start()
        try:
            self._stop_event.wait()
        finally:
            self.close()

    def _accept_loop(self) -> None:
        while not self._stop_event.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:  # listener shut down under us
                break
            if conn.family == socket.AF_INET:
                # Pipelined clients write many small frames back to back;
                # without NODELAY, Nagle + delayed ACK serializes them
                # into ~40ms stalls.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._connections_lock:
                self._connections.add(conn)
            self._clients_served += 1
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="gamma-server-client",
                daemon=True,
            )
            thread.start()
            # Prune finished client threads so a long-lived server does
            # not retain one Thread object per client ever connected.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def close(self, *, snapshot: bool = True) -> None:
        """Stop accepting, drop clients, snapshot and close the backend."""
        if self._closed:
            return
        self._closed = True
        self._stop_event.set()
        # Closing alone does not wake a thread blocked in accept();
        # shutting the listener down first does, at once.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._listener.close()
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._scheduler.stop()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        with self._backend_lock:
            self._backend.close(snapshot=snapshot)

    def __enter__(self) -> "GammaServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #
    def _evaluate(
        self, batch: GammaBatch
    ) -> tuple[tuple[TaskResult, ...], ShardReport]:
        """The batch against the registry, which holds its structures."""
        with self._backend_lock:
            results, report = self._backend.evaluate(batch)
            self._batches_served += 1
        return results, report

    def _count_server_error(self) -> None:
        with self._error_lock:
            self._server_errors += 1

    def _count_auth_failure(self, *, tls: bool = False) -> None:
        with self._error_lock:
            self._auth_failures += 1
            if tls:
                self._tls_failures += 1

    def stats(self) -> dict[str, object]:
        """Service-wide stats (kernel counters + server/fairness gauges)."""
        with self._backend_lock:
            stats: dict[str, object] = self._backend.live_kernel_stats()
            stats["preloaded"] = self._backend.preloaded_entries
            stats["server_batches"] = self._batches_served
        stats["server_clients"] = self._clients_served
        stats["server_tenants"] = self._scheduler.tenant_count()
        stats["server_queue_depth"] = self._scheduler.queue_depth()
        stats["server_dispatchers"] = self._scheduler.dispatchers
        stats["server_overloads"] = self._scheduler.sheds
        with self._error_lock:
            stats["server_errors"] = self._server_errors
            stats["server_auth_failures"] = self._auth_failures
            stats["server_tls_failures"] = self._tls_failures
        stats.update(self._scheduler.wait_percentiles())
        # Flat tenant.<name>.<gauge> keys so the pool's stats merge
        # (counters sum, *_ms keys take max) composes across endpoints.
        for name, gauges in self._scheduler.tenant_gauges().items():
            for gauge, value in gauges.items():
                stats[f"tenant.{name}.{gauge}"] = value
        return stats

    def _dispatch_item(self, tenant: _Tenant, item: tuple, wait_ms: float) -> None:
        """Evaluate one queued batch and reply to its tenant (scheduler hook).

        The reply is handed to the tenant's writer thread, never written
        here: a dispatcher blocking on one tenant's socket would starve
        every other tenant.
        """
        batch, _enqueued_at, depth, _units = item
        try:
            results, report = self._evaluate(batch)
        except Exception:
            self._count_server_error()
            reply: tuple = (
                MSG_ERROR,
                batch.shard_id,
                batch.batch_id,
                traceback.format_exc(),
            )
        else:
            report = replace(
                report,
                queue_depth=depth,
                queue_wait_ms=round(wait_ms, 6),
                tenant=tenant.name,
            )
            reply = (MSG_BATCH, batch.shard_id, batch.batch_id, results, report)
        tenant.send(reply)

    def _handshake(
        self, conn: socket.socket
    ) -> tuple[socket.socket, threading.Lock | None, TenantPolicy | None] | None:
        """TLS-wrap and token-authenticate one accepted connection.

        Returns ``(conn, io_lock, tenant_policy)`` -- the possibly
        TLS-wrapped socket, the reader/writer interleave lock (TLS
        only), and the authenticated tenant policy (``None`` when the
        policy table holds no tokens).  Returns ``None`` after closing
        the socket when the peer fails either step; nothing of the
        frame protocol runs before both checks pass.
        """
        raw = conn
        io_lock: threading.Lock | None = None
        if self._ssl_context is not None:
            try:
                conn.settimeout(self._handshake_timeout)
                conn = self._ssl_context.wrap_socket(conn, server_side=True)
            except (ssl.SSLError, OSError):
                # Plaintext speaker, bad client cert, handshake timeout.
                self._count_auth_failure(tls=True)
                self._discard_connection(raw)
                return None
            # wrap_socket *detached* the raw socket (its fd moved into
            # the SSLSocket): swap the tracked object or close() could
            # no longer sever this client.
            with self._connections_lock:
                self._connections.discard(raw)
                self._connections.add(conn)
            if self._stop_event.is_set():  # raced with close()
                self._discard_connection(conn)
                return None
            io_lock = threading.Lock()
        tenant_policy: TenantPolicy | None = None
        if self._policy.requires_auth:
            conn.settimeout(self._handshake_timeout)
            token = read_token_preamble(conn)
            if token is not None:
                tenant_policy = self._policy.authenticate(token)
            if tenant_policy is None:
                # Count before replying: the rejected peer reacts to the
                # reply instantly and may probe stats for the failure.
                self._count_auth_failure()
            with contextlib.suppress(OSError):
                send_auth_reply(conn, tenant_policy is not None)
            if tenant_policy is None:
                self._discard_connection(conn)
                return None
        conn.settimeout(None)
        return conn, io_lock, tenant_policy

    def _discard_connection(self, conn: socket.socket) -> None:
        with self._connections_lock:
            self._connections.discard(conn)
        with contextlib.suppress(OSError):
            conn.close()

    def _next_frame(
        self,
        conn: socket.socket,
        io_lock: threading.Lock | None,
        rxbuf: bytearray,
    ) -> tuple | None:
        """One decoded frame, or None on EOF/shutdown.

        Plaintext connections block in :func:`read_frame` -- the socket
        is full-duplex, so the writer thread needs no coordination.  A
        TLS connection's SSL object admits no concurrent read + write:
        the reader polls non-blocking under the shared ``io_lock``
        (checking ``pending()`` for plaintext the SSL layer already
        decrypted, which ``select`` cannot see) and waits on ``select``
        *outside* the lock so replies flow while it idles.
        """
        if io_lock is None:
            return read_frame(conn)
        while not self._stop_event.is_set():
            decoded = decode_frame_from_buffer(rxbuf)
            if decoded is not None:
                return decoded
            with io_lock:
                conn.settimeout(0.0)
                try:
                    chunk = conn.recv(65536)
                except (ssl.SSLWantReadError, ssl.SSLWantWriteError):
                    # Partial TLS record: not EOF, not an error.
                    chunk = None
                except (BlockingIOError, TimeoutError):
                    chunk = None
                pending = conn.pending() > 0
            if chunk == b"":
                return None  # orderly EOF
            if chunk:
                rxbuf += chunk
                continue
            if pending:
                continue  # decrypted bytes already buffered: re-poll
            try:
                select.select([conn], [], [], 0.1)
            except (OSError, ValueError):
                return None  # socket closed under us (tenant dropped)
        return None

    def _serve_connection(self, conn: socket.socket) -> None:
        handshake = None
        try:
            handshake = self._handshake(conn)
        except Exception:  # pragma: no cover - handshake must fail closed
            self._count_server_error()
            self._discard_connection(conn)
        if handshake is None:
            return
        conn, io_lock, tenant_policy = handshake
        tenant_id = next(self._tenant_ids)
        if tenant_policy is not None:
            name = tenant_policy.name
            weight = tenant_policy.weight
            max_depth = tenant_policy.max_queue_depth or self._scheduler.max_queue_depth
        else:
            name = f"client-{tenant_id}"
            weight = 1.0
            max_depth = self._scheduler.max_queue_depth
        # Outbox sized past the request queue so every queued batch's
        # reply fits; overflow therefore means the client is not reading.
        tenant = _Tenant(
            tenant_id,
            conn,
            max_depth * 2 + 8,
            name=name,
            weight=weight,
            max_depth=max_depth,
            io_lock=io_lock,
            on_error=self._count_server_error,
        )
        tenant.start_writer()
        self._scheduler.register(tenant)
        rxbuf = bytearray()
        try:
            while not self._stop_event.is_set():
                message = self._next_frame(conn, io_lock, rxbuf)
                if message is None or not self._handle_message(tenant, message):
                    break
        except (ssl.SSLError, OSError):
            pass  # the peer went away
        except Exception:
            # A frame that is torn, oversized, refused by the data-only
            # decoder, of the wrong shape or not a request (ServiceError),
            # or a well-formed message whose contents break its handler:
            # drop this client, keep serving every other one.
            self._count_server_error()
        finally:
            self._scheduler.unregister(tenant)
            tenant.stop_writer()  # flushes queued replies, then stops
            with self._connections_lock:
                self._connections.discard(conn)
            with contextlib.suppress(OSError):
                conn.close()

    def _handle_message(self, tenant: _Tenant, message: tuple) -> bool:
        """Answer or enqueue one client message; False ends the connection."""
        kind = message[0]
        if kind == MSG_BATCH:
            batch: GammaBatch = message[1]
            if batch.structures:
                # Adopt before enqueueing: a structure belongs to the
                # server from the moment it arrives, so a later batch
                # that only references it resolves even when this one
                # is empty or shed.
                with self._backend_lock:
                    self._backend.adopt(batch.structures)
            if not batch.tasks:
                report = ShardReport(
                    shard_id=batch.shard_id,
                    batch_id=batch.batch_id,
                    completed=0,
                    kernel_stats={},
                )
                return tenant.send(
                    (MSG_BATCH, batch.shard_id, batch.batch_id, (), report)
                )
            units = self._scheduler.estimate_units(batch, self._backend.kernels)
            queued = (batch, time.monotonic(), len(tenant.pending), units)
            verdict, retry_after_ms = self._scheduler.enqueue(tenant, queued)
            if verdict == "closed":
                return False  # server stopping under us
            if verdict == "overload":
                # Admission control shed the batch: tell the client when
                # to retry instead of freezing its connection behind an
                # over-quota backlog.
                return tenant.send(
                    (MSG_OVERLOAD, batch.shard_id, batch.batch_id, retry_after_ms)
                )
            return True
        if kind == MSG_STATS:
            return tenant.send((MSG_STATS, self.stats()))
        if kind == MSG_PING:
            # Answered inline by the reader thread: the health prober's
            # liveness check must round-trip even when every dispatcher
            # is busy evaluating.
            return tenant.send((MSG_PONG, 0))
        if kind == MSG_EXPORT:
            with self._backend_lock:
                payload = self._backend.export_kernel_entries(message[1])
            return tenant.send((MSG_EXPORTED, payload))
        if kind == MSG_IMPORT:
            with self._backend_lock:
                imported = self._backend.import_kernel_entries(message[1])
            return tenant.send((MSG_IMPORTED, imported))
        if kind == MSG_STOP:
            tenant.send((MSG_STOPPED, 0))
            if self.allow_remote_stop:
                self._stop_event.set()
            return False
        # Not a request (a reply kind, or no kind the protocol has):
        # refused like any other malformed frame.
        raise ServiceError(f"unknown request kind {kind!r}")

    def __repr__(self) -> str:
        return f"GammaServer({self.address}, batches={self._batches_served})"
