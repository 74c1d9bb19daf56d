"""The coordinator: route Gamma work to warm kernels over any transport.

:class:`ShardCoordinator` is the client-facing front of the service.  It
is *policy only*: it hash-partitions evaluation requests across shards
by canonical structure signature
(:func:`~repro.service.protocol.shard_of`), ships each structure to a
shard at most once, correlates completions by batch/request id, stamps
per-batch dispatch latency, and retries batches whose shard died.  The
mechanics of moving batches live behind the
:class:`~repro.service.transport.Transport` interface: an in-process
registry (``workers=0`` -- the no-dependency fallback and the oracle
every other transport is tested byte-identical against), a pool over N
forked servers (``workers=N`` --
:class:`~repro.service.forked.ForkedServerPool`), a socket connection
to a standalone :mod:`repro.service.server` (``address=...``), or a
federated pool of servers routed by structure signature
(``endpoints=[...]`` -- :class:`~repro.service.pool.PooledTransport`).

The coordinator is thread-safe: a reentrant lock serializes dispatch
bookkeeping and the result pump, so several client threads may share
one coordinator (and its servers' warm kernels) while the servers
evaluate genuinely in parallel.

Two client APIs:

* the synchronous :meth:`~ShardCoordinator.evaluate` /
  :meth:`~ShardCoordinator.gammas` of PR 3, unchanged in semantics.  On
  an in-process transport (:attr:`~ShardCoordinator.in_process`) they
  read every request straight from the transport's kernel, under the
  coordinator lock: no request id, batch, report or pump, so each
  ``(structure, visible inputs, visible outputs)`` key a caller asks is
  computed once, on one kernel;
* an asynchronous :meth:`~ShardCoordinator.submit` /
  :meth:`~ShardCoordinator.collect` / :meth:`~ShardCoordinator.discard`
  triple keyed by *request id*.  A pipelining caller (the secure-view
  solver's speculative frontier evaluation) keeps several requests in
  flight, collects them in whatever order it needs, and discards the
  requests of pruned search nodes -- late results for discarded
  requests are dropped on receipt.

Every submit goes through one dispatch path: tasks are buffered per
shard and a shard's buffer flushes as one batch once it holds
``coalesce`` tasks.  With ``coalesce=N`` a batch is *coalesced* (one
IPC round trip carrying the tasks of several requests); the default
``coalesce=0`` flushes each submit's shard batches at once.  Completion
is tracked per task, so requests sharing a batch still complete and
fail independently.  Every transport ships a structure by value, once
per shard: a server decodes its own copy of the two column matrices.
The coordinator keeps no structure store: each in-flight batch carries
its tasks' structures and sends only those its shard lacks, so a batch
sent again after a crash re-ships from itself.

The coordinator serves exact Gamma: ``want`` is ``"gamma"`` or
``"entry"``.

Fault handling: a batch is re-dispatched when its shard is found dead
(re-forked and reconnected servers start warm from snapshots);
the batch's :class:`ShardReport` is flagged ``retried``.  A shard that
keeps dying past the transport's ``max_restarts`` raises
:class:`~repro.errors.WorkerCrashError` instead of looping forever.

The coordinator is a context manager; on close it asks the transport to
snapshot warm kernels (where that is meaningful) so the next
coordinator starts warm.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from typing import Iterable, Sequence

from repro.errors import ServiceError, ServiceOverloadError
from repro.privacy.kernel_registry import RelationStructure
from repro.service.protocol import (
    MSG_BATCH,
    MSG_ERROR,
    MSG_OVERLOAD,
    WANT_GAMMA,
    GammaBatch,
    GammaTask,
    ShardReport,
    TaskResult,
    check_want,
    merge_kernel_stats,
    shard_of,
)
from repro.service.transport import (
    InProcessTransport,
    Transport,
    TransportSendError,
    build_transport,
)
from repro.service.worker import task_result

#: One evaluation request: (canonical structure, visible inputs, visible outputs).
GammaRequest = tuple[RelationStructure, tuple[int, ...], tuple[int, ...]]

#: How many per-batch dispatch latencies are retained for percentiles.
LATENCY_WINDOW = 8192

#: The dispatch-latency percentiles of :meth:`ShardCoordinator.service_stats`.
LATENCY_KEYS = ("p50_ms", "p90_ms", "p99_ms", "max_ms")


class _PendingRequest:
    """Coordinator-side state of one in-flight logical request.

    Completion is tracked per *task*, not per batch: with dispatch
    coalescing one batch carries tasks of several requests, so a request
    is done exactly when every one of its task ids has a banked result
    (or its error landed).
    """

    __slots__ = (
        "request_id",
        "tasks",
        "structures",
        "outstanding",
        "batch_ids",
        "results",
        "error",
        "retry_after_ms",
    )

    def __init__(
        self,
        request_id: int,
        tasks: list[GammaTask],
        structures: dict[str, RelationStructure],
    ) -> None:
        self.request_id = request_id
        self.tasks = tasks
        #: The structure of every task, by signature: what this request
        #: contributes to the batches that carry its tasks.
        self.structures = structures
        #: Task ids still awaiting a result (buffered or dispatched).
        self.outstanding: set[int] = {task.task_id for task in tasks}
        #: In-flight batches currently carrying tasks of this request.
        self.batch_ids: set[int] = set()
        self.results: dict[int, TaskResult] = {}
        #: Failure text banked until *this* request is collected -- a
        #: speculative request's error must not abort an unrelated
        #: ``collect`` that happened to be pumping when it arrived.
        self.error: str | None = None
        #: Set when the error is an admission-control shed: ``collect``
        #: raises :class:`ServiceOverloadError` carrying this hint.
        self.retry_after_ms: float | None = None

    @property
    def done(self) -> bool:
        return self.error is not None or not self.outstanding


class ShardCoordinator:
    """Transport-agnostic (in-process / forked servers / socket) Gamma service."""

    def __init__(
        self,
        workers: int = 0,
        *,
        transport: Transport | None = None,
        address: str | tuple | None = None,
        endpoints: Sequence[str | tuple] | None = None,
        budget_bytes: int | None = None,
        total_budget_bytes: int | None = None,
        snapshot_dir: str | None = None,
        task_timeout: float = 120.0,
        max_restarts: int = 3,
        probe_interval: float | None = None,
        coalesce: int = 0,
        tls_ca: str | None = None,
        ssl_context=None,
        auth_token: str | None = None,
    ) -> None:
        if coalesce < 0:
            raise ServiceError(f"coalesce threshold must be >= 0, got {coalesce}")
        if transport is None:
            transport = build_transport(
                workers,
                address=address,
                endpoints=endpoints,
                budget_bytes=budget_bytes,
                total_budget_bytes=total_budget_bytes,
                snapshot_dir=snapshot_dir,
                max_restarts=max_restarts,
                probe_interval=probe_interval,
                tls_ca=tls_ca,
                ssl_context=ssl_context,
                auth_token=auth_token,
            )
        self.transport = transport
        #: The transport whose kernels :meth:`evaluate` and :meth:`gammas`
        #: read directly, or ``None`` when evaluation runs elsewhere.
        self._local = transport if isinstance(transport, InProcessTransport) else None
        #: 0 in process, else how many shards the transport routes to.
        self.workers = 0 if self._local is not None else transport.shard_count
        self.task_timeout = float(task_timeout)
        self._task_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._pending: dict[int, _PendingRequest] = {}
        #: In-flight (dispatched, uncompleted) batches by batch id, each
        #: holding the structures of all its tasks.
        self._inflight_batches: dict[int, GammaBatch] = {}
        #: batch id -> ids of the live requests with tasks in that batch
        #: (a singleton set without coalescing; possibly several with).
        self._batch_requests: dict[int, set[int]] = {}
        #: task id -> owning request id, for every buffered or in-flight
        #: task; results and discards resolve their request through this.
        self._task_requests: dict[int, int] = {}
        #: Dispatch coalescing: tasks are buffered per shard and a
        #: shard's buffer flushes when it holds >= N tasks -- one IPC
        #: round trip carries the subset evaluations of many pipelined
        #: requests; N = 0 flushes every submit at once.  collect()
        #: flushes all buffers first, so no task waits on the threshold.
        self.coalesce = int(coalesce)
        self._buffers: dict[int, list[GammaTask]] = {}
        self._coalesced_batches = 0
        self._coalesced_requests = 0
        self._dispatch_times: dict[int, float] = {}
        self._retried_batch_ids: set[int] = set()
        self._last_reports: dict[int, ShardReport] = {}
        self._latencies_ms: list[float] = []
        self._tasks_dispatched = 0
        self._batches_dispatched = 0
        self._retried_batches = 0
        #: Batches shed by a server's admission control (overload replies).
        self._overloads = 0
        self._closed = False
        #: Serializes dispatch bookkeeping and the result pump, so several
        #: client threads may submit/collect concurrently.  Reentrant:
        #: evaluate() -> collect() -> _pump all run under one holder.
        #: Evaluation itself is only serialized on the in-process
        #: transport (whose submit and direct reads compute synchronously
        #: under this lock -- the registry is not thread-safe); servers
        #: keep evaluating in parallel because the lock is released while
        #: they work and only taken for the 50 ms poll slices of the pump.
        self._lock = threading.RLock()
        #: Membership-change accounting (elastic pools).  Guarded by its
        #: own small lock, NOT self._lock: the pool's prober thread
        #: fires the callback while a collector may hold the coordinator
        #: lock and be about to call into the pool -- sharing the big
        #: lock would be an ABBA deadlock.
        self._membership_lock = threading.Lock()
        self._membership_epoch = 0
        self._endpoint_losses = 0
        self._endpoint_readmissions = 0
        self._shards_rebalanced = 0
        register = getattr(self.transport, "add_membership_listener", None)
        if register is not None:
            register(self._on_membership_change)

    def _on_membership_change(self, event: tuple) -> None:
        """Pool membership callback (may run on the prober thread)."""
        kind, _endpoint, epoch, moved = event
        with self._membership_lock:
            self._membership_epoch = max(self._membership_epoch, epoch)
            self._shards_rebalanced += len(moved)
            if kind == "lost":
                self._endpoint_losses += 1
            elif kind == "readmitted":
                self._endpoint_readmissions += 1

    # ------------------------------------------------------------------ #
    # Asynchronous evaluation API (request id keyed)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        requests: Iterable[GammaRequest],
        *,
        want: str = WANT_GAMMA,
    ) -> int:
        """Dispatch every request as one logical unit; returns a request id.

        Each request is ``(structure, visible_inputs, visible_outputs)``;
        with ``want="entry"`` the results carry the full kernel-entry
        payload (per-block counts and partition) instead of Gamma only.
        The caller later passes the id to :meth:`collect` (block until
        complete) or :meth:`discard` (drop an abandoned speculation).
        """
        with self._lock:
            if self._closed:
                raise ServiceError("coordinator is closed")
            tasks: list[GammaTask] = []
            structures: dict[str, RelationStructure] = {}
            for structure, visible_inputs, visible_outputs in requests:
                structures[structure.signature] = structure
                tasks.append(
                    GammaTask(
                        next(self._task_ids),
                        structure.signature,
                        tuple(visible_inputs),
                        tuple(visible_outputs),
                        want,
                    )
                )
            request_id = next(self._request_ids)
            pending = _PendingRequest(request_id, tasks, structures)
            self._pending[request_id] = pending
            if not tasks:
                return request_id
            self._tasks_dispatched += len(tasks)
            for task in tasks:
                self._task_requests[task.task_id] = request_id
            shards = self.transport.shard_count
            by_shard: dict[int, list[GammaTask]] = {}
            for task in tasks:
                shard_id = shard_of(task.signature, shards) if shards > 1 else 0
                by_shard.setdefault(shard_id, []).append(task)
            # Buffer; a shard's buffer flushes once it holds enough tasks
            # for one worthwhile IPC round trip (at once when coalesce=0).
            for shard_id, shard_tasks in by_shard.items():
                buffer = self._buffers.setdefault(shard_id, [])
                buffer.extend(shard_tasks)
                if len(buffer) >= self.coalesce:
                    self._flush_shard(shard_id)
            return request_id

    def _dispatch_tasks(self, shard_id: int, tasks: list[GammaTask]) -> None:
        """Wrap ``tasks`` in one batch, register bookkeeping, dispatch.

        Caller holds the lock.  The batch's ``request_id`` field carries
        the first member request for observability; correlation happens
        per task through ``_task_requests``, so a batch may span any
        number of requests.
        """
        request_ids = set()
        structures: dict[str, RelationStructure] = {}
        for task in tasks:
            request_id = self._task_requests[task.task_id]
            request_ids.add(request_id)
            structures[task.signature] = self._pending[request_id].structures[
                task.signature
            ]
        batch = GammaBatch(
            next(self._batch_ids),
            shard_id,
            tuple(tasks),
            structures,
            min(request_ids),
        )
        self._batches_dispatched += 1
        if len(request_ids) > 1:
            self._coalesced_batches += 1
            self._coalesced_requests += len(request_ids)
        self._inflight_batches[batch.batch_id] = batch
        self._batch_requests[batch.batch_id] = request_ids
        for rid in request_ids:
            self._pending[rid].batch_ids.add(batch.batch_id)
        self._dispatch(batch)

    def _flush_shard(self, shard_id: int) -> None:
        """Dispatch one shard's buffered tasks (caller holds the lock)."""
        buffer = self._buffers.pop(shard_id, None)
        if buffer:
            self._dispatch_tasks(shard_id, buffer)

    def _flush_buffers(self) -> None:
        """Dispatch every buffered task (caller holds the lock)."""
        for shard_id in sorted(self._buffers):
            self._flush_shard(shard_id)

    def collect(self, request_id: int) -> list[TaskResult]:
        """Block until ``request_id`` completes; results in request order.

        Completions for *other* in-flight requests received while
        waiting are banked for their own ``collect`` calls, so requests
        may be collected in any order -- including by different threads:
        whichever collector holds the pump lock delivers everyone's
        messages, and each waiter re-checks its own request between pump
        slices.
        """
        with self._lock:
            pending = self._pending.get(request_id)
            if pending is not None:
                # Nothing may sit out a coalescing threshold once a
                # collector is waiting on it (or on anything after it).
                self._flush_buffers()
        if pending is None:
            raise ServiceError(f"unknown or discarded request id {request_id}")
        deadline = time.monotonic() + self.task_timeout
        delivered = -1
        while not pending.done:
            with self._lock:
                if pending.done:
                    break
                if len(pending.results) != delivered:
                    # Another thread's pump made progress on *this*
                    # request; that is liveness too, so refresh our
                    # patience exactly as _pump does for its caller.
                    delivered = len(pending.results)
                    deadline = max(deadline, time.monotonic() + self.task_timeout)
                deadline = self._pump(deadline)
        with self._lock:
            self._pending.pop(request_id, None)
        if pending.error is not None:
            if pending.retry_after_ms is not None:
                raise ServiceOverloadError(
                    pending.error, retry_after_ms=pending.retry_after_ms
                )
            raise ServiceError(pending.error)
        return [pending.results[task.task_id] for task in pending.tasks]

    def discard(self, request_id: int) -> None:
        """Drop an in-flight request (a pruned speculation).

        Work already dispatched is not recalled -- shards will finish
        and their results are dropped on receipt; the warm cache
        entries they produced remain, so speculation is never wasted
        twice.
        """
        with self._lock:
            pending = self._pending.pop(request_id, None)
            if pending is None:
                return
            task_ids = {task.task_id for task in pending.tasks}
            for task_id in task_ids:
                self._task_requests.pop(task_id, None)
            # Buffered (not yet dispatched) tasks are simply dropped.
            for shard_id, buffer in list(self._buffers.items()):
                kept = [task for task in buffer if task.task_id not in task_ids]
                if kept:
                    self._buffers[shard_id] = kept
                else:
                    del self._buffers[shard_id]
            self._forget_request_batches(pending)

    def _forget_request_batches(self, pending: _PendingRequest) -> None:
        """Drop a dead/failed request from its in-flight batches.

        A batch whose member requests are all gone keeps computing on
        its shard -- work is never recalled -- but its completion will
        find no bookkeeping and be dropped on receipt.  Caller holds
        the lock.
        """
        for batch_id in pending.batch_ids:
            members = self._batch_requests.get(batch_id)
            if members is None:
                continue
            members.discard(pending.request_id)
            if not members:
                self._batch_requests.pop(batch_id, None)
                self._inflight_batches.pop(batch_id, None)
                self._dispatch_times.pop(batch_id, None)
                self._retried_batch_ids.discard(batch_id)
        pending.batch_ids.clear()

    # ------------------------------------------------------------------ #
    # Synchronous evaluation API (PR 3 surface, unchanged semantics)
    # ------------------------------------------------------------------ #
    @property
    def in_process(self) -> bool:
        """Whether evaluation runs in this process (an in-process transport).

        Then :meth:`evaluate` and :meth:`gammas` answer directly from the
        transport's kernels, and a caller gains nothing by answering any
        check from a kernel of its own: the secure-view solver sends
        every Gamma of a solve to such a service.
        """
        return self._local is not None

    def evaluate(
        self, requests: Iterable[GammaRequest], *, want: str = WANT_GAMMA
    ) -> list[TaskResult]:
        """Evaluate every request, preserving request order in the result.

        Every other transport runs one ``submit`` +
        ``collect``.  In process, each request is read straight from the
        transport's kernel (:meth:`InProcessTransport.entries
        <repro.service.transport.InProcessTransport.entries>`) under the
        coordinator lock, through the per-task code a batch runs, so the
        results are identical.
        """
        if self._local is None:
            return self.collect(self.submit(requests, want=want))
        check_want(want)
        with self._lock:
            requests = self._direct(requests)
            return [
                task_result(next(self._task_ids), structure.signature, want, entry)
                for (structure, _, _), entry in zip(
                    requests, self._local.entries(requests)
                )
            ]

    def gammas(self, requests: Iterable[GammaRequest]) -> list[int]:
        """Just the Gamma of every request, in request order.

        In process this reads each Gamma from its kernel entry and builds
        no :class:`TaskResult`.
        """
        if self._local is None:
            return [result.gamma for result in self.evaluate(requests)]
        with self._lock:
            requests = self._direct(requests)
            return [entry[2] for entry in self._local.entries(requests)]

    def _direct(self, requests: Iterable[GammaRequest]) -> list[GammaRequest]:
        """``requests`` as a list, counted as one batch of its tasks.

        The bookkeeping of a direct in-process call (caller holds the
        lock), so E9/E10 task and batch counts keep their meaning.  A
        direct call adds no dispatch-latency sample and no shard report.
        """
        if self._closed:
            raise ServiceError("coordinator is closed")
        requests = list(requests)
        if requests:
            self._tasks_dispatched += len(requests)
            self._batches_dispatched += 1
        return requests

    # ------------------------------------------------------------------ #
    # Dispatch and the result pump
    # ------------------------------------------------------------------ #
    def _dispatch(self, batch: GammaBatch) -> None:
        """Ship structures as needed and hand the batch to its shard."""
        shard_id = batch.shard_id
        if self.transport.crashed_shards((shard_id,)):
            self._recover(shard_id, exclude=batch.batch_id)
            self._mark_retried(batch.batch_id)
        self._send(batch)

    def _send(self, batch: GammaBatch) -> None:
        """Submit ``batch`` with the structures its shard was not sent."""
        while True:
            missing = self.transport.unshipped(batch.shard_id, batch.structures)
            shipped = replace(
                batch,
                structures={
                    signature: batch.structures[signature] for signature in missing
                },
            )
            self._dispatch_times[batch.batch_id] = time.monotonic()
            try:
                self.transport.submit(shipped)
                break
            except TransportSendError:
                # The shard died under our hands: recover it and ship
                # again.  A pool may fail the shard over onto an
                # endpoint that turns out to be dead too, so this loops;
                # it terminates because every failed round either
                # reconnects (bounded by the restart budget) or retires
                # an endpoint (finitely many), and recover raises
                # WorkerCrashError once nothing survives.
                self._recover(batch.shard_id, exclude=batch.batch_id)
                self._mark_retried(batch.batch_id)
        self.transport.mark_shipped(batch.shard_id, batch.structures)

    def _mark_retried(self, batch_id: int) -> None:
        if batch_id not in self._retried_batch_ids:
            self._retried_batch_ids.add(batch_id)
            self._retried_batches += 1

    def _pending_batches_of(self, shard_id: int) -> list[GammaBatch]:
        return [
            batch
            for batch in self._inflight_batches.values()
            if batch.shard_id == shard_id
        ]

    def _recover(self, shard_id: int, *, exclude: int | None = None) -> None:
        """Replace a dead shard and re-dispatch its pending batches."""
        self.transport.recover(shard_id)
        for batch in self._pending_batches_of(shard_id):
            if batch.batch_id == exclude:
                continue
            self._mark_retried(batch.batch_id)
            self._send(batch)

    def _pending_shards(self) -> set[int]:
        return {batch.shard_id for batch in self._inflight_batches.values()}

    def _pump(self, deadline: float) -> float:
        """One poll step: deliver a message or handle crash/timeout.

        Returns the (possibly refreshed) collect deadline.
        """
        message = self.transport.poll(0.05)
        if message is None:
            now = time.monotonic()
            crashed = self.transport.crashed_shards(self._pending_shards())
            if crashed:
                for shard_id in crashed:
                    self._recover(shard_id)
                return now + self.task_timeout
            if now > deadline:
                raise ServiceError(
                    f"timed out after {self.task_timeout}s waiting for "
                    f"{len(self._inflight_batches)} pending batch(es)"
                )
            return deadline
        kind = message[0]
        if kind == MSG_OVERLOAD:
            # Admission control shed the batch server-side: bank a typed
            # failure (with the server's retry hint) on every member
            # request, exactly like MSG_ERROR -- it surfaces only when
            # each request is collected.
            _, shard_id, batch_id, retry_after_ms = message
            self._overloads += 1
            member_ids = self._batch_requests.pop(batch_id, None)
            self._inflight_batches.pop(batch_id, None)
            self._dispatch_times.pop(batch_id, None)
            self._retried_batch_ids.discard(batch_id)
            if member_ids is None:
                return deadline
            for request_id in member_ids:
                shed = self._pending.get(request_id)
                if shed is None:
                    continue
                shed.error = (
                    f"shard {shard_id} shed batch {batch_id} under admission "
                    f"control; retry after {retry_after_ms:.0f} ms"
                )
                shed.retry_after_ms = float(retry_after_ms)
                shed.batch_ids.discard(batch_id)
                for task in shed.tasks:
                    self._task_requests.pop(task.task_id, None)
                self._forget_request_batches(shed)
            return deadline
        if kind == MSG_ERROR:
            _, shard_id, batch_id, text = message
            member_ids = self._batch_requests.pop(batch_id, None)
            self._inflight_batches.pop(batch_id, None)
            self._dispatch_times.pop(batch_id, None)
            self._retried_batch_ids.discard(batch_id)
            if member_ids is None:
                # Left over from a request that already failed or was
                # discarded; must not poison this (unrelated) call.
                return deadline
            # Bank the failure on every request the batch carried: it
            # surfaces when (and only when) each is collected, so a
            # failed speculation that the search never consumes is
            # harmless -- exactly like sequential dispatch, which would
            # never have dispatched it.
            for request_id in member_ids:
                failed = self._pending.get(request_id)
                if failed is None:
                    continue
                failed.error = f"shard {shard_id} failed batch {batch_id}:\n{text}"
                failed.batch_ids.discard(batch_id)
                for task in failed.tasks:
                    self._task_requests.pop(task.task_id, None)
                self._forget_request_batches(failed)
            return deadline
        if kind != MSG_BATCH:  # pragma: no cover - unknown message kind
            raise ServiceError(f"unexpected service message {message[0]!r}")
        _, shard_id, batch_id, results, report = message
        received = time.monotonic()
        dispatched = self._dispatch_times.pop(batch_id, None)
        member_ids = self._batch_requests.pop(batch_id, None)
        batch = self._inflight_batches.pop(batch_id, None)
        if member_ids is None or batch is None:
            # Completed by both a dead shard and its replacement, or
            # belonged to a discarded speculation; results are
            # deterministic, so dropping this copy is always safe.
            return deadline
        latency_ms = 0.0 if dispatched is None else (received - dispatched) * 1000.0
        report = replace(
            report,
            retried=batch_id in self._retried_batch_ids,
            dispatch_latency_ms=round(latency_ms, 6),
            coalesced_requests=len(member_ids),
        )
        self._retried_batch_ids.discard(batch_id)
        self._latencies_ms.append(latency_ms)
        if len(self._latencies_ms) > LATENCY_WINDOW:
            del self._latencies_ms[: -LATENCY_WINDOW // 2]
        self._last_reports[shard_id] = report
        for result in results:
            request_id = self._task_requests.pop(result.task_id, None)
            pending = self._pending.get(request_id)
            if pending is None:  # the owning request was discarded
                continue
            pending.results[result.task_id] = result
            pending.outstanding.discard(result.task_id)
        for request_id in member_ids:
            pending = self._pending.get(request_id)
            if pending is not None:
                pending.batch_ids.discard(batch_id)
        # A completion is proof of liveness: the timeout bounds silence,
        # not total request runtime (a many-batch request streaming
        # steady results must never time out mid-stream).
        return received + self.task_timeout

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def shard_reports(self) -> tuple[ShardReport, ...]:
        """The latest report of every shard that has completed a batch."""
        with self._lock:
            return tuple(
                self._last_reports[shard_id]
                for shard_id in sorted(self._last_reports)
            )

    def kernel_stats(self) -> dict[str, int]:
        """Service-wide kernel statistics.

        The in-process transport reads its live registry; remote
        transports merge the latest (cumulative) report of every shard,
        so the numbers lag until each shard has completed a batch.
        """
        with self._lock:
            live = self.transport.live_kernel_stats()
            if live is not None:
                return live
            return merge_kernel_stats(
                report.kernel_stats for report in self._last_reports.values()
            )

    @property
    def preloaded_entries(self) -> int:
        """Cache entries restored from snapshots at (server) start."""
        with self._lock:
            local = self.transport.preloaded_entries
            if local is not None:
                return local
            return sum(
                report.preloaded_entries for report in self._last_reports.values()
            )

    @property
    def worker_restarts(self) -> int:
        """How many times a dead shard was recovered."""
        return self.transport.restarts

    def latency_percentiles(self) -> dict[str, float]:
        """Dispatch-to-result latency percentiles (ms) over recent batches.

        This is where "where does wall-clock go" comes from in E10 and
        ``bench_service``: transport time is the gap between these and
        pure kernel time.  Empty until a batch completes; direct
        in-process calls (:attr:`in_process`) add no samples.
        """
        if not self._latencies_ms:
            return {}
        ordered = sorted(self._latencies_ms)

        def at(fraction: float) -> float:
            index = min(len(ordered) - 1, int(fraction * len(ordered)))
            return round(ordered[index], 3)

        return {
            "p50_ms": at(0.50),
            "p90_ms": at(0.90),
            "p99_ms": at(0.99),
            "max_ms": round(ordered[-1], 3),
        }

    def service_stats(self) -> dict[str, object]:
        """Coordinator-side dispatch counters (for experiment tables).

        A direct in-process call counts as one batch of its tasks.  The
        latency percentiles read 0.0 while no batch has completed, which
        is always the case for a coordinator that only made direct calls.
        """
        stats: dict[str, object] = {
            "transport": self.transport.name,
            "workers": self.workers,
            "tasks": self._tasks_dispatched,
            "batches": self._batches_dispatched,
            "retried_batches": self._retried_batches,
            "coalesce": self.coalesce,
            "coalesced_batches": self._coalesced_batches,
            "coalesced_requests": self._coalesced_requests,
            "worker_restarts": self.worker_restarts,
            "preloaded_entries": self.preloaded_entries,
            "overloads": self._overloads,
            **dict.fromkeys(LATENCY_KEYS, 0.0),
            **self.latency_percentiles(),
        }
        # Group-construction attribution (sort-free kernel satellite):
        # how much shard wall time went into partition building vs fused
        # counting passes, so E9 can split the two.
        kernel = self.kernel_stats()
        for key in ("entry_fused_passes", "partition_build_ms"):
            if key in kernel:
                stats[key] = kernel[key]
        with self._membership_lock:
            if self._membership_epoch or self._endpoint_losses:
                stats["membership_epoch"] = self._membership_epoch
                stats["endpoint_losses"] = self._endpoint_losses
                stats["endpoint_readmissions"] = self._endpoint_readmissions
                stats["shards_rebalanced"] = self._shards_rebalanced
        for gauge in ("failovers", "readmissions", "handoffs"):
            value = getattr(self.transport, gauge, None)
            if value is not None:
                stats[gauge] = value
        return stats

    # ------------------------------------------------------------------ #
    # Fault injection and shutdown
    # ------------------------------------------------------------------ #
    def inject_crash(self, shard_id: int) -> None:
        """Make one shard die abruptly (crash-recovery test/ops hook)."""
        self.transport.inject_crash(shard_id)

    def close(self, *, snapshot: bool = True) -> None:
        """Shut the service down, snapshotting warm kernels by default.

        Pass ``snapshot=False`` to stop without persisting (used when a
        caller wants a genuinely cold next start).
        """
        if self._closed:
            return
        self._closed = True
        self.transport.close(snapshot=snapshot)

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator({self.transport.name}, shards="
            f"{self.transport.shard_count}, tasks={self._tasks_dispatched}, "
            f"restarts={self.worker_restarts})"
        )
