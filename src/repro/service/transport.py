"""Transports of the Gamma evaluation service: how batches reach kernels.

This module separates the *policy* layer (routing, retry, structure
shipping, result correlation -- :mod:`repro.service.coordinator`) from
the *mechanics* of moving a :class:`~repro.service.protocol.GammaBatch`
to a warm kernel and a result back.  A :class:`Transport` owns shard
lifecycle and crash signaling; the coordinator drives any of them
through the same six verbs (``unshipped`` / ``submit`` / ``poll`` /
``crashed_shards`` / ``recover`` / ``close``):

* :class:`InProcessTransport` -- no processes, no queues: ``submit``
  evaluates the batch synchronously against a local registry and queues
  the completion message, and :meth:`~InProcessTransport.entries` reads
  requests straight from that registry with no batch at all (the
  coordinator's synchronous calls).  This is the ``workers=0`` fallback
  and the oracle every other transport is property-tested
  byte-identical against.
* :class:`SocketTransport` -- length-prefixed frames of plain data
  (:mod:`repro.service.protocol`) over a unix-domain or TCP
  socket to a standalone :mod:`repro.service.server` process, so
  several client processes -- or machines -- share one warm
  multi-tenant kernel service.  A broken connection is how a shard
  fails: ``crashed_shards`` reports it, ``recover`` reconnects (bounded
  by ``max_restarts``), and the coordinator re-ships and re-dispatches
  the affected batches.
* :class:`~repro.service.pool.PooledTransport` (in
  :mod:`repro.service.pool`) -- HyProv-style federation: several
  :class:`SocketTransport` connections to independent servers, one
  logical shard each, with per-endpoint reconnect and failover
  re-routing of shards whose endpoint is lost for good.
* :class:`~repro.service.forked.ForkedServerPool` (in
  :mod:`repro.service.forked`) -- ``workers=N``: a pool over N forked
  servers it owns, re-forked on crash.

Transports never interpret results; correlation by ``batch_id`` /
``request_id``, ordering and retry accounting stay in the coordinator,
which is what keeps the implementations interchangeable.
"""

from __future__ import annotations

import abc
import contextlib
import random
import socket
import ssl
import time
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import ServiceAuthError, ServiceError, WorkerCrashError
from repro.privacy.kernel_registry import (
    GammaKernelRegistry,
    RelationStructure,
    SharedGammaKernel,
)
from repro.service.persistence import KernelSnapshotStore
from repro.service.protocol import (
    MSG_BATCH,
    MSG_EXPORT,
    MSG_EXPORTED,
    MSG_IMPORT,
    MSG_IMPORTED,
    MSG_PING,
    MSG_PONG,
    MSG_STATS,
    GammaBatch,
    ShardReport,
    TaskResult,
    decode_frame_from_buffer,
    read_frame,
    write_frame,
)
from repro.service.security import (
    build_client_ssl_context,
    expect_auth_reply,
    send_token,
)
from repro.service.worker import kernel_entries, process_batch

#: The one connect/probe timeout default for the whole socket layer.
#: ``connect()``, :func:`probe_endpoint`, :class:`SocketTransport` and
#: :class:`~repro.service.pool.PooledTransport` all start from this
#: value (callers still override per call); the pool's health prober
#: additionally clamps its probe timeout to the probe interval so a
#: slow endpoint can never make probing fall behind its own schedule.
DEFAULT_CONNECT_TIMEOUT = 5.0


class ExponentialBackoff:
    """Jittered exponential backoff schedule for reconnect/probe retries.

    ``next()`` returns the delay to sleep before the *next* attempt:
    ``base * factor**attempt`` capped at ``max_delay``, with a uniform
    ``+/- jitter`` fraction applied so a federation of probers does not
    thunder in lockstep.  The attempt counter persists across calls
    (``reset()`` rewinds it after a success); ``peek_schedule`` exposes
    the un-jittered upcoming delays for reprs and logs.
    """

    def __init__(
        self,
        *,
        base: float = 0.05,
        factor: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.25,
        rng: random.Random | None = None,
    ) -> None:
        if base <= 0 or factor < 1.0 or max_delay < base or not 0 <= jitter < 1:
            raise ServiceError(
                f"invalid backoff schedule (base={base}, factor={factor}, "
                f"max_delay={max_delay}, jitter={jitter})"
            )
        self.base = float(base)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.attempt = 0
        self._rng = rng if rng is not None else random.Random()

    def _raw_delay(self, attempt: int) -> float:
        return min(self.base * self.factor**attempt, self.max_delay)

    def next(self) -> float:
        """The jittered delay before the next attempt (advances the counter)."""
        delay = self._raw_delay(self.attempt)
        self.attempt += 1
        spread = self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay * (1.0 + spread)

    def peek_schedule(self, count: int = 3) -> tuple[float, ...]:
        """The next ``count`` un-jittered delays (debugging/repr aid)."""
        return tuple(
            round(self._raw_delay(self.attempt + offset), 4)
            for offset in range(count)
        )

    def reset(self) -> None:
        self.attempt = 0

    def __repr__(self) -> str:
        upcoming = ", ".join(f"{delay:g}s" for delay in self.peek_schedule())
        return (
            f"ExponentialBackoff(attempt={self.attempt}, next=[{upcoming}], "
            f"jitter=±{self.jitter:g})"
        )


def probe_endpoint(
    address: str | tuple,
    *,
    timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ssl_context: ssl.SSLContext | None = None,
    auth_token: str | None = None,
) -> bool:
    """Whether a Gamma server at ``address`` is up and speaking protocol.

    A TCP/unix connect alone would accept half-open listeners, so the
    probe sends a ``("ping",)`` frame and requires a ``("pong", ...)``
    answer -- the lightweight liveness check the pool's health prober
    uses before re-admitting a lost endpoint.  ``ssl_context`` and
    ``auth_token`` carry the probe through the same TLS wrap and token
    handshake as a real connection, so a server that requires auth still
    probes healthy for holders of a valid token (and unhealthy for
    everyone else -- an auth-rejecting endpoint is not serving *you*).
    """
    try:
        sock = connect(
            address,
            timeout=timeout,
            ssl_context=ssl_context,
            auth_token=auth_token,
        )
    except ServiceError:
        return False
    try:
        sock.settimeout(timeout)
        write_frame(sock, (MSG_PING,))
        reply = read_frame(sock)
        return bool(reply) and reply[0] == MSG_PONG
    except (ServiceError, OSError):
        return False
    finally:
        with contextlib.suppress(OSError):
            sock.close()


class TransportSendError(ServiceError):
    """A batch could not be handed to its shard (connection/queue died).

    The coordinator treats this like a crash observed at dispatch time:
    it recovers the shard and re-dispatches, rather than failing the
    request.
    """


class Transport(abc.ABC):
    """How batches reach warm kernels and results come back.

    One *shard* is one failure/warmth domain: a server connection (to
    a standalone or a forked server), or the in-process registry.  The
    coordinator routes tasks to shards by structure signature, ships
    each structure at most once per shard lifetime (``unshipped`` tracks
    that; a recovered shard forgets), and interprets the messages
    ``poll`` yields.
    """

    #: Human-readable transport name (experiment tables, repr).
    name: str = "abstract"

    @property
    @abc.abstractmethod
    def shard_count(self) -> int:
        """How many shards tasks can be routed to (>= 1)."""

    @abc.abstractmethod
    def unshipped(self, shard_id: int, signatures: Iterable[str]) -> set[str]:
        """The subset of ``signatures`` this shard has not been sent."""

    @abc.abstractmethod
    def mark_shipped(self, shard_id: int, signatures: Iterable[str]) -> None:
        """Record structures as shipped (until the shard is recovered)."""

    @abc.abstractmethod
    def submit(self, batch: GammaBatch) -> None:
        """Hand one batch to its shard.  Raises TransportSendError."""

    @abc.abstractmethod
    def poll(self, timeout: float) -> tuple | None:
        """The next message from any shard, or ``None`` within ``timeout``."""

    @abc.abstractmethod
    def crashed_shards(self, shard_ids: Iterable[int]) -> tuple[int, ...]:
        """Which of ``shard_ids`` are dead and need :meth:`recover`."""

    @abc.abstractmethod
    def recover(self, shard_id: int) -> None:
        """Replace a dead shard (respawn/reconnect), starting it warm.

        Raises :class:`WorkerCrashError` past the transport's restart
        budget instead of looping forever.
        """

    @property
    def restarts(self) -> int:
        """How many shard recoveries happened over this transport's life."""
        return 0

    @property
    def preloaded_entries(self) -> int | None:
        """Snapshot entries preloaded locally (in-process transport only);
        ``None`` for remote transports, whose gauge the coordinator reads
        from shard reports instead."""
        return None

    def live_kernel_stats(self) -> dict[str, int] | None:
        """Authoritative kernel stats, for transports with local state."""
        return None

    def inject_crash(self, shard_id: int) -> None:
        """Make one shard die abruptly (crash-recovery test/ops hook)."""
        raise ServiceError(f"{self.name} transport has no workers to crash")

    @abc.abstractmethod
    def close(self, *, snapshot: bool = True) -> None:
        """Shut the transport down (snapshotting warm kernels by default)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.shard_count})"


# ---------------------------------------------------------------------- #
# In-process: the workers=0 oracle
# ---------------------------------------------------------------------- #
class InProcessTransport(Transport):
    """Synchronous evaluation against a local registry (no processes).

    ``submit`` runs :func:`~repro.service.worker.process_batch` --
    literally the code every server runs per batch -- and queues the
    completion message for ``poll``, so the coordinator's
    ``submit``/``collect`` drive the in-process and sharded paths through
    one code path.  The coordinator's synchronous ``evaluate``/``gammas``
    skip the batch: :meth:`entries` reads each request from its kernel
    through the same per-task loop
    (:func:`~repro.service.worker.kernel_entries`), so the results are
    byte-identical by construction either way.  The socket server owns
    one of these as its registry and calls :meth:`evaluate` per batch.
    """

    name = "inprocess"

    def __init__(
        self,
        *,
        budget_bytes: int | None = None,
        total_budget_bytes: int | None = None,
        snapshot_dir: str | None = None,
    ) -> None:
        self.registry = GammaKernelRegistry(
            budget_bytes=budget_bytes, total_budget_bytes=total_budget_bytes
        )
        self.store: KernelSnapshotStore | None = None
        self._preloaded = 0
        if snapshot_dir is not None:
            self.store = KernelSnapshotStore(snapshot_dir)
            self._preloaded = self.store.warm_registry(self.registry)
            self.store.arm(self.registry)
        self._kernels: dict[str, SharedGammaKernel] = {
            kernel.structure.signature: kernel for kernel in self.registry.kernels
        }
        #: Registry stats as of the last change through this transport:
        #: built once per batch, shipped in its report and copied out by
        #: :meth:`live_kernel_stats` without being rebuilt.  ``None``
        #: after :meth:`entries` ran: rebuilt on the next read instead.
        self._stats: dict[str, int] | None = self._registry_stats()
        self._ready: deque[tuple] = deque()
        self._closed = False

    @property
    def shard_count(self) -> int:
        return 1

    def unshipped(self, shard_id: int, signatures: Iterable[str]) -> set[str]:
        return {
            signature for signature in signatures if signature not in self._kernels
        }

    def mark_shipped(self, shard_id: int, signatures: Iterable[str]) -> None:
        pass  # process_batch registers the kernels; nothing to track

    @property
    def kernels(self) -> Mapping[str, SharedGammaKernel]:
        """The registry's kernels by structure signature.

        Entries are only ever added, so a lock-free ``get`` from another
        thread sees either the kernel or its absence, never a torn one.
        """
        return self._kernels

    def adopt(self, structures: Mapping[str, RelationStructure]) -> None:
        """Register shipped structures as (lazy) kernels, evaluating nothing."""
        for signature, structure in structures.items():
            if signature not in self._kernels:
                self._kernels[signature] = self.registry.ensure_kernel(structure)
        self._stats = self._registry_stats()

    def entries(
        self, requests: Sequence[tuple[RelationStructure, Sequence[int], Sequence[int]]]
    ) -> Iterator[tuple]:
        """``(partition, counts, gamma)`` of every ``(structure,
        visible_inputs, visible_outputs)`` request, in request order.

        The direct path of the coordinator's synchronous calls: no task
        or batch ids, no report, no queued message.  Unseen structures
        go through :meth:`adopt` first.  The registry is not
        thread-safe, so the caller serializes calls and consumes the
        iterator before the next one.
        """
        kernels = self._kernels
        keys = []
        unseen: dict[str, RelationStructure] = {}
        for structure, visible_inputs, visible_outputs in requests:
            signature = structure.signature
            if signature not in kernels:
                unseen[signature] = structure
            keys.append((signature, tuple(visible_inputs), tuple(visible_outputs)))
        if unseen:
            self.adopt(unseen)
        self._stats = None
        return kernel_entries(kernels, keys)

    def _registry_stats(self) -> dict[str, int]:
        return {
            **self.registry.kernel_stats,
            **self.registry.aggregate_counters(),
        }

    def evaluate(
        self, batch: GammaBatch
    ) -> tuple[tuple[TaskResult, ...], ShardReport]:
        """Evaluate one batch: ``(results, report)``.

        Each result keeps its task's id and answers its task's own
        ``want``.  :meth:`submit` queues the pair as a completion
        message; the socket server calls this directly on every batch
        it dispatches, after :meth:`adopt` took in the batch's
        structures.
        """
        try:
            results = process_batch(batch, self._kernels, self.registry)
        finally:
            # Even a failed batch may have warmed kernels.
            self._stats = self._registry_stats()
        report = ShardReport(
            shard_id=batch.shard_id,
            batch_id=batch.batch_id,
            completed=len(results),
            kernel_stats=self._stats,
            preloaded_entries=self._preloaded,
        )
        return results, report

    def submit(self, batch: GammaBatch) -> None:
        results, report = self.evaluate(batch)
        self._ready.append((MSG_BATCH, batch.shard_id, batch.batch_id, results, report))

    def poll(self, timeout: float) -> tuple | None:
        return self._ready.popleft() if self._ready else None

    def crashed_shards(self, shard_ids: Iterable[int]) -> tuple[int, ...]:
        return ()

    def recover(self, shard_id: int) -> None:  # pragma: no cover - unreachable
        raise ServiceError("in-process transport has no shard to recover")

    @property
    def preloaded_entries(self) -> int:
        return self._preloaded

    def live_kernel_stats(self) -> dict[str, int]:
        if self._stats is None:
            self._stats = self._registry_stats()
        return dict(self._stats)

    def export_kernel_entries(
        self, signatures: Iterable[str]
    ) -> dict[str, tuple]:
        """Warm-handoff export: ``{signature: (structure, entries)}``.

        Live kernels are exported directly; signatures already evicted
        from memory fall back to the snapshot store (when configured),
        so a migrating shard carries its full warm state.
        """
        payload: dict[str, tuple] = {}
        missing: list[str] = []
        for signature in signatures:
            kernel = self._kernels.get(signature)
            if kernel is not None:
                payload[signature] = (kernel.structure, kernel.export_entries())
            else:
                missing.append(signature)
        if missing and self.store is not None:
            payload.update(self.store.export_signatures(missing))
        return payload

    def import_kernel_entries(self, payload: Mapping[str, tuple]) -> int:
        """Warm-handoff import; returns how many cache entries landed.

        Imported entries are also written through to the snapshot store
        (when configured), so the receiving endpoint's *next* restart
        starts warm too.
        """
        imported = 0
        for signature, (structure, entries) in payload.items():
            kernel = self.registry.ensure_kernel(structure)
            self._kernels[signature] = kernel
            imported += kernel.import_entries(entries)
        self._stats = self._registry_stats()
        if self.store is not None:
            self.store.import_signatures(payload)
        return imported

    def close(self, *, snapshot: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        if snapshot and self.store is not None:
            self.store.snapshot_registry(self.registry)


# ---------------------------------------------------------------------- #
# Socket: frames to a standalone server (unix domain or TCP)
# ---------------------------------------------------------------------- #
def parse_address(address: str | tuple) -> tuple:
    """Normalize a service address.

    Accepted forms: ``"unix:/path.sock"`` or a plain ``"/path.sock"``
    (unix domain), ``"tcp:host:port"`` or ``"host:port"`` (plaintext
    TCP), ``"tls://host:port"`` or ``"tls:host:port"`` (TLS over TCP),
    and the already-parsed tuples ``("unix", path)`` / ``("tcp", host,
    port)`` / ``("tls", host, port)``.
    """
    if isinstance(address, tuple):
        if address and address[0] in ("unix", "tcp", "tls"):
            return address
        raise ServiceError(f"unrecognized service address {address!r}")
    if address.startswith("unix:"):
        return ("unix", address[len("unix:") :])
    if address.startswith("/"):
        return ("unix", address)
    scheme = "tcp"
    rest = address
    for prefix in ("tls://", "tls:", "tcp://", "tcp:"):
        if address.startswith(prefix):
            scheme = prefix[:3]
            rest = address[len(prefix) :]
            break
    host, separator, port = rest.rpartition(":")
    if not separator or not port.isdigit():
        raise ServiceError(
            f"unrecognized service address {address!r} "
            "(want unix:/path, /path, tcp:host:port, host:port or tls://host:port)"
        )
    return (scheme, host or "127.0.0.1", int(port))


def connect(
    address: str | tuple,
    *,
    timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ssl_context: ssl.SSLContext | None = None,
    auth_token: str | None = None,
) -> socket.socket:
    """A connected (and, for ``tls://``, wrapped and authenticated)
    socket to a Gamma server at ``address``.

    ``tls://`` addresses are wrapped in ``ssl_context`` (a default
    verifying context when none is given, so an unpinned self-signed
    server fails closed rather than silently trusting anyone).  When
    ``auth_token`` is set the raw token preamble is sent -- after the
    TLS handshake, so tokens never travel plaintext on TLS endpoints --
    and the server's 4-byte accept is required before the socket is
    returned.  TLS and token failures raise
    :class:`~repro.errors.ServiceAuthError`; there is no fallback to an
    unauthenticated connection.
    """
    parsed = parse_address(address)
    if parsed[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        target: str | tuple = parsed[1]
    else:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        target = (parsed[1], parsed[2])
    sock.settimeout(timeout)
    try:
        sock.connect(target)
    except OSError as exc:
        sock.close()
        raise ServiceError(f"cannot connect to Gamma server at {parsed}: {exc}") from exc
    if parsed[0] == "tls":
        context = ssl_context if ssl_context is not None else build_client_ssl_context()
        try:
            sock = context.wrap_socket(
                sock,
                server_hostname=parsed[1] if context.check_hostname else None,
            )
        except ssl.SSLCertVerificationError as exc:
            sock.close()
            raise ServiceAuthError(
                f"certificate verification against Gamma server at {parsed} "
                f"failed: {exc}"
            ) from exc
        except ssl.SSLError as exc:
            # Not a credential verdict (a bouncing server resets mid
            # handshake the same way) -- plain ServiceError keeps it
            # retryable through recover()'s backoff schedule.
            sock.close()
            raise ServiceError(
                f"TLS handshake with Gamma server at {parsed} failed: {exc}"
            ) from exc
        except OSError as exc:
            sock.close()
            raise ServiceError(
                f"connection to Gamma server at {parsed} lost during TLS "
                f"handshake: {exc}"
            ) from exc
    if auth_token is not None:
        try:
            send_token(sock, auth_token)
            expect_auth_reply(sock)
        except ServiceAuthError:
            with contextlib.suppress(OSError):
                sock.close()
            raise
        except OSError as exc:
            with contextlib.suppress(OSError):
                sock.close()
            raise ServiceAuthError(
                f"connection to Gamma server at {parsed} lost during the "
                f"token handshake: {exc}"
            ) from exc
    return sock


class SocketTransport(Transport):
    """Frames over one connection to a :mod:`repro.service.server`.

    The server is a single logical shard from the client's view (it
    shards internally however it likes); warmth lives server-side, so
    any number of client processes share one multi-tenant kernel
    service.  Structure shipping is tracked per *connection*: a
    reconnect (after a dropped connection or server restart) clears the
    shipped set and the coordinator re-ships.  The server keeps every
    structure a connection shipped in its kernel registry, so there is
    no other re-ship.

    ``tls://`` addresses are wrapped in ``ssl_context`` and
    ``auth_token`` runs the raw token preamble, both at connect *and* at
    every :meth:`recover` reconnect -- a recovered connection is
    re-authenticated from scratch, never resumed.
    """

    name = "socket"

    def __init__(
        self,
        address: str | tuple,
        *,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
        max_restarts: int = 3,
        backoff: ExponentialBackoff | None = None,
        ssl_context: ssl.SSLContext | None = None,
        auth_token: str | None = None,
    ) -> None:
        self.address = parse_address(address)
        #: Jittered reconnect schedule consumed by :meth:`recover`.
        self.backoff = backoff if backoff is not None else ExponentialBackoff()
        self.connect_timeout = float(connect_timeout)
        self.max_restarts = int(max_restarts)
        self.ssl_context = ssl_context
        self.auth_token = auth_token
        self._restarts = 0
        self._shipped: set[str] = set()
        self._pending: deque[tuple] = deque()
        #: Bytes received but not yet forming a complete frame.  A recv
        #: timeout can land mid-frame; the partial bytes must survive to
        #: the next poll or the stream desyncs and a healthy connection
        #: gets torn down as "crashed".
        self._rxbuf = bytearray()
        self._dead = False
        self._closed = False
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        """A freshly connected, TLS-wrapped, authenticated socket."""
        return connect(
            self.address,
            timeout=self.connect_timeout,
            ssl_context=self.ssl_context,
            auth_token=self.auth_token,
        )

    @property
    def shard_count(self) -> int:
        return 1

    @property
    def identity(self) -> str:
        """Stable name of the endpoint this connection targets."""
        if self.address[0] == "unix":
            return f"unix:{self.address[1]}"
        return f"{self.address[0]}:{self.address[1]}:{self.address[2]}"

    @property
    def shipped(self) -> frozenset[str]:
        """Signatures shipped over the current connection (handoff source)."""
        return frozenset(self._shipped)

    def unshipped(self, shard_id: int, signatures: Iterable[str]) -> set[str]:
        return {
            signature
            for signature in signatures
            if signature not in self._shipped
        }

    def mark_shipped(self, shard_id: int, signatures: Iterable[str]) -> None:
        self._shipped.update(signatures)

    def submit(self, batch: GammaBatch) -> None:
        if self._dead:
            raise TransportSendError("connection to Gamma server is down")
        # Drain replies already queued in the kernel buffers first: a
        # pipelining client that only writes while the server is
        # blocked writing replies back would deadlock both directions
        # once the buffers fill; keeping the read side empty breaks the
        # cycle.
        self._drain_ready()
        try:
            self._sock.settimeout(self.connect_timeout)
            write_frame(self._sock, (MSG_BATCH, batch))
        except (OSError, ValueError) as exc:
            self._dead = True
            raise TransportSendError(
                f"lost connection to Gamma server at {self.address}: {exc}"
            ) from exc

    def _decode_buffered(self) -> tuple | None:
        """One frame from the receive buffer; marks the stream dead on a
        frame that does not decode to a message (the only unrecoverable
        framing state), so the coordinator recovers the connection."""
        try:
            return decode_frame_from_buffer(self._rxbuf)
        except ServiceError:
            self._dead = True
            return None

    def _drain_ready(self) -> None:
        """Bank every already-received frame without blocking."""
        while not self._dead:
            message = self._decode_buffered()
            if message is not None:
                self._pending.append(message)
                continue
            try:
                self._sock.settimeout(0.0)  # non-blocking probe
                chunk = self._sock.recv(1 << 16)
            # SSLWantRead/WriteError subclass OSError via SSLError, so a
            # TLS record that has not fully arrived must be recognised
            # as "no data yet" *before* the OSError arm below -- or every
            # partial record would tear the connection down as crashed.
            except (
                BlockingIOError,
                TimeoutError,
                socket.timeout,
                ssl.SSLWantReadError,
                ssl.SSLWantWriteError,
            ):
                return
            except OSError:
                self._dead = True
                return
            if not chunk:
                self._dead = True
                return
            self._rxbuf += chunk

    def _read_message(self, timeout: float) -> tuple | None:
        """One complete frame within ``timeout``, buffering partial reads."""
        message = self._decode_buffered()
        if message is not None or self._dead:
            return message
        deadline = time.monotonic() + max(timeout, 0.001)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            try:
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(1 << 16)
            except (TimeoutError, socket.timeout):
                return None
            except OSError:
                self._dead = True
                return None
            if not chunk:  # orderly EOF: server went away
                self._dead = True
                return None
            self._rxbuf += chunk
            message = self._decode_buffered()
            if message is not None or self._dead:
                return message

    def poll(self, timeout: float) -> tuple | None:
        if self._pending:
            return self._pending.popleft()
        if self._dead:
            return None
        return self._read_message(timeout)

    def buffered_message(self) -> tuple | None:
        """One already-received frame without touching the wire.

        The connection pool uses this to drain each endpoint's banked
        frames before blocking in ``select`` across all of them.  On a
        TLS connection "already received" includes plaintext sitting in
        the SSL layer's record buffer: those bytes are off the wire but
        invisible to ``select`` on the file descriptor, so they are
        drained here or the pool would block on a socket that already
        holds a complete reply.
        """
        if self._pending:
            return self._pending.popleft()
        if self._dead:
            return None
        message = self._decode_buffered()
        if message is not None:
            return message
        if (
            not self._dead
            and isinstance(self._sock, ssl.SSLSocket)
            and self._sock.pending() > 0
        ):
            self._drain_ready()
            if self._pending:
                return self._pending.popleft()
        return None

    @property
    def is_dead(self) -> bool:
        """Whether the connection is down and needs :meth:`recover`."""
        return self._dead

    @property
    def raw_socket(self) -> socket.socket:
        """The live socket (pool-side ``select`` multiplexing hook)."""
        return self._sock

    def crashed_shards(self, shard_ids: Iterable[int]) -> tuple[int, ...]:
        return tuple(shard_ids) if self._dead else ()

    def recover(self, shard_id: int) -> None:
        """Reconnect, retrying with jittered exponential backoff.

        Each attempt consumes one unit of the ``max_restarts`` budget;
        the first retry is immediate (the common bounced-server case)
        and later ones sleep ``self.backoff``'s schedule, so a flapping
        server is not hammered.  Raises :class:`WorkerCrashError` once
        the budget is spent.  A reconnect re-runs TLS and the token
        handshake from scratch; an *auth* rejection is raised
        immediately rather than retried -- a revoked token will not
        heal, and burning the reconnect budget on it would masquerade a
        credential problem as a flaky network.
        """
        attempted = False
        while True:
            if self._restarts >= self.max_restarts:
                raise WorkerCrashError(
                    f"connection to {self.address} dropped "
                    f"{self._restarts + 1} times (max_restarts="
                    f"{self.max_restarts}); giving up"
                )
            if attempted:
                time.sleep(self.backoff.next())
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._restarts += 1
            attempted = True
            try:
                self._sock = self._connect()
            except ServiceAuthError:
                self._dead = True
                raise
            except ServiceError:
                self._dead = True
                continue
            self.backoff.reset()
            self._shipped = set()
            self._rxbuf.clear()
            self._dead = False
            return

    @property
    def restarts(self) -> int:
        return self._restarts

    def inject_crash(self, shard_id: int) -> None:
        """Sever the connection abruptly (connection-loss test/ops hook).

        The next ``submit``/``poll`` observes the dead socket, flags the
        shard crashed, and the coordinator reconnects through
        :meth:`recover` -- the same path a dropped network or a bounced
        server exercises.
        """
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._sock.close()

    def _request_reply(
        self, request: tuple, reply_kind: str, timeout: float
    ) -> tuple:
        """Send ``request`` and wait for the first ``reply_kind`` message.

        Batch completions (or any other message) arriving while waiting
        are buffered for the next :meth:`poll`, so a synchronous probe
        never loses results.
        """
        if self._dead:
            raise ServiceError("connection to Gamma server is down")
        try:
            # The caller's budget caps the write too: a hung endpoint
            # must not stretch a budgeted probe to connect_timeout.
            self._sock.settimeout(max(min(self.connect_timeout, timeout), 0.001))
            write_frame(self._sock, request)
        except (OSError, ValueError) as exc:
            self._dead = True
            raise ServiceError(
                f"lost connection to Gamma server at {self.address}: {exc}"
            ) from exc
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and not self._dead:
            message = self._read_message(deadline - time.monotonic())
            if message is None:
                continue
            if message[0] == reply_kind:
                return message
            self._pending.append(message)
        raise ServiceError(
            f"Gamma server did not answer the {request[0]!r} request"
        )

    def fetch_stats(self, timeout: float = 10.0) -> dict[str, int]:
        """The server's service-wide kernel stats, fetched synchronously."""
        reply = self._request_reply((MSG_STATS,), MSG_STATS, timeout)
        return dict(reply[1])

    def ping(self, timeout: float = 1.0) -> bool:
        """Round-trip liveness check over the live connection."""
        try:
            self._request_reply((MSG_PING,), MSG_PONG, timeout)
        except ServiceError:
            return False
        return True

    def export_kernel_entries(
        self, signatures: Iterable[str], timeout: float = 30.0
    ) -> dict[str, tuple]:
        """Ask the server for the named kernels (warm-handoff source)."""
        reply = self._request_reply(
            (MSG_EXPORT, tuple(signatures)), MSG_EXPORTED, timeout
        )
        return dict(reply[1])

    def import_kernel_entries(
        self, payload: Mapping[str, tuple], timeout: float = 30.0
    ) -> int:
        """Ship exported kernels to the server (warm-handoff target)."""
        reply = self._request_reply(
            (MSG_IMPORT, dict(payload)), MSG_IMPORTED, timeout
        )
        self._shipped.update(payload)
        return int(reply[1])

    def __repr__(self) -> str:
        schedule = ", ".join(
            f"{delay:g}s" for delay in self.backoff.peek_schedule()
        )
        return (
            f"SocketTransport(address={self.identity!r}, "
            f"restarts={self._restarts}/{self.max_restarts}, "
            f"dead={self._dead}, backoff=[{schedule}])"
        )

    def close(self, *, snapshot: bool = True) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass


def build_transport(
    workers: int = 0,
    *,
    address: str | tuple | None = None,
    endpoints: Sequence[str | tuple] | None = None,
    budget_bytes: int | None = None,
    total_budget_bytes: int | None = None,
    snapshot_dir: str | None = None,
    max_restarts: int = 3,
    probe_interval: float | None = None,
    ssl_context: ssl.SSLContext | None = None,
    tls_ca: str | None = None,
    auth_token: str | None = None,
) -> Transport:
    """The transport a coordinator should use for the given settings.

    ``endpoints`` (several server addresses) selects the federated
    connection pool; ``address`` (one server) the single-connection
    socket transport; otherwise ``workers`` picks in-process (0) or a
    pool over that many forked servers (>= 1).

    ``tls_ca`` pins the CA (or the self-signed server certificate
    itself) that ``tls://`` endpoints must present; ``ssl_context``
    overrides it with a fully custom client context.  ``auth_token``
    runs the token handshake on every socket connection (any scheme).
    """
    if endpoints is not None and address is not None:
        raise ServiceError("pass either address= or endpoints=, not both")
    if ssl_context is None and tls_ca is not None:
        ssl_context = build_client_ssl_context(tls_ca)
    if endpoints is not None:
        from repro.service.pool import PooledTransport

        return PooledTransport(
            endpoints,
            max_restarts=max_restarts,
            probe_interval=probe_interval,
            ssl_context=ssl_context,
            auth_token=auth_token,
        )
    if address is not None:
        return SocketTransport(
            address,
            max_restarts=max_restarts,
            ssl_context=ssl_context,
            auth_token=auth_token,
        )
    if workers < 0:
        raise ServiceError(f"worker count must be >= 0, got {workers}")
    if workers == 0:
        return InProcessTransport(
            budget_bytes=budget_bytes,
            total_budget_bytes=total_budget_bytes,
            snapshot_dir=snapshot_dir,
        )
    from repro.service.forked import ForkedServerPool

    return ForkedServerPool(
        workers,
        budget_bytes=budget_bytes,
        total_budget_bytes=total_budget_bytes,
        snapshot_dir=snapshot_dir,
        max_restarts=max_restarts,
    )
