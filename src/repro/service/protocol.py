"""Wire protocol of the sharded Gamma evaluation service.

Davidson et al. decompose workflow-level privacy into per-module Gamma
subproblems, and PR 2's :class:`~repro.privacy.kernel_registry.RelationStructure`
made those subproblems *nameless*: a Gamma evaluation is fully described
by a canonical structure plus a (visible-inputs, visible-outputs) index
pair.  That is exactly what crosses the process boundary here -- never a
:class:`~repro.privacy.relations.ModuleRelation`, never attribute names
or values.

* :func:`shard_of` hash-partitions structures across shards by their
  process-independent :attr:`RelationStructure.signature`, so every
  evaluation of a given structure -- from any client relation, in any
  batch -- lands on the same worker's warm kernel;
* :class:`GammaTask` is one evaluation request; :class:`GammaBatch`
  groups the tasks bound for one shard together with the structures the
  shard has not seen yet (structures are shipped at most once per worker
  lifetime), and carries the ``request_id`` of the client-side logical
  request it belongs to -- the correlation key that lets a pipelining
  client keep several requests in flight and match out-of-order
  completions;
* :class:`TaskResult` carries the exact Gamma (and, when
  ``want="entry"``, the full kernel-entry payload) back;
  :class:`ShardReport` carries the shard's merged ``kernel_stats`` and
  warm-start gauges, is flagged ``retried`` by the coordinator when the
  batch had to be re-dispatched after a shard crash, and
  (coordinator-side) records the dispatch-to-result latency of its
  batch.

Everything here is a plain dataclass over ints, strings and tuples.

**Transport-neutral encoding.**  Every protocol object has a *wire form*
built from nothing but lists, dicts, strings, bytes, ints, floats, bools
and ``None`` (:func:`message_to_wire` / :func:`message_from_wire`).
Frames on a socket are ``4-byte big-endian length || payload``
(:func:`write_frame` / :func:`read_frame`); the payload is the wire form
written by :func:`pickle.dumps` and read back by an unpickler whose
``find_class`` refuses every global (the standard library's "restricting
globals" recipe).  With no global to call, decoding can only build plain
data, so a peer cannot make this endpoint run code.  A payload that does
not unpickle, references a global, or is not a wire form of the right
shape raises :class:`~repro.errors.ServiceError`.
"""

from __future__ import annotations

import functools
import io
import pickle
import socket
import struct
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ServiceError
from repro.privacy.kernel_registry import RelationStructure

#: ``GammaTask.want`` values: return only the Gamma, or the full entry.
WANT_GAMMA = "gamma"
WANT_ENTRY = "entry"

#: Message kinds exchanged between transports/servers and the coordinator.
MSG_BATCH = "batch"
MSG_ERROR = "error"
MSG_STATS = "stats"
MSG_STOP = "stop"
MSG_STOPPED = "stopped"
#: Liveness probe: ``("ping",)`` is answered with ``("pong", 0)`` inline
#: by the server's reader thread, so a health prober can distinguish "the
#: process accepts connections and speaks the protocol" from a half-open
#: TCP endpoint.
MSG_PING = "ping"
MSG_PONG = "pong"
#: Warm-handoff verbs: ``("export", (signature, ...))`` asks an endpoint
#: for the named kernels' structures and cache entries; the reply is
#: ``("exported", {signature: [structure, entries]})``.  ``("import",
#: payload)`` ships that payload to another endpoint, answered with
#: ``("imported", entry_count)``.
MSG_EXPORT = "export"
MSG_EXPORTED = "exported"
MSG_IMPORT = "import"
MSG_IMPORTED = "imported"
#: Admission control: ``("overload", shard_id, batch_id, retry_after_ms)``
#: is the server shedding a batch because the tenant's bounded queue is
#: full *and* its scheduling deficit is exhausted.  Clients surface it as
#: :class:`~repro.errors.ServiceOverloadError` instead of retrying
#: blindly; ``retry_after_ms`` estimates when the tenant's deficit will
#: cover its queued work again.
MSG_OVERLOAD = "overload"


def shard_of(signature: str, shards: int) -> int:
    """The shard owning ``signature`` among ``shards`` workers.

    Uses the leading 64 bits of the structure digest, which is stable
    across processes and machines -- the property that lets a restarted
    worker preload exactly the kernels it will be asked about.
    """
    if shards <= 0:
        raise ServiceError(f"shard count must be positive, got {shards}")
    return int(signature[:16], 16) % shards


def check_want(want: str) -> None:
    """Raise :class:`ServiceError` unless ``want`` is a task payload kind."""
    if want not in (WANT_GAMMA, WANT_ENTRY):
        raise ServiceError(f"unknown task payload kind {want!r}")


@dataclass(frozen=True)
class GammaTask:
    """One Gamma evaluation: a structure signature plus a visibility pair."""

    task_id: int
    signature: str
    visible_inputs: tuple[int, ...]
    visible_outputs: tuple[int, ...]
    want: str = WANT_GAMMA

    def __post_init__(self) -> None:
        check_want(self.want)


@dataclass(frozen=True)
class GammaBatch:
    """The tasks bound for one shard in one round trip.

    ``structures`` maps signature to canonical structure for exactly the
    signatures this shard has not been sent before; the worker registers
    them with its registry shard and resolves every later task by
    signature alone.  ``request_id`` names the client-side logical
    request (a pipelined solver keeps several in flight); the server
    echoes ``batch_id`` back, and the coordinator maps it to the
    request, so completions may arrive in any order.
    """

    batch_id: int
    shard_id: int
    tasks: tuple[GammaTask, ...]
    structures: Mapping[str, RelationStructure] = field(default_factory=dict)
    request_id: int = 0


@dataclass(frozen=True)
class TaskResult:
    """The outcome of one :class:`GammaTask`.

    ``counts`` and ``partition`` are populated only for ``want="entry"``
    tasks, keeping the common (Gamma-only) reply small on the wire.
    """

    task_id: int
    signature: str
    gamma: int
    counts: tuple[int, ...] | None = None
    partition: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ShardReport:
    """One shard's account of one processed batch.

    ``kernel_stats`` is the worker registry's aggregate at the time the
    batch completed (cumulative over the worker's lifetime, so the
    coordinator keeps only the latest report per shard) -- int work
    counters plus the float ``*_ms`` group-construction wall-time keys
    (:data:`repro.privacy.kernel_registry.TIMING_STAT_KEYS`);
    ``preloaded_entries`` counts cache entries restored from persisted
    snapshots at worker start -- the warm-start gauge; ``retried`` is
    set by the coordinator when this batch was re-dispatched after a
    worker crash; ``dispatch_latency_ms`` is stamped by the coordinator
    with the wall-clock time from batch dispatch to result receipt --
    the per-transport latency that E10 and ``bench_service`` break wall
    time down by.  ``queue_depth`` and ``queue_wait_ms`` are stamped by
    a fair-scheduling :class:`~repro.service.server.GammaServer`: how
    many requests this tenant had queued when the batch arrived, and
    how long the batch waited in its tenant queue before a dispatcher
    picked it up -- the per-tenant fairness gauges (0 on transports
    with no server-side queueing).
    """

    shard_id: int
    batch_id: int
    completed: int
    kernel_stats: Mapping[str, float]
    preloaded_entries: int = 0
    retried: bool = False
    dispatch_latency_ms: float = 0.0
    queue_depth: int = 0
    queue_wait_ms: float = 0.0
    #: Membership epoch of the pool routing that dispatched this batch,
    #: stamped by :class:`~repro.service.pool.PooledTransport` when the
    #: completion is accepted.  A completion arriving from an endpoint
    #: the batch is no longer routed to belongs to a pre-rebalance epoch
    #: and is dropped rather than double-counted.  0 on transports with
    #: no membership concept.
    epoch: int = 0
    #: How many client-side logical requests this batch's tasks belonged
    #: to, stamped by the coordinator on receipt (0 until then): more
    #: than 1 when dispatch coalescing merged several requests' tasks
    #: into one IPC round trip, 1 for a batch serving a single request.
    coalesced_requests: int = 0
    #: Tenant identity the serving :class:`~repro.service.server.GammaServer`
    #: resolved for the connection (from the token handshake when auth is
    #: configured, an anonymous per-connection name otherwise; "" on
    #: transports with no server in the path).
    tenant: str = ""


# ---------------------------------------------------------------------- #
# Transport-neutral wire forms
# ---------------------------------------------------------------------- #
#: Tag opening a packed column-matrix wire form.
I64_TAG = "i64"


def _fails_closed(from_wire):
    """A ``*_from_wire`` decoder that raises :class:`ServiceError` on any
    input of the wrong shape, instead of whatever unpacking, indexing or
    conversion error the shape mismatch happens to hit first."""

    @functools.wraps(from_wire)
    def decode(wire):
        try:
            return from_wire(wire)
        except ServiceError:
            raise
        except Exception as exc:
            raise ServiceError(
                f"malformed wire form for {from_wire.__name__}: {exc!r}"
            ) from exc

    return decode


def columns_to_wire(matrix: np.ndarray) -> list:
    """A canonical ``<i8`` column matrix as one packed little-endian buffer.

    ``[I64_TAG, [n_columns, rows], raw_bytes]`` -- a dtype/shape/raw-bytes
    triple, one bytes object for the whole matrix instead of one object
    per cell.
    """
    return [I64_TAG, list(matrix.shape), matrix.tobytes()]


@_fails_closed
def columns_from_wire(wire: list) -> np.ndarray:
    """Invert :func:`columns_to_wire`: the ``int64`` column matrix.

    The declared shape must account for the payload exactly: no
    negative (numpy-inferred) dimension and no surplus or missing bytes.
    """
    tag, (n_columns, rows), raw = wire
    if tag != I64_TAG:
        raise ServiceError(f"unknown column wire tag {tag!r}")
    if n_columns < 0 or rows < 0:
        raise ServiceError(f"negative column matrix shape {[n_columns, rows]}")
    if len(raw) != 8 * n_columns * rows:
        raise ServiceError(
            f"column payload of {len(raw)} bytes does not hold "
            f"{n_columns}x{rows} int64 cells"
        )
    return np.frombuffer(raw, dtype="<i8").reshape(n_columns, rows)


def structure_to_wire(structure: RelationStructure) -> list:
    """A :class:`RelationStructure` as domain sizes plus packed columns."""
    return [
        list(structure.input_domain_sizes),
        list(structure.output_domain_sizes),
        columns_to_wire(structure.input_columns),
        columns_to_wire(structure.output_columns),
    ]


def _columns_in_domain(
    wire: list, domain_sizes: tuple[int, ...], side: str
) -> np.ndarray:
    """Decoded columns with one column per domain, every cell in its domain.

    A cell outside ``[0, domain)`` would collide ``block*domain + value``
    keys in the kernel's counting passes and silently merge blocks.
    """
    matrix = columns_from_wire(wire)
    if matrix.shape[0] != len(domain_sizes):
        raise ServiceError(
            f"{matrix.shape[0]} {side} columns for "
            f"{len(domain_sizes)} {side} domains"
        )
    if matrix.size:
        bounds = np.asarray(domain_sizes, dtype=np.int64)[:, None]
        if (matrix < 0).any() or (matrix >= bounds).any():
            raise ServiceError(f"{side} column value outside its domain")
    return matrix


@_fails_closed
def structure_from_wire(wire: list) -> RelationStructure:
    """Rebuild a :class:`RelationStructure` from its wire form.

    The received buffers become the structure's matrices, uncopied.
    """
    input_sizes, output_sizes, input_wire, output_wire = wire
    input_sizes, output_sizes = tuple(input_sizes), tuple(output_sizes)
    inputs = _columns_in_domain(input_wire, input_sizes, "input")
    outputs = _columns_in_domain(output_wire, output_sizes, "output")
    if inputs.shape[0] and outputs.shape[0] and inputs.shape[1] != outputs.shape[1]:
        raise ServiceError(
            f"ragged structure: {inputs.shape[1]} input rows, "
            f"{outputs.shape[1]} output rows"
        )
    return RelationStructure(input_sizes, output_sizes, inputs, outputs)


def _structure_under(signature: str, wire: list) -> RelationStructure:
    """A shipped structure, which must hash to the signature it is sent under.

    Receivers store shipped structures by the sender's signature; one
    filed under another structure's signature would answer that
    structure's later requests with wrong Gammas.  The digest is taken
    over the received buffers themselves (the structure's matrices view
    them), so the check costs one hash and no rebuild.
    """
    structure = structure_from_wire(wire)
    if structure.signature != signature:
        raise ServiceError(
            f"shipped structure hashes to {structure.signature!r}, "
            f"not its claimed signature {signature!r}"
        )
    return structure


def task_to_wire(task: GammaTask) -> list:
    return [
        task.task_id,
        task.signature,
        list(task.visible_inputs),
        list(task.visible_outputs),
        task.want,
    ]


@_fails_closed
def task_from_wire(wire: list) -> GammaTask:
    task_id, signature, visible_inputs, visible_outputs, want = wire
    return GammaTask(
        task_id, signature, tuple(visible_inputs), tuple(visible_outputs), want
    )


def batch_to_wire(batch: GammaBatch) -> list:
    return [
        batch.batch_id,
        batch.shard_id,
        batch.request_id,
        [task_to_wire(task) for task in batch.tasks],
        {
            signature: structure_to_wire(structure)
            for signature, structure in batch.structures.items()
        },
    ]


@_fails_closed
def batch_from_wire(wire: list) -> GammaBatch:
    batch_id, shard_id, request_id, tasks, structures = wire
    return GammaBatch(
        batch_id,
        shard_id,
        tuple(task_from_wire(task) for task in tasks),
        {
            signature: _structure_under(signature, structure)
            for signature, structure in structures.items()
        },
        request_id,
    )


def result_to_wire(result: TaskResult) -> list:
    return [
        result.task_id,
        result.signature,
        result.gamma,
        None if result.counts is None else list(result.counts),
        None if result.partition is None else list(result.partition),
    ]


@_fails_closed
def result_from_wire(wire: list) -> TaskResult:
    task_id, signature, gamma, counts, partition = wire
    return TaskResult(
        task_id,
        signature,
        gamma,
        None if counts is None else tuple(counts),
        None if partition is None else tuple(partition),
    )


def report_to_wire(report: ShardReport) -> list:
    return [
        report.shard_id,
        report.batch_id,
        report.completed,
        dict(report.kernel_stats),
        report.preloaded_entries,
        report.retried,
        report.dispatch_latency_ms,
        report.queue_depth,
        report.queue_wait_ms,
        report.epoch,
        report.coalesced_requests,
        report.tenant,
    ]


@_fails_closed
def report_from_wire(wire: list) -> ShardReport:
    return ShardReport(*wire)


def plain_to_wire(value: object) -> object:
    """Arbitrary nested tuples/ints/strings as plain wire data.

    Kernel cache entries are keyed and valued by nested tuples of ints
    and strings (``("partition", (0, 1))`` and the like); the wire form
    flattens every sequence to a list.
    """
    if isinstance(value, (tuple, list)):
        return [plain_to_wire(item) for item in value]
    if isinstance(value, dict):
        return {key: plain_to_wire(item) for key, item in value.items()}
    return value


def plain_from_wire(value: object) -> object:
    """Invert :func:`plain_to_wire` (every sequence becomes a tuple)."""
    if isinstance(value, (tuple, list)):
        return tuple(plain_from_wire(item) for item in value)
    if isinstance(value, dict):
        return {key: plain_from_wire(item) for key, item in value.items()}
    return value


def kernel_export_to_wire(payload: Mapping[str, tuple]) -> dict:
    """A warm-handoff payload ``{signature: (structure, entries)}`` on the wire."""
    return {
        signature: [structure_to_wire(structure), plain_to_wire(entries)]
        for signature, (structure, entries) in payload.items()
    }


@_fails_closed
def kernel_export_from_wire(wire: Mapping[str, list]) -> dict[str, tuple]:
    """Invert :func:`kernel_export_to_wire`."""
    return {
        signature: (_structure_under(signature, structure), plain_from_wire(entries))
        for signature, (structure, entries) in wire.items()
    }


def message_to_wire(message: tuple) -> list:
    """A coordinator/server message tuple as plain wire data.

    Handled shapes (first element is the message kind):

    * ``("batch", GammaBatch)`` -- client request;
    * ``("batch", shard_id, batch_id, results, report)`` -- completion;
    * ``("error", shard_id, batch_id, text)`` and ``("overload",
      shard_id, batch_id, retry_after_ms)``;
    * ``("export", [signature, ...])`` / ``("exported", payload)`` and
      ``("import", payload)`` / ``("imported", count)`` -- warm-handoff
      kernel transfer (:func:`kernel_export_to_wire`);
    * ``("ping",)`` / ``("pong", 0)`` -- liveness probe;
    * ``("stats",)`` / ``("stats", mapping)`` / ``("stop",)`` /
      ``("stopped", shard_id)`` -- passed through verbatim.
    """
    kind = message[0]
    if kind == MSG_BATCH and len(message) == 2:
        return [kind, batch_to_wire(message[1])]
    if kind == MSG_BATCH:
        _, shard_id, batch_id, results, report = message
        return [
            kind,
            shard_id,
            batch_id,
            [result_to_wire(result) for result in results],
            report_to_wire(report),
        ]
    if kind in (MSG_EXPORTED, MSG_IMPORT):
        return [kind, kernel_export_to_wire(message[1])]
    return [kind, *[list(part) if isinstance(part, tuple) else part for part in message[1:]]]


@_fails_closed
def message_from_wire(wire: list) -> tuple:
    """Invert :func:`message_to_wire`."""
    kind = wire[0]
    if kind == MSG_BATCH and len(wire) == 2:
        return (kind, batch_from_wire(wire[1]))
    if kind == MSG_BATCH:
        _, shard_id, batch_id, results, report = wire
        return (
            kind,
            shard_id,
            batch_id,
            tuple(result_from_wire(result) for result in results),
            report_from_wire(report),
        )
    if kind == MSG_EXPORT:
        return (kind, tuple(wire[1]))
    if kind in (MSG_EXPORTED, MSG_IMPORT):
        return (kind, kernel_export_from_wire(wire[1]))
    return tuple(wire)


# ---------------------------------------------------------------------- #
# Framing: length prefix + data-only payload
# ---------------------------------------------------------------------- #
#: Frames above this size are rejected before allocation (corruption guard).
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class _DataOnlyUnpickler(pickle.Unpickler):
    """An unpickler that refuses every global.

    Every pickle opcode that calls something (``REDUCE``, ``BUILD``,
    ``NEWOBJ``, ``INST``, ``OBJ``) needs a callable that only a global
    lookup can produce, and extension codes resolve through
    :meth:`find_class` too; refusing all of them leaves containers,
    strings, bytes and numbers.  Persistent ids are refused by the base
    class, which defines no ``persistent_load``.
    """

    def find_class(self, module: str, name: str):
        raise pickle.UnpicklingError(
            f"frame references the global {module}.{name}; "
            "frames carry plain data only"
        )


def decode_payload(payload: bytes) -> object:
    """Deserialize a frame payload into plain data, or raise ServiceError."""
    try:
        return _DataOnlyUnpickler(io.BytesIO(payload)).load()
    except Exception as exc:
        raise ServiceError(f"undecodable frame payload: {exc!r}") from exc


def encode_frame(message: tuple) -> bytes:
    """One message as a complete frame (length prefix + payload)."""
    payload = pickle.dumps(message_to_wire(message), protocol=pickle.HIGHEST_PROTOCOL)
    return _LENGTH.pack(len(payload)) + payload


def decode_frame_from_buffer(buffer: bytearray) -> tuple | None:
    """Decode and consume one complete frame from ``buffer``.

    Returns ``None`` when the buffer holds only part of a frame (the
    bytes are left in place for the caller to extend) -- this is what
    lets a polling client survive a receive timeout that lands
    mid-frame without desyncing the stream.  Raises
    :class:`ServiceError` on oversized lengths and on payloads that do
    not decode to a message (the frame is consumed either way).
    """
    if len(buffer) < _LENGTH.size:
        return None
    (length,) = _LENGTH.unpack_from(buffer)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    end = _LENGTH.size + length
    if len(buffer) < end:
        return None
    payload = bytes(buffer[_LENGTH.size : end])
    del buffer[:end]
    return message_from_wire(decode_payload(payload))


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """Exactly ``n`` bytes from ``sock``, or ``None`` on orderly EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if chunks:
                raise ServiceError(
                    f"connection closed mid-frame ({n - remaining}/{n} bytes)"
                )
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def write_frame(sock: socket.socket, message: tuple) -> None:
    """Send one framed message on a (blocking or timeout) socket."""
    sock.sendall(encode_frame(message))


def read_frame(sock: socket.socket) -> tuple | None:
    """Read one framed message; ``None`` on orderly EOF.

    Raises :class:`ServiceError` on torn frames, oversized lengths (a
    corrupted or hostile peer must not drive an arbitrary-size
    allocation) and payloads that do not decode to a message.
    """
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    payload = _recv_exact(sock, length) if length else b""
    if payload is None:
        raise ServiceError("connection closed between frame header and payload")
    return message_from_wire(decode_payload(payload))


def merge_kernel_stats(
    reports: Iterable[Mapping[str, float]]
) -> dict[str, float]:
    """Sum per-shard kernel statistics into one service-wide view.

    Every gauge/counter in the shard registries' ``kernel_stats`` is
    additive across disjoint shards (kernels, bytes, hits, evictions,
    and the ``*_ms`` wall-time attribution), so a plain key-wise sum is
    the correct merge.  Counters stay exact ints; the wall-time keys
    (:data:`repro.privacy.kernel_registry.TIMING_STAT_KEYS`) are floats
    and must not be truncated, so values keep their own numeric type.
    """
    totals: dict[str, float] = {}
    for stats in reports:
        for key, value in stats.items():
            increment = value if isinstance(value, float) else int(value)
            totals[key] = totals.get(key, 0) + increment
    return totals
