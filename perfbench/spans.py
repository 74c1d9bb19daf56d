"""Spans recorded from outside the program, around its public callables.

Traced runs (``--trace 1``) install wrappers on the names each caller
looks up -- a class attribute for methods, a module global for functions
-- in the client and, through ``serve.py``, in the server process.  A
span is ``(id, parent id, name, start, end, view id)``.  Plain runs
install nothing, so their end-to-end numbers carry no tracing cost.

A layer's *self time* is its span's duration minus the time covered by
its child spans (children always run on the parent's thread, so they
nest inside the parent's interval).  A 30 s traced run closes millions
of spans, so each span is folded, as it closes, into per-name totals
(count, total ms, self ms), split by whether it ran inside a view; only
the first ``SPAN_DUMP_LIMIT`` spans are kept verbatim for the span dump.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time

#: Spans kept verbatim per process (the rest are only folded into totals).
SPAN_DUMP_LIMIT = 20_000


class Tracer:
    """In-memory span and sample recorder, safe to share between threads."""

    def __init__(self) -> None:
        #: (name, inside a view) -> [count, total ms, self ms]
        self.totals: dict[tuple[str, bool], list[float]] = {}
        #: The first SPAN_DUMP_LIMIT spans, verbatim.
        self.spans: list[tuple] = []
        #: Named numeric samples (frame sizes, round trips, queue waits).
        self.samples: dict[str, list[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_view(self, view: str | None) -> None:
        """Attribute this thread's following spans to ``view``."""
        self._local.view = view

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        #: [span id, seconds covered by child spans]
        frame = [next(self._ids), 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            view = getattr(self._local, "view", None)
            with self._lock:
                row = self.totals.setdefault((name, view is not None), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration * 1000.0
                row[2] += (duration - frame[1]) * 1000.0
                if len(self.spans) < SPAN_DUMP_LIMIT:
                    self.spans.append((frame[0], parent, name, start, end, view))

    def wrap(self, name: str, function, on_result=None):
        """``function`` recording one span per call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name):
                result = function(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def sample(self, series: str, value: float) -> None:
        """Record one numeric sample of ``series``."""
        self.samples.setdefault(series, []).append(float(value))

    def dump(self) -> dict:
        """JSON-ready copy of everything recorded so far."""
        with self._lock:
            return {
                "totals": [[name, inside, *row] for (name, inside), row in self.totals.items()],
                "spans": list(self.spans),
                "samples": {key: list(values) for key, values in self.samples.items()},
            }


def _wrap_attribute(tracer: Tracer, owner, attribute: str, name: str, on_result=None):
    """Replace ``owner.attribute`` (a module global, method or property)."""
    original = vars(owner)[attribute]
    if isinstance(original, property):
        setattr(owner, attribute, property(tracer.wrap(name, original.fget, on_result)))
    else:
        setattr(owner, attribute, tracer.wrap(name, original, on_result))


def _frame_sizes(tracer: Tracer):
    """``on_result`` hook recording the size of every encoded frame."""
    return lambda args, frame: tracer.sample("frame_bytes", len(frame))


def _install_common(tracer: Tracer) -> None:
    """Wrappers both processes share: frame codec and Gamma kernel."""
    from repro.privacy import kernel_registry
    from repro.service import protocol, transport

    # write_frame and both frame readers look these up in protocol's globals.
    _wrap_attribute(
        tracer, protocol, "encode_frame", "protocol.encode", _frame_sizes(tracer)
    )
    _wrap_attribute(tracer, protocol, "decode_payload", "protocol.decode")
    _wrap_attribute(tracer, protocol, "message_from_wire", "protocol.decode")
    _wrap_attribute(tracer, transport, "process_batch", "worker.process_batch")
    kernel = kernel_registry.SharedGammaKernel
    _wrap_attribute(tracer, kernel, "entry", "kernel_registry.entry")
    _wrap_attribute(tracer, kernel, "partition", "kernel_registry.partition")
    _wrap_attribute(tracer, kernel, "strata", "kernel_registry.strata")
    registry = kernel_registry.GammaKernelRegistry
    _wrap_attribute(tracer, registry, "kernel_stats", "kernel_registry.stats")
    _wrap_attribute(tracer, registry, "aggregate_counters", "kernel_registry.stats")


def install_client(tracer: Tracer) -> None:
    """Trace the client side: solver, relations, engine, coordinator, socket."""
    from repro.execution import engine
    from repro.privacy import relations, workflow_privacy
    from repro.service import coordinator, protocol, transport

    _install_common(tracer)
    _wrap_attribute(tracer, relations.ModuleRelation, "__init__", "relations.build")
    _wrap_attribute(tracer, workflow_privacy, "exact_secure_view", "workflow_privacy.search")
    _wrap_attribute(tracer, workflow_privacy, "apply_secure_view", "workflow_privacy.mask")
    _wrap_attribute(tracer, engine.WorkflowExecutor, "execute", "engine.execute")
    shard = coordinator.ShardCoordinator
    _wrap_attribute(tracer, shard, "submit", "coordinator.submit")
    _wrap_attribute(tracer, shard, "collect", "coordinator.collect")
    # SocketTransport._connect looks ``connect`` up in transport's globals:
    # TCP connect plus, where configured, the TLS and token handshakes.
    _wrap_attribute(tracer, transport, "connect", "security.handshake")

    # Round trip per batch, timed from the transport's submit to the poll
    # that returns its completion (what ShardReport.dispatch_latency_ms
    # measures); the completion's ShardReport carries the server's queue
    # wait and tenant.  Probes only, not spans: poll blocks while waiting.
    socket_transport = transport.SocketTransport
    submit = socket_transport.submit
    poll = socket_transport.poll
    sent: dict[tuple[int, int], float] = {}

    @functools.wraps(submit)
    def probed_submit(self, batch):
        sent[(id(self), batch.batch_id)] = time.perf_counter()
        return submit(self, batch)

    @functools.wraps(poll)
    def probed_poll(self, timeout):
        message = poll(self, timeout)
        if message is not None and message[0] == protocol.MSG_BATCH:
            started = sent.pop((id(self), message[2]), None)
            if started is not None:
                tracer.sample("rtt_ms", (time.perf_counter() - started) * 1000.0)
            report = message[4]
            tracer.sample(f"queue_wait_ms.{report.tenant}", report.queue_wait_ms)
        return message

    socket_transport.submit = probed_submit
    socket_transport.poll = probed_poll


def install_server(tracer: Tracer) -> None:
    """Trace the server side: frame codec, per-batch backend call, kernel."""
    from repro.service import coordinator, server

    _install_common(tracer)
    # The reply writer threads call the name the server module imported.
    _wrap_attribute(
        tracer, server, "encode_frame", "protocol.encode", _frame_sizes(tracer)
    )
    # GammaServer._evaluate hands every dequeued batch to its backend
    # coordinator's evaluate: one span per served batch.
    _wrap_attribute(tracer, coordinator.ShardCoordinator, "evaluate", "server.batch")


def merge_dumps(dumps: list[dict]) -> dict:
    """One ``Tracer.dump()`` holding everything of several processes."""
    samples: dict[str, list[float]] = {}
    for dump in dumps:
        for key, values in dump["samples"].items():
            samples.setdefault(key, []).extend(values)
    return {
        "totals": [row for dump in dumps for row in dump["totals"]],
        "spans": [span for dump in dumps for span in dump["spans"]][:SPAN_DUMP_LIMIT],
        "samples": samples,
    }


def self_times(dump: dict, *, views_only: bool) -> dict[str, dict[str, float]]:
    """Per span name: count, total ms and self ms from a ``Tracer.dump()``.

    ``views_only`` keeps only spans that ran inside a view (client spans
    outside the timed views -- set-up, the oracle -- are dropped).
    """
    table: dict[str, dict[str, float]] = {}
    for name, inside, count, total_ms, self_ms in dump["totals"]:
        if views_only and not inside:
            continue
        row = table.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += count
        row["total_ms"] += total_ms
        row["self_ms"] += self_ms
    return table
