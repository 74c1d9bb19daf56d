"""Worker-process loop of the sharded Gamma evaluation service.

Each worker owns one :class:`GammaKernelRegistry` *shard*: the kernels of
every structure whose signature hashes to its shard id.  Because the
shard map is signature-stable, structurally identical relations -- from
any client, in any batch -- always land on the same warm kernel, which
is the whole point of sharding by structure rather than round-robin.

Lifecycle:

1. on start, preload persisted kernel snapshots for owned signatures
   (warm start -- repeated sweeps skip the cold partition computations);
2. serve :class:`GammaBatch` messages from the task queue -- each task
   answered with its exact Gamma, or its full kernel entry for
   ``want="entry"`` -- replying with
   ``("batch", shard_id, batch_id, results, report)`` tuples (the same
   message shape every transport delivers to the coordinator);
3. on :data:`SHUTDOWN`, snapshot every kernel back to disk and exit.

A failure inside a batch is reported as ``("error", shard_id, batch_id,
text)`` rather than killing the worker; the :data:`CRASH` control message
(test hook) kills the process abruptly via ``os._exit`` to exercise the
coordinator's crash recovery.
"""

from __future__ import annotations

import gc
import os
import traceback
from typing import TYPE_CHECKING

from repro.privacy import columnar
from repro.privacy.kernel_registry import (
    GammaKernelRegistry,
    RelationStructure,
    SharedGammaKernel,
)
from repro.service.persistence import KernelSnapshotStore
from repro.service.protocol import (
    CRASH,
    MSG_BATCH,
    MSG_ERROR,
    MSG_STOPPED,
    SHUTDOWN,
    WANT_ENTRY,
    GammaBatch,
    ShardReport,
    ShmTableRef,
    TaskResult,
    shard_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.queues


class ShmAttachments:
    """Shared-memory segments a worker has attached to, by segment name.

    Attaching resolves a :class:`ShmTableRef` into a zero-copy
    :class:`~repro.privacy.columnar.NumpyTable` over the published
    buffer plus a :class:`RelationStructure` over the same read-only
    matrices (the registry keys kernels by structure, and the signature,
    hashed from the attached bytes, is verified against the ref's, so a
    corrupted segment cannot be silently evaluated).  The segments stay
    open for the worker's lifetime -- the tables and structures view
    their buffers directly -- and are closed (never unlinked; the
    coordinator owns the segments) on shutdown.
    """

    def __init__(self) -> None:
        self._segments: dict[str, object] = {}

    def resolve(self, ref: ShmTableRef) -> tuple[RelationStructure, object]:
        """(structure, zero-copy table) for one published segment."""
        from multiprocessing import resource_tracker, shared_memory

        # Attaching must not register the segment with the resource
        # tracker: attachment is not ownership, and a tracked attach
        # would either unlink the segment out from under the owning
        # transport (spawn: per-process tracker fires at worker exit) or
        # corrupt the owner's registration (fork: shared tracker).
        # Python 3.13 spells this ``track=False``; on 3.11 the tracker
        # register hook is stubbed out for the duration of the attach.
        tracked_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(name=ref.shm_name)
        finally:
            resource_tracker.register = tracked_register
        self._segments[ref.shm_name] = segment
        table = columnar.NumpyTable.from_buffer(
            segment.buf,
            tuple(ref.input_shape),
            tuple(ref.output_shape),
            tuple(ref.input_domain_sizes),
            tuple(ref.output_domain_sizes),
        )
        structure = RelationStructure(
            table.input_domain_sizes,
            table.output_domain_sizes,
            table.input_matrix,
            table.output_matrix,
        )
        if structure.signature != ref.signature:
            raise ValueError(
                f"shared-memory table {ref.shm_name!r} does not match its "
                f"advertised structure signature {ref.signature!r}"
            )
        return structure, table

    def close(self) -> None:
        """Detach from every segment (tables must not be used after).

        The caller drops its references to the zero-copy views first;
        views still held in reference cycles (kernels and the registry
        point at each other) are collected here, because mmap.close()
        raises BufferError while numpy arrays still export pointers into
        the buffer.  A worker that attached nothing skips the full-heap
        collection.
        """
        if not self._segments:
            return
        gc.collect()
        for segment in self._segments.values():
            try:
                segment.close()  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - close is best effort
                pass
        self._segments.clear()


def process_batch(
    batch: GammaBatch,
    kernels: dict[str, SharedGammaKernel],
    registry: GammaKernelRegistry,
    attachments: ShmAttachments | None = None,
) -> tuple[TaskResult, ...]:
    """Evaluate one batch against the shard's registry.

    Shared by the worker loop and the coordinator's in-process fallback,
    so ``workers=0`` and ``workers=N`` run literally the same code per
    task -- the byte-identical-results guarantee rests on this.

    A batch may ship a structure either as a :class:`RelationStructure`
    or as a :class:`ShmTableRef` naming a shared-memory segment; the
    latter requires ``attachments`` (the multiprocess worker loop passes
    one) and backs the kernel with a zero-copy table over the published
    buffer.  ``want="entry"`` payloads are frozen to pure tuples so the
    reply is plain data on the wire.
    """
    for signature, structure in batch.structures.items():
        if signature in kernels:
            continue
        if isinstance(structure, ShmTableRef):
            if attachments is None:
                raise ValueError(
                    "batch shipped a shared-memory table ref but this "
                    "evaluator has no attachment support"
                )
            structure, table = attachments.resolve(structure)
            kernel = registry.ensure_kernel(structure)
            kernel.install_table(table)
            kernels[signature] = kernel
        else:
            kernels[signature] = registry.ensure_kernel(structure)
    results = []
    for task in batch.tasks:
        kernel = kernels.get(task.signature)
        if kernel is None:
            raise KeyError(
                f"shard received task for unknown structure {task.signature!r} "
                "(batch did not ship it and no earlier batch did)"
            )
        partition, counts, gamma = kernel.entry(
            task.visible_inputs, task.visible_outputs
        )
        if task.want == WANT_ENTRY:
            results.append(
                TaskResult(
                    task.task_id,
                    task.signature,
                    gamma,
                    columnar.freeze(counts),
                    columnar.freeze(partition),
                )
            )
        else:
            results.append(TaskResult(task.task_id, task.signature, gamma))
    return tuple(results)


def serve_shard(
    shard_id: int,
    shards: int,
    task_queue: "multiprocessing.queues.Queue",
    result_queue: "multiprocessing.queues.Queue",
    budget_bytes: int | None,
    total_budget_bytes: int | None,
    snapshot_dir: str | None,
) -> None:
    """The worker process entry point (must stay module-level picklable)."""
    # A forked worker inherits its parent's whole heap.  Freezing it
    # keeps every later collection -- the shutdown one included -- to
    # the objects this worker creates.
    gc.freeze()
    registry = GammaKernelRegistry(
        budget_bytes=budget_bytes, total_budget_bytes=total_budget_bytes
    )
    store: KernelSnapshotStore | None = None
    preloaded = 0
    if snapshot_dir is not None:
        store = KernelSnapshotStore(snapshot_dir)
        preloaded = store.warm_registry(
            registry, owns=lambda signature: shard_of(signature, shards) == shard_id
        )
        store.arm(registry)
    kernels: dict[str, SharedGammaKernel] = {
        kernel.structure.signature: kernel for kernel in registry.kernels
    }
    attachments = ShmAttachments()
    while True:
        message = task_queue.get()
        if message == SHUTDOWN:
            if store is not None:
                store.snapshot_registry(registry)
            # Drop every zero-copy view (kernel tables and the structures
            # over the same matrices) before detaching from the segments.
            del registry, store, kernels
            attachments.close()
            result_queue.put((MSG_STOPPED, shard_id))
            return
        if message == CRASH:
            # Crash-recovery hook: die like a SIGKILL'd worker would --
            # no snapshot, no goodbye message, no atexit handlers.  The
            # one concession: flush and close the shared result queue
            # first.  Its feeder thread writes under a write lock shared
            # by every worker; exiting while the feeder holds it would
            # deadlock the siblings' results forever -- a failure mode
            # this hook is not trying to simulate.
            result_queue.close()
            result_queue.join_thread()
            os._exit(17)
        batch = message
        try:
            results = process_batch(batch, kernels, registry, attachments)
        except Exception:
            result_queue.put(
                (MSG_ERROR, shard_id, batch.batch_id, traceback.format_exc())
            )
            continue
        report = ShardReport(
            shard_id=shard_id,
            batch_id=batch.batch_id,
            completed=len(results),
            # Size/sharing gauges plus the work counters (refinements,
            # passes, hits) -- the coordinator's warm/cold accounting
            # needs both.
            kernel_stats={
                **registry.kernel_stats,
                **registry.aggregate_counters(),
            },
            preloaded_entries=preloaded,
        )
        result_queue.put((MSG_BATCH, shard_id, batch.batch_id, results, report))
