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

import os
import traceback
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from repro.privacy import columnar
from repro.privacy.kernel_registry import GammaKernelRegistry, SharedGammaKernel
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
    TaskResult,
    shard_of,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    import multiprocessing.queues


def kernel_entries(
    kernels: Mapping[str, SharedGammaKernel],
    keys: Iterable[tuple[str, tuple[int, ...], tuple[int, ...]]],
) -> Iterator[tuple]:
    """``(partition, counts, gamma)`` of every ``(signature, visible_inputs,
    visible_outputs)`` key, in key order.

    The per-task loop of every evaluation path: :func:`process_batch`
    (worker processes, in-process batches, the socket server) and the
    coordinator's direct in-process path
    (:meth:`~repro.service.transport.InProcessTransport.entries`) read
    each Gamma through it, so ``workers=0`` and ``workers=N`` run
    literally the same code per task -- the byte-identical-results
    guarantee rests on this.
    """
    for signature, visible_inputs, visible_outputs in keys:
        kernel = kernels.get(signature)
        if kernel is None:
            raise KeyError(
                f"shard received task for unknown structure {signature!r} "
                "(batch did not ship it and no earlier batch did)"
            )
        yield kernel.entry(visible_inputs, visible_outputs)


def task_result(task_id: int, signature: str, want: str, entry: tuple) -> TaskResult:
    """The reply to one task from its kernel ``entry``.

    ``want="entry"`` payloads are frozen to pure tuples so the reply is
    plain data on the wire.
    """
    partition, counts, gamma = entry
    if want == WANT_ENTRY:
        return TaskResult(
            task_id,
            signature,
            gamma,
            columnar.freeze(counts),
            columnar.freeze(partition),
        )
    return TaskResult(task_id, signature, gamma)


def process_batch(
    batch: GammaBatch,
    kernels: dict[str, SharedGammaKernel],
    registry: GammaKernelRegistry,
) -> tuple[TaskResult, ...]:
    """Evaluate one batch against the shard's registry.

    Registers the structures the batch ships, then answers every task
    through :func:`kernel_entries`, each under its own id and ``want``.
    """
    for signature, structure in batch.structures.items():
        if signature not in kernels:
            kernels[signature] = registry.ensure_kernel(structure)
    tasks = batch.tasks
    entries = kernel_entries(
        kernels,
        [(task.signature, task.visible_inputs, task.visible_outputs) for task in tasks],
    )
    return tuple(
        [
            task_result(task.task_id, task.signature, task.want, entry)
            for task, entry in zip(tasks, entries)
        ]
    )


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
    while True:
        message = task_queue.get()
        if message == SHUTDOWN:
            if store is not None:
                store.snapshot_registry(registry)
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
            results = process_batch(batch, kernels, registry)
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
