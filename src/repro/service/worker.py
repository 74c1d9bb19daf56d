"""Per-batch evaluation loop of the Gamma evaluation service.

Every path that answers Gamma tasks runs the functions here: each socket
server (standalone, or forked by ``ShardCoordinator(workers=N)``)
evaluates batches through :func:`process_batch`, and the coordinator's
direct in-process calls read kernels through :func:`kernel_entries`, the
per-task loop of :func:`process_batch`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.privacy import columnar
from repro.privacy.kernel_registry import GammaKernelRegistry, SharedGammaKernel
from repro.service.protocol import WANT_ENTRY, GammaBatch, TaskResult


def kernel_entries(
    kernels: Mapping[str, SharedGammaKernel],
    keys: Iterable[tuple[str, tuple[int, ...], tuple[int, ...]]],
) -> Iterator[tuple]:
    """``(partition, counts, gamma)`` of every ``(signature, visible_inputs,
    visible_outputs)`` key, in key order.

    The per-task loop of every evaluation path: :func:`process_batch`
    (in-process batches and every socket server) and the
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
