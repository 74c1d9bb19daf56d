"""Warm-kernel persistence: snapshot Gamma kernels to disk and preload them.

*HyProv* motivates serving provenance workloads from a persistent store
instead of rebuilding state per process; here the state worth keeping is
the warm Gamma kernel -- memoized partitions and kernel entries that a
cold worker would have to recompute with O(rows) passes.  The store
writes one snapshot file per :class:`RelationStructure` (named by its
process-independent signature), containing the canonical structure and
the kernel's cached entries.

Two flows feed the store:

* **shutdown snapshots** -- :meth:`KernelSnapshotStore.snapshot_registry`
  dumps every kernel's live entries when a server (or the in-process
  coordinator) shuts down;
* **eviction spills** -- armed as the registry's ``eviction_sink``, the
  store buffers entries evicted under a byte budget so they reappear in
  the next snapshot instead of being lost (disk is the overflow tier of
  the cross-kernel LRU).

On start, :meth:`warm_registry` restores every snapshot in the
directory (each forked server of ``ShardCoordinator(workers=N)`` has its
own), so repeated sweeps skip cold-start entirely: preloaded entries are
served as cache hits and counted in the kernels' ``preloaded`` counter.

Snapshots are pickles of plain data: payloads are *frozen* to pure
tuples of ints on write and thawed back to arrays on preload, and a
structure pickles as its domain sizes, matrix shapes and packed ``<i8``
bytes (:meth:`RelationStructure.__reduce__`), re-hashed on load -- numpy
objects never reach the pickle.  They are a local cache directory, not
an interchange format -- load only directories you wrote.  A snapshot of
another format version is treated like an unreadable one: deleted and
skipped, so its structure starts cold.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.errors import ServiceError
from repro.privacy import columnar
from repro.privacy.kernel_registry import (
    GammaKernelRegistry,
    RelationStructure,
    SharedGammaKernel,
)

#: Snapshot file suffix (one file per relation structure).
SNAPSHOT_SUFFIX = ".kernel.pkl"

#: Snapshot format version, bumped on incompatible layout changes
#: (2: structures pickle as packed ``<i8`` matrices, not tuple columns).
SNAPSHOT_VERSION = 2

#: Default in-memory spill buffer bound before flushing to disk (bytes of
#: accounted entry cost, not pickle size).
DEFAULT_SPILL_FLUSH_BYTES = 4 * 1024 * 1024


class KernelSnapshotStore:
    """Directory-backed snapshots of warm Gamma kernels.

    ``spill_flush_bytes`` bounds the in-memory buffer of
    eviction-spilled entries: once the accounted cost of buffered spills
    exceeds it, every buffer is merged into its on-disk snapshot, so a
    long-running budgeted worker stays capped at (byte budget + spill
    bound) resident instead of accumulating every evicted entry in RAM.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        spill_flush_bytes: int = DEFAULT_SPILL_FLUSH_BYTES,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.spill_flush_bytes = spill_flush_bytes
        # Eviction spills buffered per signature until the next snapshot
        # or flush: signature -> {entry key -> (payload, cost)}.
        self._spilled: dict[str, dict[tuple, tuple[object, int]]] = {}
        self._spilled_structures: dict[str, RelationStructure] = {}
        self._spill_bytes = 0

    # ------------------------------------------------------------------ #
    # Paths and directory scanning
    # ------------------------------------------------------------------ #
    def path_for(self, signature: str) -> Path:
        """The snapshot file of one structure signature."""
        return self.directory / f"{signature}{SNAPSHOT_SUFFIX}"

    def signatures(self) -> tuple[str, ...]:
        """Signatures with a snapshot on disk, sorted."""
        return tuple(
            sorted(
                path.name[: -len(SNAPSHOT_SUFFIX)]
                for path in self.directory.glob(f"*{SNAPSHOT_SUFFIX}")
            )
        )

    def __len__(self) -> int:
        return len(self.signatures())

    # ------------------------------------------------------------------ #
    # Eviction spill sink
    # ------------------------------------------------------------------ #
    def record_eviction(
        self, structure: RelationStructure, key: tuple, payload: object, cost: int
    ) -> None:
        """Buffer an evicted entry for the next snapshot (``eviction_sink``).

        The buffer is bounded: past :attr:`spill_flush_bytes` every spill
        buffer is merged into its on-disk snapshot, so eviction pressure
        translates into disk writes, not unbounded resident memory.
        """
        signature = structure.signature
        self._spilled_structures[signature] = structure
        bucket = self._spilled.setdefault(signature, {})
        stale = bucket.get(key)
        if stale is not None:
            self._spill_bytes -= stale[1]
        bucket[key] = (payload, cost)
        self._spill_bytes += cost
        if self._spill_bytes > self.spill_flush_bytes:
            self.flush_spills()

    def flush_spills(self) -> int:
        """Merge every buffered spill into its on-disk snapshot.

        Returns the number of snapshot files written.  Buffers are
        cleared; live kernel entries are *not* touched (they are written
        by :meth:`snapshot_kernel` / :meth:`snapshot_registry`, which
        merge with what this wrote).
        """
        written = 0
        for signature, structure in list(self._spilled_structures.items()):
            entries = self._spilled.pop(signature, {})
            del self._spilled_structures[signature]
            if not entries:
                continue
            merged = self._entries_on_disk(signature)
            merged.update(entries)
            self._write_snapshot(signature, structure, merged)
            written += 1
        self._spill_bytes = 0
        return written

    def arm(self, registry: GammaKernelRegistry) -> None:
        """Install this store as ``registry``'s eviction spill sink."""
        registry.set_eviction_sink(self.record_eviction)

    # ------------------------------------------------------------------ #
    # Writing snapshots
    # ------------------------------------------------------------------ #
    def _entries_on_disk(self, signature: str) -> dict[tuple, tuple[object, int]]:
        """The existing snapshot's entries, ``{}`` if absent or unreadable.

        A torn or corrupt file is about to be atomically replaced by the
        caller, so it is treated as empty rather than fatal.
        """
        try:
            existing = self.load(signature)
        except ServiceError:
            return {}
        if existing is None:
            return {}
        return {key: (payload, cost) for key, payload, cost in existing[1]}

    def _write_snapshot(
        self,
        signature: str,
        structure: RelationStructure,
        entries: dict[tuple, tuple[object, int]],
    ) -> Path:
        """Atomically write one snapshot (temp file + rename), torn-write safe.

        Payloads are frozen to pure tuples of ints, so the file holds
        plain data only.
        """
        document = {
            "version": SNAPSHOT_VERSION,
            "structure": structure,
            "entries": tuple(
                (key, columnar.freeze(payload), cost)
                for key, (payload, cost) in entries.items()
            ),
        }
        path = self.path_for(signature)
        fd, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=".tmp-", suffix=SNAPSHOT_SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            raise
        return path

    def snapshot_kernel(self, kernel: SharedGammaKernel) -> Path:
        """Write one kernel's warm state (disk + spilled + live entries).

        Later sources win on key conflicts: live cache entries over the
        spill buffer over what an earlier flush already put on disk --
        freshest copy survives, and entries evicted (then flushed) under
        a budget are not lost when the shrunken live set is snapshotted.
        """
        signature = kernel.structure.signature
        entries = self._entries_on_disk(signature)
        spilled = self._spilled.pop(signature, {})
        self._spilled_structures.pop(signature, None)
        self._spill_bytes -= sum(cost for _, cost in spilled.values())
        entries.update(spilled)
        for key, payload, cost in kernel.export_entries():
            entries[key] = (payload, cost)
        return self._write_snapshot(signature, kernel.structure, entries)

    def snapshot_registry(self, registry: GammaKernelRegistry) -> int:
        """Snapshot every kernel of ``registry`` (plus spill-only structures).

        Entries evicted from kernels that were themselves released can
        survive only through their spill buffer; they are flushed too.
        Returns the number of snapshot files written.
        """
        written = 0
        for kernel in registry.kernels:
            self.snapshot_kernel(kernel)
            written += 1
        # Spill buffers whose kernel is gone: persist them standalone.
        written += self.flush_spills()
        return written

    # ------------------------------------------------------------------ #
    # Reading snapshots
    # ------------------------------------------------------------------ #
    def load(
        self, signature: str
    ) -> tuple[RelationStructure, tuple[tuple[tuple, object, int], ...]] | None:
        """One snapshot as ``(structure, entries)``, or ``None`` if absent."""
        path = self.path_for(signature)
        if not path.is_file():
            return None
        try:
            document = pickle.loads(path.read_bytes())
        except (pickle.UnpicklingError, EOFError, AttributeError) as exc:
            raise ServiceError(f"corrupt kernel snapshot {path}: {exc}") from exc
        if document.get("version") != SNAPSHOT_VERSION:
            raise ServiceError(
                f"kernel snapshot {path} has unsupported version "
                f"{document.get('version')!r}"
            )
        return document["structure"], document["entries"]

    def iter_snapshots(
        self,
    ) -> Iterator[tuple[RelationStructure, tuple[tuple[tuple, object, int], ...]]]:
        """Every readable snapshot in the directory.

        Snapshots are a cache: a corrupt file (torn write, disk-full
        remnant) is deleted and skipped rather than raised, so one bad
        file can never crash-loop a restarting worker into
        ``WorkerCrashError`` -- it just costs that structure a cold
        start.
        """
        for signature in self.signatures():
            try:
                snapshot = self.load(signature)
            except ServiceError:
                try:
                    self.path_for(signature).unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
                continue
            if snapshot is not None:
                yield snapshot

    def warm_registry(self, registry: GammaKernelRegistry) -> int:
        """Preload every snapshot into ``registry``'s kernels.

        Returns the number of cache entries preloaded.
        """
        preloaded = 0
        for structure, entries in self.iter_snapshots():
            kernel = registry.ensure_kernel(structure)
            preloaded += kernel.import_entries(entries)
        return preloaded

    # ------------------------------------------------------------------ #
    # Targeted per-shard export/import (warm-handoff between endpoints)
    # ------------------------------------------------------------------ #
    def export_signatures(
        self, signatures: Iterable[str]
    ) -> dict[str, tuple[RelationStructure, tuple[tuple[tuple, object, int], ...]]]:
        """The named snapshots as ``{signature: (structure, entries)}``.

        The warm-handoff path of an elastic federation: when a shard
        migrates, exactly its signatures are exported from the old
        endpoint -- live kernels first, this store as the fallback for
        structures already evicted from memory.  Spills are flushed
        first so the export sees the complete warm state; unreadable or
        absent snapshots are skipped (they just cost a cold start).
        """
        self.flush_spills()
        payload: dict[str, tuple] = {}
        for signature in signatures:
            try:
                snapshot = self.load(signature)
            except ServiceError:
                continue
            if snapshot is not None:
                payload[signature] = snapshot
        return payload

    def import_signatures(
        self, payload: Mapping[str, tuple]
    ) -> int:
        """Merge exported snapshots into this store; returns entry count.

        The receiving side of a warm handoff: the new endpoint persists
        what it was shipped so a later restart of *that* endpoint also
        starts warm.  Existing on-disk entries are kept; shipped entries
        win on key conflicts (they are the freshest copy).
        """
        imported = 0
        for signature, (structure, entries) in payload.items():
            merged = self._entries_on_disk(signature)
            merged.update(
                {key: (value, cost) for key, value, cost in entries}
            )
            self._write_snapshot(signature, structure, merged)
            imported += len(entries)
        return imported

    def clear(self) -> int:
        """Delete every snapshot file; returns how many were removed."""
        removed = 0
        for signature in self.signatures():
            self.path_for(signature).unlink()
            removed += 1
        self._spilled.clear()
        self._spilled_structures.clear()
        self._spill_bytes = 0
        return removed

    # ------------------------------------------------------------------ #
    # Garbage collection and compaction (long-lived deployments)
    # ------------------------------------------------------------------ #
    def total_bytes(self) -> int:
        """On-disk size of every snapshot file, in bytes."""
        total = 0
        for signature in self.signatures():
            try:
                total += self.path_for(signature).stat().st_size
            except OSError:  # pragma: no cover - raced with a delete
                pass
        return total

    def gc(
        self,
        *,
        max_age_seconds: float | None = None,
        max_total_bytes: int | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> dict[str, int]:
        """Bound the store by snapshot age and/or total size.

        Snapshots are a cache, so deleting one only costs the next
        start of that structure a cold computation -- it never loses
        results.  Two independent bounds:

        * ``max_age_seconds`` -- snapshots not touched (mtime) within
          the window are deleted: structures a long-lived deployment
          stopped seeing;
        * ``max_total_bytes`` -- oldest-mtime-first deletion until the
          store fits: the disk-tier analogue of the registry's LRU byte
          budget.

        Buffered eviction spills are flushed first so the decision sees
        the true on-disk state.  ``dry_run`` reports without deleting.
        Returns counters: ``scanned``, ``removed_by_age``,
        ``removed_by_size``, ``kept``, ``bytes_before``, ``bytes_after``.
        """
        if not dry_run:
            self.flush_spills()
        timestamp = time.time() if now is None else float(now)
        entries: list[tuple[float, int, str]] = []  # (mtime, size, signature)
        for signature in self.signatures():
            try:
                stat = self.path_for(signature).stat()
            except OSError:  # pragma: no cover - raced with a delete
                continue
            entries.append((stat.st_mtime, stat.st_size, signature))
        bytes_before = sum(size for _, size, _ in entries)
        removed_by_age = removed_by_size = 0
        survivors: list[tuple[float, int, str]] = []
        for mtime, size, signature in entries:
            if (
                max_age_seconds is not None
                and timestamp - mtime > max_age_seconds
            ):
                if not dry_run:
                    self.path_for(signature).unlink(missing_ok=True)
                removed_by_age += 1
            else:
                survivors.append((mtime, size, signature))
        remaining = sum(size for _, size, _ in survivors)
        if max_total_bytes is not None:
            survivors.sort()  # oldest mtime first: disk-tier LRU order
            index = 0
            while remaining > max_total_bytes and index < len(survivors):
                mtime, size, signature = survivors[index]
                if not dry_run:
                    self.path_for(signature).unlink(missing_ok=True)
                removed_by_size += 1
                remaining -= size
                index += 1
            survivors = survivors[index:]
        return {
            "scanned": len(entries),
            "removed_by_age": removed_by_age,
            "removed_by_size": removed_by_size,
            "kept": len(survivors),
            "bytes_before": bytes_before,
            "bytes_after": remaining,
        }

    def compact(self) -> dict[str, int]:
        """Rewrite every snapshot in canonical form; drop unreadable ones.

        Long-lived stores accumulate pickle-layout slack from
        incremental spill merges and the odd torn write; compaction
        re-serializes each snapshot from its parsed form (identical
        entries, freshest pickle protocol, deduplicated keys) and
        deletes files that no longer load.  Returns ``rewritten``,
        ``dropped``, ``bytes_before`` and ``bytes_after``.
        """
        self.flush_spills()
        rewritten = dropped = bytes_before = bytes_after = 0
        for signature in self.signatures():
            path = self.path_for(signature)
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - raced with a delete
                continue
            bytes_before += size
            try:
                snapshot = self.load(signature)
            except ServiceError:
                path.unlink(missing_ok=True)
                dropped += 1
                continue
            if snapshot is None:  # pragma: no cover - raced with a delete
                continue
            structure, entries = snapshot
            self._write_snapshot(
                signature,
                structure,
                {key: (payload, cost) for key, payload, cost in entries},
            )
            rewritten += 1
            bytes_after += path.stat().st_size
        return {
            "rewritten": rewritten,
            "dropped": dropped,
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
        }
