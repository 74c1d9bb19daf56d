"""Columnar numpy Gamma kernel versus the tuple/dict reference table.

Three contracts:

* **oracle equivalence** -- a kernel on the vectorized table and one on
  the tuple/dict reference table (``columnar_oracle.PureTable``,
  installed through ``install_table``) are byte-identical: same
  entries, same Gammas, same cache accounting (costs, evictions,
  counters) on the same workload, including under LRU budgets far
  smaller than the working set;
* **plain-data persistence** -- snapshots freeze array payloads to plain
  int tuples, and a snapshot preloads into a fresh kernel that answers
  without recomputation;
* **value shipping** -- a worker process receives each structure
  pickled, once per live shard, and again only after that shard is
  respawned;
* **coalesced dispatch** -- the batch-coalescing dispatcher returns
  exactly the oracle's results under out-of-order collection, discards,
  and shard errors.
"""

from __future__ import annotations

import os

import pytest
from columnar_oracle import use_table
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import all_visibility_pairs, entry_requests

from repro.errors import ServiceError
from repro.experiments import e9_sharding
from repro.privacy.columnar import freeze
from repro.privacy.kernel_registry import (
    TIMING_STAT_KEYS,
    GammaKernelRegistry,
    RelationStructure,
)
from repro.privacy.relations import ModuleRelation
from repro.service import ShardCoordinator, shard_of
from repro.service.persistence import KernelSnapshotStore
from repro.service.transport import InProcessTransport

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _sweep(table: str, *, n_inputs, n_outputs, domain_size, seed, budget):
    """Evaluate every visibility pair of one random relation on ``table``.

    ``table`` is ``"numpy"`` (the kernel's own table) or ``"pure"`` (the
    reference table installed in its place).  Returns the frozen entries
    (hashable, table-independent) and the registry-wide kernel
    statistics -- including ``bytes_in_use``, so a divergence in cost
    accounting (and therefore in eviction order) fails the comparison
    even when the entries agree.
    """
    registry = GammaKernelRegistry(total_budget_bytes=budget)
    relation = ModuleRelation.random(
        "EQ",
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        domain_size=domain_size,
        seed=seed,
        registry=registry,
    )
    kernel = use_table(relation.kernel, table)
    entries = [
        freeze(kernel.entry(vi, vo))
        for vi, vo in all_visibility_pairs(relation)
    ]
    # Wall-time attribution is nondeterministic by nature; every
    # *counter* must still agree exactly across tables.
    stats = {
        key: value
        for key, value in registry.kernel_stats.items()
        if key not in TIMING_STAT_KEYS
    }
    return entries, stats


class TestBackendEquivalence:
    @RELAXED
    @given(
        n_inputs=st.integers(min_value=1, max_value=3),
        n_outputs=st.integers(min_value=1, max_value=3),
        domain_size=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        budget=st.sampled_from([None, 512, 4096]),
    )
    def test_entries_and_accounting_byte_identical(
        self, n_inputs, n_outputs, domain_size, seed, budget
    ):
        shape = dict(
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            domain_size=domain_size,
            seed=seed,
            budget=budget,
        )
        numpy_entries, numpy_stats = _sweep("numpy", **shape)
        pure_entries, pure_stats = _sweep("pure", **shape)
        assert numpy_entries == pure_entries
        assert numpy_stats == pure_stats

    def test_budget_smaller_than_one_entry_still_agrees(self):
        shape = dict(n_inputs=3, n_outputs=2, domain_size=3, seed=17, budget=64)
        numpy_entries, numpy_stats = _sweep("numpy", **shape)
        pure_entries, pure_stats = _sweep("pure", **shape)
        assert numpy_entries == pure_entries
        assert numpy_stats == pure_stats
        assert numpy_stats["evictions"] > 0  # the budget actually bit

    def test_gamma_values_are_python_ints(self):
        # json reporting layers choke on numpy scalars; the kernel's
        # public values must stay native.
        relation = ModuleRelation.random("INT", n_inputs=2, n_outputs=2, seed=3)
        gamma = relation.achieved_gamma({relation.inputs[0].name})
        counts = relation.candidate_output_counts({relation.inputs[0].name})
        assert type(gamma) is int
        assert all(type(count) is int for count in counts.values())


class TestPortableSnapshots:
    def _relation(self, registry):
        return ModuleRelation.random(
            "SNAP", n_inputs=2, n_outputs=2, domain_size=3, seed=21,
            registry=registry,
        )

    def test_snapshot_preloads_without_recomputation(self, tmp_path):
        store = KernelSnapshotStore(str(tmp_path))
        registry = GammaKernelRegistry()
        relation = self._relation(registry)
        kernel = relation.kernel
        expected = {
            pair: freeze(kernel.entry(*pair))
            for pair in all_visibility_pairs(relation)
        }
        store.snapshot_kernel(kernel)
        signature = kernel.structure.signature

        loaded = store.load(signature)
        assert loaded is not None
        structure, entries = loaded
        assert structure.signature == signature
        # Snapshot payloads are frozen: no array sneaks onto disk.
        for _, payload, _ in entries:
            assert freeze(payload) == payload

        registry = GammaKernelRegistry()
        kernel = self._relation(registry).kernel
        imported = kernel.import_entries(entries)
        assert imported == len(entries)
        stats_before = dict(kernel.kernel_stats)
        for pair, value in expected.items():
            assert freeze(kernel.entry(*pair)) == value
        stats_after = kernel.kernel_stats
        # Preloaded entries answered every pair: no recomputation.
        assert (
            stats_after["partition_refinements"]
            == stats_before["partition_refinements"]
        )
        assert stats_after["grouping_passes"] == stats_before["grouping_passes"]


class TestValueShipping:
    def _record_shipments(self, coordinator):
        """Wrap ``transport.submit``; return the list it appends to."""
        shipments = []
        submit = coordinator.transport.submit

        def recording_submit(batch):
            shipments.append((batch.shard_id, dict(batch.structures)))
            submit(batch)

        coordinator.transport.submit = recording_submit
        return shipments

    def test_structure_shipped_once_per_shard_across_sweeps(self):
        relation = ModuleRelation.random("VAL", n_inputs=2, n_outputs=2, seed=34)
        structure = relation.structure_signature
        requests = entry_requests(relation)
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        with ShardCoordinator(2) as coordinator:
            shipments = self._record_shipments(coordinator)
            assert coordinator.gammas(requests) == expected
            first_sweep = len(shipments)
            # Re-sweeping must reuse the worker's copy, not ship it again.
            assert coordinator.gammas(requests) == expected
        assert len(shipments) > first_sweep
        carried = [
            (shard_id, signature, shipped)
            for shard_id, structures in shipments
            for signature, shipped in structures.items()
        ]
        assert len(carried) == 1
        shard_id, signature, shipped = carried[0]
        assert signature == structure.signature
        assert shard_id == shard_of(signature, 2)
        assert type(shipped) is RelationStructure
        assert shipped == structure

    def test_respawned_shard_is_shipped_the_structure_again(self):
        relation = ModuleRelation.random("RES", n_inputs=2, n_outputs=2, seed=35)
        signature = relation.structure_signature.signature
        home = shard_of(signature, 2)
        requests = entry_requests(relation)
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        with ShardCoordinator(2) as coordinator:
            shipments = self._record_shipments(coordinator)
            assert coordinator.gammas(requests) == expected
            coordinator.inject_crash(home)
            assert coordinator.gammas(requests) == expected
            assert coordinator.worker_restarts == 1
        carrying = [
            shard_id for shard_id, structures in shipments if signature in structures
        ]
        assert carrying == [home, home]

    def test_shared_memory_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            ShardCoordinator(2, shm_tables=True)


class TestCoalescedDispatch:
    def _workload(self, seed=44):
        relations = [
            ModuleRelation.random(
                f"CD{index}", n_inputs=2, n_outputs=2, seed=seed + index
            )
            for index in range(3)
        ]
        return [req for r in relations for req in entry_requests(r)]

    def test_out_of_order_collection_matches_oracle(self):
        requests = self._workload()
        with ShardCoordinator(0) as oracle:
            expected = [result.gamma for result in oracle.evaluate(requests)]
        with ShardCoordinator(2, coalesce=8) as coordinator:
            ids = [coordinator.submit([request]) for request in requests]
            banked = {rid: coordinator.collect(rid) for rid in reversed(ids)}
            gammas = [banked[rid][0].gamma for rid in ids]
            stats = coordinator.service_stats()
        assert gammas == expected
        assert stats["coalesce"] == 8
        assert stats["coalesced_batches"] > 0
        assert stats["coalesced_requests"] > stats["coalesced_batches"]
        # The whole point: far fewer IPC round trips than requests.
        assert stats["batches"] < len(requests)

    def test_uncoalesced_batches_report_their_one_request(self):
        # coalesce=0 takes the same buffered path, flushing at once.
        # (In process, evaluate() reads kernels directly and sends no
        # batch, so the request goes through submit/collect.)
        with ShardCoordinator(0) as coordinator:
            coordinator.collect(coordinator.submit(self._workload(seed=47)))
            reports = coordinator.shard_reports()
            stats = coordinator.service_stats()
        assert reports and all(report.coalesced_requests == 1 for report in reports)
        assert stats["coalesced_batches"] == 0 and not coordinator._buffers

    def test_coalesced_requests_is_the_member_count_through_a_worker(self):
        # One worker, so every request lands on shard 0: at coalesce=0
        # each submit is its own batch; at coalesce=3 a batch is cut
        # every third submit and reports all three members.
        requests = self._workload(seed=52)[:6]
        for coalesce, members in ((0, 1), (3, 3)):
            coordinator = ShardCoordinator(1, coalesce=coalesce, task_timeout=60.0)
            with coordinator:
                ids = [coordinator.submit([request]) for request in requests]
                for rid in ids:
                    coordinator.collect(rid)
                [report] = coordinator.shard_reports()
                stats = coordinator.service_stats()
            assert report.coalesced_requests == members
            assert stats["batches"] == len(requests) // members

    def test_buffered_tasks_flush_on_collect(self):
        requests = self._workload(seed=50)[:5]
        with ShardCoordinator(1, coalesce=10_000) as coordinator:
            # Threshold never reached: everything sits buffered until a
            # collector arrives.
            ids = [coordinator.submit([request]) for request in requests]
            assert coordinator._buffers
            results = [coordinator.collect(rid)[0] for rid in ids]
            assert not coordinator._buffers
        assert len(results) == len(requests)

    def test_discard_of_buffered_and_inflight_requests_leaks_nothing(self):
        requests = self._workload(seed=55)
        with ShardCoordinator(0) as oracle:
            expected = [result.gamma for result in oracle.evaluate(requests)]
        with ShardCoordinator(2, coalesce=6) as coordinator:
            keep = coordinator.submit(requests[: len(requests) // 2])
            drop_inflight = coordinator.submit(requests)  # flushes: > threshold
            drop_buffered = coordinator.submit([requests[0]])
            coordinator.discard(drop_inflight)
            coordinator.discard(drop_buffered)
            kept = coordinator.collect(keep)
            assert [r.gamma for r in kept] == expected[: len(requests) // 2]
            for rid in (drop_inflight, drop_buffered):
                with pytest.raises(ServiceError):
                    coordinator.collect(rid)
            assert not coordinator._pending
            assert not coordinator._buffers
            assert not coordinator._task_requests
        # In-flight bookkeeping may briefly outlive the discard (the
        # shard finishes and the completion is dropped on receipt), but
        # nothing may survive the close.
        assert not coordinator._batch_requests or coordinator._closed

    def test_error_fails_every_member_request_and_nothing_else(self):
        relation = ModuleRelation.random("ERR", n_inputs=3, n_outputs=2, seed=61)
        requests = entry_requests(relation)
        transport = _WithholdingTransport()
        with ShardCoordinator(
            transport=transport, coalesce=2, task_timeout=30.0
        ) as coordinator:
            transport.withhold = True
            first = coordinator.submit([requests[0]])
            second = coordinator.submit([requests[1]])  # threshold: flushes
            batch_ids = [
                batch_id
                for batch_id, members in coordinator._batch_requests.items()
                if {first, second} <= members
            ]
            assert len(batch_ids) == 1  # one batch carries both requests
            assert transport.withheld == batch_ids
            transport.withhold = False
            transport.inject(
                ("error", 0, batch_ids[0], "injected coalesced failure")
            )
            with pytest.raises(ServiceError, match="injected coalesced failure"):
                coordinator.collect(first)
            with pytest.raises(ServiceError, match="injected coalesced failure"):
                coordinator.collect(second)
            # The service is not poisoned: later requests on the same
            # shard still complete.
            third = coordinator.submit(requests[2:4])
            assert len(coordinator.collect(third)) == 2


class _WithholdingTransport(InProcessTransport):
    """An in-process transport that can swallow batches unanswered.

    While ``withhold`` is set, submitted batches are recorded and never
    evaluated, so a message passed to :meth:`inject` is the only reply
    the coordinator can see for them -- no real completion can race it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.withhold = False
        self.withheld: list[int] = []

    def submit(self, batch) -> None:
        if self.withhold:
            self.withheld.append(batch.batch_id)
            return
        super().submit(batch)

    def inject(self, message: tuple) -> None:
        self._ready.append(message)


class TestE9CoalescedHeadline:
    def test_coalesced_speedup_reported_and_asserted_on_big_hosts(self):
        config = e9_sharding.E9Config(
            workers=(0, 2), modules=(2,), budgets=(None,), seed=9
        )
        rows = e9_sharding.run(config)
        headline = e9_sharding.headline(rows)
        assert headline["coalesced_speedup"] > 0
        if (os.cpu_count() or 1) >= 4:
            # With real parallelism the coalesced path must beat the
            # one-round-trip-per-request path: the two cells differ in
            # coalescing alone.
            assert headline["coalesced_speedup"] >= 1.0
