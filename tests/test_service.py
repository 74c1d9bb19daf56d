"""Tests for the sharded Gamma evaluation service (repro.service).

Covers the ISSUE-3 contracts: sharded results byte-identical to the
in-process kernel (Hypothesis equivalence), kernel snapshot round-trips
(persist -> restore -> identical ``entry()`` payloads and counters),
registry-wide cross-kernel LRU eviction order, forked-server crash
recovery (server re-forked, batch retried, shard report flags the
retry), and the secure-view /
guarantees integration.
"""

from __future__ import annotations

import itertools
import pickle
import random as stdlib_random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from service_workloads import all_visibility_pairs, entry_requests

from repro.errors import ServiceError
from repro.experiments import e9_sharding
from repro.privacy.columnar import freeze
from repro.privacy.guarantees import workflow_guarantees
from repro.privacy.kernel_registry import GammaKernelRegistry, WORD_BYTES
from repro.privacy.relations import ModuleRelation
from repro.privacy.workflow_privacy import (
    WorkflowPrivacyRequirements,
    exact_secure_view,
)
from repro.service import (
    GammaBatch,
    GammaServer,
    GammaTask,
    KernelSnapshotStore,
    ShardCoordinator,
    build_transport,
    merge_kernel_stats,
    shard_of,
)

RELAXED = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RELATIONS = st.builds(
    ModuleRelation.random,
    st.sampled_from(["P"]),
    n_inputs=st.integers(min_value=1, max_value=3),
    n_outputs=st.integers(min_value=1, max_value=2),
    domain_size=st.integers(min_value=2, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)


@pytest.fixture(scope="module")
def sharded():
    """One long-lived two-worker service shared by this module's tests."""
    coordinator = ShardCoordinator(2, task_timeout=60.0)
    yield coordinator
    coordinator.close(snapshot=False)


class TestProtocol:
    def test_shard_of_is_stable_and_in_range(self):
        relation = ModuleRelation.random("P", seed=3)
        signature = relation.structure_signature.signature
        for shards in (1, 2, 3, 7):
            shard = shard_of(signature, shards)
            assert 0 <= shard < shards
            assert shard == shard_of(signature, shards)

    def test_shard_of_rejects_empty_pool(self):
        with pytest.raises(ServiceError):
            shard_of("ab" * 16, 0)

    def test_task_validates_payload_kind(self):
        with pytest.raises(ServiceError):
            GammaTask(1, "sig", (), (), want="everything")

    def test_merge_kernel_stats_sums_keywise(self):
        merged = merge_kernel_stats([{"a": 1, "b": 2}, {"a": 3, "c": 4}])
        assert merged == {"a": 4, "b": 2, "c": 4}

    def test_signature_is_rename_invariant(self):
        base = ModuleRelation.random("A", seed=9)
        twin = ModuleRelation.random("B", seed=9)  # same table, new names
        other = ModuleRelation.random("C", seed=10)
        assert (
            base.structure_signature.signature == twin.structure_signature.signature
        )
        assert (
            base.structure_signature.signature != other.structure_signature.signature
        )


class TestInProcessFallback:
    def test_gammas_match_relation_kernel(self):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=21
        )
        coordinator = ShardCoordinator(0)
        names = relation.attribute_names()
        hidden_sets = [set(), {names[0]}, set(names[:3]), set(names)]
        requests = [
            (relation.structure_signature, *relation.visibility_of(hidden))
            for hidden in hidden_sets
        ]
        assert coordinator.gammas(requests) == [
            relation.achieved_gamma(hidden) for hidden in hidden_sets
        ]

    def test_entry_payloads_match_kernel(self):
        relation = ModuleRelation.random("P", seed=22)
        coordinator = ShardCoordinator(0)
        results = coordinator.evaluate(entry_requests(relation), want="entry")
        for (visible_inputs, visible_outputs), result in zip(
            all_visibility_pairs(relation), results
        ):
            partition, counts, gamma = relation.kernel.entry(
                visible_inputs, visible_outputs
            )
            # Results carry frozen (pure-tuple) payloads on any backend.
            assert (result.partition, result.counts, result.gamma) == (
                freeze(partition),
                freeze(counts),
                gamma,
            )

    def test_closed_coordinator_rejects_work(self):
        coordinator = ShardCoordinator(0)
        coordinator.close()
        with pytest.raises(ServiceError):
            coordinator.evaluate([])


class TestShardedEquivalence:
    @given(relation=RELATIONS)
    @RELAXED
    def test_sharded_entries_byte_identical_to_inprocess(self, sharded, relation):
        requests = entry_requests(relation)
        local = ShardCoordinator(0).evaluate(requests, want="entry")
        remote = sharded.evaluate(requests, want="entry")
        local_payload = [(r.gamma, r.counts, r.partition) for r in local]
        remote_payload = [(r.gamma, r.counts, r.partition) for r in remote]
        assert pickle.dumps(local_payload) == pickle.dumps(remote_payload)

    @given(relation=RELATIONS, subset_seed=st.integers(min_value=0, max_value=999))
    @RELAXED
    def test_sharded_gammas_match_reference_oracle(self, sharded, relation, subset_seed):
        rng = stdlib_random.Random(subset_seed)
        hidden = {name for name in relation.attribute_names() if rng.random() < 0.5}
        request = (relation.structure_signature, *relation.visibility_of(hidden))
        assert sharded.gammas([request]) == [relation.reference_achieved_gamma(hidden)]

    def test_work_spreads_across_shards(self, sharded):
        relations = [
            ModuleRelation.random(f"S{i}", n_inputs=2, n_outputs=2, seed=500 + i)
            for i in range(8)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        results = sharded.evaluate(requests)
        assert len(results) == len(requests)
        shards = {
            shard_of(r.structure_signature.signature, 2) for r in relations
        }
        assert shards == {0, 1}, "workload should hit both shards"
        assert len(sharded.shard_reports()) == 2


class TestPersistence:
    def test_snapshot_round_trip_identical_payloads_and_counters(self, tmp_path):
        relation = ModuleRelation.random(
            "P", n_inputs=3, n_outputs=2, domain_size=3, seed=31
        )
        registry = GammaKernelRegistry()
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}

        store = KernelSnapshotStore(tmp_path)
        assert store.snapshot_registry(registry) == 1
        assert len(store) == 1

        fresh = GammaKernelRegistry()
        preloaded = KernelSnapshotStore(tmp_path).warm_registry(fresh)
        assert preloaded > 0
        restored = fresh.kernels[0]
        assert restored.counters["preloaded"] == preloaded
        for pair in pairs:
            assert pickle.dumps(restored.entry(*pair)) == pickle.dumps(
                expected[pair]
            )
        counters = restored.counters
        assert counters["partition_refinements"] == 0
        assert counters["grouping_passes"] == 0
        assert counters["kernel_hits"] == len(pairs)

    def test_eviction_spills_survive_in_snapshots(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=32)
        row_count = relation.structure_signature.row_count
        # Budget of ~3 partition-sized entries: plenty of evictions.
        registry = GammaKernelRegistry(
            total_budget_bytes=3 * row_count * WORD_BYTES
        )
        store = KernelSnapshotStore(tmp_path)
        store.arm(registry)
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}
        assert registry.kernel_stats["cross_evictions"] > 0
        store.snapshot_registry(registry)

        fresh = GammaKernelRegistry()
        KernelSnapshotStore(tmp_path).warm_registry(fresh)
        restored = fresh.kernels[0]
        passes_before = restored.counters["grouping_passes"]
        for pair in pairs:
            assert freeze(restored.entry(*pair)) == freeze(expected[pair])
        # Every evicted entry came back from disk: nothing recomputed.
        assert restored.counters["grouping_passes"] == passes_before

    def test_corrupt_snapshot_is_reported(self, tmp_path):
        store = KernelSnapshotStore(tmp_path)
        store.path_for("feedface").write_bytes(b"not a pickle")
        with pytest.raises(ServiceError, match="corrupt"):
            store.load("feedface")

    def test_corrupt_snapshot_does_not_break_warm_start(self, tmp_path):
        relation = ModuleRelation.random("P", seed=34)
        registry = GammaKernelRegistry()
        registry.ensure_kernel(relation.structure_signature).entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        store.path_for("feedface").write_bytes(b"torn write")
        fresh = GammaKernelRegistry()
        # Good snapshot preloads; the corrupt one is skipped and deleted
        # (a cache file must never crash-loop a restarting worker).
        assert KernelSnapshotStore(tmp_path).warm_registry(fresh) > 0
        assert not store.path_for("feedface").is_file()
        # A worker pool pointed at the same directory still comes up.
        with ShardCoordinator(2, snapshot_dir=str(tmp_path)) as coordinator:
            assert coordinator.gammas(entry_requests(relation))

    def test_spill_buffer_flushes_to_disk_under_pressure(self, tmp_path):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=35)
        rows = relation.structure_signature.row_count
        registry = GammaKernelRegistry(total_budget_bytes=3 * rows * WORD_BYTES)
        # Spill bound of ~2 entries: eviction pressure must hit disk
        # long before shutdown instead of accumulating in memory.
        store = KernelSnapshotStore(
            tmp_path, spill_flush_bytes=2 * rows * WORD_BYTES
        )
        store.arm(registry)
        kernel = registry.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        expected = {pair: kernel.entry(*pair) for pair in pairs}
        assert registry.kernel_stats["cross_evictions"] > 0
        assert store._spill_bytes <= 2 * rows * WORD_BYTES
        assert len(store) == 1, "spills should have been flushed to disk"
        store.snapshot_registry(registry)
        fresh = GammaKernelRegistry()
        KernelSnapshotStore(tmp_path).warm_registry(fresh)
        restored = fresh.kernels[0]
        passes = restored.counters["grouping_passes"]
        for pair in pairs:
            assert freeze(restored.entry(*pair)) == freeze(expected[pair])
        assert restored.counters["grouping_passes"] == passes

    def test_clear_removes_snapshots(self, tmp_path):
        registry = GammaKernelRegistry()
        relation = ModuleRelation.random("P", seed=33)
        kernel = registry.ensure_kernel(relation.structure_signature)
        kernel.entry((), ())
        store = KernelSnapshotStore(tmp_path)
        store.snapshot_registry(registry)
        assert store.clear() == 1
        assert len(store) == 0


class TestRegistryWideLRU:
    def test_cross_kernel_eviction_follows_global_lru_order(self):
        # Two distinct structures with the same row count, so every
        # partition entry costs the same and the LRU math is exact.
        rel_a = ModuleRelation.random("A", n_inputs=2, n_outputs=2, seed=41)
        rel_b = ModuleRelation.random("B", n_inputs=2, n_outputs=3, seed=41)
        rows = rel_a.structure_signature.row_count
        assert rows == rel_b.structure_signature.row_count
        registry = GammaKernelRegistry(total_budget_bytes=3 * rows * WORD_BYTES)
        kernel_a = registry.ensure_kernel(rel_a.structure_signature)
        kernel_b = registry.ensure_kernel(rel_b.structure_signature)

        kernel_a.partition((0,))  # caches a:() then a:(0,)
        kernel_b.partition((0,))  # caches b:(), b:(0,) -> evicts a:() (oldest)
        assert registry.kernel_stats["cross_evictions"] == 1
        kernel_a.partition((0,))  # touch: a:(0,) becomes most recent
        kernel_b.partition((1,))  # b:() hit, inserts b:(1,) -> evicts b:(0,)
        assert registry.kernel_stats["cross_evictions"] == 2

        # a:(0,) survived because it was touched after b:(0,)...
        refinements = kernel_a.counters["partition_refinements"]
        kernel_a.partition((0,))
        assert kernel_a.counters["partition_refinements"] == refinements
        # ...while b:(0,) (globally least recent) was the one evicted.
        refinements = kernel_b.counters["partition_refinements"]
        kernel_b.partition((0,))
        assert kernel_b.counters["partition_refinements"] == refinements + 1

    def test_budgeted_results_stay_correct(self):
        relation = ModuleRelation.random("P", n_inputs=3, n_outputs=2, seed=42)
        reference = GammaKernelRegistry()
        budgeted = GammaKernelRegistry(total_budget_bytes=256)
        kernel_ref = reference.ensure_kernel(relation.structure_signature)
        kernel_tiny = budgeted.ensure_kernel(relation.structure_signature)
        pairs = all_visibility_pairs(relation)
        for pair in pairs + pairs[::-1]:
            assert freeze(kernel_tiny.entry(*pair)) == freeze(kernel_ref.entry(*pair))
        assert budgeted.kernel_stats["cross_evictions"] > 0
        assert budgeted.kernel_stats["bytes_in_use"] <= 256 + relation.structure_signature.row_count * 3 * WORD_BYTES

    def test_released_kernel_leaves_the_global_lru(self):
        registry = GammaKernelRegistry(total_budget_bytes=10_000)
        relation = ModuleRelation.random("P", seed=43, registry=registry)
        relation.achieved_gamma(set())
        assert registry._lru_bytes > 0
        kernel = relation.kernel
        relation.bind_registry(GammaKernelRegistry())  # detach + release
        assert registry._lru_bytes == 0
        assert kernel.structure not in [k.structure for k in registry.kernels]


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_and_batch_retried(self, tmp_path):
        relations = [
            ModuleRelation.random(f"C{i}", n_inputs=2, n_outputs=2, seed=600 + i)
            for i in range(6)
        ]
        requests = [req for r in relations for req in entry_requests(r)]
        with ShardCoordinator(2, snapshot_dir=str(tmp_path)) as coordinator:
            baseline = coordinator.gammas(requests)
            coordinator.inject_crash(0)
            coordinator.inject_crash(1)
            assert coordinator.gammas(requests) == baseline
            assert coordinator.worker_restarts >= 1
            assert any(report.retried for report in coordinator.shard_reports())
            stats = coordinator.service_stats()
            assert stats["worker_restarts"] >= 1
            assert stats["retried_batches"] >= 1

    def test_one_crashed_server_is_reforked_and_matches_in_process(self):
        relations = [
            ModuleRelation.random(f"S{i}", n_inputs=2, n_outputs=2, seed=620 + i)
            for i in range(4)
        ]
        signatures = [r.structure_signature.signature for r in relations]
        assert {shard_of(signature, 2) for signature in signatures} == {0, 1}
        requests = [req for r in relations for req in entry_requests(r)]
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        with ShardCoordinator(2) as coordinator:
            assert coordinator.gammas(requests) == expected
            # No snapshot directory: the re-forked server holds no
            # structure, so the coordinator re-ships the lost shard's
            # structures by value.
            coordinator.inject_crash(0)
            assert coordinator.gammas(requests) == expected
            assert coordinator.worker_restarts == 1
            assert any(report.retried for report in coordinator.shard_reports())

    def test_stale_error_message_does_not_poison_next_call(self):
        relation = ModuleRelation.random("P", seed=45)
        signature = relation.structure_signature.signature
        coordinator = ShardCoordinator(2)
        try:
            # A batch sent past the coordinator, for a structure no
            # server holds: the server answers with an error for a batch
            # id no request owns.  It reaches the coordinator first on
            # the shard's connection and must be discarded, not raised
            # against this (unrelated) evaluation.
            coordinator.transport.submit(
                GammaBatch(
                    999_999,
                    shard_of(signature, 2),
                    (GammaTask(999_999, "ab" * 16, (), ()),),
                )
            )
            assert coordinator.gammas(entry_requests(relation))
            assert coordinator.transport.fetch_stats()["server_errors"] == 1
        finally:
            coordinator.close(snapshot=False)

    @pytest.mark.parametrize(
        ("name", "value"),
        [("start_method", "fork"), ("rebalance", False), ("ring_slack", 2)],
    )
    def test_removed_transport_keywords_raise_type_error(self, name, value):
        with pytest.raises(TypeError, match=name):
            ShardCoordinator(2, **{name: value})
        with pytest.raises(TypeError, match=name):
            build_transport(2, **{name: value})

    def test_crash_injection_requires_workers(self):
        with pytest.raises(ServiceError):
            ShardCoordinator(0).inject_crash(0)

    def test_give_up_after_max_restarts(self):
        coordinator = ShardCoordinator(1, max_restarts=0, task_timeout=10.0)
        try:
            relation = ModuleRelation.random("P", seed=44)
            coordinator.inject_crash(0)
            from repro.errors import WorkerCrashError

            with pytest.raises(WorkerCrashError):
                coordinator.evaluate(entry_requests(relation))
        finally:
            coordinator.close(snapshot=False)

    def test_server_past_its_budget_fails_over_to_the_survivor(self):
        relation = ModuleRelation.random("P", seed=44)
        home = shard_of(relation.structure_signature.signature, 2)
        requests = entry_requests(relation)
        with ShardCoordinator(0) as oracle:
            expected = oracle.gammas(requests)
        with ShardCoordinator(2, max_restarts=0, task_timeout=10.0) as coordinator:
            assert coordinator.gammas(requests) == expected
            coordinator.inject_crash(home)
            assert coordinator.gammas(requests) == expected
            assert coordinator.transport.lost_endpoints == (home,)
            assert coordinator.transport.endpoint_of(home) == 1 - home


class TestSecureViewIntegration:
    def _requirements(self):
        requirements = WorkflowPrivacyRequirements()
        for index, gamma in ((0, 2), (1, 3)):
            requirements.add(
                ModuleRelation.random(
                    f"M{index}", n_inputs=2, n_outputs=2, domain_size=3, seed=70 + index
                ),
                gamma,
            )
        return requirements

    def test_exact_secure_view_identical_with_and_without_service(self, sharded):
        baseline = exact_secure_view(self._requirements())
        via_inprocess = exact_secure_view(
            self._requirements(), service=ShardCoordinator(0)
        )
        via_sharded = exact_secure_view(self._requirements(), service=sharded)
        for candidate in (via_inprocess, via_sharded):
            assert candidate.hidden_labels == baseline.hidden_labels
            assert candidate.cost == baseline.cost
            assert candidate.module_gammas == baseline.module_gammas
            assert candidate.evaluations == baseline.evaluations
            assert candidate.optimal

    def test_exact_secure_view_matches_exhaustive_enumeration(self):
        requirements = self._requirements()
        labels = requirements.all_labels()
        best = None
        for k in range(len(labels) + 1):
            for subset in itertools.combinations(labels, k):
                if requirements.satisfied_by(subset):
                    cost = requirements.cost_of(subset)
                    if best is None or cost < best:
                        best = cost
        result = exact_secure_view(self._requirements())
        assert best is not None
        assert result.cost == pytest.approx(best)

    def test_unsatisfied_indices_is_monotone_and_restrictable(self):
        requirements = self._requirements()
        labels = requirements.all_labels()
        empty = requirements.unsatisfied_indices(())
        everything = requirements.unsatisfied_indices(labels)
        assert everything == ()
        assert set(everything) <= set(empty)
        # Restricting to already-satisfied indices skips the others.
        assert requirements.unsatisfied_indices((), indices=()) == ()

    def test_single_module_checks_stay_on_the_local_kernel(self):
        class CountingService:
            def __init__(self):
                self.calls = 0
                self.inner = ShardCoordinator(0)

            def gammas(self, requests):
                self.calls += 1
                return self.inner.gammas(requests)

        requirements = self._requirements()
        service = CountingService()
        local = requirements.unsatisfied_indices(())
        assert requirements.unsatisfied_indices((), service=service) == local
        assert service.calls == 1
        for index in range(len(requirements.requirements)):
            assert requirements.unsatisfied_indices(
                (), indices=(index,), service=service
            ) == requirements.unsatisfied_indices((), indices=(index,))
        assert service.calls == 1

    def test_workflow_guarantees_with_service_match_local(self, sharded):
        requirements = self._requirements()
        result = exact_secure_view(requirements)
        local = workflow_guarantees(self._requirements(), result.hidden_labels)
        remote = workflow_guarantees(
            self._requirements(), result.hidden_labels, service=sharded
        )
        assert [r.summary() for r in local] == [r.summary() for r in remote]


class _KeyRecordingCoordinator(ShardCoordinator):
    """An in-process coordinator that records every key ``gammas`` is asked."""

    def __init__(self) -> None:
        super().__init__(0)
        self.keys: set[tuple] = set()

    def gammas(self, requests):
        requests = list(requests)
        self.keys.update(
            (structure.signature, tuple(inputs), tuple(outputs))
            for structure, inputs, outputs in requests
        )
        return super().gammas(requests)


class TestDirectInProcessPath:
    """``ShardCoordinator(0)`` answers synchronous calls from its kernels."""

    @staticmethod
    def _large_requirements():
        # Two 10 000-row modules: 4 inputs and 2 outputs of domain 10,
        # with the deeper of large_cold_inproc's Gamma targets.
        requirements = WorkflowPrivacyRequirements()
        for index, gamma in ((0, 8), (1, 20)):
            requirements.add(
                ModuleRelation.random(
                    f"L{index}", n_inputs=4, n_outputs=2, domain_size=10, seed=90 + index
                ),
                gamma,
            )
        return requirements

    def test_inprocess_solve_computes_each_key_once(self):
        baseline = exact_secure_view(self._large_requirements())
        requirements = self._large_requirements()
        service = _KeyRecordingCoordinator()
        result = exact_secure_view(requirements, service=service)
        assert (
            result.hidden_labels,
            result.cost,
            result.module_gammas,
            result.evaluations,
        ) == (
            baseline.hidden_labels,
            baseline.cost,
            baseline.module_gammas,
            baseline.evaluations,
        )
        # Every Gamma of the solve went to the service: the relations'
        # own kernels never partitioned or counted anything.
        for requirement in requirements.requirements:
            stats = requirement.relation.kernel_stats
            assert stats["grouping_passes"] == 0
            assert stats["partition_refinements"] == 0
        assert service.keys
        assert service.kernel_stats()["grouping_passes"] == len(service.keys)

    def test_concurrent_direct_calls_match_sequential(self):
        relations = [
            ModuleRelation.random(
                f"T{index}", n_inputs=4, n_outputs=2, domain_size=5, seed=40 + index
            )
            for index in range(3)
        ]
        # The two callers start on the same structure, cold, at once.
        gamma_requests = entry_requests(relations[0]) + entry_requests(relations[1])
        entry_reqs = entry_requests(relations[0]) + entry_requests(relations[2])
        distinct_keys = len(set(gamma_requests) | set(entry_reqs))

        def entries_of(results):
            return [(r.gamma, r.counts, r.partition) for r in results]

        with ShardCoordinator(0) as oracle:
            expected = {
                "gammas": oracle.gammas(gamma_requests),
                "entries": entries_of(oracle.evaluate(entry_reqs, want="entry")),
            }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = ShardCoordinator(0)
                calls = {
                    "gammas": lambda: shared.gammas(gamma_requests),
                    "entries": lambda: entries_of(
                        shared.evaluate(entry_reqs, want="entry")
                    ),
                }
                barrier = threading.Barrier(len(calls))
                outcomes: dict[str, list] = {}

                def run(name):
                    barrier.wait()
                    outcomes[name] = calls[name]()

                threads = [
                    threading.Thread(target=run, args=(name,)) for name in calls
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                assert outcomes == expected
                # Serialized on the coordinator lock: no key was computed
                # by both callers.
                assert shared.kernel_stats()["grouping_passes"] == distinct_keys
        finally:
            sys.setswitchinterval(interval)

    def test_in_process_only_for_the_inprocess_transport(self, tmp_path):
        with ShardCoordinator(0) as local:
            assert local.in_process
        with ShardCoordinator(1, task_timeout=60.0) as pool:
            assert not pool.in_process
        with GammaServer(("unix", str(tmp_path / "gamma.sock"))) as server:
            for coordinator in (
                ShardCoordinator(address=server.address, task_timeout=60.0),
                ShardCoordinator(endpoints=[server.address], task_timeout=60.0),
            ):
                with coordinator:
                    assert not coordinator.in_process

    def test_direct_calls_count_as_batches_and_keep_every_stat(self):
        requests = entry_requests(ModuleRelation.random("P", seed=23))
        direct = ShardCoordinator(0)
        assert direct.gammas(requests) == [
            result.gamma for result in direct.evaluate(requests)
        ]
        assert direct.gammas([]) == []
        batched = ShardCoordinator(0)
        for _ in range(2):
            batched.collect(batched.submit(requests))
        direct_stats, batched_stats = direct.service_stats(), batched.service_stats()
        # One batch of its tasks per non-empty direct call.
        assert (direct_stats["batches"], direct_stats["tasks"]) == (
            2,
            2 * len(requests),
        )
        assert set(direct_stats) == set(batched_stats)
        # Direct calls add no latency sample: the percentiles read 0.0.
        assert direct.latency_percentiles() == {}
        assert direct_stats["p50_ms"] == direct_stats["max_ms"] == 0.0
        assert direct.shard_reports() == ()
        assert {
            key: value for key, value in direct.kernel_stats().items() if "_ms" not in key
        } == {
            key: value for key, value in batched.kernel_stats().items() if "_ms" not in key
        }

    def test_direct_calls_validate_want_and_closing(self):
        coordinator = ShardCoordinator(0)
        requests = entry_requests(ModuleRelation.random("P", seed=24))
        with pytest.raises(ServiceError, match="payload kind"):
            coordinator.evaluate(requests, want="sample")
        coordinator.close()
        with pytest.raises(ServiceError, match="closed"):
            coordinator.gammas(requests)


class TestExperimentE9:
    def test_small_sweep_matches_inprocess_and_warm_skips(self):
        config = e9_sharding.E9Config(
            workers=(0, 2), modules=(3,), budgets=(None,), seed=5
        )
        rows = e9_sharding.run(config)
        # (workers=0 + two dispatch modes for workers=2) x (cold, warm)
        assert len(rows) == 6
        assert all(row["matches_inprocess"] for row in rows)
        assert {row["dispatch"] for row in rows} == {
            "inprocess",
            "legacy",
            "coalesced",
        }
        coalesced_cold = [
            row
            for row in rows
            if row["dispatch"] == "coalesced" and row["start"] == "cold"
        ]
        assert all(row["coalesced_batches"] > 0 for row in coalesced_cold)
        # Coalescing buys strictly fewer IPC round trips than the
        # legacy one-batch-per-request path on the same workload.
        legacy_cold = [
            row
            for row in rows
            if row["dispatch"] == "legacy" and row["start"] == "cold"
        ]
        assert min(row["batches"] for row in coalesced_cold) < min(
            row["batches"] for row in legacy_cold
        )
        headline = e9_sharding.headline(rows)
        assert headline["all_match_inprocess"] is True
        assert headline["warm_skip_fraction"] >= 0.9
        assert headline["parallel_speedup"] > 0
        assert headline["coalesced_speedup"] > 0

    def test_workers_override_collapses_the_sweep(self):
        config = e9_sharding.E9Config(
            workers=(0, 2, 4), modules=(2,), budgets=(None,), seed=6
        )
        rows = e9_sharding.run(config, workers=0)
        assert {row["workers"] for row in rows} == {0}
