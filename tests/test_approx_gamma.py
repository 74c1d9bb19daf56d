"""Sampled Gamma interval query tests.

Covers the estimator's statistical contract and its plumbing:

* **soundness** -- the interval's lower bound never exceeds the exact
  Gamma (it is deterministic), and a Hypothesis sweep checks the exact
  value lands inside the interval at >= the nominal confidence across
  sampling seeds;
* **degeneracy** -- a budget covering every row reproduces the exact
  kernel answer byte for byte;
* **oracle equivalence** -- kernels on the vectorized table and on the
  tuple/dict reference table produce identical interval payloads, and
  the batched ``exhaust_distincts`` stratum pass agrees with
  ``sample_distincts`` over the full strata;
* **local only** -- the same :class:`SampleSpec` hits the kernel's
  sample cache and a fixed seed reproduces on a fresh kernel; the
  estimator takes no service, no solver is named ``"approx"``, the
  frontier reports exact points only, and task/result wire forms have
  5 elements: nothing sampled crosses the service wire.
"""

from __future__ import annotations

import pytest
from columnar_oracle import use_table
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PrivacyError, ServiceError
from repro.experiments.workloads import scaled_structure
from repro.privacy.approx import (
    ApproxGammaEstimator,
    GammaInterval,
    KernelRelation,
    SampleSpec,
    empirical_bernstein_epsilon,
    hoeffding_epsilon,
    kernel_sample_interval,
)
from repro.privacy.module_privacy import exact_safe_subset, solve_safe_subset
from repro.privacy.relations import ModuleRelation
from repro.privacy.tradeoff import gamma_cost_frontier
from repro.service import ShardCoordinator
from repro.service.protocol import (
    WANT_ENTRY,
    GammaTask,
    TaskResult,
    batch_from_wire,
    result_from_wire,
    result_to_wire,
    task_from_wire,
    task_to_wire,
)


def small_relation(seed: int = 11) -> ModuleRelation:
    return ModuleRelation.random(
        "M", n_inputs=2, n_outputs=2, domain_size=3, seed=seed
    )


def sampled_relation(
    *, rows: int = 360, seed: int = 3, noise: float = 0.1
) -> KernelRelation:
    structure = scaled_structure(
        rows=rows,
        n_inputs=2,
        n_outputs=2,
        domain_size=4,
        seed=seed,
        noise=noise,
    )
    return KernelRelation(f"S{seed}", structure)


class TestConcentrationBounds:
    def test_hoeffding_shrinks_with_samples(self):
        assert hoeffding_epsilon(400, 0.05) < hoeffding_epsilon(100, 0.05)
        assert hoeffding_epsilon(0, 0.05) == float("inf")

    def test_bernstein_wins_at_extreme_rates(self):
        # Near-zero variance: the empirical-Bernstein bound beats the
        # distribution-free Hoeffding rate.
        assert empirical_bernstein_epsilon(0.01, 500, 0.05) < hoeffding_epsilon(
            500, 0.05
        )
        assert empirical_bernstein_epsilon(0.5, 1, 0.05) == float("inf")

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, 2.0])
    def test_bounds_reject_bad_delta(self, delta):
        with pytest.raises(PrivacyError):
            hoeffding_epsilon(10, delta)
        with pytest.raises(PrivacyError):
            empirical_bernstein_epsilon(0.5, 10, delta)


class TestSampleSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"budget": 0},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"threshold": 0},
            {"target_half_width": -1.0},
            {"max_rounds": 0},
            {"min_block_samples": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(PrivacyError):
            SampleSpec(**kwargs)

    def test_cache_token_distinguishes_none_fields(self):
        tokens = {
            SampleSpec().cache_token(),
            SampleSpec(threshold=2).cache_token(),
            SampleSpec(target_half_width=0.5).cache_token(),
            SampleSpec(max_rounds=1).cache_token(),
            SampleSpec(seed=1).cache_token(),
        }
        assert len(tokens) == 5


class TestIntervalSoundness:
    def test_lower_bound_is_deterministically_sound(self):
        relation = sampled_relation()
        for hidden in [("i0",), ("o0",), ("i1", "o1"), ("i0", "i1", "o0")]:
            exact = relation.achieved_gamma(hidden)
            for seed in range(6):
                box = ApproxGammaEstimator(
                    relation,
                    budget=24,
                    seed=seed,
                    max_rounds=1,
                    min_block_samples=2,
                ).interval(hidden)
                assert box.lower <= exact
                assert box.lower <= box.upper

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation_seed=st.integers(min_value=0, max_value=10_000))
    def test_exact_inside_interval_at_nominal_rate(self, relation_seed):
        confidence = 0.9
        relation = sampled_relation(rows=240, seed=relation_seed)
        hidden = ("i0", "o1")
        exact = relation.achieved_gamma(hidden)
        trials = 20
        contained = sum(
            ApproxGammaEstimator(
                relation,
                budget=24,
                confidence=confidence,
                seed=sampling_seed,
                max_rounds=1,
                min_block_samples=2,
            )
            .interval(hidden)
            .contains(exact)
            for sampling_seed in range(trials)
        )
        assert contained / trials >= confidence

    def test_budget_covering_rows_degenerates_to_exact(self):
        relation = sampled_relation(rows=180)
        rows = relation.kernel.structure.row_count
        for hidden in [("i0",), ("o0", "i1")]:
            exact = relation.achieved_gamma(hidden)
            payloads = set()
            for seed in (0, 99):
                box = ApproxGammaEstimator(
                    relation, budget=rows, seed=seed
                ).interval(hidden)
                assert box.exact
                assert box.lower == box.upper == exact
                payloads.add(box)
            # Exhaustion erases the seed: byte-for-byte identical.
            assert len(payloads) == 1

    def test_threshold_questions_always_decide(self):
        relation = sampled_relation()
        estimator = ApproxGammaEstimator(
            relation, budget=16, min_block_samples=2
        )
        for threshold in (2, 4, 16):
            box = estimator.interval(("i0", "o0"), threshold=threshold)
            assert not (box.lower < threshold <= box.upper)

    def test_interval_payload_roundtrip(self):
        relation = sampled_relation(rows=200)
        spec = SampleSpec(budget=24, seed=2, min_block_samples=2)
        vi, vo = relation.visibility_of(("i0", "o1"))
        interval = kernel_sample_interval(relation.kernel, vi, vo, spec)
        # The payload the kernel LRU cached for this interval: a miss
        # here would mean the lookup key drifted from the one it used.
        cached = relation.kernel.sample_entry(
            (vi, vo) + spec.cache_token(),
            lambda: pytest.fail("the interval payload was not cached"),
        )
        assert GammaInterval.from_payload(cached, spec.confidence) == interval
        box = GammaInterval(
            lower=2,
            upper=7,
            confidence=0.95,
            samples_used=64,
            rounds=2,
            exact=False,
            blocks=9,
            sampled_blocks=4,
        )
        assert box.half_width == 2.5
        assert box.contains(2) and box.contains(7) and not box.contains(8)

    def test_estimator_validates_eagerly(self):
        with pytest.raises(PrivacyError):
            ApproxGammaEstimator(sampled_relation(), budget=0)


class TestBackendEquivalence:
    def _interval(self, table: str) -> GammaInterval:
        relation = sampled_relation(rows=200)
        use_table(relation.kernel, table)
        spec = SampleSpec(budget=24, seed=2, min_block_samples=2)
        vi, vo = relation.visibility_of(("i0", "o1"))
        return kernel_sample_interval(relation.kernel, vi, vo, spec)

    def test_interval_payloads_identical_across_backends(self):
        assert self._interval("pure") == self._interval("numpy")

    @pytest.mark.parametrize("table", ["pure", "numpy"])
    def test_exhaust_matches_full_sample(self, table):
        relation = sampled_relation(rows=150)
        kernel = use_table(relation.kernel, table)
        vi, vo = relation.visibility_of(("i0",))
        partition = kernel.partition(vi)
        order, offsets = kernel.strata(vi)
        blocks = list(range(len(offsets) - 1))
        exhausted = kernel.table.exhaust_distincts(
            partition, order, offsets, blocks, vo
        )
        every_row = [
            int(order[position])
            for block in blocks
            for position in range(offsets[block], offsets[block + 1])
        ]
        full = kernel.table.sample_distincts(partition, every_row, vo)
        assert exhausted == full
        assert kernel.table.exhaust_distincts(
            partition, order, offsets, [], vo
        ) == {}


class TestLocalOnly:
    def test_same_spec_hits_sample_cache(self):
        relation = sampled_relation(rows=120, seed=8)
        estimator = ApproxGammaEstimator(relation, budget=16, seed=4)
        estimator.interval(("i0",))
        before = dict(relation.kernel.counters)
        estimator.interval(("i0",))
        after = dict(relation.kernel.counters)
        assert after["sample_hits"] == before["sample_hits"] + 1
        assert after["sample_passes"] == before["sample_passes"]
        # A different seed is a different cache entry.
        ApproxGammaEstimator(relation, budget=16, seed=5).interval(("i0",))
        assert relation.kernel.counters["sample_passes"] == (
            after["sample_passes"] + 1
        )

    def test_approx_is_not_a_solver(self):
        with pytest.raises(PrivacyError, match="unknown solver"):
            solve_safe_subset(small_relation(), 2, solver="approx")

    def test_estimator_takes_no_service(self):
        with pytest.raises(TypeError):
            ApproxGammaEstimator(
                small_relation(), budget=16, service=ShardCoordinator(0)
            )

    def test_fixed_seed_reproduces_on_a_fresh_kernel(self):
        # The seed alone fixes the interval: two relations built apart
        # (so two kernels, two sample caches) answer byte for byte alike,
        # and the estimator adds nothing to the kernel-level query.
        spec = SampleSpec(budget=16, seed=9, min_block_samples=2)
        first, second = small_relation(seed=7), small_relation(seed=7)
        vi, vo = first.visibility_of(("M.in0", "M.out0"))
        direct = kernel_sample_interval(first.kernel, vi, vo, spec)
        again = kernel_sample_interval(second.kernel, vi, vo, spec)
        assert again == direct
        estimated = ApproxGammaEstimator(
            small_relation(seed=7), budget=16, seed=9, min_block_samples=2
        ).interval(("M.in0", "M.out0"))
        assert estimated == direct

    def test_frontier_points_are_exact(self):
        relation = small_relation(seed=5)
        points = gamma_cost_frontier(relation, gammas=(2, 3))
        assert [point.gamma for point in points] == [2, 3]
        for point in points:
            assert not hasattr(point, "ci_half_width")
            assert not hasattr(point, "confidence")
            exact = exact_safe_subset(relation, point.gamma)
            assert (point.cost, point.hidden) == (exact.cost, exact.hidden)
            assert point.achieved_gamma == relation.achieved_gamma(point.hidden)
            assert point.achieved_gamma >= point.gamma


class TestWireCompat:
    def test_task_wire_form_has_five_elements(self):
        task = GammaTask(1, "a" * 64, (0,), (1,), "gamma")
        wire = task_to_wire(task)
        assert len(wire) == 5
        assert task_from_wire(wire) == task
        with pytest.raises(ServiceError):
            task_from_wire(wire[:4])
        # The old sample form: a 6th element carrying a spec's wire list.
        with pytest.raises(ServiceError):
            task_from_wire(wire[:4] + ["sample", [16, 0.95, 0, None, None, None, 8]])

    def test_entry_task_keeps_the_five_element_form(self):
        task = GammaTask(5, "f" * 64, (), (0, 1), WANT_ENTRY)
        wire = task_to_wire(task)
        assert wire == [5, "f" * 64, [], [0, 1], WANT_ENTRY]
        assert task_from_wire(wire) == task

    def test_batch_refuses_a_six_element_task(self):
        plain = task_to_wire(GammaTask(1, "a" * 64, (0,), (1,), "gamma"))
        assert batch_from_wire([1, 0, 1, [plain], {}]).tasks[0].want == "gamma"
        with pytest.raises(ServiceError):
            batch_from_wire([1, 0, 1, [plain + [None]], {}])

    def test_task_validation(self):
        with pytest.raises(ServiceError):
            GammaTask(1, "c" * 64, (0,), (1,), "sample")
        with pytest.raises(ServiceError):
            task_from_wire([1, "c" * 64, [0], [1], "sample"])

    def test_result_roundtrips_and_rejects_the_six_element_form(self):
        result = TaskResult(3, "d" * 64, 2, (1, 2), (0, 1, 1))
        wire = result_to_wire(result)
        assert len(wire) == 5
        assert result_from_wire(wire) == result
        plain = TaskResult(4, "e" * 64, 7)
        assert result_from_wire(result_to_wire(plain)) == plain
        with pytest.raises(ServiceError):
            result_from_wire(result_to_wire(plain) + [[2, 5, 16, 1, 0, 3, 3]])


class TestKernelRelationAdapter:
    def test_adapter_surface(self):
        relation = sampled_relation(rows=100, seed=2)
        assert relation.attribute_names() == ("i0", "i1", "o0", "o1")
        vi, vo = relation.visibility_of(("i1", "o0"))
        assert vi == (0,) and vo == (1,)
        assert relation.hiding_cost(("i1", "o0")) == 2.0
        assert relation.max_gamma() >= relation.achieved_gamma(("i0",))
        assert "rows=100" in repr(relation)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(PrivacyError):
            sampled_relation(rows=40).visibility_of(("nope",))

    def test_weights_override_costs(self):
        structure = scaled_structure(
            rows=60, n_inputs=2, n_outputs=1, domain_size=3, seed=1
        )
        relation = KernelRelation("W", structure, weights={"i0": 5.0})
        assert relation.hiding_cost(("i0", "o0")) == 6.0
