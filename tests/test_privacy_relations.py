"""Tests for module relations and the Gamma-privacy semantics.

Covers :class:`ModuleRelation`, the exact Gamma-cost frontier over one,
and :class:`KernelRelation`, the relation-shaped adapter E12 sweeps at
scale.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import PrivacyError
from repro.execution.behaviors import TableBehavior
from repro.experiments.workloads import scaled_structure
from repro.privacy.kernel_registry import GammaKernelRegistry
from repro.privacy.module_privacy import exact_safe_subset
from repro.privacy.relations import Attribute, KernelRelation, ModuleRelation
from repro.privacy.tradeoff import gamma_cost_frontier


class TestAttribute:
    def test_validation(self):
        with pytest.raises(PrivacyError):
            Attribute("a", (), role="input")
        with pytest.raises(PrivacyError):
            Attribute("a", (1,), role="sideways")
        with pytest.raises(PrivacyError):
            Attribute("a", (1,), role="input", weight=-1.0)

    def test_role_predicates(self):
        assert Attribute("a", (1,), role="input").is_input
        assert Attribute("a", (1,), role="output").is_output


class TestConstruction:
    def test_requires_inputs_outputs_and_rows(self):
        attr_in = Attribute("x", (0, 1), role="input")
        attr_out = Attribute("y", (0, 1), role="output")
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [], [attr_out], {(0,): (0,)})
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [attr_in], [], {(0,): (0,)})
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [attr_in], [attr_out], {})

    def test_arity_and_domain_checks(self):
        attr_in = Attribute("x", (0, 1), role="input")
        attr_out = Attribute("y", (0, 1), role="output")
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [attr_in], [attr_out], {(0, 1): (0,)})
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [attr_in], [attr_out], {(0,): (0, 1)})
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [attr_in], [attr_out], {(7,): (0,)})

    def test_duplicate_attribute_names_rejected(self):
        a = Attribute("x", (0, 1), role="input")
        b = Attribute("x", (0, 1), role="output")
        with pytest.raises(PrivacyError):
            ModuleRelation("M", [a], [b], {(0,): (0,)})

    def test_from_function_enumerates_domains(self):
        relation = ModuleRelation.from_function(
            "ADD",
            [Attribute("a", (0, 1), role="input"), Attribute("b", (0, 1), role="input")],
            [Attribute("s", (0, 1, 2), role="output")],
            lambda key: (key[0] + key[1],),
        )
        assert len(relation.rows) == 4
        assert relation.output_for((1, 1)) == (2,)

    def test_from_table_behavior(self):
        behavior = TableBehavior(
            ("a", "b"), ("c",), {(x, y): ((x * y) % 2,) for x in (0, 1) for y in (0, 1)}
        )
        relation = ModuleRelation.from_table_behavior("M", behavior, weights={"c": 4.0})
        assert relation.input_names() == ("a", "b")
        assert relation.attribute("c").weight == 4.0
        assert relation.output_for((1, 1)) == (1,)

    def test_random_relation_is_total_and_deterministic(self):
        a = ModuleRelation.random("R", n_inputs=2, n_outputs=1, domain_size=3, seed=5)
        b = ModuleRelation.random("R", n_inputs=2, n_outputs=1, domain_size=3, seed=5)
        assert a.rows == b.rows
        assert len(a.rows) == 9


class TestGammaSemantics:
    def test_hiding_nothing_reveals_everything(self, xor_relation):
        assert xor_relation.achieved_gamma(set()) == 1
        assert xor_relation.candidate_outputs((0, 1), set()) == 1

    def test_hiding_output_gives_full_output_space(self, xor_relation):
        assert xor_relation.achieved_gamma({"c"}) == 2
        assert xor_relation.is_safe({"c"}, 2)

    def test_hiding_one_input_of_xor_is_enough(self, xor_relation):
        # XOR restricted to a known single input still has both outputs
        # possible, so hiding either input achieves Gamma = 2.
        assert xor_relation.achieved_gamma({"a"}) == 2
        assert xor_relation.achieved_gamma({"b"}) == 2

    def test_max_gamma_is_output_space(self, xor_relation, weighted_relation):
        assert xor_relation.max_gamma() == 2
        assert weighted_relation.max_gamma() == weighted_relation.output_space_size() == 9

    def test_monotonicity_of_hiding(self, weighted_relation):
        smaller = weighted_relation.achieved_gamma({"u"})
        larger = weighted_relation.achieved_gamma({"u", "x"})
        assert larger >= smaller

    def test_candidate_outputs_requires_known_row_and_attributes(self, xor_relation):
        with pytest.raises(PrivacyError):
            xor_relation.candidate_outputs((5, 5), set())
        with pytest.raises(PrivacyError):
            xor_relation.achieved_gamma({"nope"})
        with pytest.raises(PrivacyError):
            xor_relation.is_safe({"a"}, 0)

    def test_hiding_cost_uses_weights(self, weighted_relation):
        assert weighted_relation.hiding_cost({"x"}) == 1.0
        assert weighted_relation.hiding_cost({"y", "v"}) == 8.0

    def test_constant_module_is_never_private_on_inputs_alone(self):
        relation = ModuleRelation(
            "CONST",
            [Attribute("x", (0, 1, 2), role="input")],
            [Attribute("y", (0, 1), role="output")],
            {(i,): (1,) for i in (0, 1, 2)},
        )
        # Hiding the input cannot help: the output is always 1.
        assert relation.achieved_gamma({"x"}) == 1
        # Hiding the output is the only way to reach Gamma = 2.
        assert relation.achieved_gamma({"y"}) == 2

    def test_attribute_lookup(self, weighted_relation):
        assert weighted_relation.attribute("v").weight == 5.0
        with pytest.raises(PrivacyError):
            weighted_relation.attribute("zzz")
        assert weighted_relation.attribute_names() == ("x", "y", "u", "v")
        assert "ModuleRelation" in repr(weighted_relation)


def scaled_relation(
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


def test_frontier_points_are_exact():
    relation = ModuleRelation.random(
        "M", n_inputs=2, n_outputs=2, domain_size=3, seed=5
    )
    points = gamma_cost_frontier(relation, gammas=(2, 3))
    assert [point.gamma for point in points] == [2, 3]
    for point in points:
        assert not hasattr(point, "ci_half_width")
        assert not hasattr(point, "confidence")
        exact = exact_safe_subset(relation, point.gamma)
        assert (point.cost, point.hidden) == (exact.cost, exact.hidden)
        assert point.achieved_gamma == relation.achieved_gamma(point.hidden)
        assert point.achieved_gamma >= point.gamma


class TestKernelRelationAdapter:
    def test_adapter_surface(self):
        relation = scaled_relation(rows=100, seed=2)
        assert relation.attribute_names() == ("i0", "i1", "o0", "o1")
        vi, vo = relation.visibility_of(("i1", "o0"))
        assert vi == (0,) and vo == (1,)
        assert relation.hiding_cost(("i1", "o0")) == 2.0
        assert relation.max_gamma() >= relation.achieved_gamma(("i0",))
        assert "rows=100" in repr(relation)

    def test_unknown_attribute_rejected(self):
        with pytest.raises(PrivacyError):
            scaled_relation(rows=40).visibility_of(("nope",))

    def test_weights_override_costs(self):
        structure = scaled_structure(
            rows=60, n_inputs=2, n_outputs=1, domain_size=3, seed=1
        )
        relation = KernelRelation("W", structure, weights={"i0": 5.0})
        assert relation.hiding_cost(("i0", "o0")) == 6.0


def _adapter_names(relation: ModuleRelation, hidden) -> tuple[str, ...]:
    """``relation``'s attribute names mapped to the adapter's positional ones."""
    positional = {
        attribute.name: f"i{index}" for index, attribute in enumerate(relation.inputs)
    }
    positional.update(
        (attribute.name, f"o{index}")
        for index, attribute in enumerate(relation.outputs)
    )
    return tuple(positional[name] for name in hidden)


class TestKernelRelationMatchesModuleRelation:
    """The adapter over a relation's structure answers exactly as the
    relation itself -- the exact path E12 times is the solvers' path."""

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_every_hidden_set_has_the_same_gamma(self, seed):
        relation = ModuleRelation.random(
            "M", n_inputs=2, n_outputs=2, domain_size=3, seed=seed
        )
        adapter = KernelRelation("K", relation.structure_signature)
        names = [attribute.name for attribute in relation.attributes]
        for size in range(len(names) + 1):
            for hidden in itertools.combinations(names, size):
                expected = relation.reference_achieved_gamma(hidden)
                assert relation.achieved_gamma(hidden) == expected
                assert adapter.achieved_gamma(
                    _adapter_names(relation, hidden)
                ) == expected

    def test_frontier_matches_the_module_relation(self):
        relation = ModuleRelation.random(
            "M", n_inputs=2, n_outputs=2, domain_size=3, seed=6
        )
        adapter = KernelRelation("K", relation.structure_signature)
        gammas = (2, 3, 6)
        expected = gamma_cost_frontier(relation, gammas=gammas)
        got = gamma_cost_frontier(adapter, gammas=gammas)
        assert len(got) == len(gammas)
        assert [(p.gamma, p.cost, p.achieved_gamma) for p in got] == [
            (p.gamma, p.cost, p.achieved_gamma) for p in expected
        ]
        for point in got:
            assert adapter.achieved_gamma(point.hidden) == point.achieved_gamma

    def test_max_gamma_is_the_hidden_output_space(self):
        relation = scaled_relation(rows=200, seed=5)
        structure = relation.structure_signature
        space = 1
        for size in structure.output_domain_sizes:
            space *= size
        assert relation.max_gamma() == space

    def test_registry_shares_one_kernel_per_structure(self):
        structure = scaled_structure(
            rows=80, n_inputs=2, n_outputs=1, domain_size=3, seed=4
        )
        registry = GammaKernelRegistry()
        first = KernelRelation("A", structure, registry=registry)
        second = KernelRelation("B", structure, registry=registry)
        assert first.kernel is second.kernel
        assert first.kernel is registry.kernel_for(structure)
        assert KernelRelation("C", structure).kernel is not first.kernel
