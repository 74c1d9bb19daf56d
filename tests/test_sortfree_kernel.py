"""Sort-free kernel hot path versus the sort-based and tuple/dict oracles.

* **sort-based references** -- the counting-sort refinement and fused
  entry counting agree with the table's own ``reference_*``
  ``np.unique``/``argsort`` passes on random relations
  (Hypothesis) and on the degenerate single-block, all-distinct and
  wide-domain relations where the dense-key-space guard flips to the
  sort fallback;
* **the tuple/dict table** (``columnar_oracle.PureTable``) -- every
  ``NumpyTable`` primitive has an equivalence property against it, and
  a kernel running on it through ``install_table`` produces the same
  payloads, costs, eviction sequences and counters;
* **round-trips** -- partition and kernel-entry payloads freeze/thaw
  and preload without recomputation, and float ``*_ms`` timers survive
  the stats merge;
* **each entry case** -- the occupancy table on ``large_cold_inproc``'s
  10 000-row shape, one row per block, the fold fallback past the
  table's bound (a spy on ``_fold_output_codes`` shows which ran), no
  visible outputs and an empty partition, and swept kernel payloads
  identical to the tuple/dict table's.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
import pytest
from columnar_oracle import TABLES, PureTable, use_table
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.privacy import columnar
from repro.privacy.columnar import NumpyTable, freeze, thaw_entry
from repro.privacy.kernel_registry import (
    TIMING_STAT_KEYS,
    GammaKernelRegistry,
    RelationStructure,
)
from repro.privacy.relations import ModuleRelation
from repro.service.protocol import merge_kernel_stats

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _structure(draw_columns, *, input_domains, output_domains, rows):
    return RelationStructure(
        input_domain_sizes=tuple(input_domains),
        output_domain_sizes=tuple(output_domains),
        input_columns=tuple(
            tuple(draw_columns(domain, rows)) for domain in input_domains
        ),
        output_columns=tuple(
            tuple(draw_columns(domain, rows)) for domain in output_domains
        ),
    )


@st.composite
def random_structures(draw, max_rows=24, max_columns=3, max_domain=4):
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    n_inputs = draw(st.integers(min_value=1, max_value=max_columns))
    n_outputs = draw(st.integers(min_value=1, max_value=max_columns))
    input_domains = [
        draw(st.integers(min_value=1, max_value=max_domain))
        for _ in range(n_inputs)
    ]
    output_domains = [
        draw(st.integers(min_value=1, max_value=max_domain))
        for _ in range(n_outputs)
    ]

    def column(domain, count):
        return [
            draw(st.integers(min_value=0, max_value=domain - 1))
            for _ in range(count)
        ]

    return _structure(
        column, input_domains=input_domains, output_domains=output_domains,
        rows=rows,
    )


def degenerate_structures() -> list[RelationStructure]:
    """Single-block, all-distinct and wide-domain relations.

    A constant input column never splits the single block (the counting
    pass runs at its smallest key space); an all-distinct column gives
    every row its own block; and all-distinct columns over domains far
    wider than the relation explode ``blocks x domain`` past the dense
    guard, so refinement and the output fold must take the
    (value-identical) sort fallbacks -- descending values, so sorted-value
    order differs from first-occurrence order.
    """
    rows = 12

    def constant(domain, count):
        return [0] * count

    def distinct(domain, count):
        return [index % domain for index in range(count)]

    single_block = _structure(
        constant, input_domains=[3, 3], output_domains=[2], rows=rows
    )
    all_distinct = _structure(
        distinct,
        input_domains=[rows, rows],
        output_domains=[rows],
        rows=rows,
    )
    def descending(domain, count):
        return [count - 1 - index for index in range(count)]

    wide = 4 * rows + 1024 + 1
    wide_domain = _structure(
        descending,
        input_domains=[wide, wide],
        output_domains=[wide, wide],
        rows=rows,
    )
    return [single_block, all_distinct, wide_domain]


#: Any relation the primitives must handle, degenerate key spaces included.
any_structures = random_structures() | st.sampled_from(degenerate_structures())


def _visibility_chains(structure):
    inputs = range(len(structure.input_domain_sizes))
    outputs = range(len(structure.output_domain_sizes))
    input_sets = [
        tuple(combo)
        for size in range(len(structure.input_domain_sizes) + 1)
        for combo in itertools.combinations(inputs, size)
    ]
    output_sets = [
        tuple(combo)
        for size in range(len(structure.output_domain_sizes) + 1)
        for combo in itertools.combinations(outputs, size)
    ]
    return input_sets, output_sets


def _check_against_reference(structure):
    """Kernel partitions and entry counts equal the table's sort-based
    ``reference_*`` passes on every visibility chain."""
    kernel = GammaKernelRegistry().ensure_kernel(structure)
    table = kernel.table
    input_sets, output_sets = _visibility_chains(structure)
    for visible_inputs in input_sets:
        partition = kernel.partition(visible_inputs)
        # Reference: re-refine the whole chain with the sort-based
        # oracle, outside the cache.
        reference = table.initial_partition()
        for index in visible_inputs:
            reference = table.reference_refine(reference, index)
        assert freeze(partition) == freeze(reference)
        blocks = columnar.block_count(partition)
        for visible_outputs in output_sets:
            kernel.entry(visible_inputs, visible_outputs)
            fused = table.fused_entry(partition, blocks, visible_outputs)
            assert freeze(fused) == freeze(
                table.reference_distinct_projections(
                    partition, blocks, visible_outputs
                )
            )


class TestCountingSortEquivalence:
    @RELAXED
    @given(structure=random_structures())
    def test_partitions_entries_match_reference(self, structure):
        _check_against_reference(structure)

    @pytest.mark.parametrize("structure", degenerate_structures())
    def test_degenerate_relations_match_reference(self, structure):
        _check_against_reference(structure)


class _State(NamedTuple):
    """One table's partition."""

    table: object
    partition: object

    def refined(self, index: int) -> "_State":
        return _State(self.table, self.table.refine(self.partition, index))


def _oracle_states(structure):
    """``(numpy, pure)`` states at the end of every visible-input chain."""
    tables = (NumpyTable.from_structure(structure), PureTable(structure))
    input_sets, _ = _visibility_chains(structure)
    for visible_inputs in input_sets:
        numpy_state, pure_state = (
            _State(table, table.initial_partition())
            for table in tables
        )
        for index in visible_inputs:
            numpy_state = numpy_state.refined(index)
            pure_state = pure_state.refined(index)
        yield numpy_state, pure_state


class TestOracleEquivalence:
    """Every ``NumpyTable`` primitive against the tuple/dict table."""

    @RELAXED
    @given(structure=any_structures)
    def test_refine(self, structure):
        for numpy_state, pure_state in _oracle_states(structure):
            assert freeze(numpy_state.partition) == pure_state.partition

    @RELAXED
    @given(structure=any_structures)
    def test_fused_entry(self, structure):
        _, output_sets = _visibility_chains(structure)
        for numpy_state, pure_state in _oracle_states(structure):
            blocks = columnar.block_count(pure_state.partition)
            for outputs in output_sets:
                expected = pure_state.table.fused_entry(
                    pure_state.partition, blocks, outputs
                )
                got = numpy_state.table.fused_entry(
                    numpy_state.partition, blocks, outputs
                )
                assert freeze(got) == tuple(expected)


class TestEvictionOrderEquivalence:
    @RELAXED
    @given(
        structure=random_structures(max_rows=16),
        budget=st.sampled_from([256, 1024, 4096]),
    )
    def test_eviction_sequence_identical_across_paths_and_backends(
        self, structure, budget
    ):
        """Same evicted-key sequence on the numpy and the oracle table
        under tight budgets, with partition and kernel entries in the
        mix."""
        sequences = {}
        for table in TABLES:
            evicted: list[tuple] = []
            registry = GammaKernelRegistry(total_budget_bytes=budget)
            registry.set_eviction_sink(
                lambda structure, key, payload, cost: evicted.append(
                    (key, freeze(payload), cost)
                )
            )
            kernel = use_table(registry.ensure_kernel(structure), table)
            input_sets, output_sets = _visibility_chains(structure)
            for visible_inputs in input_sets:
                kernel.partition(visible_inputs)
                for visible_outputs in output_sets:
                    kernel.entry(visible_inputs, visible_outputs)
            sequences[table] = evicted
        assert sequences["numpy"] == sequences["pure"]

    @pytest.mark.parametrize("table", TABLES)
    def test_entry_costs_charge_true_payload(self, table):
        structure = degenerate_structures()[0]
        kernel = use_table(GammaKernelRegistry().ensure_kernel(structure), table)
        for visible_inputs in ((), (0,), (0, 1)):
            partition, counts, _ = kernel.entry(visible_inputs, (0,))
            _, cost = kernel._entries[("partition", visible_inputs)]
            assert cost == columnar.payload_bytes(partition)
            _, cost = kernel._entries[("kernel", visible_inputs, (0,))]
            assert cost == columnar.payload_bytes(
                partition
            ) + columnar.payload_bytes(counts)
            assert cost == (len(partition) + len(counts)) * columnar.WORD_BYTES


class TestPayloadRoundTrips:
    @RELAXED
    @given(structure=random_structures(max_rows=12))
    def test_entry_payloads_freeze_thaw_across_backends(self, structure):
        frozen_by_table = {}
        for table in TABLES:
            kernel = use_table(GammaKernelRegistry().ensure_kernel(structure), table)
            visible_inputs = tuple(range(len(structure.input_domain_sizes)))
            kernel.entry(visible_inputs, (0,))
            frozen_by_table[table] = {
                key: (freeze(payload), cost)
                for key, (payload, cost) in kernel._entries.items()
            }
        reference = frozen_by_table["pure"]
        assert reference  # the chain cached at least the root partition
        assert frozen_by_table["numpy"] == reference
        # Thawing restores arrays with the same frozen image -- the
        # snapshot/wire round-trip contract.
        for key, (payload, _) in reference.items():
            thawed = thaw_entry(key, payload)
            partition = thawed if key[0] == "partition" else thawed[0]
            assert isinstance(partition, np.ndarray)
            assert freeze(thawed) == payload

    def test_preloaded_entries_answer_without_recomputation(self):
        structure = degenerate_structures()[0]
        kernel = GammaKernelRegistry().ensure_kernel(structure)
        visible_inputs = (0, 1)
        expected = freeze(kernel.entry(visible_inputs, (0,)))
        exported = kernel.export_entries()
        warm = GammaKernelRegistry().ensure_kernel(structure)
        warm.import_entries(exported)
        before = warm.counters
        got = freeze(warm.entry(visible_inputs, (0,)))
        after = warm.counters
        assert got == expected
        assert after["grouping_passes"] == before["grouping_passes"]
        assert after["partition_refinements"] == before["partition_refinements"]

    def test_merge_kernel_stats_preserves_float_timers(self):
        merged = merge_kernel_stats(
            [
                {"grouping_passes": 3, "partition_build_ms": 0.25},
                {"grouping_passes": 2, "partition_build_ms": 0.5},
                {"grouping_passes": 1},
            ]
        )
        assert merged["grouping_passes"] == 6
        assert merged["partition_build_ms"] == pytest.approx(0.75)
        assert isinstance(merged["grouping_passes"], int)
        assert isinstance(merged["partition_build_ms"], float)

    @pytest.mark.parametrize("table", TABLES)
    def test_timers_and_fused_counter_populated(self, table):
        structure = degenerate_structures()[1]
        registry = GammaKernelRegistry()
        kernel = use_table(registry.ensure_kernel(structure), table)
        kernel.entry((0, 1), (0,))
        stats = kernel.kernel_stats
        aggregate = registry.aggregate_counters()
        assert stats["entry_fused_passes"] == 1
        assert stats["partition_refinements"] == 2  # (0,) then (0, 1)
        for key in TIMING_STAT_KEYS:
            assert isinstance(stats[key], float)
            assert stats[key] >= 0.0
            assert aggregate[key] == stats[key]
        assert stats["partition_build_ms"] > 0.0


@pytest.fixture(scope="module")
def large_structure():
    """``large_cold_inproc``'s relation shape: 10 000 rows, 4 inputs of
    domain 10, 2 outputs of domain 10."""
    return ModuleRelation.random(
        "L", n_inputs=4, n_outputs=2, domain_size=10, seed=26
    ).structure_signature


def _wide_output_structure() -> RelationStructure:
    """100 rows whose two outputs span domains of 100: with one input
    visible, 10 blocks x 100² projections exceed the occupancy bound, while
    one output alone (10 x 100 cells) stays within it."""
    inputs = list(itertools.product(range(10), repeat=2))
    return RelationStructure(
        input_domain_sizes=(10, 10),
        output_domain_sizes=(100, 100),
        input_columns=tuple(
            tuple(key[column] for key in inputs) for column in range(2)
        ),
        output_columns=(
            tuple((7 * row) % 100 for row in range(len(inputs))),
            tuple((99 - row) % 100 for row in range(len(inputs))),
        ),
    )


@pytest.fixture
def fold_calls(monkeypatch):
    """Every call ``NumpyTable._fold_output_codes`` receives, in order."""
    calls: list[tuple[int, ...]] = []
    fold = NumpyTable._fold_output_codes

    def spy(self, code, ncodes, visible_outputs):
        calls.append(tuple(visible_outputs))
        return fold(self, code, ncodes, visible_outputs)

    monkeypatch.setattr(NumpyTable, "_fold_output_codes", spy)
    return calls


def _fused_entries_match(structure) -> None:
    """``fused_entry`` equals the sort-based reference and the tuple/dict
    table on every visibility pair of ``structure``."""
    _, output_sets = _visibility_chains(structure)
    for numpy_state, pure_state in _oracle_states(structure):
        table, partition = numpy_state.table, numpy_state.partition
        blocks = columnar.block_count(partition)
        for outputs in output_sets:
            got = table.fused_entry(partition, blocks, outputs)
            assert got.dtype == np.int64
            assert freeze(got) == freeze(
                table.reference_distinct_projections(partition, blocks, outputs)
            )
            assert freeze(got) == tuple(
                pure_state.table.fused_entry(pure_state.partition, blocks, outputs)
            )


class TestOccupancyEntry:
    """Each case of ``fused_entry``: the occupancy table, one row per
    block, and the fold fallback past the table's memory bound."""

    def test_large_shape_uses_the_occupancy_table(self, large_structure, fold_calls):
        _fused_entries_match(large_structure)
        assert fold_calls == []

    def test_wide_outputs_fall_back_to_the_fold(self, fold_calls):
        structure = _wide_output_structure()
        table = NumpyTable.from_structure(structure)
        partition = table.refine(table.initial_partition(), 0)
        assert columnar.block_count(partition) == 10
        table.fused_entry(partition, 10, (0,))
        assert fold_calls == []
        table.fused_entry(partition, 10, (0, 1))
        assert fold_calls == [(0, 1)]
        _fused_entries_match(structure)

    def test_one_row_per_block_counts_one_projection_each(self, fold_calls):
        structure = _wide_output_structure()
        table = NumpyTable.from_structure(structure)
        partition = table.refine(table.refine(table.initial_partition(), 0), 1)
        for outputs in ((), (0,), (0, 1)):
            got = table.fused_entry(partition, partition.size, outputs)
            assert got.dtype == np.int64
            assert got.tolist() == [1] * partition.size
        assert fold_calls == []

    def test_no_visible_outputs_and_empty_partition(self):
        structure = degenerate_structures()[0]
        table = NumpyTable.from_structure(structure)
        pure = PureTable(structure)
        partition = table.refine(table.initial_partition(), 0)
        got = table.fused_entry(partition, 1, ())
        assert got.tolist() == pure.fused_entry(tuple(partition.tolist()), 1, ())
        assert got.tolist() == [1]
        empty_structure = _structure(
            lambda domain, count: [], input_domains=[3], output_domains=[2], rows=0
        )
        empty_table = NumpyTable.from_structure(empty_structure)
        empty = empty_table.initial_partition()
        for outputs in ((), (0,)):
            got = empty_table.fused_entry(empty, 0, outputs)
            assert got.dtype == np.int64
            assert got.size == 0
            assert freeze(got) == freeze(
                empty_table.reference_distinct_projections(empty, 0, outputs)
            )
            assert freeze(got) == tuple(
                PureTable(empty_structure).fused_entry((), 0, outputs)
            )

    def test_swept_payloads_equal_the_tuple_table(self, large_structure):
        """After a full visibility sweep the exported entries of a numpy
        kernel equal a ``PureTable`` kernel's, key for key and value for
        value, and every cached count array is ``int64``."""
        input_sets, output_sets = _visibility_chains(large_structure)
        exports = {}
        for name in TABLES:
            kernel = use_table(
                GammaKernelRegistry().ensure_kernel(large_structure), name
            )
            for visible_inputs in input_sets:
                for visible_outputs in output_sets:
                    kernel.entry(visible_inputs, visible_outputs)
            exports[name] = kernel.export_entries()
            if name == "numpy":
                kernel_payloads = [
                    payload
                    for key, (payload, _) in kernel._entries.items()
                    if key[0] == "kernel"
                ]
                assert len(kernel_payloads) == len(input_sets) * len(output_sets)
                for _, counts, _ in kernel_payloads:
                    assert counts.dtype == np.int64
        assert exports["numpy"] == exports["pure"]
