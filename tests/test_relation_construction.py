"""The columnar ``ModuleRelation`` constructor and its canonical structure.

* **Constructor oracle** -- a Hypothesis property holds the columnar
  constructor to the per-row reference in ``relation_oracle``: the same
  value-level table (order and key objects included), the same canonical
  matrices, the same Gamma and candidate-output counts for every
  visibility pair, and the same ``PrivacyError`` message for every arity,
  domain, emptiness and naming fault -- over list-valued keys and values,
  string and mixed-type domains, and ``True``/``1``-style aliases.
* **Immutable structure** -- matrices are read-only (including arrays a
  caller hands in), equality is domain sizes plus matrix equality, the
  hash is the signature's, and wire and pickle round trips keep the
  signature while pickles hold no numpy objects.
* **Snapshots** -- a snapshot written in the previous (tuple-column)
  format is skipped and its structure cold-started.
"""

from __future__ import annotations

import copyreg
import hashlib
import io
import itertools
import pickle
from typing import Iterator, Mapping

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from relation_oracle import naive_counts, per_row_relation
from service_workloads import search_requirements

from repro.errors import PrivacyError
from repro.privacy.columnar import NumpyTable
from repro.privacy.kernel_registry import GammaKernelRegistry, RelationStructure
from repro.privacy.relations import Attribute, ModuleRelation
from repro.privacy.workflow_privacy import exact_secure_view
from repro.service import KernelSnapshotStore, ShardCoordinator
from repro.service.persistence import SNAPSHOT_VERSION
from repro.service.protocol import structure_from_wire, structure_to_wire

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class PairRows(Mapping):
    """A row mapping keyed by identity, so keys may be lists or repeat.

    ``{key: value}`` cannot hold list keys or two rows whose keys only
    become equal after ``tuple()``; this can, which is what exercises
    the constructor's key normalisation and duplicate collapse.
    """

    def __init__(self, pairs: list[tuple[object, object]]) -> None:
        self._pairs = pairs

    def __iter__(self) -> Iterator[object]:
        return (key for key, _ in self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, key: object) -> object:
        for candidate, value in self._pairs:
            if candidate is key:
                return value
        raise KeyError(key)


# Hashable domain values of mixed types, with aliases: True == 1 == 1.0
# and False == 0 hash alike, so ``value in domain`` and the position
# dict both treat them as one value.
DOMAIN_VALUES = st.sampled_from(
    [0, 1, 2, True, False, 1.0, "a", "b", "", "1", None, (0,), ("a", 1)]
)
#: Values no generated domain holds; the list is unhashable too.
OUTSIDE = st.sampled_from(["zz", 99, [0], 2.5])
FAULTS = (
    "key_arity",
    "value_arity",
    "input_domain",
    "output_domain",
    "empty",
    "duplicate_names",
)


@st.composite
def relation_cases(draw):
    """``(inputs, outputs, rows)`` with up to three injected faults."""
    n_inputs = draw(st.integers(min_value=1, max_value=3))
    n_outputs = draw(st.integers(min_value=1, max_value=2))
    domains = [
        tuple(draw(st.lists(DOMAIN_VALUES, min_size=1, max_size=4)))
        for _ in range(n_inputs + n_outputs)
    ]
    names = [f"in{i}" for i in range(n_inputs)] + [f"out{i}" for i in range(n_outputs)]
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=3))
    if "duplicate_names" in faults:
        names[n_inputs] = names[draw(st.integers(0, n_inputs - 1))]
    inputs = [Attribute(names[i], domains[i], "input") for i in range(n_inputs)]
    outputs = [
        Attribute(names[n_inputs + i], domains[n_inputs + i], "output")
        for i in range(n_outputs)
    ]
    shape = st.sampled_from([list, tuple])
    pairs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        key = [draw(st.sampled_from(a.domain)) for a in inputs]
        value = [draw(st.sampled_from(a.domain)) for a in outputs]
        pairs.append((key, value))
    for fault in faults:
        key, value = pairs[draw(st.integers(0, len(pairs) - 1))]
        if fault == "key_arity":
            key.pop() if key and draw(st.booleans()) else key.append(0)
        elif fault == "value_arity":
            value.pop() if value and draw(st.booleans()) else value.append(0)
        elif fault == "input_domain" and key:
            key[draw(st.integers(0, len(key) - 1))] = draw(OUTSIDE)
        elif fault == "output_domain" and value:
            value[draw(st.integers(0, len(value) - 1))] = draw(OUTSIDE)
    if "empty" in faults:
        pairs = []
    rows = PairRows([(draw(shape)(key), draw(shape)(value)) for key, value in pairs])
    return inputs, outputs, rows


def visibility_subsets(relation: ModuleRelation):
    names = relation.attribute_names()
    for size in range(len(names) + 1):
        yield from itertools.combinations(names, size)


@RELAXED
@given(relation_cases())
@example(
    (
        [Attribute("x", (1, True, "1"), "input")],
        [Attribute("y", ("a", "b"), "output")],
        PairRows([([1], ["a"]), ((True,), ["b"]), (("1",), ("a",))]),
    )
)
def test_columnar_constructor_matches_per_row_reference(case):
    inputs, outputs, rows = case
    try:
        reference = per_row_relation("M", inputs, outputs, rows)
    except PrivacyError as expected:
        with pytest.raises(PrivacyError) as raised:
            ModuleRelation("M", inputs, outputs, rows)
        assert str(raised.value) == str(expected)
        return
    relation = ModuleRelation("M", inputs, outputs, rows)
    # Same table: same key objects and values, in the same order.
    assert repr(list(relation.rows_view.items())) == repr(
        list(reference.rows.items())
    )
    structure = relation.structure_signature
    assert structure.input_domain_sizes == tuple(len(a.domain) for a in inputs)
    assert structure.output_domain_sizes == tuple(len(a.domain) for a in outputs)
    rows_count = len(reference.rows)
    assert np.array_equal(
        structure.input_columns,
        np.asarray(reference.input_columns, dtype=np.int64).reshape(-1, rows_count),
    )
    assert np.array_equal(
        structure.output_columns,
        np.asarray(reference.output_columns, dtype=np.int64).reshape(-1, rows_count),
    )
    for hidden in visibility_subsets(relation):
        counts = naive_counts(reference, hidden)
        assert relation.candidate_output_counts(hidden) == counts
        assert relation.achieved_gamma(hidden) == min(counts.values())
        for key in reference.rows:
            assert relation.candidate_outputs(key, hidden) == counts[key]


DOMAIN = (0, 1, 2)


def _attributes(*names_roles):
    return [Attribute(name, DOMAIN, role) for name, role in names_roles]


@pytest.mark.parametrize(
    "rows, attributes, message",
    [
        ({(0, 1): (0,)}, None, "row key (0, 1) does not match input arity 1"),
        ({(0,): (0, 1)}, None, "row value (0, 1) does not match output arity 1"),
        ({(0,): (0,), (7,): (0,)}, None, "value 7 outside domain of input 'x'"),
        ({(0,): ("q",)}, None, "value 'q' outside domain of output 'y'"),
        ({(0,): ([1],)}, None, "value [1] outside domain of output 'y'"),
        ({}, None, "module 'M' has an empty relation"),
        (
            {(0,): (0,)},
            _attributes(("x", "input"), ("x", "output")),
            "module 'M' has duplicate attribute names: ['x', 'x']",
        ),
        # The first bad row in row order wins, whatever else is wrong.
        ({(0,): (9,), (0, 1): (0,)}, None, "value 9 outside domain of output 'y'"),
        ({(5,): (0,), (0,): (0, 0)}, None, "value 5 outside domain of input 'x'"),
        # "ab" and ("a", "b") are one key after tuple(): the row the
        # table drops is checked too.
        (
            {"ab": (9,), ("a", "b"): (0,)},
            [
                Attribute("x", ("a", "b"), "input"),
                Attribute("z", ("a", "b"), "input"),
                Attribute("y", DOMAIN, "output"),
            ],
            "value 9 outside domain of output 'y'",
        ),
    ],
)
def test_construction_errors_name_the_offending_row(rows, attributes, message):
    attributes = attributes or _attributes(("x", "input"), ("y", "output"))
    inputs = [a for a in attributes if a.is_input]
    outputs = [a for a in attributes if a.is_output]
    with pytest.raises(PrivacyError) as raised:
        ModuleRelation("M", inputs, outputs, rows)
    assert str(raised.value) == message
    with pytest.raises(PrivacyError) as reference:
        per_row_relation("M", inputs, outputs, rows)
    assert str(reference.value) == message


class TestImmutableStructure:
    def test_matrices_are_read_only(self):
        structure = ModuleRelation.random("P", seed=1).structure_signature
        for matrix in (structure.input_columns, structure.output_columns):
            assert matrix.dtype == np.int64
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1

    def test_caller_arrays_are_frozen_not_copied(self):
        inputs = np.array([[0, 1, 0]], dtype=np.int64)
        outputs = np.array([[1, 1, 0]], dtype=np.int64)
        structure = RelationStructure((2,), (2,), inputs, outputs)
        assert structure.input_columns is inputs
        with pytest.raises(ValueError):
            inputs[0, 0] = 1

    def test_nested_tuples_and_arrays_build_one_structure(self):
        from_tuples = RelationStructure((2,), (2,), ((0, 1, 0),), ((1, 1, 0),))
        from_arrays = RelationStructure(
            [2], [2], np.array([[0, 1, 0]]), np.array([[1, 1, 0]], dtype=np.int32)
        )
        assert from_tuples == from_arrays
        assert hash(from_tuples) == hash(from_arrays)
        assert from_tuples.signature == from_arrays.signature
        assert from_tuples.input_domain_sizes == (2,)
        registry = GammaKernelRegistry()
        assert registry.kernel_for(from_tuples) is registry.kernel_for(from_arrays)

    def test_equality_is_domain_sizes_and_matrices(self):
        base = RelationStructure((2,), (2,), ((0, 1),), ((1, 0),))
        assert base != RelationStructure((3,), (2,), ((0, 1),), ((1, 0),))
        assert base != RelationStructure((2,), (2,), ((0, 1),), ((0, 1),))
        assert base != RelationStructure((2,), (2,), ((0, 1, 0),), ((1, 0, 0),))
        assert base.signature != RelationStructure(
            (2,), (2,), ((0, 1),), ((0, 1),)
        ).signature
        assert base != "not a structure"

    def test_wire_round_trip_keeps_signature(self):
        for structure in (
            ModuleRelation.random("P", n_inputs=3, seed=2).structure_signature,
            RelationStructure((2, 2), (2,), ((0, 1, 1), (1, 0, 1)), ((1, 0, 0),)),
        ):
            rebuilt = structure_from_wire(structure_to_wire(structure))
            assert rebuilt == structure
            assert rebuilt.signature == structure.signature
            assert not rebuilt.input_columns.flags.writeable

    def test_pickle_is_plain_data_and_keeps_signature(self):
        structure = ModuleRelation.random("P", seed=3).structure_signature
        payload = pickle.dumps(structure, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"numpy" not in payload
        rebuilt = pickle.loads(payload)
        assert rebuilt == structure
        assert rebuilt.signature == structure.signature
        assert not rebuilt.output_columns.flags.writeable

    def test_kernel_table_shares_the_structure_matrices(self):
        structure = ModuleRelation.random("P", seed=4).structure_signature
        table = NumpyTable.from_structure(structure)
        assert table.input_matrix is structure.input_columns
        assert table.output_matrix is structure.output_columns


def _version_1_snapshot(structure: RelationStructure, entries) -> bytes:
    """A snapshot as the tuple-column format wrote it (dataclass state)."""
    state = {
        "input_domain_sizes": structure.input_domain_sizes,
        "output_domain_sizes": structure.output_domain_sizes,
        "input_columns": tuple(map(tuple, structure.input_columns.tolist())),
        "output_columns": tuple(map(tuple, structure.output_columns.tolist())),
    }

    class Version1Pickler(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, RelationStructure):
                return copyreg.__newobj__, (RelationStructure,), state
            return NotImplemented

    document = {"version": 1, "structure": structure, "entries": entries}
    buffer = io.BytesIO()
    Version1Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(document)
    return buffer.getvalue()


def test_version_1_snapshot_is_skipped_and_cold_started(tmp_path):
    assert SNAPSHOT_VERSION == 2
    requirements = search_requirements()
    expected = exact_secure_view(requirements)
    relation = requirements.requirements[0].relation
    structure = relation.structure_signature
    kernel = GammaKernelRegistry().ensure_kernel(structure)
    kernel.entry((0,), (1,))
    entries = tuple(kernel.export_entries())
    old_signature = hashlib.blake2b(
        repr(
            (
                structure.input_domain_sizes,
                structure.output_domain_sizes,
                tuple(map(tuple, structure.input_columns.tolist())),
                tuple(map(tuple, structure.output_columns.tolist())),
            )
        ).encode("ascii"),
        digest_size=16,
    ).hexdigest()
    store = KernelSnapshotStore(tmp_path)
    stale = store.path_for(old_signature)
    stale.write_bytes(_version_1_snapshot(structure, entries))

    assert list(store.iter_snapshots()) == []
    assert not stale.is_file()
    stale.write_bytes(_version_1_snapshot(structure, entries))
    with ShardCoordinator(0, snapshot_dir=str(tmp_path)) as coordinator:
        assert coordinator.preloaded_entries == 0
        result = exact_secure_view(requirements, service=coordinator)
    assert result.hidden_labels == expected.hidden_labels
    assert result.cost == expected.cost
    assert not stale.is_file()
