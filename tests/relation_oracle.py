"""Per-row reference for the columnar ``ModuleRelation`` constructor.

:func:`per_row_relation` is the constructor as it was before relations
were canonicalised column by column: one python pass over the rows that
checks arity and ``value in attribute.domain`` cell by cell, then a
second pass (the former ``RelationStructure.of``) that renames every
value to its domain position as tuples of tuples.  :func:`naive_counts`
evaluates candidate-output counts straight from the value-level table,
with no canonical structure at all.  Together they are the oracle the
columnar construction is held to: same table, same matrices, same Gamma,
same errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import PrivacyError
from repro.privacy.relations import Attribute


@dataclass(frozen=True)
class ReferenceRelation:
    """What the per-row constructor built: the table and its tuple columns."""

    inputs: tuple[Attribute, ...]
    outputs: tuple[Attribute, ...]
    rows: dict[tuple, tuple]
    input_columns: tuple[tuple[int, ...], ...]
    output_columns: tuple[tuple[int, ...], ...]


def per_row_relation(
    module_id: str,
    inputs: Sequence[Attribute],
    outputs: Sequence[Attribute],
    rows: Mapping,
) -> ReferenceRelation:
    """Validate and canonicalise ``rows`` one row and one cell at a time."""
    if not inputs:
        raise PrivacyError(f"module {module_id!r} must have at least one input")
    if not outputs:
        raise PrivacyError(f"module {module_id!r} must have at least one output")
    inputs, outputs = tuple(inputs), tuple(outputs)
    names = [a.name for a in inputs + outputs]
    if len(set(names)) != len(names):
        raise PrivacyError(
            f"module {module_id!r} has duplicate attribute names: {names!r}"
        )
    table: dict[tuple, tuple] = {}
    for key, value in rows.items():
        key = tuple(key)
        value = tuple(value)
        if len(key) != len(inputs):
            raise PrivacyError(
                f"row key {key!r} does not match input arity {len(inputs)}"
            )
        if len(value) != len(outputs):
            raise PrivacyError(
                f"row value {value!r} does not match output arity {len(outputs)}"
            )
        for attribute, component in zip(inputs, key):
            if component not in attribute.domain:
                raise PrivacyError(
                    f"value {component!r} outside domain of input {attribute.name!r}"
                )
        for attribute, component in zip(outputs, value):
            if component not in attribute.domain:
                raise PrivacyError(
                    f"value {component!r} outside domain of output {attribute.name!r}"
                )
        table[key] = value
    if not table:
        raise PrivacyError(f"module {module_id!r} has an empty relation")
    row_keys = tuple(table)
    input_columns = []
    for position, attribute in enumerate(inputs):
        code = {value: index for index, value in enumerate(attribute.domain)}
        input_columns.append(tuple(code[key[position]] for key in row_keys))
    output_columns = []
    for position, attribute in enumerate(outputs):
        code = {value: index for index, value in enumerate(attribute.domain)}
        output_columns.append(tuple(code[table[key][position]] for key in row_keys))
    return ReferenceRelation(
        inputs, outputs, table, tuple(input_columns), tuple(output_columns)
    )


def naive_counts(reference: ReferenceRelation, hidden: Iterable[str]) -> dict:
    """Candidate-output count of every input key, one table scan per key."""
    hidden = set(hidden)
    visible_inputs = [
        i for i, a in enumerate(reference.inputs) if a.name not in hidden
    ]
    visible_outputs = [
        i for i, a in enumerate(reference.outputs) if a.name not in hidden
    ]
    completions = 1
    for index, attribute in enumerate(reference.outputs):
        if index not in visible_outputs:
            completions *= len(attribute.domain)
    counts = {}
    for key in reference.rows:
        visible_key = tuple(key[i] for i in visible_inputs)
        projections = {
            tuple(value[i] for i in visible_outputs)
            for row_key, value in reference.rows.items()
            if tuple(row_key[i] for i in visible_inputs) == visible_key
        }
        counts[key] = len(projections) * completions
    return counts
