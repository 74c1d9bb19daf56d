"""Tuple/dict reference table for the columnar Gamma kernel.

:class:`PureTable` implements every :class:`~repro.privacy.columnar.NumpyTable`
primitive with plain python loops; it is the oracle the vectorized table
is held to, value for value.  Its payloads are tuples of python ints,
which the kernel's payload helpers accept, so :func:`use_table` can run
a whole kernel on it through ``install_table`` and kernel-level tests
compare entries, accounting and eviction sequences between the tables.
"""

from __future__ import annotations

from typing import Sequence

from repro.privacy.kernel_registry import RelationStructure, SharedGammaKernel

#: Table kinds a kernel-level test sweeps: the production numpy table
#: and this module's reference table.
TABLES = ("numpy", "pure")


def use_table(kernel: SharedGammaKernel, table: str) -> SharedGammaKernel:
    """``kernel``, evaluating on ``table`` from now on."""
    if table == "pure":
        kernel.install_table(PureTable(kernel.structure))
    return kernel


class PureTable:
    """The tuple/dict evaluation primitives (no numpy)."""

    def __init__(self, structure: RelationStructure) -> None:
        self.input_columns = tuple(map(tuple, structure.input_columns.tolist()))
        self.output_columns = tuple(map(tuple, structure.output_columns.tolist()))
        self.row_count = structure.row_count

    def initial_partition(self) -> tuple[int, ...]:
        return (0,) * self.row_count

    def refine(self, base: Sequence[int], input_index: int) -> tuple[int, ...]:
        """Refine ``base`` by one input column, first-occurrence block ids."""
        column = self.input_columns[input_index]
        block_ids: dict[tuple[int, int], int] = {}
        refined = []
        for block, value in zip(base, column):
            pair = (block, value)
            block_id = block_ids.get(pair)
            if block_id is None:
                block_id = len(block_ids)
                block_ids[pair] = block_id
            refined.append(block_id)
        return tuple(refined)

    def fused_entry(
        self,
        partition: Sequence[int],
        blocks: int,
        visible_outputs: tuple[int, ...],
    ) -> list[int]:
        """Distinct visible-output projections per partition block."""
        columns = [self.output_columns[index] for index in visible_outputs]
        distinct = [0] * blocks
        seen: set[tuple] = set()
        for row, block in enumerate(partition):
            pair = (block, tuple(column[row] for column in columns))
            if pair not in seen:
                seen.add(pair)
                distinct[block] += 1
        return distinct
