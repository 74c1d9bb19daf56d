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

    @staticmethod
    def _grouped(rows: Sequence[int], block_of: Sequence[int]):
        """``(order, offsets)`` of ``rows`` bucketed by block, order kept."""
        groups: list[list[int]] = []
        for row in rows:
            block = block_of[row]
            while block >= len(groups):
                groups.append([])
            groups[block].append(row)
        order = tuple(row for group in groups for row in group)
        offsets = [0]
        for group in groups:
            offsets.append(offsets[-1] + len(group))
        return order, tuple(offsets)

    def strata(
        self, partition: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Row ids grouped by block: ``(order, offsets)``.

        ``order`` lists every row id, rows of block 0 first, rows
        ascending within a block; ``offsets[b]:offsets[b+1]`` delimits
        block ``b``.
        """
        return self._grouped(range(len(partition)), partition)

    def initial_strata(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Strata of the empty-visibility partition (one block, row order)."""
        if self.row_count == 0:
            return (), (0,)
        return tuple(range(self.row_count)), (0, self.row_count)

    def refine_strata(
        self,
        base_order: Sequence[int],
        refined: Sequence[int],
        input_index: int,
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Strata of ``refined``, replaying rows in the base strata order.

        Every refined block lies inside one base block, so the replay
        keeps rows ascending within each refined block -- the same
        values as ``strata(refined)``.
        """
        return self._grouped(base_order, refined)

    def block_sizes(self, partition: Sequence[int]) -> list[int]:
        """Rows per block of a first-occurrence-numbered partition."""
        sizes = [0] * (max(partition) + 1 if partition else 0)
        for block in partition:
            sizes[block] += 1
        return sizes

    def block_rows(
        self, partition: Sequence[int], blocks: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        """Row ids of just the listed blocks, ascending within each."""
        gathered: dict[int, list[int]] = {block: [] for block in blocks}
        for row, block in enumerate(partition):
            if block in gathered:
                gathered[block].append(row)
        return {block: tuple(rows) for block, rows in gathered.items()}

    def largest_blocks(self, sizes: Sequence[int], limit: int) -> list[int]:
        """The ``limit`` largest block ids, ties broken by ascending id."""
        ranked = sorted(range(len(sizes)), key=lambda b: (-sizes[b], b))
        return ranked[:limit]

    def concat_rows(self, chunks: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """Row-id chunks flattened into one sampling batch."""
        return tuple(row for chunk in chunks for row in chunk)

    def sample_distincts(
        self,
        partition: Sequence[int],
        rows: Sequence[int],
        visible_outputs: tuple[int, ...],
    ) -> dict[int, tuple[int, int]]:
        """Per touched block: ``(distinct, singletons)`` over sampled rows.

        ``distinct`` is the number of distinct visible-output projections
        among the block's sampled rows; ``singletons`` the number of
        those seen exactly once.
        """
        columns = [self.output_columns[index] for index in visible_outputs]
        tallies: dict[tuple[int, tuple[int, ...]], int] = {}
        for row in rows:
            pair = (partition[row], tuple(column[row] for column in columns))
            tallies[pair] = tallies.get(pair, 0) + 1
        stats: dict[int, tuple[int, int]] = {}
        for (block, _projection), count in tallies.items():
            distinct, singletons = stats.get(block, (0, 0))
            stats[block] = (distinct + 1, singletons + (1 if count == 1 else 0))
        return stats

    def exhaust_distincts(
        self,
        partition: Sequence[int],
        order: Sequence[int],
        offsets: Sequence[int],
        blocks: Sequence[int],
        visible_outputs: tuple[int, ...],
    ) -> dict[int, tuple[int, int]]:
        """Exact per-block ``(distinct, singletons)`` of whole strata."""
        rows = [
            row
            for block in blocks
            for row in order[offsets[block] : offsets[block + 1]]
        ]
        return self.sample_distincts(partition, rows, visible_outputs)
