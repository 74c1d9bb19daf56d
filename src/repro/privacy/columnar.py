"""Columnar Gamma kernel: vectorized numpy evaluation tables.

The Gamma evaluation primitives -- partition refinement by one input
column and the grouped distinct-projection count per partition block --
run on :class:`NumpyTable`, which encodes a canonical relation table as
2-D ``int64`` matrices of domain positions (one row per attribute, one
column per relation row).  Refinement and grouping are *sort-free
counting passes*: domain positions are small dense ints, so one
``(block, value)`` key per row fits a dense scatter table and a
:func:`np.cumsum` rank pass -- O(rows + blocks·domain) per column
instead of O(rows log rows) ``np.unique``/``argsort`` passes -- and one
mixed-radix ``(block, visible-output projection)`` key per row fits a
boolean ``blocks x R`` occupancy table (``R`` the product of the visible
output domains) whose row sums are the entry's distinct counts.  The
sort-based implementations are kept as ``reference_*`` oracles (and as
the automatic fallback when a degenerate key space would out-size the
relation).

Block ids are numbered in first-occurrence order and counts are exact
integers.  :func:`freeze` converts any cache payload to the portable
pure-tuple form used by snapshots, eviction spills and the wire, and
:func:`thaw_entry` converts it back to arrays.  The payload helpers
also accept tuples: counts too large for ``int64`` stay python ints,
and the test suite's tuple/dict reference table plugs into a kernel
through :meth:`~repro.privacy.kernel_registry.SharedGammaKernel.install_table`.
A kernel builds its table with :func:`build_table`, as a view over its
structure's own matrices; a worker process gets that structure by value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only (avoid import cycle)
    from repro.privacy.kernel_registry import RelationStructure

#: Accounted cost of one cached integer: one ``int64`` cell.
WORD_BYTES = 8


def _dense_space_ok(space: int, rows: int) -> int:
    """Whether a counting pass may allocate a ``space``-cell scatter table.

    The sort-free passes trade O(rows log rows) comparisons for a dense
    table of one cell per ``(group, value)`` key.  On degenerate inputs
    (nearly-all-distinct partitions over a wide domain) that table can
    dwarf the relation, so past ``4·rows`` cells (plus slack so tiny
    relations never trip it) the caller falls back to the sort-based
    reference pass -- which produces the *same values*, so the guard is
    invisible to results, cache payloads and eviction sequences.

    The bound budgets the output fold's 9 bytes per cell (a bool
    occupancy cell plus its ``int64`` cumsum rank), about 36 bytes per
    row.  :meth:`NumpyTable.fused_entry`'s occupancy table is bool only,
    so it asks with ``8·rows``: up to ``32·rows + 1024`` one-byte cells,
    within the same transient memory.
    """
    return space <= 4 * rows + 1024


# ---------------------------------------------------------------------- #
# Payload helpers (arrays, or tuples of python ints)
# ---------------------------------------------------------------------- #
def payload_bytes(values: object) -> int:
    """Accounted cache cost of one partition/counts payload.

    ``nbytes`` for ``int64`` arrays and ``len * WORD_BYTES`` for tuples
    -- numerically identical, so a payload costs the same frozen or not.
    """
    if isinstance(values, np.ndarray):
        return int(values.nbytes)
    return len(values) * WORD_BYTES  # type: ignore[arg-type]


def freeze(payload: object) -> object:
    """A payload with every array replaced by a tuple of python ints.

    The portable form used by snapshots, eviction spills, warm-handoff
    wire payloads and :class:`~repro.service.protocol.TaskResult`: plain
    data that pickles, compares and encodes without numpy.
    """
    if isinstance(payload, np.ndarray):
        return tuple(payload.tolist())
    if isinstance(payload, tuple):
        return tuple(freeze(item) for item in payload)
    return payload


def thaw_entry(key: tuple, payload: object) -> object:
    """A frozen cache payload with its arrays restored.

    ``key`` carries the payload shape: ``("partition", ...)`` payloads
    are one flat int sequence; ``("kernel", ...)`` payloads are a
    ``(partition, counts, gamma)`` triple.  Other payloads are plain int
    tuples already.
    """
    if key and key[0] == "partition":
        return np.asarray(payload, dtype=np.int64)
    if key and key[0] == "kernel":
        partition, counts, gamma = payload  # type: ignore[misc]
        return (
            np.asarray(partition, dtype=np.int64),
            np.asarray(counts, dtype=np.int64) if _counts_fit(counts) else counts,
            gamma,
        )
    return payload


def _counts_fit(counts: Sequence[int]) -> bool:
    """Whether every count fits ``int64`` (huge hidden spaces may not)."""
    return all(-(2**63) <= count < 2**63 for count in counts)


def block_count(partition: object) -> int:
    """Number of blocks of a first-occurrence-numbered partition."""
    if isinstance(partition, np.ndarray):
        return int(partition.max()) + 1 if partition.size else 0
    return max(partition) + 1 if partition else 0  # type: ignore[arg-type]


def scale_counts(distinct: object, hidden_combinations: int) -> object:
    """Per-block distinct counts scaled by the hidden-output completions.

    Counts are exact integers.  When the scaled counts may not fit
    ``int64`` (a relation hiding very many large output domains), the
    result is a tuple of python ints -- arbitrary precision, same values.
    """
    if isinstance(distinct, np.ndarray):
        if hidden_combinations == 1:
            return distinct
        peak = int(distinct.max()) if distinct.size else 0
        if peak * hidden_combinations < 2**63:
            return distinct * hidden_combinations
        return tuple(int(count) * hidden_combinations for count in distinct.tolist())
    return tuple(count * hidden_combinations for count in distinct)  # type: ignore[union-attr]


def minimum(counts: object) -> int:
    """The Gamma of a counts payload (0 for an empty relation)."""
    if isinstance(counts, np.ndarray):
        return int(counts.min()) if counts.size else 0
    return min(counts) if counts else 0  # type: ignore[arg-type]


# ---------------------------------------------------------------------- #
# Evaluation table
# ---------------------------------------------------------------------- #
class NumpyTable:
    """Vectorized evaluation over 2-D ``int64`` domain-position matrices.

    ``input_matrix``/``output_matrix`` hold one attribute per matrix row
    and one relation row per column.  They are never written: a table
    shares its structure's read-only matrices.
    """

    __slots__ = (
        "input_matrix",
        "output_matrix",
        "input_domain_sizes",
        "output_domain_sizes",
        "row_count",
    )

    def __init__(
        self,
        input_matrix,
        output_matrix,
        input_domain_sizes: tuple[int, ...],
        output_domain_sizes: tuple[int, ...],
    ) -> None:
        self.input_matrix = input_matrix
        self.output_matrix = output_matrix
        self.input_domain_sizes = input_domain_sizes
        self.output_domain_sizes = output_domain_sizes
        self.row_count = int(input_matrix.shape[1]) if input_matrix.size else 0

    # -- construction ----------------------------------------------------
    @classmethod
    def from_structure(cls, structure: "RelationStructure") -> "NumpyTable":
        """A table over the structure's own read-only matrices (no copy)."""
        return cls(
            structure.input_columns,
            structure.output_columns,
            structure.input_domain_sizes,
            structure.output_domain_sizes,
        )

    # -- evaluation primitives -------------------------------------------
    def initial_partition(self):
        return np.zeros(self.row_count, dtype=np.int64)

    def refine(self, base, input_index: int):
        """Refine ``base`` by one input column, first-occurrence block ids.

        Sort-free counting pass: each row's ``(block, value)`` key is one
        cell of a dense ``blocks x domain`` table, so a reversed scatter
        pins every key's *first* occurrence position (the last write in
        reversed order is the earliest position).  A row is its key's
        first occurrence exactly when that position is its own, so a
        cumsum over ``first_of_row == row`` ranks the keys in
        first-occurrence order (the ids a dict numbering each new key
        would assign) in O(rows + blocks·domain) with no comparison sort.
        Degenerate key spaces fall back to the (value-identical)
        sort-based oracle.
        """
        rows = base.size
        if rows == 0:
            return base
        domain = self.input_domain_sizes[input_index]
        space = (int(base.max()) + 1) * domain
        if not _dense_space_ok(space, rows):
            return self.reference_refine(base, input_index)
        combined = base * domain + self.input_matrix[input_index]
        positions = np.arange(rows, dtype=np.int64)
        first = np.empty(space, dtype=np.int64)
        first[combined[::-1]] = positions[::-1]
        first_of_row = first[combined]
        ranks = np.cumsum(first_of_row == positions, dtype=np.int64)
        ranks -= 1
        return ranks[first_of_row]

    def reference_refine(self, base, input_index: int):
        """The PR 7 ``np.unique`` refinement, kept as correctness oracle.

        ``np.unique`` numbers groups by sorted *value*; the remap through
        an argsort of first-occurrence indices renumbers them in order of
        first appearance, so the oracle and the counting pass agree
        value-for-value.
        """
        column = self.input_matrix[input_index]
        combined = base * self.input_domain_sizes[input_index] + column
        _, first, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        order = np.argsort(first, kind="stable")
        rank = np.empty(order.size, dtype=np.int64)
        rank[order] = np.arange(order.size, dtype=np.int64)
        return rank[inverse]

    def _fold_output_codes(self, code, ncodes: int, visible_outputs):
        """Fold visible output columns into a dense running group code.

        ``code`` holds dense group ids in ``[0, ncodes)``, one per row.
        Each column widens the key space to ``ncodes·domain`` and
        re-compresses it through a dense occupancy cumsum -- no sort --
        falling back to ``np.unique`` (same codes: both number keys in
        ascending key order) when the key space outgrows the guard.
        """
        rows = code.size
        for output in visible_outputs:
            combined = (
                code * self.output_domain_sizes[output] + self.output_matrix[output]
            )
            space = ncodes * self.output_domain_sizes[output]
            if _dense_space_ok(space, rows):
                occupied = np.zeros(space, dtype=np.bool_)
                occupied[combined] = True
                dense = np.cumsum(occupied)
                ncodes = int(dense[-1]) if space else 0
                dense -= 1
                code = dense[combined]
            else:
                uniques, code = np.unique(combined, return_inverse=True)
                ncodes = int(uniques.size)
        return code, ncodes

    def fused_entry(self, partition, blocks: int, visible_outputs: tuple[int, ...]):
        """Distinct visible-output projections per block, one occupancy pass.

        The entry kernel's counting stage.  Each row gets one mixed-radix
        key ``block·R + Σ output·stride``, where ``R`` is the product of
        the visible output domains, so keys of one block fill one row of
        a boolean ``blocks x R`` occupancy table.  One scatter marks
        every present ``(block, projection)`` key, and a block's count is
        the number of occupied cells in its row -- summed straight into
        ``int64``.  Two cases skip the table: a partition with one row
        per block (every input visible on a full-domain table) counts one
        projection per block, and a table past the ``32·rows + 1024``
        cells :func:`_dense_space_ok` allows it falls back to the
        :meth:`_fold_output_codes` fold, whose ``np.unique`` keeps
        degenerate key spaces within O(rows) memory.  Values equal
        :meth:`reference_distinct_projections` either way.
        """
        rows = partition.size
        if rows == 0:
            return np.zeros(blocks, dtype=np.int64)
        if blocks == rows:
            return np.ones(blocks, dtype=np.int64)
        radix = 1
        for output in visible_outputs:
            radix *= self.output_domain_sizes[output]
        if not _dense_space_ok(blocks * radix, 8 * rows):
            code, ncodes = self._fold_output_codes(partition, blocks, visible_outputs)
            representative = np.empty(ncodes, dtype=np.int64)
            representative[code] = np.arange(rows, dtype=np.int64)
            owners = partition[representative]
            return np.bincount(owners, minlength=blocks).astype(np.int64, copy=False)
        key = partition * radix
        stride = radix
        for output in visible_outputs:
            stride //= self.output_domain_sizes[output]
            key += self.output_matrix[output] * stride
        occupied = np.zeros(blocks * radix, dtype=np.bool_)
        occupied[key] = True
        return occupied.reshape(blocks, radix).sum(axis=1, dtype=np.int64)

    def reference_distinct_projections(
        self, partition, blocks: int, visible_outputs: tuple[int, ...]
    ):
        """Distinct projections per block -- the sort-based oracle.

        Folds each visible output column into a running dense group code
        (re-compressed by ``np.unique`` per column, so the fold never
        overflows ``int64``), then counts one representative per distinct
        ``(block, projection)`` code in each block.  Retained as the
        ``reference_*`` pass :meth:`fused_entry` is verified against.
        """
        code = partition
        for index in visible_outputs:
            combined = code * self.output_domain_sizes[index] + self.output_matrix[index]
            _, code = np.unique(combined, return_inverse=True)
        _, first = np.unique(code, return_index=True)
        owners = partition[first]
        return np.bincount(owners, minlength=blocks).astype(np.int64, copy=False)


def build_table(structure: "RelationStructure") -> NumpyTable:
    """The evaluation table for one canonical structure."""
    return NumpyTable.from_structure(structure)
