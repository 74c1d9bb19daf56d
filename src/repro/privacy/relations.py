"""Module relations: the extensional view of a module's functionality.

Module privacy (Sec. 3 of the paper, elaborated in Davidson et al.,
"Preserving module privacy in workflow provenance") reasons about the
*relation* a module computes: the table of all (input, output) rows over
discrete attribute domains.  Hiding a subset of attributes limits what an
adversary observing provenance can learn; the achieved privacy level Gamma
is the minimum, over all inputs, of the number of output tuples that remain
possible given the visible attributes.

Gamma evaluation kernel
-----------------------
Safe-subset solvers evaluate Gamma for many hidden subsets of the same
relation, and the naive semantics (re-scan the whole table once *per
input* per subset) costs O(rows^2) per evaluation.  The kernel built at
construction time makes each distinct evaluation O(rows) and repeat
evaluations O(1):

* the table is canonicalised at construction into two read-only
  ``[n, rows]`` ``int64`` matrices of domain positions (one matrix row
  per input or output attribute), built column by column through one
  ``{value: position}`` dict per attribute -- a value missing from that
  dict is the "outside domain" error -- so projections never rebuild
  row tuples;
* the partition of rows by their visible-input projection is computed by
  *incremental refinement* -- the partition for visible inputs
  ``(i1, .., ik)`` refines the cached partition for ``(i1, .., ik-1)`` by
  one column -- and every partition is memoized;
* for each (visible-inputs, visible-outputs) pair one grouped pass counts
  the distinct visible-output projections per partition block, giving the
  candidate-output count of *every* input at once; the per-block counts
  and the resulting Gamma are memoized on the relation, so solver
  iterations that revisit a subset pay nothing.

``kernel_stats`` exposes counters (gamma/candidate calls, cache hits,
O(rows) passes actually performed, and the scans the naive semantics
would have performed) used by the benchmarks to track the speedup.  The
pre-kernel implementation is kept as ``reference_candidate_outputs`` /
``reference_achieved_gamma`` -- a slow oracle for equivalence tests.

Kernel sharing and eviction contract
------------------------------------
The caches above live in a :class:`~repro.privacy.kernel_registry.SharedGammaKernel`
keyed by the relation's *canonical structure* (per-position domain sizes
plus those two matrices -- see
:class:`~repro.privacy.kernel_registry.RelationStructure`).  By default
each relation owns a private, unbounded kernel, so its counters behave
exactly as documented above.  Constructing the relation with
``registry=`` (or calling ``GammaKernelRegistry.adopt(relation)``)
attaches it to the registry's shared kernel for its structure instead:

* *sharing* -- all structurally identical relations (same structure up
  to attribute and value renaming, in row order) resolve to one kernel,
  so a Gamma evaluated through one relation is a cache hit for all of
  its twins; ``kernel_stats`` counters then aggregate the work of every
  attached relation, and ``reset_kernel_stats`` zeroes the shared
  counters for all of them;
* *eviction* -- a registry ``budget_bytes`` bounds each kernel's
  accounted cache size (entries cost about ``row_count`` words per
  partition and ``row_count + blocks`` words per kernel entry);
  least-recently-used entries past the budget are dropped and
  transparently recomputed on the next request, so eviction affects the
  ``evictions`` / ``grouping_passes`` counters but never the values of
  ``achieved_gamma`` / ``candidate_outputs``.

:class:`KernelRelation` offers the solver-facing surface of a relation
over a bare :class:`~repro.privacy.kernel_registry.RelationStructure`,
for tables too large to hold as a row mapping (E12's scaled relations).
"""

from __future__ import annotations

import functools
import itertools
import random
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import PrivacyError
from repro.execution.behaviors import TableBehavior
from repro.privacy.kernel_registry import (
    GammaKernelRegistry,
    RelationStructure,
    SharedGammaKernel,
)

#: Max visibility pairs whose adversary projection tables a relation retains.
PROJECTION_TABLE_SLOTS = 8


def _release_abandoned_kernel(
    registry: GammaKernelRegistry | None, kernel: SharedGammaKernel
) -> None:
    """Finalizer: detach a garbage-collected relation from its kernel.

    Module-level (not a method) so the weakref finalizer does not keep
    the relation alive; dropping the last relation of a registry kernel
    releases the kernel from the registry too.
    """
    kernel.detach()
    if registry is not None:
        registry.release(kernel)


@dataclass(frozen=True)
class Attribute:
    """One input or output attribute of a module relation.

    Parameters
    ----------
    name:
        The attribute name; for workflow-level analysis it matches the data
        label flowing on the corresponding specification edge.
    domain:
        The finite set of values the attribute may take.
    role:
        Either ``"input"`` or ``"output"``.
    weight:
        The utility of *showing* this attribute (equivalently, the cost of
        hiding it).  Used by the optimisation problem of experiment E1.
    """

    name: str
    domain: tuple[object, ...]
    role: str = "input"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.role not in ("input", "output"):
            raise PrivacyError(f"attribute role must be input/output, got {self.role!r}")
        if not self.domain:
            raise PrivacyError(f"attribute {self.name!r} has an empty domain")
        if self.weight < 0:
            raise PrivacyError(f"attribute {self.name!r} has negative weight")
        object.__setattr__(self, "domain", tuple(self.domain))

    @property
    def is_input(self) -> bool:
        """Whether this is an input attribute."""
        return self.role == "input"

    @property
    def is_output(self) -> bool:
        """Whether this is an output attribute."""
        return self.role == "output"


def _position_matrix(
    attributes: tuple[Attribute, ...], tuples: Collection[tuple]
) -> np.ndarray:
    """The ``[len(attributes), rows]`` matrix of domain positions.

    One C-level pass per column through a ``{value: position}`` dict;
    a value outside its attribute's domain raises ``KeyError`` (or
    ``TypeError`` when unhashable).
    """
    columns = (
        map(
            {value: position for position, value in enumerate(a.domain)}.__getitem__,
            map(itemgetter(index), tuples),
        )
        for index, a in enumerate(attributes)
    )
    return np.fromiter(
        itertools.chain.from_iterable(columns),
        dtype=np.int64,
        count=len(attributes) * len(tuples),
    ).reshape(len(attributes), len(tuples))


def _check_rows(
    inputs: tuple[Attribute, ...], outputs: tuple[Attribute, ...], rows: Mapping
) -> None:
    """Raise the first arity or domain violation in row order, if any.

    The slow path behind the columnar construction: a table the fast
    checks reject is re-scanned row by row, so the error names the same
    row and value whatever else is wrong with the table.
    """
    for key, value in rows.items():
        key, value = tuple(key), tuple(value)
        if len(key) != len(inputs):
            raise PrivacyError(
                f"row key {key!r} does not match input arity {len(inputs)}"
            )
        if len(value) != len(outputs):
            raise PrivacyError(
                f"row value {value!r} does not match output arity {len(outputs)}"
            )
        for role, attributes, components in (
            ("input", inputs, key),
            ("output", outputs, value),
        ):
            for attribute, component in zip(attributes, components):
                if component not in attribute.domain:
                    raise PrivacyError(
                        f"value {component!r} outside domain of {role} "
                        f"{attribute.name!r}"
                    )


class ModuleRelation:
    """The function table of a module over discrete attribute domains."""

    def __init__(
        self,
        module_id: str,
        inputs: Sequence[Attribute],
        outputs: Sequence[Attribute],
        rows: Mapping[tuple, tuple],
        *,
        registry: GammaKernelRegistry | None = None,
    ) -> None:
        if not inputs:
            raise PrivacyError(f"module {module_id!r} must have at least one input")
        if not outputs:
            raise PrivacyError(f"module {module_id!r} must have at least one output")
        self.module_id = module_id
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        names = [a.name for a in self.inputs + self.outputs]
        if len(set(names)) != len(names):
            raise PrivacyError(
                f"module {module_id!r} has duplicate attribute names: {names!r}"
            )
        if (
            type(rows) is dict
            and set(map(type, rows)) == {tuple}
            and set(map(type, rows.values())) == {tuple}
        ):
            # Tuples already (the common case): copied in one C-level pass.
            pairs: Mapping | Iterable = rows
        else:
            pairs = zip(list(map(tuple, rows)), list(map(tuple, rows.values())))
        try:
            self._rows: dict[tuple, tuple] = dict(pairs)
            keys, values = self._rows.keys(), self._rows.values()
            if (
                set(map(len, keys)) - {len(self.inputs)}
                or set(map(len, values)) - {len(self.outputs)}
                or len(self._rows) < len(rows)
            ):
                # A wrong arity, or equal keys collapsed: the row-by-row
                # scan reports the first bad row, dropped rows included.
                _check_rows(self.inputs, self.outputs, rows)
            if not self._rows:
                raise PrivacyError(f"module {module_id!r} has an empty relation")
            input_matrix = _position_matrix(self.inputs, keys)
            output_matrix = _position_matrix(self.outputs, values)
        except (KeyError, TypeError):
            _check_rows(self.inputs, self.outputs, rows)
            raise
        self._structure = RelationStructure(
            tuple(len(a.domain) for a in self.inputs),
            tuple(len(a.domain) for a in self.outputs),
            input_matrix,
            output_matrix,
        )
        self._kernel_finalizer: weakref.finalize | None = None
        self._stats: dict[str, int] = {
            "gamma_calls": 0,
            "candidate_calls": 0,
            "reference_scans": 0,
        }
        # Visible-projection tables handed to the adversary, memoized per
        # visibility pair.  Value-level (unlike the canonical kernel state),
        # so it lives on the relation rather than the shared kernel; a small
        # LRU cap keeps it from growing with the number of hidden sets
        # probed (each entry is O(rows)).
        self._projection_tables: OrderedDict[tuple, tuple] = OrderedDict()
        if registry is not None:
            kernel = registry.kernel_for(self._structure)
        else:
            kernel = SharedGammaKernel(self._structure)
            kernel.attach()
        self._attach_kernel(registry, kernel)

    @functools.cached_property
    def _row_index(self) -> dict[tuple, int]:
        """Row position of every input key (built on first use)."""
        return {key: index for index, key in enumerate(self._rows)}

    def _attach_kernel(
        self, registry: GammaKernelRegistry | None, kernel: SharedGammaKernel
    ) -> None:
        """Bind a kernel and arm a finalizer that detaches it on GC.

        The finalizer is what lets a long-lived registry reclaim kernels
        whose relations were simply dropped (no explicit rebind): the
        last garbage-collected relation releases the shared kernel.
        Rebinding never touches the relation-level work counters or
        projection tables -- only the kernel reference changes.
        """
        if self._kernel_finalizer is not None:
            self._kernel_finalizer.detach()
        self._registry = registry
        self._kernel = kernel
        self._kernel_finalizer = weakref.finalize(
            self, _release_abandoned_kernel, registry, kernel
        )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_function(
        cls,
        module_id: str,
        inputs: Sequence[Attribute],
        outputs: Sequence[Attribute],
        function: Callable[[tuple], tuple],
        *,
        registry: GammaKernelRegistry | None = None,
    ) -> "ModuleRelation":
        """Enumerate ``function`` over the full input domain product."""
        rows = {}
        domains = [attribute.domain for attribute in inputs]
        for key in itertools.product(*domains):
            rows[key] = tuple(function(key))
        return cls(module_id, inputs, outputs, rows, registry=registry)

    @classmethod
    def from_table_behavior(
        cls,
        module_id: str,
        behavior: TableBehavior,
        *,
        weights: Mapping[str, float] | None = None,
        registry: GammaKernelRegistry | None = None,
    ) -> "ModuleRelation":
        """Build a relation from an execution-engine :class:`TableBehavior`.

        Domains are inferred from the values appearing in the table.
        """
        weights = dict(weights or {})
        rows = behavior.rows
        input_domains: list[set] = [set() for _ in behavior.input_labels]
        output_domains: list[set] = [set() for _ in behavior.output_labels]
        for key, value in rows.items():
            for index, component in enumerate(key):
                input_domains[index].add(component)
            for index, component in enumerate(value):
                output_domains[index].add(component)
        inputs = [
            Attribute(
                name=name,
                domain=tuple(sorted(domain, key=repr)),
                role="input",
                weight=weights.get(name, 1.0),
            )
            for name, domain in zip(behavior.input_labels, input_domains)
        ]
        outputs = [
            Attribute(
                name=name,
                domain=tuple(sorted(domain, key=repr)),
                role="output",
                weight=weights.get(name, 1.0),
            )
            for name, domain in zip(behavior.output_labels, output_domains)
        ]
        return cls(module_id, inputs, outputs, rows, registry=registry)

    @classmethod
    def random(
        cls,
        module_id: str,
        *,
        n_inputs: int = 2,
        n_outputs: int = 2,
        domain_size: int = 3,
        seed: int = 0,
        weights: Mapping[str, float] | None = None,
        registry: GammaKernelRegistry | None = None,
    ) -> "ModuleRelation":
        """A random total function over uniform domains (for experiments)."""
        rng = random.Random(seed)
        weights = dict(weights or {})
        domain = tuple(range(domain_size))
        inputs = [
            Attribute(
                name=f"{module_id}.in{i}",
                domain=domain,
                role="input",
                weight=weights.get(f"{module_id}.in{i}", 1.0),
            )
            for i in range(n_inputs)
        ]
        outputs = [
            Attribute(
                name=f"{module_id}.out{i}",
                domain=domain,
                role="output",
                weight=weights.get(f"{module_id}.out{i}", 1.0),
            )
            for i in range(n_outputs)
        ]
        rows = {}
        for key in itertools.product(*[domain] * n_inputs):
            rows[key] = tuple(rng.choice(domain) for _ in range(n_outputs))
        return cls(module_id, inputs, outputs, rows, registry=registry)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def rows(self) -> dict[tuple, tuple]:
        """The function table (copy).

        Safe to mutate, but O(rows) per access; hot loops should use
        :attr:`rows_view` instead.
        """
        return dict(self._rows)

    @property
    def rows_view(self) -> Mapping[tuple, tuple]:
        """Read-only, zero-copy view of the function table (hot-loop path)."""
        return MappingProxyType(self._rows)

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes, inputs first."""
        return self.inputs + self.outputs

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise PrivacyError(f"module {self.module_id!r} has no attribute {name!r}")

    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes, inputs first."""
        return tuple(a.name for a in self.attributes)

    def input_names(self) -> tuple[str, ...]:
        """Names of the input attributes."""
        return tuple(a.name for a in self.inputs)

    def output_names(self) -> tuple[str, ...]:
        """Names of the output attributes."""
        return tuple(a.name for a in self.outputs)

    def output_for(self, key: tuple) -> tuple:
        """The output tuple for a given input tuple."""
        key = tuple(key)
        if key not in self._rows:
            raise PrivacyError(
                f"module {self.module_id!r} has no row for input {key!r}"
            )
        return self._rows[key]

    def output_space_size(self) -> int:
        """The size of the full output domain product."""
        size = 1
        for attribute in self.outputs:
            size *= len(attribute.domain)
        return size

    def hiding_cost(self, hidden: Iterable[str]) -> float:
        """Total weight of the hidden attributes (the cost of hiding them)."""
        hidden_set = set(hidden)
        return sum(a.weight for a in self.attributes if a.name in hidden_set)

    # ------------------------------------------------------------------ #
    # Privacy semantics
    # ------------------------------------------------------------------ #
    def _validate_hidden(self, hidden: Iterable[str]) -> set[str]:
        hidden_set = set(hidden)
        known = set(self.attribute_names())
        unknown = hidden_set - known
        if unknown:
            raise PrivacyError(
                f"unknown attributes for module {self.module_id!r}: {sorted(unknown)!r}"
            )
        return hidden_set

    def _visible_indices(
        self, hidden_set: set[str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Canonical cache key: visible input/output attribute positions."""
        visible_inputs = tuple(
            index for index, a in enumerate(self.inputs) if a.name not in hidden_set
        )
        visible_outputs = tuple(
            index for index, a in enumerate(self.outputs) if a.name not in hidden_set
        )
        return visible_inputs, visible_outputs

    def visibility_of(
        self, hidden: Iterable[str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Public (visible-input, visible-output) index pair for ``hidden``.

        This pair plus :attr:`structure_signature` fully determines a Gamma
        evaluation, which is how the sharded evaluation service ships a
        relation's work to a worker process without shipping the relation.
        """
        return self._visible_indices(self._validate_hidden(hidden))

    def _kernel_entry(
        self, visible_inputs: tuple[int, ...], visible_outputs: tuple[int, ...]
    ) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """(partition, per-block candidate counts, Gamma) for a visibility pair.

        Delegates to the (possibly shared) :class:`SharedGammaKernel`:
        one grouped O(rows) pass counts the distinct visible-output
        projections of every partition block, scaled by the free
        completions on hidden output attributes, memoized under the
        kernel's byte budget.
        """
        return self._kernel.entry(visible_inputs, visible_outputs)

    def candidate_outputs(self, key: tuple, hidden: Iterable[str]) -> int:
        """Number of output tuples consistent with the visible provenance.

        The adversary sees, for every row of the relation, the projection on
        the visible attributes.  For a concrete input ``key`` the candidate
        outputs are the visible-output projections of rows that agree with
        ``key`` on the visible inputs, each completed arbitrarily on the
        hidden output attributes.
        """
        hidden_set = self._validate_hidden(hidden)
        key = tuple(key)
        if key not in self._rows:
            raise PrivacyError(
                f"module {self.module_id!r} has no row for input {key!r}"
            )
        self._stats["candidate_calls"] += 1
        partition, counts, _ = self._kernel_entry(*self._visible_indices(hidden_set))
        return int(counts[partition[self._row_index[key]]])

    def candidate_output_counts(self, hidden: Iterable[str]) -> dict[tuple, int]:
        """Candidate-output count of *every* input, in one grouped pass.

        Equivalent to ``{key: candidate_outputs(key, hidden) for key in rows}``
        but O(rows) total instead of O(rows^2).
        """
        hidden_set = self._validate_hidden(hidden)
        partition, counts, _ = self._kernel_entry(*self._visible_indices(hidden_set))
        return {
            key: int(counts[partition[row]])
            for row, key in enumerate(self._rows)
        }

    def visible_projection_table(
        self, hidden: Iterable[str]
    ) -> tuple[tuple[tuple, tuple, tuple], ...]:
        """(key, visible-input, visible-output) projections of every row.

        Sorted by key and memoized per visibility pair (LRU, at most
        :data:`PROJECTION_TABLE_SLOTS` pairs retained); this is what a
        provenance observer sees of the relation, and the adversary's
        observation machinery is built on it.
        """
        hidden_set = self._validate_hidden(hidden)
        visibility = self._visible_indices(hidden_set)
        cached = self._projection_tables.get(visibility)
        if cached is None:
            visible_inputs, visible_outputs = visibility
            rows = self._rows
            cached = tuple(
                (
                    key,
                    tuple(key[index] for index in visible_inputs),
                    tuple(rows[key][index] for index in visible_outputs),
                )
                for key in sorted(rows)
            )
            self._projection_tables[visibility] = cached
            while len(self._projection_tables) > PROJECTION_TABLE_SLOTS:
                self._projection_tables.popitem(last=False)
        else:
            self._projection_tables.move_to_end(visibility)
        return cached

    def achieved_gamma(self, hidden: Iterable[str]) -> int:
        """The privacy level Gamma achieved by hiding ``hidden``.

        Gamma is the minimum number of candidate outputs over all inputs;
        Gamma = 1 means some input's output is fully determined by the
        visible provenance.  Memoized on the visible-attribute set, so
        solver iterations that revisit a hidden subset are O(1).
        """
        hidden_set = self._validate_hidden(hidden)
        self._stats["gamma_calls"] += 1
        _, _, gamma = self._kernel_entry(*self._visible_indices(hidden_set))
        return gamma

    # ------------------------------------------------------------------ #
    # Reference oracle (pre-kernel semantics, kept for equivalence tests)
    # ------------------------------------------------------------------ #
    def reference_candidate_outputs(self, key: tuple, hidden: Iterable[str]) -> int:
        """Naive candidate-output count: one full-table scan per call."""
        hidden_set = self._validate_hidden(hidden)
        key = tuple(key)
        if key not in self._rows:
            raise PrivacyError(
                f"module {self.module_id!r} has no row for input {key!r}"
            )
        self._stats["reference_scans"] += 1
        visible_input_indices = [
            index for index, a in enumerate(self.inputs) if a.name not in hidden_set
        ]
        visible_output_indices = [
            index for index, a in enumerate(self.outputs) if a.name not in hidden_set
        ]
        visible_key = tuple(key[index] for index in visible_input_indices)
        visible_projections = {
            tuple(value[index] for index in visible_output_indices)
            for row_key, value in self._rows.items()
            if tuple(row_key[index] for index in visible_input_indices) == visible_key
        }
        hidden_output_combinations = 1
        for index, attribute in enumerate(self.outputs):
            if index not in visible_output_indices:
                hidden_output_combinations *= len(attribute.domain)
        return len(visible_projections) * hidden_output_combinations

    def reference_achieved_gamma(self, hidden: Iterable[str]) -> int:
        """Naive Gamma: re-scans the whole table once per input."""
        hidden_set = self._validate_hidden(hidden)
        return min(
            self.reference_candidate_outputs(key, hidden_set) for key in self._rows
        )

    # ------------------------------------------------------------------ #
    # Kernel instrumentation
    # ------------------------------------------------------------------ #
    @property
    def kernel(self) -> SharedGammaKernel:
        """The evaluation kernel backing this relation (possibly shared)."""
        return self._kernel

    @property
    def registry(self) -> GammaKernelRegistry | None:
        """The registry the kernel was obtained from, if any."""
        return self._registry

    @property
    def structure_signature(self) -> RelationStructure:
        """The canonical structure used for cross-relation kernel sharing."""
        return self._structure

    def bind_registry(self, registry: GammaKernelRegistry) -> SharedGammaKernel:
        """Attach this relation to ``registry``'s shared kernel.

        Structurally identical relations already adopted by the registry
        resolve to the same kernel, so their memoized partitions and
        Gamma entries are reused immediately.  Idempotent: re-adopting
        into the current registry is a no-op, so attachment and sharing
        statistics stay honest.  Otherwise the previous (private or
        shared) kernel is detached and dropped; no results change because
        the kernel state is a pure cache.
        """
        if self._registry is registry:
            return self._kernel
        previous_kernel = self._kernel
        previous_registry = self._registry
        previous_kernel.detach()
        self._attach_kernel(registry, registry.kernel_for(self._structure))
        if previous_registry is not None:
            # Abandoned shared kernels must not pile up in the old registry.
            previous_registry.release(previous_kernel)
        return self._kernel

    @property
    def kernel_stats(self) -> dict[str, int]:
        """Counters of kernel work, plus derived scan accounting.

        ``full_table_scans`` is the number of O(rows) passes the kernel
        actually performed; ``naive_equivalent_scans`` is what the reference
        semantics would have performed for the same call sequence (one scan
        per input per Gamma call, one per candidate call).  Their ratio is
        the benchmarks' headline speedup metric.  When the kernel is shared
        through a registry the kernel-side counters (hits, passes,
        evictions) aggregate the work of every attached relation.
        """
        stats = dict(self._stats)
        stats.update(self._kernel.counters)
        stats["full_table_scans"] = (
            stats["partition_refinements"] + stats["grouping_passes"]
        )
        stats["naive_equivalent_scans"] = (
            stats["gamma_calls"] * len(self._rows) + stats["candidate_calls"]
        )
        return stats

    def reset_kernel_stats(self) -> None:
        """Zero the work counters (caches are kept -- they stay valid).

        On a shared kernel this zeroes the shared counters too, for every
        attached relation.
        """
        for key in self._stats:
            self._stats[key] = 0
        self._kernel.reset_counters()

    def is_safe(self, hidden: Iterable[str], gamma: int) -> bool:
        """Whether hiding ``hidden`` guarantees privacy level ``gamma``."""
        if gamma < 1:
            raise PrivacyError("gamma must be >= 1")
        return self.achieved_gamma(hidden) >= gamma

    def max_gamma(self) -> int:
        """The best achievable Gamma (hide everything)."""
        return self.achieved_gamma(set(self.attribute_names()))

    def __repr__(self) -> str:
        return (
            f"ModuleRelation(module={self.module_id!r}, "
            f"inputs={len(self.inputs)}, outputs={len(self.outputs)}, "
            f"rows={len(self._rows)})"
        )


class KernelRelation:
    """A relation-shaped adapter over a canonical structure.

    Scaled workloads (E12's million-row relations) never materialize a
    row *mapping* -- only the canonical column table exists.  This class
    exposes exactly the surface the exact solver and the frontier sweep use
    (``attributes`` / ``attribute_names`` / ``visibility_of`` /
    ``achieved_gamma`` / ``hiding_cost`` / ``max_gamma`` / ``kernel`` /
    ``structure_signature``) on top of a shared Gamma kernel, with
    positional attribute names ``i0..``/``o0..`` and unit weights unless
    overridden.
    """

    def __init__(
        self,
        module_id: str,
        structure: RelationStructure,
        *,
        registry: GammaKernelRegistry | None = None,
        weights: Mapping[str, float] | None = None,
    ) -> None:
        self.module_id = module_id
        self._kernel = (
            registry.ensure_kernel(structure)
            if registry is not None
            else SharedGammaKernel(structure)
        )
        weights = dict(weights or {})
        self.inputs = tuple(
            Attribute(
                f"i{position}",
                tuple(range(size)),
                "input",
                weights.get(f"i{position}", 1.0),
            )
            for position, size in enumerate(structure.input_domain_sizes)
        )
        self.outputs = tuple(
            Attribute(
                f"o{position}",
                tuple(range(size)),
                "output",
                weights.get(f"o{position}", 1.0),
            )
            for position, size in enumerate(structure.output_domain_sizes)
        )

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """All attributes, inputs first (the solver cost surface)."""
        return self.inputs + self.outputs

    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes, inputs first."""
        return tuple(attribute.name for attribute in self.attributes)

    @property
    def kernel(self) -> SharedGammaKernel:
        """The shared Gamma kernel backing this adapter."""
        return self._kernel

    @property
    def structure_signature(self) -> RelationStructure:
        """The canonical structure (service requests ship this)."""
        return self._kernel.structure

    def visibility_of(
        self, hidden: Iterable[str]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(visible-input, visible-output) index pair for ``hidden``."""
        hidden_set = set(hidden)
        unknown = hidden_set - set(self.attribute_names())
        if unknown:
            raise PrivacyError(
                f"unknown attributes for module {self.module_id!r}: "
                f"{sorted(unknown)!r}"
            )
        visible_inputs = tuple(
            index
            for index, attribute in enumerate(self.inputs)
            if attribute.name not in hidden_set
        )
        visible_outputs = tuple(
            index
            for index, attribute in enumerate(self.outputs)
            if attribute.name not in hidden_set
        )
        return visible_inputs, visible_outputs

    def achieved_gamma(self, hidden: Iterable[str]) -> int:
        """Exact Gamma when hiding ``hidden`` (the oracle path)."""
        _, _, gamma = self._kernel.entry(*self.visibility_of(hidden))
        return gamma

    def hiding_cost(self, hidden: Iterable[str]) -> float:
        """Total weight of the hidden attributes."""
        hidden_set = set(hidden)
        return sum(
            attribute.weight
            for attribute in self.attributes
            if attribute.name in hidden_set
        )

    def max_gamma(self) -> int:
        """The best achievable Gamma (hide everything)."""
        return self.achieved_gamma(self.attribute_names())

    def __repr__(self) -> str:
        return (
            f"KernelRelation(module={self.module_id!r}, "
            f"rows={self._kernel.structure.row_count})"
        )
