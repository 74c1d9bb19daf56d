"""Single-level workflow graphs.

A :class:`WorkflowGraph` is a directed acyclic graph whose nodes are
:class:`~repro.workflow.module.Module` objects and whose edges are
:class:`~repro.workflow.module.DataEdge` objects.  It models one level of a
hierarchical workflow specification: the top-level workflow (``W1`` in the
paper's Fig. 1) or the definition of a composite module (``W2``-``W4``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import (
    CycleError,
    DuplicateModuleError,
    InvalidEdgeError,
    SpecificationError,
    UnknownModuleError,
)
from repro.workflow.module import DataEdge, Module, ModuleKind

if TYPE_CHECKING:
    import networkx as nx


class WorkflowGraph:
    """A directed acyclic dataflow graph over modules.

    The graph enforces referential integrity eagerly (edges may only connect
    known modules) and acyclicity lazily (checked by :meth:`validate` and by
    :meth:`topological_order`).
    """

    def __init__(self, workflow_id: str, name: str | None = None) -> None:
        if not workflow_id:
            raise SpecificationError("workflow_id must be a non-empty string")
        self.workflow_id = workflow_id
        self.name = name if name is not None else workflow_id
        self._modules: dict[str, Module] = {}
        self._edges: dict[tuple[str, str], DataEdge] = {}
        self._successors: dict[str, set[str]] = {}
        self._predecessors: dict[str, set[str]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_module(self, module: Module) -> Module:
        """Add ``module`` to the graph and return it.

        Raises :class:`DuplicateModuleError` if a module with the same
        identifier already exists.
        """
        if module.module_id in self._modules:
            raise DuplicateModuleError(
                f"module {module.module_id!r} already exists in workflow "
                f"{self.workflow_id!r}"
            )
        self._modules[module.module_id] = module
        self._successors[module.module_id] = set()
        self._predecessors[module.module_id] = set()
        return module

    def add_edge(
        self, source: str, target: str, labels: Iterable[str] = ()
    ) -> DataEdge:
        """Add a dataflow edge from ``source`` to ``target``.

        If an edge between the two modules already exists, the labels are
        merged (order preserved, duplicates removed).
        """
        if source not in self._modules:
            raise UnknownModuleError(source)
        if target not in self._modules:
            raise UnknownModuleError(target)
        if self._modules[source].kind is ModuleKind.OUTPUT:
            raise InvalidEdgeError(
                f"output module {source!r} cannot have outgoing edges"
            )
        if self._modules[target].kind is ModuleKind.INPUT:
            raise InvalidEdgeError(
                f"input module {target!r} cannot have incoming edges"
            )
        new_labels = tuple(labels)
        key = (source, target)
        existing = self._edges.get(key)
        if existing is not None:
            merged = list(existing.labels)
            for label in new_labels:
                if label not in merged:
                    merged.append(label)
            edge = existing.with_labels(tuple(merged))
        else:
            edge = DataEdge(source=source, target=target, labels=new_labels)
        self._edges[key] = edge
        self._successors[source].add(target)
        self._predecessors[target].add(source)
        return edge

    def remove_edge(self, source: str, target: str) -> None:
        """Remove the edge between ``source`` and ``target`` if present."""
        key = (source, target)
        if key not in self._edges:
            return
        del self._edges[key]
        self._successors[source].discard(target)
        self._predecessors[target].discard(source)

    def remove_module(self, module_id: str) -> None:
        """Remove a module and all edges incident to it."""
        if module_id not in self._modules:
            raise UnknownModuleError(module_id)
        for succ in list(self._successors[module_id]):
            self.remove_edge(module_id, succ)
        for pred in list(self._predecessors[module_id]):
            self.remove_edge(pred, module_id)
        del self._modules[module_id]
        del self._successors[module_id]
        del self._predecessors[module_id]

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def modules(self) -> dict[str, Module]:
        """Mapping from module id to :class:`Module` (do not mutate)."""
        return self._modules

    @property
    def edges(self) -> list[DataEdge]:
        """All edges of the graph, in insertion order."""
        return list(self._edges.values())

    def module(self, module_id: str) -> Module:
        """Return the module with the given id, raising if unknown."""
        try:
            return self._modules[module_id]
        except KeyError:
            raise UnknownModuleError(module_id) from None

    def has_module(self, module_id: str) -> bool:
        """Whether a module with the given id exists."""
        return module_id in self._modules

    def has_edge(self, source: str, target: str) -> bool:
        """Whether a direct edge from ``source`` to ``target`` exists."""
        return (source, target) in self._edges

    def edge(self, source: str, target: str) -> DataEdge:
        """Return the edge from ``source`` to ``target``, raising if absent."""
        try:
            return self._edges[(source, target)]
        except KeyError:
            raise InvalidEdgeError(f"no edge {source!r} -> {target!r}") from None

    def successors(self, module_id: str) -> list[str]:
        """Direct successors of a module, sorted for determinism."""
        if module_id not in self._modules:
            raise UnknownModuleError(module_id)
        return sorted(self._successors[module_id])

    def predecessors(self, module_id: str) -> list[str]:
        """Direct predecessors of a module, sorted for determinism."""
        if module_id not in self._modules:
            raise UnknownModuleError(module_id)
        return sorted(self._predecessors[module_id])

    def out_edges(self, module_id: str) -> list[DataEdge]:
        """Outgoing edges of a module."""
        return [self._edges[(module_id, s)] for s in self.successors(module_id)]

    def in_edges(self, module_id: str) -> list[DataEdge]:
        """Incoming edges of a module."""
        return [self._edges[(p, module_id)] for p in self.predecessors(module_id)]

    def input_module(self) -> Module:
        """The unique INPUT pseudo module of this graph."""
        inputs = [m for m in self._modules.values() if m.kind is ModuleKind.INPUT]
        if len(inputs) != 1:
            raise SpecificationError(
                f"workflow {self.workflow_id!r} must have exactly one input "
                f"module, found {len(inputs)}"
            )
        return inputs[0]

    def output_module(self) -> Module:
        """The unique OUTPUT pseudo module of this graph."""
        outputs = [m for m in self._modules.values() if m.kind is ModuleKind.OUTPUT]
        if len(outputs) != 1:
            raise SpecificationError(
                f"workflow {self.workflow_id!r} must have exactly one output "
                f"module, found {len(outputs)}"
            )
        return outputs[0]

    def composite_modules(self) -> list[Module]:
        """All composite modules of this graph."""
        return [m for m in self._modules.values() if m.is_composite]

    def atomic_modules(self) -> list[Module]:
        """All atomic modules of this graph."""
        return [m for m in self._modules.values() if m.is_atomic]

    def processing_modules(self) -> list[Module]:
        """All non-IO modules (atomic and composite)."""
        return [m for m in self._modules.values() if not m.is_io]

    def entry_modules(self) -> list[str]:
        """Modules that receive data directly from the input pseudo module."""
        return self.successors(self.input_module().module_id)

    def exit_modules(self) -> list[str]:
        """Modules that send data directly to the output pseudo module."""
        return self.predecessors(self.output_module().module_id)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[str]:
        """Module ids in a deterministic topological order.

        Raises :class:`CycleError` if the graph contains a cycle.  Ties are
        broken by module id so that repeated calls return the same order.
        """
        in_degree = {mid: len(self._predecessors[mid]) for mid in self._modules}
        ready = sorted(mid for mid, deg in in_degree.items() if deg == 0)
        queue = deque(ready)
        order: list[str] = []
        while queue:
            current = queue.popleft()
            order.append(current)
            newly_ready = []
            for succ in self._successors[current]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    newly_ready.append(succ)
            for succ in sorted(newly_ready):
                queue.append(succ)
        if len(order) != len(self._modules):
            raise CycleError(
                f"workflow {self.workflow_id!r} contains a cycle"
            )
        return order

    def is_acyclic(self) -> bool:
        """Whether the graph is a DAG."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def descendants(self, module_id: str) -> set[str]:
        """All modules reachable from ``module_id`` (excluding itself)."""
        if module_id not in self._modules:
            raise UnknownModuleError(module_id)
        seen: set[str] = set()
        stack = list(self._successors[module_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return seen

    def ancestors(self, module_id: str) -> set[str]:
        """All modules that can reach ``module_id`` (excluding itself)."""
        if module_id not in self._modules:
            raise UnknownModuleError(module_id)
        seen: set[str] = set()
        stack = list(self._predecessors[module_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._predecessors[node])
        return seen

    def is_reachable(self, source: str, target: str) -> bool:
        """Whether a directed path from ``source`` to ``target`` exists."""
        if source == target:
            return True
        return target in self.descendants(source)

    def reachable_pairs(self) -> set[tuple[str, str]]:
        """All ordered pairs ``(u, v)`` with ``u != v`` and a path u -> v."""
        pairs: set[tuple[str, str]] = set()
        for module_id in self._modules:
            for descendant in self.descendants(module_id):
                pairs.add((module_id, descendant))
        return pairs

    def validate(self) -> None:
        """Check structural invariants, raising on the first violation.

        Invariants: exactly one input and one output pseudo module, the
        graph is acyclic, and every non-IO module lies on a path from the
        input to the output module.
        """
        input_id = self.input_module().module_id
        output_id = self.output_module().module_id
        self.topological_order()
        from_input = self.descendants(input_id) | {input_id}
        to_output = self.ancestors(output_id) | {output_id}
        for module_id in self._modules:
            if module_id not in from_input:
                raise SpecificationError(
                    f"module {module_id!r} in workflow {self.workflow_id!r} is "
                    "not reachable from the input module"
                )
            if module_id not in to_output:
                raise SpecificationError(
                    f"module {module_id!r} in workflow {self.workflow_id!r} "
                    "cannot reach the output module"
                )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export the graph as a :class:`networkx.DiGraph`.

        Node attributes carry the module name/kind/keywords; edge attributes
        carry the data labels.
        """
        import networkx as nx

        graph = nx.DiGraph(workflow_id=self.workflow_id, name=self.name)
        for module in self._modules.values():
            graph.add_node(
                module.module_id,
                name=module.name,
                kind=module.kind.value,
                keywords=module.keywords,
                subworkflow_id=module.subworkflow_id,
            )
        for edge in self._edges.values():
            graph.add_edge(edge.source, edge.target, labels=edge.labels)
        return graph

    def copy(self) -> "WorkflowGraph":
        """Return a deep-enough copy (modules are immutable and shared)."""
        clone = WorkflowGraph(self.workflow_id, self.name)
        for module in self._modules.values():
            clone.add_module(module)
        for edge in self._edges.values():
            clone.add_edge(edge.source, edge.target, edge.labels)
        return clone

    def all_labels(self) -> set[str]:
        """The set of all data labels appearing on edges."""
        labels: set[str] = set()
        for edge in self._edges.values():
            labels.update(edge.labels)
        return labels

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._modules)

    def __contains__(self, module_id: object) -> bool:
        return module_id in self._modules

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __repr__(self) -> str:
        return (
            f"WorkflowGraph(id={self.workflow_id!r}, modules={len(self._modules)}, "
            f"edges={len(self._edges)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkflowGraph):
            return NotImplemented
        return (
            self.workflow_id == other.workflow_id
            and self._modules == other._modules
            and self._edges == other._edges
        )
