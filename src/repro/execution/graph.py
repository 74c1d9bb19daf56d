"""Execution (provenance) graphs.

An execution graph records one run of a workflow specification: nodes are
module executions (with unique process identifiers), composite-module
executions are represented by begin/end node pairs, and edges are annotated
with the set of data items that flowed over them (Fig. 4 of the paper).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import CycleError, DataItemError, ExecutionError
from repro.execution.dataitem import DataItem

if TYPE_CHECKING:
    import networkx as nx


class NodeEvent(str, Enum):
    """The kind of event an execution node represents."""

    INPUT = "input"
    OUTPUT = "output"
    SINGLE = "single"
    BEGIN = "begin"
    END = "end"
    COLLAPSED = "collapsed"


@dataclass(frozen=True)
class ExecutionNode:
    """One node of an execution graph.

    ``node_id`` is unique in the graph; for atomic module executions it has
    the form ``"S2:M3"``, for composite executions ``"S1:M1:begin"`` /
    ``"S1:M1:end"``, and for collapsed composite executions in a view simply
    ``"S1:M1"``.
    """

    node_id: str
    module_id: str
    event: NodeEvent
    process_id: str | None = None

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ExecutionError("node_id must be a non-empty string")

    @property
    def is_io(self) -> bool:
        """Whether the node is the execution's input or output node."""
        return self.event in (NodeEvent.INPUT, NodeEvent.OUTPUT)

    @property
    def display_name(self) -> str:
        """The human-readable label used when rendering figures."""
        if self.is_io:
            return self.module_id
        suffix = ""
        if self.event is NodeEvent.BEGIN:
            suffix = " begin"
        elif self.event is NodeEvent.END:
            suffix = " end"
        return f"{self.process_id}:{self.module_id}{suffix}"


@dataclass(frozen=True)
class ExecutionEdge:
    """A dataflow edge of an execution graph annotated with data item ids."""

    source: str
    target: str
    data_ids: frozenset[str] = frozenset()

    def sorted_data_ids(self) -> list[str]:
        """Data ids sorted by their numeric index, for stable rendering."""
        return sorted(self.data_ids, key=_data_sort_key)


def _data_sort_key(data_id: str) -> tuple[int, str]:
    digits = "".join(ch for ch in data_id if ch.isdigit())
    return (int(digits) if digits else -1, data_id)


class ExecutionGraph:
    """A single execution (run) of a workflow specification."""

    def __init__(
        self,
        execution_id: str,
        specification_id: str,
        *,
        input_node_id: str = "I",
        output_node_id: str = "O",
    ) -> None:
        if not execution_id:
            raise ExecutionError("execution_id must be a non-empty string")
        self.execution_id = execution_id
        self.specification_id = specification_id
        self.input_node_id = input_node_id
        self.output_node_id = output_node_id
        self._nodes: dict[str, ExecutionNode] = {}
        self._edges: dict[tuple[str, str], frozenset[str]] = {}
        self._successors: dict[str, set[str]] = {}
        self._predecessors: dict[str, set[str]] = {}
        self._data_items: dict[str, DataItem] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: ExecutionNode) -> ExecutionNode:
        """Add an execution node."""
        if node.node_id in self._nodes:
            raise ExecutionError(f"execution node {node.node_id!r} already exists")
        self._nodes[node.node_id] = node
        self._successors[node.node_id] = set()
        self._predecessors[node.node_id] = set()
        return node

    def add_edge(
        self, source: str, target: str, data_ids: Iterable[str] = ()
    ) -> ExecutionEdge:
        """Add an edge carrying ``data_ids``; merges with an existing edge."""
        if source not in self._nodes:
            raise ExecutionError(f"unknown execution node {source!r}")
        if target not in self._nodes:
            raise ExecutionError(f"unknown execution node {target!r}")
        if source == target:
            raise ExecutionError(f"self loops are not allowed ({source!r})")
        key = (source, target)
        merged = self._edges.get(key, frozenset()) | frozenset(data_ids)
        self._edges[key] = merged
        self._successors[source].add(target)
        self._predecessors[target].add(source)
        return ExecutionEdge(source, target, merged)

    def add_data_item(self, item: DataItem) -> DataItem:
        """Register a data item (each id may be produced only once)."""
        if item.data_id in self._data_items:
            raise DataItemError(f"data item {item.data_id!r} produced twice")
        if item.producer not in self._nodes:
            raise DataItemError(
                f"data item {item.data_id!r} produced by unknown node {item.producer!r}"
            )
        self._data_items[item.data_id] = item
        return item

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> dict[str, ExecutionNode]:
        """Mapping from node id to node (do not mutate)."""
        return self._nodes

    @property
    def edges(self) -> list[ExecutionEdge]:
        """All edges in insertion order."""
        return [
            ExecutionEdge(source, target, data_ids)
            for (source, target), data_ids in self._edges.items()
        ]

    @property
    def data_items(self) -> dict[str, DataItem]:
        """Mapping from data id to :class:`DataItem` (do not mutate)."""
        return self._data_items

    def node(self, node_id: str) -> ExecutionNode:
        """Return a node by id, raising if unknown."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ExecutionError(f"unknown execution node {node_id!r}") from None

    def has_node(self, node_id: str) -> bool:
        """Whether a node with the given id exists."""
        return node_id in self._nodes

    def has_edge(self, source: str, target: str) -> bool:
        """Whether an edge from ``source`` to ``target`` exists."""
        return (source, target) in self._edges

    def data_on_edge(self, source: str, target: str) -> frozenset[str]:
        """The data item ids flowing on an edge (empty set if absent)."""
        return self._edges.get((source, target), frozenset())

    def data_item(self, data_id: str) -> DataItem:
        """Return a data item by id, raising if unknown."""
        try:
            return self._data_items[data_id]
        except KeyError:
            raise DataItemError(f"unknown data item {data_id!r}") from None

    def successors(self, node_id: str) -> list[str]:
        """Direct successors of a node, sorted for determinism."""
        if node_id not in self._nodes:
            raise ExecutionError(f"unknown execution node {node_id!r}")
        return sorted(self._successors[node_id])

    def predecessors(self, node_id: str) -> list[str]:
        """Direct predecessors of a node, sorted for determinism."""
        if node_id not in self._nodes:
            raise ExecutionError(f"unknown execution node {node_id!r}")
        return sorted(self._predecessors[node_id])

    def input_node(self) -> ExecutionNode:
        """The execution's input node."""
        return self.node(self.input_node_id)

    def output_node(self) -> ExecutionNode:
        """The execution's output node."""
        return self.node(self.output_node_id)

    def nodes_for_module(self, module_id: str) -> list[ExecutionNode]:
        """All nodes that are executions of specification module ``module_id``."""
        return [n for n in self._nodes.values() if n.module_id == module_id]

    def executed_module_ids(self) -> set[str]:
        """Ids of all specification modules that appear in this execution."""
        return {n.module_id for n in self._nodes.values() if not n.is_io}

    def producer_of(self, data_id: str) -> ExecutionNode:
        """The node that produced the given data item."""
        return self.node(self.data_item(data_id).producer)

    def consumers_of(self, data_id: str) -> list[ExecutionNode]:
        """Nodes that received the given data item over some edge."""
        consumers = []
        for (source, target), data_ids in self._edges.items():
            del source
            if data_id in data_ids:
                consumers.append(self.node(target))
        unique = {node.node_id: node for node in consumers}
        return [unique[node_id] for node_id in sorted(unique)]

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #
    def topological_order(self) -> list[str]:
        """Node ids in a deterministic topological order."""
        in_degree = {nid: len(self._predecessors[nid]) for nid in self._nodes}
        queue = deque(sorted(nid for nid, deg in in_degree.items() if deg == 0))
        order: list[str] = []
        while queue:
            current = queue.popleft()
            order.append(current)
            ready = []
            for succ in self._successors[current]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
            for succ in sorted(ready):
                queue.append(succ)
        if len(order) != len(self._nodes):
            raise CycleError(f"execution {self.execution_id!r} contains a cycle")
        return order

    def descendants(self, node_id: str) -> set[str]:
        """All nodes reachable from ``node_id`` (excluding itself)."""
        if node_id not in self._nodes:
            raise ExecutionError(f"unknown execution node {node_id!r}")
        seen: set[str] = set()
        stack = list(self._successors[node_id])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._successors[node])
        return seen

    def ancestors(self, node_id: str) -> set[str]:
        """All nodes that can reach ``node_id`` (excluding itself)."""
        if node_id not in self._nodes:
            raise ExecutionError(f"unknown execution node {node_id!r}")
        seen: set[str] = set()
        stack = list(self._predecessors[node_id])
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
        """All ordered node pairs connected by a directed path."""
        pairs: set[tuple[str, str]] = set()
        for node_id in self._nodes:
            for descendant in self.descendants(node_id):
                pairs.add((node_id, descendant))
        return pairs

    def module_reachable_pairs(self) -> set[tuple[str, str]]:
        """Reachability between specification modules implied by this run.

        A pair ``(m, m')`` is included when some execution node of ``m`` can
        reach some execution node of ``m'``.  Begin/end pairs of the same
        composite do not create a self pair.
        """
        pairs: set[tuple[str, str]] = set()
        for source_id in self._nodes:
            source = self._nodes[source_id]
            if source.is_io:
                continue
            for target_id in self.descendants(source_id):
                target = self._nodes[target_id]
                if target.is_io or target.module_id == source.module_id:
                    continue
                pairs.add((source.module_id, target.module_id))
        return pairs

    def validate(self) -> None:
        """Check structural invariants of the execution graph.

        The graph must be acyclic, contain its input and output nodes, and
        every data item mentioned on an edge must be registered with a
        producer that is the source of at least one edge carrying it.
        """
        self.topological_order()
        self.input_node()
        self.output_node()
        for (source, target), data_ids in self._edges.items():
            del target
            for data_id in data_ids:
                item = self.data_item(data_id)
                del item
        for data_id, item in self._data_items.items():
            carrying = [
                s for (s, _t), ids in self._edges.items() if data_id in ids
            ]
            if carrying and item.producer not in carrying:
                # The producer must be the source of at least one edge that
                # carries the item; downstream edges may forward it further.
                first_sources = set(carrying)
                if item.producer not in first_sources:
                    raise DataItemError(
                        f"data item {data_id!r} flows from {sorted(first_sources)!r} "
                        f"but is declared as produced by {item.producer!r}"
                    )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """Export the execution as a :class:`networkx.DiGraph`."""
        import networkx as nx

        graph = nx.DiGraph(
            execution_id=self.execution_id, specification_id=self.specification_id
        )
        for node in self._nodes.values():
            graph.add_node(
                node.node_id,
                module_id=node.module_id,
                event=node.event.value,
                process_id=node.process_id,
            )
        for (source, target), data_ids in self._edges.items():
            graph.add_edge(source, target, data_ids=sorted(data_ids))
        return graph

    def copy(self) -> "ExecutionGraph":
        """Return a copy sharing immutable nodes and data items."""
        clone = ExecutionGraph(
            self.execution_id,
            self.specification_id,
            input_node_id=self.input_node_id,
            output_node_id=self.output_node_id,
        )
        for node in self._nodes.values():
            clone.add_node(node)
        for (source, target), data_ids in self._edges.items():
            clone.add_edge(source, target, data_ids)
        for item in self._data_items.values():
            clone.add_data_item(item)
        return clone

    def induced_subgraph(self, node_ids: Iterable[str]) -> "ExecutionGraph":
        """The subgraph induced by ``node_ids`` (keeping relevant data items)."""
        keep = set(node_ids)
        sub = ExecutionGraph(
            f"{self.execution_id}/sub",
            self.specification_id,
            input_node_id=self.input_node_id,
            output_node_id=self.output_node_id,
        )
        for node_id in keep:
            sub.add_node(self.node(node_id))
        kept_data: set[str] = set()
        for (source, target), data_ids in self._edges.items():
            if source in keep and target in keep:
                sub.add_edge(source, target, data_ids)
                kept_data.update(data_ids)
        for data_id in kept_data:
            item = self.data_item(data_id)
            if item.producer in keep:
                sub.add_data_item(item)
        return sub

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: object) -> bool:
        return node_id in self._nodes

    def __iter__(self) -> Iterator[ExecutionNode]:
        return iter(self._nodes.values())

    def __repr__(self) -> str:
        return (
            f"ExecutionGraph(id={self.execution_id!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)}, data_items={len(self._data_items)})"
        )
