"""Expansion hierarchies and their prefixes.

The tau-expansions of a specification form a tree over workflow graphs
(Fig. 3 of the paper).  A *prefix* of that tree (the root plus any
ancestor-closed subset) defines a view of the specification and of its
executions: composite modules whose definition belongs to the prefix are
expanded, all others stay collapsed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import InvalidPrefixError, UnknownWorkflowError
from repro.workflow.specification import WorkflowSpecification

if TYPE_CHECKING:
    import networkx as nx

Prefix = frozenset[str]


class ExpansionHierarchy:
    """The tree of tau-expansions of a workflow specification."""

    def __init__(self, specification: WorkflowSpecification) -> None:
        self.specification = specification
        self.root_id = specification.root_id
        self._children: dict[str, tuple[str, ...]] = {}
        self._parent: dict[str, str | None] = {}
        for workflow_id in specification.workflow_ids():
            children = tuple(specification.expansion_children(workflow_id))
            self._children[workflow_id] = children
        self._parent[self.root_id] = None
        for workflow_id, children in self._children.items():
            for child in children:
                self._parent[child] = workflow_id

    # ------------------------------------------------------------------ #
    # Tree accessors
    # ------------------------------------------------------------------ #
    def workflows(self) -> list[str]:
        """All workflow ids, root first."""
        return list(self._children)

    def children(self, workflow_id: str) -> tuple[str, ...]:
        """Direct children of a workflow in the expansion tree."""
        try:
            return self._children[workflow_id]
        except KeyError:
            raise UnknownWorkflowError(workflow_id) from None

    def parent(self, workflow_id: str) -> str | None:
        """Parent workflow, or ``None`` for the root."""
        try:
            return self._parent[workflow_id]
        except KeyError:
            raise UnknownWorkflowError(workflow_id) from None

    def ancestors(self, workflow_id: str) -> list[str]:
        """Workflows on the path from ``workflow_id`` (exclusive) to the root."""
        chain: list[str] = []
        current = self.parent(workflow_id)
        while current is not None:
            chain.append(current)
            current = self._parent[current]
        return chain

    def descendants(self, workflow_id: str) -> set[str]:
        """All workflows below ``workflow_id`` in the tree (excluding it)."""
        result: set[str] = set()
        stack = list(self.children(workflow_id))
        while stack:
            current = stack.pop()
            result.add(current)
            stack.extend(self._children[current])
        return result

    def depth(self, workflow_id: str) -> int:
        """Depth of a workflow (root is 0)."""
        return len(self.ancestors(workflow_id))

    def height(self) -> int:
        """The maximum depth over all workflows."""
        return max(self.depth(wid) for wid in self._children)

    # ------------------------------------------------------------------ #
    # Prefixes
    # ------------------------------------------------------------------ #
    def root_prefix(self) -> Prefix:
        """The coarsest view: only the root workflow is expanded."""
        return frozenset({self.root_id})

    def full_prefix(self) -> Prefix:
        """The finest view: every workflow is expanded."""
        return frozenset(self._children)

    def is_prefix(self, workflow_ids: Iterable[str]) -> bool:
        """Whether ``workflow_ids`` forms a prefix of the expansion tree.

        A prefix must contain the root, only contain known workflows, and be
        closed under taking parents.
        """
        ids = set(workflow_ids)
        if self.root_id not in ids:
            return False
        for workflow_id in ids:
            if workflow_id not in self._children:
                return False
            parent = self._parent[workflow_id]
            if parent is not None and parent not in ids:
                return False
        return True

    def validate_prefix(self, workflow_ids: Iterable[str]) -> Prefix:
        """Return ``workflow_ids`` as a prefix, raising if it is not one."""
        ids = frozenset(workflow_ids)
        if not self.is_prefix(ids):
            raise InvalidPrefixError(
                f"{sorted(ids)!r} is not a prefix of the expansion hierarchy "
                f"rooted at {self.root_id!r}"
            )
        return ids

    def prefix_closure(self, workflow_ids: Iterable[str]) -> Prefix:
        """The smallest prefix containing every workflow in ``workflow_ids``."""
        closure: set[str] = {self.root_id}
        for workflow_id in workflow_ids:
            if workflow_id not in self._children:
                raise UnknownWorkflowError(workflow_id)
            closure.add(workflow_id)
            closure.update(self.ancestors(workflow_id))
        return frozenset(closure)

    def all_prefixes(self) -> Iterator[Prefix]:
        """Enumerate every prefix of the expansion tree.

        The number of prefixes is exponential in the worst case; the method
        is intended for the small hierarchies used in tests and for exact
        optimisation baselines.
        """

        def expand(prefix: frozenset[str], frontier: tuple[str, ...]) -> Iterator[Prefix]:
            yield prefix
            for index, workflow_id in enumerate(frontier):
                new_prefix = prefix | {workflow_id}
                new_frontier = frontier[index + 1 :] + self._children[workflow_id]
                yield from expand(new_prefix, new_frontier)

        yield from expand(frozenset({self.root_id}), self._children[self.root_id])

    def prefix_count(self) -> int:
        """The number of distinct prefixes of the expansion tree."""

        def count(workflow_id: str) -> int:
            # Number of prefixes of the subtree rooted at workflow_id that
            # include workflow_id itself.
            product = 1
            for child in self._children[workflow_id]:
                product *= 1 + count(child)
            return product

        return count(self.root_id)

    # ------------------------------------------------------------------ #
    # Module visibility
    # ------------------------------------------------------------------ #
    def visible_modules(self, prefix: Iterable[str]) -> set[str]:
        """Module ids visible in the view defined by ``prefix``.

        A module is visible when its defining workflow belongs to the prefix
        and, if it is composite, its own expansion does *not* belong to the
        prefix (otherwise it has been replaced by its definition).
        """
        prefix_set = self.validate_prefix(prefix)
        visible: set[str] = set()
        for workflow_id in prefix_set:
            graph = self.specification.workflow(workflow_id)
            for module in graph:
                if module.is_composite and module.subworkflow_id in prefix_set:
                    continue
                if module.is_io and workflow_id != self.root_id:
                    # IO pseudo modules of subworkflows are splicing artefacts.
                    continue
                visible.add(module.module_id)
        return visible

    def defining_prefix_for_modules(self, module_ids: Iterable[str]) -> Prefix:
        """The smallest prefix in which every listed module is visible."""
        workflows = [
            self.specification.defining_workflow(module_id) for module_id in module_ids
        ]
        return self.prefix_closure(workflows)

    def prefix_hiding_modules(self, module_ids: Iterable[str]) -> Prefix | None:
        """The largest prefix in which none of the listed modules is visible.

        Returns ``None`` when hiding is impossible because some module is
        declared directly in the root workflow (which is always expanded).
        """
        forbidden: set[str] = set()
        for module_id in module_ids:
            defining = self.specification.defining_workflow(module_id)
            if defining == self.root_id:
                return None
            forbidden.add(defining)
            forbidden.update(self.descendants(defining))
        allowed = [wid for wid in self._children if wid not in forbidden]
        # Keep only workflows whose whole ancestor chain is allowed.
        prefix = {
            wid
            for wid in allowed
            if all(anc not in forbidden for anc in self.ancestors(wid))
        }
        prefix.add(self.root_id)
        return frozenset(prefix)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_networkx(self) -> nx.DiGraph:
        """The expansion tree as a directed graph (parent -> child)."""
        import networkx as nx

        graph = nx.DiGraph(root=self.root_id)
        for workflow_id, children in self._children.items():
            graph.add_node(workflow_id)
            for child in children:
                graph.add_edge(workflow_id, child)
        return graph

    def render(self) -> str:
        """A small ASCII rendering of the hierarchy (used by Fig. 3)."""
        lines: list[str] = []

        def visit(workflow_id: str, depth: int) -> None:
            indent = "  " * depth
            marker = "" if depth == 0 else "- "
            lines.append(f"{indent}{marker}{workflow_id}")
            for child in self._children[workflow_id]:
                visit(child, depth + 1)

        visit(self.root_id, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExpansionHierarchy(root={self.root_id!r}, "
            f"workflows={len(self._children)})"
        )
