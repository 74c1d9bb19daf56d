"""Workflow-level module privacy: secure views over shared intermediate data.

In a workflow the attributes of neighbouring modules are not independent:
the data flowing on an edge is an output attribute of the producer *and* an
input attribute of the consumer, so hiding it affects both.  The paper's
approach ("hide a carefully chosen subset of intermediate data ... in all
executions of the workflow") therefore selects a set of *data labels* to
hide such that every private module reaches its required privacy level
Gamma, while minimising the total utility lost.  The chosen labels define a
*secure view*: the provenance shown to unprivileged users omits the values
of data items with hidden labels in every execution.

Both solvers ride on the memoized Gamma kernel of
:mod:`repro.privacy.relations`: every per-module Gamma evaluation is
cached on the relation, and the exact solver explores label subsets
lazily in best-first branch-and-bound order (admissible bound = subset
cost, monotone-feasibility pruning) instead of materializing all 2^n
label combinations.

Three further accelerations sit on top of the kernel:

* **cross-module incremental bound** -- Gamma is monotone in the hidden
  set, so once a module's requirement is met by some subset it is met by
  every superset; the exact solver carries the still-unsatisfied module
  indices down the search tree, and a subtree never re-evaluates modules
  its ancestors already discharged;
* **sharded evaluation** -- passing a
  :class:`~repro.service.coordinator.ShardCoordinator` as ``service``
  routes the per-module Gamma evaluations of each search node to the
  evaluation service in one batch (structurally identical modules hit
  the same warm kernel) over any transport -- in-process, a pool of
  forked servers, or a socket to a shared server; ``workers=0`` coordinators
  evaluate in an in-process registry with byte-identical results, and
  answer every Gamma of the solve there, so each key is computed once;
* **pipelined frontier evaluation** -- ``pipeline_depth`` k > 1
  speculatively dispatches the Gamma batches of the top-k frontier
  nodes, correlates out-of-order completions by request id, and
  discards speculations for pruned nodes, hiding per-node transport
  latency on deep searches while provably returning the same view.
  Speculation never targets an in-process service: it answers each
  check at the cost of its kernel reads, so there is no latency to
  hide, and the solve runs as at depth 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.errors import InfeasiblePrivacyError, PolicyError, PrivacyError
from repro.execution.graph import ExecutionGraph
from repro.privacy.kernel_registry import GammaKernelRegistry
from repro.privacy.relations import ModuleRelation

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from repro.service.coordinator import ShardCoordinator


@dataclass(frozen=True)
class ModulePrivacyRequirement:
    """A private module together with its required privacy level."""

    relation: ModuleRelation
    gamma: int

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise PrivacyError("gamma must be >= 1")

    @property
    def module_id(self) -> str:
        """The id of the private module."""
        return self.relation.module_id


@dataclass(frozen=True)
class SecureViewResult:
    """The outcome of a workflow-level secure-view computation.

    Attributes
    ----------
    hidden_labels:
        Data labels whose values are hidden in every execution.
    cost:
        Total utility weight of the hidden labels.
    module_gammas:
        Privacy level achieved for each private module.
    satisfied:
        Whether every requirement reached its target Gamma.
    evaluations:
        Number of candidate label sets evaluated by the solver.
    """

    hidden_labels: frozenset[str]
    cost: float
    module_gammas: dict[str, int]
    requested_gammas: dict[str, int]
    satisfied: bool
    optimal: bool
    evaluations: int

    def summary(self) -> dict[str, object]:
        """Compact dictionary form for experiment tables."""
        return {
            "hidden_labels": ", ".join(sorted(self.hidden_labels)),
            "cost": self.cost,
            "satisfied": self.satisfied,
            "optimal": self.optimal,
            "evaluations": self.evaluations,
        }


@dataclass
class WorkflowPrivacyRequirements:
    """The collection of module-privacy requirements of one workflow.

    Attribute names of every relation are interpreted as data labels of the
    workflow, so hiding a label simultaneously hides the corresponding
    attribute in every module that produces or consumes it.

    When a :class:`GammaKernelRegistry` is supplied, every registered
    relation is adopted into it, so structurally identical private modules
    (the same analysis step stamped out over several workflow branches)
    share one memoized, size-accounted Gamma kernel across the whole
    secure-view search.
    """

    requirements: list[ModulePrivacyRequirement] = field(default_factory=list)
    label_weights: dict[str, float] = field(default_factory=dict)
    registry: GammaKernelRegistry | None = None
    _scopes_cache: list[tuple[ModulePrivacyRequirement, frozenset[str]]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, relation: ModuleRelation, gamma: int) -> "WorkflowPrivacyRequirements":
        """Register a private module and its target privacy level."""
        if self.registry is not None and relation.registry is not self.registry:
            self.registry.adopt(relation)
        self.requirements.append(ModulePrivacyRequirement(relation=relation, gamma=gamma))
        self._scopes_cache = None
        return self

    def kernel_stats(self) -> dict[str, int]:
        """Aggregate Gamma-kernel statistics for the registered modules.

        Registry stats (sharing, bytes, evictions) when a registry is
        attached; otherwise per-relation counters summed over the distinct
        kernels of the registered relations.
        """
        if self.registry is not None:
            return self.registry.kernel_stats
        totals: dict[str, int] = {}
        for kernel in {r.relation.kernel for r in self.requirements}:
            for key, value in kernel.kernel_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def set_weight(self, label: str, weight: float) -> "WorkflowPrivacyRequirements":
        """Set the utility weight (hiding cost) of a data label."""
        if weight < 0:
            raise PolicyError(f"label {label!r} has negative weight")
        self.label_weights[label] = float(weight)
        return self

    # ------------------------------------------------------------------ #
    # Derived information
    # ------------------------------------------------------------------ #
    def all_labels(self) -> tuple[str, ...]:
        """Every data label mentioned by some private module, sorted."""
        labels: set[str] = set()
        for requirement in self.requirements:
            labels.update(requirement.relation.attribute_names())
        return tuple(sorted(labels))

    def weight_of(self, label: str) -> float:
        """The hiding cost of a label (attribute weights as fallback)."""
        if label in self.label_weights:
            return self.label_weights[label]
        for requirement in self.requirements:
            for attribute in requirement.relation.attributes:
                if attribute.name == label:
                    return attribute.weight
        return 1.0

    def cost_of(self, labels: Iterable[str]) -> float:
        """Total hiding cost of a set of labels."""
        return sum(self.weight_of(label) for label in set(labels))

    def _label_scopes(self) -> list[tuple[ModulePrivacyRequirement, frozenset[str]]]:
        """Each requirement with its attribute-name set, computed once.

        Solvers evaluate thousands of candidate label sets; rebuilding the
        per-relation name set on every evaluation dominated profile time
        before the kernel rework.  The cache is invalidated by :meth:`add`
        and on direct mutation of ``requirements`` (detected by length).
        """
        cache = self._scopes_cache
        if cache is None or len(cache) != len(self.requirements):
            cache = [
                (requirement, frozenset(requirement.relation.attribute_names()))
                for requirement in self.requirements
            ]
            self._scopes_cache = cache
        return cache

    def gammas_for(
        self,
        hidden_labels: Iterable[str],
        *,
        service: "ShardCoordinator | None" = None,
    ) -> dict[str, int]:
        """Privacy level of every private module when ``hidden_labels`` is hidden.

        An in-process ``service`` (see :func:`_in_process`) answers every
        module in one call; otherwise each Gamma comes from the
        relation's local memoized kernel.
        """
        hidden = set(hidden_labels)
        scopes = self._label_scopes()
        if _in_process(service):
            answered = service.gammas(self.gamma_requests(hidden, range(len(scopes))))
            return {
                requirement.module_id: gamma
                for (requirement, _), gamma in zip(scopes, answered)
            }
        gammas: dict[str, int] = {}
        for requirement, scope in scopes:
            gammas[requirement.module_id] = requirement.relation.achieved_gamma(
                hidden & scope
            )
        return gammas

    def satisfied_by(self, hidden_labels: Iterable[str]) -> bool:
        """Whether every requirement is met by hiding ``hidden_labels``.

        Short-circuits on the first unmet requirement; each per-module
        Gamma comes from the relation's memoized kernel.
        """
        return not self.unsatisfied_indices(hidden_labels, first_only=True)

    def gamma_requests(
        self, hidden_labels: Iterable[str], indices: Sequence[int]
    ) -> list[tuple]:
        """Service-ready Gamma requests for ``indices`` under ``hidden_labels``.

        One ``(structure, visible_inputs, visible_outputs)`` triple per
        index -- the batch a :class:`ShardCoordinator` evaluates (or a
        pipelining solver dispatches speculatively).
        """
        hidden = set(hidden_labels)
        scopes = self._label_scopes()
        requests = []
        for index in indices:
            requirement, scope = scopes[index]
            relation = requirement.relation
            visible_inputs, visible_outputs = relation.visibility_of(hidden & scope)
            requests.append(
                (relation.structure_signature, visible_inputs, visible_outputs)
            )
        return requests

    def narrow(
        self, indices: Sequence[int], gammas: Sequence[int]
    ) -> tuple[int, ...]:
        """The subset of ``indices`` whose achieved ``gammas`` fall short."""
        scopes = self._label_scopes()
        return tuple(
            index
            for index, gamma in zip(indices, gammas)
            if gamma < scopes[index][0].gamma
        )

    def unsatisfied_indices(
        self,
        hidden_labels: Iterable[str],
        indices: Sequence[int] | None = None,
        *,
        service: "ShardCoordinator | None" = None,
        first_only: bool = False,
    ) -> tuple[int, ...]:
        """Requirement indices (among ``indices``) not met by ``hidden_labels``.

        This is the workhorse of the exact solver's cross-module
        incremental bound: a search node only re-checks the modules its
        parent left unsatisfied (Gamma is monotone in the hidden set, so
        satisfied modules stay satisfied in every descendant).  An
        in-process ``service`` (see :func:`_in_process`) answers every
        check, so each key is computed once, on its kernel.  A remote
        ``service`` gets the checks of two or more modules as one batch
        and leaves a single checked module to the relation's local
        memoized kernel, which saves a round trip; with no service every
        Gamma is read locally.

        ``first_only`` short-circuits at the first unsatisfied module --
        for callers that only need feasibility (is *anything* unmet?),
        not the full set.  The service path still evaluates the whole
        batch: one call beats per-module short-circuiting.
        """
        hidden = set(hidden_labels)
        scopes = self._label_scopes()
        if indices is None:
            indices = range(len(scopes))
        if service is not None and (len(indices) > 1 or _in_process(service)):
            gammas = service.gammas(self.gamma_requests(hidden, indices))
            return self.narrow(indices, gammas)
        unsatisfied = []
        for index in indices:
            requirement, scope = scopes[index]
            if requirement.relation.achieved_gamma(hidden & scope) < requirement.gamma:
                unsatisfied.append(index)
                if first_only:
                    break
        return tuple(unsatisfied)

    def requested_gammas(self) -> dict[str, int]:
        """Mapping from private module id to requested Gamma."""
        return {r.module_id: r.gamma for r in self.requirements}

    def _result(
        self,
        hidden: set[str],
        *,
        optimal: bool,
        evaluations: int,
        service: "ShardCoordinator | None" = None,
    ) -> SecureViewResult:
        gammas = self.gammas_for(hidden, service=service)
        return SecureViewResult(
            hidden_labels=frozenset(hidden),
            cost=self.cost_of(hidden),
            module_gammas=gammas,
            requested_gammas=self.requested_gammas(),
            satisfied=all(
                gammas[r.module_id] >= r.gamma for r in self.requirements
            ),
            optimal=optimal,
            evaluations=evaluations,
        )


def _in_process(service: object) -> bool:
    """Whether ``service`` evaluates in this process.

    Such a service answers a call at about the cost of the kernel reads
    themselves, so the solver sends it every Gamma.  A service without an
    ``in_process`` attribute counts as remote.
    """
    return getattr(service, "in_process", False)


# ---------------------------------------------------------------------- #
# Solvers
# ---------------------------------------------------------------------- #
def exact_secure_view(
    requirements: WorkflowPrivacyRequirements,
    *,
    service: "ShardCoordinator | None" = None,
    pipeline_depth: int = 1,
) -> SecureViewResult:
    """Minimum-cost set of labels meeting every requirement, found by
    best-first branch-and-bound.

    Label subsets are generated lazily from a priority queue ordered by
    cost (never materializing all 2^n combinations); since label weights
    are non-negative, a subset's cost lower-bounds every superset and the
    first satisfying subset popped is optimal.  Monotonicity of each
    module's Gamma in the hidden set prunes branches whose maximal
    extension cannot satisfy the requirements.

    Every frontier node carries the indices of the modules still
    unsatisfied as of its parent (the cross-module incremental bound):
    a node re-checks only those, so a module discharged near the root is
    never touched again anywhere in its subtree.
    :meth:`WorkflowPrivacyRequirements.unsatisfied_indices` answers each
    check: an in-process service (``ShardCoordinator(0)``) answers every
    check from its own kernels, a remote one gets a node's checks of two
    or more modules as one batch, and the rest read the relation's local
    kernel.

    With a ``service`` that is not in process and ``pipeline_depth``
    k > 1, the node and bound checks of the top-k frontier nodes are
    submitted speculatively before the best node is popped, collected by
    request id, and discarded when still in flight at the end.  The view
    and ``evaluations`` are identical to k = 1: nodes pop in the same
    order, each node check is the same batch, and a speculated bound
    check covers the parent's indices, whose emptiness monotonicity
    makes equal to the check over the node's narrowed ones.  Exponential
    in the worst case, intended for small workflows and as the
    optimality baseline of experiments E1/E10.
    """
    labels = requirements.all_labels()
    evaluations = 1
    all_indices = tuple(range(len(requirements.requirements)))
    if requirements.unsatisfied_indices(
        labels, all_indices, service=service, first_only=True
    ):
        raise InfeasiblePrivacyError(
            "the requirements cannot be met even when hiding every label"
        )
    weights = {label: requirements.weight_of(label) for label in labels}
    order = sorted(labels, key=lambda label: (weights[label], label))
    rest = [tuple(order[position:]) for position in range(len(order) + 1)]
    speculate = (
        service is not None and pipeline_depth > 1 and not _in_process(service)
    )
    Node = tuple[float, int, tuple[str, ...], int, tuple[int, ...]]
    # (cost, size, subset, next position, indices of still-unsatisfied
    # modules as of the *parent's* evaluation -- the node narrows them).
    frontier: list[Node] = [(0.0, 0, (), 0, all_indices)]
    # Speculated [node check, bound check] request ids per frontier node.
    # The popped node's stay in `popped` until collected, so the
    # `finally` discards every request still in flight, error or not.
    inflight: dict[Node, list[int | None]] = {}
    popped: list[int | None] = [None, None]

    def dispatch(node: Node) -> None:
        _, _, subset, next_position, unsatisfied = node
        inflight[node] = requests = [None, None]
        requests[0] = service.submit(requirements.gamma_requests(subset, unsatisfied))
        if next_position < len(order):
            requests[1] = service.submit(
                requirements.gamma_requests(subset + rest[next_position], unsatisfied)
            )

    def collected(slot: int, indices: tuple[int, ...]) -> tuple[int, ...]:
        gammas = [result.gamma for result in service.collect(popped[slot])]
        popped[slot] = None
        return requirements.narrow(indices, gammas)

    try:
        while frontier:
            if speculate:
                # The O(n log k) top-k scan per pop is dwarfed by the
                # round trips it hides.
                top = frontier
                if len(frontier) > pipeline_depth:
                    top = heapq.nsmallest(pipeline_depth, frontier)
                for node in top:
                    if node not in inflight:
                        dispatch(node)
            node = heapq.heappop(frontier)
            cost, size, subset, next_position, unsatisfied = node
            popped[:] = inflight.pop(node, (None, None))
            evaluations += 1
            if popped[0] is not None:
                narrowed = collected(0, unsatisfied)
            else:
                narrowed = requirements.unsatisfied_indices(
                    subset, unsatisfied, service=service
                )
            if not narrowed:
                return requirements._result(
                    set(subset), optimal=True, evaluations=evaluations, service=service
                )
            if next_position >= len(order):
                continue
            evaluations += 1
            if popped[1] is not None:
                unmet = collected(1, unsatisfied)
            else:
                unmet = requirements.unsatisfied_indices(
                    subset + rest[next_position],
                    narrowed,
                    service=service,
                    first_only=True,
                )
            if unmet:
                continue
            for position in range(next_position, len(order)):
                label = order[position]
                heapq.heappush(
                    frontier,
                    (
                        cost + weights[label],
                        size + 1,
                        subset + (label,),
                        position + 1,
                        narrowed,
                    ),
                )
    finally:
        for requests in (popped, *inflight.values()):
            for request_id in requests:
                if request_id is not None:
                    service.discard(request_id)
    raise InfeasiblePrivacyError(
        "no label subset satisfies the requirements"
    )  # pragma: no cover - unreachable because of the feasibility pre-check


def greedy_secure_view(requirements: WorkflowPrivacyRequirements) -> SecureViewResult:
    """Greedy heuristic for the workflow-level secure view.

    Repeatedly hides the label with the largest total privacy deficit
    reduction per unit cost across all still-unsatisfied modules, then
    prunes unnecessary labels.
    """
    labels = requirements.all_labels()
    if not requirements.satisfied_by(labels):
        raise InfeasiblePrivacyError(
            "the requirements cannot be met even when hiding every label"
        )

    targets = requirements.requested_gammas()

    def deficit(gammas: Mapping[str, int]) -> float:
        total = 0.0
        for module_id, target in targets.items():
            total += max(0, target - gammas[module_id])
        return total

    hidden: set[str] = set()
    evaluations = 1
    current = requirements.gammas_for(hidden)
    while deficit(current) > 0:
        best_choice: tuple[str, float, dict[str, int]] | None = None
        for label in labels:
            if label in hidden:
                continue
            gammas = requirements.gammas_for(hidden | {label})
            evaluations += 1
            gain = deficit(current) - deficit(gammas)
            cost = max(requirements.weight_of(label), 1e-9)
            score = gain / cost if gain > 0 else -cost
            if best_choice is None or score > best_choice[1]:
                best_choice = (label, score, gammas)
        if best_choice is None:  # pragma: no cover - guarded by feasibility check
            raise InfeasiblePrivacyError("greedy secure-view search exhausted labels")
        hidden.add(best_choice[0])
        current = best_choice[2]

    # Pruning pass: drop labels that are no longer needed.
    for label in sorted(hidden, key=lambda l: -requirements.weight_of(l)):
        candidate = hidden - {label}
        evaluations += 1
        if requirements.satisfied_by(candidate):
            hidden = candidate

    return requirements._result(hidden, optimal=False, evaluations=evaluations)


def secure_view(
    requirements: WorkflowPrivacyRequirements,
    *,
    solver: str = "greedy",
    service: "ShardCoordinator | None" = None,
    pipeline_depth: int = 1,
) -> SecureViewResult:
    """Compute a secure view with the requested solver (``exact``/``greedy``).

    ``service`` (a :class:`~repro.service.coordinator.ShardCoordinator`)
    parallelizes the exact solver's per-module Gamma evaluations, and
    ``pipeline_depth`` k > 1 additionally overlaps the transport latency
    of the top-k frontier nodes (see :func:`exact_secure_view`); the
    greedy solver's incremental single-module probes stay local.
    """
    if solver == "exact":
        return exact_secure_view(
            requirements, service=service, pipeline_depth=pipeline_depth
        )
    if solver == "greedy":
        return greedy_secure_view(requirements)
    raise PrivacyError(f"unknown secure-view solver {solver!r}")


# ---------------------------------------------------------------------- #
# Applying a secure view to executions
# ---------------------------------------------------------------------- #
def hidden_items_for_execution(
    execution: ExecutionGraph, hidden_labels: Iterable[str]
) -> set[str]:
    """Data item ids of ``execution`` whose label belongs to ``hidden_labels``."""
    hidden = set(hidden_labels)
    return {
        item.data_id
        for item in execution.data_items.values()
        if item.label in hidden
    }


def apply_secure_view(
    execution: ExecutionGraph,
    hidden_labels: Iterable[str],
    *,
    placeholder: object = "<hidden>",
) -> ExecutionGraph:
    """Return a copy of ``execution`` with hidden-label values masked.

    The structure of the provenance graph is preserved (edges still mention
    the data item ids) but the values of items with hidden labels are
    replaced by ``placeholder`` -- exactly the information reduction the
    paper's module-privacy mechanism prescribes.
    """
    hidden_ids = hidden_items_for_execution(execution, hidden_labels)
    masked = ExecutionGraph(
        f"{execution.execution_id}/secure",
        execution.specification_id,
        input_node_id=execution.input_node_id,
        output_node_id=execution.output_node_id,
    )
    for node in execution:
        masked.add_node(node)
    for edge in execution.edges:
        masked.add_edge(edge.source, edge.target, edge.data_ids)
    for item in execution.data_items.values():
        if item.data_id in hidden_ids:
            masked.add_data_item(item.masked(placeholder))
        else:
            masked.add_data_item(item)
    return masked
