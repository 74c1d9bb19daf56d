"""Standalone module privacy: choosing which attributes to hide.

Given a module relation and a target privacy level Gamma, a *safe subset*
is a set of attributes whose hiding guarantees that every input has at
least Gamma candidate outputs under the visible provenance.  Since several
safe subsets usually exist and attributes have different utility to users,
the paper frames the choice as an optimisation problem: find the safe
subset with minimum total weight.  This module provides an exact solver
(best-first branch-and-bound), a greedy heuristic, and a randomised
restart heuristic; experiment E1 compares them.

Solver complexity
-----------------
The exact solver explores subsets lazily in best-first order from a
priority queue instead of materializing and sorting all 2^n subsets.
Each node's cost is an admissible lower bound on every descendant (weights
are non-negative), so the first safe subset popped is a minimum-cost safe
subset.  Gamma's monotonicity in the hidden set gives the pruning rule: a
node none of whose extensions (itself plus all remaining attributes) is
safe can be discarded with a single memoized Gamma evaluation, and any
superset of a known-safe subset need not be expanded further.  Worst case
remains exponential (the problem is NP-hard), but memory is bounded by
the live frontier and typical instances terminate after evaluating a tiny
fraction of the subset lattice.  All solvers share the relation's memoized
Gamma kernel (:mod:`repro.privacy.relations`), so the greedy and
randomised pruning passes stop re-deriving identical partitions.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import InfeasiblePrivacyError, PrivacyError
from repro.privacy.relations import ModuleRelation


@dataclass(frozen=True)
class SafeSubsetResult:
    """The outcome of a safe-subset search.

    Attributes
    ----------
    module_id:
        The module the result applies to.
    hidden:
        The chosen attributes to hide.
    cost:
        Total weight of the hidden attributes.
    gamma:
        Privacy level actually achieved (>= the requested level).
    requested_gamma:
        The privacy level that was requested.
    optimal:
        Whether the solver guarantees minimality of the cost.
    evaluations:
        Number of candidate subsets whose Gamma was evaluated (a proxy for
        solver work, reported in experiment E1).
    """

    module_id: str
    hidden: frozenset[str]
    cost: float
    gamma: int
    requested_gamma: int
    optimal: bool
    evaluations: int

    def summary(self) -> dict[str, object]:
        """Compact dictionary form for experiment tables."""
        return {
            "module": self.module_id,
            "hidden": ", ".join(sorted(self.hidden)),
            "cost": self.cost,
            "gamma": self.gamma,
            "requested_gamma": self.requested_gamma,
            "optimal": self.optimal,
            "evaluations": self.evaluations,
        }


def _costs_for(
    relation: ModuleRelation, costs: Mapping[str, float] | None
) -> dict[str, float]:
    resolved = {a.name: a.weight for a in relation.attributes}
    for name, cost in (costs or {}).items():
        if name not in resolved:
            raise PrivacyError(
                f"unknown attribute {name!r} for module {relation.module_id!r}"
            )
        if cost < 0:
            # Non-negative costs are what makes a subset's cost an
            # admissible branch-and-bound lower bound for its supersets.
            raise PrivacyError(
                f"attribute {name!r} has negative cost {cost!r}"
            )
        resolved[name] = float(cost)
    return resolved


def _subset_cost(names: Iterable[str], costs: Mapping[str, float]) -> float:
    return sum(costs[name] for name in names)


def reference_optimal_cost(
    relation: ModuleRelation,
    gamma: int,
    *,
    costs: Mapping[str, float] | None = None,
) -> float:
    """Brute-force minimum safe-subset cost via the naive reference oracle.

    Exhaustively enumerates every attribute subset and evaluates it with
    ``reference_achieved_gamma`` -- the pre-kernel semantics.  Exists
    solely as the shared equivalence oracle for the tests and benchmarks
    guarding the branch-and-bound solver; never use it on real workloads.
    """
    costs_map = _costs_for(relation, costs)
    names = relation.attribute_names()
    best: float | None = None
    for size in range(len(names) + 1):
        for subset in itertools.combinations(names, size):
            if relation.reference_achieved_gamma(subset) >= gamma:
                cost = _subset_cost(subset, costs_map)
                if best is None or cost < best:
                    best = cost
    if best is None:
        raise InfeasiblePrivacyError(
            f"no safe subset reaches gamma={gamma} for module {relation.module_id!r}"
        )
    return best


def exact_safe_subset(
    relation: ModuleRelation,
    gamma: int,
    *,
    costs: Mapping[str, float] | None = None,
    candidate_attributes: Iterable[str] | None = None,
) -> SafeSubsetResult:
    """Find a minimum-cost safe subset by best-first branch-and-bound.

    Subsets are generated lazily from a priority queue ordered by
    ``(cost, size, subset)``; the full 2^n subset list is never
    materialized.  A node's cost lower-bounds every descendant, so the
    first safe subset popped is optimal.  Gamma's monotonicity in the
    hidden set prunes branches: a node is expanded only if hiding it plus
    every remaining candidate attribute would be safe, since otherwise no
    descendant can be safe either.  Used as the optimality baseline in
    experiment E1.
    """
    if gamma < 1:
        raise PrivacyError("gamma must be >= 1")
    costs_map = _costs_for(relation, costs)
    universe = tuple(
        candidate_attributes
        if candidate_attributes is not None
        else relation.attribute_names()
    )
    evaluations = 1
    if relation.achieved_gamma(universe) < gamma:
        raise InfeasiblePrivacyError(
            f"module {relation.module_id!r} cannot reach gamma={gamma} even when "
            f"hiding all candidate attributes"
        )
    # Successors extend a subset with attributes strictly after its last
    # one in `order`, so every subset is generated exactly once; ordering
    # `order` by cost makes cheap extensions surface first.
    order = sorted(universe, key=lambda name: (costs_map[name], name))
    frontier: list[tuple[float, int, tuple[str, ...], int]] = [(0.0, 0, (), 0)]
    while frontier:
        cost, size, subset, next_position = heapq.heappop(frontier)
        evaluations += 1
        achieved = relation.achieved_gamma(subset)
        if achieved >= gamma:
            return SafeSubsetResult(
                module_id=relation.module_id,
                hidden=frozenset(subset),
                cost=cost,
                gamma=achieved,
                requested_gamma=gamma,
                optimal=True,
                evaluations=evaluations,
            )
        if next_position >= len(order):
            continue
        # Monotonicity bound: if even this subset's maximal extension is
        # unsafe, no descendant can be safe -- prune the whole branch.
        evaluations += 1
        if relation.achieved_gamma(subset + tuple(order[next_position:])) < gamma:
            continue
        for position in range(next_position, len(order)):
            name = order[position]
            heapq.heappush(
                frontier,
                (cost + costs_map[name], size + 1, subset + (name,), position + 1),
            )
    raise InfeasiblePrivacyError(
        f"no safe subset reaches gamma={gamma} for module {relation.module_id!r}"
    )  # pragma: no cover - unreachable because of the feasibility pre-check


def greedy_safe_subset(
    relation: ModuleRelation,
    gamma: int,
    *,
    costs: Mapping[str, float] | None = None,
    candidate_attributes: Iterable[str] | None = None,
) -> SafeSubsetResult:
    """Greedy heuristic: repeatedly hide the attribute with the best
    marginal privacy gain per unit cost until the target Gamma is reached.

    After the target is reached, a pruning pass removes attributes whose
    hiding turned out to be unnecessary (a common post-processing step that
    markedly improves greedy solutions at negligible cost).  Every Gamma
    evaluation goes through the relation's memoized kernel, so subsets
    revisited across the growth and pruning passes (or by other solvers on
    the same relation) cost O(1).
    """
    if gamma < 1:
        raise PrivacyError("gamma must be >= 1")
    costs_map = _costs_for(relation, costs)
    universe = list(
        candidate_attributes
        if candidate_attributes is not None
        else relation.attribute_names()
    )
    if relation.achieved_gamma(universe) < gamma:
        raise InfeasiblePrivacyError(
            f"module {relation.module_id!r} cannot reach gamma={gamma} even when "
            f"hiding all candidate attributes"
        )
    hidden: set[str] = set()
    evaluations = 0
    current_gamma = relation.achieved_gamma(hidden)
    evaluations += 1
    while current_gamma < gamma:
        best_choice: tuple[str, float, int] | None = None
        for name in universe:
            if name in hidden:
                continue
            achieved = relation.achieved_gamma(hidden | {name})
            evaluations += 1
            gain = achieved - current_gamma
            cost = max(costs_map[name], 1e-9)
            score = gain / cost if gain > 0 else -cost
            if best_choice is None or score > best_choice[1]:
                best_choice = (name, score, achieved)
        if best_choice is None:  # pragma: no cover - guarded by feasibility check
            raise InfeasiblePrivacyError(
                f"greedy search exhausted attributes for module {relation.module_id!r}"
            )
        hidden.add(best_choice[0])
        current_gamma = best_choice[2]

    # Pruning pass: drop attributes that are not needed any more.
    for name in sorted(hidden, key=lambda n: -costs_map[n]):
        candidate = hidden - {name}
        achieved = relation.achieved_gamma(candidate)
        evaluations += 1
        if achieved >= gamma:
            hidden = candidate
            current_gamma = achieved

    return SafeSubsetResult(
        module_id=relation.module_id,
        hidden=frozenset(hidden),
        cost=_subset_cost(hidden, costs_map),
        gamma=relation.achieved_gamma(hidden),
        requested_gamma=gamma,
        optimal=False,
        evaluations=evaluations,
    )


def randomized_safe_subset(
    relation: ModuleRelation,
    gamma: int,
    *,
    costs: Mapping[str, float] | None = None,
    candidate_attributes: Iterable[str] | None = None,
    restarts: int = 8,
    seed: int = 0,
) -> SafeSubsetResult:
    """Randomised-restart heuristic.

    Each restart shuffles the attribute order, adds attributes until the
    target Gamma is reached, prunes, and keeps the cheapest solution found.
    Provides a simple robustness baseline between the greedy heuristic and
    the exact solver.
    """
    if restarts < 1:
        raise PrivacyError("restarts must be >= 1")
    costs_map = _costs_for(relation, costs)
    universe = list(
        candidate_attributes
        if candidate_attributes is not None
        else relation.attribute_names()
    )
    if relation.achieved_gamma(universe) < gamma:
        raise InfeasiblePrivacyError(
            f"module {relation.module_id!r} cannot reach gamma={gamma} even when "
            f"hiding all candidate attributes"
        )
    rng = random.Random(seed)
    best: SafeSubsetResult | None = None
    total_evaluations = 0
    for _ in range(restarts):
        order = list(universe)
        rng.shuffle(order)
        hidden: set[str] = set()
        for name in order:
            if relation.achieved_gamma(hidden) >= gamma:
                break
            hidden.add(name)
            total_evaluations += 1
        # Pruning pass.
        for name in sorted(hidden, key=lambda n: -costs_map[n]):
            candidate = hidden - {name}
            total_evaluations += 1
            if relation.achieved_gamma(candidate) >= gamma:
                hidden = candidate
        cost = _subset_cost(hidden, costs_map)
        achieved = relation.achieved_gamma(hidden)
        if achieved >= gamma and (best is None or cost < best.cost):
            best = SafeSubsetResult(
                module_id=relation.module_id,
                hidden=frozenset(hidden),
                cost=cost,
                gamma=achieved,
                requested_gamma=gamma,
                optimal=False,
                evaluations=total_evaluations,
            )
    if best is None:  # pragma: no cover - guarded by feasibility check
        raise InfeasiblePrivacyError(
            f"randomised search failed to reach gamma={gamma} for "
            f"module {relation.module_id!r}"
        )
    return best


SOLVERS = {
    "exact": exact_safe_subset,
    "greedy": greedy_safe_subset,
    "randomized": randomized_safe_subset,
}


def solve_safe_subset(
    relation: ModuleRelation,
    gamma: int,
    *,
    solver: str = "greedy",
    **kwargs,
) -> SafeSubsetResult:
    """Dispatch to one of the registered safe-subset solvers by name."""
    try:
        function = SOLVERS[solver]
    except KeyError:
        raise PrivacyError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)}"
        ) from None
    return function(relation, gamma, **kwargs)
