"""Privacy/utility trade-off analysis over candidate views.

The paper's central question is "how do we provide provable guarantees on
privacy of components in a workflow while maximizing utility with respect
to provenance queries?".  This module quantifies that trade-off for prefix
views: every prefix hides some modules and some connectivity facts (its
privacy score against a set of sensitive components) while exposing a
certain amount of structure (its utility score).  Experiment E4 traces the
resulting frontier.

For *module* privacy the same trade-off appears on the Gamma axis: higher
required privacy levels force hiding more (or heavier) attributes.
:func:`gamma_cost_frontier` sweeps Gamma and reports the hiding cost at
each level; because every solver call shares the relation's memoized Gamma
kernel, the whole sweep re-derives no partition twice.  Every point is
solved on exact Gamma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.privacy.module_privacy import solve_safe_subset
from repro.privacy.relations import ModuleRelation
from repro.views.hierarchy import ExpansionHierarchy, Prefix
from repro.views.spec_view import SpecificationView, specification_view
from repro.workflow.specification import WorkflowSpecification

Pair = tuple[str, str]


@dataclass(frozen=True)
class TradeoffPoint:
    """One candidate view with its privacy and utility scores."""

    prefix: Prefix
    privacy: float
    utility: float
    hidden_sensitive_modules: int
    hidden_sensitive_pairs: int
    visible_modules: int
    visible_pairs: int

    def summary(self) -> dict[str, object]:
        """Compact dictionary form for experiment tables."""
        return {
            "prefix": "+".join(sorted(self.prefix)),
            "privacy": round(self.privacy, 4),
            "utility": round(self.utility, 4),
            "hidden_sensitive_modules": self.hidden_sensitive_modules,
            "hidden_sensitive_pairs": self.hidden_sensitive_pairs,
            "visible_modules": self.visible_modules,
            "visible_pairs": self.visible_pairs,
        }


def view_utility(view: SpecificationView) -> float:
    """Default utility: visible processing modules plus visible true pairs."""
    return float(len(view.visible_modules) + len(view.reachable_module_pairs()))


def view_privacy(
    view: SpecificationView,
    sensitive_modules: Iterable[str],
    sensitive_pairs: Iterable[Pair],
) -> tuple[float, int, int]:
    """Privacy score of a view against sensitive modules and pairs.

    The score is the fraction of sensitive modules hidden plus the fraction
    of sensitive pairs whose connectivity is not exposed, normalised to
    ``[0, 1]`` (0.5 weight each; a component absent from the policy
    contributes its full weight).
    """
    modules = list(sensitive_modules)
    pairs = list(sensitive_pairs)
    visible = view.visible_modules
    visible_pairs = view.reachable_module_pairs()
    hidden_modules = sum(1 for module_id in modules if module_id not in visible)
    hidden_pairs = sum(1 for pair in pairs if pair not in visible_pairs)
    module_score = hidden_modules / len(modules) if modules else 1.0
    pair_score = hidden_pairs / len(pairs) if pairs else 1.0
    return 0.5 * module_score + 0.5 * pair_score, hidden_modules, hidden_pairs


def tradeoff_points(
    specification: WorkflowSpecification,
    sensitive_modules: Sequence[str] = (),
    sensitive_pairs: Sequence[Pair] = (),
    *,
    utility: Callable[[SpecificationView], float] | None = None,
) -> list[TradeoffPoint]:
    """Score every prefix view of the specification."""
    utility = utility or view_utility
    hierarchy = ExpansionHierarchy(specification)
    points = []
    for prefix in hierarchy.all_prefixes():
        view = specification_view(specification, prefix)
        privacy, hidden_modules, hidden_pairs = view_privacy(
            view, sensitive_modules, sensitive_pairs
        )
        points.append(
            TradeoffPoint(
                prefix=prefix,
                privacy=privacy,
                utility=utility(view),
                hidden_sensitive_modules=hidden_modules,
                hidden_sensitive_pairs=hidden_pairs,
                visible_modules=len(view.visible_modules),
                visible_pairs=len(view.reachable_module_pairs()),
            )
        )
    points.sort(key=lambda p: (p.privacy, p.utility))
    return points


def pareto_front(points: Sequence[TradeoffPoint]) -> list[TradeoffPoint]:
    """The Pareto-optimal points (no other point is better on both axes)."""
    front: list[TradeoffPoint] = []
    for point in points:
        dominated = any(
            other.privacy >= point.privacy
            and other.utility >= point.utility
            and (other.privacy > point.privacy or other.utility > point.utility)
            for other in points
        )
        if not dominated:
            front.append(point)
    front.sort(key=lambda p: (p.privacy, p.utility))
    return front


def best_view_under_privacy(
    specification: WorkflowSpecification,
    sensitive_modules: Sequence[str],
    sensitive_pairs: Sequence[Pair],
    *,
    minimum_privacy: float = 1.0,
    utility: Callable[[SpecificationView], float] | None = None,
) -> TradeoffPoint | None:
    """The highest-utility view whose privacy score meets ``minimum_privacy``.

    Returns ``None`` when no prefix view reaches the requested privacy --
    the caller must then fall back to stronger mechanisms (edge deletion,
    data masking) handled elsewhere.
    """
    points = tradeoff_points(
        specification, sensitive_modules, sensitive_pairs, utility=utility
    )
    feasible = [p for p in points if p.privacy >= minimum_privacy]
    if not feasible:
        return None
    return max(feasible, key=lambda p: p.utility)


# ---------------------------------------------------------------------- #
# Module-privacy trade-off: Gamma versus hiding cost
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class GammaCostPoint:
    """One point of a module's Gamma/hiding-cost frontier."""

    module_id: str
    gamma: int
    cost: float
    hidden: frozenset[str]
    achieved_gamma: int
    evaluations: int

    def summary(self) -> dict[str, object]:
        """Compact dictionary form for experiment tables."""
        return {
            "module": self.module_id,
            "gamma": self.gamma,
            "cost": self.cost,
            "hidden": ", ".join(sorted(self.hidden)),
            "achieved_gamma": self.achieved_gamma,
            "evaluations": self.evaluations,
        }


def gamma_cost_frontier(
    relation: ModuleRelation,
    *,
    gammas: Sequence[int] | None = None,
    solver: str = "exact",
    costs: Mapping[str, float] | None = None,
    **solver_kwargs,
) -> list[GammaCostPoint]:
    """The hiding cost of every requested privacy level of one module.

    Sweeps ``gammas`` (default: every achievable level from 1 to
    ``max_gamma``) and solves the safe-subset problem at each level.  The
    sweep shares the relation's memoized Gamma kernel, so consecutive
    levels reuse each other's partitions and subset evaluations; cost is
    monotone non-decreasing in Gamma by construction.  Extra keyword
    arguments go to the solver.
    """
    max_gamma = relation.max_gamma()
    if gammas is None:
        gammas = range(1, max_gamma + 1)
    points = []
    for gamma in gammas:
        if gamma > max_gamma:
            continue
        result = solve_safe_subset(
            relation, gamma, solver=solver, costs=costs, **solver_kwargs
        )
        points.append(
            GammaCostPoint(
                module_id=relation.module_id,
                gamma=gamma,
                cost=result.cost,
                hidden=result.hidden,
                achieved_gamma=result.gamma,
                evaluations=result.evaluations,
            )
        )
    return points
