"""Experiment and figure harness.

``reproduce_all_figures`` rebuilds every figure of the paper;
``ALL_EXPERIMENTS`` maps experiment ids (E1-E12) to their ``run`` functions,
importing an experiment's module only when it is looked up;
``run_experiment`` dispatches by id.  Each experiment module also exposes a
``headline`` function producing the aggregate numbers quoted in
``EXPERIMENTS.md`` and a ``main`` entry point that prints the full table.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module
from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.reporting import ResultTable

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "figures": (
            "FIG5_QUERY",
            "FigureArtifact",
            "fig1_specification",
            "fig2_execution_view",
            "fig3_hierarchy",
            "fig4_execution",
            "fig5_keyword_answer",
            "figure_checks",
            "reproduce_all_figures",
        ),
        "reporting": (
            "ResultTable",
            "format_table",
            "print_table",
            "select_columns",
            "summarize_numeric",
            "table_columns",
        ),
        "workloads": (
            "CorpusConfig",
            "build_corpus",
            "build_repository",
            "default_access_policy",
            "keyword_workload",
            "random_relations",
            "random_structural_targets",
            "scaled_structure",
        ),
    },
)
__all__ += ["ALL_EXPERIMENTS", "ALL_HEADLINES", "run_experiment"]

#: The module of each experiment, keyed by its id in DESIGN.md / EXPERIMENTS.md.
_MODULES = {
    "E1": "e1_module_privacy",
    "E2": "e2_adversary",
    "E3": "e3_structural",
    "E4": "e4_tradeoff",
    "E5": "e5_keyword",
    "E6": "e6_storage",
    "E7": "e7_index",
    "E8": "e8_ranking",
    "E9": "e9_sharding",
    "E10": "e10_transport",
    "E11": "e11_federation",
    "E12": "e12_approx",
}


class _Registry(Mapping):
    """Experiment id -> one function of its module, imported on lookup."""

    def __init__(self, function: str) -> None:
        self._function = function

    def __getitem__(self, experiment_id: str):
        module = import_module(f"{__name__}.{_MODULES[experiment_id]}")
        return getattr(module, self._function)

    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in _MODULES

    def __iter__(self):
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


#: All experiments' ``run`` functions keyed by experiment id.
ALL_EXPERIMENTS = _Registry("run")

#: Headline aggregators keyed by experiment id.
ALL_HEADLINES = _Registry("headline")


def run_experiment(experiment_id: str) -> ResultTable:
    """Run one experiment by id (``"E1"`` ... ``"E12"``)."""
    try:
        runner = ALL_EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; expected one of "
            f"{sorted(ALL_EXPERIMENTS)}"
        ) from None
    return runner()
