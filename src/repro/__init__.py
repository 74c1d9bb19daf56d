"""repro -- a privacy-enabled provenance-aware workflow system.

A from-scratch Python reproduction of Davidson et al., "Enabling Privacy in
Provenance-Aware Workflow Systems" (CIDR 2011).  The library provides:

* :mod:`repro.workflow` -- hierarchical workflow specifications (Fig. 1);
* :mod:`repro.execution` -- an execution engine and provenance graphs (Fig. 4);
* :mod:`repro.views` -- expansion-hierarchy prefixes, specification and
  execution views, access views, soundness checking and repair (Figs. 2, 3);
* :mod:`repro.privacy` -- data privacy, module Gamma-privacy (safe subsets
  and secure views), structural privacy and trade-off analysis;
* :mod:`repro.adversary` -- attack simulations validating the guarantees;
* :mod:`repro.query` -- keyword and structural search, ranking, and
  privacy-aware query evaluation (Fig. 5);
* :mod:`repro.storage` -- a repository with per-level indexes, materialised
  views and per-group caches;
* :mod:`repro.experiments` -- the figure and experiment harness.

The most common entry points are re-exported here for convenience.  The
re-exports are lazy (:mod:`repro._lazy`): ``import repro`` loads no
subpackage, and each name imports its defining module on first use.
"""

from repro._lazy import lazy_exports

__version__ = "0.1.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "errors": (
            "AccessDeniedError",
            "ExecutionError",
            "InfeasiblePrivacyError",
            "PolicyError",
            "PrivacyError",
            "QueryError",
            "ReproError",
            "SpecificationError",
            "StorageError",
            "ViewError",
            "WorkflowError",
        ),
        "execution": (
            "BehaviorRegistry",
            "DataItem",
            "ExecutionGraph",
            "WorkflowExecutor",
            "disease_susceptibility_execution",
            "provenance_subgraph",
            "run_disease_susceptibility",
        ),
        "privacy": (
            "Attribute",
            "DataPrivacyPolicy",
            "ModuleRelation",
            "PrivacyPolicy",
            "WorkflowPrivacyRequirements",
            "compare_strategies",
            "secure_view",
            "solve_safe_subset",
        ),
        "query": (
            "KeywordQuery",
            "PrivacyAwareQueryEngine",
            "TfIdfIndex",
            "keyword_search",
            "parse_query",
        ),
        "storage": ("WorkflowRepository",),
        "views": (
            "AccessViewPolicy",
            "ExpansionHierarchy",
            "User",
            "execution_view",
            "specification_view",
        ),
        "workflow": (
            "Module",
            "ModuleKind",
            "SpecificationBuilder",
            "WorkflowGraph",
            "WorkflowGraphBuilder",
            "WorkflowSpecification",
            "disease_susceptibility_specification",
        ),
    },
)
__all__.append("__version__")
