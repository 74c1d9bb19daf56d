"""Privacy mechanisms: data, module and structural privacy (the paper's core)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "data_privacy": (
            "REDACTED",
            "DataPrivacyPolicy",
            "DataPrivacyRule",
            "generalize_collection",
            "generalize_number",
            "generalize_text",
            "policy_from_levels",
            "redact",
        ),
        "leakage": (
            "LeakageReport",
            "close_hiding",
            "exposed_items",
            "forward_derivable_labels",
            "leakage_report",
        ),
        "kernel_registry": (
            "GammaKernelRegistry",
            "RelationStructure",
            "SharedGammaKernel",
        ),
        "guarantees": (
            "GuaranteeReport",
            "empirical_guarantee",
            "guarantee_curve",
            "standalone_guarantee_holds",
            "workflow_guarantees",
        ),
        "module_privacy": (
            "SOLVERS",
            "SafeSubsetResult",
            "exact_safe_subset",
            "greedy_safe_subset",
            "randomized_safe_subset",
            "solve_safe_subset",
        ),
        "policy": ("PrivacyPolicy", "StructuralTarget"),
        "relations": ("Attribute", "KernelRelation", "ModuleRelation"),
        "structural_privacy": (
            "STRATEGIES",
            "StructuralPrivacyResult",
            "clustering_for_pairs",
            "clustering_strategy",
            "compare_strategies",
            "edge_deletion_strategy",
            "grown_clustering_strategy",
            "minimum_edge_deletion",
            "repaired_clustering_strategy",
        ),
        "tradeoff": (
            "GammaCostPoint",
            "TradeoffPoint",
            "best_view_under_privacy",
            "gamma_cost_frontier",
            "pareto_front",
            "tradeoff_points",
            "view_privacy",
            "view_utility",
        ),
        "workflow_privacy": (
            "ModulePrivacyRequirement",
            "SecureViewResult",
            "WorkflowPrivacyRequirements",
            "apply_secure_view",
            "exact_secure_view",
            "greedy_secure_view",
            "hidden_items_for_execution",
            "secure_view",
        ),
    },
)
