"""Views of specifications and executions, access views, soundness, repair."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "access": (
            "ANALYST",
            "OWNER",
            "PUBLIC",
            "AccessViewPolicy",
            "User",
            "UserRegistry",
        ),
        "exec_view": (
            "ExecutionView",
            "collapse_execution",
            "execution_view",
            "hidden_data_ids",
        ),
        "hierarchy": ("ExpansionHierarchy", "Prefix"),
        "optimize": (
            "best_prefix",
            "default_utility",
            "greedy_prefix",
            "maximal_prefix_hiding_modules",
            "minimal_prefix_for_modules",
            "minimal_view_containing",
            "prefixes_hiding_modules",
            "view_utility_profile",
        ),
        "repair": ("repair_clustering", "repair_preserving_pairs"),
        "soundness": (
            "SoundnessReport",
            "actual_node_pairs",
            "cluster_entries_and_exits",
            "cluster_view_graph",
            "implied_node_pairs",
            "is_sound_clustering",
            "normalize_clustering",
            "soundness_report",
            "unsound_clusters",
        ),
        "spec_view": (
            "SpecificationView",
            "all_views",
            "expand_specification",
            "full_expansion",
            "root_view",
            "specification_view",
        ),
    },
)
