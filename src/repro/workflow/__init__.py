"""Workflow specification model (hierarchical graphs with tau-expansions)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "analysis": (
            "BoundaryMismatch",
            "ModuleStatistics",
            "WorkflowStatistics",
            "boundary_mismatches",
            "critical_path",
            "label_flow",
            "module_depths",
            "module_statistics",
            "modules_influenced_by",
            "producers_of_label",
            "specification_statistics",
            "workflow_statistics",
        ),
        "builder": ("SpecificationBuilder", "WorkflowGraphBuilder"),
        "gallery": (
            "diamond_specification",
            "disease_susceptibility_specification",
            "small_pipeline_specification",
        ),
        "generator": (
            "DEFAULT_KEYWORD_POOL",
            "GeneratorConfig",
            "random_keyword_queries",
            "random_specification",
        ),
        "graph": ("WorkflowGraph",),
        "module": ("DataEdge", "Module", "ModuleKind", "make_module"),
        "serialization": (
            "graph_from_dict",
            "graph_to_dict",
            "specification_from_dict",
            "specification_from_json",
            "specification_to_dict",
            "specification_to_json",
        ),
        "specification": (
            "WorkflowSpecification",
            "specification_from_graphs",
        ),
    },
)
