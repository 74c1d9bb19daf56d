"""Execution engine, provenance graphs and provenance queries."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "behaviors": (
            "Behavior",
            "BehaviorRegistry",
            "TableBehavior",
            "constant_behavior",
            "hashing_behavior",
            "passthrough_behavior",
        ),
        "dataitem": ("DataItem", "data_id_sequence"),
        "engine": ("WorkflowExecutor",),
        "gallery": (
            "DEFAULT_PATIENT_INPUTS",
            "disease_susceptibility_execution",
            "run_disease_susceptibility",
        ),
        "graph": (
            "ExecutionEdge",
            "ExecutionGraph",
            "ExecutionNode",
            "NodeEvent",
        ),
        "provenance": (
            "contributing_data",
            "contributing_modules",
            "data_dependency_graph",
            "downstream_data",
            "downstream_nodes",
            "execution_summary",
            "lineage_depth",
            "provenance_subgraph",
        ),
    },
)
