"""Repository, per-level indexes, materialised views and group caches."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cache": ("CacheStats", "GroupQueryCache"),
        "index": (
            "KeywordIndex",
            "LeveledKeywordIndex",
            "Posting",
            "ReachabilityIndex",
        ),
        "materialized": ("MaterializedViewStore",),
        "repository": ("RepositoryEntry", "WorkflowRepository"),
    },
)
