"""Keyword and structural query processing, ranking and privacy-aware evaluation."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "keyword": (
            "KeywordAnswer",
            "KeywordQuery",
            "deepest_matches",
            "keyword_search",
            "keyword_search_corpus",
            "matching_modules",
            "module_descendants",
            "module_search_terms",
        ),
        "language": (
            "BeforeQuery",
            "ModuleProvenanceQuery",
            "ParsedQuery",
            "ProvenanceQuery",
            "parse_query",
        ),
        "privacy_aware": ("PrivacyAwareQueryEngine", "QueryResult"),
        "repository_engine": (
            "RankedAnswer",
            "RepositoryOutcome",
            "RepositoryQueryEngine",
        ),
        "ranking": (
            "TfIdfIndex",
            "bucketize_scores",
            "frequency_inference_error",
            "infer_term_counts",
            "kendall_tau",
            "privacy_aware_rank",
            "ranking_quality",
        ),
        "structural": (
            "PathQuery",
            "StructuralMatch",
            "data_produced_by",
            "executed_before",
            "find_executions_where",
            "module_for_name",
            "path_query_matches",
            "provenance_of_data",
            "provenance_of_module",
        ),
        "text": (
            "normalized_tokens",
            "parse_phrases",
            "phrase_matches",
            "stem",
            "term_set",
            "tokenize",
        ),
    },
)
