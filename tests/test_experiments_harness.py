"""Tests for the experiment harness: reporting, workloads, figures, runners."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    ALL_HEADLINES,
    CorpusConfig,
    build_corpus,
    build_repository,
    default_access_policy,
    figure_checks,
    keyword_workload,
    random_relations,
    random_structural_targets,
    reproduce_all_figures,
    run_experiment,
)
from repro.experiments import e1_module_privacy, e2_adversary, e3_structural, e4_tradeoff, e8_ranking
from repro.experiments.reporting import (
    format_table,
    select_columns,
    summarize_numeric,
    table_columns,
)
from repro.views.hierarchy import ExpansionHierarchy


class TestReporting:
    def test_format_table_alignment_and_values(self):
        rows = [
            {"name": "a", "value": 1.23456, "ok": True},
            {"name": "bb", "value": 2, "ok": False},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert "yes" in text and "no" in text
        assert "1.235" in text  # floats rendered with 4 significant digits

    def test_format_empty_table(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_table_columns_and_selection(self):
        rows = [{"a": 1, "b": 2}, {"b": 3, "c": 4}]
        assert table_columns(rows) == ["a", "b", "c"]
        assert select_columns(rows, ["b"]) == [{"b": 2}, {"b": 3}]

    def test_summarize_numeric(self):
        rows = [{"x": 1.0}, {"x": 3.0}, {"y": 9.0}]
        summary = summarize_numeric(rows, "x")
        assert summary == {"min": 1.0, "mean": 2.0, "max": 3.0}
        assert summarize_numeric([], "x")["mean"] == 0.0


class TestWorkloads:
    def test_build_corpus_ids_are_unique_and_valid(self):
        corpus = build_corpus(CorpusConfig(specifications=3, seed=5))
        assert len({spec.root_id for spec in corpus}) == 3
        for spec in corpus:
            spec.validate()

    def test_build_repository_with_policies(self):
        config = CorpusConfig(specifications=2, executions_per_specification=2, seed=3)
        repository, policies = build_repository(config)
        assert len(repository) == 2
        for spec_id in repository.specification_ids():
            assert len(repository.executions_for(spec_id)) == 2
            assert spec_id in policies
            policies[spec_id].validate()

    def test_default_access_policy_levels(self, gallery_spec):
        policy = default_access_policy(gallery_spec, levels=3)
        hierarchy = ExpansionHierarchy(gallery_spec)
        assert policy.prefix_for_level(0) == hierarchy.root_prefix()
        assert policy.prefix_for_level(2) == hierarchy.full_prefix()
        assert hierarchy.root_prefix() <= policy.prefix_for_level(1) <= hierarchy.full_prefix()

    def test_keyword_workload_refers_to_corpus(self):
        corpus = build_corpus(CorpusConfig(specifications=2, seed=7))
        workload = keyword_workload(corpus, queries_per_specification=3, seed=1)
        assert len(workload) == 6
        known_ids = {spec.root_id for spec in corpus}
        assert all(spec_id in known_ids for spec_id, _ in workload)

    def test_random_relations_and_targets(self, gallery_spec):
        relations = random_relations(3, seed=2)
        assert [r.module_id for r in relations] == ["P1", "P2", "P3"]
        targets = random_structural_targets(gallery_spec, pairs=2, seed=2)
        assert len(targets) == 2
        full_modules = {"M3"} | {f"M{i}" for i in range(5, 16)}
        for source, target in targets:
            assert source in full_modules and target in full_modules


class TestFigures:
    def test_all_figures_reproduce(self):
        artifacts = reproduce_all_figures()
        assert set(artifacts) == {"F1", "F2", "F3", "F4", "F5"}
        for artifact in artifacts.values():
            assert artifact.all_checks_pass, artifact.checks
            assert artifact.rendering

    def test_figure_checks_helper(self):
        checks = figure_checks()
        assert all(all(values.values()) for values in checks.values())


class TestExperimentRunners:
    def test_registry_is_complete(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 13)}
        assert set(ALL_HEADLINES) == set(ALL_EXPERIMENTS)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99")

    def test_e1_small_run(self):
        rows = e1_module_privacy.run(
            e1_module_privacy.E1Config(modules=1, gammas=(2,), seed=1)
        )
        assert rows
        assert {"module", "gamma", "solver", "cost"} <= set(rows[0])
        headline = e1_module_privacy.headline(rows)
        assert headline["greedy_cost_overhead"] >= 1.0

    def test_e2_small_run(self):
        rows = e2_adversary.run(e2_adversary.E2Config(run_counts=(1, 4), gamma=3))
        settings = {row["setting"] for row in rows}
        assert len(settings) == 2
        headline = e2_adversary.headline(rows)
        assert headline["no_hiding_final_success"] == 1.0
        assert headline["safe_subset_final_success"] <= 1 / 3 + 1e-9

    def test_e3_small_run(self):
        rows = e3_structural.run(e3_structural.E3Config(random_graphs=1))
        strategies = {row["strategy"] for row in rows}
        assert {
            "edge-deletion",
            "clustering",
            "repaired-clustering",
            "grown-clustering",
        } <= strategies

    def test_e4_run_without_random_spec(self):
        rows = e4_tradeoff.run(e4_tradeoff.E4Config(include_random_specification=False))
        assert len(rows) == 6
        assert e4_tradeoff.headline(rows)["pareto_points"] >= 1

    def test_e8_small_run(self):
        rows = e8_ranking.run(e8_ranking.E8Config(documents=8, bucket_widths=(1.0,)))
        assert len(rows) == 2
        assert rows[0]["publishing"] == "exact scores"

    def test_e12_small_run(self):
        from repro.experiments import e12_approx

        config = e12_approx.E12Config(scales=(64, 256), gammas=(2, 4))
        rows = e12_approx.run(config)
        assert [row["phase"] for row in rows] == ["exact", "exact"]
        assert [row["rows"] for row in rows] == [64, 256]
        for row in rows:
            assert row["build_ms"] >= 0 and row["time_ms"] >= 0
            assert row["points"] >= 1
            assert not row.get("extrapolated")
        headline = e12_approx.headline(rows)
        assert headline["max_rows"] == 256
        assert headline["exact_ms_at_max_rows"] == rows[1]["time_ms"]
        for stale in (
            "approx_speedup",
            "approx_speedup_measured",
            "exact_infeasible_claimed",
            "transports_identical",
            "coverage_rate",
            "coverage_meets_nominal",
        ):
            assert stale not in headline
