"""Tests for the repository-wide query engine and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_demo_repository, build_parser, main
from repro.errors import QueryError
from repro.privacy import PrivacyPolicy
from repro.query.repository_engine import (
    RankedAnswer,
    RepositoryOutcome,
    RepositoryQueryEngine,
)
from repro.storage import WorkflowRepository
from repro.views import ANALYST, OWNER, PUBLIC, User
from repro.workflow import (
    disease_susceptibility_specification,
    small_pipeline_specification,
)
from repro.workflow.serialization import specification_to_json


@pytest.fixture()
def repository(fig4_execution):
    specification = disease_susceptibility_specification()
    policy = PrivacyPolicy(specification)
    policy.set_access_view(PUBLIC, {"W1"})
    policy.set_access_view(ANALYST, {"W1", "W2", "W4"})
    policy.set_access_view(OWNER, {"W1", "W2", "W3", "W4"})
    policy.protect_data_label("disorders", OWNER)
    policy.hide_structure("M13", "M11", minimum_level=OWNER)
    repository = WorkflowRepository("test")
    repository.add_specification(specification, policy=policy)
    repository.add_execution(fig4_execution)
    repository.add_specification(small_pipeline_specification())
    return repository


@pytest.fixture()
def engine(repository):
    return RepositoryQueryEngine(repository)


class TestRepositoryQueryEngine:
    def test_keyword_search_is_ranked_and_privacy_aware(self, engine):
        analyst = User("analyst", level=ANALYST)
        outcome = engine.search(analyst, "Database, Disorder Risks")
        assert outcome.kind == "keyword"
        assert outcome.hits == 1
        hit = outcome.answers[0]
        assert isinstance(hit, RankedAnswer)
        assert hit.specification_id == "W1"
        assert hit.score > 0
        assert hit.result.answer.view.visible_modules == {
            "M2", "M3", "M5", "M6", "M7", "M8",
        }

    def test_public_user_gets_no_keyword_hits(self, engine):
        outcome = engine.search(User("public", level=PUBLIC), "Database, Disorder Risks")
        assert outcome.hits == 0

    def test_specs_without_policy_are_public(self, engine):
        outcome = engine.search(User("public", level=PUBLIC), "normalize")
        assert outcome.hits == 1
        assert outcome.answers[0].specification_id == "P1"

    def test_before_query(self, engine):
        owner = User("owner", level=OWNER)
        outcome = engine.search(owner, "BEFORE M13 -> M11")
        assert outcome.kind == "before"
        assert outcome.hits == 1
        assert outcome.answers[0].result.answer is True
        denied = engine.search(User("analyst", level=ANALYST), "BEFORE M13 -> M11")
        assert denied.answers[0].result.status == "denied"

    def test_path_query_respects_access_view(self, engine):
        owner_outcome = engine.search(User("o", level=OWNER), "PATH M9 -> M13 -> M15")
        assert owner_outcome.kind == "path"
        assert owner_outcome.answers[0].result.answer is True
        # At the analyst level W3 is collapsed, so the path is not visible.
        analyst_outcome = engine.search(User("a", level=ANALYST), "PATH M9 -> M13 -> M15")
        assert all(not hit.result.answer for hit in analyst_outcome.answers)

    def test_provenance_query(self, engine):
        owner = User("owner", level=OWNER)
        outcome = engine.search(owner, "PROVENANCE d10")
        assert outcome.kind == "provenance"
        assert outcome.hits == 1
        assert outcome.answers[0].result.ok
        public = engine.search(User("p", level=PUBLIC), "PROVENANCE d5")
        assert public.answers[0].result.status == "denied"

    def test_module_provenance_query(self, engine):
        owner = User("owner", level=OWNER)
        outcome = engine.search(owner, 'PROVENANCE MODULE "Query OMIM"')
        assert outcome.kind == "module-provenance"
        assert outcome.hits == 1
        provenance = outcome.answers[0].result.answer
        assert any(node.module_id == "M6" for node in provenance)

    def test_cache_shares_per_group(self, engine):
        analyst_a = User("a1", level=ANALYST, groups=("analysts",))
        analyst_b = User("a2", level=ANALYST, groups=("analysts",))
        first = engine.search(analyst_a, "PubMed")
        second = engine.search(analyst_b, "PubMed")
        assert not first.from_cache
        assert second.from_cache
        assert second.hits == first.hits
        other_group = engine.search(User("o", level=ANALYST, groups=("owners",)), "PubMed")
        assert not other_group.from_cache
        engine.invalidate_cache()
        refreshed = engine.search(analyst_a, "PubMed")
        assert not refreshed.from_cache

    def test_engine_for_unknown_spec(self, engine):
        with pytest.raises(QueryError):
            engine.engine_for("nope")

    def test_bucketized_ranking(self, repository):
        engine = RepositoryQueryEngine(repository, ranking_bucket_width=5.0)
        outcome = engine.search(User("o", level=OWNER), "disorder")
        assert all(hit.score % 5.0 == 0 for hit in outcome.answers)

    def test_outcome_dataclass(self):
        outcome = RepositoryOutcome(kind="keyword", user_id="u", query="q")
        assert outcome.hits == 0


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "E4"])
        assert args.experiment_id == "E4"

    def test_figures_command(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "[ok] F1" in output and "[ok] F5" in output

    def test_experiment_command(self, capsys):
        assert main(["experiment", "e4"]) == 0
        output = capsys.readouterr().out
        assert "E4 result table" in output
        assert "headline:" in output

    def test_experiment_command_rejects_unknown(self, capsys):
        assert main(["experiment", "E42"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_command_has_no_seed_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiment", "E12", "--seed", "11"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_experiment_command_has_no_rebalance_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["experiment", "E11", "--no-rebalance"])
        assert exit_info.value.code == 2
        assert "--no-rebalance" in capsys.readouterr().err

    def test_search_command(self, capsys):
        assert main(["search", "Database, Disorder Risks", "--level", "1"]) == 0
        output = capsys.readouterr().out
        assert "query kind: keyword" in output
        assert "W1" in output

    def test_search_denied_structural_query(self, capsys):
        assert main(["search", "BEFORE M13 -> M11", "--level", "1"]) == 0
        output = capsys.readouterr().out
        assert "denied" in output

    def test_validate_command(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(specification_to_json(small_pipeline_specification()))
        assert main(["validate", str(path)]) == 0
        assert "ok: P1" in capsys.readouterr().out

    def test_validate_command_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1
        assert "invalid specification" in capsys.readouterr().err

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "repro" in output and "specifications: 1" in output

    def test_demo_repository_contents(self):
        repository = build_demo_repository()
        assert repository.statistics()["executions"] == 1
        assert repository.policy("W1") is not None
