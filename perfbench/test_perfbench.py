"""The benchmark's own tests, at a tiny size (one-second runs).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import pathlib
import random
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import client  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def bench(*args: str, cwd: pathlib.Path = ROOT) -> tuple[int, list[str]]:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed.returncode, completed.stdout.splitlines()


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_completes_and_prints_every_metric(workload):
    code, lines = bench("--workload", workload, "--trace", "1")
    span_dump = ROOT / ".perfbench" / f"spans-{workload}-seed7.json"
    assert json.loads(span_dump.read_text(encoding="utf-8"))["client"]
    span_dump.unlink()
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["metrics"]["workflow_privacy.evaluations"]["value"] > 0
    table = "\n".join(lines[:-1])
    for metric in BENCHMARK["end_to_end"]:
        assert f" {metric['name']} " in table
    assert "views_failed_pct" in table


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_oracle_answer_is_a_failed_view(workload):
    code, lines = bench("--workload", workload, "--trace", "0", "--corrupt-oracle")
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert any(line.startswith("FAILED") and "oracle" in line for line in lines)


def test_checkout_without_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.set_view("v")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.set_view(None)
    with tracer.span("setup"):
        pass
    dump = tracer.dump()
    table = spans.self_times(dump, views_only=True)
    outer, inner = table["outer"], table["inner"]
    assert outer["count"] == inner["count"] == 1
    assert outer["self_ms"] == pytest.approx(outer["total_ms"] - inner["total_ms"])
    assert table.keys() == {"outer", "inner"}
    assert spans.self_times(dump, views_only=False).keys() == {"outer", "inner", "setup"}
    assert [span[2] for span in dump["spans"]] == ["inner", "outer", "setup"]


def test_every_block_serves_every_shape_once():
    for shapes in (workloads.SMALL_SHAPES, len(workloads.LARGE_SHAPES)):
        served = [workloads.shape_of("stream/3", index, shapes) for index in range(3 * shapes)]
        for block in range(3):
            assert sorted(served[block * shapes : (block + 1) * shapes]) == list(range(shapes))


def test_small_views_of_one_shape_search_alike_but_ship_new_structures():
    from repro.privacy.workflow_privacy import exact_secure_view

    shapes = workloads.small_shapes()
    by_shape: dict[int, list] = {}
    for index in range(2 * workloads.SMALL_SHAPES):
        shape = workloads.shape_of("small/5", index, workloads.SMALL_SHAPES)
        by_shape.setdefault(shape, []).append(workloads.small_view(shapes, 5, index))
    for first, second in by_shape.values():
        assert exact_secure_view(first).evaluations == exact_secure_view(second).evaluations
        signatures = {
            requirement.relation.structure_signature.signature
            for requirement in first.requirements + second.requirements
        }
        assert len(signatures) == 2 * workloads.SMALL_MODULES


def test_grouped_gamma_matches_the_reference():
    from repro.privacy.relations import ModuleRelation

    rng = random.Random(11)
    for seed in range(6):
        relation = ModuleRelation.random("m", n_inputs=3, n_outputs=2, domain_size=3, seed=seed)
        names = relation.attribute_names()
        for _ in range(8):
            hidden = {name for name in names if rng.random() < 0.4}
            assert client.grouped_gamma(relation, hidden) == relation.reference_achieved_gamma(
                hidden
            )


def test_episodes_merge_into_one_run():
    import metrics

    def episode(number: int, latency: float) -> dict:
        tracer = spans.Tracer()
        with tracer.span("view"):
            tracer.sample("rtt_ms", latency)
        return {
            "wall_s": 2.0, "scaled_wall_s": 1.0, "attempted": 2, "failed": number,
            "failures": [f"episode {number}"] * number,
            "views": [
                {"index": 2 * number + position, "position": position, "ok": True,
                 "latency_ms": latency * (position + 1), "factor": 0.5, "evaluations": 1}
                for position in range(2)
            ],
            "calib_before_ms": 10.0 + number, "calib_after_ms": 20.0 + number,
            "rss_kb": 100 * (number + 1), "coordinators": [{"batches": 1, "tasks": 1}],
            "kernel_stats": {"kernel_hits": 3, "label": "x"},
            "server_stats": {"kernels": 10 + number}, "trace": tracer.dump(),
        }

    merged = metrics.merge_results([episode(0, 100.0), episode(1, 300.0)])
    assert (merged["wall_s"], merged["scaled_wall_s"]) == (4.0, 2.0)
    assert (merged["attempted"], merged["failed"], merged["failures"]) == (4, 1, ["episode 1"])
    assert [view["index"] for view in merged["views"]] == [0, 1, 2, 3]
    assert (merged["calib_before_ms"], merged["calib_after_ms"]) == (10.0, 21.0)
    assert merged["rss_kb"] == 200 and merged["server_stats"] == {"kernels": 11}
    assert merged["kernel_stats"] == {"kernel_hits": 6}
    assert spans.self_times(merged["trace"], views_only=False)["view"]["count"] == 2
    assert merged["trace"]["samples"]["rtt_ms"] == [100.0, 300.0]
    # Views ordered by position within their episode, latencies scaled by 0.5.
    assert metrics._tenth_means(merged) == (50.0, 300.0)
    values = metrics.end_to_end(merged, [(1.0, 0.5), (3.0, 0.5), (2.0, 0.5)], 0)
    assert values["views_per_s"] == 2.0 and values["setup_s"] == 1.0


def test_host_factor_restores_the_callers_cpus():
    import os

    import metrics

    home = os.sched_getaffinity(0)
    assert metrics.host_factor(sorted(home)) > 0
    assert os.sched_getaffinity(0) == home
