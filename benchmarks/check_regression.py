"""Compare a fresh benchmark run against the committed baseline snapshot.

``make bench-check`` entry point.  Runs ``benchmarks/run_benchmarks.py``
into a temporary directory, loads the newest committed baseline from
``benchmarks/baselines/BENCH_*.json``, and fails (exit code 1) when any
*guarded* benchmark -- the Gamma-kernel and adversary operations, the
keyword/storage query ops, and the sharded evaluation service: the hot
paths this repository's perf story rests on -- regressed by more than
the threshold (default 30%, ``BENCH_CHECK_THRESHOLD`` overrides,
e.g. ``0.5`` for 50%).

Absolute times are only comparable on the machine that recorded them,
so baselines carry a machine tag and are matched per machine: the first
run on a new machine seeds ``benchmarks/baselines/BENCH_<date>_<machine>.json``
and passes -- commit (or CI-cache) the file to arm the gate there.
Benchmarks present on only one side are reported but never fail the
check (suites evolve); an apparent regression is confirmed by re-running
(best-of-N) before failing, since loaded machines routinely show >30%
scheduler noise on millisecond-scale ops.

Usage::

    python benchmarks/check_regression.py [--pattern GLOB] [--threshold 0.3]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"

#: Substrings selecting the guarded benchmarks: the Gamma-kernel and
#: adversary hot paths, plus (since PR 3) the keyword-search/storage
#: query ops and the evaluation service -- which since PR 4 includes
#: the pipelined-dispatch deep-search op
#: (``test_service_pipelined_dispatch_deep_search``).  Markers are
#: chosen to match the query/service benchmarks but not the figure-layer
#: ones (e.g. ``keyword_search`` matches E5 and the gallery search, not
#: ``test_fig5_keyword_answer`` -- figures are not a guarded hot path).
GUARDED_MARKERS = (
    "kernel",
    "adversary",
    "module_privacy",
    "registry",
    "keyword_search",
    "storage",
    "service",
)


def latest_baseline(machine: str | None) -> pathlib.Path | None:
    """The newest baseline snapshot recorded on ``machine``.

    Absolute times are only comparable on the machine that produced
    them, so baselines are matched by the snapshot's machine tag
    (untagged legacy snapshots match any machine).  A machine with no
    baseline yet gets one seeded on the first run.
    """
    if not BASELINE_DIR.is_dir():
        return None
    matching: list[pathlib.Path] = []
    for candidate in sorted(BASELINE_DIR.glob("BENCH_*.json")):
        try:
            tag = json.loads(candidate.read_text()).get("machine")
        except json.JSONDecodeError:
            continue
        if tag is None or machine is None or tag == machine:
            matching.append(candidate)
    return matching[-1] if matching else None


def is_guarded(name: str) -> bool:
    """Whether a benchmark name belongs to the regression-guarded set."""
    lowered = name.lower()
    return any(marker in lowered for marker in GUARDED_MARKERS)


def compare(
    baseline: dict[str, dict[str, float]],
    fresh: dict[str, dict[str, float]],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """(regressions, notes) comparing guarded benchmark means."""
    regressions: list[str] = []
    notes: list[str] = []
    for name in sorted(set(baseline) | set(fresh)):
        if name not in fresh:
            notes.append(f"baseline-only benchmark (skipped): {name}")
            continue
        if name not in baseline:
            notes.append(f"new benchmark (no baseline yet): {name}")
            continue
        # Compare best-case times: `min` filters scheduler noise that the
        # mean of few rounds is exposed to.
        old_best = float(baseline[name].get("min") or baseline[name].get("mean", 0.0))
        new_best = float(fresh[name].get("min") or fresh[name].get("mean", 0.0))
        if old_best <= 0.0:
            continue
        ratio = new_best / old_best
        line = f"{name}: {old_best * 1000:.3f} ms -> {new_best * 1000:.3f} ms ({ratio:.2f}x)"
        if not is_guarded(name):
            notes.append(f"unguarded: {line}")
            continue
        if ratio > 1.0 + threshold:
            regressions.append(line)
        else:
            notes.append(f"ok: {line}")
    return regressions, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pattern",
        default="benchmarks",
        help="pytest target forwarded to run_benchmarks.py",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_CHECK_THRESHOLD", "0.3")),
        help="allowed fractional slowdown for guarded ops (default 0.3 = 30%%)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=int(os.environ.get("BENCH_CHECK_RETRIES", "2")),
        help="re-runs to confirm an apparent regression (default 2)",
    )
    parser.add_argument(
        "--require-baseline",
        action="store_true",
        default=bool(os.environ.get("BENCH_CHECK_REQUIRE_BASELINE")),
        help=(
            "fail instead of seeding when this machine has no baseline; "
            "set in CI (with BENCH_MACHINE pinned to the runner class) so "
            "the gate cannot silently self-disarm"
        ),
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    import run_benchmarks  # noqa: E402  (sibling script, not a package)

    def run_once() -> dict | None:
        """One full benchmark run; the parsed snapshot or None on failure."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp_dir = pathlib.Path(tmp)
            exit_code = run_benchmarks.main(
                ["--output-dir", str(tmp_dir), "--pattern", args.pattern]
            )
            if exit_code != 0:
                print(f"benchmark suites failed (pytest exit code {exit_code})")
                return None
            snapshots = sorted(tmp_dir.glob("BENCH_*.json"))
            if not snapshots:  # pragma: no cover - run_benchmarks always writes
                print("no benchmark snapshot produced")
                return None
            return json.loads(snapshots[-1].read_text())

    fresh_document = run_once()
    if fresh_document is None:
        return 1

    fresh_machine = fresh_document.get("machine")
    baseline_path = latest_baseline(fresh_machine)
    if baseline_path is None:
        if args.require_baseline:
            print(
                f"no baseline for machine {fresh_machine!r} and "
                "--require-baseline is set; seed and commit one "
                "(BENCH_MACHINE pins the tag on ephemeral runners)"
            )
            return 1
        BASELINE_DIR.mkdir(parents=True, exist_ok=True)
        date = fresh_document["generated"].split("T")[0]
        slug = "".join(
            ch if ch.isalnum() or ch in "-." else "-" for ch in (fresh_machine or "any")
        )
        seeded = BASELINE_DIR / f"BENCH_{date}_{slug}.json"
        seeded.write_text(json.dumps(fresh_document, indent=2, sort_keys=True) + "\n")
        print(
            f"no baseline for machine {fresh_machine!r}; seeded "
            f"{seeded.relative_to(REPO_ROOT)}"
        )
        print("commit (or cache) it to arm the regression gate on this machine")
        return 0

    baseline_document = json.loads(baseline_path.read_text())

    # An apparent regression on a loaded machine is usually scheduler
    # noise; confirm it by re-running and taking per-op best-of-N before
    # failing the gate.
    baseline_ops = baseline_document.get("benchmarks", {})
    fresh_ops = dict(fresh_document.get("benchmarks", {}))
    print(f"baseline: {baseline_path.relative_to(REPO_ROOT)}")
    for attempt in range(args.retries + 1):
        regressions, notes = compare(baseline_ops, fresh_ops, args.threshold)
        if not regressions:
            break
        if attempt == args.retries:
            break
        print(
            f"apparent regression ({len(regressions)} op(s)); "
            f"re-running to confirm ({attempt + 1}/{args.retries})"
        )
        rerun = run_once()
        if rerun is None:
            return 1
        for name, stats in rerun.get("benchmarks", {}).items():
            current = fresh_ops.get(name)
            if current is None or float(stats.get("min", 0.0)) < float(
                current.get("min", float("inf"))
            ):
                fresh_ops[name] = stats
    for note in notes:
        print(f"  {note}")
    if regressions:
        print(
            f"REGRESSION: guarded ops slower than baseline by >{args.threshold:.0%}:"
        )
        for line in regressions:
            print(f"  {line}")
        return 1
    print("bench-check ok: no guarded op regressed past the threshold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
