"""Experiment E12 -- exact Gamma at scale, and the sampled interval's coverage.

The approximate-Gamma subsystem (:mod:`repro.privacy.approx`) was built
to stand in for exact Gamma on relations far past workflow scale.  This
experiment measures whether exact needs a stand-in there: it times the
exact ``gamma_cost_frontier`` on near-functional scaled relations at
every scale (up to 2*10^6 rows by default), with the relation build
timed separately from the frontier.  The exact frontier won at every
scale it was measured at, so no solver samples; what remains of approx
is a local interval query.

The ``coverage`` phase scores that interval query: many
independently-seeded, budget-limited intervals on a small relation,
checked against the exact Gamma.  The containment rate must be >= the
nominal confidence (the lower end is deterministic, so misses can only
come from the upper bound's ``1 - confidence`` allowance).

Every number in the table and the headline is measured; nothing is
extrapolated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.reporting import ResultTable
from repro.experiments.workloads import scaled_structure
from repro.privacy.approx import ApproxGammaEstimator, KernelRelation
from repro.privacy.tradeoff import gamma_cost_frontier


@dataclass(frozen=True)
class E12Config:
    """Parameters of experiment E12.

    ``scales`` is the row-count sweep; the exact frontier runs at every
    one of them.
    """

    scales: tuple[int, ...] = (512, 20_000, 200_000, 2_000_000)
    gammas: tuple[int, ...] = (2, 8, 32)
    n_inputs: int = 4
    n_outputs: int = 3
    domain_size: int = 8
    #: Fraction of rows whose outputs deviate from the linear map --
    #: near-functional modules are the regime where hiding is needed.
    noise: float = 0.02
    coverage_confidence: float = 0.99
    coverage_trials: int = 40
    coverage_rows: int = 600
    coverage_budget: int = 64
    seed: int = 7


def build_relation(config: E12Config, rows: int) -> KernelRelation:
    """A fresh relation (fresh kernel) over the scaled structure."""
    return KernelRelation(
        f"E12R{rows}",
        scaled_structure(
            rows=rows,
            n_inputs=config.n_inputs,
            n_outputs=config.n_outputs,
            domain_size=config.domain_size,
            seed=config.seed,
            noise=config.noise,
        ),
    )


def run(config: E12Config | None = None, *, seed: int | None = None) -> ResultTable:
    """Run E12: one ``exact`` row per scale, then the ``coverage`` row.

    ``seed`` (the CLI's ``--seed``) overrides the *sampling* seed of the
    coverage phase only; the workload structures stay pinned to
    ``config.seed``.
    """
    config = config or E12Config()
    sampling_seed = config.seed if seed is None else int(seed)
    rows: ResultTable = []
    for scale in config.scales:
        # A fresh relation per scale, so the frontier is cold-kernel work.
        started = time.perf_counter()
        relation = build_relation(config, scale)
        build_ms = (time.perf_counter() - started) * 1000.0
        started = time.perf_counter()
        frontier = gamma_cost_frontier(
            relation, gammas=config.gammas, solver="exact"
        )
        exact_ms = (time.perf_counter() - started) * 1000.0
        rows.append(
            {
                "phase": "exact",
                "rows": scale,
                "build_ms": round(build_ms, 3),
                "time_ms": round(exact_ms, 3),
                "points": len(frontier),
                "evaluations": sum(point.evaluations for point in frontier),
                "total_cost": round(sum(point.cost for point in frontier), 3),
            }
        )
    rows.append(_coverage_row(config, sampling_seed))
    return rows


def _coverage_row(config: E12Config, sampling_seed: int) -> dict[str, object]:
    """Interval coverage of the exact Gamma over many sampling seeds.

    Budget-limited (no refinement target), so the intervals stay wide
    enough to be a real test of the bounds rather than degenerating to
    exact.
    """
    confidence = config.coverage_confidence
    relation = build_relation(config, config.coverage_rows)
    hidden = relation.attribute_names()[-1:]
    exact = relation.achieved_gamma(hidden)
    contained = 0
    for trial in range(config.coverage_trials):
        estimator = ApproxGammaEstimator(
            relation,
            budget=config.coverage_budget,
            confidence=confidence,
            seed=sampling_seed + 1 + trial,
            max_rounds=1,
        )
        if estimator.interval(hidden).contains(exact):
            contained += 1
    rate = contained / max(config.coverage_trials, 1)
    return {
        "phase": "coverage",
        "rows": config.coverage_rows,
        "budget": config.coverage_budget,
        "confidence": confidence,
        "trials": config.coverage_trials,
        "coverage_rate": round(rate, 4),
        "meets_nominal": rate >= confidence,
    }


def headline(rows: ResultTable) -> dict[str, object]:
    """The exact frontier and relation-build times at the largest scale,
    and the interval coverage."""
    exact = [row for row in rows if row.get("phase") == "exact"]
    largest = max(exact, key=lambda row: int(row["rows"]))
    coverage = next(row for row in rows if row.get("phase") == "coverage")
    return {
        "max_rows": int(largest["rows"]),
        "exact_ms_at_max_rows": float(largest["time_ms"]),
        "build_ms_at_max_rows": float(largest["build_ms"]),
        "coverage_rate": float(coverage["coverage_rate"]),
        "coverage_meets_nominal": bool(coverage["meets_nominal"]),
    }


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    table = run()
    print_table(
        table, title="E12 -- exact Gamma at scale, sampled-interval coverage"
    )
    print(headline(table))


if __name__ == "__main__":  # pragma: no cover
    main()
