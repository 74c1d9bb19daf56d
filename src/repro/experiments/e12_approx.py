"""Experiment E12 -- exact Gamma at scale.

Does exact Gamma need a stand-in on relations far past workflow scale?
This experiment times the exact ``gamma_cost_frontier`` on
near-functional scaled relations at every scale (up to 2*10^6 rows by
default), with the relation build timed separately from the frontier.
The exact frontier won at every scale it was measured at, so every
solver and the service compute exact Gamma and nothing samples.

Every number in the table and the headline is measured; nothing is
extrapolated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.reporting import ResultTable
from repro.experiments.workloads import scaled_structure
from repro.privacy.relations import KernelRelation
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


def run(config: E12Config | None = None) -> ResultTable:
    """Run E12: one ``exact`` row per scale."""
    config = config or E12Config()
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
    return rows


def headline(rows: ResultTable) -> dict[str, object]:
    """The exact frontier and relation-build times at the largest scale."""
    largest = max(rows, key=lambda row: int(row["rows"]))
    return {
        "max_rows": int(largest["rows"]),
        "exact_ms_at_max_rows": float(largest["time_ms"]),
        "build_ms_at_max_rows": float(largest["build_ms"]),
    }


def main() -> None:  # pragma: no cover - convenience entry point
    from repro.experiments.reporting import print_table

    table = run()
    print_table(table, title="E12 -- exact Gamma at scale")
    print(headline(table))


if __name__ == "__main__":  # pragma: no cover
    main()
