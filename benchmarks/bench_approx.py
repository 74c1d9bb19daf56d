"""Benchmark of the sampled Gamma interval query.

Times the one path the approx subsystem keeps -- a sampled interval on
a *warm* kernel (strata cached, fresh sampling seed per round) -- and
checks that its interval contains the exact Gamma.  The regression gate
guards the time (``approx`` marker).  No solver samples: the exact
frontier measured faster at every E12 scale up to 2*10^6 rows, so there
is no frontier benchmark here.
"""

from __future__ import annotations

import itertools

from repro.experiments.workloads import scaled_structure
from repro.privacy.approx import (
    KernelRelation,
    SampleSpec,
    kernel_sample_interval,
)

BUDGET = 4096


def bench_relation(rows: int) -> KernelRelation:
    return KernelRelation(
        "bench-approx",
        scaled_structure(
            rows=rows, n_inputs=4, n_outputs=3, domain_size=8, seed=7, noise=0.02
        ),
    )


def test_approx_interval_warm_kernel(benchmark):
    """One sampled interval on a warm kernel, fresh seed per round."""
    relation = bench_relation(50_000)
    visible_inputs, visible_outputs = relation.visibility_of(("i0", "o2"))

    def interval(seed: int):
        return kernel_sample_interval(
            relation.kernel,
            visible_inputs,
            visible_outputs,
            SampleSpec(budget=BUDGET, confidence=0.95, seed=seed),
        )

    interval(0)  # warm the strata/partition caches
    seeds = itertools.count(1)
    box = benchmark.pedantic(lambda: interval(next(seeds)), rounds=5, iterations=1)
    exact = relation.achieved_gamma(("i0", "o2"))
    assert box.lower <= exact <= box.upper
    assert 0 < box.samples_used < relation.kernel.structure.row_count
