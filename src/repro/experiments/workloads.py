"""Synthetic workloads for the experiment harness.

The paper has no evaluation testbed, so every experiment is driven by
synthetic workloads built here: corpora of hierarchical specifications,
repositories with repeated executions, per-level access policies, keyword
query mixes, random module relations and structural-privacy targets.  All
workloads are deterministic given their seed.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.execution.engine import WorkflowExecutor
from repro.privacy.kernel_registry import GammaKernelRegistry, RelationStructure
from repro.privacy.relations import ModuleRelation
from repro.storage.repository import WorkflowRepository
from repro.views.access import AccessViewPolicy
from repro.views.hierarchy import ExpansionHierarchy
from repro.workflow.generator import (
    GeneratorConfig,
    random_keyword_queries,
    random_specification,
)
from repro.workflow.specification import WorkflowSpecification


@dataclass(frozen=True)
class CorpusConfig:
    """Size parameters of a synthetic repository."""

    specifications: int = 5
    workflows_per_specification: int = 4
    modules_per_workflow: int = 6
    executions_per_specification: int = 3
    seed: int = 17


def build_corpus(config: CorpusConfig | None = None) -> list[WorkflowSpecification]:
    """Generate a corpus of hierarchical specifications."""
    config = config or CorpusConfig()
    corpus = []
    for index in range(config.specifications):
        generator_config = GeneratorConfig(
            workflows=config.workflows_per_specification,
            modules_per_workflow=config.modules_per_workflow,
            seed=config.seed + index * 101,
        )
        specification = random_specification(generator_config)
        # Give every specification a distinct root id so a repository can
        # store all of them side by side.
        renamed = _rename_specification(specification, f"S{index + 1}")
        corpus.append(renamed)
    return corpus


def _rename_specification(
    specification: WorkflowSpecification, prefix: str
) -> WorkflowSpecification:
    """Prefix every workflow and module id so ids stay globally unique."""
    from repro.workflow.graph import WorkflowGraph
    from repro.workflow.module import Module

    renamed = WorkflowSpecification(
        f"{prefix}:{specification.root_id}", name=f"{prefix} {specification.name}"
    )
    for workflow_id in specification.workflow_ids():
        graph = specification.workflow(workflow_id)
        new_graph = WorkflowGraph(f"{prefix}:{workflow_id}", f"{prefix} {graph.name}")
        for module in graph:
            new_graph.add_module(
                Module(
                    module_id=f"{prefix}:{module.module_id}",
                    name=module.name,
                    kind=module.kind,
                    keywords=module.keywords,
                    subworkflow_id=(
                        f"{prefix}:{module.subworkflow_id}"
                        if module.subworkflow_id
                        else None
                    ),
                    metadata=module.metadata,
                )
            )
        for edge in graph.edges:
            new_graph.add_edge(
                f"{prefix}:{edge.source}", f"{prefix}:{edge.target}", edge.labels
            )
        renamed.add_workflow(new_graph)
    renamed.validate()
    return renamed


def build_repository(
    config: CorpusConfig | None = None,
) -> tuple[WorkflowRepository, dict[str, AccessViewPolicy]]:
    """Build a repository with executions and per-level access policies.

    Returns the repository together with a mapping from specification id to
    its three-level access policy (0 = root view, 1 = depth <= 1 views,
    2 = full expansion).
    """
    config = config or CorpusConfig()
    corpus = build_corpus(config)
    repository = WorkflowRepository(name=f"synthetic-{config.seed}")
    policies: dict[str, AccessViewPolicy] = {}
    for specification in corpus:
        repository.add_specification(specification)
        executor = WorkflowExecutor(specification)
        for run in range(config.executions_per_specification):
            execution = executor.execute(
                {}, execution_id=f"{specification.root_id}-run-{run}"
            )
            repository.add_execution(execution)
        policies[specification.root_id] = default_access_policy(specification)
    return repository, policies


def default_access_policy(
    specification: WorkflowSpecification, *, levels: int = 3
) -> AccessViewPolicy:
    """A simple monotone access policy over ``levels`` access levels.

    Level 0 sees only the root view, the top level sees the full expansion,
    and intermediate levels see prefixes truncated at increasing depths.
    """
    hierarchy = ExpansionHierarchy(specification)
    policy = AccessViewPolicy(specification)
    height = max(1, hierarchy.height())
    for level in range(levels):
        if level == 0:
            policy.grant_root_only(level)
            continue
        if level == levels - 1:
            policy.grant_full_access(level)
            continue
        max_depth = max(1, round(level * height / (levels - 1)))
        prefix = {
            workflow_id
            for workflow_id in hierarchy.workflows()
            if hierarchy.depth(workflow_id) <= max_depth
        }
        policy.set_level(level, hierarchy.prefix_closure(prefix))
    policy.validate()
    return policy


def keyword_workload(
    corpus: list[WorkflowSpecification],
    *,
    queries_per_specification: int = 5,
    seed: int = 23,
) -> list[tuple[str, tuple[str, ...]]]:
    """Keyword queries drawn from the corpus vocabulary.

    Returns (specification id, phrases) pairs so that callers can evaluate
    each query against the specification it was drawn from.
    """
    workload = []
    for specification in corpus:
        queries = random_keyword_queries(
            specification,
            queries_per_specification,
            keywords_per_query=2,
            seed=seed,
        )
        for query in queries:
            workload.append((specification.root_id, query))
    return workload


def random_relations(
    count: int,
    *,
    n_inputs: int = 2,
    n_outputs: int = 2,
    domain_size: int = 3,
    seed: int = 29,
    registry: "GammaKernelRegistry | None" = None,
) -> list[ModuleRelation]:
    """Random module relations for the module-privacy experiments.

    With a ``registry``, the relations attach to its shared Gamma kernels
    (structurally identical relations -- e.g. twins generated from the
    same seed -- resolve to the same kernel).
    """
    return [
        ModuleRelation.random(
            f"P{index + 1}",
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            domain_size=domain_size,
            seed=seed + index,
            registry=registry,
        )
        for index in range(count)
    ]


def scaled_structure(
    *,
    rows: int,
    n_inputs: int = 3,
    n_outputs: int = 2,
    domain_size: int = 8,
    seed: int = 0,
    noise: float | None = None,
) -> RelationStructure:
    """A canonical relation structure of arbitrary row count.

    The exact-Gamma-at-scale experiment (E12) needs relations far past what
    a :class:`ModuleRelation` row mapping can hold (>= 10^6 rows), so
    this builds the canonical *column* form directly: each column is an
    independent uniform draw over its domain positions, seeded per
    column by hashing ``(seed, role, position)`` -- deterministic,
    backend-free, and O(rows) per column.

    With ``noise`` set, outputs are instead a random linear function of
    the inputs, flipped to a uniform draw with probability ``noise`` per
    row -- a near-functional module.  That is the privacy-relevant
    regime: with everything visible each input block maps to one
    deterministic output (Gamma ~ 1), and only *hiding* attributes buys
    privacy, so the safe-subset search actually has to branch.
    """

    def rng_for(role: str, position: int) -> random.Random:
        material = repr((int(seed), role, int(position))).encode("ascii")
        digest = hashlib.blake2b(material, digest_size=8).digest()
        return random.Random(int.from_bytes(digest, "big"))

    def column(role: str, position: int, size: int) -> tuple[int, ...]:
        return tuple(rng_for(role, position).choices(range(size), k=rows))

    input_columns = tuple(
        column("input", position, domain_size) for position in range(n_inputs)
    )

    def output_column(position: int, size: int) -> tuple[int, ...]:
        if noise is None:
            return column("output", position, size)
        rng = rng_for("output", position)
        offset = rng.randrange(size)
        weights = [1 + 2 * rng.randrange(size) for _ in range(n_inputs)]
        return tuple(
            (
                rng.randrange(size)
                if rng.random() < noise
                else (offset + sum(w * v for w, v in zip(weights, values))) % size
            )
            for values in zip(*input_columns)
        )

    return RelationStructure(
        input_domain_sizes=(domain_size,) * n_inputs,
        output_domain_sizes=(domain_size,) * n_outputs,
        input_columns=input_columns,
        output_columns=tuple(
            output_column(position, domain_size) for position in range(n_outputs)
        ),
    )


def random_structural_targets(
    specification: WorkflowSpecification,
    *,
    pairs: int = 2,
    seed: int = 31,
) -> list[tuple[str, str]]:
    """Random reachable module pairs of the full expansion (privacy targets)."""
    from repro.views.spec_view import full_expansion

    rng = random.Random(seed)
    view = full_expansion(specification)
    candidates = sorted(view.reachable_module_pairs())
    if not candidates:
        return []
    count = min(pairs, len(candidates))
    return rng.sample(candidates, count)
