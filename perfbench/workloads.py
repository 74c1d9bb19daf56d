"""Seeded inputs of the three benchmark workloads.

Everything here is a pure function of ``(seed, index)``: the client, the
oracle and the tests rebuild the same view from the same pair, in any
process.  Nothing is generated from the wall clock or from
``PYTHONHASHSEED``-dependent state.

Each workload draws its views from a few fixed *shapes*, served in
seeded blocks that hold every shape once.  Per-view cost depends mostly
on the shape (how deep the secure-view search goes), so every run of
more than a few blocks serves the same mix, whatever its seed, and runs
differ by the seed's order and fresh data, not by a luckier mix.

* ``small_cold_tcp`` -- three-module workflows (2 inputs, 2 outputs,
  domain 3 each: nine-row relations).  A view is one of four base
  problems with its rows inserted in a fresh seeded order and its modules
  renamed: Gamma and the search are unchanged, but the canonical
  structure -- hence the signature the server keys kernels by -- is new,
  so every view ships new structures and the server's resident-kernel
  count grows across the run;
* ``large_cold_inproc`` -- two fresh random 10 000-row relations per view
  (4 inputs of domain 10, 2 outputs); the shape is the pair of Gamma
  targets.  Tables are generated here, outside the view's timer, and the
  ``ModuleRelation`` construction runs inside it;
* ``publish_warm_tls`` -- a fixed catalogue of chain workflows
  ``I -> M0 -> M1 -> M2 -> O`` whose modules are lookup tables, published
  again and again with new runs, so the server's kernels are warm after
  the first pass.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from repro.execution.behaviors import BehaviorRegistry
from repro.execution.engine import WorkflowExecutor
from repro.privacy.relations import Attribute, ModuleRelation
from repro.privacy.workflow_privacy import WorkflowPrivacyRequirements
from repro.workflow.builder import SpecificationBuilder, WorkflowGraphBuilder
from repro.workflow.specification import WorkflowSpecification

SMALL_SHAPES = 4
SMALL_MODULES = 3
#: Gamma target of each module of a small view (by module position).
SMALL_GAMMAS = (2, 3, 2)

LARGE_MODULES = 2
LARGE_INPUTS = 4
LARGE_OUTPUTS = 2
LARGE_DOMAIN = 10
#: Gamma 3 is met by hiding one input; 8 and 20 force deeper searches.
#: A large view's shape is one of the nine (module 0, module 1) pairs.
LARGE_GAMMAS = (3, 8, 20)
LARGE_SHAPES = tuple(itertools.product(LARGE_GAMMAS, repeat=LARGE_MODULES))

CATALOGUE_SIZE = 4
#: Executions recorded (and masked) per publish.
RUNS_PER_VIEW = 4
PUBLISH_DOMAIN = 3
PUBLISH_GAMMAS = (2, 3)

#: Tenants of ``publish_warm_tls``: (name, deficit-round-robin weight).
TENANTS = (("light", 1.0), ("heavy", 3.0))


def shape_of(stream: str, index: int, shapes: int) -> int:
    """Shape of view ``index``: seeded blocks holding every shape once."""
    block, position = divmod(index, shapes)
    order = random.Random(f"{stream}/block/{block}").sample(range(shapes), shapes)
    return order[position]


def _relation(module_id: str, domain: tuple, n_inputs: int, n_outputs: int, rows):
    inputs = [Attribute(f"{module_id}.in{i}", domain, "input") for i in range(n_inputs)]
    outputs = [
        Attribute(f"{module_id}.out{i}", domain, "output") for i in range(n_outputs)
    ]
    return ModuleRelation(module_id, inputs, outputs, rows)


def small_shapes() -> list[list[dict]]:
    """The function tables of the four base problems of ``small_cold_tcp``.

    Their exact secure-view searches take 156, 156, 169 and 167
    evaluations.
    """
    shapes = []
    for shape in range(SMALL_SHAPES):
        rng = random.Random(f"small-shape/{shape}")
        shapes.append(
            [
                ModuleRelation.random(
                    f"s{shape}m{module}",
                    n_inputs=2,
                    n_outputs=2,
                    domain_size=3,
                    seed=rng.randrange(1 << 31),
                ).rows
                for module in range(SMALL_MODULES)
            ]
        )
    return shapes


def small_view(
    shapes: list[list[dict]], seed: int, index: int
) -> WorkflowPrivacyRequirements:
    """View ``index`` of the ``small_cold_tcp`` stream (built, not solved)."""
    stream = f"small/{seed}"
    rng = random.Random(f"{stream}/{index}")
    requirements = WorkflowPrivacyRequirements()
    for module, rows in enumerate(shapes[shape_of(stream, index, SMALL_SHAPES)]):
        keys = list(rows)
        rng.shuffle(keys)
        relation = _relation(
            f"v{index}m{module}",
            tuple(range(3)),
            2,
            2,
            {key: rows[key] for key in keys},
        )
        requirements.add(relation, SMALL_GAMMAS[module])
    return requirements


@dataclass(frozen=True)
class LargeModule:
    """One generated large module: its id, Gamma target and function table."""

    module_id: str
    gamma: int
    rows: dict


def large_tables(seed: int, index: int) -> list[LargeModule]:
    """The function tables of view ``index`` of ``large_cold_inproc``."""
    domain = range(LARGE_DOMAIN)
    keys = list(itertools.product(domain, repeat=LARGE_INPUTS))
    gammas = LARGE_SHAPES[shape_of(f"large/{seed}", index, len(LARGE_SHAPES))]
    modules = []
    for module, gamma in enumerate(gammas):
        outputs = (
            np.random.default_rng([seed, index, module])
            .integers(0, LARGE_DOMAIN, size=(len(keys), LARGE_OUTPUTS))
            .tolist()
        )
        modules.append(
            LargeModule(f"v{index}m{module}", gamma, dict(zip(keys, map(tuple, outputs))))
        )
    return modules


def large_relation(module: LargeModule) -> ModuleRelation:
    """Construct the ``ModuleRelation`` of one generated large module."""
    return _relation(
        module.module_id,
        tuple(range(LARGE_DOMAIN)),
        LARGE_INPUTS,
        LARGE_OUTPUTS,
        module.rows,
    )


@dataclass(frozen=True)
class CatalogueEntry:
    """One publishable workflow: its specification, tables and targets."""

    specification: WorkflowSpecification
    #: module id -> (input labels, output labels, lookup table)
    tables: dict
    gammas: dict
    weights: dict

    def executor(self) -> WorkflowExecutor:
        """A fresh executor running the catalogue entry's lookup tables."""
        behaviors = BehaviorRegistry(default_factory=None)
        for module_id, (input_labels, output_labels, rows) in self.tables.items():
            behaviors.register_table(module_id, input_labels, output_labels, rows)
        return WorkflowExecutor(self.specification, behaviors)


def catalogue() -> list[CatalogueEntry]:
    """The fixed catalogue of ``publish_warm_tls`` workflows.

    The catalogue does not depend on the run's seed: the seed picks the
    publish order and the run inputs.
    """
    rng = random.Random("catalogue")
    domain = range(PUBLISH_DOMAIN)
    stages = (("x0", "x1"), ("a0", "a1"), ("b0", "b1"), ("y0", "y1"))
    entries = []
    for workflow in range(CATALOGUE_SIZE):
        root = f"W{workflow}"
        modules = [f"{root}.M{m}" for m in range(len(stages) - 1)]
        builder = WorkflowGraphBuilder(root).input("I").output("O")
        for module_id in modules:
            builder.atomic(module_id)
        hops = ["I", *modules, "O"]
        for source, target, labels in zip(hops, hops[1:], stages):
            builder.edge(source, target, *labels)
        specification = SpecificationBuilder(root).add(builder.build()).build()
        tables = {}
        gammas = {}
        for module_id, inputs, outputs in zip(modules, stages, stages[1:]):
            rows = {
                key: tuple(rng.choice(domain) for _ in outputs)
                for key in itertools.product(domain, repeat=len(inputs))
            }
            tables[module_id] = (inputs, outputs, rows)
            gammas[module_id] = rng.choice(PUBLISH_GAMMAS)
        weights = {
            label: float(rng.randint(1, 4)) for stage in stages for label in stage
        }
        entries.append(CatalogueEntry(specification, tables, gammas, weights))
    return entries


def publish_requirements(
    entry: CatalogueEntry, executor: WorkflowExecutor
) -> WorkflowPrivacyRequirements:
    """Secure-view requirements built from the executor's table behaviours."""
    requirements = WorkflowPrivacyRequirements()
    for module_id in entry.tables:
        behavior = executor.behaviors.behavior_for(module_id, ())
        relation = ModuleRelation.from_table_behavior(
            module_id, behavior, weights=entry.weights
        )
        requirements.add(relation, entry.gammas[module_id])
    return requirements


def publish_order(seed: int, tenant: int, index: int) -> tuple[int, list[dict]]:
    """Catalogue entry and run inputs of publish ``index`` of ``tenant``."""
    stream = f"publish/{seed}/{tenant}"
    rng = random.Random(f"{stream}/{index}")
    inputs = [
        {label: rng.randrange(PUBLISH_DOMAIN) for label in ("x0", "x1")}
        for _ in range(RUNS_PER_VIEW)
    ]
    return shape_of(stream, index, CATALOGUE_SIZE), inputs
