"""Lazy package re-exports and the per-process import budget.

Every package ``__init__`` re-exports its names lazily (PEP 562): the
contract tests hold each package to the behaviour of an eager
``from ... import`` block, and the budget tests run fresh interpreters
to check what the server, the solver and the CLI parser actually load.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.adversary",
    "repro.execution",
    "repro.experiments",
    "repro.privacy",
    "repro.query",
    "repro.service",
    "repro.storage",
    "repro.views",
    "repro.workflow",
]

#: Loaded only by the handlers and modules that need them.
DEFERRED = (
    "networkx",
    "repro.experiments",
    "repro.query",
    "repro.storage",
    "repro.views",
    "repro.adversary",
)


def _all_modules():
    modules = [importlib.import_module(name) for name in PACKAGES]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        modules.append(importlib.import_module(info.name))
    return modules


@pytest.mark.parametrize("package_name", PACKAGES)
class TestLazyExportContract:
    def test_every_name_is_its_defining_modules_object(self, package_name):
        package = importlib.import_module(package_name)
        modules = [module for module in _all_modules() if module is not package]
        assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
        missing = object()
        for name in package.__all__:
            value = getattr(package, name)
            home = getattr(value, "__module__", None)
            if home == package_name or name == "__version__":
                continue  # bound by the package itself, not re-exported
            if isinstance(home, str) and home.startswith("repro."):
                assert getattr(sys.modules[home], name) is value, name
            else:  # a constant: some submodule must hold this very object
                assert any(vars(m).get(name, missing) is value for m in modules), name

    def test_dir_lists_every_name(self, package_name):
        # A fresh interpreter: no name has been read, so none is bound yet.
        _loaded_after(
            f"""
            import {package_name} as package
            missing = set(package.__all__) - set(dir(package))
            assert not missing, missing
            """
        )

    def test_star_import_binds_every_name(self, package_name):
        package = importlib.import_module(package_name)
        namespace: dict = {}
        exec(f"from {package_name} import *", namespace)
        for name in package.__all__:
            assert namespace[name] is getattr(package, name), name

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match="no_such_export"):
            package.no_such_export
        assert not hasattr(package, "no_such_export")


def test_submodule_imports_still_work():
    from repro.experiments import e9_sharding
    from repro.privacy import columnar

    assert columnar.__name__ == "repro.privacy.columnar"
    assert e9_sharding.__name__ == "repro.experiments.e9_sharding"
    assert repro.privacy.columnar is columnar
    from repro import ModuleRelation
    from repro.service import ShardCoordinator

    assert ModuleRelation is sys.modules["repro.privacy.relations"].ModuleRelation
    assert ShardCoordinator is sys.modules["repro.service.coordinator"].ShardCoordinator


def test_approx_module_is_gone():
    """The sampled-Gamma module was deleted, not hidden behind a name."""
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.privacy.approx")
    assert "approx" not in dir(repro.privacy)


def test_experiment_registry_imports_on_lookup():
    from repro.experiments import ALL_EXPERIMENTS, ALL_HEADLINES, e9_sharding

    assert ALL_EXPERIMENTS["E9"] is e9_sharding.run
    assert ALL_HEADLINES["E9"] is e9_sharding.headline
    assert "E99" not in ALL_EXPERIMENTS
    with pytest.raises(KeyError):
        ALL_EXPERIMENTS["E99"]


def _loaded_after(script: str) -> list[str]:
    """Modules a fresh interpreter holds after running ``script``."""
    probe = textwrap.dedent(script) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(sys.modules)))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def _deferred_in(loaded: list[str], allowed: tuple[str, ...] = ()) -> list[str]:
    return [
        name
        for name in loaded
        if name not in allowed
        and any(name == root or name.startswith(root + ".") for root in DEFERRED)
    ]


class TestImportBudget:
    def test_import_repro_loads_no_subpackage(self):
        loaded = _loaded_after("import repro")
        assert [m for m in loaded if m.startswith("repro.")] == ["repro._lazy"]

    def test_submodules_stay_reachable_as_attributes(self):
        loaded = _loaded_after(
            """
            import repro
            assert repro.privacy.columnar.__name__ == "repro.privacy.columnar"
            assert repro.experiments.e9_sharding.run
            """
        )
        assert "repro.experiments.e9_sharding" in loaded
        assert "repro.query" not in loaded

    def test_serve_path(self):
        loaded = _loaded_after(
            """
            from repro import cli
            cli.build_parser()
            import repro.service.server
            """
        )
        assert "repro.service.server" in loaded
        # The server evaluates against its own registry: no coordinator.
        assert "repro.service.coordinator" not in loaded
        # The parser's E1-E12 help reads the registry in the package
        # ``__init__``; no experiment module, figure or workload loads.
        assert _deferred_in(loaded, allowed=("repro.experiments",)) == []

    @pytest.mark.parametrize(
        "module",
        [
            "repro.service.protocol",
            "repro.service.coordinator",
            "repro.service.worker",
        ],
    )
    def test_service_module_imports_in_a_fresh_interpreter(self, module):
        loaded = _loaded_after(f"import {module}")
        assert module in loaded

    def test_client_evaluation_in_a_fresh_interpreter(self):
        loaded = _loaded_after(
            """
            from repro.privacy.relations import ModuleRelation
            from repro.service import ShardCoordinator

            relation = ModuleRelation.random("C", seed=3)
            vi, vo = relation.visibility_of(())
            with ShardCoordinator(0) as client:
                [gamma] = client.gammas([(relation.structure_signature, vi, vo)])
            assert gamma == relation.achieved_gamma(())
            """
        )
        assert "repro.service.coordinator" in loaded

    def test_inprocess_and_socket_solves_load_no_multiprocessing(self):
        # Only ``workers=N`` forks processes; an in-process solve and a
        # socket client (with its server in a thread) never load
        # multiprocessing.
        loaded = _loaded_after(
            """
            import os, tempfile
            from repro.privacy import (
                ModuleRelation,
                WorkflowPrivacyRequirements,
                exact_secure_view,
            )
            from repro.service import GammaServer, ShardCoordinator

            def requirements():
                built = WorkflowPrivacyRequirements()
                for index in range(2):
                    built.add(
                        ModuleRelation.random(
                            f"M{index}", n_inputs=2, n_outputs=2,
                            domain_size=3, seed=70 + index,
                        ),
                        2 + index,
                    )
                return built

            with ShardCoordinator(0) as local:
                expected = exact_secure_view(requirements(), service=local)
            with tempfile.TemporaryDirectory() as directory:
                path = os.path.join(directory, "gamma.sock")
                with GammaServer(("unix", path)) as server:
                    with ShardCoordinator(address=server.address) as client:
                        result = exact_secure_view(
                            requirements(), service=client
                        )
            assert (result.hidden_labels, result.cost) == (
                expected.hidden_labels,
                expected.cost,
            )
            """
        )
        assert "repro.service.transport" in loaded
        assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []

    def test_fork_sweep_loads_no_shared_memory(self):
        # Structures reach forked servers by value: no shared-memory
        # segment is published, so the module is never imported.
        loaded = _loaded_after(
            """
            from repro.privacy.relations import ModuleRelation
            from repro.service import ShardCoordinator

            relations = [ModuleRelation.random(f"F{i}", seed=i) for i in range(4)]
            requests = [
                (relation.structure_signature, *relation.visibility_of(()))
                for relation in relations
            ]
            with ShardCoordinator(2) as client:
                assert client.gammas(requests) == [
                    relation.achieved_gamma(()) for relation in relations
                ]
            """
        )
        assert "repro.service.transport" in loaded
        assert "multiprocessing.shared_memory" not in loaded

    def test_build_parser_imports_no_experiment_module(self):
        loaded = _loaded_after("from repro import cli; cli.build_parser()")
        assert [m for m in loaded if m.startswith("repro.experiments.")] == []

    def test_solve_execute_and_mask_path(self):
        loaded = _loaded_after(
            """
            from repro.execution import BehaviorRegistry, WorkflowExecutor
            from repro.privacy import (
                ModuleRelation,
                WorkflowPrivacyRequirements,
                apply_secure_view,
                exact_secure_view,
            )
            from repro.workflow import SpecificationBuilder, WorkflowGraphBuilder

            builder = WorkflowGraphBuilder("W").input("I").output("O")
            builder.atomic("M0").atomic("M1")
            builder.edge("I", "M0", "x0", "x1").edge("M0", "M1", "a0", "a1")
            builder.edge("M1", "O", "y0", "y1")
            specification = SpecificationBuilder("W").add(builder.build()).build()
            behaviors = BehaviorRegistry(default_factory=None)
            stages = (("x0", "x1"), ("a0", "a1"), ("y0", "y1"))
            for index, (inputs, outputs) in enumerate(zip(stages, stages[1:])):
                rows = {
                    (u, v): ((u + v + index) % 3, u * v % 3)
                    for u in range(3) for v in range(3)
                }
                behaviors.register_table(f"M{index}", inputs, outputs, rows)
            executor = WorkflowExecutor(specification, behaviors)
            execution = executor.execute({"x0": 1, "x1": 2})
            requirements = WorkflowPrivacyRequirements()
            for module_id in ("M0", "M1"):
                behavior = executor.behaviors.behavior_for(module_id, ())
                requirements.add(
                    ModuleRelation.from_table_behavior(module_id, behavior), 2
                )
            view = exact_secure_view(requirements)
            assert view.satisfied and view.hidden_labels
            apply_secure_view(execution, view.hidden_labels)
            """
        )
        assert "repro.privacy.workflow_privacy" in loaded
        assert _deferred_in(loaded) == []
