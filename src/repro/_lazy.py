"""Lazy package re-exports (PEP 562), shared by every ``__init__`` module.

A package lists each name it re-exports once, in a ``{submodule: names}``
table; :func:`lazy_exports` derives ``__all__`` from that table and
returns the module-level ``__getattr__``/``__dir__`` pair, so a submodule
is imported only when one of its names (or the submodule itself, as an
attribute) is first read.  ``from pkg import name``, ``import *``,
``dir(pkg)`` and submodule imports behave as if the names had been
imported eagerly; an unknown name raises :class:`AttributeError`.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``'s export table."""
    owners = {
        name: f"{package}.{submodule}"
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        if name not in owners:
            # A submodule stays reachable as an attribute, as it was when
            # the package imported its submodules eagerly.
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(owners[name]), name)
        # Bind it on the package: later reads skip this hook entirely.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    # A name that shadows its own submodule is bound now: importing that
    # submodule later would bind the module object over the name.
    for submodule, names in exports.items():
        if submodule in names:
            value = getattr(import_module(f"{package}.{submodule}"), submodule)
            setattr(sys.modules[package], submodule, value)
    return sorted(owners), __getattr__, __dir__
