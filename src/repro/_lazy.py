"""Lazy re-exports for the package ``__init__`` files (PEP 562).

A package lists which submodule provides each public name; the name's
submodule is imported the first time the name is read, and the value is
then kept in the package namespace, so later reads are plain lookups.
``import repro`` therefore loads only the modules that register matrix
formats and kernel variants; everything else loads on first use.  The
table is the one list of a package's public names: its ``__all__`` is
derived from it.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], Any], list[str]]:
    """A module ``__getattr__`` serving ``exports`` from their submodules,
    and the package's ``__all__``: the exported names, sorted.

    ``exports`` maps a submodule, relative to ``package`` (``".abft"``,
    ``"..core.esb"``), to the names it provides, separated by spaces.
    """
    pairs = [(name, module) for module, names in exports.items() for name in names.split()]
    where = dict(pairs)
    if len(where) != len(pairs):
        raise ValueError(f"{package} exports a name twice")
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    return __getattr__, sorted(where)
