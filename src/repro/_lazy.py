"""Lazy re-exports for the package roots (PEP 562 module ``__getattr__``).

A package root that re-exports its submodules' names eagerly makes every
import of it, and of any module under it, pay for all of them; for the
course server that would be NumPy and both parallel runtimes, none of
which a served request touches.  :func:`attach` builds the root's
``__getattr__``, which imports a re-exported name's submodule on first
access and stores the value in the package namespace, so later lookups
never reach ``__getattr__`` again.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable


def attach(
    package: str, exports: dict[str, str], submodules: Iterable[str] = ()
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package named ``package``.

    ``exports`` maps each re-exported name to the submodule (relative to
    ``package``) that defines it; each name in ``submodules`` resolves to
    that submodule itself.
    """
    submodules = frozenset(submodules)

    def __getattr__(name: str) -> Any:
        if name in exports:
            value = getattr(importlib.import_module(f"{package}.{exports[name]}"), name)
        elif name in submodules:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports) | submodules)

    return __getattr__, __dir__
