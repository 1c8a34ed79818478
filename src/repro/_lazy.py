"""Lazy package exports: a name's submodule loads on first access (PEP 562).

A package ``__init__`` that eagerly imports every submodule makes each
process pay for every layer, the circuit solver included, before it does
any work.  With :func:`lazy_exports` the package keeps its ``__all__`` and
its ``from pkg import name`` surface, but ``name`` is looked up in its
submodule only when first asked for::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".circuit": ("Circuit",),
        ".dc": ("solve_dc", "dc_sweep"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Build a package's module ``__getattr__`` and ``__dir__``.

    ``exports`` maps a submodule (relative to ``package``) to the names it
    provides.  A resolved name is bound on the package, so later lookups
    never reach ``__getattr__``; an unknown one raises ``AttributeError``.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
