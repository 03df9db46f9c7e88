"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
with ``from .sub import name`` imports every submodule the moment the
package is imported, even for a caller that needs one of them.
:func:`lazy_exports` builds the module-level ``__getattr__`` and
``__dir__`` of such a package instead: a submodule is imported the
first time one of its names is read from the package (``pkg.name`` or
``from pkg import name``), and the name is then stored in the package
namespace, so later reads are plain attribute lookups.  The package
keeps its explicit ``__all__``, so ``from pkg import *`` and ``dir()``
list the same names as before, and ``pkg.sub`` imports the submodule
``sub`` on first access.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, whose public names
    are ``exports``: a relative submodule name (``".engine"``) mapped
    to the names it defines."""
    owner = {
        name: module for module, names in exports.items() for name in names
    }

    def _import(full: str):
        # The builtin ``__import__`` rather than ``importlib``: only the
        # former is timed by ``python -X importtime``.
        __import__(full)
        return sys.modules[full]

    def __getattr__(name: str):
        module = owner.get(name)
        if module is not None:
            value = getattr(_import(package + module), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            # ``pkg.sub`` still works without ``import pkg.sub``, as it
            # did when the eager ``__init__`` imported every submodule.
            try:
                return _import(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__
