"""Package attributes imported on first access (PEP 562).

A package whose ``__init__`` imported every submodule up front makes
each ``python -m repro`` process pay for all of them, whatever the
subcommand.  :func:`lazy_exports` instead resolves a public name the
first time it is read -- ``pkg.name``, ``from pkg import name`` or
``from pkg import *`` -- by importing its defining module.

A name that is also a submodule of its package (``repro.cftree.debias``
the function and ``repro.cftree.debias`` the module) must be imported
eagerly instead: once the submodule is imported, the import system sets
the package attribute to the module, and ``__getattr__`` is never
consulted again.
"""

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps each lazily resolved name to the module that
    defines it.  A resolved name is stored in the package namespace, so
    later reads are plain attribute reads.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
