"""Lazy module attributes (PEP 562): a name is imported on first lookup.

A package ``__init__`` lists where each public name lives instead of
importing it, so ``from rulelab.dsl import evaluate`` loads ``dsl.core``
alone, and numpy is loaded only by the modules that compute with it.
That table is the package's only list of its names: its ``__all__`` is
the list ``lazy_exports`` returns.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping, Sequence


def lazy_exports(
    namespace: dict, *tables: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """A module ``__getattr__``, ``__dir__`` and ``__all__`` for the module
    whose globals are ``namespace``.

    Each table maps a module, relative to the namespace's package, to the
    names it provides; a name that is the module's own last component is
    the module itself.  The first lookup of a name imports its module and
    binds the value in ``namespace``, unless a value was bound there first
    (a patch), which is kept; later lookups never reach ``__getattr__``.
    A name may appear in several tables, always under the same module.
    """
    where = {
        name: module for table in tables for module, names in table.items() for name in names
    }

    def __getattr__(name: str):
        try:
            module_name = where[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        module = importlib.import_module(module_name, namespace["__package__"])
        value = module if module_name.rpartition(".")[2] == name else getattr(module, name)
        return namespace.setdefault(name, value)

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__, list(where)
