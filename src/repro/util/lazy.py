"""Package façades that import a re-export on its first use (PEP 562).

``import repro.core.session`` must not pay for the figure runners, the
SQLite ledger or the HTTP endpoint because ``repro/__init__`` and
``repro/obs/__init__`` happen to re-export them.  A façade lists its
public names once, by defining submodule, and gets them resolved on first
attribute access::

    __getattr__, __dir__, __all__ = lazy_exports(
        globals(), {".spans": ("Span", "SpanRecorder"), ".ledger": ("Ledger",)}
    )

``from package import Name``, ``package.Name``, ``from package import *``,
``dir(package)`` and ``from package import submodule`` all behave as with
eager imports; the only difference is *when* the submodule is loaded.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    namespace: dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose ``globals()``
    is ``namespace``; ``exports`` maps each relative submodule to the names
    it provides.  A resolved name is stored in ``namespace``, so the hook
    runs once per name."""
    package = namespace["__name__"]
    origin = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            submodule = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(submodule, package), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
