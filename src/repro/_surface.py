"""The narrowed package surface shared by repro.net/core/eval/obs.

Each of those packages promises exactly its ``__all__``.  Its
submodules fall in two groups: *internal* ones, which still resolve
through the package but warn, and the few *public* ones a package
names as supported (e.g. ``repro.eval.registry``), which resolve
quietly.  :func:`narrow_surface` installs that behaviour with PEP 562
module ``__getattr__``/``__dir__`` hooks.  Stdlib-only: the packages
call it from their ``__init__`` while they are still importing.
"""

import importlib
import warnings
from typing import Any, Dict, List, Tuple


def narrow_surface(namespace: Dict[str, Any], internal: Tuple[str, ...],
                   public: Tuple[str, ...] = ()) -> None:
    """Narrow the package whose ``globals()`` is ``namespace``.

    Drops the submodule bindings the package's re-exports created, so
    attribute access to an ``internal`` module routes through the
    installed ``__getattr__`` and carries a :class:`DeprecationWarning`.
    """
    package = namespace["__name__"]
    for name in internal:
        namespace.pop(name, None)

    def __getattr__(name: str) -> Any:
        if name in internal:
            warnings.warn(
                f"{package}.{name} is an internal module; import the "
                f"supported names from the {package} package instead "
                f"(see {package}.__all__)",
                DeprecationWarning,
                stacklevel=2,
            )
        elif name not in public:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        return importlib.import_module(f"{package}.{name}")

    def __dir__() -> List[str]:
        return sorted(set(namespace["__all__"]) | set(internal))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
