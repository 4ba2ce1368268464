"""Factorizations, primitive divisors, and prime-factor-count
classification for Mersenne numbers 2^n - 1 over desk-scale ranges.

Importing the package imports no submodule, so a command pays only for
the modules it uses.  The first time a package-level name is asked for,
__getattr__ imports that submodule, or, for any other name, every
submodule, whose __all__ lists then become the package's names.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("arith", "census", "classify", "cyclotomic", "factoring", "storage")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if "__all__" not in namespace:
        exports = {}
        for sub in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{sub}")
            exports.update((export, getattr(module, export)) for export in module.__all__)
        namespace.update(exports, __all__=sorted(exports))
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
