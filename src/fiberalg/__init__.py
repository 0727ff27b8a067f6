"""Signed abelian group algebras and the fiber decomposition of squared elements."""

import importlib

from . import algebra, fiber
from .algebra import *  # noqa: F403
from .fiber import *  # noqa: F403

# The projector and batch modules import numpy; their names load on first
# use, so single-element work never imports it.
_LAZY = {
    "tensor": (
        "ComponentBasis",
        "diagonal_projector",
        "square_embed",
        "tensor_multiply",
        "tensor_product",
    ),
    "verify": ("PropertyResult", "VerificationReport", "run_verification"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    *algebra.__all__,
    *fiber.__all__,
    *_LAZY_NAMES,
    "algebra",
    "fiber",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        value = getattr(importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
