"""Semicartesian monoidal instances, pseudo-pullbacks, coherence checks."""

from .coherence import verify_appendix_suite, verify_monoidal_laws
from .core import (
    FinSetCategory,
    MonoidalCategory,
    Mor,
    ProductCategory,
    PseudoPullback,
    ThinCategory,
    canon,
    is_semicartesian,
    projection1,
    projection2,
    pseudo_pullback,
    require_thin,
    tensor_preserves_equalizers,
    trivial_equalizer,
)

__all__ = [
    "FinSetCategory",
    "MonoidalCategory",
    "Mor",
    "ProductCategory",
    "PseudoPullback",
    "ThinCategory",
    "canon",
    "is_semicartesian",
    "projection1",
    "projection2",
    "pseudo_pullback",
    "require_thin",
    "tensor_preserves_equalizers",
    "trivial_equalizer",
    "verify_appendix_suite",
    "verify_monoidal_laws",
]
