"""Coset coding over sparse GF(q) matrices: diagnostics and simulators."""

from .gf import FieldSpec
from .matrices import (
    EnsembleParams,
    SparseMatrix,
    generate_mackay,
    generate_uniform,
    recommended_tau,
)
from .types_lab import Distribution

__version__ = "0.1.0"

__all__ = [
    "Distribution",
    "EnsembleParams",
    "FieldSpec",
    "SparseMatrix",
    "generate_mackay",
    "generate_uniform",
    "recommended_tau",
]
