"""mpschain: matrix product states on spin-1 rings.

Construct MPS families, derive their frustration-free parent Hamiltonians by
null-space projection, evaluate exact finite-ring and thermodynamic-limit
correlation functions, and cross-check everything against an independent
exact-diagonalization oracle.
"""

from . import ed, genstate, linalg, models, mps, parent, spin, symmetry
from .mps import MpsFamily, TransferOperator, TransferSpectrum
from .parent import KernelRecheckError
from .spin import SpinObservable

__version__ = "0.1.0"

__all__ = [
    "KernelRecheckError",
    "MpsFamily",
    "SpinObservable",
    "TransferOperator",
    "TransferSpectrum",
    "ed",
    "genstate",
    "linalg",
    "models",
    "mps",
    "parent",
    "spin",
    "symmetry",
    "__version__",
]
