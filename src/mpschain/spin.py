"""Spin operators and one-site observables.

The physical basis for the spin-1 chain is ordered (m = +1, 0, -1) with
labels ("1", "0", "-1"); every module in the package uses this order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

#: Label order of the spin-1 physical basis, m = +1, 0, -1.
LABELS = ("1", "0", "-1")


def spin_generators(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S_z, S_+, S_-) for spin s in the basis m = s, s-1, ..., -s."""
    if s < 0 or round(2 * s) != 2 * s:
        raise ValueError("s must be a nonnegative half integer")
    d = int(round(2 * s)) + 1
    mvals = np.array([s - i for i in range(d)])
    sz = np.diag(mvals)
    sp = np.zeros((d, d))
    for i in range(1, d):
        m = mvals[i]
        sp[i - 1, i] = sqrt(s * (s + 1) - m * (m + 1))
    return sz, sp, sp.T.copy()


SZ, SP, SM = spin_generators(1.0)
SX = (SP + SM) / 2.0
SY = (SP - SM) / 2.0j
SZ2 = SZ @ SZ
SX2 = (SX @ SX).real
ID3 = np.eye(3)


@dataclass(frozen=True)
class SpinObservable:
    """A one-site operator given in the family's label order."""

    name: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable matrix must be square, got shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def sz() -> SpinObservable:
    return SpinObservable("S_z", SZ)


def sx() -> SpinObservable:
    return SpinObservable("S_x", SX)


def sz2() -> SpinObservable:
    return SpinObservable("S_z^2", SZ2)


def sx2() -> SpinObservable:
    return SpinObservable("S_x^2", SX2)


def identity(d: int = 3) -> SpinObservable:
    return SpinObservable("1", np.eye(d))

