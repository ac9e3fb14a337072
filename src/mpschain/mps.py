"""MPS families on periodic rings and their transfer-operator machinery.

A family assigns one D x D auxiliary matrix to each physical label; the
ring state's amplitude on a basis string is the trace of the corresponding
matrix word.  Norms and correlators reduce to traces of powers of the
D^2 x D^2 transfer operator E = sum_i conj(A_i) (x) A_i and its dressed
variants E_O = sum_ij conj(A_i) (x) A_j <i|O|j>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import linalg
from .spin import SpinObservable

#: Largest Hilbert-space size amplitudes() will enumerate by default.
DEFAULT_AMPLITUDE_CAP = 3**10


class CapExceededError(ValueError):
    """A brute-force enumeration was requested beyond the configured cap."""


class InconsistencyError(ValueError):
    """A quantity that must be real came out complex beyond tolerance."""


class DegenerateNormError(ValueError):
    """tr(E^N) vanishes, so normalized expectation values are undefined."""


class OscillatoryLimitError(ValueError):
    """The thermodynamic limit does not converge along even ring sizes."""


@dataclass(frozen=True)
class MpsFamily:
    """A labeled set of D x D auxiliary matrices plus named parameters.

    labels are ordered to match the one-site observable basis; matrices maps
    each label to its auxiliary matrix.
    """

    d: int
    D: int
    labels: tuple[str, ...]
    matrices: dict[str, np.ndarray] = field(repr=False)
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.labels) != self.d:
            raise ValueError(f"expected {self.d} labels, got {len(self.labels)}")
        if len(set(self.labels)) != self.d:
            raise ValueError("labels must be distinct")
        if set(self.matrices) != set(self.labels):
            raise ValueError("matrices must carry exactly the family labels")
        frozen = {}
        for lab in self.labels:
            m = np.asarray(self.matrices[lab])
            if m.shape != (self.D, self.D):
                raise ValueError(f"matrix {lab!r} has shape {m.shape}, expected {(self.D, self.D)}")
            m = m.copy()
            m.flags.writeable = False
            frozen[lab] = m
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrices", frozen)
        object.__setattr__(self, "params", dict(self.params))

    def matrix_stack(self) -> np.ndarray:
        """The d auxiliary matrices as one (d, D, D) array, in label order."""
        return np.stack([self.matrices[lab] for lab in self.labels])

    def to_json_dict(self) -> dict:
        for lab in self.labels:
            if np.iscomplexobj(self.matrices[lab]):
                raise ValueError("JSON serialization supports real families only")
        return {
            "d": self.d,
            "D": self.D,
            "labels": list(self.labels),
            "matrices": {lab: [[float(x) for x in row] for row in self.matrices[lab]] for lab in self.labels},
            "params": {k: float(v) for k, v in self.params.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MpsFamily":
        return cls(
            d=int(doc["d"]),
            D=int(doc["D"]),
            labels=tuple(doc["labels"]),
            matrices={lab: np.array(grid, dtype=float) for lab, grid in doc["matrices"].items()},
            params={k: float(v) for k, v in doc.get("params", {}).items()},
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "MpsFamily":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class TransferOperator:
    """A D^2 x D^2 transfer operator of one family, plain or observable-dressed."""

    kind: str
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("transfer operator must be square")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def transfer(mps: MpsFamily) -> TransferOperator:
    """Plain transfer operator E = sum_i conj(A_i) (x) A_i."""
    mats = mps.matrix_stack()
    e = sum(np.kron(m.conj(), m) for m in mats)
    return TransferOperator("plain", e)


def dressed_transfer(mps: MpsFamily, obs: SpinObservable) -> TransferOperator:
    """Observable-dressed operator E_O = sum_ij conj(A_i) (x) A_j <i|O|j>."""
    if obs.dim != mps.d:
        raise ValueError(f"observable dimension {obs.dim} != physical dimension {mps.d}")
    mats = mps.matrix_stack()
    o = obs.matrix
    e = sum(o[i, j] * np.kron(mats[i].conj(), mats[j]) for i in range(mps.d) for j in range(mps.d))
    return TransferOperator(f"dressed:{obs.name}", e)


def _real_or_raise(value, what: str, tol: float = 1e-12):
    if np.iscomplexobj(np.asarray(value)):
        scale = max(1.0, abs(value))
        if abs(value.imag) > tol * scale:
            raise InconsistencyError(f"{what} has imaginary part {value.imag:.3e} beyond tolerance")
        return float(value.real)
    return float(value)


def ring_norm_sq(mps: MpsFamily, n_sites: int) -> float:
    """Squared norm tr(E^N) of the ring state."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    e = transfer(mps).matrix
    return _real_or_raise(linalg.trace_power(e, n_sites), "tr(E^N)")


def _scaled_transfer(mps: MpsFamily) -> tuple[np.ndarray, float]:
    """E and its spectral radius rho; every transfer step is rescaled as E / rho."""
    e = transfer(mps).matrix
    rho = linalg.spectral_radius(e)
    if rho == 0.0:
        raise DegenerateNormError("transfer operator has zero spectral radius")
    return e, rho


def _ring_ratio(mps: MpsFamily, dressed: list[tuple[TransferOperator, int]], n_sites: int) -> float:
    """tr(D_1 E^{p_1} D_2 E^{p_2} ...) / tr(E^N), rescaled to avoid overflow."""
    e, rho = _scaled_transfer(mps)
    eh = e / rho
    den = np.trace(np.linalg.matrix_power(eh, n_sites))
    if abs(den) < 1e-12:
        raise DegenerateNormError("tr(E^N) vanishes; normalized correlators undefined")
    num = np.eye(e.shape[0], dtype=eh.dtype)
    for op, power in dressed:
        num = num @ (op.matrix / rho) @ np.linalg.matrix_power(eh, power)
    return _real_or_raise(np.trace(num) / den, "normalized correlator")


def ring_one_point(mps: MpsFamily, obs: SpinObservable, n_sites: int) -> float:
    """<O> on the finite ring: tr(E_O E^{N-1}) / tr(E^N)."""
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    return _ring_ratio(mps, [(dressed_transfer(mps, obs), n_sites - 1)], n_sites)


def ring_two_point(
    mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int, n_sites: int
) -> float:
    """<O1_1 O2_{1+r}> on the ring: tr(E_O1 E^{r-1} E_O2 E^{N-r-1}) / tr(E^N).

    r is the separation between the two sites, so r = 1 means adjacent.
    """
    if not 1 <= r < n_sites:
        raise ValueError("separation must satisfy 1 <= r < n_sites")
    return _ring_ratio(
        mps,
        [(dressed_transfer(mps, obs1), r - 1), (dressed_transfer(mps, obs2), n_sites - r - 1)],
        n_sites,
    )


def _thermo_contract(e: np.ndarray, middle: np.ndarray, extra_power: int, osc_tol: float = 1e-10) -> float:
    """Even-N limit of tr(middle E^{N-extra_power}) / tr(E^N) via dominant projectors.

    middle must already be rescaled so each transfer step carries E/lambda_max.
    Eigenvalue families tied in magnitude are kept whole; a phase that does not
    converge along even N with a nonzero coefficient raises OscillatoryLimitError.
    """
    projs = linalg.dominant_projectors(e)
    lmax = max(abs(lam) for lam, _ in projs)
    total_mult = 0.0
    value = 0.0 + 0.0j
    for lam, p in projs:
        s = lam / lmax
        coeff = np.trace(p @ middle)
        total_mult += np.trace(p).real
        if abs(s.imag) > 1e-8 or abs(abs(s) - 1.0) > 1e-8 or abs(s.real**2 - 1.0) > 1e-8:
            if abs(coeff) > osc_tol:
                raise OscillatoryLimitError(
                    f"dominant eigenvalue phase {s:.6f} does not converge along even N"
                )
            continue
        sign = 1.0 if s.real > 0 else -1.0
        value += sign**extra_power * coeff
    return _real_or_raise(value / total_mult, "thermodynamic limit")


def thermo_one_point(mps: MpsFamily, obs: SpinObservable) -> float:
    """N -> infinity limit of ring_one_point, taken along even N."""
    e, rho = _scaled_transfer(mps)
    middle = dressed_transfer(mps, obs).matrix / rho
    return _thermo_contract(e, middle, extra_power=1)


def thermo_two_point(mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int) -> float:
    """N -> infinity limit of ring_two_point at fixed separation r >= 1.

    Contracts E_O1 E^{r-1} E_O2 between the dominant eigenvectors; when several
    eigenvalues tie in magnitude their contributions are summed with the sign
    weights appropriate to even N.
    """
    if r < 1:
        raise ValueError("separation must be >= 1")
    e, rho = _scaled_transfer(mps)
    eh = e / rho
    middle = (
        (dressed_transfer(mps, obs1).matrix / rho)
        @ np.linalg.matrix_power(eh, r - 1)
        @ (dressed_transfer(mps, obs2).matrix / rho)
    )
    return _thermo_contract(e, middle, extra_power=r + 1)


def _words(mps: MpsFamily, k: int, cap: int, what: str) -> np.ndarray:
    """The (d^k, D, D) stack of k-site words A_{i_1}...A_{i_k}, i_1 the most significant digit."""
    if mps.d**k > cap:
        raise CapExceededError(f"{mps.d}**{k} exceeds the {what} cap {cap}")
    mats = mps.matrix_stack()
    words = np.eye(mps.D, dtype=mats.dtype)[None]
    for _ in range(k):
        words = np.einsum("wab,ibc->wiac", words, mats).reshape(-1, mps.D, mps.D)
    return words


def amplitudes(mps: MpsFamily, n_sites: int, cap: int = DEFAULT_AMPLITUDE_CAP) -> dict[tuple[str, ...], complex]:
    """Full amplitude map of the ring state by direct trace of matrix words.

    The brute-force oracle used throughout the test suite.  Keys are tuples of
    labels, site 1 first; values are tr(A_{i_1} ... A_{i_N}).
    """
    traces = amplitudes_vector(mps, n_sites, cap)
    scalar = complex if np.iscomplexobj(traces) else float
    return {cfg: scalar(t) for cfg, t in zip(product(mps.labels, repeat=n_sites), traces)}


def amplitudes_vector(mps: MpsFamily, n_sites: int, cap: int = DEFAULT_AMPLITUDE_CAP) -> np.ndarray:
    """The amplitude map as a d^N vector, site 1 the most significant digit."""
    return np.trace(_words(mps, n_sites, cap, "amplitude"), axis1=1, axis2=2)
