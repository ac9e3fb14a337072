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
from functools import cached_property
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


class NormOverflowError(OverflowError):
    """tr(E^N) lies beyond the float range; log10 holds log10 |tr(E^N)|."""

    def __init__(self, message: str, log10: float):
        super().__init__(message)
        self.log10 = log10


def _matrix_to_json(m: np.ndarray) -> list:
    if np.iscomplexobj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return [[float(x) for x in row] for row in m]


def _matrix_from_json(grid) -> np.ndarray:
    """Inverse of _matrix_to_json: a trailing axis of length 2 holds (re, im) pairs."""
    m = np.array(grid, dtype=float)
    if m.ndim == 3 and m.shape[-1] == 2:
        return m.view(np.complex128)[..., 0]
    return m


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
        """JSON-ready dict; a complex matrix stores each entry as an [re, im] pair."""
        return {
            "d": self.d,
            "D": self.D,
            "labels": list(self.labels),
            "matrices": {lab: _matrix_to_json(self.matrices[lab]) for lab in self.labels},
            "params": {k: float(v) for k, v in self.params.items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MpsFamily":
        return cls(
            d=int(doc["d"]),
            D=int(doc["D"]),
            labels=tuple(doc["labels"]),
            matrices={lab: _matrix_from_json(grid) for lab, grid in doc["matrices"].items()},
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


def _kron_table(mps: MpsFamily) -> np.ndarray:
    """The (d, d, D^2, D^2) table of Kronecker products conj(A_i) (x) A_j.

    One broadcast product holding the same entry-wise products np.kron forms,
    without its per-call Python overhead.
    """
    mats = mps.matrix_stack()
    table = mats.conj()[:, None, :, None, :, None] * mats[None, :, None, :, None, :]
    return table.reshape(mps.d, mps.d, mps.D**2, mps.D**2)


def _check_observable(mps: MpsFamily, obs: SpinObservable) -> None:
    if obs.dim != mps.d:
        raise ValueError(f"observable dimension {obs.dim} != physical dimension {mps.d}")


def transfer(mps: MpsFamily) -> TransferOperator:
    """Plain transfer operator E = sum_i conj(A_i) (x) A_i."""
    pairs = _kron_table(mps)
    e = sum(pairs[i, i] for i in range(mps.d))
    return TransferOperator("plain", e)


def dressed_transfer(mps: MpsFamily, obs: SpinObservable) -> TransferOperator:
    """Observable-dressed operator E_O = sum_ij conj(A_i) (x) A_j <i|O|j>."""
    _check_observable(mps, obs)
    pairs = _kron_table(mps)
    o = obs.matrix
    e = sum(o[i, j] * pairs[i, j] for i in range(mps.d) for j in range(mps.d))
    return TransferOperator(f"dressed:{obs.name}", e)


def _real_or_raise(value, what: str, tol: float = 1e-12):
    if np.iscomplexobj(np.asarray(value)):
        scale = max(1.0, abs(value))
        if abs(value.imag) > tol * scale:
            raise InconsistencyError(f"{what} has imaginary part {value.imag:.3e} beyond tolerance")
        return float(value.real)
    return float(value)


class TransferSpectrum:
    """One family's transfer operator E with the data every correlator of the family reuses.

    Build it once per family and query it at any separation and ring size.  The
    spectral radius rho, E / rho, the dominant projectors of E and each
    observable's rescaled E_O / rho are computed on first use and kept on the
    instance; dressed operators are keyed by the observable's content.  The
    correlators rescale every transfer step by rho, so large rings do not
    overflow.
    """

    def __init__(self, mps: MpsFamily):
        self.mps = mps
        self.e = transfer(mps).matrix
        self._dressed: dict[tuple, np.ndarray] = {}

    @cached_property
    def rho(self) -> float:
        """Spectral radius of E."""
        return linalg.spectral_radius(self.e)

    def _nonzero_rho(self) -> float:
        if self.rho == 0.0:
            raise DegenerateNormError("transfer operator has zero spectral radius")
        return self.rho

    @cached_property
    def scaled(self) -> np.ndarray:
        """E / rho; raises DegenerateNormError when rho vanishes."""
        return self.e / self._nonzero_rho()

    @cached_property
    def projectors(self) -> list[tuple[complex, np.ndarray]]:
        """Spectral projectors of the dominant eigenvalues of E."""
        return linalg.dominant_projectors(self.e)

    def dressed(self, obs: SpinObservable) -> np.ndarray:
        """E_O / rho for one observable; raises DegenerateNormError when rho vanishes."""
        m = obs.matrix
        key = (obs.name, m.dtype.str, m.shape, m.tobytes())
        if key not in self._dressed:
            rho = self._nonzero_rho()
            self._dressed[key] = dressed_transfer(self.mps, obs).matrix / rho
        return self._dressed[key]

    def ring_norm_sq(self, n_sites: int) -> float:
        """Squared norm tr(E^N) of the ring state.

        Raises NormOverflowError, whose message gives log10 tr(E^N), when the
        value lies beyond the float range.
        """
        if n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        with np.errstate(over="ignore", invalid="ignore"):
            value = linalg.trace_power(self.e, n_sites)
        if np.isfinite(value):
            return _real_or_raise(value, "tr(E^N)")
        scaled = _real_or_raise(np.trace(np.linalg.matrix_power(self.scaled, n_sites)), "tr((E/rho)^N)")
        log_rho, log_scaled = np.log10(self.rho), np.log10(abs(scaled))
        log10 = n_sites * log_rho + log_scaled
        tr = "tr" if scaled > 0 else "-tr"
        raise NormOverflowError(
            f"tr(E^N) at N={n_sites} lies beyond the float range: log10 {tr}(E^N) = "
            f"N log10 rho + log10 {tr}((E/rho)^N) = {n_sites} * {log_rho:.12g} + ({log_scaled:.3g}) = {log10:.12g}",
            log10,
        )

    def _ring_ratio(self, dressed: list[tuple[SpinObservable, int]], n_sites: int) -> float:
        """tr(D_1 E^{p_1} D_2 E^{p_2} ...) / tr(E^N), every factor rescaled by rho."""
        eh = self.scaled
        den = np.trace(np.linalg.matrix_power(eh, n_sites))
        if abs(den) < 1e-12:
            raise DegenerateNormError("tr(E^N) vanishes; normalized correlators undefined")
        num = np.eye(self.e.shape[0], dtype=eh.dtype)
        for obs, power in dressed:
            num = num @ self.dressed(obs) @ np.linalg.matrix_power(eh, power)
        return _real_or_raise(np.trace(num) / den, "normalized correlator")

    def ring_one_point(self, obs: SpinObservable, n_sites: int) -> float:
        """<O> on the finite ring: tr(E_O E^{N-1}) / tr(E^N)."""
        if n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        _check_observable(self.mps, obs)
        return self._ring_ratio([(obs, n_sites - 1)], n_sites)

    def ring_two_point(self, obs1: SpinObservable, obs2: SpinObservable, r: int, n_sites: int) -> float:
        """<O1_1 O2_{1+r}> on the ring: tr(E_O1 E^{r-1} E_O2 E^{N-r-1}) / tr(E^N).

        r is the separation between the two sites, so r = 1 means adjacent.
        """
        if not 1 <= r < n_sites:
            raise ValueError("separation must satisfy 1 <= r < n_sites")
        _check_observable(self.mps, obs1)
        _check_observable(self.mps, obs2)
        return self._ring_ratio([(obs1, r - 1), (obs2, n_sites - r - 1)], n_sites)

    def _thermo_limit(self, middle: np.ndarray, extra_power: int, osc_tol: float = 1e-10) -> float:
        """Even-N limit of tr(middle E^{N-extra_power}) / tr(E^N) via dominant projectors.

        middle must already be rescaled so each transfer step carries E/lambda_max.
        Eigenvalue families tied in magnitude are kept whole; a phase that does not
        converge along even N with a nonzero coefficient raises OscillatoryLimitError.
        """
        projs = self.projectors
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

    def thermo_one_point(self, obs: SpinObservable) -> float:
        """N -> infinity limit of ring_one_point, taken along even N."""
        return self._thermo_limit(self.dressed(obs), extra_power=1)

    def thermo_two_point(self, obs1: SpinObservable, obs2: SpinObservable, r: int) -> float:
        """N -> infinity limit of ring_two_point at fixed separation r >= 1.

        Contracts E_O1 E^{r-1} E_O2 between the dominant eigenvectors; when several
        eigenvalues tie in magnitude their contributions are summed with the sign
        weights appropriate to even N.
        """
        if r < 1:
            raise ValueError("separation must be >= 1")
        middle = self.dressed(obs1) @ np.linalg.matrix_power(self.scaled, r - 1) @ self.dressed(obs2)
        return self._thermo_limit(middle, extra_power=r + 1)


def ring_norm_sq(mps: MpsFamily, n_sites: int) -> float:
    """Squared norm tr(E^N) of the ring state; see TransferSpectrum.ring_norm_sq."""
    return TransferSpectrum(mps).ring_norm_sq(n_sites)


def ring_one_point(mps: MpsFamily, obs: SpinObservable, n_sites: int) -> float:
    """<O> on the finite ring: tr(E_O E^{N-1}) / tr(E^N)."""
    return TransferSpectrum(mps).ring_one_point(obs, n_sites)


def ring_two_point(
    mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int, n_sites: int
) -> float:
    """<O1_1 O2_{1+r}> on the ring; r = 1 means adjacent sites."""
    return TransferSpectrum(mps).ring_two_point(obs1, obs2, r, n_sites)


def thermo_one_point(mps: MpsFamily, obs: SpinObservable) -> float:
    """N -> infinity limit of ring_one_point, taken along even N."""
    return TransferSpectrum(mps).thermo_one_point(obs)


def thermo_two_point(mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int) -> float:
    """N -> infinity limit of ring_two_point at fixed separation r >= 1."""
    return TransferSpectrum(mps).thermo_two_point(obs1, obs2, r)


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
