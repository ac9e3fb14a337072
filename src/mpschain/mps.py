"""MPS families on periodic rings and their transfer-operator machinery.

A family assigns one D x D auxiliary matrix to each physical label; the
ring state's amplitude on a basis string is the trace of the corresponding
matrix word.  Norms and correlators reduce to traces of powers of the
D^2 x D^2 transfer operator E = sum_i conj(A_i) (x) A_i and its dressed
variants E_O = sum_ij conj(A_i) (x) A_j <i|O|j>.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from . import linalg
from .spin import SpinObservable

#: Largest d**k any k-site word enumeration builds: amplitudes, word matrices, reduced densities.
WORD_CAP = 3**10
#: Most bytes one request may hold, estimated before its arrays exist (_refuse_past_budget).
_BYTE_BUDGET = 2**30


class CapExceededError(ValueError):
    """A brute-force enumeration was requested beyond the configured cap."""


class InconsistencyError(ValueError):
    """A quantity that must be real came out complex beyond tolerance."""


class DegenerateNormError(ValueError):
    """tr(E^N) vanishes, so normalized expectation values are undefined."""


class OscillatoryLimitError(ValueError):
    """The thermodynamic limit does not converge along even ring sizes."""


def _json_text(doc: dict) -> str:
    """The package's one JSON text form: two-space indent, sorted keys, a final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _matrix_to_json(m: np.ndarray) -> list:
    """Rows of floats; a complex matrix stores each entry as an [re, im] pair."""
    if np.iscomplexobj(m):
        return [[[float(x.real), float(x.imag)] for x in row] for row in m]
    return [[float(x) for x in row] for row in m]


def _matrix_from_json(grid) -> np.ndarray:
    """Inverse of _matrix_to_json: a trailing axis of length 2 holds (re, im) pairs."""
    m = np.array(grid, dtype=float)
    if m.ndim == 3 and m.shape[-1] == 2:
        return m.view(np.complex128)[..., 0]
    return m


def _check_labels(d: int, labels) -> None:
    if len(labels) != d:
        raise ValueError(f"expected {d} labels, got {len(labels)}")
    if len(set(labels)) != d:
        raise ValueError("labels must be distinct")


def _refuse_non_finite(matrices: dict[str, np.ndarray], top: float) -> None:
    """Refuse a non-finite matrix, naming its label, and a family whose transfer operator overflows.

    top is the largest |entry| of the matrices.  E's entries are at most d top^2, so below 1e300
    they lie far inside the float range and nothing needs a closer look.  Otherwise E's largest
    entries are its sum_i |A_i[a,b]|^2, formed here as transfer forms them; by Cauchy-Schwarz
    they bound every other entry.
    """
    if top * top * len(matrices) < 1e300:
        return
    for lab, m in matrices.items():
        if not np.isfinite(m).all():
            raise ValueError(f"matrix {lab!r} has a non-finite entry")
    with np.errstate(over="ignore"):
        peaks = sum((m.conj() * m).real for m in matrices.values())
    if not np.isfinite(peaks).all():
        raise ValueError("transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MpsFamily:
    """A labeled set of D x D auxiliary matrices plus named parameters.

    labels are ordered to match the one-site observable basis; matrices maps
    each label to its auxiliary matrix.  The family holds one read-only
    (d, D, D) stack of its matrices, in label order and in their common dtype
    (matrix_stack), and each entry of matrices is a read-only view of it; a
    matrix whose own dtype differs from the common one keeps a read-only copy
    in its own dtype.  The constructor copies and checks its input once.
    """

    d: int
    D: int
    labels: tuple[str, ...]
    matrices: dict[str, np.ndarray] = field(repr=False)
    params: dict[str, float] = field(default_factory=dict)
    _stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_labels(self.d, self.labels)
        if set(self.matrices) != set(self.labels):
            raise ValueError("matrices must carry exactly the family labels")
        given = []
        for lab in self.labels:
            m = np.asarray(self.matrices[lab])
            if m.shape != (self.D, self.D):
                raise ValueError(f"matrix {lab!r} has shape {m.shape}, expected {(self.D, self.D)}")
            given.append(m)
        stack = _frozen(np.array(given))
        matrices = {
            lab: view if m.dtype == stack.dtype else _frozen(m.copy())
            for lab, m, view in zip(self.labels, given, stack)
        }
        _refuse_non_finite(matrices, float(np.abs(stack).max(initial=0.0)))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "_stack", stack)

    def matrix_stack(self) -> np.ndarray:
        """The d auxiliary matrices as one read-only (d, D, D) array, in label order; no copy."""
        return self._stack

    @classmethod
    def _of_stack(cls, labels: tuple[str, ...], stack: np.ndarray, matrices: dict, params: dict) -> "MpsFamily":
        """The family of a checked, read-only (d, D, D) stack and its label -> view map, made without
        the checks and the copy of __init__ (_stacked_families)."""
        fam = object.__new__(cls)
        for name, value in (("d", len(labels)), ("D", stack.shape[-1]), ("labels", labels), ("matrices", matrices),
                            ("params", params), ("_stack", stack)):
            object.__setattr__(fam, name, value)
        return fam

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
    def load(cls, path) -> "MpsFamily":
        """The family of a JSON file in to_json_dict's form, as _json_text writes it.

        A missing key, or one whose value does not convert, is refused with a ValueError naming the file and the key.
        """
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object holding a family")

        def read(key, convert, default=None):
            try:
                return convert(doc[key] if default is None else doc.get(key, default))
            except (KeyError, TypeError, ValueError, AttributeError, OverflowError):
                raise ValueError(f"{path}: key {key!r} is missing or malformed") from None

        def strings(values) -> tuple[str, ...]:
            if isinstance(values, str) or not all(isinstance(v, str) for v in values):
                raise TypeError("labels must be a list of strings")
            return tuple(values)

        return cls(
            d=read("d", int),
            D=read("D", int),
            labels=read("labels", strings),
            matrices=read("matrices", lambda m: {lab: _matrix_from_json(grid) for lab, grid in m.items()}),
            params=read("params", lambda p: {k: float(v) for k, v in p.items()}, {}),
        )


def _stacked_families(labels: tuple[str, ...], mats: np.ndarray, params: Iterable[dict]) -> list[MpsFamily]:
    """One MpsFamily per (d, D, D) entry of a (G, d, D, D) stack, in order, with the params of each.

    The stack is frozen in place and checked once, and each family holds its entry and views of
    it, without a copy; so the caller hands over a stack that nothing else writes to.  The whole
    stack is checked before any family is made: the first family that MpsFamily would refuse
    raises the same error.
    """
    _check_labels(mats.shape[-3], labels)
    tops = np.abs(_frozen(mats)).max(axis=(-3, -2, -1), initial=0.0).tolist()
    entries = [dict(zip(labels, stack)) for stack in mats]
    for matrices, top in zip(entries, tops):
        _refuse_non_finite(matrices, top)
    return [MpsFamily._of_stack(labels, stack, matrices, p) for stack, matrices, p in zip(mats, entries, params)]


@dataclass(frozen=True)
class TransferOperator:
    """The D^2 x D^2 transfer operator E of one family, or the (G, D^2, D^2) stack of the operators of G families."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError("transfer operator must be square")
        object.__setattr__(self, "matrix", _frozen(m.copy()))


def _matrix_stack(mps: MpsFamily | Sequence[MpsFamily]) -> np.ndarray:
    """The (d, D, D) auxiliary matrices of one family, or the (G, d, D, D) stack of a sequence of
    families, in label order and in at least float64: an integer family's products would wrap in int64.

    Stacked families must share their labels, D and that dtype, so that each one's operators are
    formed as they are for it alone.
    """
    if isinstance(mps, MpsFamily):
        mats = mps.matrix_stack()
    else:
        stacks = [(f.labels, f.matrix_stack()) for f in mps]
        if len({(labels, m.shape, np.result_type(m.dtype, np.float64)) for labels, m in stacks}) != 1:
            raise ValueError("a stack needs at least one family, and its families must share labels, D and dtype")
        mats = np.array([m for _, m in stacks])
    return mats if mats.dtype.char in "dDgG" else mats.astype(np.result_type(mats.dtype, np.float64))


def _kron_table(mats: np.ndarray) -> np.ndarray:
    """The (..., d, d, D^2, D^2) table of Kronecker products conj(A_i) (x) A_j of a (..., d, D, D) stack.

    One broadcast product holding the same entry-wise products np.kron forms,
    without its per-call Python overhead.
    """
    *lead, d, big_d, _ = mats.shape
    table = mats.conj()[..., :, None, :, None, :, None] * mats[..., None, :, None, :, None, :]
    return table.reshape(*lead, d, d, big_d**2, big_d**2)


def _check_observable(d: int, obs: SpinObservable) -> None:
    if obs.dim != d:
        raise ValueError(f"observable dimension {obs.dim} != physical dimension {d}")


def _ordered_sum(terms: np.ndarray, axis: int = 0) -> np.ndarray:
    """sum(terms) along axis: the terms added in order from 0, as Python's sum adds them.

    np.add.reduce adds along an axis in order while a later axis holds more than one entry.
    Otherwise (D = 1) the reduction runs along a contiguous axis, which numpy sums
    pairwise from 8 terms on; there the terms are accumulated in order instead, and + 0 turns a
    -0.0 into the +0.0 that a sum from 0 gives.
    """
    if math.prod(terms.shape[axis:][1:]) > 1:
        return np.add.reduce(terms, axis=axis, initial=0)
    return np.take(np.add.accumulate(terms, axis=axis), -1, axis=axis) + 0


def _transfer_matrix(mats: np.ndarray) -> np.ndarray:
    """E = sum_i conj(A_i) (x) A_i of a (..., d, D, D) stack from _matrix_stack, as a (..., D^2, D^2) array."""
    n = mats.shape[-1] ** 2
    # the diagonal of _kron_table: the same entry-wise products, summed over i in order from 0
    pairs = (mats.conj()[..., :, None, :, None] * mats[..., None, :, None, :]).reshape(*mats.shape[:-2], n, n)
    return _ordered_sum(pairs, axis=-3)


def _dressed_matrix(mats: np.ndarray, obs: SpinObservable) -> np.ndarray:
    """E_O = sum_ij conj(A_i) (x) A_j <i|O|j> of a (..., d, D, D) stack from _matrix_stack.

    The d^2 weighted products are summed in order, (i, j) = (0, 0), (0, 1), ..., from 0.
    """
    _check_observable(mats.shape[-3], obs)
    n = mats.shape[-1] ** 2
    terms = obs.matrix.reshape(-1, 1, 1) * _kron_table(mats).reshape(*mats.shape[:-3], -1, n, n)
    return _ordered_sum(terms, axis=-3)


def transfer(mps: MpsFamily | Sequence[MpsFamily]) -> TransferOperator:
    """Plain transfer operator E = sum_i conj(A_i) (x) A_i, formed in at least float64.

    A sequence of families of one shape gives the (G, D^2, D^2) stack of their operators.
    """
    return TransferOperator(_transfer_matrix(_matrix_stack(mps)))


def _real_or_raise(value, what: str):
    if isinstance(value, (complex, np.complexfloating)):
        scale = max(1.0, abs(value))
        if abs(value.imag) > 1e-12 * scale:
            raise InconsistencyError(f"{what} has imaginary part {value.imag:.3e} beyond tolerance")
        return float(value.real)
    return float(value)


class _EvenNLimit:
    """Even-N limits of tr(middle E^{N-extra_power}) / tr(E^N) from the dominant projectors of E.

    projectors holds the dominant projectors of each family of a stack; one family
    is a stack of one.  Each middle must already be rescaled so each transfer step
    carries E/lambda_max.  Eigenvalues tied in magnitude are kept whole,
    sign-weighted and normalised by their multiplicity; a phase that does not
    converge along even N with a nonzero coefficient gives OscillatoryLimitError.

    The per-projector data (phase, sign, whether it oscillates, the total
    multiplicity) is set up once, as arrays with a family axis and a term axis T,
    zero-padded up to the largest number of dominant groups of a family, one set
    per projector dtype, so that each family's coefficients are formed in its own
    dtype.  The limit sums are array operations over (G, T, R) coefficients, and
    every limit is bit for bit the one a loop over the family's terms forms on
    numpy scalars: the terms are added in order from +0.0, and the sum is divided
    by the multiplicity as numpy divides an array by a real array.  That is the
    loop's division too: its sum of real terms was a Python complex, which divides
    the real part, and its sum of complex terms a numpy complex128, which
    multiplies by the reciprocal as the complex array division does; dividing the
    real and imaginary parts of a complex sum apart would change bits.
    """

    def __init__(self, projectors: Sequence[list[tuple[complex, np.ndarray]]]):
        n_terms = max(map(len, projectors))
        self.phases: list[list[complex]] = []
        # per projector dtype: the families, and per family its projectors, signs and which terms oscillate
        by_dtype: dict[str, tuple[list, list, list, list]] = {}
        for k, projs in enumerate(projectors):
            lmax = max(abs(lam) for lam, _ in projs)
            phases = [lam / lmax for lam, _ in projs]
            self.phases.append(phases)
            char = projs[0][1].dtype.char
            if char not in by_dtype:
                by_dtype[char] = ([], [], [], [])
            rows, stack, signs, oscillates = by_dtype[char]
            rows.append(k)
            stack.append([[p] for _, p in projs])
            signs.append([[1.0 if s.real > 0 else -1.0] for s in phases])
            oscillates.append(
                [[abs(s.imag) > 1e-8 or abs(abs(s) - 1.0) > 1e-8 or abs(s.real**2 - 1.0) > 1e-8] for s in phases]
            )
        # per dtype: the rows of the middles to take, their families, the (G_k, T, 1, n, n) projectors, the
        # (G_k, T, 1) signs (None: all +1), oscillating terms (None: none) and live terms (None: all), and
        # the (G_k, 1) multiplicities
        self.buckets = []
        for rows, stack, signs, oscillates in by_dtype.values():
            live = None  # every term enters the sum
            any_oscillates = any([True] in family for family in oscillates)
            if any_oscillates or any(len(family) < n_terms for family in stack):
                # a term enters the sum when it does not oscillate and is not a padding, a zero projector
                # with sign +1: its coefficient is 0.0, or NaN where a middle holds an infinite entry
                zero = np.zeros_like(projectors[rows[0]][0][1])
                live = [[[not o] for (o,) in family] + [[False]] * (n_terms - len(family)) for family in oscillates]
                stack = [family + [[zero]] * (n_terms - len(family)) for family in stack]
                signs = [family + [[1.0]] * (n_terms - len(family)) for family in signs]
                oscillates = [family + [[False]] * (n_terms - len(family)) for family in oscillates]
                live = np.array(live)
            stack = np.array(stack)  # (G_k, T, 1, n, n)
            # the multiplicity: the traces summed in order from 0.0, which a padding's 0.0 leaves unchanged
            mult = _term_sum(stack.trace(axis1=-2, axis2=-1).real)
            self.buckets.append((
                slice(None) if len(rows) == len(projectors) else np.array(rows),
                rows,
                stack,
                np.array(signs) if any([-1.0] in family for family in signs) else None,
                np.array(oscillates) if any_oscillates else None,
                live,
                mult,
            ))

    def values(self, middles: np.ndarray, extra_powers) -> list[list]:
        """One limit per family and middle of the (G, R, n, n) stack, as one list per family.

        A limit that oscillates holds its OscillatoryLimitError in place of a value,
        and one whose imaginary part lies beyond tolerance its InconsistencyError.
        """
        out = np.empty(middles.shape[:2]) if len(self.buckets) > 1 else None
        errors = []
        for rows, members, p, signs, oscillates, live, mult in self.buckets:
            coeffs = (p @ middles[rows, None]).trace(axis1=-2, axis2=-1)  # (G_k, T, R)
            # each term is sign**extra_power * coeff; the per-family sum multiplied a complex coefficient by
            # the complex (1 + 0j) even for a sign of +1, and a real one by 1.0, which leaves it as it is
            if signs is not None:
                terms = signs**extra_powers * coeffs
            else:
                terms = 1.0 * coeffs if coeffs.dtype.kind == "c" else coeffs
            value = _term_sum(terms if live is None else np.where(live, terms, 0)) / mult
            big = None
            if oscillates is not None:
                # abs of a complex scalar is hypot; np.abs of a complex array differs from it in the last bit
                magnitudes = np.hypot(coeffs.real, coeffs.imag) if coeffs.dtype.kind == "c" else np.abs(coeffs)
                big = oscillates & (magnitudes > 1e-10)
                for j, r in zip(*big.any(axis=1).nonzero()):
                    phase = self.phases[members[j]][big[j, :, r].argmax()]
                    errors.append((members[j], r, OscillatoryLimitError(
                        f"dominant eigenvalue phase {phase:.6f} does not converge along even N")))
            if value.dtype.kind == "c":
                im = value.imag
                wrong = np.abs(im) > 1e-12 * np.fmax(1.0, np.hypot(value.real, im))
                if big is not None:
                    wrong &= ~big.any(axis=1)
                for j, r in zip(*wrong.nonzero()):
                    errors.append((members[j], r, InconsistencyError(
                        f"thermodynamic limit has imaginary part {im[j, r]:.3e} beyond tolerance")))
                value = value.real
            if out is None:
                out = value  # one bucket holds every family, in order
            else:
                out[rows] = value
        out = out.tolist()
        for k, r, error in errors:
            out[k][r] = error
        return out


def _term_sum(terms: np.ndarray) -> np.ndarray:
    """The sum over axis 1 of terms, added in order from +0.0, as a Python loop adds them to 0.0 + 0.0j."""
    total = terms[:, 0] + 0.0
    for t in range(1, terms.shape[1]):
        total += terms[:, t]
    return total


#: The errors a thermodynamic limit can hold in place of a value (_EvenNLimit.values).
_LIMIT_ERRORS = (InconsistencyError, OscillatoryLimitError)


def _raise_first(values: list, kinds=OscillatoryLimitError) -> list:
    """values, raising the first error of kinds among them."""
    for v in values:
        if isinstance(v, kinds):
            raise v
    return values


class _PowerLadder:
    """Integer powers of one matrix, or of each matrix of a stack, bit for bit as np.linalg.matrix_power forms them.

    The squarings a, a^2, a^4, ... are kept, so powers of one matrix share them.
    n = 0..3 take matrix_power's shortcuts; n >= 4 multiplies the squarings of
    the set bits of n, least significant first.  A (..., n, n) stack is taken
    to each power in one stacked product per step.
    """

    def __init__(self, a: np.ndarray):
        self.squares = [a]

    def power(self, n: int) -> np.ndarray:
        n = operator.index(n)
        sq = self.squares
        a = sq[0]
        if n == 0:
            eye = np.eye(a.shape[-1], dtype=a.dtype)
            return eye if a.ndim == 2 else eye[None].repeat(a.shape[0], axis=0)
        while len(sq) < n.bit_length():
            sq.append(sq[-1] @ sq[-1])
        if n <= 2:
            return sq[n - 1]
        if n == 3:
            return sq[1] @ a
        result = None
        for k in range(n.bit_length()):
            if n >> k & 1:
                result = sq[k] if result is None else result @ sq[k]
        return result

    def stack(self, ns) -> np.ndarray:
        """The stack of the powers ns: (len(ns), n, n) for one matrix, (G, len(ns), n, n) for G."""
        return np.array([self.power(n) for n in ns]).swapaxes(0, -3)


class TransferSpectrum:
    """The transfer operator E of a family, or of a stack of families, with the data every correlator reuses.

    Build it once and query it at any separation and ring size.  The family's
    matrices are stacked and cast once, and E and every E_O are formed from that
    stack.  The spectral radius rho, E / rho with its squarings, the dominant
    projectors of E with their even-N limit data, and each observable's rescaled
    E_O / rho are computed on first use and kept on the instance; dressed
    operators are keyed by the observable's content.  A thermodynamic query
    makes one eigendecomposition of E, which gives rho and the projectors; a
    spectrum that answers ring queries first takes rho from E's eigenvalues
    alone (linalg.spectral_radius: one LAPACK geev without eigenvectors inside
    geev's scaling limits, np.linalg.eigvals outside them).  The correlators
    rescale every transfer step by rho, so large rings do not overflow.

    Built from a sequence of G families that share labels, D and dtype, it holds
    their stack: a leading family axis of length G on e, scaled and each dressed
    operator, and rho, projectors and every answer become lists with one entry
    per family, in order.  E, each E_O / rho, E / rho with its squarings and the
    products over separations are formed once for the stack; the
    eigendecomposition and the rule that picks rho are taken family by family.
    The thermodynamic tail runs as array operations over the family axis: the
    dominant projectors of every family take one batched inverse per bucket of
    groups (linalg._projectors), and the even-N limit sums are (G, T, R) arrays
    (_EvenNLimit).  Built from one MpsFamily, the spectrum is the same code
    without the family axis, and each family of a stack answers bit for bit as
    a spectrum built from it alone.

    Every call that runs a stack (of families, states or separations) meets its
    errors by one rule, here and in the stacked kernels of parent, linalg, models
    and verify.  First every input of the stack is checked: the families'
    refusals, the separations, the states' norms.  Then each step is taken for
    the whole stack before the next, and the first error met is raised; within
    one step the items are checked in order.
    """

    def __init__(self, mps: MpsFamily | Sequence[MpsFamily]):
        self._one = isinstance(mps, MpsFamily)
        self.mps = mps if self._one else tuple(mps)
        # the matrices are stacked and cast once; E and every E_O are formed from this stack
        self._mats = _matrix_stack(self.mps)
        self.e = _frozen(_transfer_matrix(self._mats))
        self._dressed: dict[tuple, np.ndarray] = {}
        # made on first use and kept: plain attributes, as cached_property locks on every first access
        self._eig: list | None = None
        self._rho: list[float] | None = None
        self._ladder: _PowerLadder | None = None
        self._projectors: list | None = None
        self._limit: _EvenNLimit | None = None

    def _each(self, stacked) -> tuple | np.ndarray:
        """The per-family entries of an array with the spectrum's family axis, if it has one."""
        return (stacked,) if self._one else stacked

    def _stacked(self, a: np.ndarray) -> np.ndarray:
        """An array with the spectrum's family axis: for one family, a leading axis of length one."""
        return a[None] if self._one else a

    def _out(self, per_family: list):
        """A list with one entry per family, as the spectrum answers: the one entry for one family."""
        return per_family[0] if self._one else per_family

    def _eigensystem(self) -> list:
        """Each family's (w, vl, vr) from linalg.eig_all, made once.

        A thermodynamic query makes them before it needs rho, so that one
        eigendecomposition gives both rho and the projectors.
        """
        if self._eig is None:
            self._eig = list(map(linalg.eig_all, self._each(self.e)))
        return self._eig

    def _rhos(self) -> list[float]:
        """Spectral radius of each E: linalg.spectral_radius, or the same value bit for bit from the
        eigendecomposition's eigenvalues when one was made (linalg._radius)."""
        if self._rho is None:
            if self._eig is None:
                self._rho = list(map(linalg.spectral_radius, self._each(self.e)))
            else:
                self._rho = [linalg._radius(e, w) for e, (w, _, _) in zip(self._each(self.e), self._eig)]
        return self._rho

    @property
    def rho(self):
        """Spectral radius of E."""
        return self._out(self._rhos())

    def _nonzero_rho(self):
        """rho, as a (G, 1, 1) column for a stack; raises DegenerateNormError when one vanishes."""
        rho = self._rhos()
        if 0.0 in rho:
            raise DegenerateNormError("transfer operator has zero spectral radius")
        return rho[0] if self._one else np.array(rho)[:, None, None]

    def _over_rho(self, m: np.ndarray, rho) -> np.ndarray:
        """m / rho for E or an E_O, rho from _nonzero_rho.  Dividing by rho >= 1 cannot leave the float
        range; below 1, a quotient that does (rho has underflowed) raises DegenerateNormError, before
        any power of it is formed."""
        if min(self._rhos()) >= 1.0:
            return m / rho
        try:
            with np.errstate(over="raise", invalid="raise"):
                return m / rho
        except FloatingPointError:
            raise DegenerateNormError("transfer operator's spectral radius underflows: E / rho is not finite") from None

    def _powers(self) -> _PowerLadder:
        """The powers of E / rho, made with E / rho; raises DegenerateNormError when rho vanishes or underflows."""
        if self._ladder is None:
            self._ladder = _PowerLadder(self._over_rho(self.e, self._nonzero_rho()))
        return self._ladder

    @property
    def scaled(self) -> np.ndarray:
        """E / rho; raises DegenerateNormError when rho vanishes or underflows."""
        return self._powers().squares[0]

    def _dominant(self) -> list:
        """Each family's dominant projectors from its eigendecomposition, made once."""
        if self._projectors is None:
            self._projectors = linalg._projectors(self._eigensystem(), self._each(self.e))
        return self._projectors

    @property
    def projectors(self):
        """Spectral projectors of the dominant eigenvalues of E."""
        return self._out(self._dominant())

    def _even_n_limit(self) -> _EvenNLimit:
        """The even-N limit data of every family from its dominant projectors, made once."""
        if self._limit is None:
            self._limit = _EvenNLimit(self._dominant())
        return self._limit

    def dressed(self, obs: SpinObservable) -> np.ndarray:
        """E_O / rho for one observable; raises DegenerateNormError when rho vanishes or underflows."""
        m = obs.matrix
        key = (obs.name, m.dtype.str, m.shape, m.tobytes())
        if key not in self._dressed:
            rho = self._nonzero_rho()
            self._dressed[key] = self._over_rho(_dressed_matrix(self._mats, obs), rho)
        return self._dressed[key]

    def _ring_start(self, obs1: SpinObservable, obs2: SpinObservable, n_sites: int):
        """Each family's tr((E/rho)^N), and the head 1 @ E_O1 / rho of a ring correlator's chain.

        Errors come in this order: an observable of the wrong dimension, then
        DegenerateNormError when rho or tr(E^N) vanishes.
        The chain starts from the identity: 1 @ E_O1 can differ from E_O1 in signed zeros.
        """
        d = self._mats.shape[-3]
        _check_observable(d, obs1)
        _check_observable(d, obs2)
        den = self._each(self._powers().power(n_sites).trace(axis1=-2, axis2=-1))
        if any(abs(t) < 1e-12 for t in den):
            raise DegenerateNormError("tr(E^N) vanishes; normalized correlators undefined")
        return den, _identity(self.e.shape[-1], self.scaled.dtype) @ self.dressed(obs1)

    def ring_one_point(self, obs: SpinObservable, n_sites: int):
        """<O> on the finite ring: tr(E_O E^{N-1}) / tr(E^N)."""
        if n_sites < 2:
            raise ValueError("n_sites must be >= 2")
        den, head = self._ring_start(obs, obs, n_sites)
        num = self._each((head @ self._powers().power(n_sites - 1)).trace(axis1=-2, axis2=-1))
        return self._out([_real_or_raise(t / d, "normalized correlator") for t, d in zip(num, den)])

    def two_point_sweep(self, obs1: SpinObservable, obs2: SpinObservable, rs, n_sites: int | None = None) -> list:
        """<O1_1 O2_{1+r}> at each separation r in rs, r = 1 meaning adjacent sites: the one two-point query.

        On the ring of n_sites sites the value is tr(E_O1 E^{r-1} E_O2 E^{N-r-1}) / tr(E^N);
        with n_sites None it is the N -> infinity limit taken along even N: E_O1 E^{r-1} E_O2
        contracted with the dominant projectors, eigenvalues tied in magnitude summed with the
        sign weights of even N.  There an r whose value oscillates holds its OscillatoryLimitError
        in place of a value, and the first InconsistencyError is raised, family by family and in
        r order.  The dressed operators and the powers of E/rho are formed once and every
        r-dependent product is taken on a stack.  A separation out of range is refused before
        anything is computed.
        """
        rs = list(rs)
        ring = n_sites is not None
        if not all(1 <= r < n_sites if ring else r >= 1 for r in rs):
            raise ValueError("separation must satisfy 1 <= r < n_sites" if ring else "separation must be >= 1")
        if not rs:
            return self._out([[] for _ in self._each(self.e)])
        if ring:
            den, head = self._ring_start(obs1, obs2, n_sites)
            num = head[..., None, :, :] @ self._powers().stack([r - 1 for r in rs]) @ self.dressed(obs2)[..., None, :, :]
            num = self._each((num @ self._powers().stack([n_sites - r - 1 for r in rs])).trace(axis1=-2, axis2=-1))
            return self._out([[_real_or_raise(t / d, "normalized correlator") for t in ts] for ts, d in zip(num, den)])
        self._eigensystem()  # before rho, as in thermo_one_point
        middles = self.dressed(obs1)[..., None, :, :] @ self._powers().stack([r - 1 for r in rs])
        middles = self._stacked(middles @ self.dressed(obs2)[..., None, :, :])
        values = self._even_n_limit().values(middles, [r + 1 for r in rs])
        return self._out([_raise_first(family, InconsistencyError) for family in values])

    def thermo_one_point(self, obs: SpinObservable):
        """N -> infinity limit of ring_one_point, taken along even N."""
        # the eigendecomposition first, so that rho comes from it; then the middle, so that rho = 0
        # raises DegenerateNormError before the projectors' ZeroSpectrumError
        self._eigensystem()
        middles = self._stacked(self.dressed(obs)[..., None, :, :])
        values = self._even_n_limit().values(middles, [1])
        return self._out([_raise_first(family, _LIMIT_ERRORS)[0] for family in values])


def ring_one_point(mps: MpsFamily, obs: SpinObservable, n_sites: int) -> float:
    """<O> on the finite ring: tr(E_O E^{N-1}) / tr(E^N)."""
    return TransferSpectrum(mps).ring_one_point(obs, n_sites)


def ring_two_point(
    mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int, n_sites: int
) -> float:
    """<O1_1 O2_{1+r}> on the ring; r = 1 means adjacent sites: a sweep of one r."""
    return TransferSpectrum(mps).two_point_sweep(obs1, obs2, [r], n_sites)[0]


def thermo_one_point(mps: MpsFamily, obs: SpinObservable) -> float:
    """N -> infinity limit of ring_one_point, taken along even N."""
    return TransferSpectrum(mps).thermo_one_point(obs)


def thermo_two_point(mps: MpsFamily, obs1: SpinObservable, obs2: SpinObservable, r: int) -> float:
    """N -> infinity limit of ring_two_point at fixed separation r >= 1: a sweep of one r that raises its error."""
    return _raise_first(TransferSpectrum(mps).two_point_sweep(obs1, obs2, [r]), _LIMIT_ERRORS)[0]


def _check_cap(d: int, k: int, what: str) -> None:
    if d**k > WORD_CAP:
        raise CapExceededError(f"{d}**{k} exceeds the {what} cap {WORD_CAP}")


def _refuse_past_budget(what: str, need: int) -> None:
    """The package's one memory rule: refuse a request whose estimated need of bytes passes _BYTE_BUDGET."""
    if need > _BYTE_BUDGET:
        raise ValueError(f"{what} needs an estimated {need} bytes, which exceeds the {_BYTE_BUDGET} byte budget")


def _split(m: np.ndarray):
    """A complex m as (m, swap) on a leading (re, im) axis of parts: x[0] * m + x[1] * swap is
    (xr*mr - xi*mi, xr*mi + xi*mr), as numpy's sum-of-products kernel for complex operands
    forms a product; numpy's complex multiply rounds differently."""
    return np.stack([m.real, m.imag]), np.stack([-m.imag, m.real])


def _joined(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Split parts x[0] + i x[1] as one complex array of dtype."""
    out = np.empty(x.shape[1:], dtype=dtype)
    out.real, out.imag = x
    return out


def _refuse_overflow(words: np.ndarray, k: int) -> None:
    """Refuse k-site words, or their traces, that overflowed the float range (formed under np.errstate)."""
    if not np.isfinite(words).all():
        raise ValueError(f"the {k}-site words overflow the float range")


def _reversed_words(mats: np.ndarray, k: int, what: str) -> np.ndarray:
    """The k-site words A_{i_1}...A_{i_k} as (..., D^2, d^k) columns, i_k the most significant digit.

    mats is a (..., d, D, D) stack of auxiliary matrices; its leading axes batch families.
    Each step multiplies every word on the right by A_i, with i the new most significant
    digit of the word axis: one broadcast product x[..., a, b, w] * A[..., i, b, c] over
    the whole word axis, summed over b = 0, 1, ... from +0.0.  That is the order in which
    numpy's sum-of-products contraction "...wab,...ibc->...wiac" sums each entry, so every
    word is bit for bit that contraction's (tests/test_words.py keeps it as the reference),
    while the inner loops run over the long word axis.  A complex stack is carried as split
    parts (_split).  Words that overflow the float range are refused by name, without a numpy warning.
    """
    _check_cap(mats.shape[-3], k, what)
    big_d = mats.shape[-1]
    # A[..., i, b, c] as m[..., 1, b, (c, i), 1], against the words as x[..., a, b, 1, w]; the (c, i)
    # axis after b has D d >= D entries, so numpy never sums a long b axis pairwise
    m = mats.swapaxes(-3, -1).swapaxes(-3, -2).reshape(*mats.shape[:-3], 1, big_d, -1, 1)
    complex_ = m.dtype.kind == "c"
    if complex_:
        m, swap = _split(m)
    x = _identity(big_d, m.dtype)[:, :, None, None]  # the empty word, as x[a, b, 1, w]
    if complex_:
        x = np.stack([x, np.zeros_like(x)])
    shape = m.shape[:-4] + (big_d, big_d, 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k):
            x = np.add.reduce(x[0] * m + x[1] * swap if complex_ else x * m, axis=-3, initial=0).reshape(shape)
    _refuse_overflow(x, k)
    x = x.reshape(*x.shape[:-4], big_d * big_d, -1)
    return _joined(x, mats.dtype) if complex_ else x


@lru_cache(maxsize=16)
def _identity(n: int, dtype: np.dtype) -> np.ndarray:
    """The n x n identity of dtype, read-only; cached: np.eye costs about as much as a 9 x 9 product."""
    return _frozen(np.eye(n, dtype=dtype))


@lru_cache(maxsize=64)
def _digit_reversal(d: int, k: int) -> np.ndarray:
    """Position in _reversed_words' word axis of each word index, i_1 the most significant digit."""
    order = np.zeros(1, dtype=np.intp)
    for s in range(k):
        order = (order[:, None] + d**s * np.arange(d)).ravel()
    return _frozen(order)


def _word_columns(mats: np.ndarray, k: int, what: str) -> np.ndarray:
    """The (..., D^2, d^k) word matrices: column (i_1...i_k), i_1 most significant, is A_{i_1}...A_{i_k} flattened."""
    return _reversed_words(mats, k, what).take(_digit_reversal(mats.shape[-3], k), axis=-1)


def amplitudes(mps: MpsFamily, n_sites: int) -> dict[tuple[str, ...], complex]:
    """Full amplitude map of the ring state by direct trace of matrix words.

    The brute-force oracle used throughout the test suite.  Keys are tuples of
    labels, site 1 first; values are tr(A_{i_1} ... A_{i_N}).
    """
    traces = amplitudes_vector(mps, n_sites)
    scalar = complex if np.iscomplexobj(traces) else float
    return {cfg: scalar(t) for cfg, t in zip(product(mps.labels, repeat=n_sites), traces)}


def amplitudes_vector(mps: MpsFamily, n_sites: int) -> np.ndarray:
    """The amplitude map as a d^N vector, site 1 the most significant digit: _amplitudes of a stack of one.

    Every amplitude is bit for bit the trace of the full word.
    """
    return _amplitudes(mps.matrix_stack()[None], n_sites)[0]


def _amplitudes(mats: np.ndarray, n_sites: int) -> np.ndarray:
    """The amplitude maps of a (G, d, D, D) stack of families as a (G, d^N) array, in the stack's dtype.

    The last site forms only the diagonal entries of the words, each as the full product
    forms it, and they are summed over the diagonal in the order np.trace adds a diagonal:
    one after another while it holds fewer than 8 floats (D < 8 real, D < 4 complex),
    pairwise from there, which numpy's sum does on a contiguous copy.  So every amplitude
    is bit for bit the trace of the full word, and each family's row is the one it has alone.
    Amplitudes that overflow the float range are refused by name, without a numpy warning.
    """
    if n_sites < 1:
        raise ValueError("n_sites must be >= 1")
    n_fam, d, big_d = mats.shape[0], mats.shape[-3], mats.shape[-1]
    _check_cap(d, n_sites, "amplitude")
    # the last site: x[g, b, a, 1, w] and A[g, i, b, a] as m[g, b, a, i, 1]; in C order a varies faster
    # than b even when there is one word (d = 1), so numpy sums b in order, never pairwise
    words = _reversed_words(mats, n_sites - 1, "amplitude")  # the empty word (N = 1) has no family axis
    x = words.reshape(-1, big_d, big_d, 1, words.shape[-1]).swapaxes(1, 2)
    m = mats.transpose(0, 2, 3, 1)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        if mats.dtype.kind == "c":
            m, swap = _split(m)
            x = np.stack([x.real, x.imag])
            products = np.add(np.multiply(x[0], m, order="C"), np.multiply(x[1], swap, order="C"))
            diagonal = _joined(np.add.reduce(products, axis=-4, initial=0), mats.dtype)
        else:
            diagonal = np.add.reduce(np.multiply(x, m, order="C"), axis=-4, initial=0)
        terms = diagonal.reshape(n_fam, big_d, -1).swapaxes(1, 2)
        if big_d * (2 if np.iscomplexobj(terms) else 1) >= 8:
            terms = np.ascontiguousarray(terms)
        amps = terms.sum(axis=-1)
    _refuse_overflow(amps, n_sites)
    return amps.take(_digit_reversal(d, n_sites), axis=-1)
