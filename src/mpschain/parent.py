"""Null-space parent Hamiltonians for MPS families.

The coefficient vectors c with sum_w c_w A_{w_1}...A_{w_k} = 0 span the
k-site kernel.  Every k-site window of the MPS is orthogonal to conj(c), so
projectors onto the conjugated kernel vectors, summed over every window of
the ring, give a positive Hamiltonian that annihilates the MPS exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .mps import DegenerateNormError, MpsFamily, TransferSpectrum, amplitudes_vector
from .mps import _check_cap, _frozen, _matrix_to_json, _refuse_past_budget, _word_columns


class InvalidModelError(ValueError):
    """The family's word matrix vanishes identically; no meaningful kernel."""


class KernelRecheckError(ArithmeticError):
    """A computed kernel vector fails the residual re-check against the word matrix."""


@dataclass(frozen=True)
class NullSpaceBasis:
    """Orthonormal basis of the k-site kernel, canonical across runs."""

    k: int
    vectors: tuple[np.ndarray, ...]
    tol: float

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @property
    def is_empty(self) -> bool:
        return not self.vectors


@dataclass(frozen=True)
class LocalHamiltonian:
    """k-site operator sum_a J_a |conj(e_a)><conj(e_a)| over the kernel basis e_a, positive couplings."""

    k: int
    matrix: np.ndarray = field(repr=False)
    couplings: tuple[float, ...]
    basis: NullSpaceBasis

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.asarray(self.matrix).copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "couplings": [float(j) for j in self.couplings],
            "basis": _matrix_to_json(np.array(self.basis.vectors)),
            "matrix": _matrix_to_json(self.matrix),
        }


def word_matrix(mps: MpsFamily, k: int) -> np.ndarray:
    """The D^2 x d^k matrix whose column (j_1...j_k) is the word A_{j_1}...A_{j_k} flattened.

    Its right kernel is the coefficient space of vanishing k-site words.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _word_columns(mps.matrix_stack(), k, "word-matrix")


def _canonical_subspace_basis(vectors: list[np.ndarray]) -> list[np.ndarray]:
    """Deterministic orthonormal basis of span(vectors).

    Gram-Schmidt of the subspace projections of the coordinate vectors taken
    in lexicographic order, with the linalg sign convention; independent of
    the basis the solver happened to return.
    """
    if not vectors:
        return []
    cols = np.stack(vectors, axis=1)
    proj = cols @ cols.conj().T
    out: list[np.ndarray] = []
    for j in range(proj.shape[0]):
        w = proj[:, j].copy()
        for q in out:
            w -= (q.conj() @ w) * q
        nrm = np.linalg.norm(w)
        if nrm > 1e-9:
            out.append(linalg.phase_fix(w / nrm))
        if len(out) == len(vectors):
            break
    return out


def ground_null_space(mps: MpsFamily, k: int, tol: float = linalg.DEFAULT_NULL_TOL) -> NullSpaceBasis:
    """Orthonormal kernel basis of the k-site word matrix: _ground_null_spaces of a stack of one.

    An empty basis is a regular result ("no nearest-neighbor parent
    Hamiltonian at this k"), not an exception.
    """
    return _ground_null_spaces([mps], k, tol)[0]


def _ground_null_spaces(families, k: int, tol: float = linalg.DEFAULT_NULL_TOL) -> list[NullSpaceBasis]:
    """ground_null_space of each of a sequence of families of one shape, from stacked word-matrix SVDs.

    Each basis is bit for bit the family's own: the stacked SVD runs the same
    LAPACK call on each word matrix, and the canonical basis is taken per family.
    Each letter A_i is scaled once by 2^-e_i, e_i from frexp of its largest
    |entry|, so no word overflows and word (j_1...j_k) is the true one times
    2^-(e_j1 + ... + e_jk): a column scaling that keeps the rank, which
    linalg._null_spaces takes as column exponents.  The rank is decided on the
    balanced words, each entry within its roundoff of zero (_word_noise) zeroed;
    such a kernel is not canonicalised.  Each kernel vector is re-checked on the
    matrix whose SVD gave it (linalg._Kernel) against the relative bound 10 tol:
    the count is the same for every power-of-two scale of each A_i, or refused by
    name where the kernel's coordinates span more than the float range.  A stack
    raises the first degenerate family's InvalidModelError before any SVD, then
    the first failed re-check.  Past the word cap, or where the d^k x d^k SVD
    right factors pass the byte budget, a stack is refused before its words are formed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mats = np.array([fam.matrix_stack() for fam in families])
    d = mats.shape[-3]
    _check_cap(d, k, "word-matrix")
    _refuse_past_budget(f"kernel of the {k}-site words", len(mats) * d ** (2 * k) * mats.itemsize)
    _, e = np.frexp(np.abs(mats).max(axis=(-2, -1)))
    letters = linalg._ldexp(mats, -e[..., None, None])
    words = _word_columns(letters, k, "word-matrix")
    if not words.any(axis=(1, 2)).all():
        raise InvalidModelError("every k-site word vanishes; the family is degenerate")
    cols = e[:, np.indices((d,) * k).reshape(k, -1)].sum(axis=1)  # word (j_1...j_k) takes e_j1 + ... + e_jk
    bases = []
    for kernel in linalg._null_spaces(words, tol, _word_noise(letters, words, k), cols):
        vectors = _canonical_subspace_basis(kernel.vectors) if kernel.cols is None else kernel.vectors
        if any(kernel.residual(v) > 10 * tol for v in vectors):
            if kernel.cols is not None and np.ptp(kernel.cols) > -np.finfo(float).minexp:
                raise KernelRecheckError(f"the {k}-site kernel's coordinates span more than the float range")
            raise KernelRecheckError("kernel re-check failed; tolerance too loose for this family")
        bases.append(NullSpaceBasis(k=k, vectors=tuple(vectors), tol=tol))
    return bases


def _word_noise(letters: np.ndarray, words: np.ndarray, k: int) -> np.ndarray:
    """Mask of the entries of the (G, D^2, d^k) words of a (G, d, D, D) stack of letters within their roundoff of zero.

    A word is formed by k - 1 inexact products of D-term sums (2 D terms for
    complex words, carried as split parts), so to first order each entry lies
    within (k - 1) D eps of the exact one, 2 sqrt(2) (k - 1) D eps complex,
    relative to the same entry of the word of the |A_i| (Higham, Accuracy and
    Stability of Numerical Algorithms, section 3.5); the mask takes 4 k D eps.
    Letters scaled by powers of two (_ground_null_spaces) overflow in neither word.
    """
    bound = _word_columns(np.abs(letters), k, "word-matrix")
    return np.abs(words) < 4 * k * letters.shape[-1] * np.finfo(float).eps * bound


def local_hamiltonian(basis: NullSpaceBasis, couplings=None) -> LocalHamiltonian:
    """Projector-sum operator sum_a J_a |conj(e_a)><conj(e_a)| (default couplings all 1)."""
    if couplings is None:
        couplings = [1.0] * basis.dim
    couplings = [float(j) for j in couplings]
    if len(couplings) != basis.dim:
        raise ValueError(f"need {basis.dim} couplings, got {len(couplings)}")
    if any(j <= 0 for j in couplings):
        raise ValueError("couplings must be positive")
    if basis.is_empty:
        raise ValueError("cannot build a local Hamiltonian from an empty basis")
    dim = basis.vectors[0].shape[0]
    h = np.zeros((dim, dim), dtype=np.result_type(*basis.vectors))
    for j, v in zip(couplings, basis.vectors):
        h += j * np.outer(v.conj(), v)
    if np.iscomplexobj(h) and np.max(np.abs(h.imag)) == 0.0:
        h = h.real
    return LocalHamiltonian(k=basis.k, matrix=h, couplings=tuple(couplings), basis=basis)


def local_hamiltonian_from_vectors(vectors, k: int, couplings=None) -> LocalHamiltonian:
    """Build a projector-sum Hamiltonian from explicitly given null vectors.

    The vectors share one floating dtype, complex when any of them is, so
    imaginary parts are kept as in local_hamiltonian.
    """
    arrays = [np.asarray(v) for v in vectors]
    dtype = np.result_type(float, *arrays)
    vecs = [linalg.phase_fix(a.astype(dtype)) for a in arrays]
    basis = NullSpaceBasis(k=k, vectors=tuple(vecs), tol=linalg.DEFAULT_NULL_TOL)
    return local_hamiltonian(basis, couplings)


def reduced_density(mps: MpsFamily, k: int, n_sites: int) -> np.ndarray:
    """Reduced density matrix of k consecutive ring sites, unit trace.

    rho[I, J] = tr((W_I^* (x) W_J) E^{N-k}) / tr(E^N) with W_I the k-site word.
    Past the word cap, or where the d^k x d^k rho would pass the byte budget,
    it is refused before its words are formed.
    """
    if not 1 <= k < n_sites:
        raise ValueError("need 1 <= k < n_sites")
    stack = mps.matrix_stack()
    _check_cap(mps.d, k, "reduced-density")
    _refuse_past_budget(f"reduced density of {k} sites", mps.d ** (2 * k) * stack.itemsize)
    words = _word_columns(stack, k, "reduced-density").T.reshape(-1, mps.D, mps.D)
    env = np.linalg.matrix_power(TransferSpectrum(mps).scaled, n_sites - k).reshape(mps.D, mps.D, mps.D, mps.D)
    rho = np.einsum("Iab,Jcd,bdac->IJ", words.conj(), words, env)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateNormError("reduced density matrix has vanishing trace")
    rho /= tr
    if np.iscomplexobj(rho) and np.max(np.abs(rho.imag)) < 1e-14:
        rho = rho.real
    return rho


def _local_dim(size: int, k: int) -> int:
    """The physical dimension d of a k-site operator of size d^k."""
    d = round(size ** (1.0 / k))
    if d**k != size:
        raise ValueError("local dimension is not a clean k-th root of the operator size")
    return d


def _rotate(x: np.ndarray, m: int, d: int) -> np.ndarray:
    """Each row of a (G, d^N) stack x (any C-order shape after G) with its first m sites moved last:
    one stacked 2-D transpose copy."""
    return x.reshape(x.shape[0], d**m, -1).swapaxes(1, 2).copy()


def chain_apply(h: LocalHamiltonian, n_sites: int, state: np.ndarray) -> np.ndarray:
    """Apply H = sum_l h_{l..l+k-1} (periodic windows) to a d^N vector, matrix-free: _chain_apply of one state."""
    return _chain_apply(h.matrix, h.k, n_sites, np.asarray(state)[None])[0]


def _support(matrix: np.ndarray, n_sites: int, k: int):
    """The window indices a local term (or a (G, d^k, d^k) stack of them) reads or writes: the union of
    its nonzero rows and columns, as a slice when they form an arithmetic progression, else an index
    array.  A full or empty support, or a chain of one window (whose one-column product would take
    another BLAS path than the full term's), gives slice(None)."""
    nonzero = matrix != 0
    rows = (nonzero.any(axis=-1) | nonzero.any(axis=-2)).reshape(-1, matrix.shape[-1]).any(axis=0)
    idx = np.flatnonzero(rows).tolist()
    if n_sites == k or len(idx) in (0, len(rows)):
        return slice(None)
    step = idx[1] - idx[0] if len(idx) > 1 else 1
    if idx == list(range(idx[0], idx[-1] + 1, step)):
        return slice(idx[0], idx[-1] + 1, step)
    return np.array(idx)


def _chain_apply(matrix: np.ndarray, k: int, n_sites: int, states: np.ndarray) -> np.ndarray:
    """H applied to each row of a (G, d^N) stack of states; matrix is one (d^k, d^k) local term for
    every row, or a (G, d^k, d^k) stack with one per row.

    The states stay flat and are read in a frame: their sites rotated so that
    chain site `lead` comes first.  The window at site l sits at frame
    position s = l - lead and is the contiguous view (G, d^s, d^k, rest) of
    the stack.  The local term acts on its support S only (_support, found
    once per call): the (S, S) block of the term multiplies the S rows of that
    view from the left in one stacked matmul, which multiplies each row's
    (|S|, rest) blocks as the product for that row alone does, and the
    product is added into the S rows of the same view of the output.  The
    rows and columns left out are zero, so each kept entry sums the same
    nonzero products in the same order as the full term; for real terms of
    size d^k <= 9 (the models') that is the full product bit for bit.  BLAS
    groups the sums of a 27 x 27 term, and a complex one-entry product, by
    the product's shape, so those can move in the last bits.  When s would
    pass (N - k) // 2, the states and the output are both rotated so that
    window leads; the output is rotated back once at the end.  Windows are
    added in the fixed order l = 0..N-1, so every entry sums its terms in
    that order, and each row is bit for bit the one-state result.  The input
    is never written to.  A state entry whose window index lies outside S in
    every window is never multiplied, so a non-finite one no longer spreads
    NaN (0 * inf) as the full product did; _chain_residuals refuses
    non-finite states anyway.
    """
    if n_sites < k:
        raise ValueError(f"n_sites must be >= k = {k}")
    d = _local_dim(matrix.shape[-1], k)
    if states.shape[1:] != (d**n_sites,):
        raise ValueError(f"state must have length {d**n_sites}, got {states.shape[1:]}")
    psi = states
    support = _support(matrix, n_sites, k)
    # a per-row term meets the window blocks through a length-one axis
    term = (matrix if matrix.ndim == 2 else matrix[:, None])[..., support, :][..., support]
    out = np.zeros(psi.shape, dtype=np.result_type(psi, matrix))
    lead = 0
    for site in range(n_sites):
        s = site - lead
        if s > (n_sites - k) // 2:
            psi, out = _rotate(psi, s, d), _rotate(out, s, d)
            lead, s = site, 0
        shape = (psi.shape[0], d**s, d**k, -1)
        out.reshape(shape)[:, :, support] += np.matmul(term, psi.reshape(shape)[:, :, support])
    return _rotate(out, n_sites - lead, d).reshape(psi.shape[0], -1) if lead else out


def chain_residual(h: LocalHamiltonian, n_sites: int, state: np.ndarray) -> float:
    """Residual ||H state|| / ||state|| of the periodic chain; zero means state is in the kernel.

    The one-state call of _chain_residuals.
    """
    return _chain_residuals(h.matrix, h.k, n_sites, np.asarray(state)[None])[0]


def _chain_residuals(matrix: np.ndarray, k: int, n_sites: int, states: np.ndarray) -> list[float]:
    """chain_residual of each row of a (G, d^N) stack of states, with one local term or one per row (_chain_apply).

    Each norm is the 1-D np.linalg.norm of its row, as for one state (a norm along an axis
    sums in another order).  A zero row, or one whose norm overflows or is NaN, raises
    DegenerateNormError before H is applied: an infinite norm would read every residual as 0.
    """
    with np.errstate(over="ignore"):
        norms = [np.linalg.norm(psi) for psi in states]
    if 0.0 in norms:
        raise DegenerateNormError("zero state has no chain residual")
    if not np.isfinite(norms).all():
        raise DegenerateNormError("state norm is not finite (overflow or NaN): no chain residual")
    applied = _chain_apply(matrix, k, n_sites, states)
    return [float(np.linalg.norm(h_psi) / nrm) for h_psi, nrm in zip(applied, norms)]


def verify_zero_energy(mps: MpsFamily, h: LocalHamiltonian, n_sites: int) -> float:
    """Chain residual ||H psi|| / ||psi|| with psi from the brute-force amplitude map: the one-family
    call of mps._amplitudes and _chain_residuals, which verify's frustration suite runs on a stack."""
    return chain_residual(h, n_sites, amplitudes_vector(mps, n_sites))
