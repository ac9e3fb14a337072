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
from .mps import _JsonFile, _matrix_from_json, _matrix_to_json, _words


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
class LocalHamiltonian(_JsonFile):
    """k-site operator sum_a J_a |conj(e_a)><conj(e_a)| over the kernel basis e_a, positive couplings."""

    k: int
    matrix: np.ndarray = field(repr=False)
    couplings: tuple[float, ...]
    basis: NullSpaceBasis

    def __post_init__(self):
        m = np.asarray(self.matrix)
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LocalHamiltonian":
        basis = NullSpaceBasis(
            k=int(doc["k"]),
            vectors=tuple(_matrix_from_json(doc["basis"])),
            tol=linalg.DEFAULT_NULL_TOL,
        )
        return cls(
            k=int(doc["k"]),
            matrix=_matrix_from_json(doc["matrix"]),
            couplings=tuple(float(j) for j in doc["couplings"]),
            basis=basis,
        )


def word_matrix(mps: MpsFamily, k: int) -> np.ndarray:
    """The D^2 x d^k matrix whose column (j_1...j_k) is the word A_{j_1}...A_{j_k} flattened.

    Its right kernel is the coefficient space of vanishing k-site words.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _words(mps, k, "word-matrix").reshape(mps.d**k, mps.D * mps.D).T


def _canonical_subspace_basis(vectors: list[np.ndarray], tol: float = 1e-9) -> list[np.ndarray]:
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
        if nrm > tol:
            out.append(linalg.phase_fix(w / nrm))
        if len(out) == len(vectors):
            break
    return out


def ground_null_space(mps: MpsFamily, k: int, tol: float = linalg.DEFAULT_NULL_TOL) -> NullSpaceBasis:
    """Orthonormal kernel basis of the k-site word matrix.

    An empty basis is a regular result ("no nearest-neighbor parent
    Hamiltonian at this k"), not an exception.
    """
    m = word_matrix(mps, k)
    if not m.any():
        raise InvalidModelError("every k-site word vanishes; the family is degenerate")
    kernel = linalg.null_space(m, tol)
    canon = _canonical_subspace_basis(kernel)
    smax = np.linalg.svd(m, compute_uv=False)[0]
    for v in canon:
        if np.linalg.norm(m @ v) > 10 * tol * smax:
            raise KernelRecheckError("kernel re-check failed; tolerance too loose for this family")
    return NullSpaceBasis(k=k, vectors=tuple(canon), tol=tol)


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
    """
    if not 1 <= k < n_sites:
        raise ValueError("need 1 <= k < n_sites")
    words = _words(mps, k, "reduced-density")
    env = np.linalg.matrix_power(TransferSpectrum(mps).scaled, n_sites - k).reshape(mps.D, mps.D, mps.D, mps.D)
    rho = np.einsum("Iab,Jcd,bdac->IJ", words.conj(), words, env)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise DegenerateNormError("reduced density matrix has vanishing trace")
    rho = rho / tr
    if np.iscomplexobj(rho) and np.max(np.abs(rho.imag)) < 1e-14:
        rho = rho.real
    return rho


def _local_dim(size: int, k: int) -> int:
    """The physical dimension d of a k-site operator of size d^k."""
    d = round(size ** (1.0 / k))
    if d**k != size:
        raise ValueError("local dimension is not a clean k-th root of the operator size")
    return d


def chain_apply(h: LocalHamiltonian, n_sites: int, state: np.ndarray) -> np.ndarray:
    """Apply H = sum_l h_{l..l+k-1} (periodic windows) to a d^N vector, matrix-free."""
    k = h.k
    if n_sites < k:
        raise ValueError(f"n_sites must be >= k = {k}")
    d = _local_dim(h.dim, k)
    state = np.asarray(state)
    if state.shape != (d**n_sites,):
        raise ValueError(f"state must have length {d**n_sites}, got {state.shape}")
    psi = state.reshape((d,) * n_sites)
    out = np.zeros_like(psi, dtype=np.result_type(psi, h.matrix))
    for start in range(n_sites):
        axes = [(start + j) % n_sites for j in range(k)]
        moved = np.moveaxis(psi, axes, range(k)).reshape(d**k, -1)
        term = (h.matrix @ moved).reshape((d,) * n_sites)
        out += np.moveaxis(term, range(k), axes)
    return out.reshape(-1)


def chain_residual(h: LocalHamiltonian, n_sites: int, state: np.ndarray) -> float:
    """Residual ||H state|| / ||state|| of the periodic chain; zero means state is in the kernel."""
    nrm = np.linalg.norm(state)
    if nrm == 0.0:
        raise DegenerateNormError("zero state has no chain residual")
    return float(np.linalg.norm(chain_apply(h, n_sites, state)) / nrm)


def verify_zero_energy(mps: MpsFamily, h: LocalHamiltonian, n_sites: int) -> float:
    """Chain residual ||H psi|| / ||psi|| with psi from the brute-force amplitude map."""
    return chain_residual(h, n_sites, amplitudes_vector(mps, n_sites))
