"""Independent exact-diagonalization oracle on the full d^N Hilbert space.

Dense operators are assembled by scattering the local term into each window,
independently of the tensor-contraction path in parent.chain_apply, so the two
routes check each other.  Basis convention, fixed package-wide: site 1 is the
most significant digit and the physical order is the family label order
(1, 0, -1 for spin-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parent import LocalHamiltonian, _local_dim, chain_apply

#: Hard ceiling for dense diagonalization (full spectra, kernel counts).
DENSE_MAX_SITES = 8
#: Hard ceiling for matrix-free iterative work.
ITER_MAX_SITES = 12


class AmbiguousKernelError(RuntimeError):
    """Kernel count is gap-ambiguous; carries the (low, high) candidate range."""

    def __init__(self, low: int, high: int, message: str):
        super().__init__(message)
        self.low = low
        self.high = high


class LanczosConvergenceError(RuntimeError):
    """Iterative ground-energy solve did not converge; carries diagnostics."""


@dataclass(frozen=True)
class ChainOperator:
    """H = sum over periodic windows of a local k-site term, on n_sites sites."""

    n_sites: int
    local: LocalHamiltonian
    mode: str = "auto"  # dense | matrix-free | auto

    def __post_init__(self):
        if self.n_sites < self.local.k:
            raise ValueError("chain shorter than the local term's support")
        if self.mode not in ("dense", "matrix-free", "auto"):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def d(self) -> int:
        return _local_dim(self.local.dim, self.local.k)

    @property
    def dim(self) -> int:
        return self.d**self.n_sites

    def is_dense(self) -> bool:
        if self.mode == "dense":
            return True
        if self.mode == "matrix-free":
            return False
        return self.n_sites <= DENSE_MAX_SITES

    def apply(self, state: np.ndarray) -> np.ndarray:
        return chain_apply(self.local, self.n_sites, state)


def dense_chain(local_matrix: np.ndarray, k: int, n_sites: int) -> np.ndarray:
    """Dense periodic chain sum of an arbitrary k-site matrix (window scatter).

    The nonzero entries of h (x) 1 are taken once; each window relabels their
    basis indices so that its k sites lead, and adds them into the output.
    """
    h = np.asarray(local_matrix)
    d = _local_dim(h.shape[0], k)
    if n_sites > DENSE_MAX_SITES:
        raise ValueError(f"n_sites {n_sites} exceeds the dense cap {DENSE_MAX_SITES}")
    rest = np.arange(d ** (n_sites - k))
    r, c = np.nonzero(h)
    rows = (r[:, None] * rest.size + rest).ravel()
    cols = (c[:, None] * rest.size + rest).ravel()
    vals = np.repeat(h[r, c], rest.size)
    index = np.arange(d**n_sites).reshape((d,) * n_sites)
    out = np.zeros((d**n_sites, d**n_sites), dtype=h.dtype)
    for start in range(n_sites):
        sites = [(start + j) % n_sites for j in range(k)]
        # inv maps an index of h (x) 1 (window sites first) to the chain index
        inv = index.transpose(sites + [s for s in range(n_sites) if s not in sites]).ravel()
        out[inv[rows], inv[cols]] += vals
    return out


def dense_matrix(op: ChainOperator) -> np.ndarray:
    """Explicit d^N x d^N matrix of the chain, built by window scatter."""
    return dense_chain(op.local.matrix, op.local.k, op.n_sites)


def _lanczos_smallest(matvec, dim: int, max_iter: int = 400, tol: float = 1e-11, seed: int = 1234) -> float:
    """Smallest eigenvalue by Lanczos with full reorthogonalization.

    A fixed-seed start vector keeps runs reproducible.
    """
    from scipy.linalg import eigh_tridiagonal

    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis = [q]
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = np.inf
    w = matvec(q)
    for it in range(max_iter):
        alphas.append(float(basis[-1] @ w))
        w = w - alphas[-1] * basis[-1]
        if len(basis) > 1:
            w = w - betas[-1] * basis[-2]
        for u in basis:  # full reorthogonalization
            w = w - (u @ w) * u
        theta = eigh_tridiagonal(alphas, betas, eigvals_only=True, select="i", select_range=(0, 0))[0]
        b = float(np.linalg.norm(w))
        if b < 1e-13 or (it >= 3 and abs(theta - theta_prev) <= tol * max(1.0, abs(theta))):
            return float(theta)
        theta_prev = theta
        betas.append(b)
        q = w / b
        basis.append(q)
        w = matvec(q)
    raise LanczosConvergenceError(
        f"no convergence after {max_iter} iterations; last Ritz value {theta_prev:.6e}, "
        f"last increment {abs(theta - theta_prev):.3e}"
    )


def ground_energy(op: ChainOperator) -> float:
    """Smallest eigenvalue, dense below the dense cap and Lanczos above it."""
    if op.n_sites > ITER_MAX_SITES:
        raise ValueError(f"n_sites {op.n_sites} exceeds the iterative cap {ITER_MAX_SITES}")
    if op.is_dense():
        return float(np.linalg.eigvalsh(dense_matrix(op))[0])
    return _lanczos_smallest(op.apply, op.dim)


def spectrum(op: ChainOperator) -> np.ndarray:
    """Full sorted spectrum (dense path only)."""
    return np.sort(np.linalg.eigvalsh(dense_matrix(op)))


def _kernel_count(w: np.ndarray, tol: float) -> int:
    """Number of entries of the sorted spectrum w at most tol, gap-checked as in kernel_dimension."""
    count = int(np.sum(w <= tol))
    if count < len(w) and w[count] < 100 * tol:
        high = int(np.sum(w <= 100 * tol))
        raise AmbiguousKernelError(
            count, high, f"no clean spectral gap above {tol:g}: kernel dimension in [{count}, {high}]"
        )
    return count


def kernel_dimension(op: ChainOperator, tol: float = 1e-8) -> int:
    """Number of eigenvalues at most tol, with a spectral-gap sanity check.

    The first eigenvalue above the count must be at least 100 * tol away,
    otherwise the count is ambiguous and AmbiguousKernelError reports the
    candidate range instead of a silent number.
    """
    return _kernel_count(spectrum(op), tol)


def overlap_with_kernel(op: ChainOperator, state: np.ndarray) -> float:
    """Residual ||H state|| / ||state||.

    Zero means the state lies in the kernel; the caller compares the residual
    against its own threshold.
    """
    state = np.asarray(state)
    if state.shape != (op.dim,):
        raise ValueError(f"state must have length {op.dim}")
    nrm = np.linalg.norm(state)
    if nrm == 0.0:
        raise ValueError("zero state has no kernel residual")
    return float(np.linalg.norm(op.apply(state)) / nrm)


def report(op: ChainOperator, kernel_tol: float = 1e-8) -> dict:
    """Spectrum/degeneracy summary as a JSON-ready dictionary."""
    w = spectrum(op)
    try:
        kdim: int | list[int] = _kernel_count(w, kernel_tol)
    except AmbiguousKernelError as exc:
        kdim = [exc.low, exc.high]
    return {
        "n_sites": op.n_sites,
        "ground_energy": float(w[0]),
        "kernel_dim": kdim,
        "kernel_tol": kernel_tol,
        "spectrum_head": [float(x) for x in w[:20]],
    }
