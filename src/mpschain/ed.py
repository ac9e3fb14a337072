"""Independent exact-diagonalization oracle on the full d^N Hilbert space.

Dense operators are assembled by scattering the local term into each window,
independently of the tensor-contraction path in parent.chain_apply, so the two
routes check each other.  Spectra and reports stay dense.  Kernel counts come
from the connected blocks of the same scatter held sparse: the nonzero pattern
of the chain splits into exact diagonal blocks, diagonalized one size at a
time, so no d^N x d^N matrix is built for them.  Basis convention, fixed
package-wide: site 1 is the most significant digit and the physical order is
the family label order (1, 0, -1 for spin-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .parent import LocalHamiltonian, _local_dim, chain_apply, chain_residual

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


def _check_dense(n_sites: int) -> None:
    if n_sites > DENSE_MAX_SITES:
        raise ValueError(f"n_sites {n_sites} exceeds the dense cap {DENSE_MAX_SITES}")


def _window_entries(h: np.ndarray, d: int, k: int, n_sites: int):
    """The nonzero entries of h on every periodic window, as chain indices.

    Yields one (rows, cols, vals) triple per window start, in window order:
    the nonzero entries of h (x) 1 with their basis indices relabelled so
    that the window's k sites lead.  vals is the same array every time.
    """
    rest = np.arange(d ** (n_sites - k))
    r, c = np.nonzero(h)
    rows = (r[:, None] * rest.size + rest).ravel()
    cols = (c[:, None] * rest.size + rest).ravel()
    vals = np.repeat(h[r, c], rest.size)
    index = np.arange(d**n_sites).reshape((d,) * n_sites)
    for start in range(n_sites):
        sites = [(start + j) % n_sites for j in range(k)]
        # inv maps an index of h (x) 1 (window sites first) to the chain index
        inv = index.transpose(sites + [s for s in range(n_sites) if s not in sites]).ravel()
        yield inv[rows], inv[cols], vals


def dense_chain(local_matrix: np.ndarray, k: int, n_sites: int) -> np.ndarray:
    """Dense periodic chain sum of an arbitrary k-site matrix (window scatter).

    The nonzero entries of h (x) 1 are taken once; each window relabels their
    basis indices so that its k sites lead, and adds them into the output.
    """
    h = np.asarray(local_matrix)
    d = _local_dim(h.shape[0], k)
    _check_dense(n_sites)
    out = np.zeros((d**n_sites, d**n_sites), dtype=h.dtype)
    for rows, cols, vals in _window_entries(h, d, k, n_sites):
        out[rows, cols] += vals
    return out


def _components(rows: np.ndarray, cols: np.ndarray, dim: int) -> np.ndarray:
    """Label each of dim states with the smallest state of its connected block.

    The graph has an edge (rows[i], cols[i]) per entry.  Each round hooks,
    on every edge, the larger of its two labels onto the smaller, then
    follows the hooks to their ends; labels only fall and never leave their
    block, so the rounds stop once every edge joins equal labels.
    """
    labels = np.arange(dim)
    while True:
        lr, lc = labels[rows], labels[cols]
        if np.array_equal(lr, lc):
            return labels
        hook = labels.copy()
        np.minimum.at(hook, lr, lc)
        np.minimum.at(hook, lc, lr)
        while True:
            up = hook[hook]
            if np.array_equal(up, hook):
                break
            hook = up
        labels = hook[labels]


def _blocks(op: ChainOperator):
    """The chain as exact diagonal blocks: the connected components of its nonzero pattern.

    Yields one (states, matrices) pair per block size s: states is an
    (n_blocks, s) array of chain indices, ascending along each row, and
    matrices the (n_blocks, s, s) stack of the chain restricted to them.
    Each block is the dense matrix's submatrix bit for bit (the same entries
    summed window by window in the same order), so it keeps the dense
    triangle orientation.  A term that couples every basis state gives one
    block of the whole space.
    """
    h = op.local.matrix
    dim = op.dim
    rows, cols, vals = map(np.concatenate, zip(*_window_entries(h, op.d, op.local.k, op.n_sites)))
    _, labels = np.unique(_components(rows, cols, dim), return_inverse=True)
    sizes = np.bincount(labels)
    # states grouped by block, ascending chain index inside each block
    order = np.argsort(labels, kind="stable")
    first = np.cumsum(sizes) - sizes
    pos = np.empty(dim, dtype=np.intp)
    pos[order] = np.arange(dim) - np.repeat(first, sizes)
    slot = np.empty(sizes.size, dtype=np.intp)
    entry_size = sizes[labels[rows]]
    for s in np.unique(sizes):
        blocks = np.flatnonzero(sizes == s)
        slot[blocks] = np.arange(blocks.size)
        sel = entry_size == s
        r, c = rows[sel], cols[sel]
        matrices = np.zeros((blocks.size, s, s), dtype=h.dtype)
        # unbuffered, in window order: each entry sums exactly as in dense_chain
        np.add.at(matrices, (slot[labels[r]], pos[r], pos[c]), vals[sel])
        yield order[first[blocks, None] + np.arange(s)], matrices


def _block_spectrum(op: ChainOperator) -> np.ndarray:
    """Full sorted spectrum from the exact blocks, one batched eigvalsh per block size."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(m).ravel() for _, m in _blocks(op)]))


def dense_matrix(op: ChainOperator) -> np.ndarray:
    """Explicit d^N x d^N matrix of the chain, built by window scatter."""
    return dense_chain(op.local.matrix, op.local.k, op.n_sites)


#: Bytes per block of the Lanczos basis: 32 MiB, the ceiling of glibc
#: malloc's dynamic mmap threshold, so a block of full size is always a fresh
#: mapping that is returned to the system when the solve ends.  A smaller block can be served
#: from the heap and stay resident there, by an amount that follows the
#: iteration count: with 16-row blocks the oracle benchmark's peak RSS jumped
#: between 156 and 178 MiB from one seed to the next (BENCH_11.json).  Rows
#: are written one per iteration, so only the rows in use are resident.
_LANCZOS_BLOCK_BYTES = 32 << 20


def _block_rows(dim: int, max_iter: int) -> int:
    """Rows per Lanczos basis block: _LANCZOS_BLOCK_BYTES of rows, or the max_iter + 1 a solve can write if fewer."""
    return min(max_iter + 1, -(-_LANCZOS_BLOCK_BYTES // (8 * dim)))


def _lanczos_smallest(
    matvec, dim: int, max_iter: int = 400, tol: float = 1e-11, seed: int = 1234
) -> tuple[float, list[np.ndarray]]:
    """Smallest eigenvalue and the kept Krylov basis, by Lanczos with full reorthogonalization.

    The basis vectors are the rows of fixed-size row blocks, filled in
    place; the basis is returned as those blocks cut to the rows in use.
    After the three-term update, w is reorthogonalized against every kept
    row by block classical Gram-Schmidt (c = V @ w, w -= c @ V per block),
    and the pass runs a second time only when the first shrank ||w|| below
    ||w|| / sqrt(2) (the Daniel-Gragg-Kaufman-Stewart test).  A fixed-seed
    start vector keeps runs reproducible.
    """
    from scipy.linalg import eigh_tridiagonal

    rows = _block_rows(dim, max_iter)
    blocks = [np.empty((rows, dim))]
    q = blocks[0][0]
    np.random.default_rng(seed).standard_normal(dim, out=q)
    q /= np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = np.inf
    w = matvec(q)
    for it in range(max_iter):
        alphas.append(float(q @ w))
        w -= alphas[-1] * q
        if it:
            w -= betas[-1] * q_prev
        kept = blocks[:-1] + [blocks[-1][: it % rows + 1]]
        before = np.linalg.norm(w)
        for _ in range(2):
            for v in kept:
                w -= (v @ w) @ v
            b = float(np.linalg.norm(w))
            if b >= before / np.sqrt(2):
                break
            before = b
        theta = eigh_tridiagonal(alphas, betas, eigvals_only=True, select="i", select_range=(0, 0))[0]
        if b < 1e-13 or (it >= 3 and abs(theta - theta_prev) <= tol * max(1.0, abs(theta))):
            return float(theta), kept
        theta_prev = theta
        betas.append(b)
        if (it + 1) % rows == 0:
            blocks.append(np.empty((rows, dim)))
        q_prev, q = q, blocks[-1][(it + 1) % rows]
        np.divide(w, b, out=q)
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
    return _lanczos_smallest(op.apply, op.dim)[0]


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
    candidate range instead of a silent number.  The spectrum comes from the
    connected blocks of the sparse chain, never from the dense matrix.
    """
    _check_dense(op.n_sites)
    return _kernel_count(_block_spectrum(op), tol)


def overlap_with_kernel(op: ChainOperator, state: np.ndarray) -> float:
    """Residual ||H state|| / ||state||.

    Zero means the state lies in the kernel; the caller compares the residual
    against its own threshold.
    """
    state = np.asarray(state)
    if state.shape != (op.dim,):
        raise ValueError(f"state must have length {op.dim}")
    return chain_residual(op.local, op.n_sites, state)


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
