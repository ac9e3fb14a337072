"""Independent exact-diagonalization oracle on the full d^N Hilbert space.

Dense operators are assembled by scattering the whole local term into each
window, independently of the matrix-free path in parent.chain_apply, which
multiplies each window by the term's (S, S) block on its support S (the union
of its nonzero rows and columns) only, so the two routes check each other.
Ground energies (plain Lanczos) and overlaps with the kernel run
parent.chain_apply.  Spectra, reports and kernel counts come from the same
entries held sparse: the nonzero pattern of the chain splits into exact
diagonal blocks, and the one-site shift, which commutes with the periodic
chain, splits those into momentum sectors about N times smaller,
diagonalized one size at a time.  Neither route builds a d^N x d^N matrix;
only dense_chain (and dense_matrix) does, for the tests and the checks that
compare dense constructions.  Every route is refused past the one byte budget
before its arrays exist.
Basis convention, fixed package-wide: site 1 is the most significant digit and
the physical order is the family label order (1, 0, -1 for spin-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mps
from .parent import LocalHamiltonian, _local_dim, chain_apply, chain_residual

#: Bytes per entry of a sector matrix while a chunk is summed (two bincounts and one complex stack).
_STACK_ENTRY_BYTES = 32
#: Bytes a chunk of sector stacks aims at, so that a large count peaks near the size of its labels.
_CHUNK_BYTES = 2**25
#: Eigenvalues at most this count towards a kernel (kernel_dimension, report).
_KERNEL_TOL = 1e-8
#: Iterations a Lanczos ground-energy solve may take.
_LANCZOS_MAX_ITER = 400


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
    """H = sum over periodic windows of a local k-site term, on n_sites sites.

    Every call runs one route whatever mode says; only the benchmark reads
    mode and is_dense() (whether dense_chain would pass the byte budget).
    """

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
        return _dense_bytes(self.local.matrix, self.d, self.n_sites) <= mps._BYTE_BUDGET

    def apply(self, state: np.ndarray) -> np.ndarray:
        return chain_apply(self.local, self.n_sites, state)


def _dense_bytes(h: np.ndarray, d: int, n_sites: int) -> int:
    """Bytes of the dense d^N x d^N chain of the term h and of the copy eigvalsh makes of it."""
    return 2 * d ** (2 * n_sites) * np.result_type(h.dtype, np.float64).itemsize


def _term_entries(h: np.ndarray, d: int, k: int, n_sites: int):
    """The nonzero entries (rows, cols, vals) of h (x) 1, the term on the first k sites."""
    rest = np.arange(d ** (n_sites - k))
    r, c = np.nonzero(h)
    rows = (r[:, None] * rest.size + rest).ravel()
    cols = (c[:, None] * rest.size + rest).ravel()
    return rows, cols, np.repeat(h[r, c], rest.size)


def _window_entries(h: np.ndarray, d: int, k: int, n_sites: int):
    """The nonzero entries of h on every periodic window, as chain indices.

    Yields one (rows, cols, vals) triple per window start, in window order:
    the entries of _term_entries with their basis indices relabelled so that
    the window's k sites lead.  vals is the same array every time.
    """
    rows, cols, vals = _term_entries(h, d, k, n_sites)
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
    A chain whose matrix and eigvalsh's copy would pass the byte budget is
    refused before either exists.
    """
    h = np.asarray(local_matrix)
    d = _local_dim(h.shape[0], k)
    mps._refuse_past_budget(f"dense chain at n_sites {n_sites}", _dense_bytes(h, d, n_sites))
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


def _labelling_bytes(op: ChainOperator, n_sectors: int) -> int:
    """Upper estimate of the bytes spectrum holds before its sector stacks.

    Per state: twenty arrays of orbit labels, sector states and their
    temporaries.  Per entry of the term on the first window: ten arrays.
    Per entry and sector: fourteen.
    """
    d, n = op.d, op.n_sites
    entries = np.count_nonzero(op.local.matrix) * d ** (n - op.local.k)
    return 8 * (20 * d**n + (10 + 14 * n_sectors) * entries)


def spectrum(op: ChainOperator) -> np.ndarray:
    """Full sorted spectrum from the translation sectors of the exact blocks.

    The one-site shift T (the last site moved first) commutes with the
    periodic chain.  Each state s is labelled with its orbit representative
    r (its smallest rotation), the first shift l_s with T^l_s s = r and the
    orbit's period p.  The Bloch states of momentum k = 2 pi m / N are built
    on the representatives whose period allows m (m p = 0 mod N); as the
    windows are the shifts of the first one, the chain reads there
        H_m[r', r] = N / sqrt(p_r p_r') sum <t|h (x) 1|c> e^{-ik (l_t - l_c)},
    summed over the entries of the first window's term with c in the orbit
    of r and t in that of r'.  Each H_m splits further by the connected
    blocks of the representatives, and the blocks of one size and dtype are
    diagonalized as one eigvalsh stack.  A real term has H_{N-m} = conj(H_m),
    so only m <= N/2 is built and the sectors 0 < m < N/2 count twice; a
    complex term builds all N.  A block of one state is its own eigenvalue.

    Two byte estimates guard the work, each against the byte budget: the
    labels and entries before any array of d^N states exists, then the
    largest block before any sector stack does; past either, the chain is
    refused with a ValueError ("spectrum at n_sites N").  The blocks are
    laid out one after another and summed in chunks of whole blocks within
    the room the labels leave (one chunk when all fit); eigvalsh treats each
    matrix of a stack on its own, so chunking leaves every value unchanged.
    """
    h = op.local.matrix
    d, k, n = op.d, op.local.k, op.n_sites
    dim = d**n
    real = h.dtype.kind != "c"
    n_m = n // 2 + 1 if real else n
    held = _labelling_bytes(op, n_m)
    mps._refuse_past_budget(f"spectrum at n_sites {n}", held)
    # T^j s keyed by j, n T^j s + j, for every state s: the running minimum
    # over j is the representative and the first shift that reaches it
    scaled = np.arange(0, n * dim, n)
    keyed = scaled.copy()
    for j in range(1, n):
        view = keyed.reshape(-1, d**j)
        np.minimum(view, scaled.reshape(d**j, -1).T + j, out=view)
    rep, shift = np.divmod(keyed, n)
    period = np.bincount(rep, minlength=dim)  # the orbit sizes, at the representatives
    reps = period.nonzero()[0]
    rid = np.empty(dim, dtype=np.intp)
    rid[reps] = np.arange(reps.size)
    rows, cols, vals = _term_entries(h, d, k, n)
    t, c = rid[rep[rows]], rid[rep[cols]]
    period = period[reps]
    amp = vals * (n / np.sqrt(period[t] * period[c]))
    labels = _components(t, c, reps.size)
    # the sector states (m, r), m-major, and each entry in every sector both its ends allow
    allow = np.arange(n_m)[:, None] * period % n == 0
    sm, sr = np.nonzero(allow)
    sid = np.empty(allow.shape, dtype=np.intp)
    sid[sm, sr] = np.arange(sm.size)
    mi, ei = np.nonzero(allow[:, t] & allow[:, c])
    src, dst = sid[mi, c[ei]], sid[mi, t[ei]]
    vals = amp[ei] * np.exp(-2j * np.pi / n * np.arange(n))[mi * (shift[rows] - shift[cols])[ei] % n]
    # blocks are (m, component) pairs; sorted by size, dtype and block, the states of a block
    # lie together in ascending order and the blocks of one kind form one run
    block = sm * reps.size + labels[sr]
    size = np.bincount(block)[block]
    kind = 2 * size + ((2 * sm % n != 0) | (not real))  # odd: a complex sector
    order = np.argsort(kind * (n_m * reps.size) + block, kind="stable")
    ordered = block[order]
    start = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    bsize, bkind = size[order[start]], kind[order[start]]
    squares = bsize * bsize
    off = np.concatenate(([0], np.cumsum(squares)))  # block i fills off[i]:off[i+1] of one flat layout
    pos = np.empty(sm.size, dtype=np.intp)
    pos[order] = np.arange(sm.size) - np.repeat(start, bsize)
    base = np.empty(sm.size, dtype=np.intp)
    base[order] = np.repeat(off[:-1], bsize)
    flat = base[dst] + pos[dst] * size[dst] + pos[src]
    # the blocks that start in one stretch of `step` entries of the layout form a chunk, which
    # sums its entries at _STACK_ENTRY_BYTES per matrix entry; with one more matrix (eigvalsh's
    # workspace) it stays within _CHUNK_BYTES, or within two of the largest blocks when those
    # outgrow it, and always within the room the labels leave
    largest = int(squares.max())
    mps._refuse_past_budget(f"spectrum at n_sites {n}", held + 2 * _STACK_ENTRY_BYTES * largest)
    step = max(min(mps._BYTE_BUDGET - held, _CHUNK_BYTES) // _STACK_ENTRY_BYTES - largest, largest)
    chunk = off[:-1] // step  # 0, 1, ... in steps of one, as no block outgrows a step
    bounds, cuts = [0, int(off[-1])], [0, flat.size]
    if chunk[-1] > 0:  # entries sorted by place, so each chunk's entries are one slice
        bounds = off[np.searchsorted(chunk, np.arange(chunk[-1] + 2))]
        o = np.argsort(flat, kind="stable")
        flat, vals = flat[o], vals[o]
        cuts = np.searchsorted(flat, bounds)
    # pieces: the blocks of one kind in one chunk, each one eigvalsh stack
    pieces = np.flatnonzero(np.concatenate(([True], (bkind[1:] != bkind[:-1]) | (chunk[1:] != chunk[:-1]), [True])))
    heads = pieces[:-1]
    parts, at = [], -1
    for ch, kd, first, end in zip(chunk[heads].tolist(), bkind[heads].tolist(), heads.tolist(), pieces[1:].tolist()):
        if ch != at:  # the next chunk's entries, summed into its stretch of the layout
            at, lo, e, im = ch, bounds[ch], slice(cuts[ch], cuts[ch + 1]), None
            re = np.bincount(flat[e] - lo, vals.real[e], bounds[ch + 1] - lo)
        s, complex_ = divmod(kd, 2)
        a, b = off[first] - lo, off[end] - lo
        if s == 1:  # a one-state block is its own (real) eigenvalue; a copy lets the chunk go
            w = re[a:b].copy()
        else:
            w = re[a:b]
            if complex_:
                if im is None:
                    im = np.bincount(flat[e] - lo, vals.imag[e], bounds[ch + 1] - lo)
                w = 1j * im[a:b]
                w += re[a:b]
            w = np.linalg.eigvalsh(w.reshape(-1, s, s)).ravel()
        parts += [w, w] if complex_ and real else [w]
    return np.sort(np.concatenate(parts))


def dense_matrix(op: ChainOperator) -> np.ndarray:
    """Explicit d^N x d^N matrix of the chain, built by window scatter."""
    return dense_chain(op.local.matrix, op.local.k, op.n_sites)


def _lanczos_smallest(matvec, dim: int) -> tuple[float, float]:
    """Smallest eigenvalue and its Ritz residual, by plain Lanczos.

    The three-term recurrence runs without reorthogonalization, so a solve
    holds three vectors, q, the previous q and w, whatever its length.  The
    lost orthogonality only shows once a Ritz value has converged (Paige), so
    the Ritz residual beta_j |s_j|, s_j the last entry of the lowest
    eigenvector of the tridiagonal T, stays a valid stop: the solve returns
    once it is at most 1e-6 max(1, |theta|), from the fourth iteration on,
    or at once when w vanishes (an invariant subspace).  The Ritz value's
    error then falls as the square of the residual.  A fixed-seed start
    vector keeps runs reproducible.  A solve not converged after
    _LANCZOS_MAX_ITER iterations raises LanczosConvergenceError.  The inner
    products are Hermitian (np.vdot), so complex terms solve as real ones do.
    """
    from scipy.linalg import eigh_tridiagonal

    q = np.random.default_rng(1234).standard_normal(dim)
    q /= np.linalg.norm(q)
    alphas: list[float] = []
    betas: list[float] = []
    theta_prev = np.inf
    for it in range(_LANCZOS_MAX_ITER):
        w = matvec(q)
        alphas.append(float(np.vdot(q, w).real))
        w -= alphas[-1] * q
        if it:
            w -= betas[-1] * q_prev
        b = float(np.linalg.norm(w))
        thetas, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
        theta = float(thetas[0])
        residual = b * abs(float(s[-1, 0]))
        increment = abs(theta - theta_prev)
        if b < 1e-13 or (it >= 3 and residual <= 1e-6 * max(1.0, abs(theta))):
            return theta, residual
        theta_prev = theta
        betas.append(b)
        w /= b
        q_prev, q = q, w
    raise LanczosConvergenceError(
        f"no convergence after {_LANCZOS_MAX_ITER} iterations; last Ritz value {theta:.6e}, "
        f"last residual {residual:.3e}, last increment {increment:.3e}"
    )


def ground_energy(op: ChainOperator) -> float:
    """Smallest eigenvalue by plain Lanczos (_lanczos_smallest) on chain_apply; the sector one is spectrum(op)[0]."""
    # about 8 d^N entries: three Lanczos vectors, and chain_apply's rotated copies and product
    itemsize = np.result_type(op.local.matrix.dtype, np.float64).itemsize
    mps._refuse_past_budget(f"ground energy at n_sites {op.n_sites}", 8 * op.dim * itemsize)
    return _lanczos_smallest(op.apply, op.dim)[0]


def _kernel_count(w: np.ndarray, tol: float) -> int:
    """Number of entries of the sorted spectrum w at most tol, gap-checked as in kernel_dimension."""
    count = int(np.sum(w <= tol))
    if count < len(w) and w[count] < 100 * tol:
        high = int(np.sum(w <= 100 * tol))
        raise AmbiguousKernelError(
            count, high, f"no clean spectral gap above {tol:g}: kernel dimension in [{count}, {high}]"
        )
    return count


def kernel_dimension(op: ChainOperator) -> int:
    """Number of eigenvalues at most _KERNEL_TOL, with a spectral-gap sanity check.

    The first eigenvalue above the count must be at least 100 * _KERNEL_TOL
    away, otherwise the count is ambiguous and AmbiguousKernelError reports
    the candidate range instead of a silent number.  The spectrum is
    spectrum(op), from the translation sectors of the connected blocks.
    """
    return _kernel_count(spectrum(op), _KERNEL_TOL)


def overlap_with_kernel(op: ChainOperator, state: np.ndarray) -> float:
    """Residual ||H state|| / ||state||.

    Zero means the state lies in the kernel; the caller compares the residual
    against its own threshold.
    """
    state = np.asarray(state)
    if state.shape != (op.dim,):
        raise ValueError(f"state must have length {op.dim}")
    return chain_residual(op.local, op.n_sites, state)


def report(op: ChainOperator) -> dict:
    """Spectrum/degeneracy summary (JSON-ready) from one spectrum(op); the kernel counted as in kernel_dimension."""
    w = spectrum(op)
    try:
        kdim: int | list[int] = _kernel_count(w, _KERNEL_TOL)
    except AmbiguousKernelError as exc:
        kdim = [exc.low, exc.high]
    return {
        "n_sites": op.n_sites,
        "ground_energy": float(w[0]),
        "kernel_dim": kdim,
        "kernel_tol": _KERNEL_TOL,
        "spectrum_head": [float(x) for x in w[:20]],
    }
