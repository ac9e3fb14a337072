"""Dense linear-algebra substrate for the toolkit.

Everything here operates on plain square (or rectangular, for null spaces)
numpy arrays of modest size (up to a few hundred rows), real or complex.
All functions are pure; none mutate their inputs.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

# Relative rank cut for null spaces.  Kernels of the constructions in this
# package are exact, so singular values split sharply; a relative cut keeps
# the split invariant under rescaling of the input.
DEFAULT_NULL_TOL = 1e-10


class ZeroSpectrumError(ValueError):
    """Raised when a dominant-eigenvalue query is made on an all-zero spectrum."""


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the solver diagnostics."""


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-d matrix with nonzero dims, got shape {a.shape}")
    return a


def _as_square(m) -> np.ndarray:
    a = _as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"square matrix required, got shape {a.shape}")
    return a


def phase_fix(v: np.ndarray) -> np.ndarray:
    """Normalize a vector and make its first nonzero component real-positive.

    The sign/phase convention used across the package so eigenvectors and
    kernel bases are reproducible run to run.  "Nonzero" means magnitude
    above 1e-9 times the largest component.
    """
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return v.copy()
    v = v / nrm
    mags = np.abs(v)
    idx = int(np.flatnonzero(mags > 1e-9 * mags.max())[0])
    pivot = v[idx]
    v = v * (np.conj(pivot) / abs(pivot))
    if not np.iscomplexobj(np.asarray(v)) or np.max(np.abs(v.imag)) == 0.0:
        v = v.real
    return v


def null_space(m, tol: float = DEFAULT_NULL_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the right null space of m.

    A singular direction counts as null iff its singular value is at most
    tol times the largest singular value.  Returns an empty list for full
    column rank; for the zero matrix every direction is null.
    """
    return _null_spaces(_as_matrix(m)[None], tol)[0].vectors


class _Kernel(NamedTuple):
    """A kernel basis of _null_spaces with the matrix whose SVD gave it, on which it is re-checked.

    That matrix M is the plain one (cols None): a 2^c times one power of two, c
    the column exponents given to _null_spaces (a itself without them); or the
    balanced form b = R a 2^-bcols of a (_balanced), whose kernel vectors are
    2^cols v with cols = bcols + c.  smax is its largest singular value.
    """

    vectors: list[np.ndarray]
    matrix: np.ndarray
    smax: float
    cols: np.ndarray | None = None

    def residual(self, v: np.ndarray) -> float:
        """||M u|| / (smax ||u||): u = v, or 2^cols v times the power of two that brings its largest
        |entry| into [1/2, 1), formed without overflow; 0 for M = 0."""
        if self.smax == 0.0:
            return 0.0
        if self.cols is not None:
            v = _ldexp(v, self.cols - (self.cols + np.frexp(np.abs(v))[1])[v != 0].max())
        return float(np.linalg.norm(self.matrix @ v) / (self.smax * np.linalg.norm(v)))


def _null_spaces(a: np.ndarray, tol: float, noise: np.ndarray | None = None, cols=None) -> list[_Kernel]:
    """The null_space basis of each matrix of a (G, rows, n) stack, or of each a 2^cols (_Kernel).

    One stacked SVD: numpy's svd runs the same LAPACK call on each matrix of a
    stack, so each basis is bit for bit the one of the matrix alone.  Given the
    (G, n) column exponents cols, it runs on a 2^(cols - max cols), and given
    also noise, a mask of the entries of a within their roundoff of zero, the
    rank is decided instead on the balanced stack (_balanced) of a with those
    entries zeroed, which holds whatever the scales of the rows and columns and
    raises no roundoff to order one.  Where that rank is the plain one the basis
    stays the plain SVD's; elsewhere it comes from the balanced SVD, scaled back
    by its column exponents plus cols (_graded_kernel).
    """
    if not math.isfinite(tol):
        # NaN or inf would call every direction null
        raise ValueError(f"tol must be finite, got {tol}")
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    plain = a if cols is None else _ldexp(a, (cols - cols.max(axis=-1, keepdims=True))[:, None, :])
    _, s, vh = np.linalg.svd(plain)
    out = []
    for m_k, s_k, vh_k in zip(plain, s, vh):
        rank = int(np.sum(s_k > tol * s_k[0]))
        out.append(_Kernel([phase_fix(vh_k[i].conj()) for i in range(rank, a.shape[-1])], m_k, s_k[0]))
    if noise is None:
        return out
    b, bcols = _balanced(np.where(noise, 0, a))
    for g, (b_k, sb_k, cols_k) in enumerate(zip(b, np.linalg.svd(b, compute_uv=False), bcols + cols)):
        rank = int(np.sum(sb_k > tol * sb_k[0]))
        if a.shape[-1] - rank != len(out[g].vectors):
            out[g] = _Kernel(_graded_kernel(b_k, rank, cols_k), b_k, sb_k[0], cols_k)
    return out


def _ldexp(a: np.ndarray, e) -> np.ndarray:
    """a * 2**e, exact down to the normal range, for real and complex a."""
    if np.iscomplexobj(a):
        return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)
    return np.ldexp(a, e)


def _balanced(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b, cols): each row of the (..., rows, cols) stack a, then each column, scaled by a power of two.

    Each row's, then each column's, largest |entry| is brought into [1/2, 1),
    so b = R a 2^-cols with R diagonal and cols <= 0; both scalings are exact
    in floats (down to the normal range) and keep the rank.  A kernel vector x
    of a is 2^-cols y for y one of b, and y = 2^cols x.
    """
    _, rows = np.frexp(np.abs(a).max(axis=-1, keepdims=True))
    b = _ldexp(a, -rows)
    _, cols = np.frexp(np.abs(b).max(axis=-2, keepdims=True))
    return _ldexp(b, -cols), cols[..., 0, :]


def _graded_kernel(b: np.ndarray, rank: int, cols: np.ndarray) -> list[np.ndarray]:
    """Orthonormal kernel of a 2^c from that of the balanced form b = R a 2^-bcols of a (_balanced), cols = bcols + c.

    The kernel of b is scaled back by 2^-cols, shifted by one common power of two
    so that no factor exceeds one (a shift per vector breaks the re-check), and
    orthonormalised by a Householder QR of its coordinates sorted by decreasing
    size, with column pivoting: graded as they are, a plain QR, or a Gram-Schmidt
    in either coordinates, loses the small coordinates against the large ones
    (Cox and Higham, BIT 38 (1998) 34).  Each vector is phase-fixed.
    """
    if rank == b.shape[1]:
        return []
    x = _ldexp(np.linalg.svd(b)[2][rank:].conj(), cols.min() - cols).T
    order = np.argsort(-np.abs(x).max(axis=1), kind="stable")
    q = np.empty_like(x)
    q[order] = scipy.linalg.qr(x[order], mode="economic", pivoting=True)[0]
    return [phase_fix(q[:, i]) for i in range(q.shape[1])]


def eig_all(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every eigenvalue of a square m with its left and right eigenvectors: (w, vl, vr).

    The package's one eigendecomposition with eigenvectors.  dominant_projectors
    takes its projectors from it, and TransferSpectrum its spectral radius as well.
    It is scipy.linalg.eig(m, left=True, right=True) bit for bit, errors included:
    the same LAPACK geev call with the same workspace, and the same assembly of w
    and of complex eigenvector pairs from a real geev's output
    (tests/test_linalg.py compares the two), without scipy's per-call argument
    handling, which costs about as much as geev itself on a 9 x 9 matrix.
    """
    a = np.asarray_chkfinite(_as_square(m))
    w, vl, vr, info = _geev_run(a, True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal eig algorithm (geev)")
    if info > 0:
        raise np.linalg.LinAlgError(
            f"eig algorithm (geev) did not converge (only eigenvalues with order >= {info} have converged)"
        )
    if vr.dtype.kind == "f" and not np.all(w.imag == 0.0):
        vl, vr = _complex_pairs(w, vl), _complex_pairs(w, vr)
    return w, vl, vr


def _geev_run(a: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(w, vl, vr, info) of the one LAPACK geev call of eig_all (vectors) and spectral_radius (none).

    A real geev's w is assembled as scipy.linalg.eig assembles it, wr + 1j wi;
    with no vectors, vl and vr are geev's placeholders.
    """
    geev, lwork = _geev(a.shape[0], a.dtype, vectors)
    flag = int(vectors)
    if geev.typecode in "cz":
        return geev(a, lwork=lwork, compute_vl=flag, compute_vr=flag, overwrite_a=0)
    wr, wi, vl, vr, info = geev(a, lwork=lwork, compute_vl=flag, compute_vr=flag, overwrite_a=0)
    return wr + 1j * wi, vl, vr, info


@functools.lru_cache(maxsize=64)
def _geev(n: int, dtype: np.dtype, vectors: bool):
    """LAPACK's geev for dtype with the workspace size scipy.linalg.eig queries for an n x n matrix:
    for both eigenvector sets (vectors, eig_all) or for none (spectral_radius)."""
    geev, geev_lwork = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), dtype=dtype)
    flag = int(vectors)
    return geev, scipy.linalg.lapack._compute_lwork(geev_lwork, n, compute_vl=flag, compute_vr=flag)


def _complex_pairs(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Complex eigenvectors from a real geev's v, which holds a conjugate pair as its real and
    imaginary columns; the columns that scipy.linalg.eig completes, in the order it does."""
    out = np.array(v, dtype=w.dtype.char)
    pair = w.imag > 0
    pair[:-1] |= w.imag[1:] < 0
    for i in np.flatnonzero(pair):
        out.imag[:, i] = v[:, i + 1]
        np.conj(out[:, i], out[:, i + 1])
    return out


def _geev_keeps_scale(m) -> bool:
    """Whether geev's eigenvalues (eig_all, spectral_radius) are m's own, not those of a rescaled m.

    LAPACK's geev rescales a matrix whose largest entry lies outside
    [sqrt(safe minimum) / precision, its inverse], about [6.7e-139, 1.5e138], and
    the LAPACK that scipy 1.17 bundles (scipy-openblas 0.3.31) then returns the
    rescaled matrix's eigenvalues; the eigenvectors are unaffected.  The bounds
    here keep a factor 1e8 inside those limits.  A non-finite m fails them.
    """
    top = np.abs(m).max()
    return top == 0.0 or 1e-130 <= top <= 1e130


def dominant_projectors(m) -> list[tuple[complex, np.ndarray]]:
    """Spectral projectors of the dominant eigenvalues of m.

    Returns one (eigenvalue, projector) pair per distinct dominant eigenvalue
    (modulus at least (1 - 1e-9) times the largest), built from matched left/right eigenvectors: P = R (L^H R)^{-1} L^H.  The
    trace of each projector equals the eigenvalue's multiplicity.  The one-matrix
    call of _projectors.
    """
    a = _as_square(m)
    return _projectors([eig_all(a)], [a])[0]


def _projectors(eigs, mats) -> list[list[tuple[complex, np.ndarray]]]:
    """dominant_projectors from each (w, vl, vr) of a sequence of eig_all calls on a sequence of matrices mats.

    One list per matrix; TransferSpectrum calls it on the eig_all results it also
    takes rho from.  The dominant groups of all the matrices are bucketed by size
    and eigenvector dtype, and each bucket takes one stacked L^H R, one batched
    inverse and one stacked R (L^H R)^{-1} L^H.  numpy's inv and matmul make, for
    each matrix of a stack, the LAPACK and BLAS call they make for that matrix
    alone, and the stacks keep each group's memory layout, so every projector is
    bit for bit the one a loop over the groups forms.  The first all-zero
    spectrum raises ZeroSpectrumError before any projector is formed.  Where
    geev returns the eigenvalues of a rescaled matrix m (_geev_keeps_scale),
    each eigenvalue is m's own, tr(P m) / tr(P); the projectors are unaffected.
    """
    vals = np.array([w for w, _, _ in eigs])
    mags = np.abs(vals)
    tops = mags.max(axis=1).tolist()
    # Python floats and complex values: the same comparisons, differences and moduli as numpy scalars,
    # without their overhead
    groups: list[list[tuple[complex, list[int]]]] = []
    for top, row, w in zip(tops, mags.tolist(), vals.tolist()):
        if top == 0.0:
            raise ZeroSpectrumError("all-zero spectrum: no dominant eigenvalue")
        cut = (1.0 - 1e-9) * top
        family: list[tuple[complex, list[int]]] = []
        for i, mag in enumerate(row):
            if mag >= cut:
                for lam, grp in family:
                    if abs(w[i] - lam) <= 1e-8 * top:
                        grp.append(i)
                        break
                else:
                    family.append((w[i], [i]))
        groups.append(family)
    buckets: dict[tuple, list[tuple[int, list[int]]]] = {}
    for k, family in enumerate(groups):
        for _, grp in family:
            buckets.setdefault((len(grp), eigs[k][2].dtype.char), []).append((k, grp))
    n = vals.shape[1]
    stacks = {}
    for (size, char), members in buckets.items():
        # eig_all's eigenvectors are Fortran-ordered, as geev writes them, and so are the columns v[:, grp]:
        # rows of the C-ordered stack of the transposes vl^T and vr^T, taken into C-ordered (B, size, n)
        # stacks, keep that layout for every group
        table = np.array([(eigs[k][1].T, eigs[k][2].T) for k, _ in members]).reshape(-1, n)
        at = [(2 * j + side) * n + i for side in (0, 1) for j, (_, grp) in enumerate(members) for i in grp]
        picked = table.take(at, axis=0).reshape(2, len(members), size, n)
        Lh, R = picked[0].conj(), picked[1].swapaxes(-1, -2)
        try:
            overlap_inv = np.linalg.inv(Lh @ R)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(
                "defective dominant eigenvalue: left/right eigenvector overlap is singular"
            ) from exc
        stacks[size, char] = iter(R @ overlap_inv @ Lh)
    out = []
    for k, (family, m) in enumerate(zip(groups, mats)):
        projs = [(lam, next(stacks[len(grp), eigs[k][2].dtype.char])) for lam, grp in family]
        projs.sort(key=lambda p: (-p[0].real, -p[0].imag))
        if not _geev_keeps_scale(m):
            projs = [(complex((p @ m).trace() / p.trace()), p) for _, p in projs]
        out.append(projs)
    return out


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix.

    A float64 or complex128 matrix within geev's scaling limits (_geev_keeps_scale)
    takes its eigenvalues from one LAPACK geev call without eigenvectors, cached as
    eig_all's is (_geev).  That is the call np.linalg.eigvals makes, and the value is
    np.abs(np.linalg.eigvals(m)).max() bit for bit (tests/test_linalg.py compares
    them) without numpy's per-call overhead.  Every other matrix (another dtype, a
    non-finite entry, an entry beyond those limits) takes np.linalg.eigvals itself,
    errors included.
    """
    return _radius(_as_square(m))


def _radius(a: np.ndarray, w: np.ndarray | None = None) -> float:
    """spectral_radius of a square a, from w when given: eig_all's eigenvalues of a.

    geev's eigenvalues, w or those of a direct call, are a's own only within its
    scaling limits (_geev_keeps_scale); outside them, and on a geev failure, the
    radius comes from np.linalg.eigvals, which raises its own error.
    """
    if w is None:
        if a.dtype.char in "dD" and _geev_keeps_scale(a):
            w, _, _, info = _geev_run(a, False)
            w = None if info else w
    elif not _geev_keeps_scale(a):
        w = None
    return float(np.abs(np.linalg.eigvals(a) if w is None else w).max())
