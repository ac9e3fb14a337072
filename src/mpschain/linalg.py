"""Dense linear-algebra substrate for the toolkit.

Everything here operates on plain square (or rectangular, for null spaces)
numpy arrays of modest size (up to a few hundred rows), real or complex.
All functions are pure; none mutate their inputs.
"""

from __future__ import annotations

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


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def phase_fix(v: np.ndarray, zero_tol: float = 1e-9) -> np.ndarray:
    """Normalize a vector and make its first nonzero component real-positive.

    The sign/phase convention used across the package so eigenvectors and
    kernel bases are reproducible run to run.  "Nonzero" means magnitude
    above zero_tol times the largest component.
    """
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return v.copy()
    v = v / nrm
    mags = np.abs(v)
    idx = int(np.flatnonzero(mags > zero_tol * mags.max())[0])
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
    a = _as_matrix(m)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    _, s, vh = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax))
    return [phase_fix(vh[i].conj()) for i in range(rank, a.shape[1])]


def dominant_projectors(m, rel_tol: float = 1e-9) -> list[tuple[complex, np.ndarray]]:
    """Spectral projectors of the dominant eigenvalues of m.

    Returns one (eigenvalue, projector) pair per distinct dominant eigenvalue,
    built from matched left/right eigenvectors: P = R (L^H R)^{-1} L^H.  The
    trace of each projector equals the eigenvalue's multiplicity.
    """
    a = _as_square(m)
    vals, vl, vr = scipy.linalg.eig(a, left=True, right=True)
    mags = np.abs(vals)
    top = mags.max()
    if top == 0.0:
        raise ZeroSpectrumError("all-zero spectrum: no dominant eigenvalue")
    keep = np.flatnonzero(mags >= (1.0 - rel_tol) * top)
    groups: list[list[int]] = []
    for i in keep:
        for grp in groups:
            if abs(vals[i] - vals[grp[0]]) <= 1e-8 * top:
                grp.append(i)
                break
        else:
            groups.append([int(i)])
    out = []
    for grp in groups:
        R = vr[:, grp]
        Lh = vl[:, grp].conj().T
        try:
            overlap_inv = np.linalg.inv(Lh @ R)
        except np.linalg.LinAlgError as exc:
            raise EigenConvergenceError(
                "defective dominant eigenvalue: left/right eigenvector overlap is singular"
            ) from exc
        out.append((complex(vals[grp[0]]), R @ overlap_inv @ Lh))
    out.sort(key=lambda p: (-p[0].real, -p[0].imag))
    return out


def trace_power(m, n: int):
    """tr(m**n) for integer n >= 1, by repeated squaring (exact for defective m)."""
    a = _as_square(m)
    if n < 1:
        raise ValueError("n must be >= 1")
    tot = np.trace(np.linalg.matrix_power(a, n))
    return complex(tot) if np.iscomplexobj(a) else float(tot)


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    a = _as_square(m)
    if not a.any():
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))
