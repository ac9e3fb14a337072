"""Symmetry structure of an MPS family.

Certifies continuous z-rotation invariance through the generator condition
(T)_{ij} A_j = [calT, A_i], finds discrete intertwiners X with
X A_m X^{-1} = A'_m (parity, spin flip), and measures how far the auxiliary
matrices are from transforming as a spherical tensor under a full su(2) pair
of representations.  A failed search never certifies non-invariance; the
conditions checked here are sufficient, not necessary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from . import linalg
from .mps import MpsFamily


@dataclass(frozen=True)
class IntertwinerResult:
    found: bool
    matrix: np.ndarray | None = field(default=None, repr=False)
    residual: float = float("inf")
    condition: float = float("inf")
    diagnosis: str = ""


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def check_generator_condition(mps: MpsFamily, phys_gen: np.ndarray, bond_gen: np.ndarray) -> float:
    """Residual of the invariance condition sum_j (T)_{ij} A_j = [calT, A_i].

    Zero (within 1e-12) certifies invariance of the state under the
    one-parameter group generated by phys_gen.
    """
    t = np.asarray(phys_gen)
    ct = np.asarray(bond_gen)
    if t.shape != (mps.d, mps.d):
        raise ValueError(f"physical generator must be {mps.d} x {mps.d}")
    if ct.shape != (mps.D, mps.D):
        raise ValueError(f"bond generator must be {mps.D} x {mps.D}")
    mats = mps.matrix_stack()
    res = 0.0
    for i in range(mps.d):
        lhs = sum(t[i, j] * mats[j] for j in range(mps.d))
        rhs = ct @ mats[i] - mats[i] @ ct
        res = max(res, _fro(lhs - rhs))
    return res


def solve_bond_generator(mps: MpsFamily, phys_gen: np.ndarray) -> tuple[np.ndarray, float]:
    """Least-squares bond generator for the invariance condition, with residual.

    Solves the linear system for calT; an irreducible residual means no bond
    representation realizes the symmetry on this family.
    """
    t = np.asarray(phys_gen)
    D, d = mps.D, mps.d
    mats = mps.matrix_stack()
    basis = [np.zeros((D, D)) for _ in range(D * D)]
    for idx in range(D * D):
        basis[idx][idx // D, idx % D] = 1.0
    cols = []
    for b in basis:
        cols.append(np.concatenate([(b @ mats[i] - mats[i] @ b).reshape(-1) for i in range(d)]))
    a = np.stack(cols, axis=1)
    rhs = np.concatenate([sum(t[i, j] * mats[j] for j in range(d)).reshape(-1) for i in range(d)])
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    ct = sol.reshape(D, D)
    return ct, check_generator_condition(mps, t, ct)


def find_intertwiner(
    mps: MpsFamily,
    target: dict[str, np.ndarray],
    tol: float = linalg.DEFAULT_NULL_TOL,
) -> IntertwinerResult:
    """Invertible X with X A_m = A'_m X for every label m.

    Solves the stacked commutant-style linear system by null space, filters
    for invertibility, and returns one representative with the package sign
    convention.
    """
    if set(target) != set(mps.labels):
        raise ValueError("target must carry exactly the family labels")
    D = mps.D
    eye = np.eye(D)
    blocks = []
    for lab in mps.labels:
        a = mps.matrices[lab]
        b = np.asarray(target[lab])
        # vec(X A - B X) with row-major vec: (I (x) A^T - B (x) I) vec(X)
        blocks.append(np.kron(eye, a.T) - np.kron(b, eye))
    kernel = linalg.null_space(np.vstack(blocks), tol)
    if not kernel:
        return IntertwinerResult(found=False, diagnosis="no solution: the intertwiner system has full rank")
    candidates = [v.reshape(D, D) for v in kernel]
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(len(kernel))
        mix = sum(c * v for c, v in zip(w, kernel))
        candidates.append((mix / np.linalg.norm(mix)).reshape(D, D))
    best_noninv = None
    for x in candidates:
        cond = np.linalg.cond(x)
        res = max(_fro(x @ mps.matrices[lab] - np.asarray(target[lab]) @ x) for lab in mps.labels)
        if cond < 1e8:
            xf = linalg.phase_fix(x.reshape(-1)).reshape(D, D)
            return IntertwinerResult(found=True, matrix=xf, residual=res, condition=float(cond))
        if best_noninv is None:
            best_noninv = IntertwinerResult(
                found=False,
                residual=res,
                condition=float(cond),
                diagnosis="non-invertible commutant: every solution is singular",
            )
    return best_noninv


def spherical_tensor_residual(mps: MpsFamily, bond_rep) -> float:
    """Deviation of the auxiliary matrices from spherical-tensor behaviour.

    bond_rep is a triple (calT_z, calT_+, calT_-) that must satisfy the su(2)
    relations to 1e-10.  Returns the largest residual of
    [T_z, A_m] = m A_m, [T_+, A_m] = sqrt(2 - m(m+1)) A_{m+1} and
    [T_-, A_m] = sqrt(2 - m(m-1)) A_{m-1} over all m, for a spin-1 family.
    """
    if mps.d != 3:
        raise ValueError("spherical-tensor check is defined for spin-1 families (d=3)")
    tz, tp, tm = (np.asarray(t) for t in bond_rep)
    su2_res = max(
        _fro(tz @ tp - tp @ tz - tp),
        _fro(tz @ tm - tm @ tz + tm),
        _fro(tp @ tm - tm @ tp - 2 * tz),
    )
    if su2_res > 1e-10:
        raise ValueError(f"bond_rep does not satisfy su(2) commutation relations (residual {su2_res:.3e})")
    by_m = {1: mps.matrices[mps.labels[0]], 0: mps.matrices[mps.labels[1]], -1: mps.matrices[mps.labels[2]]}
    zero = np.zeros_like(by_m[0])
    res = 0.0
    for m, a in by_m.items():
        res = max(res, _fro(tz @ a - a @ tz - m * a))
        up = by_m.get(m + 1, zero)
        res = max(res, _fro(tp @ a - a @ tp - sqrt(max(2 - m * (m + 1), 0)) * up))
        down = by_m.get(m - 1, zero)
        res = max(res, _fro(tm @ a - a @ tm - sqrt(max(2 - m * (m - 1), 0)) * down))
    return res
