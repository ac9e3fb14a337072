"""The solvable spin-1 families and their closed-form results.

The three-parameter family has auxiliary matrices

    A_1 = superdiag(1, 1),   A_0 = diag(g, h, g),   A_-1 = subdiag(c, c),

is invariant under z rotations, parity and spin flip, and supports a
nearest-neighbor parent Hamiltonian exactly when the two-site word matrix is
singular.  Two one-parameter specializations are solvable end to end:
model I (h = sqrt(2) g) and model II (h = g, where A_0 = g * identity).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite, log, sqrt

import numpy as np

from . import ed, spin
from .mps import MpsFamily, _refuse_past_budget, _stacked_families, _word_columns
from .parent import LocalHamiltonian, local_hamiltonian_from_vectors

_LABELS = spin.LABELS


def _general_stack(g, h, c) -> np.ndarray:
    """The (..., 3, 3, 3) stack of the family's A_1, A_0, A_-1, broadcast over arrays of g, h and c."""
    g, h, c = (np.asarray(x, dtype=float) for x in (g, h, c))
    mats = np.zeros(np.broadcast(g, h, c).shape + (3, 3, 3))
    mats[..., 0, 0, 1] = mats[..., 0, 1, 2] = 1.0
    mats[..., 1, 0, 0] = mats[..., 1, 2, 2] = g
    mats[..., 1, 1, 1] = h
    mats[..., 2, 1, 0] = mats[..., 2, 2, 1] = c
    return mats


def general_family(g: float, h: float, c: float) -> MpsFamily:
    """The three-parameter spin-1 family with bond dimension 3."""
    return _stacked_families(_LABELS, _general_stack([g], [h], [c]), [{"g": float(g), "h": float(h), "c": float(c)}])[0]


def model_I(g: float) -> MpsFamily:
    """Model I: A_0 = g diag(1, sqrt(2), 1), c = 1."""
    return model_families("I", [g])[0]


def model_II(g: float) -> MpsFamily:
    """Model II: A_0 = g * identity, c = 1."""
    return model_families("II", [g])[0]


def model_families(which: str, g_values) -> list[MpsFamily]:
    """model_I (which "I") or model_II (which "II") at each g of g_values, in order.

    One (G, 3, 3, 3) stack holds the matrices of them all; it is checked once,
    and each family holds its entry of the stack without a copy.  The first
    refused g raises its error before any family is made, with no numpy warning
    where model I's h = sqrt(2) g overflows.
    """
    gs = np.asarray(g_values, dtype=float)
    with np.errstate(over="ignore"):
        h = {"I": sqrt(2.0) * gs, "II": gs}[which]
    return _stacked_families(_LABELS, _general_stack(gs, h, 1.0), [{"g": g} for g in gs.tolist()])


def aklt_family() -> MpsFamily:
    """The bond-dimension-2 family underlying the spin-1 valence-bond chain."""
    a1 = np.array([[0.0, -sqrt(2.0)], [0.0, 0.0]])
    a0 = np.diag([1.0, -1.0])
    am = np.array([[0.0, 0.0], [sqrt(2.0), 0.0]])
    return MpsFamily(d=3, D=2, labels=_LABELS, matrices={"1": a1, "0": a0, "-1": am})


def model_I_null_vector(g: float) -> np.ndarray:
    """The one-dimensional two-site kernel of model I, normalized:
    |00> - g^2 |1,-1> - g^2 |-1,1>."""
    e = np.zeros(9)
    e[4] = 1.0
    e[2] = -g * g
    e[6] = -g * g
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(e)
    if not np.isfinite(norm):
        raise ValueError(f"the model I null vector's norm overflows or is not finite at g = {g!r}")
    return e / norm


def model_I_hamiltonian(g: float) -> LocalHamiltonian:
    """Unit-coupling projector onto the model I two-site kernel.

    The singular prefactor 1/(1-g^2)^2 sometimes attached to this projector is
    a coupling choice and is deliberately not baked in; pass couplings
    explicitly if you want it.
    """
    return local_hamiltonian_from_vectors([model_I_null_vector(g)], k=2)


def model_II_null_vectors(sigma: int = 1) -> list[np.ndarray]:
    """The two-dimensional two-site kernel (|01> - s|10>)/sqrt2, (|0,-1> - s|-1,0>)/sqrt2.

    sigma = +1 belongs to h = g; sigma = -1 to the sign-flipped variant h = -g.
    """
    if sigma not in (1, -1):
        raise ValueError("sigma must be +1 or -1")
    e1 = np.zeros(9)
    e1[1] = 1.0
    e1[3] = -float(sigma)
    e2 = np.zeros(9)
    e2[5] = 1.0
    e2[7] = -float(sigma)
    return [e1 / sqrt(2.0), e2 / sqrt(2.0)]


def model_II_hamiltonian(sigma: int = 1) -> LocalHamiltonian:
    """Unit-coupling projector sum onto the model II two-site kernel."""
    return local_hamiltonian_from_vectors(model_II_null_vectors(sigma), k=2)


# ---------------------------------------------------------------------------
# det(M) classification of the general family


def det_word_matrix(g, h, c):
    """Numeric determinant of the 9 x 9 two-site word matrix of the family.

    Broadcasts over arrays of g, h and c, taking every determinant in one call;
    scalar parameters give a float.
    """
    mats = _general_stack(g, h, c)
    det = np.linalg.det(_word_columns(mats, 2, "word-matrix"))
    return float(det) if det.ndim == 0 else det


def det_closed_form(g: float, h: float, c: float) -> float:
    """Quoted closed form (g^2-h^2)^2 (2g^2-h^2) c^4 for the word-matrix determinant.

    Note: the determinant itself is proportional to c^6, not c^4 (the five
    two-site words containing A_-1 contribute six powers of c in total); see
    det_exact_form.  This expression is kept verbatim because the acceptance
    battery pins it; the two agree exactly on the c = 0, +-1 slices and share
    the same vanishing locus.
    """
    return (g * g - h * h) ** 2 * (2 * g * g - h * h) * c**4


def det_exact_form(g: float, h: float, c: float) -> float:
    """Exact closed form of the word-matrix determinant: (g^2-h^2)^2 (2g^2-h^2) c^6."""
    return (g * g - h * h) ** 2 * (2 * g * g - h * h) * c**6


# ---------------------------------------------------------------------------
# Model I closed-form correlators


@dataclass(frozen=True)
class ClosedFormCorrelatorsI:
    """Thermodynamic-limit observables of model I at parameter g.

    gamma = sqrt(g^4 + 8); sz2/sx2 are <S_z^2>, <S_x^2>; g_par/g_perp the
    nearest-neighbor correlation magnitudes; xi_par/xi_perp the correlation
    lengths; degenerate marks the g = 0 limit where the longitudinal length
    collapses to zero and transverse correlations vanish.
    """

    g: float
    gamma: float
    sz2: float
    sx2: float
    g_par: float
    g_perp: float
    xi_par: float
    xi_perp: float
    degenerate: bool = False


def closed_form_correlators_I(g: float) -> ClosedFormCorrelatorsI:
    """Evaluate the model I closed forms at parameter g (g enters via g^2 only).

    Raises ValueError, naming g, where floats cannot hold them: at a g that is not
    finite, and where a product on the way overflows.  The largest one is G_perp's
    denominator gamma (3 g^2 + gamma)^2 (g^2 + gamma) ~ 32 g^8, which overflows first,
    from about |g| = 2.2e38 on; below that every product is finite.
    """
    g2 = g * g
    gamma = sqrt(g2 * g2 + 8.0)
    try:
        lam2 = (3 * g2 + gamma) ** 2
    except OverflowError:
        lam2 = inf
    if not isfinite(gamma * lam2 * (g2 + gamma)):
        raise ValueError(f"the model I closed forms overflow or are not finite at g = {float(g)!r}")
    denom = gamma * (3 * g2 + gamma)
    sz2 = 8.0 / denom
    sx2 = (g2 * (3 * gamma + g2) + 4.0) / denom
    g_par = -4.0 * (g2 + gamma) / (gamma * lam2)
    xi_perp = 1.0 / log((3 * g2 + gamma) / (2 + 2 * sqrt(2.0) * g2))
    if g2 == 0.0:
        return ClosedFormCorrelatorsI(
            g=g, gamma=gamma, sz2=sz2, sx2=sx2, g_par=g_par, g_perp=0.0,
            xi_par=0.0, xi_perp=xi_perp, degenerate=True,
        )
    g_perp = 8.0 * g2 * (g2 + sqrt(2.0) + gamma) ** 2 / (gamma * lam2 * (g2 + gamma))
    xi_par = 1.0 / log((3 * g2 + gamma) / (2 * g2))
    return ClosedFormCorrelatorsI(
        g=g, gamma=gamma, sz2=sz2, sx2=sx2, g_par=g_par, g_perp=g_perp,
        xi_par=xi_par, xi_perp=xi_perp,
    )


# ---------------------------------------------------------------------------
# Limit Hamiltonians and spin-operator forms


def _two_site_ops() -> dict[str, np.ndarray]:
    """Spin-operator basis on two sites used by the decompositions."""
    sz2_op = spin.SZ2
    ss = (np.kron(spin.SX, spin.SX) + np.kron(spin.SY, spin.SY) + np.kron(spin.SZ, spin.SZ)).real
    szsz = np.kron(spin.SZ, spin.SZ)
    return {
        "sz2_left": np.kron(sz2_op, spin.ID3),
        "sz2sz2": np.kron(sz2_op, sz2_op),
        "ss": ss,
        "ss2": ss @ ss,
        "anticomm": ss @ szsz + szsz @ ss,
        "szsz": szsz,
    }


def limit_hamiltonian_h1() -> LocalHamiltonian:
    """Two-site term (S_z^2 - 1)(x)(S_z'^2 - 1) = |00><00| of the Ising-like limit."""
    e00 = np.zeros(9)
    e00[4] = 1.0
    return local_hamiltonian_from_vectors([e00], k=2)


def limit_hamiltonian_h2() -> LocalHamiltonian:
    """Two-site term (S.S')^2 - 1, i.e. three times the singlet projector."""
    singlet = np.zeros(9)
    singlet[2] = 1.0 / sqrt(3.0)
    singlet[4] = -1.0 / sqrt(3.0)
    singlet[6] = 1.0 / sqrt(3.0)
    return local_hamiltonian_from_vectors([singlet], k=2, couplings=[3.0])


@dataclass(frozen=True)
class SpinFormDecomposition:
    """Least-squares expansion of a projector chain in spin-operator chain terms."""

    n_sites: int
    coefficients: dict[str, float]
    residual: float


_SPIN_FORM_NAMES = ("identity", "sz2", "sz2sz2", "ss", "ss2", "anticomm", "szsz")


def _chain_basis(n_sites: int) -> dict[str, np.ndarray]:
    """Full-chain operators: identity plus periodic sums of the two-site basis."""
    ops = _two_site_ops()
    out = {"identity": np.eye(3**n_sites)}
    for name in _SPIN_FORM_NAMES[1:]:
        local = ops["sz2_left"] if name == "sz2" else ops[name]
        out[name] = ed.dense_chain(local, 2, n_sites)
    return out


def spin_form_decompose(h: LocalHamiltonian, n_sites: int = 4) -> SpinFormDecomposition:
    """Expand the full periodic chain of h over the spin-operator family.

    The family is {1, sum S_z^2, sum S_z^2 S_z'^2, sum S.S', sum (S.S')^2, sum {S.S', S_z S_z'},
    sum S_z S_z'}.  Comparing whole chains (default N = 4) sidesteps the bond-versus-site
    attribution ambiguity of one-site terms.  A residual above tolerance means "no representation
    in this operator family" and is reported, not hidden.  Where the target, the identity, the six
    chain sums and their (9^N, 7) stack, held at once, pass the byte budget, it is refused first.
    """
    if h.k != 2:
        raise ValueError("spin-form decomposition is defined for two-site terms")
    if n_sites % 2 or n_sites < 4:
        raise ValueError("use an even reference chain of at least 4 sites")
    _refuse_past_budget(f"spin-form decomposition at n_sites {n_sites}", 9**n_sites * (h.matrix.itemsize + 112))
    target = ed.dense_chain(h.matrix, 2, n_sites).reshape(-1)
    basis = _chain_basis(n_sites)
    b = np.stack([basis[name].reshape(-1) for name in _SPIN_FORM_NAMES], axis=1)
    coef, *_ = np.linalg.lstsq(b, target, rcond=None)
    residual = float(np.linalg.norm(b @ coef - target))
    return SpinFormDecomposition(
        n_sites=n_sites,
        coefficients={name: float(c) for name, c in zip(_SPIN_FORM_NAMES, coef)},
        residual=residual,
    )


def spin_form_reference(which: str, g: float | None = None, n_sites: int = 4) -> dict[str, float]:
    """Reference coefficient vectors the projector chains are compared against.

    'II': the exact spin form of the model II chain (it equals 2 x the
    unit-coupling projector chain).  'I': the quoted interpolating form with
    u = g^2/(1-g^2); known not to reproduce the projector chain (it fails on
    the all-ones configuration, see spin_form_report), kept for the
    documented comparison.  'h1': the g = 0 Ising-like limit.
    """
    zero = {name: 0.0 for name in _SPIN_FORM_NAMES}
    if which == "II":
        return zero | {"sz2": 2.0, "anticomm": -1.0, "ss": -1.0, "szsz": 1.0}
    if which == "h1":
        return zero | {"identity": float(n_sites), "sz2": -2.0, "sz2sz2": 1.0}
    if which == "I":
        if g is None:
            raise ValueError("model I reference needs g")
        if abs(1.0 - g * g) < 1e-12:
            raise ValueError("the quoted model I form is singular at g = 1")
        u = g * g / (1.0 - g * g)
        return zero | {
            "identity": (1.0 - u * u) * n_sites,
            "sz2": -2.0 * (1.0 + 2.0 * u),
            "sz2sz2": 1.0,
            "ss2": u * u,
            "anticomm": u,
        }
    raise ValueError(f"unknown reference {which!r}")


def scale_match(fitted: dict[str, float], reference: dict[str, float]) -> tuple[float, float]:
    """Best positive scale s minimizing ||s*fitted - reference||, with the max deviation."""
    f = np.array([fitted.get(name, 0.0) for name in _SPIN_FORM_NAMES])
    r = np.array([reference.get(name, 0.0) for name in _SPIN_FORM_NAMES])
    ff = float(f @ f)
    if ff == 0.0:
        return 0.0, float(np.max(np.abs(r)))
    s = float(f @ r) / ff
    return s, float(np.max(np.abs(s * f - r)))


def spin_form_report(g: float, n_sites: int = 4) -> dict:
    """Decompose the model I projector chain and compare with the quoted form.

    Returns the fitted coefficients, the fit residual, the best-scale deviation
    from the quoted u-form, and the energy the two forms assign to the
    all-ones configuration (the projector chain gives 0; the quoted form gives
    -2uN, which is the documented discrepancy).
    """
    dec = spin_form_decompose(model_I_hamiltonian(g), n_sites)
    out = {
        "g": g,
        "n_sites": n_sites,
        "coefficients": dec.coefficients,
        "fit_residual": dec.residual,
        "all_ones_energy_projector": 0.0,
    }
    if abs(1.0 - g * g) > 1e-12:
        ref = spin_form_reference("I", g, n_sites)
        scale, dev = scale_match(dec.coefficients, ref)
        u = g * g / (1.0 - g * g)
        out.update({
            "reference_scale": scale,
            "reference_max_deviation": dev,
            "all_ones_energy_reference": -2.0 * u * n_sites,
        })
    else:
        out["reference_max_deviation"] = None
    return out


# ---------------------------------------------------------------------------
# Ground-state degeneracy of the Ising-like limit


_ADJACENCY = ((1, 1, 1), (1, 0, 1), (1, 1, 1))


def adjacency_ground_count(n_sites: int) -> int:
    """tr(A^N) for the 0/1 matrix of allowed neighbor pairs, exact integers.

    Counts the cyclic spin strings with no two adjacent zeros: the kernel
    dimension of the Ising-like limit chain.
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    a = _ADJACENCY
    power = a
    for _ in range(n_sites - 1):
        power = [[sum(power[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return sum(power[i][i] for i in range(3))


# ---------------------------------------------------------------------------
# Sign-flipped variant equivalence


@dataclass(frozen=True)
class SigmaEquivalenceReport:
    n_sites: int
    local_conjugation_residual: float
    spectrum_deviation: float


def rz_pi() -> np.ndarray:
    """One-site rotation by pi around z: diag(-1, 1, -1) for spin 1."""
    return np.diag([-1.0, 1.0, -1.0])


def sigma_equivalence_check(n_sites: int) -> SigmaEquivalenceReport:
    """Iso-spectrality of the sigma = +1 and sigma = -1 model II chains.

    Checks the local identity h(-1) = (1 (x) R_z(pi)) h(+1) (1 (x) R_z(pi))^-1
    and compares the full sorted spectra of the two dense chains (dense_matrix,
    each diagonalized whole); needs an even ring so the alternating rotation
    on odd sites closes.
    """
    if n_sites % 2:
        raise ValueError("n_sites must be even for the alternating-rotation argument")
    h_plus = model_II_hamiltonian(1)
    h_minus = model_II_hamiltonian(-1)
    conj = np.kron(spin.ID3, rz_pi())
    local_res = float(np.max(np.abs(h_minus.matrix - conj @ h_plus.matrix @ np.linalg.inv(conj))))
    spec_plus, spec_minus = (np.sort(np.linalg.eigvalsh(ed.dense_matrix(ed.ChainOperator(n_sites, h))))
                             for h in (h_plus, h_minus))
    return SigmaEquivalenceReport(
        n_sites=n_sites,
        local_conjugation_residual=local_res,
        spectrum_deviation=float(np.max(np.abs(spec_plus - spec_minus))),
    )


# ---------------------------------------------------------------------------
# Sweep export


def closed_form_sweep_text(g_values) -> str:
    """CSV of the model I closed forms, one row per (g, quantity), 17 significant digits."""
    lines = ["g,quantity,value"]
    for g in g_values:
        cf = closed_form_correlators_I(g)
        values = {
            "sz2": cf.sz2, "sx2": cf.sx2, "G_par": cf.g_par,
            "G_perp": cf.g_perp, "xi_par": cf.xi_par, "xi_perp": cf.xi_perp,
        }
        for q, v in values.items():
            lines.append(f"{float(g):.17g},{q},{v:.17g}")
    return "\n".join(lines) + "\n"


def write_closed_form_sweep(path, g_values) -> None:
    """Write closed_form_sweep_text(g_values) to path."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(closed_form_sweep_text(g_values))
