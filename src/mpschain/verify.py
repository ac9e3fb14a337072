"""The checks behind `mpschain verify` and the acceptance battery.

The battery reads the same suites and shared pieces at its own pinned inputs.
Library names are looked up through their modules at call time, so a patched
builder such as `models.model_I_hamiltonian` reaches every suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import genstate, linalg, models, mps, parent, spin, symmetry

#: Suite names in report order, as `mpschain verify --suite` takes them.
SUITES = ("frustration", "formulas", "genstate", "symmetry", "appendixA")


@dataclass(frozen=True)
class Check:
    """One certified value: it passes when value <= tolerance, or value > tolerance for ">"."""

    name: str
    value: float
    tolerance: float
    comparison: str = "<="

    @property
    def passed(self) -> bool:
        return bool(self.value > self.tolerance if self.comparison == ">" else self.value <= self.tolerance)


def frustration_suite(n_sites: int, g_values) -> list[Check]:
    """Zero-energy residuals of the model I, then the model II, chain on n_sites.

    Each model takes one stacked amplitude map of its families and one stacked chain residual,
    with the per-g model I Hamiltonians as one stack of local terms and the g-independent model II
    Hamiltonian shared.  No g value gives no check.
    """
    if len(g_values) == 0:
        return []
    checks = []
    for which in ("I", "II"):
        fams = models.model_families(which, g_values)
        hams = [models.model_I_hamiltonian(g) for g in g_values] if which == "I" else [models.model_II_hamiltonian()]
        matrix = hams[0].matrix if len(hams) == 1 else np.array([h.matrix for h in hams])
        states = mps._amplitudes(mps._matrix_stack(fams), n_sites)
        residuals = parent._chain_residuals(matrix, hams[0].k, n_sites, states)
        checks += [Check(f"model {which} g={g:g} N={n_sites} zero-energy residual", res, 1e-10)
                   for g, res in zip(g_values, residuals)]
    return checks


def closed_form_deviations(g: float) -> tuple[float, float, float]:
    """|closed form - transfer value| of model I <Sz^2>, <Sx^2> and G_par (adjacent zz) at g."""
    closed = models.closed_form_correlators_I(g)
    return _closed_form_deviations([closed], mps.TransferSpectrum(models.model_families("I", [g])))[0]


def _closed_form_deviations(closed, spectrum: mps.TransferSpectrum) -> list[tuple[float, float, float]]:
    """closed_form_deviations of each model I closed form of closed against the family of its row
    of a stacked model I spectrum; rows past the last closed form are left out."""
    sz2 = spectrum.thermo_one_point(spin.sz2())
    sx2 = spectrum.thermo_one_point(spin.sx2())
    g_par = [mps._raise_first(v, mps._LIMIT_ERRORS)[0] for v in spectrum.two_point_sweep(spin.sz(), spin.sz(), [1])]
    return [(abs(cf.sz2 - a), abs(cf.sx2 - b), abs(cf.g_par - c)) for cf, a, b, c in zip(closed, sz2, sx2, g_par)]


#: The separations of the fitted correlation lengths.
_FIT_RS = range(2, 13)


def fitted_correlation_lengths(g: float) -> tuple[float, float]:
    """Model I (xi_par, xi_perp) from log-linear fits of |zz| and |xx| over r = 2..12."""
    return _fitted_lengths(mps.TransferSpectrum([models.model_I(g)]), 0)


def _fitted_lengths(spectrum: mps.TransferSpectrum, row: int) -> tuple[float, float]:
    """fitted_correlation_lengths of the family of row of a stacked spectrum."""
    rs = np.arange(_FIT_RS.start, _FIT_RS.stop)
    xis = []
    for obs in (spin.sz(), spin.sx()):
        corr = np.array(mps._raise_first(spectrum.two_point_sweep(obs, obs, _FIT_RS)[row]))
        xis.append(-1.0 / np.polyfit(rs, np.log(np.abs(corr)), 1)[0])
    return xis[0], xis[1]


#: The (g, h, c) of the root families, whose two-site word matrix is singular.
_ROOT_FAMILIES = ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 2**0.5, 1.0), (1.0, -(2**0.5), 1.0), (1.0, 2.0, 0.0))


def _det_deviation(samples: np.ndarray) -> float:
    """Largest |det(word matrix) - det_exact_form| / max(1, |det_exact_form|) over the (g, h, c) rows
    of samples, from one stacked determinant and det_exact_form per row."""
    closed = np.array([models.det_exact_form(g, h, c) for g, h, c in samples.tolist()])
    deviation = np.abs(models.det_word_matrix(*samples.T) - closed) / np.maximum(1.0, np.abs(closed))
    return float(np.max(deviation, initial=0.0))


#: The g values of the formulas suite's closed-form checks; the g = 1 family also gives the fitted lengths.
FORMULAS_G = (0.3, 0.7, 1.0, 1.5, 2.0)


def formulas_suite() -> list[Check]:
    """Model I closed forms and fitted lengths, the word-matrix determinant, the root-family kernels.

    The closed-form deviations at FORMULAS_G and the g = 1 fitted lengths come from one stacked
    spectrum, and the root-family kernels from one stacked null space.
    """
    checks = []
    closed_forms = [models.closed_form_correlators_I(g) for g in FORMULAS_G]
    spectrum = mps.TransferSpectrum(models.model_families("I", FORMULAS_G))
    deviations = _closed_form_deviations(closed_forms, spectrum)
    xi_par, xi_perp = _fitted_lengths(spectrum, FORMULAS_G.index(1.0))
    for g, (dev_sz2, dev_sx2, dev_gpar) in zip(FORMULAS_G, deviations):
        checks.append(Check(f"model I g={g:g} <Sz^2> closed vs transfer", dev_sz2, 1e-8))
        checks.append(Check(f"model I g={g:g} <Sx^2> closed vs transfer", dev_sx2, 1e-8))
        checks.append(Check(f"model I g={g:g} G_par vs adjacent zz", dev_gpar, 1e-8))
    cf1 = models.closed_form_correlators_I(1.0)
    checks.append(Check("model I g=1 fitted xi_par vs closed form", abs(xi_par - cf1.xi_par), 1e-3))
    checks.append(Check("model I g=1 fitted xi_perp vs closed form", abs(xi_perp - cf1.xi_perp), 1e-3))
    samples = np.random.default_rng(42).uniform(-2.0, 2.0, (100, 3))
    checks.append(Check("det(word matrix) vs exact closed form, 100 samples", _det_deviation(samples), 1e-9))
    roots = parent._ground_null_spaces([models.general_family(g, h, c) for g, h, c in _ROOT_FAMILIES], 2)
    for (g, h, c), basis in zip(_ROOT_FAMILIES, roots):
        checks.append(Check(f"kernel at root family (g={g:g},h={h:.4g},c={c:g})", float(basis.dim), 0.5, ">"))
    return checks


def _sectors(n_sites: int) -> list[genstate.PsiN]:
    """The expanded psi_n of every even zero count n = 0, 2, ..., N, in order."""
    return [genstate.psi_n_expand(n_sites, z) for z in range(0, n_sites + 1, 2)]


def sector_agreement(n_sites: int) -> list[tuple[bool, float]]:
    """(closed forms equal the oracle exactly, ||H psi_n|| / ||psi_n||) per even zero count.

    Both come from one expansion of psi_n; H is the model II chain.
    """
    return _sector_agreement(n_sites, _sectors(n_sites))


def _sector_agreement(n_sites: int, sectors: list[genstate.PsiN]) -> list[tuple[bool, float]]:
    """sector_agreement of the expanded sectors: each sector's oracle values at every separation
    from one pass over its strings, the residuals from one stacked chain residual."""
    h_ii = models.model_II_hamiltonian()
    rs = range(2, n_sites)
    oks = []
    for psi in sectors:
        z = psi.zeros
        oracle = genstate._expectations(psi, ("sz2", "sperp2", "zz", "xx", "sz2sz2"), rs)
        oks.append(
            genstate.psi_n_norm(n_sites, z) == psi.norm_sq()
            and genstate.corr_sz2(n_sites, z) == oracle["sz2"]
            and genstate.corr_sperp2(n_sites, z) == oracle["sperp2"]
            and [genstate.corr_zz(n_sites, z, r) for r in rs] == oracle["zz"]
            and [genstate.corr_xx(n_sites, z, r) for r in rs] == oracle["xx"]
            and oracle["sz2sz2"] == [genstate.corr_sz2sz2(n_sites, z)] * len(rs)
        )
    states = np.array([psi.vector() for psi in sectors])
    return list(zip(oks, parent._chain_residuals(h_ii.matrix, h_ii.k, n_sites, states)))


def generating_identity_deviation(n_sites: int, g_values) -> float:
    """Largest |model II amplitude - g**zeros * trace| over every string and g; 0 means exact."""
    return _generating_identity_deviation(n_sites, _sectors(n_sites), g_values)


def _generating_identity_deviation(n_sites: int, sectors: list[genstate.PsiN], g_values) -> float:
    """generating_identity_deviation of the expanded sectors, the amplitude maps from one stacked call."""
    if len(g_values) == 0:
        return 0.0
    fams = models.model_families("II", g_values)
    recons = np.zeros((len(g_values), 3**n_sites))
    for recon, g in zip(recons, g_values):
        for psi in sectors:
            recon[psi.index] = (g**psi.zeros) * psi.values
    worst = 0.0
    for recon, amps in zip(recons, mps._amplitudes(mps._matrix_stack(fams), n_sites)):
        worst = max(worst, float(np.max(np.abs(amps - recon))))
    return worst


def genstate_suite(n_sites: int) -> list[Check]:
    """psi_n formulas vs oracle, chain annihilation, the generating identity, the thermodynamic laws.

    Each psi_n sector is expanded once, for both the sector checks and the generating identity.
    """
    sectors = _sectors(n_sites)
    agreement = _sector_agreement(n_sites, sectors)
    return [
        Check(f"N={n_sites} formula vs oracle exact agreement (0 = exact)",
              max(0.0 if ok else 1.0 for ok, _ in agreement), 0.0),
        Check(f"N={n_sites} every psi_n annihilated by the chain", max(0.0, *(res for _, res in agreement)), 1e-10),
        Check(f"N={n_sites} generating identity (exact for integer g)",
              _generating_identity_deviation(n_sites, sectors, (1.0, 2.0, 3.0)), 0.0),
        Check("thermo zz at r=2 equals -1/2", abs(genstate.thermo_corr(2, 2, "zz") + 0.5), 1e-12),
        Check("thermo zz at r=5 vanishes", abs(genstate.thermo_corr(2, 5, "zz")), 1e-12),
        Check("thermo xx vanishes", abs(genstate.thermo_corr(2, 3, "xx")), 1e-12),
    ]


def z_rotation_residual(fam: mps.MpsFamily) -> float:
    """Generator-condition residual of S_z with the bond generator diag(1, 0, -1)."""
    return symmetry.check_generator_condition(fam, spin.SZ, np.diag([1.0, 0.0, -1.0]))


def _intertwiner_deviation(fam: mps.MpsFamily, target, expected: np.ndarray) -> float:
    res = symmetry.find_intertwiner(fam, target)
    return float(np.max(np.abs(res.matrix - expected))) if res.found else float("inf")


def parity_deviation(fam: mps.MpsFamily, expected: np.ndarray) -> float:
    """Largest entry deviation of the parity intertwiner (A_m -> A_m^T) from expected; inf if none."""
    return _intertwiner_deviation(fam, {lab: fam.matrices[lab].T for lab in fam.labels}, expected)


def spin_flip_deviation(fam: mps.MpsFamily, expected: np.ndarray) -> float:
    """Largest entry deviation of the spin-flip intertwiner (A_m -> A_-m) from expected; inf if none."""
    target = {"1": fam.matrices["-1"], "0": fam.matrices["0"], "-1": fam.matrices["1"]}
    return _intertwiner_deviation(fam, target, expected)


def symmetry_suite() -> list[Check]:
    """z rotations of models I and II, the c=1 parity and spin-flip intertwiners, spherical residuals."""
    fam = models.general_family(0.8, 0.8 * 2**0.5, 1.0)
    antidiagonal = linalg.phase_fix(np.fliplr(np.eye(3)).reshape(-1)).reshape(3, 3)
    return [
        Check("model I z-rotation generator condition", z_rotation_residual(models.model_I(0.7)), 1e-12),
        Check("model II z-rotation generator condition", z_rotation_residual(models.model_II(1.3)), 1e-12),
        Check("parity intertwiner matches the antidiagonal form", parity_deviation(fam, antidiagonal), 1e-9),
        Check("spin-flip intertwiner matches the antidiagonal form (c=1)",
              spin_flip_deviation(fam, antidiagonal), 1e-9),
        Check("valence-bond family spherical-tensor residual",
              symmetry.spherical_tensor_residual(models.aklt_family(), spin.spin_generators(0.5)), 1e-10),
        Check("model I g=1 spherical-tensor residual (symmetry breaking)",
              symmetry.spherical_tensor_residual(models.model_I(1.0), spin.spin_generators(1.0)), 0.1, ">"),
    ]


def appendix_a_suite(n_sites: int) -> list[Check]:
    """The local conjugation identity and the sorted spectra of the two model II sign variants."""
    rep = models.sigma_equivalence_check(n_sites)
    return [
        Check(f"N={n_sites} local conjugation identity", rep.local_conjugation_residual, 1e-12),
        Check(f"N={n_sites} sorted spectra of the two sign variants", rep.spectrum_deviation, 1e-10),
    ]
