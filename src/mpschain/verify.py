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
    """Zero-energy residuals of the model I, then the model II, chain on n_sites."""
    checks = []
    for which, builder, ham in (
        ("I", models.model_I, models.model_I_hamiltonian),
        ("II", models.model_II, lambda g: models.model_II_hamiltonian()),
    ):
        for g in g_values:
            res = parent.verify_zero_energy(builder(g), ham(g), n_sites)
            checks.append(Check(f"model {which} g={g:g} N={n_sites} zero-energy residual", res, 1e-10))
    return checks


def closed_form_deviations(g: float) -> tuple[float, float, float]:
    """|closed form - transfer value| of model I <Sz^2>, <Sx^2> and G_par (adjacent zz) at g."""
    cf = models.closed_form_correlators_I(g)
    spectrum = mps.TransferSpectrum(models.model_I(g))
    return (
        abs(cf.sz2 - spectrum.thermo_one_point(spin.sz2())),
        abs(cf.sx2 - spectrum.thermo_one_point(spin.sx2())),
        abs(cf.g_par - spectrum.thermo_two_point(spin.sz(), spin.sz(), 1)),
    )


def fitted_correlation_lengths(g: float) -> tuple[float, float]:
    """Model I (xi_par, xi_perp) from log-linear fits of |zz| and |xx| over r = 2..12."""
    spectrum = mps.TransferSpectrum(models.model_I(g))
    rs = np.arange(2, 13)
    xis = []
    for obs in (spin.sz(), spin.sx()):
        corr = np.array([spectrum.thermo_two_point(obs, obs, int(r)) for r in rs])
        xis.append(-1.0 / np.polyfit(rs, np.log(np.abs(corr)), 1)[0])
    return xis[0], xis[1]


def formulas_suite(g_values) -> list[Check]:
    """Model I closed forms and fitted lengths, the word-matrix determinant, the root-family kernels."""
    checks = []
    for g in g_values:
        dev_sz2, dev_sx2, dev_gpar = closed_form_deviations(g)
        checks.append(Check(f"model I g={g:g} <Sz^2> closed vs transfer", dev_sz2, 1e-8))
        checks.append(Check(f"model I g={g:g} <Sx^2> closed vs transfer", dev_sx2, 1e-8))
        checks.append(Check(f"model I g={g:g} G_par vs adjacent zz", dev_gpar, 1e-8))
    xi_par, xi_perp = fitted_correlation_lengths(1.0)
    cf1 = models.closed_form_correlators_I(1.0)
    checks.append(Check("model I g=1 fitted xi_par vs closed form", abs(xi_par - cf1.xi_par), 1e-3))
    checks.append(Check("model I g=1 fitted xi_perp vs closed form", abs(xi_perp - cf1.xi_perp), 1e-3))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        g, h, c = rng.uniform(-2.0, 2.0, 3)
        det = models.det_word_matrix(g, h, c)
        closed = models.det_exact_form(g, h, c)
        worst = max(worst, abs(det - closed) / max(1.0, abs(closed)))
    checks.append(Check("det(word matrix) vs exact closed form, 100 samples", worst, 1e-9))
    for g, h, c in ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 2**0.5, 1.0), (1.0, -(2**0.5), 1.0), (1.0, 2.0, 0.0)):
        dim = parent.ground_null_space(models.general_family(g, h, c), 2).dim
        checks.append(Check(f"kernel at root family (g={g:g},h={h:.4g},c={c:g})", float(dim), 0.5, ">"))
    return checks


def sector_agreement(n_sites: int) -> list[tuple[bool, float]]:
    """(closed forms equal the oracle exactly, ||H psi_n|| / ||psi_n||) per even zero count.

    Both come from one expansion of psi_n; H is the model II chain.
    """
    h_ii = models.model_II_hamiltonian()
    out = []
    for z in range(0, n_sites + 1, 2):
        psi = genstate.psi_n_expand(n_sites, z)
        ok = genstate.psi_n_norm(n_sites, z) == psi.norm_sq()
        ok &= genstate.corr_sz2(n_sites, z) == genstate.expectation_sz2(psi)
        ok &= genstate.corr_sperp2(n_sites, z) == genstate.expectation_sperp2(psi)
        for r in range(2, n_sites):
            ok &= genstate.corr_zz(n_sites, z, r) == genstate.expectation_zz(psi, r)
            ok &= genstate.corr_xx(n_sites, z, r) == genstate.expectation_xx(psi, r)
            ok &= genstate.corr_sz2sz2(n_sites, z) == genstate.expectation_sz2sz2(psi, r)
        vec = psi.vector()
        out.append((ok, float(np.linalg.norm(parent.chain_apply(h_ii, n_sites, vec)) / np.linalg.norm(vec))))
    return out


def generating_identity_deviation(n_sites: int, g_values) -> float:
    """Largest |model II amplitude - g**zeros * trace| over every string and g; 0 means exact."""
    traces = genstate.model_ii_word_traces(n_sites)
    label_of = {1: "1", 0: "0", -1: "-1"}
    worst = 0.0
    for g in g_values:
        amps = mps.amplitudes(models.model_II(g), n_sites)
        recon = {tuple(label_of[m] for m in cfg): (g**z) * t for cfg, (z, t) in traces.items()}
        worst = max(worst, max(abs(amps[k] - recon.get(k, 0.0)) for k in amps))
    return worst


def genstate_suite(n_sites: int) -> list[Check]:
    """psi_n formulas vs oracle, chain annihilation, the generating identity, the thermodynamic laws."""
    sectors = sector_agreement(n_sites)
    return [
        Check(f"N={n_sites} formula vs oracle exact agreement (0 = exact)",
              max(0.0 if ok else 1.0 for ok, _ in sectors), 0.0),
        Check(f"N={n_sites} every psi_n annihilated by the chain", max(0.0, *(res for _, res in sectors)), 1e-10),
        Check(f"N={n_sites} generating identity (exact for integer g)",
              generating_identity_deviation(n_sites, (1.0, 2.0, 3.0)), 0.0),
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
