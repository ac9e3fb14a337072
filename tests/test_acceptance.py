"""Acceptance battery.

One test per criterion, each printed as a pass/fail line (run with -s to see
them on success).  Every tolerance is pinned here; nothing is deferred to
later calibration.  Criterion 4's closed-form determinant identity is pinned
in its quoted c^4 form and fails honestly: the determinant of the two-site
word matrix is exactly (g^2-h^2)^2 (2g^2-h^2) c^6 (each word containing the
lowering matrix carries its c factors; the five such words contribute six
powers in total), so the quoted exponent cannot match random samples with
|c| != 1.  The corrected identity is verified in test_models.py.
"""

import time
from math import log, sqrt

import numpy as np
import pytest
import scipy.linalg

from mpschain import ed, genstate, models, parent, spin, symmetry, verify
from mpschain.mps import TransferSpectrum


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_criterion_1_frustration_freeness():
    t0 = time.perf_counter()
    worst = max(c.value for n in (4, 6, 8) for c in verify.frustration_suite(n, (0.3, 0.7, 1.0, 1.5)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, ok, f"zero-energy residual max {worst:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 10s)")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_2_ed_consistency():
    t0 = time.perf_counter()
    e_i = ed.ground_energy(ed.ChainOperator(6, models.model_I_hamiltonian(0.7)))
    e_ii = ed.ground_energy(ed.ChainOperator(6, models.model_II_hamiltonian()))
    k4 = ed.kernel_dimension(ed.ChainOperator(4, models.model_II_hamiltonian()))
    k6 = ed.kernel_dimension(ed.ChainOperator(6, models.model_II_hamiltonian()))
    elapsed = time.perf_counter() - t0
    ok = abs(e_i) <= 1e-8 and abs(e_ii) <= 1e-8 and k4 >= 20 and k6 >= 70 and elapsed < 60.0
    _report(2, ok, f"E0(I)={e_i:.1e}, E0(II)={e_ii:.1e} (tol 1e-8); kernel N=4: {k4} (>=20), "
                   f"N=6: {k6} (>=70); runtime {elapsed:.1f}s (< 60s)")
    assert abs(e_i) <= 1e-8 and abs(e_ii) <= 1e-8
    assert k4 >= 20 and k6 >= 70
    assert elapsed < 60.0


def test_criterion_3_model_i_closed_forms():
    worst = max(max(verify.closed_form_deviations(g)[:2]) for g in (0.3, 0.7, 1.0, 1.5, 2.0))
    cf1 = models.closed_form_correlators_I(1.0)
    g1_ok = abs(cf1.sz2 - 4.0 / 9.0) < 1e-14 and abs(cf1.sx2 - 7.0 / 9.0) < 1e-14
    xi_par, xi_perp = verify.fitted_correlation_lengths(1.0)
    xi_ok = abs(xi_par - 0.910) <= 1e-3 and abs(xi_perp - 4.603) <= 1e-3
    ok = worst <= 1e-8 and g1_ok and xi_ok
    _report(3, ok, f"closed-form vs transfer max dev {worst:.1e} (tol 1e-8); g=1 values 4/9, 7/9; "
                   f"fitted xi_par={xi_par:.4f} (0.910 +- 1e-3), xi_perp={xi_perp:.4f} (4.603 +- 1e-3)")
    assert worst <= 1e-8
    assert g1_ok
    assert xi_ok


def _spectral_xi(spectrum: TransferSpectrum, obs) -> float:
    """-1/ln|lambda_k/lambda_1| for the slowest subleading eigenvalue the O-O correlator sees.

    The correlator is sum_k (lambda_k/lambda_1)^(r-1) tr(P_1 E_O P_k E_O) / lambda_1^2
    over eigenvalue groups k; groups whose weight vanishes do not decay into it.
    """
    vals, vl, vr = scipy.linalg.eig(spectrum.e, left=True, right=True)
    groups: list[list[int]] = []
    for i in np.argsort(-np.abs(vals)):
        for grp in groups:
            if abs(vals[i] - vals[grp[0]]) <= 1e-9 * spectrum.rho:
                grp.append(int(i))
                break
        else:
            groups.append([int(i)])
    p1 = sum(p for _, p in spectrum.projectors)
    e_o = spectrum.dressed(obs)
    for grp in groups[1:]:
        right, left_h = vr[:, grp], vl[:, grp].conj().T
        p_k = right @ np.linalg.inv(left_h @ right) @ left_h
        if abs(np.trace(p1 @ e_o @ p_k @ e_o)) > 1e-12:
            return -1.0 / log(abs(vals[grp[0]]) / spectrum.rho)
    raise AssertionError("no subleading eigenvalue carries weight")


@pytest.mark.parametrize("g", [0.3, 0.5, 1.0, 2.0, 2.7])
def test_criterion_3_spectral_correlation_lengths(g):
    # the exact counterpart of criterion 3's pinned 1e-3 polyfit: the decay
    # eigenvalues of the transfer spectrum reproduce the closed-form lengths
    cf = models.closed_form_correlators_I(g)
    spectrum = TransferSpectrum(models.model_I(g))
    dev_par = abs(_spectral_xi(spectrum, spin.sz()) - cf.xi_par)
    dev_perp = abs(_spectral_xi(spectrum, spin.sx()) - cf.xi_perp)
    ok = dev_par <= 1e-12 and dev_perp <= 1e-12
    _report(3, ok, f"g={g:g} spectral vs closed-form xi_par dev {dev_par:.1e}, xi_perp dev {dev_perp:.1e} (tol 1e-12)")
    assert dev_par <= 1e-12
    assert dev_perp <= 1e-12


def test_criterion_4_det_identity():
    # root families must be kernel-bearing (this half holds)
    roots_ok = True
    for g, h, c in ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, sqrt(2), 1.0),
                    (1.0, -sqrt(2), 1.0), (1.0, 2.0, 0.0)):
        roots_ok &= parent.ground_null_space(models.general_family(g, h, c), 2).dim >= 1
    # the quoted c^4 identity on 100 random samples (this half cannot hold:
    # the true determinant carries c^6; see the module docstring)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        g, h, c = rng.uniform(-2.0, 2.0, 3)
        det = models.det_word_matrix(g, h, c)
        closed = models.det_closed_form(g, h, c)
        worst = max(worst, abs(det - closed) / max(1.0, abs(closed)))
    ok = roots_ok and worst <= 1e-9
    _report(4, ok, f"root families kernel-bearing: {roots_ok}; quoted-c^4 identity max rel dev {worst:.3e} "
                   f"(tol 1e-9) -- the determinant is (g^2-h^2)^2(2g^2-h^2)c^6, so this check fails by design")
    assert roots_ok
    assert worst <= 1e-9, (
        "the quoted c^4 closed form is not the word-matrix determinant: "
        f"max relative deviation {worst:.3e} over 100 samples; "
        "det = (g^2-h^2)^2 (2g^2-h^2) c^6 exactly (verified symbolically and "
        "numerically in test_models.py::test_det_matches_exact_closed_form); "
        "the two coincide only on |c| in {0, 1}"
    )


def test_criterion_5_generating_state_exactness():
    t0 = time.perf_counter()
    gen_ok = all(verify.generating_identity_deviation(n, (1.0, 2.0, 3.0, 4.0, 5.0)) == 0.0 for n in (4, 6, 8))
    formula_ok = all(ok for n in (4, 6, 8) for ok, _ in verify.sector_agreement(n))
    elapsed = time.perf_counter() - t0
    ok = gen_ok and formula_ok and elapsed < 120.0
    _report(5, ok, f"generating identity exact: {gen_ok}; formula/oracle exact equality: {formula_ok}; "
                   f"runtime {elapsed:.1f}s (< 120s)")
    assert gen_ok
    assert formula_ok
    assert elapsed < 120.0


def test_criterion_6_thermodynamic_laws():
    zz2 = float(genstate.corr_zz(400, 2, 2))
    zz3 = float(genstate.corr_zz(400, 2, 3))
    xx_vals = [abs(float(genstate.corr_xx(400, 2, r))) for r in (2, 3)]
    xx_vals.append(abs(float(genstate.corr_xx(200, 2, 2))))  # n/N = 0.01 boundary
    ok = -0.51 <= zz2 <= -0.49 and abs(zz3) <= 0.01 and max(xx_vals) <= 0.02
    _report(6, ok, f"zz(N=400,n=2,r=2)={zz2:.4f} in [-0.51,-0.49]; |zz(r=3)|={abs(zz3):.2e} <= 0.01; "
                   f"|xx| at n/N <= 0.01 max {max(xx_vals):.3f} <= 0.02")
    assert -0.51 <= zz2 <= -0.49
    assert abs(zz3) <= 0.01
    assert max(xx_vals) <= 0.02


def test_criterion_7_ising_limit_degeneracy():
    results = {}
    for n in (4, 6):
        results[n] = (
            ed.kernel_dimension(ed.ChainOperator(n, models.limit_hamiltonian_h1())),
            models.adjacency_ground_count(n),
        )
    ok = results[4] == (56, 56) and results[6] == (416, 416)
    _report(7, ok, f"ED kernel vs transfer count: N=4 {results[4]}, N=6 {results[6]} (expect 56, 416)")
    assert results[4] == (56, 56)
    assert results[6] == (416, 416)


def test_criterion_8_spin_forms():
    dec = models.spin_form_decompose(models.model_II_hamiltonian(), n_sites=4)
    scale, dev = models.scale_match(dec.coefficients, models.spin_form_reference("II"))
    ii_ok = dec.residual <= 1e-10 and abs(scale - 2.0) <= 1e-10 and dev <= 1e-10
    report = models.spin_form_report(0.7, n_sites=4)
    i_ok = (
        report["fit_residual"] <= 1e-10
        and report["reference_max_deviation"] > 0.0
        and report["all_ones_energy_projector"] == 0.0
        and report["all_ones_energy_reference"] < 0.0
    )
    ok = ii_ok and i_ok
    _report(8, ok, f"model II spin form: scale {scale:.12f} (expect 2), residual {dec.residual:.1e}; "
                   f"model I report: fit residual {report['fit_residual']:.1e}, quoted-form deviation "
                   f"{report['reference_max_deviation']:.3f} (documented discrepancy, acceptance is the report)")
    assert ii_ok
    assert i_ok


def test_criterion_9_sign_variant_equivalence():
    conjugation, spectra = (c.value for c in verify.appendix_a_suite(4))
    ok = spectra <= 1e-10 and conjugation <= 1e-12
    _report(9, ok, f"sorted-spectrum deviation {spectra:.1e} (tol 1e-10); "
                   f"local conjugation residual {conjugation:.1e} (tol 1e-12)")
    assert spectra <= 1e-10
    assert conjugation <= 1e-12


def test_criterion_10_symmetry_suite():
    rot_i = verify.z_rotation_residual(models.model_I(0.7))
    rot_ii = verify.z_rotation_residual(models.model_II(1.3))
    fam = models.general_family(0.8, 0.8 * sqrt(2), 1.0)
    pi_ok = verify.parity_deviation(fam, np.fliplr(np.eye(3)) / sqrt(3)) < 1e-9
    c = 1.6
    omega = np.zeros((3, 3))
    omega[0, 2], omega[1, 1], omega[2, 0] = 1.0, c, c * c
    omega /= np.linalg.norm(omega)
    om_ok = verify.spin_flip_deviation(models.general_family(0.5, 0.5, c), omega) < 1e-9
    aklt_res = symmetry.spherical_tensor_residual(models.aklt_family(), spin.spin_generators(0.5))
    broken_res = symmetry.spherical_tensor_residual(models.model_I(1.0), spin.spin_generators(1.0))
    ok = rot_i <= 1e-12 and rot_ii <= 1e-12 and pi_ok and om_ok and aklt_res <= 1e-10 and broken_res > 0.1
    _report(10, ok, f"z-rotation residuals {rot_i:.1e}/{rot_ii:.1e} (tol 1e-12); parity/spin-flip "
                    f"intertwiners match displayed forms: {pi_ok}/{om_ok}; spherical residual "
                    f"valence-bond {aklt_res:.1e} (~0) vs model I g=1 {broken_res:.2f} (> 0.1)")
    assert rot_i <= 1e-12 and rot_ii <= 1e-12
    assert pi_ok and om_ok
    assert aklt_res <= 1e-10
    assert broken_res > 0.1


def test_figure_sweep_export(tmp_path):
    # criterion 3 subsumes the quantitative content; the sweep CSV is the
    # figure-ready data product
    path = tmp_path / "sweep.csv"
    g_values = [0.1 + 0.1 * i for i in range(30)]
    models.write_closed_form_sweep(path, g_values)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 6 * len(g_values)
    for line in lines[1:]:
        g_txt, q, v = line.split(",")
        cf = models.closed_form_correlators_I(float(g_txt))
        expected = {"sz2": cf.sz2, "sx2": cf.sx2, "G_par": cf.g_par,
                    "G_perp": cf.g_perp, "xi_par": cf.xi_par, "xi_perp": cf.xi_perp}[q]
        assert float(v) == pytest.approx(expected, abs=1e-15)
