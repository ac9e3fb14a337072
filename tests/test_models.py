from math import log, sqrt

import numpy as np
import pytest

from mpschain import ed, models, parent, spin, verify
from mpschain.mps import thermo_two_point


def test_model_builders():
    assert np.allclose(models.model_I(1.0).matrices["0"], np.diag([1.0, sqrt(2), 1.0]))
    assert np.allclose(models.model_II(0.7).matrices["0"], 0.7 * np.eye(3))
    assert not models.model_I(0.0).matrices["0"].any()
    fam = models.general_family(0.9, sqrt(2) * 0.9, 1.0)
    for lab in fam.labels:
        assert np.allclose(fam.matrices[lab], models.model_I(0.9).matrices[lab])


def test_general_family_g0():
    fam = models.general_family(0.0, 0.0, 1.0)
    assert not fam.matrices["0"].any()


# ---------------------------------------------------------------------------
# determinant classification


def test_det_pinned_values():
    assert models.det_word_matrix(1.0, 1.0, 5.0) == pytest.approx(0.0, abs=1e-9)
    assert models.det_word_matrix(1.0, sqrt(2), 1.0) == pytest.approx(0.0, abs=1e-9)
    assert models.det_word_matrix(1.0, 2.0, 1.0) == pytest.approx(-18.0, abs=1e-9)
    assert models.det_closed_form(1.0, 2.0, 1.0) == -18.0


def test_det_matches_exact_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g, h, c = rng.uniform(-2.0, 2.0, 3)
        det = models.det_word_matrix(g, h, c)
        closed = models.det_exact_form(g, h, c)
        assert abs(det - closed) <= 1e-9 * max(1.0, abs(closed))


def test_det_quoted_form_differs_by_c_squared():
    # the quoted c^4 normalization is NOT the determinant away from |c| = 1;
    # the two differ by exactly c^2 (pinned so the discrepancy stays visible)
    g, h, c = 1.0, 2.0, 2.0
    det = models.det_word_matrix(g, h, c)
    assert det == pytest.approx(models.det_closed_form(g, h, c) * c * c, rel=1e-9)
    assert abs(det - models.det_closed_form(g, h, c)) > 1.0


def test_root_families_have_kernels():
    for g, h, c in ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, sqrt(2), 1.0),
                    (1.0, -sqrt(2), 1.0), (1.0, 2.0, 0.0)):
        basis = parent.ground_null_space(models.general_family(g, h, c), 2)
        assert basis.dim >= 1


# ---------------------------------------------------------------------------
# closed-form correlators


def test_closed_forms_at_g1():
    cf = models.closed_form_correlators_I(1.0)
    assert cf.gamma == pytest.approx(3.0)
    assert cf.sz2 == pytest.approx(4.0 / 9.0)
    assert cf.sx2 == pytest.approx(7.0 / 9.0)
    assert cf.g_par == pytest.approx(-4.0 / 27.0)
    assert cf.xi_par == pytest.approx(1.0 / log(3.0))
    assert cf.xi_perp == pytest.approx(1.0 / log(3.0 / (1.0 + sqrt(2))))
    assert abs(cf.xi_par - 0.910) < 1e-3
    assert abs(cf.xi_perp - 4.603) < 1e-3


def test_closed_forms_g0_limit():
    cf = models.closed_form_correlators_I(0.0)
    assert cf.degenerate
    assert cf.sz2 == pytest.approx(1.0)
    assert cf.g_par == pytest.approx(-0.5)
    assert cf.g_perp == 0.0
    assert cf.xi_par == 0.0


def test_spin_component_completeness():
    for g in (0.2, 0.7, 1.0, 1.9, 3.0):
        cf = models.closed_form_correlators_I(g)
        assert cf.sz2 + 2 * cf.sx2 == pytest.approx(2.0, abs=1e-10)


def test_closed_forms_match_transfer():
    for g in (0.3, 0.7, 1.0, 1.5, 2.0):
        assert max(verify.closed_form_deviations(g)) < 1e-8
        cf = models.closed_form_correlators_I(g)
        assert abs(cf.g_perp - thermo_two_point(models.model_I(g), spin.sx(), spin.sx(), 1)) < 1e-8


def test_correlation_length_log_slopes():
    cf = models.closed_form_correlators_I(1.0)
    xi_par, xi_perp = verify.fitted_correlation_lengths(1.0)
    assert abs(1.0 / xi_par - 1.0 / cf.xi_par) < 1e-6
    assert abs(1.0 / xi_perp - 1.0 / cf.xi_perp) < 1e-6


# ---------------------------------------------------------------------------
# limit Hamiltonians


def test_h1_action():
    h1 = models.limit_hamiltonian_h1()
    e00 = np.zeros(9)
    e00[4] = 1.0
    assert np.allclose(h1.matrix @ e00, e00)
    for idx in (0, 2, 3):  # |1,1>, |1,-1>, |0,1> among others
        v = np.zeros(9)
        v[idx] = 1.0
        if idx != 4:
            assert np.linalg.norm(h1.matrix @ v) < 1e-14


def test_h1_is_sz2_minus_one_squared():
    sz2_minus_1 = spin.SZ2 - spin.ID3
    assert np.allclose(models.limit_hamiltonian_h1().matrix, np.kron(sz2_minus_1, sz2_minus_1), atol=1e-14)


def test_h2_is_biquadratic_minus_one():
    ss = (np.kron(spin.SX, spin.SX) + np.kron(spin.SY, spin.SY) + np.kron(spin.SZ, spin.SZ)).real
    assert np.allclose(models.limit_hamiltonian_h2().matrix, ss @ ss - np.eye(9), atol=1e-12)


def test_h2_is_su2_scalar():
    h2 = models.limit_hamiltonian_h2()
    for op in (spin.SZ, spin.SX, (spin.SY).astype(complex)):
        total = np.kron(op, np.eye(3)) + np.kron(np.eye(3), op)
        comm = h2.matrix @ total - total @ h2.matrix
        assert np.max(np.abs(comm)) < 1e-12


def test_model_i_limits():
    # g -> 0: the unit projector equals the Ising-like two-site term exactly
    h_g0 = models.model_I_hamiltonian(0.0)
    assert np.allclose(h_g0.matrix, models.limit_hamiltonian_h1().matrix, atol=1e-14)
    # g -> 1: the kernel vector is the two-site singlet, so the biquadratic
    # term is three times the unit projector
    h_g1 = models.model_I_hamiltonian(1.0)
    assert np.allclose(3.0 * h_g1.matrix, models.limit_hamiltonian_h2().matrix, atol=1e-12)


def test_h2_chain_commutes_with_global_spin():
    h2 = models.limit_hamiltonian_h2()
    chain = ed.dense_chain(h2.matrix, 2, 4)
    for op in (spin.SZ, spin.SX, spin.SY):
        total = sum(
            np.kron(np.eye(3**i), np.kron(op, np.eye(3 ** (3 - i)))) for i in range(4)
        )
        assert np.max(np.abs(chain @ total - total @ chain)) < 1e-10


# ---------------------------------------------------------------------------
# spin-operator decompositions


def test_spin_form_model_ii():
    dec = models.spin_form_decompose(models.model_II_hamiltonian())
    assert dec.residual <= 1e-10
    scale, dev = models.scale_match(dec.coefficients, models.spin_form_reference("II"))
    assert scale == pytest.approx(2.0, abs=1e-10)
    assert dev <= 1e-10


def test_spin_form_model_i_g0():
    dec = models.spin_form_decompose(models.model_I_hamiltonian(0.0))
    ref = models.spin_form_reference("h1")
    assert dec.residual <= 1e-10
    for name, val in ref.items():
        assert dec.coefficients[name] == pytest.approx(val, abs=1e-10)


def test_spin_form_zero_operator():
    zero = parent.LocalHamiltonian(
        k=2, matrix=np.zeros((9, 9)), couplings=(),
        basis=parent.NullSpaceBasis(k=2, vectors=(), tol=0.0),
    )
    dec = models.spin_form_decompose(zero)
    assert all(abs(c) < 1e-12 for c in dec.coefficients.values())


def test_spin_form_report_documents_discrepancy():
    # the quoted u-form does not reproduce the projector chain: it assigns
    # energy -2uN to the all-ones configuration, which the chain annihilates
    g = 0.5
    rep = models.spin_form_report(g)
    assert rep["fit_residual"] <= 1e-10
    assert rep["reference_max_deviation"] > 0.5
    u = g * g / (1 - g * g)
    assert rep["all_ones_energy_reference"] == pytest.approx(-2 * u * 4)
    chain = ed.dense_chain(models.model_I_hamiltonian(g).matrix, 2, 4)
    all_ones = np.zeros(81)
    all_ones[0] = 1.0
    assert abs(all_ones @ chain @ all_ones) < 1e-12


def test_spin_form_report_at_g1():
    rep = models.spin_form_report(1.0)
    assert rep["reference_max_deviation"] is None
    assert rep["fit_residual"] <= 1e-10


# ---------------------------------------------------------------------------
# adjacency degeneracy and sign equivalence


def test_adjacency_counts():
    assert models.adjacency_ground_count(2) == 8
    assert models.adjacency_ground_count(4) == 56
    assert models.adjacency_ground_count(6) == 416


def test_adjacency_growth_rate():
    n = 40
    rate = models.adjacency_ground_count(n) ** (1.0 / n)
    assert abs(rate - (1 + sqrt(3))) < 1e-6


def test_sigma_equivalence():
    rep = models.sigma_equivalence_check(4)
    assert rep.local_conjugation_residual <= 1e-12
    assert rep.spectrum_deviation <= 1e-10
    assert len(rep.spectrum_plus) == 81


def test_sigma_equivalence_odd_rejected():
    with pytest.raises(ValueError):
        models.sigma_equivalence_check(5)


def test_sigma_minus_kernel_from_pipeline():
    # the h = -g root family has the sign-flipped two-dimensional kernel
    basis = parent.ground_null_space(models.general_family(1.0, -1.0, 1.0), 2)
    assert basis.dim == 2
    span = sum(np.outer(v, v) for v in basis.vectors)
    expected = sum(np.outer(v, v) for v in models.model_II_null_vectors(sigma=-1))
    assert np.max(np.abs(span - expected)) < 1e-10


# ---------------------------------------------------------------------------
# sweep export


def test_closed_form_sweep_csv(tmp_path):
    path = tmp_path / "sweep.csv"
    g_values = [0.1, 1.0, 2.5]
    models.write_closed_form_sweep(path, g_values)
    lines = path.read_text().splitlines()
    assert lines[0] == "g,quantity,value"
    assert len(lines) == 1 + 6 * len(g_values)
    # deterministic and round-trips through float parsing
    text = path.read_text()
    models.write_closed_form_sweep(path, g_values)
    assert path.read_text() == text
    row = lines[1].split(",")
    assert row[1] == "sz2"
    reparsed = f"{float(row[2]):.17g}"
    assert reparsed == row[2]


def test_closed_form_sweep_text_is_the_cli_and_file_output(tmp_path, capsys):
    from mpschain import cli

    assert cli.main(["correlate", "--which", "I", "--channel", "sz2", "--mode", "closed",
                     "--g-sweep", "0.1", "3.0", "30"]) == 0
    printed = capsys.readouterr().out
    g_values = [float(x) for x in np.linspace(0.1, 3.0, 30)]
    text = models.closed_form_sweep_text(g_values)
    assert text == printed
    path = tmp_path / "sweep.csv"
    models.write_closed_form_sweep(path, g_values)
    assert path.read_bytes() == text.encode("utf-8")
