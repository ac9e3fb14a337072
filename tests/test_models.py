import hashlib
import re
from math import isfinite, log, sqrt

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


@pytest.mark.parametrize("g", [0.0, 0.3, 1, 2.7])
def test_models_are_built_once_with_the_general_matrices(g, monkeypatch):
    # a family is made by MpsFamily's constructor or, from a checked stack, by MpsFamily._of_stack
    built = []
    init, of_stack = models.MpsFamily.__post_init__, models.MpsFamily._of_stack
    monkeypatch.setattr(models.MpsFamily, "__post_init__", lambda self: (built.append(1), init(self)))
    monkeypatch.setattr(models.MpsFamily, "_of_stack", lambda *args: (built.append(1), of_stack(*args))[1])
    for model, h in ((models.model_I, sqrt(2.0) * g), (models.model_II, g)):
        built.clear()
        fam = model(g)
        assert len(built) == 1
        assert fam.params == {"g": g} and type(fam.params["g"]) is float
        general = models.general_family(g, h, 1.0)
        for lab in fam.labels:
            assert fam.matrices[lab].dtype == general.matrices[lab].dtype
            assert fam.matrices[lab].tobytes() == general.matrices[lab].tobytes()


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


@pytest.mark.parametrize("g", [1e40, 1e60, 1e77, 1e100, -1e60, float("inf"), float("nan")])
def test_closed_forms_refuse_a_g_where_they_overflow(g):
    # G_perp's denominator ~ 32 g^8 leaves the float range from about 2.2e38: 1e40 printed G_perp = 0,
    # 1e60 and 1e100 nan rows, and 1e77 raised OverflowError from (3 g^2 + gamma) ** 2
    with pytest.raises(ValueError, match=rf"closed forms overflow or are not finite at g = {re.escape(repr(g))}$"):
        models.closed_form_correlators_I(g)


def test_closed_forms_just_inside_the_float_range_are_finite():
    for g in (1e30, -1e37, 2.2e38, 1e-200):
        cf = models.closed_form_correlators_I(g)
        assert all(isfinite(v) for v in (cf.gamma, cf.sz2, cf.sx2, cf.g_par, cf.g_perp, cf.xi_par, cf.xi_perp))


def test_model_families_build_model_i_and_ii_bit_for_bit():
    gs = [0.0, -0.3, 0.7, 1.0, 2.5, 1e70]
    for which, build in (("I", models.model_I), ("II", models.model_II)):
        for fam, g in zip(models.model_families(which, gs), gs, strict=True):
            ref = build(g)
            assert fam.params == ref.params and fam.labels == ref.labels
            for lab in ref.labels:
                assert fam.matrices[lab].tobytes() == ref.matrices[lab].tobytes()
                assert not fam.matrices[lab].flags.writeable


@pytest.mark.parametrize("g_values, message", [
    ([1.0, 0.5, 1e200, 2.0], "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    ([1.0, 1e200], "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"),
    ([1.0, np.inf, 1e200], "matrix '0' has a non-finite entry"),
])
def test_model_families_raise_the_first_refused_g_when_called(g_values, message):
    # the whole stack is checked before any family is made, so the call itself raises
    with pytest.raises(ValueError) as exc:
        models.model_families("I", g_values)
    assert str(exc.value) == message


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


@pytest.mark.parametrize("n_sites, digest", [(4, "083f02bd1d991823"), (6, "7de9b9a3d52807f3")])
def test_spin_form_below_the_byte_budget_is_unchanged(n_sites, digest):
    # the estimate of the whole decomposition's need (refused at N = 8) changes no admitted result:
    # sha256 of every coefficient and the residual by float.hex, as before the estimate
    dec = models.spin_form_decompose(models.model_II_hamiltonian(), n_sites=n_sites)
    text = " ".join(float(v).hex() for v in [*dec.coefficients.values(), dec.residual])
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


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


#: The five root families of the formulas suite, where the word matrix is singular.
ROOT_FAMILIES = ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 2**0.5, 1.0), (1.0, -(2**0.5), 1.0), (1.0, 2.0, 0.0))


def test_broadcast_determinants_equal_the_scalar_calls_bit_for_bit():
    samples = np.random.default_rng(42).uniform(-2.0, 2.0, (100, 3))
    for params in (samples, np.array(ROOT_FAMILIES)):
        dets = models.det_word_matrix(*params.T)
        assert dets.shape == (len(params),)
        for (g, h, c), det in zip(params, dets):
            scalar = models.det_word_matrix(g, h, c)
            assert type(scalar) is float
            assert scalar == det == float(np.linalg.det(parent.word_matrix(models.general_family(g, h, c), 2)))
    grid = models.det_word_matrix(np.array([[0.5], [1.5]]), np.array([0.2, 0.9, 1.4]), 1.0)
    assert grid.shape == (2, 3)
    assert grid[1, 2] == models.det_word_matrix(1.5, 1.4, 1.0)
