import numpy as np
import pytest

from mpschain import linalg, models, parent

RNG = np.random.default_rng(11)


def test_kron_identity():
    assert np.array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_shape():
    a = RNG.standard_normal((3, 3))
    b = RNG.standard_normal((3, 3))
    assert linalg.kron(a, b).shape == (9, 9)


def test_kron_model_ii_raising_entry():
    # A_1 (x) A_1 maps |0>|0> to |1>|1> with weight 1
    a1 = models.model_II(1.0).matrices["1"]
    k = linalg.kron(a1, a1)
    assert k[0 * 3 + 0, 1 * 3 + 1] == 1.0


def test_kron_mixed_product_property():
    for _ in range(5):
        a, b, c, d = (RNG.standard_normal((3, 3)) for _ in range(4))
        lhs = linalg.kron(a, b) @ linalg.kron(c, d)
        rhs = linalg.kron(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_null_space_identity_empty():
    assert linalg.null_space(np.eye(3), 1e-12) == []


def test_null_space_zero_matrix_full():
    basis = linalg.null_space(np.zeros((2, 2)), 1e-12)
    assert len(basis) == 2
    gram = np.array([[u @ v for v in basis] for u in basis])
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12


def test_null_space_model_i_word_matrix():
    m = parent.word_matrix(models.model_I(0.7), 2)
    assert len(linalg.null_space(m, 1e-12)) == 1


def test_null_space_residual_and_orthonormality():
    # random rank-deficient matrices: 6x9 has kernel dim >= 3
    for seed in range(4):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 9))
        basis = linalg.null_space(m)
        assert len(basis) == 3
        mnorm = np.linalg.norm(m, 2)
        for v in basis:
            assert np.linalg.norm(m @ v) <= 10 * linalg.DEFAULT_NULL_TOL * mnorm
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                assert abs(u @ v - (i == j)) < 1e-12


def test_null_space_rejects_empty():
    with pytest.raises(ValueError):
        linalg.null_space(np.zeros((0, 3)))


def test_dominant_projectors_equal_magnitude_family():
    out = linalg.dominant_projectors(np.diag([3.0, -3.0, 1.0]), 1e-9)
    assert [lam for lam, _ in out] == [3.0, -3.0]
    assert np.allclose(out[0][1], np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(out[1][1], np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_dominant_projectors_complex_phase_family_kept_whole():
    # three eigenvalues of equal magnitude 2 at phases 0, +-2pi/3
    w = np.exp(2j * np.pi / 3)
    m = np.diag([2.0 + 0j, 2 * w, 2 * np.conj(w), 1.0])
    assert len(linalg.dominant_projectors(m)) == 3


def test_dominant_projectors_model_ii_v():
    from mpschain.genstate import V_EXACT

    out = linalg.dominant_projectors(V_EXACT.astype(float))
    vals = sorted(lam.real for lam, _ in out)
    assert np.allclose(vals, [-np.sqrt(2), np.sqrt(2)], atol=1e-12)
    plus = [p for lam, p in out if lam.real > 0][0]
    expected = np.zeros(9)
    expected[0] = 0.5
    expected[4] = 0.5 * np.sqrt(2)
    expected[8] = 0.5
    assert np.max(np.abs(plus - np.outer(expected, expected))) < 1e-12


def test_dominant_projectors_model_i_unique():
    from mpschain.mps import transfer

    e = transfer(models.model_I(1.0)).matrix
    assert len(linalg.dominant_projectors(e)) == 1


def test_dominant_projectors_zero_matrix():
    with pytest.raises(linalg.ZeroSpectrumError):
        linalg.dominant_projectors(np.zeros((3, 3)))


def test_dominant_projectors_traces_are_multiplicities():
    m = np.diag([2.0, -2.0, -2.0, 0.5])
    projs = linalg.dominant_projectors(m)
    mults = sorted(round(np.trace(p).real) for _, p in projs)
    assert mults == [1, 2]


def test_trace_power_identity():
    assert linalg.trace_power(np.eye(9), 5) == pytest.approx(9.0)


def test_trace_power_model_ii_v():
    from mpschain.genstate import V_EXACT

    v = V_EXACT.astype(float)
    assert linalg.trace_power(v, 2) == pytest.approx(8.0, abs=1e-10)
    assert linalg.trace_power(v, 4) == pytest.approx(12.0, abs=1e-10)


def test_trace_power_matches_explicit_product():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((6, 6))
        for n in range(1, 7):
            explicit = np.trace(np.linalg.matrix_power(m, n))
            assert abs(linalg.trace_power(m, n) - explicit) < 1e-10 * max(1.0, abs(explicit))


def test_trace_power_defective_matrix():
    # a Jordan block has no eigenbasis; repeated squaring is exact on it
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert linalg.trace_power(jordan, 6) == pytest.approx(2.0, abs=1e-10)


def test_phase_fix_convention():
    v = linalg.phase_fix(np.array([0.0, -2.0, 1.0]))
    assert v[1] > 0
    assert np.linalg.norm(v) == pytest.approx(1.0)
    vc = linalg.phase_fix(np.array([1j, 1.0]))
    assert abs(vc[0].imag) < 1e-15 and vc[0].real > 0


def test_spectral_radius():
    assert linalg.spectral_radius(np.diag([1.0, -4.0])) == pytest.approx(4.0)
    assert linalg.spectral_radius(np.zeros((2, 2))) == 0.0
