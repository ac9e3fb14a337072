import numpy as np
import pytest
import scipy.linalg

from mpschain import linalg, models, mps, parent

# model II transfer block V = A_1 (x) A_1 + A_-1 (x) A_-1 from the 3-level ladder
_A1 = np.diag([1.0, 1.0], 1)
_V = np.kron(_A1, _A1) + np.kron(_A1.T, _A1.T)


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
    out = linalg.dominant_projectors(np.diag([3.0, -3.0, 1.0]))
    assert [lam for lam, _ in out] == [3.0, -3.0]
    assert np.allclose(out[0][1], np.diag([1.0, 0.0, 0.0]), atol=1e-12)
    assert np.allclose(out[1][1], np.diag([0.0, 1.0, 0.0]), atol=1e-12)


def test_dominant_projectors_complex_phase_family_kept_whole():
    # three eigenvalues of equal magnitude 2 at phases 0, +-2pi/3
    w = np.exp(2j * np.pi / 3)
    m = np.diag([2.0 + 0j, 2 * w, 2 * np.conj(w), 1.0])
    assert len(linalg.dominant_projectors(m)) == 3


def test_dominant_projectors_model_ii_v():
    out = linalg.dominant_projectors(_V)
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


def test_dominant_projectors_group_eigenvalues_within_1e_8_of_the_top():
    # a rotation by 1e-6 has two dominant eigenvalues 2e-6 apart: two groups; 1e-10 apart: one group
    for theta, groups in ((1e-6, 2), (5e-11, 1)):
        c, s = np.cos(theta), np.sin(theta)
        out = linalg.dominant_projectors(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 0.5]]))
        assert len(out) == groups
        assert sum(np.trace(p).real for _, p in out) == pytest.approx(2.0, abs=1e-6)
        assert all(isinstance(lam, complex) for lam, _ in out)


@pytest.mark.parametrize("m, top", [
    (np.array([[2e300, 1.0], [0.0, 1.0]]), 2e300),
    (np.array([[2e-140, 0.0], [0.0, 1e-141]]), 2e-140),
    (np.diag([-3e200, 3e200, 1.0]), 3e200),
])
def test_dominant_projectors_give_the_matrix_own_eigenvalues_beyond_geev_limits(m, top):
    # geev returns the eigenvalues of a rescaled m there (1.4886e138 for the first); the projectors are unaffected
    assert not linalg._geev_keeps_scale(m)
    out = linalg.dominant_projectors(m)
    assert sorted(abs(lam) for lam, _ in out) == [top] * len(out)
    assert all(isinstance(lam, complex) for lam, _ in out)
    assert all(lam == complex((p @ m).trace() / p.trace()) for lam, p in out)


def _eig_inputs():
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 4, 9, 16):
        for _ in range(25):
            yield rng.standard_normal((n, n))  # real, mostly with complex-conjugate pairs
            yield rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            yield rng.integers(-2, 3, (n, n))
            yield rng.standard_normal((n, n)) * 10.0 ** rng.integers(-200, 200)
        yield rng.standard_normal((n, n)).astype(np.float32)
        yield (rng.standard_normal((n, n)) + 1j).astype(np.complex64)
        yield rng.standard_normal((n, 2 * n))[:, ::2]  # strided
        yield rng.standard_normal((n, n)).T
    for g in (0.0, 0.3, 1.0, 2.5, 1e70):
        yield mps.transfer(models.model_I(g)).matrix
        yield mps.transfer(models.model_II(g)).matrix
    yield from (np.zeros((3, 3)), np.eye(4), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[-0.0, 0.0], [0.0, -0.0]]),
                np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]), np.array([[2e300, 1.0], [0.0, 1.0]]))


def test_eig_all_is_scipy_eig_bit_for_bit():
    for m in _eig_inputs():
        want = scipy.linalg.eig(m, left=True, right=True)
        got = linalg.eig_all(m)
        for w, g in zip(want, got, strict=True):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


@pytest.mark.parametrize("m", [np.array([[np.nan]]), np.array([[1.0, np.inf], [0.0, 1.0]]), np.ones((2, 3)), np.ones(3)])
def test_eig_all_refuses_what_scipy_eig_refuses(m):
    with pytest.raises(ValueError) as want:
        scipy.linalg.eig(m, left=True, right=True)
    with pytest.raises(ValueError) as got:
        linalg.eig_all(m)
    if m.ndim == 2 and m.shape[0] == m.shape[1]:
        assert str(got.value) == str(want.value)


def test_phase_fix_convention():
    v = linalg.phase_fix(np.array([0.0, -2.0, 1.0]))
    assert v[1] > 0
    assert np.linalg.norm(v) == pytest.approx(1.0)
    vc = linalg.phase_fix(np.array([1j, 1.0]))
    assert abs(vc[0].imag) < 1e-15 and vc[0].real > 0


def test_spectral_radius():
    assert linalg.spectral_radius(np.diag([1.0, -4.0])) == pytest.approx(4.0)
    # no all-zero shortcut: geev gives the float and complex zeros, eigvals the integer ones (a warning fails the test)
    for dtype in (float, complex, int):
        assert linalg.spectral_radius(np.zeros((2, 2), dtype=dtype)) == 0.0


def _eigvals_radius(m) -> float:
    return float(np.abs(np.linalg.eigvals(m)).max())


def _radius_inputs():
    rng = np.random.default_rng(20)
    for n in (1, 2, 3, 4, 9, 16, 40):
        for _ in range(12):
            a = rng.standard_normal((n, n))
            yield a  # real, mostly with complex-conjugate pairs
            yield a + a.T  # symmetric: every imaginary part zero
            yield a + 1j * rng.standard_normal((n, n))
            yield rng.integers(-3, 4, (n, n))
            yield a * 10.0 ** rng.integers(-120, 120)
        yield np.triu(rng.standard_normal((n, n)))
        yield rng.standard_normal((n, n)).astype(np.float32)
        yield (rng.standard_normal((n, n)) + 1j).astype(np.complex64)
        yield rng.standard_normal((n, 2 * n))[:, ::2]  # strided
        yield rng.standard_normal((n, n)).T  # Fortran order
        yield np.zeros((n, n))
        yield np.zeros((n, n), dtype=complex)
    for g in (0.0, 0.3, 1.0, 2.5, 1e70):
        yield mps.transfer(models.model_I(g)).matrix
        yield mps.transfer(models.model_II(g)).matrix
    # defective (Jordan blocks, a nilpotent shift), signed zeros, an integer identity, a rotation
    yield np.array([[1.0, 1.0], [0.0, 1.0]])
    yield np.diag([2.0, 2.0]) + np.diag([1.0], 1)
    yield np.diag([1.0, 1.0, 1.0], 1)
    yield np.array([[-0.0, 0.0], [0.0, -0.0]])
    yield np.eye(4, dtype=int)
    yield np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
    # beyond geev's scaling limits, where geev returns a rescaled matrix's eigenvalues
    yield from (np.array([[2e300, 1.0], [0.0, 1.0]]), np.array([[2e-140, 0.0], [0.0, 1e-141]]),
                np.diag([-3e200, 3e200, 1.0]), np.array([[1e-300, 1e-301], [0.0, 1e-300j]]))


def test_spectral_radius_is_the_eigvals_radius_bit_for_bit():
    count = 0
    for m in _radius_inputs():
        assert linalg.spectral_radius(m).hex() == _eigvals_radius(m).hex()
        count += 1
    assert count == 7 * (5 * 12 + 7) + 10 + 6 + 4


@pytest.mark.parametrize("m", [np.array([[np.nan]]), np.array([[1.0, np.inf], [0.0, 1.0]]),
                               np.array([[1.0, 0.0], [0.0, -np.inf]]), np.array([[np.nan + 1j]])])
def test_spectral_radius_refuses_non_finite_input_as_eigvals_does(m):
    with pytest.raises(Exception) as want:
        np.linalg.eigvals(m)
    with pytest.raises(Exception) as got:
        linalg.spectral_radius(m)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_spectral_radius_takes_the_direct_geev_only_within_its_limits(monkeypatch):
    eigvals = np.linalg.eigvals
    calls = []

    def counted(a):
        calls.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    e = mps.transfer(models.model_I(1.3)).matrix
    linalg.spectral_radius(e)
    linalg.spectral_radius(e + 1j * e.T)
    assert calls == []
    for m in (e.astype(np.float32), np.eye(3, dtype=int), np.array([[2e300, 1.0], [0.0, 1.0]])):
        linalg.spectral_radius(m)
    assert calls == [np.dtype(np.float32), np.dtype(int), np.dtype(float)]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
def test_null_space_refuses_a_non_finite_tol(tol):
    # NaN or inf called every direction null: a rank-2 2 x 2 matrix got a 2-dimensional kernel
    with pytest.raises(ValueError, match=f"^tol must be finite, got {tol}$"):
        linalg.null_space(np.eye(2), tol)


def test_null_space_refuses_a_negative_tol():
    with pytest.raises(ValueError, match="^tol must be nonnegative$"):
        linalg.null_space(np.eye(2), -1e-12)

