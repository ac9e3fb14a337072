import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpschain
from mpschain import linalg, models, parent
from mpschain.mps import MpsFamily, amplitudes_vector
from mpschain.parent import (
    InvalidModelError,
    LocalHamiltonian,
    NullSpaceBasis,
    chain_apply,
    chain_residual,
    ground_null_space,
    local_hamiltonian,
    local_hamiltonian_from_vectors,
    reduced_density,
    verify_zero_energy,
    word_matrix,
)


def test_word_matrix_shape_and_columns():
    fam = models.model_II(1.0)
    m = word_matrix(fam, 2)
    assert m.shape == (9, 9)
    a1 = fam.matrices["1"]
    a0 = fam.matrices["0"]
    # column of the word (1, 0) in lexicographic label order (1, 0, -1)
    assert np.allclose(m[:, 0 * 3 + 1], (a1 @ a0).reshape(-1))


def test_word_matrix_k1_trivial_kernel():
    basis = ground_null_space(models.model_I(0.7), 1)
    assert basis.is_empty


def test_model_i_kernel():
    g = 0.7
    basis = ground_null_space(models.model_I(g), 2)
    assert basis.dim == 1
    expected = models.model_I_null_vector(g)
    overlap = abs(basis.vectors[0] @ expected)
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_model_ii_kernel():
    basis = ground_null_space(models.model_II(1.3), 2)
    assert basis.dim == 2
    span = sum(np.outer(v, v) for v in basis.vectors)
    expected = sum(np.outer(v, v) for v in models.model_II_null_vectors())
    assert np.max(np.abs(span - expected)) < 1e-10


def test_aklt_kernel_dimension():
    assert ground_null_space(models.aklt_family(), 2).dim == 5


def test_empty_kernel_is_a_result():
    basis = ground_null_space(models.general_family(1.0, 2.0, 1.0), 2)
    assert basis.is_empty
    with pytest.raises(ValueError):
        local_hamiltonian(basis)


def test_zero_family_rejected():
    fam = MpsFamily(
        d=2, D=2, labels=("a", "b"),
        matrices={"a": np.zeros((2, 2)), "b": np.zeros((2, 2))},
    )
    with pytest.raises(InvalidModelError):
        ground_null_space(fam, 2)


def test_failed_kernel_recheck_is_named(monkeypatch):
    # the word (1, 1) = A_1 A_1 is nonzero, so e_0 is no kernel vector of the word matrix
    monkeypatch.setattr(linalg, "null_space", lambda m, tol: [np.eye(m.shape[1])[0]])
    with pytest.raises(mpschain.KernelRecheckError, match="kernel re-check failed") as err:
        ground_null_space(models.model_II(1.0), 2)
    assert isinstance(err.value, ArithmeticError)
    assert parent.KernelRecheckError is mpschain.KernelRecheckError


def test_canonical_basis_reproducible():
    b1 = ground_null_space(models.model_II(0.9), 2)
    b2 = ground_null_space(models.model_II(0.9), 2)
    for u, v in zip(b1.vectors, b2.vectors):
        assert np.array_equal(u, v)


def test_local_hamiltonian_structure():
    basis = ground_null_space(models.model_II(1.0), 2)
    h = local_hamiltonian(basis, [2.0, 5.0])
    expected = 2.0 * np.outer(basis.vectors[0], basis.vectors[0]) + 5.0 * np.outer(
        basis.vectors[1], basis.vectors[1]
    )
    assert np.array_equal(h.matrix, expected)
    evals = np.linalg.eigvalsh(h.matrix)
    assert evals.min() >= -1e-12
    with pytest.raises(ValueError):
        local_hamiltonian(basis, [1.0])
    with pytest.raises(ValueError):
        local_hamiltonian(basis, [1.0, -1.0])


def test_coupling_independence_of_kernel():
    basis = ground_null_space(models.model_II(1.0), 2)
    dims = []
    for j in ([1.0, 1.0], [2.5, 7.0]):
        h = local_hamiltonian(basis, j)
        dims.append(int(np.sum(np.linalg.eigvalsh(h.matrix) < 1e-12)))
    assert dims[0] == dims[1] == 7


def test_counting_bound_on_random_families():
    # d^k > D^2 guarantees kernel dimension >= d^k - D^2
    for seed in range(4):
        rng = np.random.default_rng(seed)
        fam = MpsFamily(
            d=3, D=2, labels=("1", "0", "-1"),
            matrices={lab: rng.standard_normal((2, 2)) for lab in ("1", "0", "-1")},
        )
        assert ground_null_space(fam, 2).dim >= 9 - 4


def test_reduced_density_unit_trace_and_kernel():
    fam = models.model_I(0.7)
    rho = reduced_density(fam, 2, 6)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    e = models.model_I_null_vector(0.7)
    assert np.linalg.norm(rho @ e) < 1e-10


def test_reduced_density_partial_trace_consistency():
    fam = models.model_I(0.9)
    n = 6
    rho3 = reduced_density(fam, 3, n).reshape(9, 3, 9, 3)
    rho2 = reduced_density(fam, 2, n)
    traced = np.einsum("iaja->ij", rho3)
    assert np.max(np.abs(traced - rho2)) < 1e-12


def test_kernel_rho_duality():
    for fam in (models.model_I(1.2), models.model_II(0.8)):
        basis = ground_null_space(fam, 2)
        rho = reduced_density(fam, 2, 6)
        for v in basis.vectors:
            assert np.linalg.norm(rho @ v) < 1e-10


def test_chain_apply_zero_term():
    zero = LocalHamiltonian(
        k=2, matrix=np.zeros((9, 9)), couplings=(),
        basis=NullSpaceBasis(k=2, vectors=(), tol=0.0),
    )
    out = chain_apply(zero, 4, np.ones(81))
    assert not out.any()


def test_chain_apply_model_ii_three_sites():
    h = models.model_II_hamiltonian()
    # |0,1,1>: bond (1,2) gives 1/2, bond (3,1) gives 1/2, bond (2,3) gives 0
    idx = 1 * 9 + 0 * 3 + 0
    state = np.zeros(27)
    state[idx] = 1.0
    hstate = chain_apply(h, 3, state)
    assert hstate[idx] == pytest.approx(1.0, abs=1e-12)
    h2state = chain_apply(h, 3, hstate)
    assert state @ h2state == pytest.approx(hstate @ hstate, abs=1e-12)


def test_chain_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        chain_apply(models.model_II_hamiltonian(), 4, np.ones(80))


def test_mps_is_zero_energy_eigenstate():
    fam = models.model_I(0.7)
    h = models.model_I_hamiltonian(0.7)
    psi = amplitudes_vector(fam, 6)
    assert np.linalg.norm(chain_apply(h, 6, psi)) / np.linalg.norm(psi) < 1e-10


def test_verify_zero_energy_both_models():
    assert verify_zero_energy(models.model_I(0.7), models.model_I_hamiltonian(0.7), 6) < 1e-10
    assert verify_zero_energy(models.model_II(1.3), models.model_II_hamiltonian(), 6) < 1e-10


def test_verify_zero_energy_contrapositive():
    # projector onto a NON-null vector must not annihilate the state
    bad = np.zeros(9)
    bad[4] = 1.0  # |00> is not in the model II kernel
    h = local_hamiltonian_from_vectors([bad], k=2)
    assert verify_zero_energy(models.model_II(1.0), h, 6) > 0.1


def test_local_hamiltonian_from_vectors_keeps_imaginary_parts():
    v = np.zeros(9, dtype=complex)
    v[1] = 1.0
    v[4] = 1j
    u = v / np.linalg.norm(v)
    h = local_hamiltonian_from_vectors([v], k=2).matrix
    # the projector onto conj(u), as local_hamiltonian builds from a kernel basis
    assert np.max(np.abs(h.imag)) > 0.1
    assert np.allclose(h, np.outer(u.conj(), u), atol=1e-15)
    assert np.allclose(h @ u.conj(), u.conj(), atol=1e-15)
    # a real vector next to a complex one is promoted, not the other way round
    e0 = np.eye(9)[0]
    mixed = local_hamiltonian_from_vectors([e0, v], k=2).matrix
    assert np.allclose(mixed, np.outer(e0, e0) + np.outer(u.conj(), u), atol=1e-15)


def test_local_hamiltonian_from_real_vectors_stays_real():
    for h in (models.model_II_hamiltonian(), models.model_I_hamiltonian(0.7)):
        assert h.matrix.dtype == np.float64
        rebuilt = local_hamiltonian_from_vectors(list(h.basis.vectors), k=2, couplings=h.couplings)
        assert np.array_equal(rebuilt.matrix, h.matrix)


def test_frustration_freeness_even_rings():
    for n in (4, 6, 8, 10):
        assert verify_zero_energy(models.model_I(1.5), models.model_I_hamiltonian(1.5), n) < 1e-10
        assert verify_zero_energy(models.model_II(0.3), models.model_II_hamiltonian(), n) < 1e-10


def test_local_hamiltonian_json_round_trip(tmp_path):
    h = models.model_II_hamiltonian()
    path = tmp_path / "h.json"
    h.save(path)
    back = LocalHamiltonian.load(path)
    assert back.k == h.k
    assert back.couplings == h.couplings
    assert np.array_equal(back.matrix, h.matrix)
    text = path.read_text()
    back.save(path)
    assert path.read_text() == text


def test_chain_residual_refuses_the_zero_state():
    with pytest.raises(mpschain.mps.DegenerateNormError):
        chain_residual(models.model_II_hamiltonian(), 4, np.zeros(81))


@st.composite
def kernel_bearing_families(draw):
    """Real or complex d = 3 families whose k-site kernel cannot be empty: d^k > D^2."""
    D, k = draw(st.sampled_from(((1, 2), (2, 2), (3, 3))))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = ("1", "0", "-1")
    mats = {}
    for lab in labels:
        m = rng.standard_normal((D, D))
        mats[lab] = m + 1j * rng.standard_normal((D, D)) if is_complex else m
    return MpsFamily(d=3, D=D, labels=labels, matrices=mats), k


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(kernel_bearing_families())
def test_parent_chain_annihilates_the_state(case):
    fam, k = case
    h = local_hamiltonian(ground_null_space(fam, k))
    assert verify_zero_energy(fam, h, 6) <= 1e-10
    assert verify_zero_energy(fam, LocalHamiltonian.from_json_dict(h.to_json_dict()), 6) <= 1e-10
