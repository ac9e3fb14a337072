import numpy as np
import pytest

from mpschain import ed, genstate, models, parent
from mpschain.ed import AmbiguousKernelError, ChainOperator
from mpschain.mps import amplitudes_vector
from mpschain.parent import LocalHamiltonian, NullSpaceBasis, local_hamiltonian_from_vectors

RNG = np.random.default_rng(21)


def _identity_local(k=2, d=3):
    # rank-d^k local term: the full projector (trivial kernel control)
    return LocalHamiltonian(
        k=k, matrix=np.eye(d**k), couplings=tuple([1.0] * d**k),
        basis=NullSpaceBasis(k=k, vectors=(), tol=0.0),
    )


def test_dense_and_matrix_free_agree():
    op = ChainOperator(6, models.model_II_hamiltonian())
    dense = ed.dense_matrix(op)
    for _ in range(3):
        v = RNG.standard_normal(op.dim)
        assert np.max(np.abs(dense @ v - op.apply(v))) < 1e-12


def test_hermitian_action():
    op = ChainOperator(5, models.model_I_hamiltonian(0.9))
    u = RNG.standard_normal(op.dim)
    v = RNG.standard_normal(op.dim)
    assert u @ op.apply(v) == pytest.approx(op.apply(u) @ v, abs=1e-10)


def test_ground_energy_zero_for_models():
    assert abs(ed.ground_energy(ChainOperator(6, models.model_I_hamiltonian(0.7)))) <= 1e-8
    assert abs(ed.ground_energy(ChainOperator(6, models.model_II_hamiltonian()))) <= 1e-8


def test_ground_energy_positive_control():
    op = ChainOperator(3, _identity_local())
    assert ed.ground_energy(op) == pytest.approx(3.0, abs=1e-8)


def test_lanczos_matches_dense():
    op_dense = ChainOperator(5, models.model_I_hamiltonian(1.2), mode="dense")
    op_iter = ChainOperator(5, models.model_I_hamiltonian(1.2), mode="matrix-free")
    e_dense = ed.ground_energy(op_dense)
    e_iter = ed.ground_energy(op_iter)
    assert e_iter == pytest.approx(e_dense, abs=1e-8)


def test_lanczos_on_larger_ring():
    op = ChainOperator(7, models.model_II_hamiltonian(), mode="matrix-free")
    assert abs(ed.ground_energy(op)) <= 1e-8


def test_lanczos_reproducible():
    op = ChainOperator(5, models.model_II_hamiltonian(), mode="matrix-free")
    assert ed.ground_energy(op) == ed.ground_energy(op)


def test_kernel_dimension_h1_equals_transfer_count():
    for n in (4, 6):
        op = ChainOperator(n, models.limit_hamiltonian_h1())
        assert ed.kernel_dimension(op) == models.adjacency_ground_count(n)


def test_kernel_dimension_model_ii_bounds():
    assert ed.kernel_dimension(ChainOperator(4, models.model_II_hamiltonian())) >= genstate.degeneracy_lower_bound(4)


def test_kernel_dimension_trivial_control():
    op = ChainOperator(2, _identity_local())
    assert ed.kernel_dimension(op) == 0


def test_kernel_dimension_gap_ambiguity():
    soft = np.zeros((9, 9))
    soft[4, 4] = 1e-7  # eigenvalues pile up inside [tol, 100 tol)
    op = ChainOperator(3, LocalHamiltonian(k=2, matrix=soft, couplings=(1e-7,),
                                           basis=NullSpaceBasis(k=2, vectors=(), tol=0.0)))
    with pytest.raises(AmbiguousKernelError) as err:
        ed.kernel_dimension(op, tol=1e-8)
    assert err.value.low < err.value.high


def test_kernel_invariant_under_coupling_rescale():
    basis = parent.ground_null_space(models.model_II(1.0), 2)
    dims = []
    for j in ([1.0, 1.0], [3.0, 0.5]):
        h = parent.local_hamiltonian(basis, j)
        dims.append(ed.kernel_dimension(ChainOperator(4, h)))
    assert dims[0] == dims[1]


def test_spectrum_zero_operator():
    zero = LocalHamiltonian(k=2, matrix=np.zeros((9, 9)), couplings=(),
                            basis=NullSpaceBasis(k=2, vectors=(), tol=0.0))
    w = ed.spectrum(ChainOperator(3, zero))
    assert not w.any()


def test_spectrum_invariant_under_global_rotation():
    import scipy.linalg

    from mpschain.spin import SX

    h2 = models.limit_hamiltonian_h2()
    op = ChainOperator(4, h2)
    w = ed.spectrum(op)
    r1 = scipy.linalg.expm(-1j * 0.7 * SX)
    r = r1
    for _ in range(3):
        r = np.kron(r, r1)
    h = ed.dense_matrix(op)
    w_rot = np.sort(np.linalg.eigvalsh(r @ h @ r.conj().T))
    assert np.max(np.abs(w - w_rot)) < 1e-10


def test_overlap_with_kernel():
    op = ChainOperator(6, models.model_II_hamiltonian())
    psi = amplitudes_vector(models.model_II(0.9), 6)
    assert ed.overlap_with_kernel(op, psi) <= 1e-10
    for z in (0, 2, 4, 6):
        vec = genstate.psi_n_expand(6, z).vector()
        assert ed.overlap_with_kernel(op, vec) <= 1e-10
    noise = RNG.standard_normal(op.dim)
    assert ed.overlap_with_kernel(op, noise) > 0.01
    with pytest.raises(ValueError):
        ed.overlap_with_kernel(op, np.zeros(op.dim))


def test_variational_consistency():
    fam = models.model_I(0.7)
    h = models.model_I_hamiltonian(0.7)
    op = ChainOperator(6, h)
    psi = amplitudes_vector(fam, 6)
    rayleigh = psi @ op.apply(psi) / (psi @ psi)
    e0 = ed.ground_energy(op)
    assert e0 <= rayleigh + 1e-12
    assert abs(e0) <= 1e-8 and abs(rayleigh) <= 1e-8


def test_report_payload():
    op = ChainOperator(4, models.model_II_hamiltonian())
    rep = ed.report(op)
    assert rep["n_sites"] == 4
    assert rep["kernel_dim"] >= 20
    assert len(rep["spectrum_head"]) == 20
    assert abs(rep["ground_energy"]) <= 1e-10
    import json

    json.dumps(rep)


def test_report_diagonalizes_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    ed.report(ChainOperator(4, models.model_II_hamiltonian()))
    assert len(calls) == 1


def _soft_gap_local():
    # the local eigenvalue 5e-8 sits between tol = 1e-8 and 100 tol
    soft = np.diag([0.0, 0.0, 0.0, 5e-8])
    return LocalHamiltonian(k=2, matrix=soft, couplings=(5e-8,),
                            basis=NullSpaceBasis(k=2, vectors=(), tol=0.0))


def test_report_kernel_dim_matches_kernel_dimension():
    for op in (ChainOperator(4, models.model_II_hamiltonian()), ChainOperator(4, models.limit_hamiltonian_h1())):
        assert ed.report(op)["kernel_dim"] == ed.kernel_dimension(op)
    op = ChainOperator(4, _soft_gap_local())
    with pytest.raises(AmbiguousKernelError) as err:
        ed.kernel_dimension(op)
    assert err.value.low < err.value.high
    assert ed.report(op)["kernel_dim"] == [err.value.low, err.value.high]


_NOT_A_POWER = LocalHamiltonian(k=2, matrix=np.eye(10), couplings=tuple([1.0] * 10),
                                basis=NullSpaceBasis(k=2, vectors=(), tol=0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: parent.chain_apply(_NOT_A_POWER, 4, np.ones(10**2)),
        lambda: ChainOperator(4, _NOT_A_POWER).d,
        lambda: ed.dense_chain(np.eye(10), 2, 4),
    ],
    ids=["chain_apply", "ChainOperator.d", "dense_chain"],
)
def test_local_dimension_must_be_a_clean_power(call):
    with pytest.raises(ValueError, match="local dimension"):
        call()


def test_site_caps_refuse_before_allocating():
    import tracemalloc

    h = models.model_II_hamiltonian()
    dense = ChainOperator(9, h, mode="dense")
    calls = [
        lambda: ed.dense_chain(h.matrix, 2, 9),
        lambda: ed.spectrum(dense),
        lambda: ed.kernel_dimension(dense),
        lambda: ed.ground_energy(dense),
        lambda: ed.ground_energy(ChainOperator(13, h, mode="matrix-free")),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match="exceeds the"):
                call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert not ChainOperator(9, h).is_dense()


def test_chain_operator_validation():
    with pytest.raises(ValueError):
        ChainOperator(1, models.model_II_hamiltonian())
    with pytest.raises(ValueError):
        ChainOperator(4, models.model_II_hamiltonian(), mode="bogus")


def _seeded_term(seed, size, complex_=False, symmetric=True):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    if complex_:
        a = a + 1j * rng.standard_normal((size, size))
    return a + a.conj().T if symmetric else a


@pytest.mark.parametrize(
    "h, k",
    [
        (local_hamiltonian_from_vectors([np.eye(9)[1]], k=2).matrix, 2),  # |1,0><1,0|, asymmetric windows
        (models.model_I_hamiltonian(2.5).matrix, 2),
        (_seeded_term(3, 9, complex_=True), 2),
        (_seeded_term(4, 27), 3),
        (_seeded_term(5, 4, symmetric=False), 2),
    ],
    ids=["ket10", "model_I_g2.5", "complex_hermitian", "real_symmetric_k3", "random_d2"],
)
def test_wraparound_embedding_matches_contraction(h, k):
    # the dense builder equals chain_apply column by column, bit for bit, every window included
    d = round(h.shape[0] ** (1 / k))
    local = LocalHamiltonian(k=k, matrix=h, couplings=(), basis=NullSpaceBasis(k=k, vectors=(), tol=0.0))
    for n in range(k, 7):
        columns = [parent.chain_apply(local, n, e) for e in np.eye(d**n)]
        assert np.array_equal(ed.dense_chain(h, k, n), np.stack(columns, axis=1))
