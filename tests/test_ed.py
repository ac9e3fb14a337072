from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpschain import ed, genstate, models, mps, parent
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
    # every mode runs the one Lanczos route; the dense lowest eigenvalue is the reference
    h = models.model_I_hamiltonian(1.2)
    e = ed.ground_energy(ChainOperator(5, h))
    assert [ed.ground_energy(ChainOperator(5, h, mode=mode)) for mode in ("dense", "matrix-free")] == [e, e]
    assert e == pytest.approx(ed.spectrum(ChainOperator(5, h))[0], abs=1e-8)


def test_lanczos_on_larger_ring():
    op = ChainOperator(7, models.model_II_hamiltonian(), mode="matrix-free")
    assert abs(ed.ground_energy(op)) <= 1e-8


def test_lanczos_reproducible():
    op = ChainOperator(5, models.model_II_hamiltonian(), mode="matrix-free")
    assert ed.ground_energy(op) == ed.ground_energy(op)


_LANCZOS_CHAINS = {
    "I_g0.3": lambda: models.model_I_hamiltonian(0.3),
    "I_g1": lambda: models.model_I_hamiltonian(1.0),
    "I_g2.5": lambda: models.model_I_hamiltonian(2.5),
    "II": models.model_II_hamiltonian,
    "h1": models.limit_hamiltonian_h1,
    "identity": _identity_local,
    "complex": lambda: _term_local(_seeded_term(3, 9, complex_=True)),
}


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in _LANCZOS_CHAINS for n in (6, 7, 8)]
    + [("complex", n) for n in (3, 4, 5)]
    + [pytest.param("complex", 9, marks=pytest.mark.slow)],  # 22 s of complex sector blocks
)
def test_matrix_free_ground_energy_matches_the_sector_spectrum(name, n):
    # the translation sectors of the exact blocks give the whole spectrum
    # without the 3^N x 3^N matrix.  The complex term's Lanczos took real
    # inner products: -38.97 at N = 5 and -54.50 at N = 9, where the
    # spectrum starts at -25.93 and -47.007
    op = ChainOperator(n, _LANCZOS_CHAINS[name](), mode="matrix-free")
    e = ed.ground_energy(op)
    w0 = ed._sector_spectrum(op)[0]
    assert abs(e - w0) <= (1e-8 * max(1.0, abs(w0)) if name == "complex" else 1e-10)
    assert ed.ground_energy(op) == e


@pytest.mark.parametrize("name", ["I_g0.3", "I_g1", "I_g2.5", "II"])
@pytest.mark.parametrize("n", [6, 8])
def test_lanczos_residual_bounds_the_true_ritz_residual(name, n):
    # the stop trusts beta_j |s_j| without a stored basis; rebuild the basis
    # from the vectors the solve multiplied, form the Ritz vector x and take
    # its true residual ||H x - theta x|| / ||x||
    from scipy.linalg import eigh_tridiagonal

    op = ChainOperator(n, _LANCZOS_CHAINS[name](), mode="matrix-free")
    qs, hqs = [], []

    def matvec(v):
        qs.append(v.copy())
        hqs.append(op.apply(v))
        return hqs[-1].copy()

    theta, residual = ed._lanczos_smallest(matvec, op.dim)
    alphas = [float(q @ hq) for q, hq in zip(qs, hqs)]
    betas: list[float] = []
    for j in range(len(qs) - 1):
        w = hqs[j] - alphas[j] * qs[j] - (betas[-1] * qs[j - 1] if j else 0.0)
        betas.append(float(np.linalg.norm(w)))
    thetas, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(0, 0))
    assert thetas[0] == theta
    x = s[:, 0] @ np.array(qs)
    hx = s[:, 0] @ np.array(hqs)
    true = np.linalg.norm(hx - theta * x) / np.linalg.norm(x)
    assert 0.0 < residual <= 1e-6 * max(1.0, abs(theta))
    assert true <= 10 * residual


def test_lanczos_allocation_is_bounded():
    # q, the previous q, w and the matvec's temporaries: no Krylov basis
    import tracemalloc

    op = ChainOperator(8, models.model_II_hamiltonian(), mode="matrix-free")
    tracemalloc.start()
    try:
        ed.ground_energy(op)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * op.dim * 8


def test_lanczos_convergence_error_reports_the_last_increment(monkeypatch):
    op = ChainOperator(8, models.model_II_hamiltonian(), mode="matrix-free")
    monkeypatch.setattr(ed, "_LANCZOS_MAX_ITER", 20)
    with pytest.raises(ed.LanczosConvergenceError, match="after 20 iterations") as info:
        ed._lanczos_smallest(op.apply, op.dim)
    assert float(str(info.value).rsplit("last increment ", 1)[1]) > 0.0


@pytest.mark.parametrize("name, matvecs", [("II", 113), ("I_g2.5", 53), ("I_g0.3", 102)])
def test_lanczos_matvec_counts_are_pinned(name, matvecs):
    # the Lanczos work of three converged solves at N = 8, counted on the
    # matvecs; tests/test_chain_apply.py pins the kernel itself bit for bit
    op = ChainOperator(8, _LANCZOS_CHAINS[name](), mode="matrix-free")
    calls = []

    def matvec(v):
        calls.append(None)
        return op.apply(v)

    ed._lanczos_smallest(matvec, op.dim)
    assert len(calls) == matvecs


def test_kernel_dimension_h1_equals_transfer_count():
    for n in (4, 6, 9):
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
        ed.kernel_dimension(op)
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
    # the exact lowest eigenvalue bounds the Rayleigh quotient; a Lanczos value lies above it by about
    # the square of its stopping residual (1.3e-12 here)
    e0 = ed.spectrum(op)[0]
    assert e0 <= rayleigh + 1e-12
    assert abs(e0) <= 1e-8 and abs(rayleigh) <= 1e-8 and abs(ed.ground_energy(op)) <= 1e-8


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


def test_byte_guard_refuses_every_route_before_allocating(monkeypatch):
    # one 1 GiB budget (mps._BYTE_BUDGET) guards every route; each refusal below would build
    # gigabytes past its estimate, and each stays under 1 MiB of traced memory
    import tracemalloc

    real, complex_ = models.model_II_hamiltonian(), _LANCZOS_CHAINS["complex"]()
    d4 = _term_local(np.eye(16))  # a d = 4 two-site term, which the old 8-site cap admitted at N = 7 and 8
    fam = models.model_I(0.7)
    refused = [
        # dense: 2 d^(2N) itemsize, the matrix and eigvalsh's copy
        ("dense chain at n_sites 7", 2 * 4**14 * 8, lambda: ed.dense_chain(d4.matrix, 2, 7)),
        ("dense chain at n_sites 7", 2 * 4**14 * 8, lambda: ed.spectrum(ChainOperator(7, d4))),
        ("dense chain at n_sites 9", 2 * 3**18 * 8, lambda: ed.report(ChainOperator(9, real))),
        ("dense chain at n_sites 8", 2 * 3**16 * 16, lambda: ed.spectrum(ChainOperator(8, complex_))),
        ("dense chain at n_sites 10", 2 * 3**20 * 8, lambda: models.sigma_equivalence_check(10)),
        # the target, the identity, six chain sums and their (9^N, 7) stack, held at once; each dense
        # chain alone passed the guard at N = 8, and the whole needed ~5.2 GB
        ("spin-form decomposition at n_sites 8", 9**8 * 15 * 8, lambda: models.spin_form_decompose(real, 8)),
        # a d^k x d^k reduced density, and the d^k x d^k right factor of the word-matrix SVD
        ("reduced density of 9 sites", 3**18 * 8, lambda: parent.reduced_density(fam, 9, 12)),
        ("kernel of the 9-site words", 3**18 * 8, lambda: parent.ground_null_space(fam, 9)),
        # Lanczos: 8 d^N itemsize; the admitted edges are pinned by the next test
        ("ground energy at n_sites 16", 8 * 3**16 * 8, lambda: ed.ground_energy(ChainOperator(16, real))),
        ("ground energy at n_sites 15", 8 * 3**15 * 16, lambda: ed.ground_energy(ChainOperator(15, complex_))),
        ("kernel count at n_sites 16", None, lambda: ed.kernel_dimension(ChainOperator(16, real))),
    ]

    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    tracemalloc.start()
    try:
        for what, need, call in refused:
            tracemalloc.reset_peak()
            figure = "[0-9]+" if need is None else str(need)
            with pytest.raises(ValueError, match=f"^{what} needs an estimated {figure} bytes, which exceeds the 1073741824 "):
                call()
            assert tracemalloc.get_traced_memory()[1] < 2**20, what
        # admitted on the estimate alone: a real d = 3 chain of 8 sites (688,747,536 B) reaches np.zeros
        monkeypatch.setattr(np, "zeros", admitted)
        tracemalloc.reset_peak()
        with pytest.raises(Admitted):
            ed.dense_chain(real.matrix, 2, 8)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert ed._dense_bytes(real.matrix, 3, 8) == 688_747_536
    dense = [ChainOperator(n, h).is_dense() for n, h in ((8, real), (9, real), (8, complex_), (6, d4), (7, d4))]
    assert dense == [True, False, False, True, False]


def test_chain_operator_validation():
    with pytest.raises(ValueError):
        ChainOperator(1, models.model_II_hamiltonian())
    with pytest.raises(ValueError):
        ChainOperator(4, models.model_II_hamiltonian(), mode="bogus")


def test_ground_energy_guard_counts_eight_vectors_of_the_term_dtype(monkeypatch):
    # 8 d^N entries of 8 (real) or 16 (complex) bytes against the 1 GiB budget: real d = 3 terms
    # reach 15 sites, complex ones 14; the solve itself is stubbed, so nothing of that size is made
    monkeypatch.setattr(ed, "_lanczos_smallest", lambda matvec, dim: (float(dim), 0.0))
    real, complex_ = models.model_II_hamiltonian(), _LANCZOS_CHAINS["complex"]()
    assert [ed.ground_energy(ChainOperator(n, h)) for n, h in ((15, real), (14, complex_))] == [3**15, 3**14]
    for n, h, need in ((16, real, 8 * 3**16 * 8), (15, complex_, 8 * 3**15 * 16)):
        with pytest.raises(ValueError, match=f"ground energy at n_sites {n} needs an estimated {need} bytes"):
            ed.ground_energy(ChainOperator(n, h))


def _term_local(h, k=2):
    return LocalHamiltonian(k=k, matrix=h, couplings=(), basis=NullSpaceBasis(k=k, vectors=(), tol=0.0))


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
    local = _term_local(h, k)
    for n in range(k, 7):
        columns = [parent.chain_apply(local, n, e) for e in np.eye(d**n)]
        assert np.array_equal(ed.dense_chain(h, k, n), np.stack(columns, axis=1))


#: Connected blocks of the model II chain at N = 3..9; each holds one kernel vector.
MODEL_II_BLOCKS = {3: 14, 4: 26, 5: 48, 6: 88, 7: 166, 8: 314, 9: 606}


def _totient(d):
    return sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)


def _binary_necklaces(length):
    """Binary necklaces of the given length, (1/L) sum over d | L of phi(d) 2^(L/d) (OEIS A000031)."""
    return sum(_totient(d) * 2 ** (length // d) for d in range(1, length + 1) if length % d == 0) // length


def _block_labels(op):
    """Each state labelled by the smallest state of its connected block of the chain."""
    rows, cols, _ = map(np.concatenate, zip(*ed._window_entries(op.local.matrix, op.d, op.local.k, op.n_sites)))
    return ed._components(rows, cols, op.dim)


def test_model_ii_has_one_block_per_kernel_vector():
    for n, want in MODEL_II_BLOCKS.items():
        op = ChainOperator(n, models.model_II_hamiltonian())
        assert np.unique(_block_labels(op)).size == want
        assert ed.kernel_dimension(op) == want
        # the +-1-only strings, the all-zero string, and one ground state per cyclic +-1 word (up to
        # rotation) of the N - n nonzero sites in each sector 0 < n < N
        assert want == 2**n + 1 + sum(_binary_necklaces(length) for length in range(1, n))


def test_model_ii_blocks_are_half_graph_laplacians():
    # zero row sums and non-positive off-diagonals: each connected block is half a graph
    # Laplacian, with the constant vector on its states as its one zero mode
    for n in range(4, 8):
        h = ed.dense_matrix(ChainOperator(n, models.model_II_hamiltonian(), mode="dense"))
        assert np.max(np.abs(h.sum(axis=1))) <= 1e-14
        np.fill_diagonal(h, 0.0)
        assert h.max() <= 0.0


def test_model_i_kernel_is_the_g1_kernel_rescaled():
    # <e(g)| (D_g x D_g) = <e(1)| with D_g = diag(1/g, 1, 1/g), so D_g^{(x)N} maps ker H_I(1) onto ker H_I(g)
    n = 6
    w, v = np.linalg.eigh(ed.dense_matrix(ChainOperator(n, models.model_I_hamiltonian(1.0), mode="dense")))
    kernel = v[:, np.abs(w) < 1e-8]
    assert kernel.shape[1] == 322
    for g in (0.4, 0.7, 2.5):
        d_g = np.array([1.0 / g, 1.0, 1.0 / g])
        d_chain = d_g
        for _ in range(n - 1):
            d_chain = np.multiply.outer(d_chain, d_g).reshape(-1)
        h = models.model_I_hamiltonian(g)
        assert max(parent.chain_residual(h, n, d_chain * kernel[:, j]) for j in range(kernel.shape[1])) <= 1e-12


def test_h1_kernel_at_eight_sites():
    op = ChainOperator(8, models.limit_hamiltonian_h1())
    assert ed.kernel_dimension(op) == models.adjacency_ground_count(8)


def test_kernel_dimension_never_builds_the_full_matrix(monkeypatch):
    import tracemalloc

    def refuse(*args, **kwargs):
        raise AssertionError("dense chain built")

    full = []
    eigvalsh = np.linalg.eigvalsh

    def blocks_only(a, *args, **kwargs):
        if np.shape(a)[-1] == full[-1]:
            raise AssertionError("full-size eigvalsh")
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(ed, "dense_chain", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", blocks_only)
    cases = [
        (models.model_I_hamiltonian(2.5), {6: 322, 7: 843}),
        (models.model_II_hamiltonian(), {6: 88, 7: 166}),
        (models.limit_hamiltonian_h1(), {n: models.adjacency_ground_count(n) for n in (6, 7)}),
    ]
    tracemalloc.start()
    try:
        for h, counts in cases:
            for n, want in counts.items():
                full.append(3**n)
                tracemalloc.reset_peak()
                assert ed.kernel_dimension(ChainOperator(n, h)) == want
                # a quarter of the dense matrix's bytes
                assert tracemalloc.get_traced_memory()[1] < 8 * 9**n / 4
    finally:
        tracemalloc.stop()


@st.composite
def sparse_terms(draw):
    """Hermitian k-site terms with a random zero pattern, so the chain splits into blocks."""
    k = draw(st.sampled_from((2, 3)))
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(k, 6 if d == 2 else 5))
    complex_ = draw(st.booleans())
    psd = draw(st.booleans())
    density = draw(st.sampled_from((0.01, 0.03, 0.1, 0.3)))
    # a scale of 1e-7 puts eigenvalues inside the ambiguous band [tol, 100 tol)
    scale = draw(st.sampled_from((1.0, 1e-7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = d**k

    def draw_matrix(shape):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if complex_ else a

    if psd:  # B^dagger B with a sparse B: positive, with a kernel
        b = draw_matrix((size // 2, size)) * (rng.random((size // 2, size)) < density)
        h = b.conj().T @ b
    else:
        mask = rng.random((size, size)) < density
        a = draw_matrix((size, size))
        h = (a + a.conj().T) * (mask | mask.T)
    return ChainOperator(n, _term_local(scale * h, k))


def _kernel_outcome(count):
    try:
        return count()
    except AmbiguousKernelError as exc:
        return (exc.low, exc.high)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(sparse_terms())
def test_block_route_equals_the_dense_spectrum(op):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    dense = ed.dense_matrix(op)
    # the block labels partition the states as the connected components of the dense pattern do
    labels = _block_labels(op)
    n_components, theirs = connected_components(coo_array(dense != 0), directed=False)
    assert np.unique(labels).size == n_components
    assert np.unique(np.stack([labels, theirs]), axis=1).shape[1] == n_components
    assert np.all(labels <= np.arange(op.dim)) and np.all(labels[labels] == labels)  # the smallest state
    w = ed.spectrum(op)
    assert np.max(np.abs(ed._sector_spectrum(op) - w)) <= 1e-10
    # the Lanczos stop (Ritz residual at most 1e-6 max(1, |theta|)) puts an eigenvalue that close: the lowest
    assert abs(ed.ground_energy(op) - w[0]) <= 1e-6 * max(1.0, abs(w[0]))
    assert _kernel_outcome(lambda: ed.kernel_dimension(op)) == _kernel_outcome(lambda: ed._kernel_count(w, 1e-8))


def _lucas_even(n):
    """L_{2N} by L_{2N} = 3 L_{2N-2} - L_{2N-4} from L_0 = 2, L_2 = 3."""
    prev, cur = 2, 3
    for _ in range(n - 1):
        prev, cur = cur, 3 * cur - prev
    return cur


@pytest.mark.parametrize("g", [0.4, 1.0, 2.5])
def test_model_i_kernel_dimension_is_the_even_lucas_number(g):
    # model I is the g = 1 singlet chain conjugated by D_g^{(x)N}: its ring kernel is the
    # Temperley-Lieb count L_{2N} = q^N + q^-N at loop weight 3 = q + 1/q, whatever g
    assert [_lucas_even(n) for n in range(3, 10)] == [18, 47, 123, 322, 843, 2207, 5778]
    for n in range(3, 10 if g == 2.5 else 8):
        assert ed.kernel_dimension(ChainOperator(n, models.model_I_hamiltonian(g))) == _lucas_even(n)


def test_chunked_sector_stacks_give_the_same_counts(monkeypatch):
    # a budget 256 or 64 KiB above the labels' estimate, or a one-byte chunk aim (each chunk then
    # holds at most two of the largest blocks), splits the stacks into chunks of a few matrices;
    # eigvalsh treats each matrix of a stack alone, so no value can move
    import tracemalloc

    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    model_i, model_ii = (ChainOperator(7, h) for h in (models.model_I_hamiltonian(2.5), models.model_II_hamiltonian()))
    cases = [(model_i, 2**18, ed._CHUNK_BYTES), (model_ii, 2**16, ed._CHUNK_BYTES), (model_i, None, 1)]
    whole = []
    for op, _, _ in cases:
        whole.append((ed._sector_spectrum(op), len(calls)))
        calls.clear()
    default_budget = mps._BYTE_BUDGET
    tracemalloc.start()
    try:
        for (op, room, chunk_bytes), (w, n_calls) in zip(cases, whole):
            budget = default_budget if room is None else ed._labelling_bytes(op, op.n_sites // 2 + 1) + room
            monkeypatch.setattr(mps, "_BYTE_BUDGET", budget)
            monkeypatch.setattr(ed, "_CHUNK_BYTES", chunk_bytes)
            tracemalloc.reset_peak()
            assert np.array_equal(ed._sector_spectrum(op), w)
            assert tracemalloc.get_traced_memory()[1] <= budget
            assert len(calls) > n_calls
            assert ed.kernel_dimension(op) == ed._kernel_count(w, ed._KERNEL_TOL)
            calls.clear()
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_kernel_dimension_at_ten_sites():
    assert ed.kernel_dimension(ChainOperator(10, models.model_I_hamiltonian(2.5))) == _lucas_even(10) == 15127
    assert ed.kernel_dimension(ChainOperator(10, models.model_II_hamiltonian())) == 1178


@pytest.mark.slow
def test_ground_energy_at_thirteen_sites():
    # past the old 12-site iterative cap, within the byte guard: 8 * 3^13 * 8 bytes is about 102 MB
    assert abs(ed.ground_energy(ChainOperator(13, models.model_I_hamiltonian(2.5)))) <= 1e-8
