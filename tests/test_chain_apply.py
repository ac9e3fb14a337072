"""The matrix-free chain kernel parent.chain_apply: bit for bit against the per-window transpose
contraction it replaced, also for terms that act on part of the window space only, and against
the dense window scatter of ed.dense_chain."""

import numpy as np
import pytest

from mpschain import ed, models, parent
from mpschain.parent import LocalHamiltonian, NullSpaceBasis, _local_dim


def _moveaxis_reference(h: LocalHamiltonian, n_sites: int, state: np.ndarray) -> np.ndarray:
    """The earlier chain_apply: each window moved to the front in a transposed copy, then moved back."""
    k = h.k
    d = _local_dim(h.dim, k)
    psi = np.asarray(state).reshape((d,) * n_sites)
    out = np.zeros_like(psi, dtype=np.result_type(psi, h.matrix))
    for start in range(n_sites):
        axes = [(start + j) % n_sites for j in range(k)]
        moved = np.moveaxis(psi, axes, range(k)).reshape(d**k, -1)
        term = (h.matrix @ moved).reshape((d,) * n_sites)
        out += np.moveaxis(term, range(k), axes)
    return out.reshape(-1)


def _random_term(seed: int, d: int, k: int, complex_: bool = False) -> LocalHamiltonian:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d**k, d**k))
    if complex_:
        m = m + 1j * rng.standard_normal((d**k, d**k))
    return LocalHamiltonian(k=k, matrix=m, couplings=(), basis=NullSpaceBasis(k=k, vectors=(), tol=0.0))


_MODELS = {
    "I_g0.3": lambda: models.model_I_hamiltonian(0.3),
    "I_g2.5": lambda: models.model_I_hamiltonian(2.5),
    "II": models.model_II_hamiltonian,
    "h1": models.limit_hamiltonian_h1,
}


@pytest.mark.parametrize("name", list(_MODELS))
def test_models_match_the_moveaxis_contraction_bit_for_bit(name):
    h = _MODELS[name]()
    rng = np.random.default_rng(11)
    for n in range(2, 12):
        state = rng.standard_normal(3**n)
        assert np.array_equal(parent.chain_apply(h, n, state), _moveaxis_reference(h, n, state)), n


@pytest.mark.parametrize("k", [2, 3])
def test_random_spin_half_terms_match_the_moveaxis_contraction_bit_for_bit(k):
    rng = np.random.default_rng(12 + k)
    for seed in range(3):
        h = _random_term(seed, 2, k)
        for n in range(k, 13):
            state = rng.standard_normal(2**n)
            assert np.array_equal(parent.chain_apply(h, n, state), _moveaxis_reference(h, n, state)), (seed, n)


@pytest.mark.parametrize("d, k", [(3, 2), (2, 3)])
def test_an_apply_takes_two_frames_and_three_transposes(monkeypatch, d, k):
    # the state and the output rotated once each, the output back once; odd N (and k = 3 at
    # even N) took a third frame and five transposes.  At N = 5, k = 3 the N - k - 1 cap keeps
    # three frames, as a window at s = N - k would be a one-column product
    real, calls = parent._rotate, []
    monkeypatch.setattr(parent, "_rotate", lambda *args: calls.append(None) or real(*args))
    h = _random_term(17, d, k)
    rng = np.random.default_rng(d * 10 + k)
    for n in range(k + 2, 14):
        state = rng.standard_normal(d**n)
        calls.clear()
        out = parent.chain_apply(h, n, state)
        assert len(calls) == (3 if n >= 2 * k else 5), n
        assert np.array_equal(out, _moveaxis_reference(h, n, state)), n


def _states(kind: str, dim: int) -> np.ndarray:
    rng = np.random.default_rng(dim)
    if kind == "float":
        return rng.standard_normal(dim)
    if kind == "complex":
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if kind == "strided":
        return rng.standard_normal(2 * dim)[::2]
    if kind == "read_only":
        state = rng.standard_normal(dim)
        state.flags.writeable = False
        return state
    return rng.integers(-5, 6, size=dim)


_TERMS = {
    "d3_k2": (3, 2, False),
    "d3_k3": (3, 3, False),
    "d2_k2": (2, 2, False),
    "d2_k3": (2, 3, False),
    "d3_k2_complex": (3, 2, True),
    "d2_k3_complex": (2, 3, True),
}


@pytest.mark.parametrize("kind", ["float", "complex", "strided", "read_only", "int"])
@pytest.mark.parametrize("term", list(_TERMS))
def test_edge_cases_match_the_dense_chain(term, kind):
    d, k, complex_ = _TERMS[term]
    h = _random_term(7, d, k, complex_)
    for n in sorted({k, k + 1, 5, 6}):
        state = _states(kind, d**n)
        before = state.copy()
        out = parent.chain_apply(h, n, state)
        assert np.array_equal(state, before)
        assert out.dtype == np.result_type(state, h.matrix)
        assert out.shape == state.shape and out.flags.writeable
        assert not np.shares_memory(out, state)
        want = ed.dense_chain(h.matrix, k, n) @ state
        assert np.linalg.norm(out - want) <= 1e-13 * np.linalg.norm(want), n


_SUPPORTS = {
    "single": lambda dim: [dim // 2],
    "contiguous": lambda dim: list(range(1, dim // 2 + 1)),
    "strided": lambda dim: list(range(0, dim, 3)),
    "scattered": lambda dim: [0, 1, dim - 1],
    "full": lambda dim: list(range(dim)),
    "zero": lambda dim: [],
    # nonzero rows {0} and columns {dim - 2}: the support is their union
    "off_diagonal": lambda dim: ([0], [dim - 2]),
}


def _term_on(support, seed: int, d: int, k: int, complex_: bool) -> LocalHamiltonian:
    """A random term whose rows and columns outside the support are zero; a (rows, columns) pair
    keeps those rows and columns only."""
    rows, cols = support if isinstance(support, tuple) else (support, support)
    h = _random_term(seed, d, k, complex_)
    keep_rows, keep_cols = np.zeros((2, d**k), dtype=bool)
    keep_rows[rows] = True
    keep_cols[cols] = True
    matrix = np.where(keep_rows[:, None] & keep_cols[None, :], h.matrix, 0)
    return LocalHamiltonian(k=k, matrix=matrix, couplings=(), basis=h.basis)


def _assert_matches(out: np.ndarray, want: np.ndarray, exact: bool, n: int) -> None:
    if exact:
        assert np.array_equal(out, want), n
    else:
        assert np.linalg.norm(out - want) <= 1e-13 * np.linalg.norm(want), n


def _bit_pinned(d: int, k: int, complex_: bool) -> bool:
    """Real terms of size d^k <= 9 (the models' size) match the reference bit for bit.  Complex
    and 27 x 27 terms round their last bits by the product's shape in BLAS, the full term too:
    they match it to rounding."""
    return not complex_ and d**k <= 9


_D_K = [(2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d, k", _D_K)
@pytest.mark.parametrize("support", list(_SUPPORTS))
def test_terms_on_a_support_match_the_moveaxis_contraction(support, d, k, complex_):
    h = _term_on(_SUPPORTS[support](d**k), 5, d, k, complex_)
    # the support is a slice exactly when it is an arithmetic progression (full and empty included)
    rows = np.flatnonzero(h.matrix.any(axis=0) | h.matrix.any(axis=1))
    assert isinstance(parent._support(h.matrix, k + 1, k), slice) == (len(set(np.diff(rows).tolist())) <= 1)
    rng = np.random.default_rng(d * 10 + k)
    for n in range(k, 13 if d == 2 else 11):
        state = rng.standard_normal(d**n)
        if complex_:
            state = state + 1j * rng.standard_normal(d**n)
        out = parent.chain_apply(h, n, state)
        _assert_matches(out, _moveaxis_reference(h, n, state), _bit_pinned(d, k, complex_), n)
        if support == "zero":
            assert not out.any()


@pytest.mark.parametrize("d, k", _D_K)
@pytest.mark.parametrize("rows", [("single", "strided", "zero"), ("scattered", "off_diagonal", "full")])
def test_per_row_terms_with_different_supports_match_their_one_state_products(rows, d, k):
    # the kernel applies the union of the rows' supports to every row
    terms = [_term_on(_SUPPORTS[name](d**k), g, d, k, False) for g, name in enumerate(rows)]
    stack = np.stack([h.matrix for h in terms])
    rng = np.random.default_rng(d + k)
    for n in range(k, 13 if d == 2 else 11):
        states = rng.standard_normal((len(terms), d**n))
        applied = parent._chain_apply(stack, k, n, states)
        for h, state, row in zip(terms, states, applied):
            _assert_matches(row, _moveaxis_reference(h, n, state), _bit_pinned(d, k, False), n)


def test_a_non_finite_entry_outside_every_support_no_longer_spreads_nan():
    # model II acts on the |S^z| = 1 pair states only: no window of |1 1 ... 1> (index 0) is one
    h = models.model_II_hamiltonian()
    n = 6
    state = np.random.default_rng(3).standard_normal(3**n)
    state[0] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(_moveaxis_reference(h, n, state)).any()
    finite = state.copy()
    finite[0] = 0.0
    assert np.array_equal(parent.chain_apply(h, n, state), parent.chain_apply(h, n, finite))


#: chain_residual of a fixed-seed state at N = 10 and 11, past the ~10^4 entries from which OpenBLAS
#: splits one dot product across threads: the residual norms sum chunks of at most 2^13 entries in a
#: fixed order, so these hold at every BLAS thread count.
_RESIDUAL_PINS = {
    ("I_g2.5", 10): "0x1.878d3c4f8f20cp+0",
    ("I_g2.5", 11): "0x1.a5857370bc655p+0",
    ("II", 10): "0x1.4df0103dfd287p+1",
    ("II", 11): "0x1.69e935b0b9dffp+1",
    ("h1", 10): "0x1.a59c9cf26e522p+0",
    ("h1", 11): "0x1.c25633b8c6546p+0",
}


@pytest.mark.parametrize("name, n", list(_RESIDUAL_PINS))
def test_large_chain_residuals_are_pinned(name, n):
    state = np.random.default_rng(n).standard_normal(3**n)
    assert parent.chain_residual(_MODELS[name](), n, state).hex() == _RESIDUAL_PINS[name, n]


@pytest.mark.parametrize("size", [1, 2**13 - 1, 2**13, 2**13 + 1, 3**10])
@pytest.mark.parametrize("kind", ["float", "complex", "int"])
def test_the_chunked_norm_is_the_numpy_norm_up_to_one_chunk(kind, size):
    # one chunk is np.linalg.norm bit for bit; more sum their dot products in order
    x = _states(kind, size)
    if size <= 2**13:
        assert parent._norm(x) == np.linalg.norm(x)
    else:
        assert parent._norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-14)
