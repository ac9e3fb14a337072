"""The matrix-free chain kernel parent.chain_apply: bit for bit against the per-window transpose
contraction it replaced, and against the dense window scatter of ed.dense_chain."""

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

