import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpschain
from mpschain import cli, linalg, models, parent
from mpschain.mps import MpsFamily, _json_text, _matrix_from_json, _matrix_to_json, amplitudes_vector
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
    # the plain kernel passes through the canonical basis before each vector is re-checked on the
    # word matrix; a basis of e_0 alone must fail that re-check
    monkeypatch.setattr(parent, "_canonical_subspace_basis", lambda vectors: [np.eye(vectors[0].size)[0]])
    with pytest.raises(mpschain.KernelRecheckError, match="kernel re-check failed") as err:
        ground_null_space(models.model_II(1.0), 2)
    assert isinstance(err.value, ArithmeticError)
    assert parent.KernelRecheckError is mpschain.KernelRecheckError


_PROBE_FAMILIES = {
    "I g=0.7": models.model_I(0.7), "I g=2.5": models.model_I(2.5), "II g=1.3": models.model_II(1.3),
    "general (0.8, 1.7, 0.6)": models.general_family(0.8, 1.7, 0.6),
    "root (1, sqrt 2, 1)": models.general_family(1.0, 2.0**0.5, 1.0),
}


@pytest.mark.parametrize("name", _PROBE_FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_kernel_count_is_invariant_under_scaling_every_matrix(name, k):
    # c A_i spans the same MPS ray and the same k-site kernel; the re-check squared |M v| unscaled and
    # refused 18 of these 90 cases (c >= 1e90, k = 2 and 3) with "kernel re-check overflows"
    fam = _PROBE_FAMILIES[name]
    want = ground_null_space(fam, k).dim
    for c in (2.0**-300, 1e-90, 1e-30, 1e30, 1e90, 2.0**300):
        scaled = MpsFamily(d=fam.d, D=fam.D, labels=fam.labels, matrices={a: c * m for a, m in fam.matrices.items()})
        assert ground_null_space(scaled, k).dim == want, c


@pytest.mark.parametrize("name", _PROBE_FAMILIES)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_kernel_is_invariant_under_scaling_each_letter_by_its_own_power_of_two(name, k):
    # 2^p_i A_i scales word (j_1...j_k) by 2^(p_j1 + ... + p_jk), a column scaling that keeps the rank;
    # each letter is scaled once by a power of two before its words are formed, so the count is the
    # family's own wherever the word exponents span k max|p_i - p_j| < 1000 bits, and past that it is
    # that count or the kernel's named refusal.  With one p for every letter the vectors are bit for bit
    fam = _PROBE_FAMILIES[name]
    want = ground_null_space(fam, k)
    rng = np.random.default_rng(36 + k)
    width = min(1000 // k, 600)  # p_i within width - 1 of each other: k max|p_i - p_j| < 1000
    draws = [rng.integers(-300, 301, fam.d) for _ in range(6)]
    draws += [rng.integers(-300, 301 - width) + rng.integers(0, width, fam.d) for _ in range(6)]
    draws += [np.full(fam.d, q) for q in (-300, -77, 300)]
    for p in draws:
        scaled = MpsFamily(d=fam.d, D=fam.D, labels=fam.labels,
                           matrices={a: np.ldexp(m, int(p_i)) for (a, m), p_i in zip(fam.matrices.items(), p)})
        try:
            got = ground_null_space(scaled, k)
        except mpschain.KernelRecheckError as exc:
            assert k * np.ptp(p) >= 1000 and str(exc) == f"the {k}-site kernel's coordinates span more than the float range"
            continue
        assert got.dim == want.dim, p
        if np.ptp(p) == 0:
            assert [x.hex() for v in got.vectors for x in v.tolist()] == [x.hex() for v in want.vectors for x in v.tolist()]


@pytest.mark.parametrize("name", ["I g=0.7", "II g=1.3"])
@pytest.mark.parametrize("letter", ["1", "-1"])
@pytest.mark.parametrize("c", [1e120, 1e150])
def test_a_letter_scaled_family_file_counts_as_the_unscaled_family(name, letter, c, tmp_path, capsys):
    # one letter times c scales each word column by a power of c, which keeps the rank; a word and its
    # roundoff bound that both underflowed in _word_noise read 0 <= 0 and were zeroed as noise, so the
    # CLI printed 19 (model I) and 20 (model II) with exit 0
    fam = _PROBE_FAMILIES[name]
    doc = fam.to_json_dict()
    doc["matrices"] = {a: _matrix_to_json(c * m if a == letter else m) for a, m in fam.matrices.items()}
    path = tmp_path / "family.json"
    path.write_text(_json_text(doc), encoding="utf-8")
    assert cli.main(["parent", "--which", "file", "--in", str(path), "--k", "3"]) == cli.EXIT_OK
    assert capsys.readouterr().out == f"kernel dimension at k=3: {ground_null_space(fam, 3).dim}\n" == "kernel dimension at k=3: 18\n"


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


def _complex_family(big_d: int) -> MpsFamily:
    rng = np.random.default_rng(50 + big_d)
    shape = (big_d, big_d)
    mats = {lab: rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for lab in ("1", "0", "-1")}
    return MpsFamily(d=3, D=big_d, labels=("1", "0", "-1"), matrices=mats)


DENSITY_FAMILIES = {
    "I g=0.7": lambda: models.model_I(0.7),
    "II g=1.3": lambda: models.model_II(1.3),
    "aklt": models.aklt_family,
    **{f"complex D={big_d}": lambda big_d=big_d: _complex_family(big_d) for big_d in (2, 3, 4)},
}

#: sha256 of the bytes of reduced_density at k = 1..3 on rings of 4, 7 and 30 sites, per family, recorded
#: while the words were still built in their own (d^k, D, D) layout.
DENSITY_PINS = {
    "I g=0.7": "ff508a3dcbeca20d899c48b22bcfe0742f494a26ce54ce2a588c8ebdcbdb0e12",
    "II g=1.3": "f1fdc997da089eb8673ce2b0a63836fed5511e3e419086db0d08bea076b4decc",
    "aklt": "b0237bdddb558052233905b13bc71d9325bd29b21a7dc7e2cd6be47cc1ac69a0",
    "complex D=2": "7db78fa49f540258684636c17bcb2bdf15259fb3d2bb9fcf7bfa653670bd7f42",
    "complex D=3": "1bdd0379b4401097a977782ee09d72403f4ce57734e46c80f856c2f35f7b739a",
    "complex D=4": "1eb9a75564e6a59e05d644cccd5c46e6a9ce9bde24724ba21c30657590516e0e",
}


@pytest.mark.parametrize("name", list(DENSITY_FAMILIES))
def test_reduced_density_is_bit_identical(name):
    fam = DENSITY_FAMILIES[name]()
    record = []
    for k in (1, 2, 3):
        for n in (4, 7, 30):
            rho = reduced_density(fam, k, n)
            record.append(f"{rho.dtype.str} {rho.shape} {rho.tobytes().hex()}")
    assert hashlib.sha256("\n".join(record).encode()).hexdigest() == DENSITY_PINS[name]


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


def _json_matrix_bits(h: LocalHamiltonian, key: str) -> bytes:
    """The bits of the matrix h's JSON text stores under key, decoded from that text."""
    return _matrix_from_json(json.loads(_json_text(h.to_json_dict()))[key]).tobytes()


def test_local_hamiltonian_json_round_trip():
    h = models.model_II_hamiltonian()
    doc = json.loads(_json_text(h.to_json_dict()))
    assert doc["k"] == h.k
    assert tuple(doc["couplings"]) == h.couplings
    assert _json_matrix_bits(h, "matrix") == h.matrix.tobytes()
    assert _json_matrix_bits(h, "basis") == np.array(h.basis.vectors).tobytes()


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
    assert _json_matrix_bits(h, "matrix") == h.matrix.tobytes()


def _exact_word_rank(g, h, k):
    """Rank of the k-site word matrix of the general family (c = 1) in exact sympy arithmetic."""
    import sympy

    def unit(i, j):
        return sympy.Matrix(3, 3, lambda a, b: int((a, b) == (i, j)))

    mats = [unit(0, 1) + unit(1, 2), g * (unit(0, 0) + unit(2, 2)) + h * unit(1, 1), unit(1, 0) + unit(2, 1)]
    words = [sympy.eye(3)]
    for _ in range(k):  # the last site varies fastest, as in word_matrix
        words = [w * a for w in words for a in mats]
    return sympy.Matrix([list(w) for w in words]).T.rank(simplify=True)


@pytest.mark.parametrize("which", ["I", "II"])
@pytest.mark.parametrize("g", [0.75, 1.5, 1e5, 1e20])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_kernel_dimension_equals_the_exact_rank(which, g, k):
    # each g is a float that sympy holds exactly; model I's h = sqrt(2) g keeps sqrt(2) symbolic.  Under
    # the plain relative cut the g = 1e5 and 1e20 words, entries of order 1 beside order g^k, lost rank
    # (models I and II at g = 1e20 counted 2 one-site kernel vectors, where the balanced kernel is empty)
    import sympy

    exact_g = sympy.Rational(g)
    h = sympy.sqrt(2) * exact_g if which == "I" else exact_g
    fam = models.model_families(which, [g])[0]
    basis = ground_null_space(fam, k)
    assert basis.dim == 3**k - _exact_word_rank(exact_g, h, k)
    vecs = np.array(basis.vectors).reshape(basis.dim, 3**k)
    assert np.allclose(vecs @ vecs.conj().T, np.eye(basis.dim), rtol=0.0, atol=1e-14)
