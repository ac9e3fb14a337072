"""The family-axis kernels behind verify: stacked amplitude maps, chain residuals and null spaces,
and families held as one frozen stack.  Each is compared bit for bit with the one-family code it
replaced, kept here as the reference, and a single family or state is a stack of one."""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from mpschain import cli, linalg, models, mps, parent, verify
from mpschain.mps import DegenerateNormError, MpsFamily
from mpschain.parent import LocalHamiltonian, NullSpaceBasis, _local_dim


# ---------------------------------------------------------------------------
# the one-family code the kernels replaced


def _amplitudes_reference(mats: np.ndarray, n_sites: int) -> np.ndarray:
    """The one-family amplitudes_vector of a (d, D, D) stack."""
    d, big_d = mats.shape[0], mats.shape[-1]
    x = mps._reversed_words(mats, n_sites - 1, "amplitude").reshape(big_d, big_d, 1, -1).swapaxes(0, 1)
    m = mats.transpose(1, 2, 0)[..., None]
    if mats.dtype.kind == "c":
        m, swap = mps._split(m)
        x = np.stack([x.real, x.imag])
        products = np.add(np.multiply(x[0], m, order="C"), np.multiply(x[1], swap, order="C"))
        diagonal = mps._joined(np.add.reduce(products, axis=-4, initial=0), mats.dtype)
    else:
        diagonal = np.add.reduce(np.multiply(x, m, order="C"), axis=-4, initial=0)
    terms = diagonal.reshape(big_d, -1).T
    if big_d * (2 if np.iscomplexobj(terms) else 1) >= 8:
        terms = np.ascontiguousarray(terms)
    return terms.sum(axis=-1).take(mps._digit_reversal(d, n_sites))


def _rotate_reference(x: np.ndarray, m: int, d: int) -> np.ndarray:
    return x.reshape(d**m, -1).T.copy()


def _chain_apply_reference(matrix: np.ndarray, k: int, n_sites: int, psi: np.ndarray) -> np.ndarray:
    """The one-state chain_apply."""
    d = _local_dim(matrix.shape[0], k)
    out = np.zeros(psi.shape, dtype=np.result_type(psi, matrix))
    top = max((n_sites - k) // 2, min((n_sites - 1) // 2, n_sites - k - 1))
    lead = 0
    for site in range(n_sites):
        s = site - lead
        if s > top:
            psi, out = _rotate_reference(psi, s, d), _rotate_reference(out, s, d)
            lead, s = site, 0
        shape = (d**k, -1) if s == 0 else (d**s, d**k, -1)
        view = out.reshape(shape)
        view += np.matmul(matrix, psi.reshape(shape))
    return _rotate_reference(out, n_sites - lead, d).reshape(-1) if lead else out


def _chain_residual_reference(matrix: np.ndarray, k: int, n_sites: int, psi: np.ndarray) -> float:
    return float(np.linalg.norm(_chain_apply_reference(matrix, k, n_sites, psi)) / np.linalg.norm(psi))


def _null_space_reference(fam: MpsFamily, k: int, tol: float = linalg.DEFAULT_NULL_TOL) -> list[np.ndarray]:
    """The one-family ground_null_space basis: one SVD of the family's own word matrix."""
    m = parent.word_matrix(fam, k)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol * s[0]))
    kernel = [linalg.phase_fix(vh[i].conj()) for i in range(rank, m.shape[1])]
    return parent._canonical_subspace_basis(kernel)


def _family_refusal_reference(d, big_d, labels, matrices):
    """The error MpsFamily's one-matrix-at-a-time checks raised, as (type, message), or None."""
    try:
        if len(labels) != d:
            raise ValueError(f"expected {d} labels, got {len(labels)}")
        if len(set(labels)) != d:
            raise ValueError("labels must be distinct")
        if set(matrices) != set(labels):
            raise ValueError("matrices must carry exactly the family labels")
        frozen = {}
        for lab in labels:
            m = np.asarray(matrices[lab])
            if m.shape != (big_d, big_d):
                raise ValueError(f"matrix {lab!r} has shape {m.shape}, expected {(big_d, big_d)}")
            frozen[lab] = m.copy()
        top = float(np.abs(np.array(list(frozen.values()))).max(initial=0.0))
        if not top * top * d < 1e300:
            for lab, m in frozen.items():
                if not np.isfinite(m).all():
                    raise ValueError(f"matrix {lab!r} has a non-finite entry")
            with np.errstate(over="ignore"):
                peaks = sum((m.conj() * m).real for m in frozen.values())
            if not np.isfinite(peaks).all():
                raise ValueError("transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range")
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _random_stack(rng, n_fam: int, d: int, big_d: int, complex_: bool) -> np.ndarray:
    shape = (n_fam, d, big_d, big_d)
    mats = rng.standard_normal(shape) * 10.0 ** rng.integers(-2, 3, shape)
    if complex_:
        mats = mats + 1j * rng.standard_normal(shape)
    mats.reshape(-1)[::7] = -0.0
    return mats


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# amplitudes


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d, big_d, n_max", [(3, 2, 8), (3, 3, 8), (2, 8, 8), (3, 8, 4)])
def test_stacked_amplitudes_are_each_familys_own(d, big_d, n_max, complex_):
    # D = 8 takes numpy's pairwise sum of the diagonal on a contiguous copy, D = 2 and 3 the one in order
    rng = np.random.default_rng(1000 * d + 10 * big_d + complex_)
    mats = _random_stack(rng, 3, d, big_d, complex_)
    labels = tuple(map(str, range(d)))
    for n in range(1, n_max + 1):
        stacked = mps._amplitudes(mats, n)
        for g in range(3):
            want = _amplitudes_reference(mats[g], n)
            assert _same(stacked[g], want), (g, n)
            fam = MpsFamily(d=d, D=big_d, labels=labels, matrices=dict(zip(labels, mats[g])))
            assert _same(mps.amplitudes_vector(fam, n), want), (g, n)


def test_stacked_amplitudes_of_the_model_families():
    gs = [0.0, -0.4, 0.7, 1.0, 2.5]
    for which in ("I", "II"):
        fams = list(models.model_families(which, gs))
        stacked = mps._amplitudes(mps._matrix_stack(fams), 6)
        for fam, row in zip(fams, stacked):
            assert _same(row, _amplitudes_reference(fam.matrix_stack(), 6))


# ---------------------------------------------------------------------------
# chain residuals


def _states(rng, n_states: int, size: int, complex_: bool) -> np.ndarray:
    states = rng.standard_normal((n_states, size))
    if complex_:
        states = states + 1j * rng.standard_normal((n_states, size))
    states.reshape(-1)[::5] = -0.0
    return states


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("d, k", [(3, 2), (2, 3), (2, 2)])
def test_stacked_residuals_with_one_term_per_state_or_one_shared(d, k, complex_):
    rng = np.random.default_rng(100 * d + k + complex_)
    terms = rng.standard_normal((3, d**k, d**k))
    if complex_:
        terms = terms + 1j * rng.standard_normal((3, d**k, d**k))
    for n in range(k, 9):
        if d**n > 3**8:
            break
        states = _states(rng, 3, d**n, complex_)
        per_state = parent._chain_residuals(terms, k, n, states)
        shared = parent._chain_residuals(terms[0], k, n, states)
        applied = parent._chain_apply(terms, k, n, states)
        for g in range(3):
            assert per_state[g].hex() == _chain_residual_reference(terms[g], k, n, states[g]).hex(), (n, g)
            assert shared[g].hex() == _chain_residual_reference(terms[0], k, n, states[g]).hex(), (n, g)
            assert _same(applied[g], _chain_apply_reference(terms[g], k, n, states[g])), (n, g)
            h = LocalHamiltonian(k=k, matrix=terms[g], couplings=(), basis=NullSpaceBasis(k=k, vectors=(), tol=0.0))
            assert parent.chain_residual(h, n, states[g]).hex() == per_state[g].hex()
            assert _same(parent.chain_apply(h, n, states[g]), applied[g])


def test_stacked_residuals_of_the_frustration_suite_are_the_per_g_ones():
    gs = (0.1, 0.3, 1.0, 2.5, 3.3)
    for n in (4, 5, 6):
        checks = verify.frustration_suite(n, gs)
        want = [_chain_residual_reference(h.matrix, 2, n, _amplitudes_reference(f.matrix_stack(), n))
                for f, h in [(models.model_I(g), models.model_I_hamiltonian(g)) for g in gs]
                + [(models.model_II(g), models.model_II_hamiltonian()) for g in gs]]
        assert [c.value.hex() for c in checks] == [w.hex() for w in want]


def test_a_zero_state_is_refused_before_the_chain_is_applied():
    h = models.model_II_hamiltonian().matrix
    x = np.random.default_rng(3).standard_normal(81)
    zero = np.zeros(81)
    for states in ([zero, x], [x, zero], [x, x, zero]):
        with pytest.raises(DegenerateNormError, match="^zero state has no chain residual$"):
            parent._chain_residuals(h, 2, 4, np.array(states))
    # a ring shorter than the term: a zero row in any place is refused first, else the ring is refused
    x3 = np.random.default_rng(4).standard_normal(3)
    for states in ([np.zeros(3), x3], [x3, np.zeros(3)]):
        with pytest.raises(DegenerateNormError, match="^zero state has no chain residual$"):
            parent._chain_residuals(h, 2, 1, np.array(states))
    with pytest.raises(ValueError, match="n_sites must be >= k = 2"):
        parent._chain_residuals(h, 2, 1, np.array([x3, x3]))
    with pytest.raises(ValueError, match=r"state must have length 81, got \(80,\)"):
        parent.chain_residual(models.model_II_hamiltonian(), 4, np.ones(80))


def test_a_state_whose_norm_overflows_is_refused_before_the_chain_is_applied(monkeypatch):
    # ||psi|| of 1e160 entries overflows to inf, which read ||H psi|| / ||psi|| as 0: a false pass
    h = models.model_II_hamiltonian()
    x = np.random.default_rng(5).standard_normal(81)
    big = np.full(81, 1e160)
    nan = np.where(np.arange(81) == 7, np.nan, x)
    # entries of 1e150 keep a finite norm: the residual is the reference's, bit for bit
    assert parent.chain_residual(h, 4, 1e150 * x).hex() == _chain_residual_reference(h.matrix, 2, 4, 1e150 * x).hex()

    def applied(*args):
        raise AssertionError("H applied to a state whose norm is not finite")

    monkeypatch.setattr(parent, "_chain_apply", applied)
    message = r"^state norm is not finite \(overflow or NaN\): no chain residual$"
    for states in ([big], [x, big], [nan, x]):
        with pytest.raises(DegenerateNormError, match=message):
            parent._chain_residuals(h.matrix, 2, 4, np.array(states))
    with pytest.raises(DegenerateNormError, match=message):
        parent.chain_residual(h, 4, big)


# ---------------------------------------------------------------------------
# null spaces


def _rank_deficient_families(seed: int) -> list[MpsFamily]:
    rng = np.random.default_rng(seed)
    fams = []
    for complex_ in (False, True):
        mats = _random_stack(rng, 3, 3, 2, complex_)  # D^2 = 4 rows, 9 columns: a kernel of dimension >= 5
        fams.append([MpsFamily(d=3, D=2, labels=("1", "0", "-1"), matrices=dict(zip(("1", "0", "-1"), m)))
                     for m in mats])
    return fams


def test_stacked_null_spaces_of_the_root_families_are_each_familys_own():
    fams = [models.general_family(g, h, c) for g, h, c in verify._ROOT_FAMILIES]
    bases = parent._ground_null_spaces(fams, 2)
    assert [b.dim for b in bases] == [len(_null_space_reference(f, 2)) for f in fams]
    for fam, basis in zip(fams, bases):
        want = _null_space_reference(fam, 2)
        assert len(basis.vectors) == len(want) >= 1
        assert all(_same(v, w) for v, w in zip(basis.vectors, want))
        assert all(_same(v, w) for v, w in zip(parent.ground_null_space(fam, 2).vectors, want))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_null_spaces_of_random_rank_deficient_families(seed):
    for fams in _rank_deficient_families(seed):
        for k in (2, 3):
            bases = parent._ground_null_spaces(fams, k)
            for fam, basis in zip(fams, bases):
                want = _null_space_reference(fam, k)
                assert basis.dim == len(want) >= 3**k - 4
                assert all(_same(v, w) for v, w in zip(basis.vectors, want))


def test_null_space_of_one_matrix_is_the_stack_of_one():
    rng = np.random.default_rng(9)
    for shape in ((4, 9), (9, 9), (3, 5)):
        m = rng.standard_normal(shape)
        _, s, vh = np.linalg.svd(m)
        rank = int(np.sum(s > 1e-10 * s[0]))
        want = [linalg.phase_fix(vh[i].conj()) for i in range(rank, shape[1])]
        got = linalg.null_space(m)
        assert len(got) == len(want) and all(_same(a, b) for a, b in zip(got, want))
    # the re-check runs on the matrix whose SVD gave the kernel: ||m v|| / (smax ||v||)
    kernel, = linalg._null_spaces(m[None], 1e-10)
    smax = np.linalg.svd(m)[1][0]
    assert kernel.smax == smax and kernel.cols is None and len(kernel.vectors) == 2
    for v in kernel.vectors:
        r = kernel.residual(v)
        assert r == pytest.approx(np.linalg.norm(m @ v) / smax, rel=1e-12) and r <= 1e-15


def test_a_degenerate_family_of_a_stack_is_refused_before_any_svd(monkeypatch):
    zero = MpsFamily(d=2, D=2, labels=("a", "b"), matrices={"a": np.zeros((2, 2)), "b": np.zeros((2, 2))})
    good = MpsFamily(d=2, D=2, labels=("a", "b"), matrices={"a": np.eye(2), "b": np.ones((2, 2))})
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("an SVD ran"))
    with pytest.raises(parent.InvalidModelError):
        parent._ground_null_spaces([good, zero], 2)


# ---------------------------------------------------------------------------
# families held as one frozen stack


def _refusal(d, big_d, labels, matrices):
    try:
        MpsFamily(d=d, D=big_d, labels=labels, matrices=matrices)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


_BAD_FAMILIES = {
    "too few labels": (3, 2, ("a", "b"), {"a": np.eye(2), "b": np.eye(2)}),
    "repeated label": (2, 2, ("a", "a"), {"a": np.eye(2)}),
    "labels and keys differ": (2, 2, ("a", "b"), {"a": np.eye(2), "c": np.eye(2)}),
    "a wrong shape": (2, 2, ("a", "b"), {"a": np.eye(2), "b": np.eye(3)}),
    "a wrong shape first": (2, 2, ("a", "b"), {"a": np.ones((2, 3)), "b": np.full((2, 2), np.nan)}),
    "a list of rows": (2, 2, ("a", "b"), {"a": [[1.0, 0.0]], "b": np.eye(2)}),
    "a NaN": (2, 2, ("a", "b"), {"a": np.eye(2), "b": np.array([[1.0, np.nan], [0.0, 1.0]])}),
    "an inf first": (2, 2, ("a", "b"), {"a": np.full((2, 2), -np.inf), "b": np.full((2, 2), np.nan)}),
    "a complex inf": (2, 1, ("a", "b"), {"a": np.array([[1.0]]), "b": np.array([[complex(0.0, np.inf)]])}),
    "an overflowing E": (2, 1, ("a", "b"), {"a": np.array([[1.0]]), "b": np.array([[1e160]])}),
    "an overflowing complex E": (2, 1, ("a", "b"), {"a": np.array([[1e160j]]), "b": np.array([[1.0]])}),
    "large but finite": (3, 1, ("a", "b", "c"), {lab: np.array([[1e150]]) for lab in "abc"}),
}


@pytest.mark.parametrize("case", list(_BAD_FAMILIES))
def test_family_refusals_are_the_one_matrix_checks(case):
    d, big_d, labels, matrices = _BAD_FAMILIES[case]
    want = _family_refusal_reference(d, big_d, labels, matrices)
    assert _refusal(d, big_d, labels, matrices) == want
    assert want is not None or case == "large but finite"


def test_a_family_stack_is_checked_whole_and_refused_as_the_constructor_refuses():
    gs = [0.5, 1e155, 1e200, np.inf, np.nan, -1e160]
    for g in gs:
        mats = models._general_stack([g], [g], [1.0])
        want = _refusal(3, 3, ("1", "0", "-1"), dict(zip(("1", "0", "-1"), mats[0].copy())))
        got = None
        try:
            mps._stacked_families(("1", "0", "-1"), mats, [{"g": g}])
        except ValueError as exc:
            got = type(exc), str(exc)
        assert got == want, g
    # the whole stack is checked first: a refused g raises when the families are asked for
    with pytest.raises(ValueError) as exc:
        models.model_families("II", [1.0, 1e200, 2.0])
    assert str(exc.value) == "transfer operator overflows: sum_i |A_i[a,b]|^2 lies beyond the float range"


def test_a_family_holds_one_frozen_stack_and_views_of_it():
    rng = np.random.default_rng(11)
    given = {lab: rng.standard_normal((3, 3)) for lab in ("1", "0", "-1")}
    fam = MpsFamily(d=3, D=3, labels=("1", "0", "-1"), matrices=given)
    stack = fam.matrix_stack()
    assert stack is fam.matrix_stack() and not stack.flags.writeable
    assert _same(stack, np.array([given[lab] for lab in fam.labels]))
    for i, lab in enumerate(fam.labels):
        assert fam.matrices[lab].base is stack and not fam.matrices[lab].flags.writeable
        assert _same(fam.matrices[lab], given[lab])
    given["0"][0, 0] = 99.0  # the family copied its input once
    assert stack[1, 0, 0] != 99.0
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1.0
    # the model families are views of one stack of them all
    fams = list(models.model_families("I", [0.3, 0.7]))
    assert fams[0].matrix_stack().base is fams[1].matrix_stack().base
    assert all(not f.matrix_stack().flags.writeable for f in fams)


def test_a_matrix_of_another_dtype_keeps_its_own():
    fam = MpsFamily(d=2, D=1, labels=("a", "b"), matrices={"a": np.array([[2]]), "b": np.array([[0.5j]])})
    assert fam.matrix_stack().dtype == np.complex128
    assert fam.matrices["a"].dtype == np.int64 and not fam.matrices["a"].flags.writeable
    assert fam.matrices["b"].base is fam.matrix_stack()
    assert fam.to_json_dict()["matrices"] == {"a": [[2.0]], "b": [[[0.0, 0.5]]]}


# ---------------------------------------------------------------------------
# nothing is kept from one cli.main call to the next


_CLI_RUNS = {
    "verify all": ("verify", "--suite", "all"),
    "correlate 30 g": ("correlate", "--which", "I", "--channel", "zz", "--g-sweep", "0.1", "3.0", "30",
                       "--r-max", "12"),
}


@pytest.mark.parametrize("case", list(_CLI_RUNS))
def test_a_repeated_command_does_the_same_work(case, monkeypatch):
    # a cache that outlived one cli.main call would make the second run cheaper than the first
    calls = {"svd": 0, "eig_all": 0, "_reversed_words": 0}
    for module, name, key in ((np.linalg, "svd", "svd"), (linalg, "eig_all", "eig_all"),
                              (mps, "_reversed_words", "_reversed_words")):
        real = getattr(module, name)

        def counted(*args, real=real, key=key, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    tallies, outputs = [], []
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(list(_CLI_RUNS[case])) == 0
        tallies.append(dict(calls))
        outputs.append(buf.getvalue())
        for key in calls:
            calls[key] = 0
    assert tallies[0] == tallies[1]
    assert outputs[0] == outputs[1]
    assert tallies[0]["eig_all"] >= (30 if case == "correlate 30 g" else 1)
    if case == "verify all":
        assert tallies[0]["svd"] >= 1 and tallies[0]["_reversed_words"] >= 1
