"""The per-item work of verify made array-wide: the psi_n oracle over every separation in one
pass, the intertwiner search's lazily drawn candidates and the determinant check as arrays.
Each is compared with the code it replaced, kept here as the reference."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from mpschain import genstate, linalg, models, symmetry, verify
from mpschain.genstate import PsiN, psi_n_expand
from mpschain.mps import MpsFamily

# ---------------------------------------------------------------------------
# the single-r oracle the kernel replaced


def _spins(psi: PsiN, s: int) -> np.ndarray:
    return 1 - (psi.index // 3 ** (psi.n_sites - 1 - s)) % 3


def _zz_reference(psi: PsiN, r: int) -> Fraction:
    return Fraction(int((psi.values * psi.values) @ (_spins(psi, 0) * _spins(psi, r - 1))), psi.norm_sq())


def _sz2sz2_reference(psi: PsiN, r: int) -> Fraction:
    m1, mr = _spins(psi, 0), _spins(psi, r - 1)
    return Fraction(int((psi.values * psi.values) @ (m1 * m1 * mr * mr)), psi.norm_sq())


def _xx_reference(psi: PsiN, r: int) -> Fraction:
    n_sites = psi.n_sites
    table = np.zeros(3**n_sites, dtype=np.int64)
    table[psi.index] = psi.values
    m1, mr = _spins(psi, 0), _spins(psi, r - 1)
    num = 0
    for s1, sr in product((1, -1), repeat=2):
        moved = ((m1 == 0) | (m1 == s1)) & ((mr == 0) | (mr == sr))
        target = psi.index[moved] + s1 * 3 ** (n_sites - 1) + sr * 3 ** (n_sites - r)
        num += int(psi.values[moved] @ table[target])
    return Fraction(num, 2 * psi.norm_sq())


def _sz2_reference(psi: PsiN) -> Fraction:
    m = _spins(psi, 0)
    return Fraction(int((psi.values * psi.values) @ (m * m)), psi.norm_sq())


def _sperp2_reference(psi: PsiN) -> Fraction:
    m = _spins(psi, 0)
    return Fraction(int((psi.values * psi.values) @ (2 - m * m)), 2 * psi.norm_sq())


_REFERENCES = {"zz": _zz_reference, "xx": _xx_reference, "sz2sz2": _sz2sz2_reference}
_CHANNELS = ("sz2", "sperp2", "zz", "xx", "sz2sz2")


def _assert_oracle(psi: PsiN, rs) -> None:
    got = genstate._expectations(psi, _CHANNELS, rs)
    assert got["sz2"] == _sz2_reference(psi) and type(got["sz2"]) is Fraction
    assert got["sperp2"] == _sperp2_reference(psi) and type(got["sperp2"]) is Fraction
    for channel, reference in _REFERENCES.items():
        assert got[channel] == [reference(psi, r) for r in rs], channel
        assert all(type(v) is Fraction for v in got[channel])


def _random_state(n_sites: int, seed: int) -> PsiN:
    """Random signed integer amplitudes on random strings: no symmetry of the psi_n to lean on."""
    rng = np.random.default_rng(seed)
    configs = {tuple(int(m) for m in rng.integers(-1, 2, n_sites)) for _ in range(3 ** n_sites // 3)}
    amps = {cfg: int(a) for cfg, a in zip(sorted(configs), rng.integers(-3, 4, len(configs))) if a}
    index = (1 - np.array(list(amps), dtype=np.int64)) @ genstate._place_values(n_sites)
    return PsiN(n_sites, 0, index, np.array(list(amps.values()), dtype=np.int64))


@pytest.mark.parametrize("n_sites", [4, 6, 8])
def test_the_oracle_of_every_sector_is_the_single_r_one(n_sites):
    for zeros in range(0, n_sites + 1, 2):
        _assert_oracle(psi_n_expand(n_sites, zeros), range(2, n_sites))


@pytest.mark.parametrize("n_sites, seed", [(4, 0), (5, 1), (6, 2), (7, 3)])
def test_the_oracle_of_a_random_signed_state_is_the_single_r_one(n_sites, seed):
    psi = _random_state(n_sites, seed)
    assert (psi.values < 0).any() and (psi.values > 0).any()
    _assert_oracle(psi, range(2, n_sites))


def test_the_oracle_takes_unsorted_repeated_and_single_separations():
    psi = psi_n_expand(8, 4)
    _assert_oracle(psi, [7, 2, 5, 5, 3])
    _assert_oracle(psi, [6])
    _assert_oracle(_random_state(6, 4), [5, 2, 4])


def test_the_public_expectations_are_the_single_r_ones():
    for psi in (psi_n_expand(8, 2), psi_n_expand(10, 4), _random_state(6, 5)):
        assert genstate.expectation_sz2(psi) == _sz2_reference(psi)
        assert genstate._expectations(psi, ("sperp2",))["sperp2"] == _sperp2_reference(psi)
        for r in range(2, psi.n_sites):
            assert genstate.expectation_zz(psi, r) == _zz_reference(psi, r)
            assert genstate.expectation_xx(psi, r) == _xx_reference(psi, r)
            assert genstate._expectations(psi, ("sz2sz2",), [r])["sz2sz2"] == [_sz2sz2_reference(psi, r)]


def test_no_separation_gives_empty_lists_and_a_bad_one_is_refused():
    psi = psi_n_expand(6, 2)
    got = genstate._expectations(psi, _CHANNELS, [])
    assert got["zz"] == got["xx"] == got["sz2sz2"] == []
    assert got["sz2"] == _sz2_reference(psi)
    with pytest.raises(ValueError, match="2 <= r <= N-1"):
        genstate._expectations(psi, ("zz",), [3, 6])
    with pytest.raises(ValueError, match="unknown channel"):
        genstate._expectations(psi, ("yy",), [3])


# ---------------------------------------------------------------------------
# the eager intertwiner search the lazy candidates replaced


def _find_intertwiner_reference(mps: MpsFamily, target, tol=linalg.DEFAULT_NULL_TOL):
    D = mps.D
    eye = np.eye(D)
    blocks = []
    for lab in mps.labels:
        a = mps.matrices[lab]
        b = np.asarray(target[lab])
        blocks.append(np.kron(eye, a.T) - np.kron(b, eye))
    kernel = linalg.null_space(np.vstack(blocks), tol)
    if not kernel:
        return symmetry.IntertwinerResult(found=False, diagnosis="no solution: the intertwiner system has full rank")
    candidates = [v.reshape(D, D) for v in kernel]
    rng = np.random.default_rng(7)
    for _ in range(20):
        w = rng.standard_normal(len(kernel))
        mix = sum(c * v for c, v in zip(w, kernel))
        candidates.append((mix / np.linalg.norm(mix)).reshape(D, D))
    best_noninv = None
    for x in candidates:
        cond = np.linalg.cond(x)
        res = max(float(np.linalg.norm(x @ mps.matrices[lab] - np.asarray(target[lab]) @ x)) for lab in mps.labels)
        if cond < 1e8:
            xf = linalg.phase_fix(x.reshape(-1)).reshape(D, D)
            return symmetry.IntertwinerResult(found=True, matrix=xf, residual=res, condition=float(cond))
        if best_noninv is None:
            best_noninv = symmetry.IntertwinerResult(
                found=False, residual=res, condition=float(cond),
                diagnosis="non-invertible commutant: every solution is singular",
            )
    return best_noninv


def _assert_same_result(got, want) -> None:
    assert got.found == want.found and got.diagnosis == want.diagnosis
    assert float(got.residual).hex() == float(want.residual).hex()
    assert float(got.condition).hex() == float(want.condition).hex()
    if want.matrix is None:
        assert got.matrix is None
    else:
        assert got.matrix.dtype == want.matrix.dtype and got.matrix.tobytes() == want.matrix.tobytes()


def _flip(fam):
    return {"1": fam.matrices["-1"], "0": fam.matrices["0"], "-1": fam.matrices["1"]}


def _transpose(fam):
    return {lab: fam.matrices[lab].T for lab in fam.labels}


def _diagonal(*entries):
    return MpsFamily(d=1, D=len(entries), labels=("a",), matrices={"a": np.diag(entries)})


def _jordan():
    return MpsFamily(d=1, D=3, labels=("a",), matrices={"a": np.eye(3) + np.eye(3, k=1)})


def _random_family(seed, complex_=False):
    rng = np.random.default_rng(seed)
    mats = rng.standard_normal((3, 3, 3))
    if complex_:
        mats = mats + 1j * rng.standard_normal((3, 3, 3))
    return MpsFamily(d=3, D=3, labels=("1", "0", "-1"), matrices=dict(zip(("1", "0", "-1"), mats)))


_SEARCHES = {
    # the symmetry suite's two searches
    "suite parity": (models.general_family(0.8, 0.8 * 2**0.5, 1.0), _transpose),
    "suite spin flip": (models.general_family(0.8, 0.8 * 2**0.5, 1.0), _flip),
    "spin flip c=1.7": (models.general_family(0.6, 0.6, 1.7), _flip),
    "self model II": (models.model_II(1.0), lambda fam: dict(fam.matrices)),
    "complex self": (_random_family(0, complex_=True), lambda fam: dict(fam.matrices)),
    "complex conjugate": (_random_family(1, complex_=True), lambda fam: {k: v.conj() for k, v in fam.matrices.items()}),
    # a one-dimensional singular commutant: every one of the 20 mixes is drawn and refused
    "singular commutant": (_diagonal(1.0, 2.0), lambda fam: {"a": np.diag([1.0, 3.0])}),
    # the commutant of diag(1, 2) is the diagonal matrices, spanned by two singular kernel
    # vectors: the first random mix is the first invertible candidate
    "mix found": (_diagonal(1.0, 2.0), lambda fam: dict(fam.matrices)),
    "mix found D=3": (_diagonal(1.0, 2.0, 4.0), lambda fam: dict(fam.matrices)),
    "full rank": (_diagonal(1.0, 1.0), lambda fam: {"a": 2.0 * np.eye(2)}),
    # the commutant of a 3 x 3 Jordan block is spanned by 1, N and N^2: the second kernel vector
    # is the first invertible candidate
    "second kernel vector": (_jordan(), lambda fam: dict(fam.matrices)),
}


@pytest.mark.parametrize("case", list(_SEARCHES))
def test_lazy_candidates_give_the_eager_result(case):
    fam, target = _search(case)
    _assert_same_result(symmetry.find_intertwiner(fam, target), _find_intertwiner_reference(fam, target))


def _search(case):
    fam, make_target = _SEARCHES[case]
    return fam, make_target(fam)


def _kernel(case) -> list[np.ndarray]:
    """The kernel vectors of the case's intertwiner system, in the order the search tries them."""
    fam, target = _search(case)
    eye = np.eye(fam.D)
    system = np.vstack([np.kron(eye, fam.matrices[lab].T) - np.kron(np.asarray(target[lab]), eye)
                        for lab in fam.labels])
    return [v.reshape(fam.D, fam.D) for v in linalg.null_space(system)]


def test_the_cases_take_the_paths_they_stand_for():
    for case in ("suite parity", "suite spin flip"):
        assert np.linalg.cond(_kernel(case)[0]) < 1e8  # the first kernel vector passes
    kernel = _kernel("second kernel vector")
    assert np.linalg.cond(kernel[0]) >= 1e8 and np.linalg.cond(kernel[1]) < 1e8
    for case in ("mix found", "mix found D=3"):
        kernel = _kernel(case)
        assert len(kernel) > 1 and all(np.linalg.cond(x) >= 1e8 for x in kernel)
        assert symmetry.find_intertwiner(*_search(case)).found
    assert len(_kernel("singular commutant")) == 1
    assert "non-invertible" in symmetry.find_intertwiner(*_search("singular commutant")).diagnosis


def test_a_search_that_stops_at_a_kernel_vector_draws_no_mix(monkeypatch):
    drawn = []
    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: drawn.append(a) or real_rng(*a))
    fam = models.general_family(0.8, 0.8 * 2**0.5, 1.0)
    assert symmetry.find_intertwiner(fam, _transpose(fam)).found
    assert drawn == []
    symmetry.find_intertwiner(_diagonal(1.0, 2.0), {"a": np.diag([1.0, 2.0])})
    assert drawn == [(7,)]


# ---------------------------------------------------------------------------
# the per-sample determinant loop the array check replaced


def _det_deviation_reference(samples: np.ndarray) -> float:
    worst = 0.0
    for (g, h, c), det in zip(samples, models.det_word_matrix(*samples.T)):
        closed = models.det_exact_form(g, h, c)
        worst = max(worst, abs(det - closed) / max(1.0, abs(closed)))
    return worst


def _samples(seed: int) -> np.ndarray:
    samples = np.random.default_rng(seed).uniform(-2.0, 2.0, (100, 3))
    samples[:5, 2] = 0.0  # c = 0: the closed form vanishes
    samples[5:40] *= 0.5  # small parameters: |closed| < 1, divided by 1
    return samples


@pytest.mark.parametrize("seed", [42, 0, 1, 7, 2024])
def test_the_array_determinant_check_is_the_per_sample_loop(seed):
    samples = np.random.default_rng(seed).uniform(-2.0, 2.0, (100, 3)) if seed == 42 else _samples(seed)
    closed = np.array([models.det_exact_form(g, h, c) for g, h, c in samples])
    assert (np.abs(closed) < 1).any() and (np.abs(closed) > 1).any()
    assert float(verify._det_deviation(samples)).hex() == float(_det_deviation_reference(samples)).hex()
