import ast
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest

from mpschain import ed, genstate, linalg, models, parent
from mpschain.genstate import (
    EXPAND_MAX_SITES,
    PsiN,
    corr_sperp2,
    corr_sz2,
    corr_sz2sz2,
    corr_xx,
    corr_zz,
    degeneracy_lower_bound,
    expectation_sz2,
    expectation_xx,
    expectation_zz,
    psi_n_expand,
    psi_n_norm,
    thermo_corr,
)
from mpschain.mps import _EvenNLimit, amplitudes


def _sperp2(psi):
    return genstate._expectations(psi, ("sperp2",))["sperp2"]


def _sz2sz2(psi, r):
    return genstate._expectations(psi, ("sz2sz2",), [r])["sz2sz2"][0]


# ---------------------------------------------------------------------------
# explicit sector states


def test_psi_all_zeros():
    psi = psi_n_expand(6, 6)
    assert psi.amplitudes == {(0, 0, 0, 0, 0, 0): 3}


def test_psi_two_nonzero_spins_prefactor():
    n = 6
    psi = psi_n_expand(n, n - 2)
    assert all(a == 2 for a in psi.amplitudes.values())
    assert len(psi.amplitudes) == n * (n - 1)


def test_psi_zero_sector_dimer_covering():
    # n = 0 at N = 4: the two nearest-neighbor pair coverings
    def alpha_product(pairs, n_sites):
        state = {}
        for assignment in range(2 ** len(pairs)):
            cfg = [0] * n_sites
            for b, (i, j) in enumerate(pairs):
                if (assignment >> b) & 1:
                    cfg[i], cfg[j] = 1, -1
                else:
                    cfg[i], cfg[j] = -1, 1
            cfg = tuple(cfg)
            state[cfg] = state.get(cfg, 0) + 1
        return state

    expected = {}
    for pairs in ([(0, 1), (2, 3)], [(1, 2), (3, 0)]):
        for cfg, a in alpha_product(pairs, 4).items():
            expected[cfg] = expected.get(cfg, 0) + a
    psi = psi_n_expand(4, 0)
    assert psi.amplitudes == expected


def test_psi_cyclic_invariance():
    psi = psi_n_expand(6, 2)
    for cfg, a in psi.amplitudes.items():
        assert psi.amplitudes.get(cfg[1:] + cfg[:1], 0) == a


@cache
def _product_trace(word):
    """Integer trace of the A_1 (+1) / A_-1 (-1) matrix product in word order."""
    prod = _I3
    for m in word:
        prod = prod @ (_A1 if m == 1 else _AM)
    return int(np.trace(prod))


def _reference_expansion(n_sites, zeros):
    """The plain enumeration: every zero placement, then every +1 placement on
    the free sites, each amplitude the trace of its matrix product."""
    amps = {}
    for zero_pos in combinations(range(n_sites), zeros):
        rest = [s for s in range(n_sites) if s not in zero_pos]
        for up_pos in combinations(rest, len(rest) // 2):
            cfg = tuple(0 if s in zero_pos else 1 if s in up_pos else -1 for s in range(n_sites))
            t = _product_trace(tuple(m for m in cfg if m))
            if t:
                amps[cfg] = t
    return amps


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
def test_psi_expansion_matches_reference_enumeration_in_order(n_sites):
    for zeros in range(0, n_sites + 1, 2):
        got = list(psi_n_expand(n_sites, zeros).amplitudes.items())
        assert got == list(_reference_expansion(n_sites, zeros).items()), zeros
        assert all(type(a) is int for _, a in got)


def test_psi_rejects_odd_and_caps():
    with pytest.raises(ValueError):
        psi_n_expand(5, 2)
    with pytest.raises(ValueError):
        psi_n_expand(6, 3)
    with pytest.raises(ValueError):
        psi_n_expand(12, 2)


def test_expansion_errors_come_in_order_cap_evens_range(monkeypatch):
    assert EXPAND_MAX_SITES == 10

    def refuse(*args):
        raise AssertionError("enumerated before the argument checks")

    monkeypatch.setattr(genstate, "combinations", refuse)
    for fn, args, message in (
        (psi_n_expand, (12, 3), "expansion cap 10"),
        (psi_n_expand, (11, 2), "expansion cap 10"),
        (psi_n_expand, (7, 3), "n_sites must be even"),
        (psi_n_expand, (6, 3), "zeros must be even"),
        (psi_n_expand, (6, 8), "zeros must lie in"),
        (psi_n_expand, (6, -2), "zeros must lie in"),
        (psi_n_norm, (7, 3), "n_sites must be even"),
        (psi_n_norm, (6, 3), "zeros must be even"),
        (psi_n_norm, (6, 8), "zeros must lie in"),
        (psi_n_expand, (0, 0), "n_sites must be at least 2"),
        (psi_n_norm, (0, 0), "n_sites must be at least 2"),
        (psi_n_norm, (-2, 0), "n_sites must be at least 2"),
        (corr_sz2, (0, 0), "n_sites must be at least 2"),
        (corr_sperp2, (0, 0), "n_sites must be at least 2"),
    ):
        with pytest.raises(ValueError, match=message):
            fn(*args)


# ---------------------------------------------------------------------------
# norms and one-point formulas


def test_norm_values():
    assert psi_n_norm(4, 2) == 48
    assert psi_n_norm(6, 2) == 180
    assert psi_n_norm(8, 8) == 9


def test_norm_matches_oracle():
    for n in (4, 6, 8):
        for z in range(0, n + 1, 2):
            assert psi_n_norm(n, z) == psi_n_expand(n, z).norm_sq()


def test_norm_matches_oracle_at_cap():
    # the largest ring the explicit expansion accepts by default
    for z in (6, 8, 10):
        assert psi_n_norm(10, z) == psi_n_expand(10, z).norm_sq()


def test_one_point_formulas():
    assert corr_sz2(4, 2) == Fraction(1, 2)
    assert corr_sperp2(8, 2) == Fraction(5, 8)
    assert corr_sz2sz2(8, 2) == Fraction(15, 28)


def test_v_trace_parity():
    for m in range(1, 13, 2):
        assert genstate._tr_v(m) == 0
    assert genstate._tr_v(2) == 8
    assert genstate._tr_v(4) == 12
    assert isinstance(genstate._tr_v(6), int)


# ---------------------------------------------------------------------------
# closed-form traces against int64 matrix products


_A1 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=np.int64)
_AM = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.int64)
_X = _A1 + _AM
_I3 = np.eye(3, dtype=np.int64)
_V = np.kron(_A1, _A1) + np.kron(_AM, _AM)
_U = np.kron(_A1, _A1) - np.kron(_AM, _AM)
_X1 = np.kron(_X, _I3)
_X2 = np.kron(_I3, _X)
_POWERS = 60


def _tr_u_v_u(a: int, b: int) -> int:
    """tr(U V^a U V^b), the weight of one corr_zz term."""
    if (a + b) % 2:
        return 0
    if a % 2:
        return 4
    if a and b:
        return -4
    return -genstate._tr_v(a + b) if a + b else -8


def _x_leg(m: int) -> int:
    """One V power's share of _tr_x_pair, which is additive over the two powers."""
    if m == 0:
        return 8
    return 2 ** ((m + 5) // 2) if m % 2 else 3 * 2 ** (m // 2 + 1)


def _tr_x_pair(a: int, b: int) -> int:
    """tr(X2 V^a X1 V^b) + tr(X1 V^a X2 V^b), the weight of one corr_xx term."""
    return _x_leg(a) + _x_leg(b) if (a + b) % 2 else 0


@pytest.fixture(scope="module")
def v_powers():
    # for a, b <= 60 the dressed words below have entries of magnitude <= 2^31 and V^120 <= 2^60,
    # so no int64 product here overflows
    return [np.linalg.matrix_power(_V, m) for m in range(_POWERS + 1)]


def test_tr_v_closed_form(v_powers):
    for m, vm in enumerate(v_powers):
        assert genstate._tr_v(m) == int(np.trace(vm))
    assert genstate._tr_v(2 * _POWERS) == int(np.trace(v_powers[-1] @ v_powers[-1]))


def test_tr_u_v_u_closed_form(v_powers):
    for a, b in product(range(_POWERS + 1), repeat=2):
        assert _tr_u_v_u(a, b) == int(np.trace(_U @ v_powers[a] @ _U @ v_powers[b])), (a, b)


def test_tr_x_pair_closed_form(v_powers):
    for a, b in product(range(_POWERS + 1), repeat=2):
        pair = np.trace(_X2 @ v_powers[a] @ _X1 @ v_powers[b]) + np.trace(_X1 @ v_powers[a] @ _X2 @ v_powers[b])
        assert _tr_x_pair(a, b) == int(pair), (a, b)


def test_closed_form_traces_are_python_ints():
    for value in (genstate._tr_v(120), _tr_u_v_u(0, 120), _tr_x_pair(59, 60)):
        assert type(value) is int


def test_word_trace_rule_matches_matrix_products():
    ladder = {1: _A1, -1: _AM}
    layer = {(): _I3}
    for _ in range(12):
        layer = {word + (m,): prod @ ladder[m] for word, prod in layer.items() for m in (1, -1)}
        for word, prod in layer.items():
            assert genstate._word_trace(word) == int(np.trace(prod)), word
    assert len(layer) == 2**12
    assert genstate._word_trace(()) == 3


# ---------------------------------------------------------------------------
# the walked correlator sums against their per-term reference


def _corr_zz_reference(n_sites: int, zeros: int, r: int) -> Fraction:
    """corr_zz as one comb pair and one closed-form trace per arc split k."""
    num = 0
    for k in range(0, r - 1):
        if not 0 <= zeros - k <= n_sites - r:
            continue
        num += comb(r - 2, k) * comb(n_sites - r, zeros - k) * _tr_u_v_u(r - 2 - k, n_sites - r - zeros + k)
    return Fraction(num, comb(n_sites, zeros) * genstate._tr_v(n_sites - zeros))


def _corr_xx_reference(n_sites: int, zeros: int, r: int) -> Fraction:
    """corr_xx as one comb pair and one closed-form trace pair per arc split k."""
    num = 0
    for k in range(0, r - 1):
        if not 0 <= zeros - 1 - k <= n_sites - r:
            continue
        num += comb(r - 2, k) * comb(n_sites - r, zeros - 1 - k) * _tr_x_pair(r - 2 - k, n_sites - r - zeros + 1 + k)
    return Fraction(num, 2 * comb(n_sites, zeros) * genstate._tr_v(n_sites - zeros))


_REFERENCES = ((corr_zz, _corr_zz_reference), (corr_xx, _corr_xx_reference))


def _assert_matches_reference(n_sites: int, zeros: int, r: int) -> None:
    for walked, reference in _REFERENCES:
        value = walked(n_sites, zeros, r)
        assert type(value) is Fraction
        assert value == reference(n_sites, zeros, r), (walked.__name__, n_sites, zeros, r)


def test_walked_sums_match_the_reference_on_every_small_ring():
    # every edge case of the walk: first and last split on an arc edge, one split, no split (n = N; n = 0 for xx)
    for n_sites in range(2, 41, 2):
        for zeros in range(0, n_sites + 1, 2):
            for r in range(2, n_sites):
                _assert_matches_reference(n_sites, zeros, r)


@pytest.mark.parametrize("n_sites, samples", [(100, 40), (200, 40), (2000, 8)])
def test_walked_sums_match_the_reference_on_sampled_large_rings(n_sites, samples):
    rng = np.random.default_rng(n_sites)
    for _ in range(samples):
        _assert_matches_reference(n_sites, 2 * int(rng.integers(0, n_sites // 2 + 1)), int(rng.integers(2, n_sites)))


def test_walked_sums_match_the_reference_at_twenty_thousand_sites():
    _assert_matches_reference(20000, 10000, 4)


@pytest.mark.parametrize("walked", [corr_zz, corr_xx])
@pytest.mark.parametrize("r", [2, 3, 40, 150, 199])
def test_one_correlator_value_makes_at_most_three_comb_calls(walked, r, monkeypatch):
    # two comb calls start the walk and one gives the denominator's C(N, n), whatever the term count
    calls = []

    def counting_comb(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(genstate, "comb", counting_comb)
    walked(200, 100, r)
    assert len(calls) <= 3, calls


# ---------------------------------------------------------------------------
# two-point formulas against the brute-force oracle


def test_corr_zz_values():
    assert corr_zz(4, 2, 2) == Fraction(-1, 6)
    assert corr_zz(6, 2, 2) == Fraction(-4, 15)
    assert corr_zz(8, 2, 2) == Fraction(-9, 28)


def test_corr_xx_values():
    # oracle-pinned: one in-plane flip pair connects the (n) and (n) sectors
    assert corr_xx(4, 2, 2) == Fraction(1, 3)
    assert corr_xx(6, 2, 2) == Fraction(4, 15)
    assert corr_xx(6, 2, 3) == Fraction(7, 30)


def test_corr_xx_vanishes_without_zeros():
    for n in (4, 6, 8):
        for r in range(2, n):
            assert corr_xx(n, 0, r) == 0


def test_exact_formula_oracle_equivalence():
    # up to the expansion cap, the sizes the exact benchmark workload runs
    for n in (4, 6, 8, 10):
        for z in range(0, n + 1, 2):
            psi = psi_n_expand(n, z)
            pairs = [(corr_sz2(n, z), expectation_sz2(psi)), (corr_sperp2(n, z), _sperp2(psi))]
            for r in range(2, n):
                pairs += [
                    (corr_zz(n, z, r), expectation_zz(psi, r)),
                    (corr_xx(n, z, r), expectation_xx(psi, r)),
                    (corr_sz2sz2(n, z), _sz2sz2(psi, r)),
                ]
            for formula, oracle in pairs:
                assert type(oracle) is Fraction
                assert formula == oracle, (n, z)


@pytest.mark.parametrize("fn", [expectation_zz, expectation_xx, _sz2sz2])
@pytest.mark.parametrize("r", [0, 1, 6])
def test_expectations_reject_separations_outside_the_ring(fn, r):
    # r = 1 puts both operators on site 1; r = 0 and r = N wrap to a neighbour of site 1
    psi = psi_n_expand(6, 2)
    with pytest.raises(ValueError, match="2 <= r <= N-1"):
        fn(psi, r)


def test_corr_bad_arguments():
    with pytest.raises(ValueError):
        corr_zz(6, 2, 1)
    with pytest.raises(ValueError):
        corr_zz(6, 2, 6)
    with pytest.raises(ValueError):
        corr_zz(6, 3, 2)


# ---------------------------------------------------------------------------
# generating identity and degeneracy


def test_generating_identity_exact():
    for n in (4, 6):
        traces = {cfg: (z, t) for z in range(0, n + 1, 2) for cfg, t in psi_n_expand(n, z).amplitudes.items()}
        for g in (1.0, 2.0, 3.0, 4.0, 5.0):
            amps = amplitudes(models.model_II(g), n)
            for cfg_labels, amp in amps.items():
                cfg = tuple(int(lab) for lab in cfg_labels)
                if cfg in traces:
                    z, t = traces[cfg]
                    assert amp == (g**z) * t
                else:
                    assert amp == 0.0


def test_sector_orthogonality():
    n = 6
    vecs = [psi_n_expand(n, z).vector() for z in range(0, n + 1, 2)]
    for u, v in combinations(vecs, 2):
        assert u @ v == 0.0


def test_every_sector_state_is_a_ground_state():
    h = models.model_II_hamiltonian()
    for n in (4, 6, 8):
        for z in range(0, n + 1, 2):
            vec = psi_n_expand(n, z).vector()
            res = np.linalg.norm(parent.chain_apply(h, n, vec)) / np.linalg.norm(vec)
            assert res <= 1e-10


def test_degeneracy_lower_bound():
    assert degeneracy_lower_bound(4) == 20
    assert degeneracy_lower_bound(6) == 70


@pytest.mark.parametrize("n_sites", [4, 6, 8])
def test_psi_n_is_constant_on_every_model_ii_block(n_sites):
    # psi_n = sum_w t(w) 1_{C(n,w)}: labels give each basis string the smallest string of its
    # connected block, so psi_n is constant on the blocks when it equals itself read at the labels
    h = models.model_II_hamiltonian().matrix
    rows, cols, _ = map(np.concatenate, zip(*ed._window_entries(h, 3, 2, n_sites)))
    labels = ed._components(rows, cols, 3**n_sites)
    covered = np.zeros(3**n_sites, dtype=bool)
    for zeros in range(0, n_sites + 1, 2):
        psi = psi_n_expand(n_sites, zeros).vector()
        assert np.array_equal(psi, psi[labels])
        covered |= psi != 0
    # not vacuous: psi_n lives on blocks of more than one string
    assert (covered & (labels != np.arange(3**n_sites))).any()


def test_psin_vector_indexing():
    psi = PsiN(n_sites=2, zeros=2, index=np.array([1 * 3 + 1]), values=np.array([3]))
    vec = psi.vector()
    assert vec[1 * 3 + 1] == 3.0
    assert np.count_nonzero(vec) == 1


# ---------------------------------------------------------------------------
# the array-backed oracle against the dict loops it replaced


def _loop_norm_sq(amps):
    return sum(a * a for a in amps.values())


def _loop_vector(n_sites, amps):
    out = np.zeros(3**n_sites)
    for cfg, a in amps.items():
        idx = 0
        for m in cfg:
            idx = idx * 3 + (1 - m)
        out[idx] = a
    return out


def _loop_sz2(amps):
    return Fraction(sum(a * a * cfg[0] * cfg[0] for cfg, a in amps.items()), _loop_norm_sq(amps))


def _loop_sperp2(amps):
    return Fraction(sum(a * a * (2 if cfg[0] == 0 else 1) for cfg, a in amps.items()), 2 * _loop_norm_sq(amps))


def _loop_sz2sz2(amps, r):
    return Fraction(sum(a * a * cfg[0] ** 2 * cfg[r - 1] ** 2 for cfg, a in amps.items()), _loop_norm_sq(amps))


def _loop_zz(amps, r):
    return Fraction(sum(a * a * cfg[0] * cfg[r - 1] for cfg, a in amps.items()), _loop_norm_sq(amps))


_SX_MOVES = {1: (0,), 0: (1, -1), -1: (0,)}


def _loop_xx(amps, r):
    num = 0
    for cfg, a in amps.items():
        for mi in _SX_MOVES[cfg[0]]:
            for mj in _SX_MOVES[cfg[r - 1]]:
                target = list(cfg)
                target[0], target[r - 1] = mi, mj
                num += a * amps.get(tuple(target), 0)
    return Fraction(num, 2 * _loop_norm_sq(amps))


@pytest.mark.parametrize("n_sites", [2, 4, 6, 8, 10])
def test_array_oracle_equals_the_dict_loops(n_sites):
    for zeros in range(0, n_sites + 1, 2):
        psi = psi_n_expand(n_sites, zeros)
        amps = psi.amplitudes
        digits = 1 - (psi.index[:, None] // 3 ** np.arange(n_sites - 1, -1, -1)) % 3
        assert list(zip(map(tuple, digits), psi.values)) == list(amps.items())
        assert type(psi.norm_sq()) is int and psi.norm_sq() == _loop_norm_sq(amps)
        assert psi.vector().tobytes() == _loop_vector(n_sites, amps).tobytes()
        pairs = [(expectation_sz2(psi), _loop_sz2(amps)), (_sperp2(psi), _loop_sperp2(amps))]
        for r in range(2, n_sites):
            pairs += [
                (expectation_zz(psi, r), _loop_zz(amps, r)),
                (expectation_xx(psi, r), _loop_xx(amps, r)),
                (_sz2sz2(psi, r), _loop_sz2sz2(amps, r)),
            ]
        for got, want in pairs:
            assert type(got) is Fraction
            assert got == want, (n_sites, zeros)


# ---------------------------------------------------------------------------
# thermodynamic laws


def test_thermo_zz_delta_law():
    assert thermo_corr(2, 2, "zz") == pytest.approx(-0.5, abs=1e-12)
    for r in (3, 4, 5, 6):
        assert abs(thermo_corr(2, r, "zz")) < 1e-12


def test_thermo_xx_vanishes():
    for r in (2, 3, 5):
        assert thermo_corr(2, r, "xx") == 0.0


@pytest.mark.parametrize("zeros, r, channel", [(-2, 2, "zz"), (-4, 3, "xx"), (-2, 5, "zz")])
def test_thermo_corr_refuses_a_negative_zero_count(zeros, r, channel, monkeypatch):
    def bracket(*args):
        raise AssertionError("the limit bracket ran")

    monkeypatch.setattr(genstate, "_limit_bracket", bracket)
    with pytest.raises(ValueError, match="zeros must be non-negative"):
        thermo_corr(zeros, r, channel)


def _dominant_projector_bracket(r, channel):
    # float reference: V, U, X1, X2 as 9 x 9 matrices and the even-N limit from the dominant projectors of V
    v = _V.astype(float)
    limit = _EvenNLimit([linalg.dominant_projectors(v)])
    vmid = np.linalg.matrix_power(v / np.sqrt(2), r - 2)
    if channel == "zz":
        u = _U.astype(float)
        middle, extra_power = u @ vmid @ u / 2, r
    else:
        x1, x2 = _X1.astype(float), _X2.astype(float)
        middle, extra_power = (x2 @ vmid @ x1 + x1 @ vmid @ x2) / (2 * np.sqrt(2)), r - 1
    return limit.values(middle[None, None], [extra_power])[0][0]


@pytest.mark.parametrize("channel", ["zz", "xx"])
def test_limit_bracket_matches_the_dominant_projector_reference(channel):
    for r in range(2, 41):
        exact = genstate._limit_bracket(r, channel)
        ref = _dominant_projector_bracket(r, channel)
        if exact:
            assert abs(ref - float(exact)) <= 1e-13 * abs(float(exact)), r
        else:
            assert abs(ref) <= 1e-15, r


@pytest.mark.parametrize("channel", ["zz", "xx"])
def test_limit_bracket_is_the_limit_of_the_closed_form_ratios(channel):
    # the k = 0 arc split over the norm trace at an outer arc b near 400, N = b + r (zz) or b + r - 1 (xx) even
    for r in range(2, 41):
        if channel == "zz":
            b = 400 + r % 2
            ratio = Fraction(_tr_u_v_u(r - 2, b), genstate._tr_v(b + r))
        else:
            b = 401 - r % 2
            ratio = Fraction(_tr_x_pair(r - 2, b), 2 * genstate._tr_v(b + r - 1))
        assert abs(ratio - genstate._limit_bracket(r, channel)) < Fraction(1, 2**100), r


def test_exact_sums_approach_the_limit_bracket():
    # corr = C(N-r, inner zeros) / C(N, n) * (bracket + O(n/N)); the measured drift is 7.5e-5 (n = 2)
    # and 2.3e-4 (n = 4) at N = 20000
    for n_sites in (2000, 20000):
        for zeros in (2, 4):
            for r in range(2, 13):
                for channel, corr, inner in (("zz", corr_zz, zeros), ("xx", corr_xx, zeros - 1)):
                    scaled = corr(n_sites, zeros, r) * comb(n_sites, zeros) / comb(n_sites - r, inner)
                    drift = abs(scaled - genstate._limit_bracket(r, channel))
                    assert drift <= Fraction(2 * zeros, n_sites), (n_sites, zeros, r, channel)


def test_genstate_imports_nothing_from_the_package():
    tree = ast.parse(Path(genstate.__file__).read_text(encoding="utf-8"))
    assert [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level] == []


def test_thermo_finite_size_approach():
    # exact value at N = 400 sits within 1% of the limit law
    val = corr_zz(400, 2, 2)
    assert -0.51 <= float(val) <= -0.49
    assert abs(float(corr_zz(400, 2, 3))) <= 0.01
    assert abs(float(corr_xx(400, 2, 2))) <= 0.02


def test_thermo_xx_prefactor_scaling():
    # the in-plane channel dies like n/N
    v1 = abs(float(corr_xx(200, 2, 3)))
    v2 = abs(float(corr_xx(400, 2, 3)))
    assert v2 < v1
    assert v2 == pytest.approx(v1 / 2, rel=0.05)


def test_correlator_table_csv():
    rows = [
        (4, 2, 2, "zz", corr_zz(4, 2, 2)),
        (4, 2, None, "sz2", corr_sz2(4, 2)),
        (6, 6, None, "norm", Fraction(psi_n_norm(6, 6))),
    ]
    text = genstate.correlator_table_text(rows)
    lines = text.splitlines()
    assert lines[0] == "N,n,r,channel,value_num,value_den,value_float"
    assert lines[1] == "4,2,2,zz,-1,6,-0.16666666666666666"
    assert lines[2] == "4,2,,sz2,1,2,0.5"
    assert lines[3] == "6,6,,norm,9,1,9"
    assert text.endswith("\n")
    assert genstate.correlator_table_text(rows) == text
