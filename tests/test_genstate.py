from fractions import Fraction
from functools import cache
from itertools import combinations, product

import numpy as np
import pytest

from mpschain import genstate, models, parent
from mpschain.genstate import (
    EXPAND_MAX_SITES,
    PsiN,
    corr_sperp2,
    corr_sz2,
    corr_sz2sz2,
    corr_xx,
    corr_zz,
    degeneracy_lower_bound,
    expectation_sperp2,
    expectation_sz2,
    expectation_sz2sz2,
    expectation_xx,
    expectation_zz,
    model_ii_word_traces,
    psi_n_expand,
    psi_n_norm,
    thermo_corr,
    thermo_corr_finite,
)
from mpschain.mps import amplitudes


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


def test_word_traces_key_order():
    expected = [
        (cfg, (zeros, t)) for zeros in range(0, 9, 2) for cfg, t in _reference_expansion(8, zeros).items()
    ]
    assert list(model_ii_word_traces(8).items()) == expected


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
        (model_ii_word_traces, (12,), "expansion cap 10"),
        (model_ii_word_traces, (7,), "n_sites must be even"),
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
        assert genstate._tr_u_v_u(a, b) == int(np.trace(_U @ v_powers[a] @ _U @ v_powers[b])), (a, b)


def test_tr_x_pair_closed_form(v_powers):
    for a, b in product(range(_POWERS + 1), repeat=2):
        pair = np.trace(_X2 @ v_powers[a] @ _X1 @ v_powers[b]) + np.trace(_X1 @ v_powers[a] @ _X2 @ v_powers[b])
        assert genstate._tr_x_pair(a, b) == int(pair), (a, b)


def test_closed_form_traces_are_python_ints():
    for value in (genstate._tr_v(120), genstate._tr_u_v_u(0, 120), genstate._tr_x_pair(59, 60)):
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
            pairs = [(corr_sz2(n, z), expectation_sz2(psi)), (corr_sperp2(n, z), expectation_sperp2(psi))]
            for r in range(2, n):
                pairs += [
                    (corr_zz(n, z, r), expectation_zz(psi, r)),
                    (corr_xx(n, z, r), expectation_xx(psi, r)),
                    (corr_sz2sz2(n, z), expectation_sz2sz2(psi, r)),
                ]
            for formula, oracle in pairs:
                assert type(oracle) is Fraction
                assert formula == oracle, (n, z)


@pytest.mark.parametrize("fn", [expectation_zz, expectation_xx, expectation_sz2sz2])
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
        traces = model_ii_word_traces(n)
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


def test_psin_vector_indexing():
    psi = PsiN(n_sites=2, zeros=2, amplitudes={(0, 0): 3})
    vec = psi.vector()
    assert vec[1 * 3 + 1] == 3.0
    assert np.count_nonzero(vec) == 1


# ---------------------------------------------------------------------------
# thermodynamic laws


def test_thermo_zz_delta_law():
    assert thermo_corr(2, 2, "zz") == pytest.approx(-0.5, abs=1e-12)
    for r in (3, 4, 5, 6):
        assert abs(thermo_corr(2, r, "zz")) < 1e-12


def test_thermo_xx_vanishes():
    for r in (2, 3, 5):
        assert thermo_corr(2, r, "xx") == 0.0


def test_thermo_finite_size_approach():
    # exact value at N = 400 sits within 1% of the limit law
    val = corr_zz(400, 2, 2)
    assert -0.51 <= float(val) <= -0.49
    assert abs(float(corr_zz(400, 2, 3))) <= 0.01
    assert abs(float(corr_xx(400, 2, 2))) <= 0.02
    # and the dominant-eigen finite-N approximation tracks the exact value
    approx = thermo_corr_finite(400, 2, 2, "zz")
    assert approx == pytest.approx(float(val), abs=1e-3)
    approx_xx = thermo_corr_finite(400, 2, 2, "xx")
    assert approx_xx == pytest.approx(float(corr_xx(400, 2, 2)), abs=1e-3)


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
