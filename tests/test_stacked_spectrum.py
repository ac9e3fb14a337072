"""A stacked TransferSpectrum answers for each family bit for bit as a spectrum built from it alone.

The g-sweep of `mpschain correlate` builds one stack of all its families; its
values are compared, by their bytes, with per-family TransferSpectrum queries.
"""

import argparse
from math import cos, sin

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpschain import cli, linalg, models, mps, spin
from mpschain.mps import MpsFamily, OscillatoryLimitError, TransferSpectrum, _dressed_matrix, _matrix_stack, transfer

CHANNELS = ("zz", "xx", "identity", "sz2", "sx2")
# 0 gives model I's oscillating limits; 1e70 puts E beyond geev's scaling limits, so rho comes from eigvals
G_VALUES = st.one_of(st.sampled_from([0.0, 1e70, 1e-3, 1.0, -0.7]), st.floats(-3.0, 3.0, allow_subnormal=False))


def _text(value) -> str:
    if isinstance(value, Exception):
        return f"{type(value).__name__}: {value}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_text(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str} {value.shape} {value.tobytes().hex()}"
    if isinstance(value, complex):
        return f"complex({value.real.hex()}, {value.imag.hex()})"
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _random_family(rng, d: int, big_d: int, complex_: bool, scale: float) -> MpsFamily:
    labels = spin.LABELS if d == 3 else tuple("ab"[:d])
    mats = {}
    for lab in labels:
        m = rng.standard_normal((big_d, big_d))
        mats[lab] = scale * (m + 1j * rng.standard_normal((big_d, big_d)) if complex_ else m)
    return MpsFamily(d=d, D=big_d, labels=labels, matrices=mats)


def _per_g_rows(args, families, g_values) -> list:
    """The correlate rows as a loop over g builds them, one family and one spectrum at a time."""
    n_sites = args.n_sites if args.mode == "ring" else None
    rows = []
    for g, fam in zip(g_values, families):
        spectrum = TransferSpectrum(fam())
        if args.channel in cli._ONE_POINT:
            obs = cli._ONE_POINT[args.channel]()
            value = spectrum.thermo_one_point(obs) if n_sites is None else spectrum.ring_one_point(obs, n_sites)
            rows.append((g, None, value, ""))
            continue
        obs = cli._TWO_POINT[args.channel]()
        r_values = range(args.r_min, args.r_max + 1)
        for r, value in zip(r_values, spectrum.two_point_sweep(obs, obs, r_values, n_sites)):
            oscillates = isinstance(value, OscillatoryLimitError)
            rows.append((g, r, None if oscillates else value, "oscillatory" if oscillates else ""))
    return rows


ERRORS = (ValueError, ArithmeticError, RuntimeError)


def _outcome(call) -> str:
    try:
        return _text(call())
    except ERRORS as exc:
        return _text(exc)


def _stacked_rows(args, families, g_values) -> str:
    return _outcome(lambda: [
        (g, r, value, flag) for g, rows in cli._correlate_rows(args, families, g_values) for r, value, flag in rows
    ])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    which=st.sampled_from(["I", "II"]),
    g_values=st.lists(G_VALUES, min_size=1, max_size=6),
    mode=st.sampled_from(["thermo", "ring"]),
    half_n=st.integers(1, 20),
    channel=st.sampled_from(CHANNELS),
    r_min=st.integers(1, 3),
    r_span=st.integers(0, 11),
)
@example(which="I", g_values=[0.0, 1e70, 0.5], mode="thermo", half_n=1, channel="zz", r_min=1, r_span=11)
@example(which="I", g_values=[0.0, 1e70, 0.5], mode="thermo", half_n=1, channel="xx", r_min=1, r_span=11)
@example(which="II", g_values=[1e70, 0.0, 2.0], mode="ring", half_n=7, channel="identity", r_min=1, r_span=11)
@example(which="I", g_values=[0.0, 1e70, 1.3], mode="ring", half_n=20, channel="sx2", r_min=1, r_span=0)
@example(which="II", g_values=[0.0, 1e70, 0.1], mode="thermo", half_n=1, channel="sz2", r_min=1, r_span=0)
def test_stacked_g_sweep_equals_the_per_family_spectra(which, g_values, mode, half_n, channel, r_min, r_span):
    args = argparse.Namespace(channel=channel, mode=mode, n_sites=2 * half_n, r_min=r_min, r_max=r_min + r_span)
    build = models.model_I if which == "I" else models.model_II
    expected = _outcome(lambda: _per_g_rows(args, [lambda g=g: build(g) for g in g_values], g_values))
    assert _stacked_rows(args, models.model_families(which, g_values), g_values) == expected


@pytest.mark.parametrize("mode", ["thermo", "ring"])
@pytest.mark.parametrize("channel", CHANNELS)
def test_stacked_rows_flag_each_oscillatory_r_as_the_per_family_spectra(mode, channel):
    # A_1 a rotation by theta: E has the peripheral eigenvalues exp(+-2i theta), so thermodynamic
    # limits oscillate along even N; the random families in between do not
    rng = np.random.default_rng(23)
    fams = []
    for theta in (0.3, 1.0, 2.2):
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        fams.append(MpsFamily(d=3, D=2, labels=spin.LABELS, matrices={"1": rot, "0": np.zeros((2, 2)), "-1": np.zeros((2, 2))}))
        fams.append(_random_family(rng, 3, 2, False, 1.0))
    args = argparse.Namespace(channel=channel, mode=mode, n_sites=10, r_min=1, r_max=9)
    labels = [0.1 * k for k in range(len(fams))]
    expected = _outcome(lambda: _per_g_rows(args, [lambda f=f: f for f in fams], labels))
    assert _stacked_rows(args, fams, labels) == expected
    if mode == "thermo" and channel == "zz":
        assert "'oscillatory'" in expected and ", '']" in expected


def _queries(obs: list, thermo_first: bool) -> list:
    o1, o2 = obs[0], obs[-1]
    ring = [
        lambda s: s.ring_one_point(o1, 8),
        lambda s: s.two_point_sweep(o1, o2, range(1, 8), 8),
        lambda s: s.two_point_sweep(o2, o1, [3], 10),
    ]
    thermo = [
        lambda s: s.thermo_one_point(o2),
        lambda s: s.two_point_sweep(o1, o2, range(1, 7)),
        lambda s: s.two_point_sweep(o1, o1, [2]),
    ]
    pieces = [lambda s: s.e, lambda s: s.rho, lambda s: s.scaled, lambda s: s.dressed(o1), lambda s: s.projectors]
    return (thermo + ring if thermo_first else ring + thermo) + pieces


def _rotation_family(rng, scale: float) -> MpsFamily:
    """d = 1, D = 2: a rotation, whose even-N limits oscillate, or a random real matrix."""
    theta = rng.uniform(0.1, 3.0)
    m = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return MpsFamily(d=1, D=2, labels=("a",), matrices={"a": scale * (m if rng.random() < 0.6 else rng.standard_normal((2, 2)))})


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 4),
    d=st.sampled_from([1, 2, 3]),
    big_d=st.integers(1, 3),
    complex_=st.booleans(),
    rotations=st.booleans(),
    scale=st.sampled_from([1.0, 1e-75, 1e70]),
    thermo_first=st.booleans(),
)
def test_stack_of_random_families_answers_as_each_family_alone(
    seed, size, d, big_d, complex_, rotations, scale, thermo_first
):
    rng = np.random.default_rng(seed)
    if rotations:
        d, fams = 1, [_rotation_family(rng, scale) for _ in range(size)]
    else:
        fams = [_random_family(rng, d, big_d, complex_, scale) for _ in range(size)]
    obs = [spin.sz(), spin.sx(), spin.SpinObservable("S_y", spin.SY)] if d == 3 else [
        spin.identity(d), spin.SpinObservable("diag", np.diag(np.arange(1.0, d + 1)))]
    stack = TransferSpectrum(fams)
    alone = [TransferSpectrum(f) for f in fams]
    for query in _queries(obs, thermo_first):
        expected = [_outcome(lambda s=s: query(s)) for s in alone]
        try:
            got = [_text(v) for v in query(stack)]
        except ERRORS as exc:
            # a stack takes each step for all its families: its error is one of theirs
            assert _text(exc) in expected
        else:
            assert got == expected


def test_stacked_builders_equal_the_per_family_builders():
    rng = np.random.default_rng(19)
    for big_d in (1, 2, 3):
        for complex_ in (False, True):
            fams = [_random_family(rng, 3, big_d, complex_, 1.0) for _ in range(5)]
            e = transfer(fams).matrix
            assert e.shape == (5, big_d**2, big_d**2) and not e.flags.writeable
            for obs in (spin.sz(), spin.sx2(), spin.SpinObservable("S_y", spin.SY)):
                stacked = _dressed_matrix(_matrix_stack(fams), obs)
                for k, fam in enumerate(fams):
                    assert stacked[k].tobytes() == _dressed_matrix(_matrix_stack(fam), obs).tobytes()
            for k, fam in enumerate(fams):
                assert e[k].tobytes() == transfer(fam).matrix.tobytes()


def test_stacked_ladder_powers_equal_matrix_power_per_family():
    gs = [0.0, 1e-3, 1e70, *np.linspace(-3.0, 3.0, 29).tolist()]
    powers = [*range(20), 39, 40, 199, 398, 400, 599, 600]
    for which in ("I", "II"):
        stack = TransferSpectrum(list(models.model_families(which, gs)))
        ladder = mps._PowerLadder(stack.scaled)
        stacked = ladder.stack(powers)
        assert stacked.shape == (len(gs), len(powers), 9, 9)
        for k, scaled in enumerate(stack.scaled):
            for j, n in enumerate(powers):
                assert stacked[k, j].tobytes() == np.linalg.matrix_power(scaled, n).tobytes()


def test_a_stack_has_a_family_axis_and_one_family_has_none():
    fams = list(models.model_families("I", [0.5, 1.0, 2.0]))
    stack = TransferSpectrum(fams)
    assert stack.mps == tuple(fams) and stack.e.shape == (3, 9, 9)
    assert len(stack.rho) == len(stack.projectors) == 3
    assert stack.dressed(spin.sz()).shape == stack.scaled.shape == (3, 9, 9)
    assert len(stack.two_point_sweep(spin.sz(), spin.sz(), range(1, 5))) == 3
    assert len(stack.thermo_one_point(spin.sz2())) == 3
    one = TransferSpectrum(fams[1])
    assert one.mps is fams[1] and one.e.shape == (9, 9) and isinstance(one.rho, float)
    assert isinstance(one.thermo_one_point(spin.sz2()), float)
    assert one.thermo_one_point(spin.sz2()) == stack.thermo_one_point(spin.sz2())[1]


@pytest.mark.parametrize("fams", [
    [],
    [models.model_I(0.5), models.aklt_family()],
    [models.model_I(0.5), MpsFamily(d=3, D=3, labels=("a", "b", "c"), matrices=dict(zip("abc", models.model_I(0.5).matrices.values())))],
    [models.model_I(0.5), MpsFamily(d=3, D=3, labels=spin.LABELS, matrices={k: m + 0j for k, m in models.model_I(0.5).matrices.items()})],
])
def test_a_stack_refuses_families_of_different_shapes(fams):
    with pytest.raises(ValueError, match="a stack needs at least one family, and its families must share labels, D and dtype"):
        TransferSpectrum(fams)


# ---------------------------------------------------------------------------
# the thermodynamic tail of a stack against the per-family loop it replaced


def _loop_projectors(eig, rel_tol=1e-9) -> list:
    """The dominant projectors of one (w, vl, vr), one group at a time: the loop the stacked projectors replaced."""
    vals, vl, vr = eig
    mags = np.abs(vals)
    top = float(mags.max())
    if top == 0.0:
        raise linalg.ZeroSpectrumError("all-zero spectrum: no dominant eigenvalue")
    w = vals.tolist()
    groups = []
    for i in np.flatnonzero(mags >= (1.0 - rel_tol) * top).tolist():
        for grp in groups:
            if abs(w[i] - w[grp[0]]) <= 1e-8 * top:
                grp.append(i)
                break
        else:
            groups.append([i])
    out = []
    for grp in groups:
        R, Lh = vr[:, grp], vl[:, grp].conj().T
        try:
            overlap_inv = np.linalg.inv(Lh @ R)
        except np.linalg.LinAlgError as exc:
            raise linalg.EigenConvergenceError(
                "defective dominant eigenvalue: left/right eigenvector overlap is singular") from exc
        out.append((w[grp[0]], R @ overlap_inv @ Lh))
    out.sort(key=lambda p: (-p[0].real, -p[0].imag))
    return out


def _loop_limits(projectors, middles, extra_powers) -> list:
    """One family's even-N limits, one separation and one term at a time on numpy scalars: the loop the
    (G, T, R) sums replaced.  An oscillating limit holds its error; an imaginary part beyond tolerance raises."""
    lmax = max(abs(lam) for lam, _ in projectors)
    terms, total_mult = [], 0.0
    for lam, p in projectors:
        s = lam / lmax
        total_mult += p.trace().real
        oscillates = abs(s.imag) > 1e-8 or abs(abs(s) - 1.0) > 1e-8 or abs(s.real**2 - 1.0) > 1e-8
        terms.append((p, s, oscillates, 1.0 if s.real > 0 else -1.0))
    coeffs = [(p @ middles).trace(axis1=1, axis2=2) for p, *_ in terms]
    out = []
    for i, extra_power in enumerate(extra_powers):
        value = 0.0 + 0.0j
        for (_, s, oscillates, sign), coeff in zip(terms, coeffs):
            if oscillates:
                if abs(coeff[i]) > 1e-10:
                    value = OscillatoryLimitError(f"dominant eigenvalue phase {s:.6f} does not converge along even N")
                    break
                continue
            value += sign**extra_power * coeff[i]
        else:
            value = mps._real_or_raise(value / total_mult, "thermodynamic limit")
        out.append(value)
    return out


def _family(d: int, mats: list) -> MpsFamily:
    labels = spin.LABELS if d == 3 else ("a",)
    return MpsFamily(d=d, D=len(mats[0]), labels=labels, matrices={lab: np.array(m) for lab, m in zip(labels, mats)})


def _rotation(theta: float) -> list:
    return [[cos(theta), -sin(theta)], [sin(theta), cos(theta)]]


ZERO2 = [[0.0, 0.0], [0.0, 0.0]]
CYCLE3 = [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
#: Stacks of one shape whose families mix every case of the even-N tail: real and complex eigenvectors,
#: degenerate dominant groups (multiplicity 2, 3, 4 and 9), a sign-weighted -rho, oscillating complex phases,
#: and one to three dominant groups per family.
TAIL_STACKS = {
    "d3 D2": {
        "unique, real vectors": _family(3, [[[0.9, 0.2], [0.1, 0.4]], [[0.3, 0.0], [0.0, 0.5]], [[0.0, 0.1], [0.2, 0.0]]]),
        "unique, complex vectors": _family(3, [[[1.0, 0.0], [0.0, 0.1]], [[0.2, -0.5], [0.5, 0.2]], [[0.0, 0.3], [0.0, 0.0]]]),
        "degenerate group": _family(3, [ZERO2, [[1.0, 0.0], [0.0, 1.0]], ZERO2]),
        "+rho and -rho": _family(3, [ZERO2, [[1.0, 0.0], [0.0, -1.0]], ZERO2]),
        "complex phase": _family(3, [ZERO2, _rotation(1.0), ZERO2]),
        "unique, sign-weighted": _family(3, [[[0.2, 0.7], [0.7, -0.3]], [[-0.6, 0.1], [0.0, 0.4]], [[0.1, 0.0], [0.3, 0.2]]]),
    },
    "d1 D3": {
        "one group of 9": _family(1, [np.eye(3).tolist()]),
        "three 3-fold phases": _family(1, [CYCLE3]),
        "unique": _family(1, [[[0.5, 0.2, 0.0], [0.1, 0.9, 0.3], [0.0, 0.4, 0.2]]]),
        "+rho and -rho, D = 3": _family(1, [[[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]]]),
    },
}
TAIL_OBS = {
    "d3 D2": [spin.sz(), spin.sx(), spin.sz2(), spin.sx2(), spin.SpinObservable("S_y", spin.SY)],
    "d1 D3": [spin.identity(1), spin.SpinObservable("2i", np.array([[2.0j]])), spin.SpinObservable("0", np.zeros((1, 1)))],
}


def test_the_tail_stacks_cover_every_case_of_the_tail():
    projs = [TransferSpectrum(f).projectors for fams in TAIL_STACKS.values() for f in fams.values()]
    assert {p.dtype.char for family in projs for _, p in family} == {"d", "D"}
    assert {len(family) for family in projs} == {1, 2, 3}
    assert {round(float(np.trace(p).real)) for family in projs for _, p in family} >= {1, 2, 3, 4, 9}
    phases = [lam / max(abs(x) for x, _ in family) for family in projs for lam, _ in family]
    assert any(abs(s.imag) > 1e-8 for s in phases)
    assert any(s.real < 0 and abs(s.imag) < 1e-8 for s in phases)


def _tail_queries(obs: list) -> list:
    calls = [lambda s, o=o: s.thermo_one_point(o) for o in obs]
    calls += [lambda s, a=a, b=b: s.two_point_sweep(a, b, range(1, 9)) for a in obs[:2] for b in obs[1:]]
    calls += [lambda s, a=a, r=r: s.two_point_sweep(a, obs[0], [r]) for a in obs for r in (1, 2, 5)]
    return calls


def _orders(names: list) -> list:
    return [names, names[::-1], names[1:] + names[:1], names[2:] + names[:2]]


@pytest.mark.parametrize("shape", list(TAIL_STACKS))
def test_stacked_tail_equals_the_per_family_spectra_and_raises_the_first_error_of_their_loop(shape):
    for names in _orders(list(TAIL_STACKS[shape])):
        fams = [TAIL_STACKS[shape][name] for name in names]
        for query in _tail_queries(TAIL_OBS[shape]):
            stack, alone = TransferSpectrum(fams), [TransferSpectrum(f) for f in fams]
            first = None
            for s in alone:
                try:
                    query(s)
                except ERRORS as exc:
                    first = _text(exc)
                    break
            try:
                got = [_text(v) for v in query(stack)]
            except ERRORS as exc:
                assert _text(exc) == first, names
            else:
                assert first is None
                assert got == [_text(query(s)) for s in alone]


def _reference_tail(fam: MpsFamily, obs1, obs2, rs) -> list:
    """A family's thermodynamic values from the loops above, on the spectrum's own middles.

    rs None gives the one-point value of obs1, which raises its OscillatoryLimitError.
    """
    s = TransferSpectrum(fam)
    projectors = _loop_projectors(linalg.eig_all(s.e))
    if rs is None:
        return mps._raise_first(_loop_limits(projectors, s.dressed(obs1)[None], [1]))[0]
    middles = np.array([s.dressed(obs1) @ np.linalg.matrix_power(s.scaled, r - 1) @ s.dressed(obs2) for r in rs])
    return _loop_limits(projectors, middles, [r + 1 for r in rs])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(sorted(TAIL_STACKS)),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=7),
    pair=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    r_min=st.integers(1, 4),
)
def test_stacked_tail_is_bit_for_bit_the_per_family_loop_it_replaced(shape, picks, pair, r_min):
    family_set, obs = list(TAIL_STACKS[shape].values()), TAIL_OBS[shape]
    fams = [family_set[i % len(family_set)] for i in picks]
    obs1, obs2 = obs[pair[0] % len(obs)], obs[pair[1] % len(obs)]
    rs = list(range(r_min, r_min + 8))
    stack = TransferSpectrum(fams)
    for e, projs in zip(stack.e, stack.projectors):
        assert _text(projs) == _text(_loop_projectors(linalg.eig_all(e)))
    for query, rs_ in ((lambda s: s.two_point_sweep(obs1, obs2, rs), rs), (lambda s: s.thermo_one_point(obs1), None)):
        expected = [_outcome(lambda f=f: _reference_tail(f, obs1, obs2, rs_)) for f in fams]
        errors = [e for e in expected if e.split(":")[0] in ("InconsistencyError", "OscillatoryLimitError")
                  and not e.startswith("[")]
        got = _outcome(lambda: query(stack))
        # a sweep keeps each oscillating limit in place and raises the first imaginary part beyond tolerance,
        # a one-point query raises the first error of either kind, family by family
        assert got == (errors[0] if errors else "[" + ", ".join(expected) + "]")


def test_a_zero_limit_is_a_positive_zero_in_every_family_of_a_stack():
    for shape, fams in TAIL_STACKS.items():
        zero = spin.SpinObservable("0", np.zeros((fams[next(iter(fams))].d,) * 2))
        stack = TransferSpectrum(list(fams.values()))
        values = stack.two_point_sweep(zero, zero, range(1, 4))
        assert {_text(v) for family in values for v in family if isinstance(v, float)} == {"0x0.0p+0"}


#: |c| lies at 1e-10 by hypot, which abs of a complex scalar is, and just above it by np.abs of an array
AT_THE_THRESHOLD = complex(float.fromhex("0x1.0db9c5ff0b08fp-35"), float.fromhex("0x1.a29df00c1afa0p-34"))
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0, float("inf"), float("nan"), 1e-10, 2e-12, 1e300]),
    st.floats(-4.0, 4.0, allow_subnormal=False),
)


def _projector_family(draw, n: int, complex_: bool) -> list:
    """One family's dominant projectors: a phase each (1, -1, a non-real unit or a non-unit one), any matrix."""
    out = []
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.sampled_from([1.0 + 0j, -1.0 + 0j, 1j, complex(cos(1.0), sin(1.0)), 0.5 + 0j]))
        p = np.array(draw(st.lists(ENTRIES, min_size=2 * n * n, max_size=2 * n * n))).reshape(2, n, n)
        out.append((lam, _joined(p) if complex_ else p[0]))
    return out


def _joined(parts: np.ndarray) -> np.ndarray:
    """parts[0] + i parts[1], with infinite and NaN parts kept apart."""
    out = np.empty(parts.shape[1:], dtype=complex)
    out.real, out.imag = parts
    return out


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n=st.integers(1, 2), n_families=st.integers(1, 4), n_r=st.integers(1, 3))
def test_limit_sums_equal_the_loop_on_adversarial_projectors_and_middles(data, n, n_families, n_r):
    # signed zeros, infinities, NaN, multiplicities other than powers of 2 and a coefficient at the
    # oscillation threshold: every limit of the (G, T, R) sums is the per-family loop's, errors included
    draw = data.draw
    complex_middles = draw(st.booleans())
    projectors = [_projector_family(draw, n, draw(st.booleans())) for _ in range(n_families)]
    # a projector's trace is its rank: a total multiplicity of 0, which the loop divides by, cannot arise
    assume(all(sum(p.trace().real for _, p in projs) != 0.0 for projs in projectors))
    middles = np.array(draw(st.lists(ENTRIES, min_size=2 * n_families * n_r * n * n, max_size=2 * n_families * n_r * n * n)))
    middles = middles.reshape(2, n_families, n_r, n, n)
    middles = _joined(middles) if complex_middles else middles[0]
    if draw(st.booleans()):
        middles = middles.astype(complex)
        middles[..., 0, 0] = AT_THE_THRESHOLD
    extra_powers = draw(st.lists(st.integers(1, 6), min_size=n_r, max_size=n_r))
    with np.errstate(all="ignore"):
        got = mps._EvenNLimit(projectors).values(middles, extra_powers)
        for k, (projs, family) in enumerate(zip(projectors, got)):
            try:
                expected = _text(_loop_limits(projs, middles[k], extra_powers))
            except mps.InconsistencyError as exc:
                # the loop raises at the first imaginary part beyond tolerance; the sums hold it in place
                expected = _text(exc)
                family = next(v for v in family if isinstance(v, mps.InconsistencyError))
            assert _text(family) == expected


@pytest.mark.parametrize("lam, p, middle, extra_power", [
    # -1 ** 1 * 0.0 is -0.0, which the loop's sum from 0.0 + 0.0j turns into +0.0
    (-1.0 + 0j, [[1.0]], [[0.0]], 1),
    # a complex coefficient (inf, 1e-100) from an overflowing product: the loop multiplied it by the complex
    # (1 + 0j), whose inf * 0 makes the sum, and so the limit, NaN
    (1.0 + 0j, [[1e200 + 1e-300j]], [[1e200 + 0j]], 2),
])
def test_limit_sums_keep_the_loop_arithmetic_where_it_shows(lam, p, middle, extra_power):
    projectors = [[(lam, np.array(p))]]
    middles = np.array([[middle]])
    with np.errstate(all="ignore"):
        expected = _loop_limits(projectors[0], middles[0], [extra_power])
        got = mps._EvenNLimit(projectors).values(middles, [extra_power])
    assert _text(got) == _text([expected])


def _singular_overlap_stack(monkeypatch, names) -> list[MpsFamily]:
    """The named families, with the overlap L^H R of the degenerate group, the one 4 x 4 overlap, made
    singular; the zero spectrum has no dominant eigenvalue."""
    real_inv = np.linalg.inv

    def inv(a):
        if a.shape[-1] == 4:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_inv(a)

    monkeypatch.setattr(np.linalg, "inv", inv)
    fams = {**TAIL_STACKS["d3 D2"], "zero spectrum": _family(3, [ZERO2, [[0.0, 1.0], [0.0, 0.0]], ZERO2])}
    return [fams[name] for name in names]


@pytest.mark.parametrize("names, error", [
    (["unique, real vectors", "zero spectrum", "degenerate group"], "ZeroSpectrumError"),
])
def test_stacked_projectors_raise_the_error_a_loop_over_the_families_meets_first(monkeypatch, names, error):
    stack = _singular_overlap_stack(monkeypatch, names)
    loop = _outcome(lambda: [TransferSpectrum(f).projectors for f in stack])
    assert loop.startswith(error)
    assert _outcome(lambda: TransferSpectrum(stack).projectors) == loop


def test_stacked_projectors_raise_a_zero_spectrum_before_a_singular_overlap(monkeypatch):
    # the dominant groups of every family are found before any overlap is inverted; a loop over the
    # families met the degenerate group's EigenConvergenceError first
    stack = _singular_overlap_stack(monkeypatch, ["unique, real vectors", "degenerate group", "zero spectrum"])
    with pytest.raises(linalg.ZeroSpectrumError) as exc:
        TransferSpectrum(stack).projectors
    assert str(exc.value) == "all-zero spectrum: no dominant eigenvalue"
