"""A stacked TransferSpectrum answers for each family bit for bit as a spectrum built from it alone.

The g-sweep of `mpschain correlate` builds one stack of all its families; its
values are compared, by their bytes, with per-family TransferSpectrum queries.
"""

import argparse

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpschain import cli, models, mps, spin
from mpschain.mps import MpsFamily, OscillatoryLimitError, TransferSpectrum, dressed_transfer, transfer

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
        (row["g"], row["r"], row["value"], row["flag"]) for row in cli._correlate_rows(args, families, g_values)
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
        lambda s: s.ring_norm_sq(6),
        lambda s: s.ring_one_point(o1, 8),
        lambda s: s.two_point_sweep(o1, o2, range(1, 8), 8),
        lambda s: s.ring_two_point(o2, o1, 3, 10),
    ]
    thermo = [
        lambda s: s.thermo_one_point(o2),
        lambda s: s.two_point_sweep(o1, o2, range(1, 7)),
        lambda s: s.thermo_two_point(o1, o1, 2),
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
                stacked = dressed_transfer(fams, obs).matrix
                for k, fam in enumerate(fams):
                    assert stacked[k].tobytes() == dressed_transfer(fam, obs).matrix.tobytes()
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
