import json
import warnings
from math import log10, sqrt

import numpy as np
import pytest

from mpschain import linalg, models, mps, parent, spin
from mpschain.mps import (
    CapExceededError,
    DegenerateNormError,
    MpsFamily,
    NormOverflowError,
    OscillatoryLimitError,
    TransferSpectrum,
    _real_or_raise,
    amplitudes,
    amplitudes_vector,
    dressed_transfer,
    ring_norm_sq,
    ring_one_point,
    ring_two_point,
    thermo_one_point,
    thermo_two_point,
    transfer,
)

RNG = np.random.default_rng(5)


def _random_complex_family(seed=11, D=3):
    rng = np.random.default_rng(seed)
    mats = {lab: rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D)) for lab in spin.LABELS}
    return MpsFamily(d=3, D=D, labels=spin.LABELS, matrices=mats)


FAMILIES = {
    "model_I": models.model_I(0.8),
    "model_II": models.model_II(1.3),
    "random_complex": _random_complex_family(),
}


def _v_and_u(fam):
    a1 = fam.matrices["1"]
    am = fam.matrices["-1"]
    v = np.kron(a1, a1) + np.kron(am, am)
    u = np.kron(a1, a1) - np.kron(am, am)
    return v, u


# ---------------------------------------------------------------------------
# family construction and serialization


def test_family_validation():
    good = models.model_II(1.0)
    assert good.d == 3 and good.D == 3
    with pytest.raises(ValueError):
        MpsFamily(d=3, D=3, labels=("1", "0"), matrices=dict(good.matrices))
    with pytest.raises(ValueError):
        MpsFamily(d=2, D=3, labels=("a", "a"), matrices={"a": np.eye(3)})
    with pytest.raises(ValueError):
        MpsFamily(d=1, D=2, labels=("a",), matrices={"a": np.eye(3)})


def test_family_matrices_immutable():
    fam = models.model_II(1.0)
    with pytest.raises(ValueError):
        fam.matrices["0"][0, 0] = 99.0


def test_json_round_trip(tmp_path):
    fam = models.general_family(0.7, 1.3, 0.4)
    path = tmp_path / "fam.json"
    fam.save(path)
    back = MpsFamily.load(path)
    for lab in fam.labels:
        assert np.array_equal(back.matrices[lab], fam.matrices[lab])
    assert back.params == fam.params
    # identical re-dump, byte for byte
    text1 = path.read_text()
    back.save(path)
    assert path.read_text() == text1
    doc = json.loads(text1)
    assert set(doc) == {"d", "D", "labels", "matrices", "params"}


def test_json_real_family_text_is_pinned():
    fam = MpsFamily(d=1, D=1, labels=("x",), matrices={"x": np.array([[-0.0]])}, params={"g": 0.5})
    assert json.dumps(fam.to_json_dict(), sort_keys=True) == (
        '{"D": 1, "d": 1, "labels": ["x"], "matrices": {"x": [[-0.0]]}, "params": {"g": 0.5}}'
    )


def test_json_round_trip_complex_family(tmp_path):
    fam = _random_complex_family(D=2)
    signed = {lab: fam.matrices[lab].copy() for lab in fam.labels}
    signed["1"][0, 0] = complex(-0.0, -0.0)
    signed["0"][1, 1] = complex(0.0, -0.0)
    fam = MpsFamily(d=3, D=2, labels=fam.labels, matrices=signed)
    path = tmp_path / "fam.json"
    fam.save(path)
    doc = json.loads(path.read_text())
    assert doc["matrices"]["1"][0][0] == [-0.0, -0.0]
    back = MpsFamily.load(path)
    for lab in fam.labels:
        assert back.matrices[lab].dtype == np.complex128
        assert back.matrices[lab].tobytes() == fam.matrices[lab].tobytes()
    text1 = path.read_text()
    back.save(path)
    assert path.read_text() == text1


# ---------------------------------------------------------------------------
# transfer operators


def test_transfer_model_ii_structure():
    g = 1.3
    fam = models.model_II(g)
    v, _ = _v_and_u(fam)
    assert np.allclose(transfer(fam).matrix, v + g * g * np.eye(9), atol=1e-14)


def test_transfer_zero_family():
    fam = MpsFamily(d=2, D=2, labels=("a", "b"), matrices={"a": np.zeros((2, 2)), "b": np.zeros((2, 2))})
    assert not transfer(fam).matrix.any()


def test_transfer_model_i_g0_rank():
    fam0 = models.model_I(0.0)
    v, _ = _v_and_u(fam0)
    e = transfer(fam0).matrix
    assert np.allclose(e, v, atol=1e-14)
    assert np.linalg.matrix_rank(e) == np.linalg.matrix_rank(v)


def _kron_transfer(fam):
    mats = fam.matrix_stack()
    return sum(np.kron(m.conj(), m) for m in mats)


def _kron_dressed(fam, obs):
    mats, o = fam.matrix_stack(), obs.matrix
    return sum(o[i, j] * np.kron(mats[i].conj(), mats[j]) for i in range(fam.d) for j in range(fam.d))


@pytest.mark.parametrize("name", [*FAMILIES, "model_I_g0"])
def test_transfer_builders_equal_the_kron_sums(name):
    # the broadcast builders form the same products in the same order as np.kron,
    # so every entry matches bit for bit, signed zeros included
    fam = models.model_I(0.0) if name == "model_I_g0" else FAMILIES[name]
    assert transfer(fam).matrix.tobytes() == _kron_transfer(fam).tobytes()
    for obs in (spin.sz(), spin.sx(), spin.sz2(), spin.SpinObservable("S_y", spin.SY), spin.zero()):
        assert dressed_transfer(fam, obs).matrix.tobytes() == _kron_dressed(fam, obs).tobytes()


def test_dressed_identity_is_plain():
    fam = models.model_I(0.8)
    assert np.allclose(dressed_transfer(fam, spin.identity()).matrix, transfer(fam).matrix)


def test_dressed_model_ii_sz_and_sz2():
    fam = models.model_II(0.9)
    v, u = _v_and_u(fam)
    assert np.allclose(dressed_transfer(fam, spin.sz()).matrix, u, atol=1e-14)
    assert np.allclose(dressed_transfer(fam, spin.sz2()).matrix, v, atol=1e-14)


def test_dressed_dimension_mismatch():
    with pytest.raises(ValueError):
        dressed_transfer(models.model_II(1.0), spin.identity(2))


# ---------------------------------------------------------------------------
# ring quantities


def test_ring_norm_model_ii_values():
    assert ring_norm_sq(models.model_II(0.0), 4) == pytest.approx(12.0, abs=1e-12)
    assert ring_norm_sq(models.model_II(1.0), 2) == pytest.approx(17.0, abs=1e-12)


def test_ring_norm_identity_transfer():
    fam = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": np.eye(2)})
    assert ring_norm_sq(fam, 5) == pytest.approx(4.0)


def test_ring_norm_sq_overflow_is_named_and_silent():
    fam = models.model_I(2.0)
    e = transfer(fam).matrix
    lam1 = (3 * 4.0 + sqrt(4.0**2 + 8.0)) / 2  # unique dominant eigenvalue of model I at g = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ring_norm_sq(fam, 300) == np.trace(np.linalg.matrix_power(e, 300))
        for n in (600, 2000):
            with pytest.raises(NormOverflowError) as info:
                ring_norm_sq(fam, n)
            assert isinstance(info.value, OverflowError)
            assert info.value.log10 == pytest.approx(n * log10(lam1), abs=1e-9)
            assert "log10 tr(E^N) = N log10 rho + log10 tr((E/rho)^N)" in str(info.value)
    assert round(info.value.log10) == 1854


def test_ring_one_point_identity():
    assert ring_one_point(models.model_I(0.7), spin.identity(), 6) == pytest.approx(1.0, abs=1e-12)


def test_ring_one_point_sz_machine_zero():
    for fam in (models.model_I(0.6), models.model_II(1.4)):
        for n in (4, 6, 8):
            assert abs(ring_one_point(fam, spin.sz(), n)) < 1e-12


def test_ring_one_point_sz2_large_ring():
    val = ring_one_point(models.model_I(1.0), spin.sz2(), 400)
    assert val == pytest.approx(4.0 / 9.0, abs=1e-8)


def test_ring_two_point_identity():
    assert ring_two_point(models.model_II(0.5), spin.identity(), spin.identity(), 2, 6) == pytest.approx(1.0)


def test_ring_two_point_model_i_adjacent():
    val = ring_two_point(models.model_I(1.0), spin.sz(), spin.sz(), 1, 400)
    assert val == pytest.approx(-4.0 / 27.0, abs=1e-8)


def test_ring_two_point_model_ii_sz2_distance_independent():
    fam = models.model_II(1.0)
    vals = [ring_two_point(fam, spin.sz2(), spin.sz2(), r, 8) for r in (1, 2, 3)]
    assert np.allclose(vals, vals[0], atol=1e-12)


def test_ring_against_amplitude_oracle():
    # direct expectation values from the amplitude map, N <= 8
    fam = models.model_I(0.7)
    n = 6
    psi = amplitudes_vector(fam, n)
    norm = psi @ psi
    sz_diag = np.array([1.0, 0.0, -1.0])
    digits = np.array(np.unravel_index(np.arange(3**n), (3,) * n)).T
    m_site = sz_diag[digits]
    one = float(psi @ (m_site[:, 0] ** 2 * psi)) / norm
    assert ring_one_point(fam, spin.sz2(), n) == pytest.approx(one, abs=1e-10)
    two = float(psi @ (m_site[:, 0] * m_site[:, 2] * psi)) / norm
    assert ring_two_point(fam, spin.sz(), spin.sz(), 2, n) == pytest.approx(two, abs=1e-10)


def test_ring_off_diagonal_against_amplitude_oracle():
    # S_x flips states, so this exercises the non-diagonal dressing
    for fam in (models.model_I(0.7), models.model_II(1.2)):
        for n in (4, 6):
            psi = amplitudes_vector(fam, n).reshape((3,) * n)
            norm = float((psi * psi).sum())
            sx = spin.SX
            for site_b, sep in ((1, 1), (2, 2)):
                moved = np.moveaxis(psi, (0, site_b), (0, 1)).reshape(3, 3, -1)
                acted = np.einsum("ij,kl,jlw->ikw", sx, sx, moved)
                direct = float((moved * acted).sum()) / norm
                assert ring_two_point(fam, spin.sx(), spin.sx(), sep, n) == pytest.approx(
                    direct, abs=1e-10
                )


def test_degenerate_norm_error():
    fam = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": np.array([[0.0, 1.0], [0.0, 0.0]])})
    with pytest.raises(DegenerateNormError):
        ring_one_point(fam, spin.identity(1), 4)


def test_zero_radius_family_raises_in_argument_order():
    fam = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": np.array([[0.0, 1.0], [0.0, 0.0]])})
    one, two = spin.identity(1), spin.identity(2)
    with pytest.raises(ValueError, match="separation"):
        thermo_two_point(fam, one, one, 0)
    with pytest.raises(ValueError, match="separation"):
        ring_two_point(fam, one, one, 4, 4)
    with pytest.raises(ValueError, match="observable dimension"):
        ring_two_point(fam, one, two, 1, 4)
    with pytest.raises(ValueError, match="n_sites"):
        ring_one_point(fam, two, 1)
    with pytest.raises(DegenerateNormError):
        thermo_one_point(fam, two)
    with pytest.raises(DegenerateNormError):
        thermo_two_point(fam, one, two, 1)
    assert ring_norm_sq(fam, 4) == 0.0


def test_real_or_raise():
    assert _real_or_raise(1.0 + 1e-14j, "x") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _real_or_raise(1.0 + 1e-3j, "x")


# ---------------------------------------------------------------------------
# thermodynamic limits


def test_thermo_one_point_model_i_closed_forms():
    for g in (0.3, 1.0, 1.7):
        cf = models.closed_form_correlators_I(g)
        fam = models.model_I(g)
        assert thermo_one_point(fam, spin.sz2()) == pytest.approx(cf.sz2, abs=1e-10)
        assert thermo_one_point(fam, spin.sx2()) == pytest.approx(cf.sx2, abs=1e-10)


def test_thermo_two_point_identity():
    fam = models.model_I(0.9)
    for r in (1, 2, 5):
        assert thermo_two_point(fam, spin.identity(), spin.identity(), r) == pytest.approx(1.0, abs=1e-10)


def test_thermo_two_point_decay_law():
    cf = models.closed_form_correlators_I(1.0)
    fam = models.model_I(1.0)
    for sep in (1, 3, 6):
        expected = cf.g_par * np.exp(-(sep - 1) / cf.xi_par)
        assert thermo_two_point(fam, spin.sz(), spin.sz(), sep) == pytest.approx(expected, abs=1e-10)


def test_thermo_two_point_degenerate_dominant_pair():
    # at g = 0 the dominant pair is +-sqrt(2); the even-N limit is still defined
    fam0 = models.model_I(0.0)
    assert thermo_two_point(fam0, spin.sx(), spin.sx(), 2) == pytest.approx(0.0, abs=1e-12)
    assert thermo_two_point(fam0, spin.sz(), spin.sz(), 1) == pytest.approx(-0.5, abs=1e-10)
    assert abs(thermo_two_point(fam0, spin.sz(), spin.sz(), 2)) < 1e-10


def test_thermo_oscillatory_flagged():
    # a pure rotation family has dominant phases e^{+-2i theta}: no even-N limit
    th = 1.0
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    fam = MpsFamily(d=1, D=2, labels=("x",), matrices={"x": rot})
    with pytest.raises(OscillatoryLimitError):
        thermo_two_point(fam, spin.identity(1), spin.identity(1), 2)


# ---------------------------------------------------------------------------
# one transfer spectrum per family


@pytest.mark.parametrize("name", list(FAMILIES))
def test_transfer_spectrum_methods_equal_module_functions(name):
    fam = FAMILIES[name]
    spectrum = TransferSpectrum(fam)
    observables = (spin.sz(), spin.sx(), spin.sz2(), spin.SpinObservable("S_y", spin.SY))
    for n in (2, 9, 40):
        assert spectrum.ring_norm_sq(n) == ring_norm_sq(fam, n)
    for obs in observables:
        assert spectrum.thermo_one_point(obs) == thermo_one_point(fam, obs)
        for n in (2, 7, 40):
            assert spectrum.ring_one_point(obs, n) == ring_one_point(fam, obs, n)
        for obs2 in observables:
            for r in (1, 2, 5, 12):
                assert spectrum.thermo_two_point(obs, obs2, r) == thermo_two_point(fam, obs, obs2, r)
                for n in (r + 1, 16, 40):
                    assert spectrum.ring_two_point(obs, obs2, r, n) == ring_two_point(fam, obs, obs2, r, n)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_transfer_spectrum_builds_each_piece_once(monkeypatch):
    counts = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (mps, "transfer"), (mps, "dressed_transfer"), (linalg, "spectral_radius"), (linalg, "dominant_projectors"),
    )}
    spectrum = TransferSpectrum(models.model_I(1.0))
    for r in range(1, 13):
        spectrum.thermo_two_point(spin.sz(), spin.sz(), r)  # a fresh observable object on every call
        spectrum.ring_two_point(spin.sz(), spin.sz(), r, 20)
    spectrum.thermo_one_point(spin.sz2())
    assert {name: len(calls) for name, calls in counts.items()} == {
        "transfer": 1, "dressed_transfer": 2, "spectral_radius": 1, "dominant_projectors": 1,
    }


def test_dressed_operators_are_keyed_by_content():
    spectrum = TransferSpectrum(models.model_I(0.8))
    first = spectrum.dressed(spin.SpinObservable("O", spin.SZ))
    assert spectrum.dressed(spin.SpinObservable("O", spin.SZ.copy())) is first
    other = spectrum.dressed(spin.SpinObservable("O", spin.SX))
    assert np.array_equal(other, dressed_transfer(spectrum.mps, spin.sx()).matrix / spectrum.rho)
    assert not np.array_equal(other, first)


# ---------------------------------------------------------------------------
# amplitudes


def test_amplitudes_model_ii_two_sites():
    g = 0.8
    amps = amplitudes(models.model_II(g), 2)
    assert amps[("0", "0")] == pytest.approx(3 * g * g, abs=1e-14)
    assert amps[("1", "1")] == pytest.approx(0.0, abs=1e-14)


def test_amplitudes_cyclic_invariance_exact():
    fam = MpsFamily(
        d=2, D=3, labels=("a", "b"),
        matrices={"a": RNG.standard_normal((3, 3)), "b": RNG.standard_normal((3, 3))},
    )
    amps = amplitudes(fam, 5)
    for cfg, val in amps.items():
        shifted = cfg[1:] + cfg[:1]
        assert amps[shifted] == val or abs(amps[shifted] - val) < 1e-15 * max(1.0, abs(val))


def test_amplitudes_cap():
    with pytest.raises(CapExceededError):
        amplitudes(models.model_II(1.0), 11)


@pytest.mark.parametrize(
    "build",
    [
        lambda: parent.word_matrix(models.model_II(1.0), 3, cap=26),
        lambda: parent.reduced_density(models.model_II(1.0), 3, 6, cap=26),
    ],
    ids=["word_matrix", "reduced_density"],
)
def test_word_enumerations_respect_cap(build):
    with pytest.raises(CapExceededError):
        build()


@pytest.mark.parametrize("dtype", [float, complex])
def test_amplitudes_vector_is_the_amplitude_map(dtype):
    rng = np.random.default_rng(17)
    mats = {lab: rng.standard_normal((3, 3)) for lab in ("a", "b", "c")}
    if dtype is complex:
        mats = {lab: m + 1j * rng.standard_normal((3, 3)) for lab, m in mats.items()}
    fam = MpsFamily(d=3, D=3, labels=("a", "b", "c"), matrices=mats)
    vec = amplitudes_vector(fam, 5)
    assert vec.dtype == np.dtype(dtype)
    assert np.array_equal(vec, np.array(list(amplitudes(fam, 5).values())))


def test_gauge_invariance_of_correlators():
    fam = models.model_I(0.8)
    x = RNG.standard_normal((3, 3)) + 2 * np.eye(3)
    xinv = np.linalg.inv(x)
    s = -1.7
    gauged = MpsFamily(
        d=3, D=3, labels=fam.labels,
        matrices={lab: s * x @ fam.matrices[lab] @ xinv for lab in fam.labels},
    )
    n = 6
    for obs in (spin.sz2(), spin.sx2()):
        assert ring_one_point(gauged, obs, n) == pytest.approx(ring_one_point(fam, obs, n), abs=1e-9)
    assert ring_two_point(gauged, spin.sz(), spin.sz(), 2, n) == pytest.approx(
        ring_two_point(fam, spin.sz(), spin.sz(), 2, n), abs=1e-9
    )


def test_single_parameter_reduction():
    # (g, h, c) family and its (g/sqrt(c), h/sqrt(c), 1) reduction share all
    # normalized correlators
    g, c = 0.9, 2.3
    for kappa in (1.0, sqrt(2)):
        fam = models.general_family(g, kappa * g, c)
        red = models.general_family(g / sqrt(c), kappa * g / sqrt(c), 1.0)
        n = 6
        for obs in (spin.sz2(), spin.sx2()):
            assert ring_one_point(fam, obs, n) == pytest.approx(ring_one_point(red, obs, n), abs=1e-9)
        for r in (1, 2):
            assert ring_two_point(fam, spin.sz(), spin.sz(), r, n) == pytest.approx(
                ring_two_point(red, spin.sz(), spin.sz(), r, n), abs=1e-9
            )
