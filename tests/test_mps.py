import json
from math import sqrt

import numpy as np
import pytest

from mpschain import models, parent, spin
from mpschain.mps import (
    CapExceededError,
    DegenerateNormError,
    MpsFamily,
    OscillatoryLimitError,
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
