import numpy as np
import pytest

from mpschain import models, spin, symmetry, verify
from mpschain.mps import MpsFamily, amplitudes


def test_generator_condition_both_models():
    for fam in (models.model_I(0.7), models.model_II(1.3)):
        assert verify.z_rotation_residual(fam) <= 1e-12


def test_generator_condition_zero_generators():
    fam = models.model_I(0.5)
    assert symmetry.check_generator_condition(fam, np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


def test_z_invariance_implies_balanced_amplitudes():
    # cross-module property: zero generator residual forces amplitudes with
    # unbalanced +-1 counts to vanish
    for fam in (models.model_I(0.8), models.model_II(1.2)):
        assert verify.z_rotation_residual(fam) <= 1e-12
        for n in (4, 6):
            amps = amplitudes(fam, n)
            for cfg, val in amps.items():
                total = sum(int(lab) for lab in cfg)
                if total != 0:
                    assert abs(val) < 1e-14


def test_parity_intertwiner_antidiagonal():
    fam = models.general_family(0.8, 0.8 * np.sqrt(2), 1.0)
    assert verify.parity_deviation(fam, np.fliplr(np.eye(3)) / np.sqrt(3)) < 1e-9


def test_spin_flip_intertwiner_with_c():
    c = 1.7
    omega = np.zeros((3, 3))
    omega[0, 2] = 1.0
    omega[1, 1] = c
    omega[2, 0] = c * c
    omega /= np.linalg.norm(omega)
    assert verify.spin_flip_deviation(models.general_family(0.6, 0.6, c), omega) < 1e-9


def test_self_intertwiner_is_identity():
    fam = models.model_II(1.0)
    res = symmetry.find_intertwiner(fam, dict(fam.matrices))
    assert res.found
    assert np.max(np.abs(res.matrix - np.eye(3) / np.sqrt(3))) < 1e-9


def test_intertwiner_conjugation_residual_bound():
    fam = models.general_family(1.1, 1.1, 1.0)
    target = {"1": fam.matrices["-1"], "0": fam.matrices["0"], "-1": fam.matrices["1"]}
    res = symmetry.find_intertwiner(fam, target)
    x = res.matrix
    xinv = np.linalg.inv(x)
    worst = max(
        np.linalg.norm(x @ fam.matrices[lab] @ xinv - target[lab]) for lab in fam.labels
    )
    assert worst <= 10 * 1e-10 * res.condition


def test_intertwiner_basis_independence():
    rng = np.random.default_rng(3)
    base = models.general_family(0.9, 0.9 * np.sqrt(2), 1.0)
    x = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    xinv = np.linalg.inv(x)
    conj = MpsFamily(
        d=3, D=3, labels=base.labels,
        matrices={lab: x @ base.matrices[lab] @ xinv for lab in base.labels},
    )
    res = symmetry.find_intertwiner(conj, {lab: conj.matrices[lab].T for lab in conj.labels})
    assert res.found
    assert res.residual < 1e-8


def test_intertwiner_noninvertible_commutant():
    fam = MpsFamily(d=1, D=2, labels=("a",), matrices={"a": np.diag([1.0, 2.0])})
    res = symmetry.find_intertwiner(fam, {"a": np.diag([1.0, 3.0])})
    assert not res.found
    assert "non-invertible" in res.diagnosis


def test_intertwiner_empty_kernel():
    fam = MpsFamily(d=1, D=2, labels=("a",), matrices={"a": np.eye(2)})
    res = symmetry.find_intertwiner(fam, {"a": 2.0 * np.eye(2)})
    assert not res.found


def test_spherical_tensor_aklt():
    gens = spin.spin_generators(0.5)
    assert symmetry.spherical_tensor_residual(models.aklt_family(), gens) < 1e-10


def test_spherical_tensor_model_i_broken():
    gens = spin.spin_generators(1.0)
    assert symmetry.spherical_tensor_residual(models.model_I(1.0), gens) > 0.1


def test_spherical_tensor_zero_family():
    fam = MpsFamily(
        d=3, D=2, labels=("1", "0", "-1"),
        matrices={lab: np.zeros((2, 2)) for lab in ("1", "0", "-1")},
    )
    assert symmetry.spherical_tensor_residual(fam, spin.spin_generators(0.5)) == 0.0


def test_spherical_tensor_rejects_bad_bond_rep():
    bad = (np.eye(2), np.eye(2), np.eye(2))
    with pytest.raises(ValueError):
        symmetry.spherical_tensor_residual(models.aklt_family(), bad)
