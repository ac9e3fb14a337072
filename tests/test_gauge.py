"""Invariances of an MPS family.

A gauge change A_i -> X A_i X^-1 leaves every ring correlator and kernel
unchanged; a common scale A_i -> s A_i leaves the parent kernels unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpschain import ed, parent, spin
from mpschain.mps import MpsFamily, ring_one_point, ring_two_point

N_SITES = 6


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def gauged_families(draw):
    d = draw(st.sampled_from((2, 3)))
    D = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(str(i) for i in range(d))
    mats = {lab: _complex(rng, (D, D)) for lab in labels}
    q, _ = np.linalg.qr(_complex(rng, (D, D)))
    s = draw(st.lists(st.floats(0.5, 2.0), min_size=D, max_size=D))
    x = q @ np.diag(s)
    x_inv = np.linalg.inv(x)
    fam = MpsFamily(d=d, D=D, labels=labels, matrices=mats)
    gauged = MpsFamily(d=d, D=D, labels=labels, matrices={lab: x @ m @ x_inv for lab, m in mats.items()})
    return fam, gauged


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(gauged_families())
def test_gauge_change_leaves_correlators_and_kernel_unchanged(pair):
    fam, gauged = pair
    sz, sp, sm = spin.spin_generators((fam.d - 1) / 2)
    obs = (spin.SpinObservable("S_z", sz), spin.SpinObservable("S_x", (sp + sm) / 2))
    close = dict(rel=1e-9, abs=1e-12)
    for o in obs:
        assert ring_one_point(gauged, o, N_SITES) == pytest.approx(ring_one_point(fam, o, N_SITES), **close)
    for o1 in obs:
        for o2 in obs:
            for r in range(1, N_SITES):
                want = ring_two_point(fam, o1, o2, r, N_SITES)
                assert ring_two_point(gauged, o1, o2, r, N_SITES) == pytest.approx(want, **close)
    assert parent.ground_null_space(gauged, 2).dim == parent.ground_null_space(fam, 2).dim


@st.composite
def scaled_families(draw):
    d = draw(st.sampled_from((2, 3)))
    D = draw(st.integers(1, d - 1))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = tuple(str(i) for i in range(d))
    mats = {lab: _complex(rng, (D, D)) if complex_ else rng.standard_normal((D, D)) for lab in labels}
    s = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from((1, -1)))
    if complex_:
        s *= np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
    fam = MpsFamily(d=d, D=D, labels=labels, matrices=mats)
    scaled = MpsFamily(d=d, D=D, labels=labels, matrices={lab: s * m for lab, m in mats.items()})
    return fam, scaled, draw(st.integers(3, 6))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(scaled_families())
def test_common_scale_leaves_the_kernels_unchanged(case):
    fam, scaled, n_sites = case
    basis = parent.ground_null_space(fam, 2)
    scaled_basis = parent.ground_null_space(scaled, 2)
    assert scaled_basis.dim == basis.dim > 0
    want = ed.kernel_dimension(ed.ChainOperator(n_sites, parent.local_hamiltonian(basis)))
    assert ed.kernel_dimension(ed.ChainOperator(n_sites, parent.local_hamiltonian(scaled_basis))) == want


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("k, dim", [(1, 0), (2, 2), (3, 6), (4, 14)])
def test_gauge_change_keeps_vanishing_words_null(complex_, seed, k, dim):
    # of the words of sigma+ and sigma-, only the alternating ones survive.  Gauged, the others come
    # out at roundoff, which the balanced rank cut must not raise to order one (it counted kernels
    # 0 or 1 at k = 2 and 4 at k = 3)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(_complex(rng, (2, 2)) if complex_ else rng.standard_normal((2, 2)))
    x = q @ np.diag([1.0, 10.0])
    x_inv = np.linalg.inv(x)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    fam = MpsFamily(d=2, D=2, labels=("+", "-"), matrices={"+": sp, "-": sp.T})
    gauged = MpsFamily(d=2, D=2, labels=("+", "-"), matrices={"+": x @ sp @ x_inv, "-": x @ sp.T @ x_inv})
    assert parent.ground_null_space(gauged, k).dim == parent.ground_null_space(fam, k).dim == dim
