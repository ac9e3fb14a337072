"""Gauge invariance: A_i -> X A_i X^-1 leaves every ring correlator and kernel unchanged."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpschain import parent, spin
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
