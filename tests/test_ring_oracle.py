"""Ring correlators from the transfer operator equal the brute-force amplitude oracle at N <= 8."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpschain.mps import MpsFamily, amplitudes, ring_one_point, ring_two_point
from mpschain.spin import SpinObservable


@st.composite
def rings(draw):
    """A random real or complex family with d in {2, 3} and D <= 3, a ring size and two Hermitian observables."""
    d = draw(st.sampled_from((2, 3)))
    D = draw(st.integers(1, 3))
    n_sites = draw(st.integers(2, 8))
    is_complex = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(shape):
        m = rng.standard_normal(shape)
        return m + 1j * rng.standard_normal(shape) if is_complex else m

    labels = tuple(str(i) for i in range(d))
    fam = MpsFamily(d=d, D=D, labels=labels, matrices={lab: sample((D, D)) for lab in labels})
    observables = []
    for name in ("O1", "O2"):
        m = sample((d, d))
        observables.append(SpinObservable(name, (m + m.conj().T) / 2))
    return fam, n_sites, observables


def _expectation(psi: np.ndarray, ops: dict[int, np.ndarray]) -> float:
    """<psi| O_site ... |psi> / <psi|psi> for psi a (d,) * N tensor and ops mapping a site axis to its matrix."""
    out = psi
    for axis, o in ops.items():
        out = np.moveaxis(np.tensordot(o, out, axes=(1, axis)), 0, axis)
    value = np.vdot(psi, out) / np.vdot(psi, psi)
    assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))
    return value.real


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(rings())
def test_ring_correlators_equal_the_amplitude_oracle(ring):
    fam, n_sites, (o1, o2) = ring
    # amplitudes lists the strings in product order, site 1 the most significant digit
    psi = np.array(list(amplitudes(fam, n_sites).values())).reshape((fam.d,) * n_sites)
    close = dict(rel=1e-9, abs=1e-12)
    for o in (o1, o2):
        assert ring_one_point(fam, o, n_sites) == pytest.approx(_expectation(psi, {0: o.matrix}), **close)
    for r in range(1, n_sites):
        want = _expectation(psi, {0: o1.matrix, r: o2.matrix})
        assert ring_two_point(fam, o1, o2, r, n_sites) == pytest.approx(want, **close)
