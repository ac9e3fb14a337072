"""The word builder mps._word_columns: bit for bit against the einsum contraction it replaced, and its cap."""

import numpy as np
import pytest

from mpschain import models, mps, parent
from mpschain.mps import WORD_CAP, CapExceededError, MpsFamily, amplitudes_vector

KINDS = ("real", "complex", "signed_zero", "complex_signed_zero", "batched", "batched_complex")


def _einsum_reference(mats: np.ndarray, k: int) -> np.ndarray:
    """The (..., d^k, D, D) words by one einsum per site, the new site the least significant digit."""
    big_d = mats.shape[-1]
    words = np.eye(big_d, dtype=mats.dtype)[None]
    for _ in range(k):
        words = np.einsum("...wab,...ibc->...wiac", words, mats).reshape(mats.shape[:-3] + (-1, big_d, big_d))
    return words


def _stack(kind: str, d: int, big_d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    shape = ((3,) if kind.startswith("batched") else ()) + (d, big_d, big_d)
    mats = rng.standard_normal(shape)
    if "complex" in kind:
        mats = mats + 1j * rng.standard_normal(shape)
    if "signed_zero" in kind:
        # about a third of the parts +0.0 and a third -0.0, so zero products of either sign meet in every sum
        for part in (mats.real, mats.imag) if mats.dtype.kind == "c" else (mats,):
            pick = rng.integers(0, 3, shape)
            part[pick == 0] = 0.0
            part[pick == 1] = -0.0
    return mats


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
def test_words_equal_the_einsum_bit_for_bit(kind, d):
    for big_d in (1, 2, 3, 4):
        for k in range(1, 9):
            mats = _stack(kind, d, big_d, seed=100 * d + 10 * big_d + k)
            if d**k > WORD_CAP:
                with pytest.raises(CapExceededError):
                    mps._word_columns(mats, k, "amplitude")
                continue
            want = _einsum_reference(mats, k)
            got = mps._word_columns(mats, k, "word-matrix")
            columns = want.reshape(mats.shape[:-3] + (d**k, big_d * big_d)).swapaxes(-1, -2)
            assert _same_bits(got, columns), (kind, d, big_d, k)
            # the (..., d^k, D, D) stack of words that reduced_density reads
            assert _same_bits(got.swapaxes(-1, -2).reshape(want.shape), want), (kind, d, big_d, k)


@pytest.mark.parametrize("build", [lambda: models.model_I(0.7), lambda: models.model_II(1.3)], ids=["I", "II"])
def test_amplitudes_at_the_cap_equal_the_trace_of_the_einsum_words(build):
    fam = build()
    assert fam.d**10 == WORD_CAP
    want = np.trace(_einsum_reference(fam.matrix_stack(), 10), axis1=1, axis2=2)
    assert _same_bits(amplitudes_vector(fam, 10), want)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("dtype,big_d", [(float, 7), (float, 8), (float, 9), (complex, 3), (complex, 4), (complex, 5)])
def test_amplitude_traces_sum_as_np_trace_on_both_sides_of_its_pairwise_cut(d, dtype, big_d):
    # np.trace sums a diagonal of 8 or more floats pairwise, not in order: D >= 8 real, D >= 4 complex;
    # with d = 1 there is one word, and the last site's sum over b is the only axis left to iterate
    rng = np.random.default_rng(big_d)
    labels = ("a", "b")[:d]
    mats = {lab: rng.standard_normal((big_d, big_d)) for lab in labels}
    if dtype is complex:
        mats = {lab: m + 1j * rng.standard_normal((big_d, big_d)) for lab, m in mats.items()}
    fam = MpsFamily(d=d, D=big_d, labels=labels, matrices=mats)
    for n in (1, 2, 4, 7):
        want = np.trace(_einsum_reference(fam.matrix_stack(), n), axis1=1, axis2=2)
        assert _same_bits(amplitudes_vector(fam, n), want), n


def test_amplitudes_need_a_site():
    with pytest.raises(ValueError, match="n_sites must be >= 1"):
        amplitudes_vector(models.model_I(0.7), 0)


def test_word_matrix_and_determinant_keep_their_values():
    fam = models.model_II(1.3)
    want = _einsum_reference(fam.matrix_stack(), 3).reshape(27, 9).T
    assert _same_bits(np.ascontiguousarray(parent.word_matrix(fam, 3)), np.ascontiguousarray(want))
    g = np.array([0.4, 1.1, 1.7])
    mats = models._general_stack(g, 0.5 * g, 1.3)
    dets = np.linalg.det(np.swapaxes(_einsum_reference(mats, 2).reshape(3, 9, 9), -1, -2))
    assert _same_bits(models.det_word_matrix(g, 0.5 * g, 1.3), dets)


def test_cap_refuses_before_any_allocation(monkeypatch):
    fam = models.model_II(1.0)
    mats = fam.matrix_stack()
    batched = np.stack([mats, mats])

    def refuse(*args, **kwargs):
        raise AssertionError("an array was allocated before the cap check")

    mps._identity.cache_clear()
    for name in ("zeros", "empty", "eye", "ones", "stack", "zeros_like", "empty_like"):
        monkeypatch.setattr(np, name, refuse)
    for call in (
        lambda: mps._word_columns(mats, 11, "word-matrix"),
        lambda: mps._word_columns(batched, 11, "word-matrix"),
        lambda: parent.reduced_density(fam, 11, 12),
        lambda: amplitudes_vector(fam, 11),
    ):
        with pytest.raises(CapExceededError):
            call()
