"""Degenerate ground states of model II through the generating expansion.

The model II ring state at parameter g splits into integer-amplitude states
psi_n collecting the basis strings with exactly n zeros; each psi_n is a
zero-energy eigenstate on its own.  Norms and correlators of psi_n reduce to
binomial sums of exact integer traces of the transfer blocks

    V = A_1 (x) A_1 + A_-1 (x) A_-1   (the S_z^2 dressing, commutes with E)
    U = A_1 (x) A_1 - A_-1 (x) A_-1   (the S_z dressing)
    X1 = (A_1 + A_-1) (x) 1,  X2 = 1 (x) (A_1 + A_-1)   (the S_x channel)

with X1 acting on the bra tensor factor and X2 on the ket factor.  V and U
conserve the bond charge q = i - j and X1, X2 shift it by one, so V splits
into path-graph blocks of sizes 1, 2, 3, 2, 1 and every trace the sums need
has a closed form in powers of 2; no matrix is multiplied.  Everything here
is exact integer/rational arithmetic; floats appear only in the
thermodynamic limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from . import linalg

#: Configurations are tuples of m values, site 1 first.
M_VALUES = (1, 0, -1)

#: Largest ring psi_n_expand and model_ii_word_traces enumerate.
EXPAND_MAX_SITES = 10

_A1 = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
_AM = _A1.T
_I3 = np.eye(3, dtype=int)
_X = _A1 + _AM
V_EXACT = np.kron(_A1, _A1) + np.kron(_AM, _AM)
U_EXACT = np.kron(_A1, _A1) - np.kron(_AM, _AM)
X1_EXACT = np.kron(_X, _I3)
X2_EXACT = np.kron(_I3, _X)


def _require_even(name: str, value: int) -> None:
    if value % 2:
        raise ValueError(
            f"{name} must be even: on an even ring the balanced-word constraint kills every odd-zero sector"
        )


def _tr_v(m: int) -> int:
    """tr V^m: 9 at m = 0, 0 for odd m, 2^(m/2+1) + 4 for even m >= 2."""
    if m == 0:
        return 9
    return 0 if m % 2 else 2 ** (m // 2 + 1) + 4


def _tr_u_v_u(a: int, b: int) -> int:
    """tr(U V^a U V^b)."""
    if (a + b) % 2:
        return 0
    if a % 2:
        return 4
    if a and b:
        return -4
    return -_tr_v(a + b) if a + b else -8


def _x_leg(m: int) -> int:
    """One V power's share of _tr_x_pair, which is additive over the two powers."""
    if m == 0:
        return 8
    return 2 ** ((m + 5) // 2) if m % 2 else 3 * 2 ** (m // 2 + 1)


def _tr_x_pair(a: int, b: int) -> int:
    """tr(X2 V^a X1 V^b) + tr(X1 V^a X2 V^b)."""
    return _x_leg(a) + _x_leg(b) if (a + b) % 2 else 0


def _word_trace(word) -> int:
    """tr of the product of A_1 (+1) and A_-1 (-1) in word order.

    A_1 and A_-1 step a 3-level ladder up and down, so the trace counts the
    levels from which the walk of partial sums stays on the ladder and
    returns: 3 minus the walk's span when the word is balanced, else 0.
    """
    height = low = high = 0
    for m in word:
        height += m
        low, high = min(low, height), max(high, height)
    return max(0, 3 - (high - low)) if height == 0 else 0


@dataclass(frozen=True)
class PsiN:
    """Explicit integer-amplitude form of the n-zero sector state.

    amplitudes maps configurations (tuples of m values) to integer word
    traces; only nonzero amplitudes are stored.  Every stored string has
    exactly `zeros` zeros and equally many +1 and -1 entries.
    """

    n_sites: int
    zeros: int
    amplitudes: dict[tuple[int, ...], int] = field(repr=False)

    def norm_sq(self) -> int:
        return sum(a * a for a in self.amplitudes.values())

    def vector(self) -> np.ndarray:
        """Dense 3^N vector in the package basis order (site 1 most significant)."""
        out = np.zeros(3**self.n_sites)
        for cfg, a in self.amplitudes.items():
            idx = 0
            for m in cfg:
                idx = idx * 3 + (1 - m)
            out[idx] = a
        return out


def _check_expand(n_sites: int, zeros: int) -> None:
    if n_sites > EXPAND_MAX_SITES:
        raise ValueError(f"n_sites {n_sites} exceeds the expansion cap {EXPAND_MAX_SITES}")
    _check_nn(n_sites, zeros)


def psi_n_expand(n_sites: int, zeros: int) -> PsiN:
    """Explicit amplitudes of the n-zero sector state by exact word traces.

    The amplitude of a string is the integer trace of its raising/lowering
    word; the identity blocks at the zero sites drop out of the trace.  So
    the balanced +1/-1 words of length N - n with a nonzero trace are listed
    once, in combinations order of their +1 positions, and each zero
    placement splices every listed word into the sites left free.  Rings
    beyond EXPAND_MAX_SITES are refused before anything is enumerated.
    """
    _check_expand(n_sites, zeros)
    length = n_sites - zeros
    words = []  # (word + (0,), trace): slot `length` reads the zero
    for up_pos in combinations(range(length), length // 2):
        word = [-1] * length
        for s in up_pos:
            word[s] = 1
        t = _word_trace(word)
        if t:
            words.append(((*word, 0), t))
    amps: dict[tuple[int, ...], int] = {}
    for zero_pos in combinations(range(n_sites), zeros):
        free = iter(range(length))
        slot = [length if s in zero_pos else next(free) for s in range(n_sites)]
        for word, t in words:
            amps[tuple(map(word.__getitem__, slot))] = t
    return PsiN(n_sites=n_sites, zeros=zeros, amplitudes=amps)


def model_ii_word_traces(n_sites: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """All nonzero model II amplitudes as (zero count, integer trace) pairs.

    The ring amplitude at parameter g is g**zeros * trace, exactly; summing
    the sectors with g weights reconstructs the full MPS amplitude map.
    """
    _check_expand(n_sites, 0)
    out: dict[tuple[int, ...], tuple[int, int]] = {}
    for zeros in range(0, n_sites + 1, 2):
        for cfg, t in psi_n_expand(n_sites, zeros).amplitudes.items():
            out[cfg] = (zeros, t)
    return out


def psi_n_norm(n_sites: int, zeros: int) -> int:
    """<psi_n|psi_n> = C(N, n) tr(V^(N-n)), exact."""
    _check_nn(n_sites, zeros)
    return comb(n_sites, zeros) * _tr_v(n_sites - zeros)


def corr_sz2(n_sites: int, zeros: int) -> Fraction:
    """<S_z^2> on psi_n: (N - n) / N, the density of nonzero spins."""
    _check_nn(n_sites, zeros)
    return Fraction(n_sites - zeros, n_sites)


def corr_sperp2(n_sites: int, zeros: int) -> Fraction:
    """<S_a^2> for any in-plane direction a: (N + n) / (2N)."""
    _check_nn(n_sites, zeros)
    return Fraction(n_sites + zeros, 2 * n_sites)


def corr_sz2sz2(n_sites: int, zeros: int) -> Fraction:
    """<S_z^2 S_z'^2> at any separation: (N-n)(N-n-1) / (N(N-1)).

    Distance independent because the S_z^2 dressing V commutes with the
    transfer operator V + g^2.
    """
    _check_nn(n_sites, zeros)
    return Fraction((n_sites - zeros) * (n_sites - zeros - 1), n_sites * (n_sites - 1))


def _check_nn(n_sites: int, zeros: int) -> None:
    if n_sites < 2:
        raise ValueError(f"n_sites must be at least 2, got {n_sites}")
    _require_even("n_sites", n_sites)
    _require_even("zeros", zeros)
    if not 0 <= zeros <= n_sites:
        raise ValueError("zeros must lie in [0, n_sites]")


def _check_r(n_sites: int, r: int) -> None:
    if not 2 <= r <= n_sites - 1:
        raise ValueError("operator sites are 1 and r with 2 <= r <= N-1")


def _check_nnr(n_sites: int, zeros: int, r: int) -> None:
    _check_nn(n_sites, zeros)
    _check_r(n_sites, r)


def corr_zz(n_sites: int, zeros: int, r: int) -> Fraction:
    """<S_z,1 S_z,r> on psi_n, operators at sites 1 and r (r = 2 is adjacent).

    Exact binomial sum over the split of the zero count between the two arcs:
    sum_k C(r-2, k) C(N-r, n-k) tr(U V^(r-2-k) U V^(N-r-n+k)) over
    C(N, n) tr(V^(N-n)).
    """
    _check_nnr(n_sites, zeros, r)
    num = 0
    for k in range(0, r - 1):
        if not 0 <= zeros - k <= n_sites - r:
            continue
        num += comb(r - 2, k) * comb(n_sites - r, zeros - k) * _tr_u_v_u(r - 2 - k, n_sites - r - zeros + k)
    return Fraction(num, comb(n_sites, zeros) * _tr_v(n_sites - zeros))


def corr_xx(n_sites: int, zeros: int, r: int) -> Fraction:
    """<S_x,1 S_x,r> on psi_n, operators at sites 1 and r (r = 2 is adjacent).

    One S_x converts a zero into a nonzero spin and the other converts back,
    so the inner arc keeps k zeros and the outer arc n-1-k; the exact sum is

        (1/2) sum_k C(r-2, k) C(N-r, n-1-k)
                    [tr(X2 V^(r-2-k) X1 V^(N-r-n+1+k)) + (X1 <-> X2)]

    over C(N, n) tr(V^(N-n)).  The binomial and exponent bookkeeping here is
    pinned by exact agreement with the brute-force oracle on explicit psi_n
    states (see the test suite); n = 0 vanishes identically.
    """
    _check_nnr(n_sites, zeros, r)
    num = 0
    for k in range(0, r - 1):
        if not 0 <= zeros - 1 - k <= n_sites - r:
            continue
        num += comb(r - 2, k) * comb(n_sites - r, zeros - 1 - k) * _tr_x_pair(r - 2 - k, n_sites - r - zeros + 1 + k)
    return Fraction(num, 2 * comb(n_sites, zeros) * _tr_v(n_sites - zeros))


# ---------------------------------------------------------------------------
# Brute-force expectation values on explicit psi_n states (the oracle side)


def expectation_sz2(psi: PsiN) -> Fraction:
    num = sum(a * a * cfg[0] * cfg[0] for cfg, a in psi.amplitudes.items())
    return Fraction(num, psi.norm_sq())


def expectation_sperp2(psi: PsiN) -> Fraction:
    """<S_x^2> at site 1; the S_x^2 cross terms unbalance the string and drop."""
    num = sum(a * a * (2 if cfg[0] == 0 else 1) for cfg, a in psi.amplitudes.items())
    return Fraction(num, 2 * psi.norm_sq())


def expectation_sz2sz2(psi: PsiN, r: int) -> Fraction:
    _check_r(psi.n_sites, r)
    num = sum(a * a * cfg[0] ** 2 * cfg[r - 1] ** 2 for cfg, a in psi.amplitudes.items())
    return Fraction(num, psi.norm_sq())


def expectation_zz(psi: PsiN, r: int) -> Fraction:
    _check_r(psi.n_sites, r)
    num = sum(a * a * cfg[0] * cfg[r - 1] for cfg, a in psi.amplitudes.items())
    return Fraction(num, psi.norm_sq())


_SX_MOVES = {1: (0,), 0: (1, -1), -1: (0,)}  # S_x|m> = (1/sqrt2) sum of these targets


def expectation_xx(psi: PsiN, r: int) -> Fraction:
    """<S_x,1 S_x,r> evaluated directly on the amplitude map, exact."""
    _check_r(psi.n_sites, r)
    i, j = 0, r - 1
    num = 0
    amps = psi.amplitudes
    for cfg, a in amps.items():
        for mi in _SX_MOVES[cfg[i]]:
            for mj in _SX_MOVES[cfg[j]]:
                target = list(cfg)
                target[i] = mi
                target[j] = mj
                b = amps.get(tuple(target))
                if b:
                    num += a * b
    return Fraction(num, 2 * psi.norm_sq())


# ---------------------------------------------------------------------------
# Thermodynamic limits


def _dominant_bracket(r: int, channel: str) -> float:
    """Dominant-eigenvalue contraction of the k = 0 arc split of corr_zz/corr_xx.

    Both extreme eigenvalues of V are kept with their even-N sign weights; the
    result is normalized by the dominant multiplicity.
    """
    v = V_EXACT.astype(float)
    projs = linalg.dominant_projectors(v)
    lmax = max(abs(lam) for lam, _ in projs)
    mult = sum(np.trace(p).real for _, p in projs)
    vmid = np.linalg.matrix_power(v / lmax, r - 2)
    if channel == "zz":
        u = U_EXACT.astype(float)
        middle = u @ vmid @ u / lmax**2
        power = r
    elif channel == "xx":
        x1 = X1_EXACT.astype(float)
        x2 = X2_EXACT.astype(float)
        middle = (x2 @ vmid @ x1 + x1 @ vmid @ x2) / (2 * lmax)
        power = r - 1
    else:
        raise ValueError("channel must be 'zz' or 'xx'")
    return sum(np.sign(lam.real) ** power * np.trace(p.real @ middle) for lam, p in projs) / mult


def thermo_corr_finite(n_sites: int, zeros: int, r: int, channel: str) -> float:
    """Dominant-eigenvalue approximation of corr_zz/corr_xx at large even N.

    The arc-split prefactor C(N-r, n)/C(N, n) (zz) or C(N-r, n-1)/C(N, n) (xx)
    times the dominant bracket; used to exhibit the limit laws at finite N.
    """
    _check_nnr(n_sites, zeros, r)
    bracket = _dominant_bracket(r, channel)
    inner_zeros = zeros if channel == "zz" else zeros - 1
    prefactor = comb(n_sites - r, inner_zeros) / comb(n_sites, zeros)
    return float(prefactor * bracket)


def thermo_corr(zeros: int, r: int, channel: str) -> float:
    """N -> infinity limit (n fixed) of the psi_n two-point functions.

    The limit of the arc-split prefactor (1 for zz, 0 for xx, which scales as
    n/N) times the dominant bracket: zz tends to -1/2 at r = 2 and to 0
    beyond; xx tends to 0 for every r while its bracket stays finite.
    """
    _require_even("zeros", zeros)
    if r < 2:
        raise ValueError("operator sites are 1 and r with r >= 2")
    bracket = _dominant_bracket(r, channel)
    return float((1.0 if channel == "zz" else 0.0) * bracket)


def degeneracy_lower_bound(n_sites: int) -> int:
    """Lower bound 2^N + N on the model II ground-space dimension."""
    return 2**n_sites + n_sites


def correlator_table_text(rows) -> str:
    """CSV of exact sector-state values: N,n,r,channel,value_num,value_den,value_float.

    rows are (n_sites, zeros, r_or_None, channel, Fraction) tuples; the float
    column is printed with 17 significant digits so tables are reproducible.
    """
    lines = ["N,n,r,channel,value_num,value_den,value_float"]
    for n_sites, zeros, r, channel, value in rows:
        value = Fraction(value)
        r_txt = "" if r is None else str(r)
        lines.append(
            f"{n_sites},{zeros},{r_txt},{channel},{value.numerator},{value.denominator},"
            f"{float(value):.17g}"
        )
    return "\n".join(lines) + "\n"
