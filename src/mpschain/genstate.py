"""Degenerate ground states of model II through the generating expansion.

The model II ring state at parameter g splits into integer-amplitude states
psi_n collecting the basis strings with exactly n zeros; each psi_n is a
zero-energy eigenstate on its own.  It is constant on every connected block
of the model II chain, whose hops move zeros past the +-1 entries and leave
the +-1 word fixed up to rotation:

    psi_n = sum_w t(w) 1_{C(n,w)},

where C(n, w) is the block of the strings with n zeros whose +-1 entries,
read around the ring, spell w, and t(w) is the trace of that word, the same
on the whole block.  Norms and correlators of psi_n reduce to
binomial sums of exact integer traces of the transfer blocks

    V = A_1 (x) A_1 + A_-1 (x) A_-1   (the S_z^2 dressing, commutes with E)
    U = A_1 (x) A_1 - A_-1 (x) A_-1   (the S_z dressing)
    X1 = (A_1 + A_-1) (x) 1,  X2 = 1 (x) (A_1 + A_-1)   (the S_x channel)

with X1 acting on the bra tensor factor and X2 on the ket factor.  V and U
conserve the bond charge q = i - j and X1, X2 shift it by one, so V splits
into path-graph blocks of sizes 1, 2, 3, 2, 1 and every trace the sums need
has a closed form in powers of 2; no matrix is multiplied.  corr_zz and
corr_xx walk their sum over the split of the zeros between the two arcs
with a running binomial product: two comb calls give its first term, and
each later term is the previous one times a small integer, divided exactly
by another, with its trace weight a sign or a shift.  One value costs three
comb calls (the third for the norm), that one multiply and one exact
division per term, and one Fraction; at N = 20000 the comb calls and the
Fraction dominate.  The thermodynamic laws are the exact rational limits of
the same closed forms as the outer arc grows.  Everything here is exact
integer/rational arithmetic; each limit is converted to a float once, at
the end.

The brute-force oracle the closed forms are checked against stores each
explicit psi_n (up to EXPAND_MAX_SITES sites) as int64 arrays of basis
indices and word traces, and its expectation values are integer dot
products over them.  Every trace is at most 3 in size and there are at most
3^10 strings, so every partial sum stays far below 2^63; each sum becomes a
Python int before it enters a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

#: Largest ring psi_n_expand enumerates.
EXPAND_MAX_SITES = 10


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


def _place_values(n_sites: int) -> np.ndarray:
    """3^(N-1-s) for the sites s = 0..N-1: site 1 is the most significant base-3 digit."""
    return 3 ** np.arange(n_sites - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PsiN:
    """Explicit integer-amplitude form of the n-zero sector state.

    index holds the base-3 basis index of each stored string (site 1 most
    significant, digit 1 - m) and values its integer word trace, both int64
    and in expansion order; only nonzero amplitudes are stored.  Every stored
    string has exactly `zeros` zeros and equally many +1 and -1 entries.
    amplitudes is the same state as a map from configurations (tuples of m
    values) to Python ints, built on first access.
    """

    n_sites: int
    zeros: int
    index: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @cached_property
    def amplitudes(self) -> dict[tuple[int, ...], int]:
        m = 1 - (self.index[:, None] // _place_values(self.n_sites)) % 3
        return dict(zip(map(tuple, m.tolist()), self.values.tolist()))

    def norm_sq(self) -> int:
        return int(self.values @ self.values)

    def vector(self) -> np.ndarray:
        """Dense 3^N vector in the package basis order (site 1 most significant)."""
        out = np.zeros(3**self.n_sites)
        out[self.index] = self.values
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
    placement splices every listed word into the sites left free: one
    integer product gives every basis index, placement-major, and the traces
    repeat once per placement.  Rings beyond EXPAND_MAX_SITES are refused
    before anything is enumerated.
    """
    _check_expand(n_sites, zeros)
    length = n_sites - zeros
    words, traces = [], []
    for up_pos in combinations(range(length), length // 2):
        word = [-1] * length
        for s in up_pos:
            word[s] = 1
        t = _word_trace(word)
        if t:
            words.append(word)
            traces.append(t)
    placements = comb(n_sites, zeros)
    zero_sites = np.array(list(combinations(range(n_sites), zeros)), dtype=np.intp).reshape(placements, zeros)
    is_zero = np.zeros((placements, n_sites), dtype=bool)
    is_zero[np.arange(placements)[:, None], zero_sites] = True
    w = _place_values(n_sites)
    free = np.broadcast_to(w, is_zero.shape)[~is_zero].reshape(placements, length)
    digits = 1 - np.array(words, dtype=np.int64).reshape(len(words), length)
    index = (w[zero_sites].sum(axis=1)[:, None] + free @ digits.T).ravel()
    values = np.tile(np.array(traces, dtype=np.int64), placements)
    return PsiN(n_sites=n_sites, zeros=zeros, index=index, values=values)


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

    Exact binomial sum over the split of the zero count between the two arcs,
    k zeros on the inner arc of r - 2 sites and n - k on the outer arc of
    N - r sites:

        sum_k c_k tr(U V^a U V^b),   c_k = C(r-2, k) C(N-r, n-k),  a = r-2-k,  b = N-r-n+k,

    over C(N, n) tr(V^(N-n)).  a + b = N - n - 2 is even, so the trace is +4
    for odd a and -4 for even a, except at an edge term (a = 0 or b = 0),
    where it is -tr V^(a+b), or -8 when a + b = 0.

    The sum walks k upward from its first valid value with a running
    binomial product: two comb calls give c_k there, and each later c_(k+1)
    is c_k a (n-k) divided exactly by (k+1)(b+1).  The +-4 weights collect
    in one running alternating sum, and the edge terms are corrected once
    at the end.  One value costs three comb calls (the third is the
    denominator's C(N, n)), one multiply and one exact division by a small
    integer per term, and one Fraction.
    """
    _check_nnr(n_sites, zeros, r)
    k_lo, k_hi = max(0, zeros - (n_sites - r)), min(r - 2, zeros)
    num = 0
    if k_lo <= k_hi:
        a, b = r - 2 - k_lo, n_sites - r - zeros + k_lo
        alt = c = comb(r - 2, k_lo) * comb(n_sites - r, zeros - k_lo)
        edge = c if b == 0 else 0  # the first term is the outer edge when b = 0
        for k in range(k_lo, k_hi):
            c = c * (a * (zeros - k)) // ((k + 1) * (b + 1))
            a, b = a - 1, b + 1
            alt = c - alt
        # alt = c_hi - c_(hi-1) + ..., and the last term (a = a_hi) weighs +4 when a_hi is odd
        num = 4 * alt if a % 2 else -4 * alt
        # the last term is the inner edge when a = 0; at m = a + b = 0 it is the one term, already counted
        m = a + b
        if a == 0 and m:
            edge += c
        # an edge term weighs -tr V^m = -4 - 2^(m/2+1) in place of -4, and -8 = -4 - 4 at m = 0
        num -= edge << (m // 2 + 1 if m else 2)
    return Fraction(num, comb(n_sites, zeros) * _tr_v(n_sites - zeros))


def corr_xx(n_sites: int, zeros: int, r: int) -> Fraction:
    """<S_x,1 S_x,r> on psi_n, operators at sites 1 and r (r = 2 is adjacent).

    One S_x converts a zero into a nonzero spin and the other converts back,
    so the inner arc keeps k zeros and the outer arc n-1-k; the exact sum is

        (1/2) sum_k C(r-2, k) C(N-r, n-1-k)
                    [tr(X2 V^a X1 V^b) + (X1 <-> X2)],   a = r-2-k,  b = N-r-n+1+k,

    over C(N, n) tr(V^(N-n)).  a + b = N - n - 1 is odd, and then half the
    bracket is one leg per V power, L(a) + L(b), with L(m) = 4 * 2^(m//2) for
    odd m, 3 * 2^(m//2) for even m > 0 and L(0) = 4.

    The sum walks k with the running binomial product of corr_zz (one
    multiply and one exact division per term).  Each term adds c_k shifted
    by a//2 and by b//2 to two running sums, one for each parity of the
    leg; the parities swap at every step, so the two sums swap places
    instead of being chosen per term.  The odd sum weighs 4 and the even
    sum 3, and each edge leg (a = 0 or b = 0) adds its c_k once more at the
    end.  One value costs three comb calls and one Fraction; n = 0 vanishes
    identically.  The binomial and exponent bookkeeping is pinned by exact
    agreement with the brute-force oracle on explicit psi_n states and with
    the per-term reference sums (see the test suite).
    """
    _check_nnr(n_sites, zeros, r)
    k_lo, k_hi = max(0, zeros - 1 - (n_sites - r)), min(r - 2, zeros - 1)
    num = 0
    if k_lo <= k_hi:
        a, b = r - 2 - k_lo, n_sites - r - zeros + 1 + k_lo
        c = comb(r - 2, k_lo) * comb(n_sites - r, zeros - 1 - k_lo)
        edge = c if b == 0 else 0  # L(0) = 4 is one more than 3 * 2^0
        # x takes the legs of b's parity at the current k, y those of a's parity
        x, y = c << b // 2, c << a // 2
        for k in range(k_lo, k_hi):
            c = c * (a * (zeros - 1 - k)) // ((k + 1) * (b + 1))
            a, b = a - 1, b + 1
            x, y = y + (c << b // 2), x + (c << a // 2)
        odd, even = (y, x) if a % 2 else (x, y)
        num = 4 * odd + 3 * even + edge + (c if a == 0 else 0)
    return Fraction(num, comb(n_sites, zeros) * _tr_v(n_sites - zeros))


# ---------------------------------------------------------------------------
# Brute-force expectation values on explicit psi_n states (the oracle side)


def _expectations(psi: PsiN, channels, rs=()) -> dict:
    """Brute-force expectation values of psi in the named channels, exact.

    "sz2" and "sperp2" give <S_z^2> and <S_x^2> at site 1 as Fractions, and
    the two-point channels "zz", "xx" and "sz2sz2" give a list with the
    Fraction at sites 1 and r for each r of rs, in the order of rs.  One
    pass over the stored strings: the m values of site 1 and of every site r
    are read once, and zz and sz2sz2 are one integer product each over all
    the separations.  The S_x^2 cross terms unbalance the string and drop
    out of sperp2.

    S_x|m> is (1/sqrt2) times |0> for m = +-1 and |1> + |-1> for m = 0, so
    moving the digit 1 - m of a site by s = +-1 is such a move exactly when
    m is not -s.  xx gathers the targets index + s1 3^(N-1) + sr 3^(N-r) of
    every sign pair and separation at once from a dense int64 table of the
    amplitudes; a move off the ladder reads the table's trailing zero.
    """
    n_sites = psi.n_sites
    for r in rs:
        _check_r(n_sites, r)
    top = 3 ** (n_sites - 1)
    m1 = 1 - psi.index // top  # site 1 is the most significant digit
    # the m values of site r, one row per separation: 1 - q % 3 as four in-place steps, which numpy
    # runs faster than an int64 % on a broadcast q
    r_place = np.array([3 ** (n_sites - r) for r in rs], dtype=np.int64)[:, None]
    q = psi.index // r_place
    mr = q // 3
    mr *= 3
    mr -= q
    mr += 1
    w2 = psi.values * psi.values
    norm = psi.norm_sq()
    out = {}
    for ch in channels:
        if ch == "zz":
            out[ch] = [Fraction(x, norm) for x in np.dot(mr, w2 * m1).tolist()]
        elif ch == "xx":
            table = np.zeros(3**n_sites + 1, dtype=np.int64)
            table[psi.index] = psi.values
            s = np.array([1, -1])
            # axes: s1, sr, separation, string
            moved = (m1 != -s[:, None])[:, None, None] & (mr != -s[:, None, None])
            shift = s[:, None, None, None] * top + s[:, None, None] * r_place
            target = np.where(moved, psi.index + shift, 3**n_sites)
            num = (table[target] @ psi.values).sum(axis=(0, 1))
            out[ch] = [Fraction(x, 2 * norm) for x in num.tolist()]
        elif ch == "sz2sz2":
            out[ch] = [Fraction(x, norm) for x in np.dot(mr * mr, w2 * m1 * m1).tolist()]
        elif ch == "sz2":
            out[ch] = Fraction(int(w2 @ (m1 * m1)), norm)
        elif ch == "sperp2":
            out[ch] = Fraction(int(w2 @ (2 - m1 * m1)), 2 * norm)
        else:
            raise ValueError(f"unknown channel {ch!r}")
    return out


def expectation_sz2(psi: PsiN) -> Fraction:
    return _expectations(psi, ("sz2",))["sz2"]


def expectation_zz(psi: PsiN, r: int) -> Fraction:
    return _expectations(psi, ("zz",), [r])["zz"][0]


def expectation_xx(psi: PsiN, r: int) -> Fraction:
    """<S_x,1 S_x,r> evaluated directly on the stored strings, exact (see _expectations)."""
    return _expectations(psi, ("xx",), [r])["xx"][0]


# ---------------------------------------------------------------------------
# Thermodynamic limits


def _limit_bracket(r: int, channel: str) -> Fraction:
    """Limit of the k = 0 arc split of corr_zz/corr_xx as the outer arc b grows along even N.

    Only the dominant eigenvalues +-sqrt2 of V grow: tr V^m = 2^(m/2+1) + 4
    for even m >= 2.  So
    zz: tr(U V^(r-2) U V^b) / tr V^(b+r) keeps only -tr V^b / tr V^(b+2),
        which tends to -1/2 at r = 2; every other weight of corr_zz is a
        constant +-4 over a growing trace;
    xx: the bracket of corr_xx over 2 tr V^(b+r-1), (L(r-2) + L(b)) /
        tr V^(b+r-1), keeps only the outer leg L(b), a power of sqrt2 like
        the trace: the ratio is 2^-(r-2)/2 for even r (odd b) and
        3 * 2^-(r+1)/2 for odd r (even b).
    """
    if channel == "zz":
        return Fraction(-1, 2) if r == 2 else Fraction(0)
    if channel == "xx":
        return Fraction(3, 2 ** ((r + 1) // 2)) if r % 2 else Fraction(1, 2 ** (r // 2 - 1))
    raise ValueError("channel must be 'zz' or 'xx'")


def thermo_corr(zeros: int, r: int, channel: str) -> float:
    """N -> infinity limit (n fixed) of the psi_n two-point functions.

    The limit of the arc-split prefactor (1 for zz, 0 for xx, which scales as
    n/N) times the limit bracket: zz tends to -1/2 at r = 2 and to 0
    beyond; xx tends to 0 for every r while its bracket stays finite.
    """
    _require_even("zeros", zeros)
    if zeros < 0:
        raise ValueError(f"zeros must be non-negative, got {zeros}")
    if r < 2:
        raise ValueError("operator sites are 1 and r with r >= 2")
    bracket = _limit_bracket(r, channel)
    return float((1 if channel == "zz" else 0) * bracket)


def degeneracy_lower_bound(n_sites: int) -> int:
    """Lower bound 2^N + N on the model II ground-space dimension."""
    return 2**n_sites + n_sites


def correlator_table_text(rows) -> str:
    """CSV of exact sector-state values: N,n,r,channel,value_num,value_den,value_float.

    rows are (n_sites, zeros, r_or_None, channel, Fraction) tuples; the float
    column is printed with 17 significant digits so tables are reproducible.
    The exact columns go through Decimal, which prints every digit of an int
    that str() would refuse beyond sys.get_int_max_str_digits().  A value whose
    float lies beyond the float range raises ValueError, naming its row.
    """
    lines = ["N,n,r,channel,value_num,value_den,value_float"]
    for n_sites, zeros, r, channel, value in rows:
        value = Fraction(value)
        r_txt = "" if r is None else str(r)
        try:
            approx = float(value)
        except OverflowError:
            raise ValueError(f"row {n_sites},{zeros},{r_txt},{channel}: value_float lies beyond the float range") from None
        lines.append(
            f"{n_sites},{zeros},{r_txt},{channel},{Decimal(value.numerator)},{Decimal(value.denominator)},"
            f"{approx:.17g}"
        )
    return "\n".join(lines) + "\n"
