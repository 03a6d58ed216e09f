"""The GASP family of degree tables and its threshold formulas.

GASP_r ("gap additive secure polynomial", chain length r) fixes

    alpha_p = (0, 1, ..., K-1)
    beta_p  = (0, K, ..., K(L-1))
    beta_s  = (KL, KL+1, ..., KL+T-1)

and fills alpha_s with the first T values of KL + {0..r-1} + K*{0,1,2,...},
i.e. chains of r consecutive integers repeating with period K.  Small r
spreads the suffix rows out (good when T is small relative to K), large r
packs them densely; r = min(K, T) is the "big" end of the family and r = 1
the "small" end.

This module provides the construction, the collision-score closed form, two
independent closed forms for the distinct-entry count N(r), and the
piecewise-linear machinery that shrinks the search for the best r from
min(K, T) candidates down to a handful.  It owns the fixed-prefix frame
too (fixed_prefix_table, suffix_window) that the searches and the ILP read.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .degree_table import DegreeTable, DomainError, ScoreBreakdown, _require_int


@dataclass(frozen=True)
class GaspParams:
    """Parameters (K, L, T, r) with K, L normalized so that L <= K.

    The constructions assume L <= K; when called with L > K the roles of the
    two matrices are swapped and `transposed` records that the caller must
    read alpha as the B side and beta as the A side.  All derived quantities
    (scores, N) are invariant under the swap.
    """

    K: int
    L: int
    T: int
    r: int
    transposed: bool = field(default=False, compare=False)

    def __post_init__(self):
        _require_int(K=self.K, L=self.L, T=self.T, r=self.r)
        if self.L > self.K:
            k, l = self.L, self.K
            object.__setattr__(self, "K", k)
            object.__setattr__(self, "L", l)
            object.__setattr__(self, "transposed", True)
        if self.r > min(self.K, self.T):
            raise DomainError(
                f"r={self.r} out of range, need 1 <= r <= min(K, T) = {min(self.K, self.T)}"
            )

    @classmethod
    def big(cls, K: int, L: int, T: int) -> "GaspParams":
        """The r = min(K, T) member (after normalization)."""
        return cls(K=K, L=L, T=T, r=min(max(K, L), T))


def standard_beta(K: int, L: int, T: int) -> tuple[int, ...]:
    """The GASP beta vector: beta_p = (0, K, ..., K(L-1)), beta_s = (KL, ..., KL+T-1)."""
    kl = K * L
    return tuple(range(0, kl, K)) + tuple(range(kl, kl + T))


def fixed_prefix_table(K: int, L: int, T: int, alpha_s) -> DegreeTable:
    """Table with the standard prefixes and beta, as ranges, and the given alpha suffix."""
    return DegreeTable(K=K, L=L, T=T, alpha_p=range(K), alpha_s=alpha_s,
                       beta_p=range(0, K * L, K), beta_s=range(K * L, K * L + T))


def suffix_window(K: int, L: int, T: int) -> tuple[int, int, int, int]:
    """The frame every fixed-prefix search of (K, L, T) runs in: (lo, hi, gap, top).

    Suffix values live in [lo, hi] = [KL, T(KL+T)+K-1], and consecutive
    sorted suffix values differ by at most gap = KL+T: any suffix outside
    that frame is equivalent to one inside.  The prefix rows use every entry
    in [0, top], top = KL+K+T-2.  Requires positive K, L, T with L <= K.
    """
    _check_klt(K, L, T)
    kl = K * L
    return kl, T * (kl + T) + K - 1, kl + T, kl + K + T - 2


def construct(params: GaspParams) -> DegreeTable:
    """Build the GASP_r degree table: chains of r consecutive values, period K."""
    K, L, T, r = params.K, params.L, params.T, params.r
    return fixed_prefix_table(K, L, T, [K * L + K * (i // r) + i % r for i in range(T)])


def score_closed_form(params: GaspParams) -> ScoreBreakdown:
    """Collision score of GASP_r without building the table.

    Left counts (prefix-column collisions of suffix row i):
        min(L, 2 + floor((T-1-i)/K))   for i <= r, else L.
    Right counts (suffix-column collisions):
        row 1:          max(0, K+T-KL-1)
        i = 1 mod r:    max(0, T-K+r-1)    (for r = 1 this is every row)
        otherwise:      T-1.
    Floor division here is Python's, which rounds toward minus infinity;
    the T-1-i < 0 cases rely on that.
    """
    K, L, T, r = params.K, params.L, params.T, params.r
    left = tuple(min(L, 2 + (T - 1 - i) // K) if i <= r else L for i in range(1, T + 1))
    right = tuple(max(0, T - K + r - 1) if i % r == 1 % r else T - 1 for i in range(2, T + 1))
    return ScoreBreakdown(left=left, right=(max(0, K + T - K * L - 1),) + right)


def n_of_r(params: GaspParams) -> int:
    """Distinct-entry count of GASP_r via the collision score.

    The first K rows of the table cover exactly KL + K + T - 1 values; the
    T suffix rows contribute L + T cells each, minus the score.  The score
    is score_closed_form's counts summed in O(1): on rows i <= r, T-1-i runs
    over r <= K consecutive values, so its floor by K is q on c0 rows and
    q + 1 on the rest; (T-1)//r rows i in 2..T satisfy i = 1 mod r.
    """
    return _n_of_r(params.K, params.L, params.T, (params.r,))[0]


def _n_of_r(K: int, L: int, T: int, rs) -> list[int]:
    """n_of_r at each r of rs, already range-checked.  base holds the terms
    free of r; to it comes the score's shortfall below L on rows i <= r (none
    once q = (T-1-r)//K >= L-2) and below T-1 on the (T-1)//r rows i = 1 mod r."""
    t1, base = T - 1, K * L + K + 3 * T - 2 - max(0, K + T - K * L - 1)
    ns = []
    for r in rs:
        q, m = divmod(t1 - r, K)
        n = base + t1 // r * (t1 if t1 < K - r else K - r)
        if q < L - 2:
            n += r * (L - 3 - q) + (r if r < K - m else K - m)
        ns.append(n)
    return ns


def n_theorem1(params: GaspParams) -> int:
    """Distinct-entry count of GASP_r from the standalone closed form.

    Independent of n_of_r (no score detour); kept as a cross-check since the
    expression is easy to transcribe wrongly.  The rational terms are carried
    as integers over 2K, and the result is asserted to be an integer.
    """
    K, L, T, r = params.K, params.L, params.T, params.r
    phi = T - 1 - K * L + 2 * K
    mu = (T - 1) % K
    x = min((T - 1 - mu) // K - (1 if mu == 0 else 0), L - 3)
    n = 2 * K * (K * L + 2 * K + 3 * T - 2 - max(K, phi) + (L - 2) * max(0, min(r, r - phi))
                 + ((T - 1) // r) * min(T - 1, K - r))
    if phi < r:
        n -= (2 * K * min(0, mu - r) + 2 * r * (T - 1 - mu)
              + K * (-K * x * x + (-K - 2 * max(0, phi) + 2 * T - 2) * x + (T - 1 - mu))
              - (T - 1 - mu) * (T - 1 + mu))
    n, rem = divmod(n, 2 * K)
    if rem:
        raise AssertionError(f"closed form gave non-integer {2 * K * n + rem}/{2 * K} at {params}")
    return n


def h_function(K: int, L: int, T: int, r: int) -> int:
    """The r-dependent part of N(r) on the regime r > phi.

    Only defined for max(1, phi+1) <= r <= min(K, T); outside that window
    N(r) is governed by a different linear piece and this value would be
    meaningless, so we refuse.
    """
    _check_klt(K, L, T)
    phi = T - 1 - K * L + 2 * K
    lo, hi = max(1, phi + 1), min(K, T)
    if not isinstance(r, int) or isinstance(r, bool) or not lo <= r <= hi:
        raise DomainError(f"h_function needs an integer {lo} <= r <= {hi}, got r={r!r}")
    mu = (T - 1) % K
    return (L - 2 - (T - 1 - mu) // K) * r + max(mu, r) + ((T - 1) // r) * min(T - 1, K - r)


@dataclass
class ChainSearchTrace:
    """Everything the reduced search for the best r looked at.

    W is the set of values floor((T-1)/i) takes on the feasible i-range; each
    w contributes the candidate set q_w (endpoints of the linear piece, or
    the interior kink points in A_w).  Q is their union, Q_prime the three
    regime corner cases, and Q_dprime the final clipped candidate set that a
    minimizer is guaranteed to live in.  evaluated/r_star/n_star are filled
    in by optimal_r.
    """

    K: int
    L: int
    T: int
    phi: int
    mu: int
    x: int
    W: tuple[int, ...]
    q_w: dict[int, tuple[int, ...]]
    Q: tuple[int, ...]
    Q_prime: tuple[int, ...]
    Q_dprime: tuple[int, ...]
    evaluated: tuple[tuple[int, int], ...] = ()
    r_star: Optional[int] = None
    n_star: Optional[int] = None


def _check_klt(K: int, L: int, T: int) -> None:
    _require_int(K=K, L=L, T=T)
    if L > K:
        raise DomainError(f"need L <= K, got K={K}, L={L} (swap the roles first)")


def candidate_set(K: int, L: int, T: int) -> ChainSearchTrace:
    """Compute the reduced candidate set Q'' for the best chain length.

    The slope of the r-dependent part changes only at block boundaries of
    floor((T-1)/r) and at the two special points mu and K-T+1, so a
    minimizer is always among: per-block endpoints or kinks selected by the
    signs of the block's first and last step (Q), the regime corners
    (Q_prime), clipped to the feasible range.  Ties break as in a full scan.
    """
    _check_klt(K, L, T)
    t1 = T - 1
    phi, mu = t1 - K * L + 2 * K, t1 % K
    x = min((t1 - mu) // K - (1 if mu == 0 else 0), L - 3)
    i_lo, i_hi, top = max(1, phi + 1), min(K, t1), min(K, T)
    # Walk the blocks [l_w, r_w] of floor((T-1)/i) from i_lo's up to i_hi; if i_lo > i_hi,
    # that block starts past i_hi (i_lo > T-1, or T-1 = K(L-2) + i_lo-1 with i_lo > K puts
    # (T-1)//i_lo below (T-1)//K).  In a block, N(r) - N(r-1) is step, plus 1 once r > mu,
    # minus w once r > c: only the at most two blocks with mu or c inside can change its sign.
    step, c = L - 2 - (t1 - mu) // K, K - T + 1
    q_w: dict[int, tuple[int, ...]] = {}
    Q: list[int] = []
    l_w = t1 // (t1 // i_lo + 1) + 1
    while l_w <= i_hi:
        w = t1 // l_w
        r_w = t1 // w
        up = step + (mu <= l_w) - (w if c <= l_w else 0) >= 0  # N(l_w + 1) >= N(l_w)
        if (l_w < mu < r_w or l_w < c < r_w) and up != (step + (mu < r_w) - (w if c < r_w else 0) >= 0):
            # the sign changes inside the block: both ends, or the kinks
            q_w[w] = cand = (l_w, r_w) if up else tuple(sorted(v for v in {mu, c} if l_w < v < r_w))
        else:
            q_w[w] = cand = (l_w,) if up else (r_w,)
        Q += cand
        l_w = r_w + 1
    q_w = dict(reversed(q_w.items()))
    Q_prime = sorted({max(1, min(top, phi)), max(1, phi + 1), top})
    Q_dprime = sorted([v for v in {*Q_prime, *Q} if v <= top])  # all are >= 1
    return ChainSearchTrace(
        K=K, L=L, T=T, phi=phi, mu=mu, x=x,
        W=tuple(q_w), q_w=q_w, Q=tuple(Q),
        Q_prime=tuple(Q_prime), Q_dprime=tuple(Q_dprime),
    )


def optimal_r(K: int, L: int, T: int) -> tuple[int, int, ChainSearchTrace]:
    """Best chain length r for (K, L, T) and the threshold it achieves.

    N(r) is evaluated only on the candidate set Q''.  Ties go to the
    smallest r; the trace keeps all evaluated (r, N(r)) pairs so other
    minimizers stay visible.
    """
    _require_int(K=K, L=L, T=T)  # before the swap, so an error names the caller's argument
    if L > K:
        K, L = L, K
    trace = candidate_set(K, L, T)
    # Candidates ascend, so index keeps the smallest r among ties; only the
    # winner is built as a validated GaspParams and read through n_of_r.
    ns = _n_of_r(K, L, T, trace.Q_dprime)
    trace.evaluated = tuple(zip(trace.Q_dprime, ns))
    best_r = trace.Q_dprime[ns.index(min(ns))]
    trace.r_star, trace.n_star = best_r, n_of_r(GaspParams(K=K, L=L, T=T, r=best_r))
    return best_r, trace.n_star, trace


def _w_block_starts(T: int) -> list[int]:
    """Starts of the constancy blocks of floor((T-1)/i) on [1, T-1]."""
    starts = []
    i = 1
    while i < T:
        starts.append(i)
        i = (T - 1) // ((T - 1) // i) + 1
    return starts


def reduction_statistic(k_max: int = 300, t_max: int = 300) -> Fraction:
    """Mean of (5 + #W) / min(K, T) over 1 <= L <= K <= k_max, 1 <= T <= t_max.

    Measures how small the reduced candidate set is relative to scanning all
    of 1..min(K, T).  Exact rational arithmetic; each T lists its blocks of
    floor((T-1)/i) once, each K counts those on [1, min(K, T-1)], and only
    the few L with a nontrivial range lower end cost a bisect.
    """
    _require_int(k_max=k_max, t_max=t_max)
    # numerator sums grouped by denominator min(K, T)
    num: dict[int, int] = {}
    for T in range(1, t_max + 1):
        starts = _w_block_starts(T)
        for K in range(1, k_max + 1):
            d = min(K, T)
            i_hi = min(K, T - 1)
            acc = 5 * K
            nblocks = bisect.bisect_right(starts, i_hi)  # 0 at T = 1
            # i0(L) = max(1, T + 2K - KL) drops below 1 for all
            # L >= l_full, where every block is in range.
            l_full = (T + 2 * K - 2 + K) // K  # ceil((T + 2K - 1) / K)
            if l_full <= K:
                acc += nblocks * (K - l_full + 1)
            for L in range(1, min(K, l_full - 1) + 1):
                i0 = T + 2 * K - K * L
                if i0 <= i_hi:
                    idx = bisect.bisect_right(starts, max(1, i0)) - 1
                    acc += nblocks - idx
            num[d] = num.get(d, 0) + acc
    total = sum(Fraction(v, d) for d, v in num.items())
    return total / (t_max * k_max * (k_max + 1) // 2)
