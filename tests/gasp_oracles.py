"""Reference kernels for the chain-length candidate set and the construction.

`optimal_r_full_scan` is the slow reference for `gasp.optimal_r`: it
evaluates N(r) at every r in 1..min(K, T) instead of only on Q''.
test_gasp.py, test_cli.py and ACCEPTANCE 3 compare the two.

`n_theorem1` is the original `gasp.n_theorem1`, which sums the closed form
in `Fraction`s; `gasp.n_theorem1` carries the same terms as integers over
2K, and test_gasp.py compares the two on every r of a grid and at scale.

`construct` below is the original `gasp.construct`, which fills the alpha
suffix chain by chain in a while loop; `gasp.construct` now writes suffix
value i as KL + K*(i // r) + i % r, and test_gasp.py compares the two over a
grid.

`candidate_set` is the original `gasp.candidate_set`, which builds `set(range(...))`
over the whole feasible i-range for W, for each block's interior kinks and
for the final clip, so it costs O(K) where the block walk in `gasp.py` costs
O(sqrt(T)).  The differential tests in test_gasp.py compare the two traces
field for field.

It differs from the original only by the two corrections that
`gasp.candidate_set` carries too.  Every left slope is slope(l_w + 1, w),
the block's first step N(l_w + 1) - N(l_w); the original's slope(l_w, w)
misreads it when mu or K-T+1 equals l_w.  The third regime corner
is min(K, T); the original's T is clipped away whenever T > K.  Without
them the reduced search returned a worse N than the full scan on 542 of the
49,200 triples L <= K <= 40, T <= 60 (at (4, 4, 11) it gave 55 where r = 4
gives 53), and a larger tied r on 21 more.
"""

from __future__ import annotations

from fractions import Fraction

from gasptables.degree_table import DegreeTable
from gasptables.gasp import ChainSearchTrace, GaspParams, _check_klt, _n_of_r, standard_beta


def optimal_r_full_scan(K: int, L: int, T: int) -> tuple[int, int]:
    """(r, N(r)) minimising N over every r in 1..min(K, T), the smallest r among ties."""
    if L > K:
        K, L = L, K
    ns = _n_of_r(K, L, T, range(1, min(K, T) + 1))
    n = min(ns)
    return ns.index(n) + 1, n


def n_theorem1(params: GaspParams) -> int:
    """Distinct-entry count of GASP_r from the standalone closed form.

    Independent of n_of_r (no score detour); kept as a cross-check since the
    expression is easy to transcribe wrongly.  Intermediate arithmetic is
    exact rational, and the result is asserted to be an integer.
    """
    K, L, T, r = params.K, params.L, params.T, params.r
    phi = T - 1 - K * L + 2 * K
    mu = (T - 1) % K
    x = min((T - 1 - mu) // K - (1 if mu == 0 else 0), L - 3)
    n = Fraction(
        K * L + 2 * K + 3 * T - 2
        - max(K, phi)
        + (L - 2) * max(0, min(r, r - phi))
        + ((T - 1) // r) * min(T - 1, K - r)
    )
    if phi < r:
        n -= (
            min(0, mu - r)
            + Fraction(r * (T - 1 - mu), K)
            + Fraction(-K * x * x + (-K - 2 * max(0, phi) + 2 * T - 2) * x + (T - 1 - mu), 2)
            - Fraction(T - 1 - mu, K) * Fraction(T - 1 + mu, 2)
        )
    if n.denominator != 1:
        raise AssertionError(f"closed form gave non-integer {n} at {params}")
    return int(n)


def construct(params: GaspParams) -> DegreeTable:
    """Build the GASP_r degree table for the given parameters."""
    K, L, T, r = params.K, params.L, params.T, params.r
    kl = K * L
    alpha_s = []
    m = 0
    while len(alpha_s) < T:
        for j in range(r):
            alpha_s.append(kl + K * m + j)
            if len(alpha_s) == T:
                break
        m += 1
    beta = standard_beta(K, L, T)
    return DegreeTable(
        K=K,
        L=L,
        T=T,
        alpha_p=tuple(range(K)),
        alpha_s=tuple(alpha_s),
        beta_p=beta[:L],
        beta_s=beta[L:],
    )


def candidate_set(K: int, L: int, T: int) -> ChainSearchTrace:
    """Compute the reduced candidate set Q'' for the best chain length.

    The slope of the r-dependent part changes only at block boundaries of
    floor((T-1)/r) and at the two special points mu and K-T+1, so a
    minimizer is always among: per-block endpoints selected by slope signs
    (Q), the regime corners (Q_prime), clipped to the feasible range.
    """
    _check_klt(K, L, T)
    phi = T - 1 - K * L + 2 * K
    mu = (T - 1) % K
    x = min((T - 1 - mu) // K - (1 if mu == 0 else 0), L - 3)
    i_lo, i_hi = max(1, phi + 1), min(K, T - 1)
    W = sorted({(T - 1) // i for i in range(i_lo, i_hi + 1)})

    step = L - 2 - (T - 1 - mu) // K

    def slope(r: int, w: int) -> int:
        return step + (1 if mu < r else 0) - (w if K - T + 1 < r else 0)

    q_w: dict[int, tuple[int, ...]] = {}
    for w in W:
        l_w = (T - 1) // (w + 1) + 1
        r_w = (T - 1) // w
        a_w = sorted({mu, K - T + 1} & set(range(l_w + 1, r_w)))
        if r_w < l_w:
            cand: tuple[int, ...] = ()
        elif l_w == r_w:
            cand = (l_w,)
        elif a_w and slope(l_w + 1, w) >= 0 and slope(r_w, w) >= 0:
            cand = (l_w,)
        elif a_w and slope(l_w + 1, w) >= 0 and slope(r_w, w) < 0:
            cand = (l_w, r_w)
        elif a_w and slope(l_w + 1, w) < 0 and slope(r_w, w) >= 0:
            cand = tuple(a_w)
        elif a_w and slope(l_w + 1, w) < 0 and slope(r_w, w) < 0:
            cand = (r_w,)
        elif slope(l_w + 1, w) >= 0:
            cand = (l_w,)
        else:
            cand = (r_w,)
        q_w[w] = cand

    Q = sorted(set().union(*q_w.values()) if q_w else set())
    Q_prime = sorted({max(1, min(K, T, phi)), max(1, phi + 1), min(K, T)})
    Q_dprime = sorted((set(Q_prime) | set(Q)) & set(range(1, min(K, T) + 1)))
    return ChainSearchTrace(
        K=K, L=L, T=T, phi=phi, mu=mu, x=x,
        W=tuple(W), q_w=q_w, Q=tuple(Q),
        Q_prime=tuple(Q_prime), Q_dprime=tuple(Q_dprime),
    )
