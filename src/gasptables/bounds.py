"""Lower bounds on the server count and upper bounds on table entries.

The lower bounds say no degree table for (K, L, T) can have fewer distinct
entries than stated, whatever the exponents; they calibrate how close a
construction is to optimal.  The entry bounds run the other way: any table
that achieves the optimum can be assumed (up to equivalence) to use only
small exponents, which turns "search all tables" into a finite problem.
The operational threshold is different in kind: above it, an exponent is so
large that evaluating the encoding polynomials costs more than the trivial
protocol, so entries beyond it are pointless even when combinatorially fine.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .degree_table import DegreeTable, DomainError, _require_int
from .equivalence import is_normal

EntryBound = Union[int, tuple[int, int]]


@dataclass(frozen=True)
class MatrixDims:
    """Shapes of one multiplication A (a x b) times B (b x c) over GF(q)."""

    a: int
    b: int
    c: int
    q: int

    def __post_init__(self):
        _require_int(a=self.a, b=self.b, c=self.c)
        _require_int(q=self.q, low=2, rule="at least 2")


@dataclass(frozen=True)
class BoundsReport:
    K: int
    L: int
    T: int
    ineq1: int
    # None when neither applicability condition holds for the second bound.
    ineq2: Optional[int]
    # Which conditions made ineq2 applicable: "KL_large" for
    # 3*max(K,L) + 3T - 2 < KL, "square" for 2 <= K = L.
    ineq2_conditions: tuple[str, ...]
    ineq3: int
    entry_bound_alpha: Optional[int] = None
    entry_bound_beta: Optional[int] = None
    # e in the operational threshold q**e - 2, kept symbolic: the power can
    # run to gigabytes.
    threshold_exponent: Optional[int] = None

    @property
    def best(self) -> int:
        return max(v for v in (self.ineq1, self.ineq2, self.ineq3) if v is not None)


def lower_bounds(K: int, L: int, T: int) -> BoundsReport:
    """All three lower bounds on the distinct-entry count for (K, L, T).

    ineq1 always holds; ineq2 is ineq1 + 1 but only applies when the table is
    lopsided (3*max(K,L) + 3T - 2 < KL) or square with K = L >= 2; ineq3
    trades the max(K, L) term for K + L minus a collusion rebate and is the
    strongest of the three exactly when T*T < min(K, L).
    """
    _require_int(K=K, L=L, T=T)
    m = max(K, L)
    ineq1 = K * L + m + 2 * T - 1
    conditions = []
    if 3 * m + 3 * T - 2 < K * L:
        conditions.append("KL_large")
    if 2 <= K == L:
        conditions.append("square")
    ineq2 = K * L + m + 2 * T if conditions else None
    ineq3 = K * L + K + L + 2 * T - 1 - T * min(K, L, T)
    return BoundsReport(
        K=K, L=L, T=T,
        ineq1=ineq1, ineq2=ineq2, ineq2_conditions=tuple(conditions), ineq3=ineq3,
    )


def full_report(K: int, L: int, T: int, dims: Optional[MatrixDims] = None) -> BoundsReport:
    """One report with the lower bounds, entry bounds, and threshold together."""
    eb = entry_upper_bounds(K, L, T)
    return replace(
        lower_bounds(K, L, T),
        entry_bound_alpha=eb[0] if eb else None,
        entry_bound_beta=eb[1] if eb else None,
        threshold_exponent=threshold_exponent(dims) if dims is not None else None,
    )


def entry_upper_bounds(K: int, L: int, T: int) -> Optional[tuple[int, int]]:
    """Largest exponents an optimal normal table can need, when T dominates.

    Returns (bound on max alpha entry, bound on max beta entry) when
    2KL - K - L - min(K, L) + 3 <= T, None otherwise (for smaller T no
    comparable unconditional bound is available and searches must rely on
    the fixed-prefix route or the threshold).
    """
    _require_int(K=K, L=L, T=T)
    if 2 * K * L - K - L - min(K, L) + 3 <= T:
        return (2 * K * L + T - 1 - L, 2 * K * L + T - 1 - K)
    return None


def census_bounds(K: int, L: int, T: int, entry_bound: Optional[EntryBound] = None) -> tuple[int, int]:
    """The (alpha, beta) entry bounds of a census: the proven ones for None,
    refused where none is proven; an int on both sides; a pair as given."""
    proven = entry_upper_bounds(K, L, T)
    if entry_bound is None:
        if proven is None:
            raise DomainError("no proven entry bound for these parameters;"
                              " pass --entry-bound (entry_bound= from Python) to override")
        return proven
    pair = (entry_bound, entry_bound) if isinstance(entry_bound, int) else entry_bound
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(type(b) is int and b >= 0 for b in pair)):
        raise DomainError(f"entry bound must be a non-negative int or a pair of them, got {entry_bound!r}")
    return tuple(pair)


def largeT_entry_bound(table: DegreeTable, n: int) -> Optional[tuple[int, int]]:
    """Entry bounds for a specific normal table with known count n.

    When n <= K + L + min(K, L) + 3T - 3 - delta (delta is 1 when both sides
    share the same maximum), the maxima are bounded by (n - L - T, n - K - T).
    Returns None when the count is too large for the argument to apply.
    Non-normal tables are rejected: the derivation leans on both minima
    being 0 and the gcd being 1.
    """
    if not is_normal(table):
        raise DomainError("largeT_entry_bound requires a normal table")
    K, L, T = table.K, table.L, table.T
    delta = 1 if max(table.alpha) == max(table.beta) else 0
    if n <= K + L + min(K, L) + 3 * T - 3 - delta:
        return (n - L - T, n - K - T)
    return None


def threshold_exponent(dims: MatrixDims) -> int:
    """e = 2abc - ac, so that the operational threshold is q**e - 2."""
    return 2 * dims.a * dims.b * dims.c - dims.a * dims.c


def operational_threshold(dims: MatrixDims) -> int:
    """Exponent size beyond which encoding costs more than trivial transfer.

    Exact big integer q**(2abc - ac) - 2; can be astronomically large, which
    is the point: honest tables never get near it.
    """
    return dims.q ** threshold_exponent(dims) - 2

