"""Communication costs of the two partitioning strategies.

Outer partitioning cuts A into K row blocks and B into L column blocks and
needs N_O servers; inner partitioning cuts both along the shared dimension
into M pieces and needs N_I.  Costs count field elements uploaded and
downloaded.  The asymptotic comparison tracks only growth exponents in a
single parameter n, with the collusion level held constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .degree_table import DomainError, _require_int


def _frac(x) -> Fraction:
    if isinstance(x, float):
        raise DomainError("exponents must be exact rationals, not floats")
    if not isinstance(x, Rational):
        raise DomainError(f"not a rational: {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class CostExponents:
    """Growth exponents: a ~ n^e_a and so on, all non-negative.

    The block counts cannot outgrow the dimensions they split (e_k <= e_a,
    e_l <= e_c, e_m <= e_b) and inner partitioning splits the shared
    dimension on both sides at once, so e_m = e_k + e_l.
    """

    e_a: Fraction
    e_b: Fraction
    e_c: Fraction
    e_k: Fraction
    e_l: Fraction
    e_m: Fraction

    def __post_init__(self):
        for name in ("e_a", "e_b", "e_c", "e_k", "e_l", "e_m"):
            v = _frac(getattr(self, name))
            object.__setattr__(self, name, v)
            if v < 0:
                raise DomainError(f"{name} must be non-negative, got {v}")
        if self.e_k > self.e_a:
            raise DomainError("e_k exceeds e_a")
        if self.e_l > self.e_c:
            raise DomainError("e_l exceeds e_c")
        if self.e_m > self.e_b:
            raise DomainError("e_m exceeds e_b")
        if self.e_k + self.e_l != self.e_m:
            raise DomainError("e_m must equal e_k + e_l")


@dataclass(frozen=True)
class CostReport:
    u_outer: Fraction
    d_outer: Fraction
    u_inner: Fraction
    d_inner: Fraction

    @property
    def total_outer(self) -> Fraction:
        return self.u_outer + self.d_outer

    @property
    def total_inner(self) -> Fraction:
        return self.u_inner + self.d_inner


def concrete_costs(a: int, b: int, c: int, K: int, L: int, M: int,
                   n_outer: int, n_inner: int) -> CostReport:
    """Exact upload/download totals for both partitionings.

    No divisibility is required; non-dividing block counts simply give
    fractional per-server sizes, which is still the right aggregate.
    """
    _require_int(a=a, b=b, c=c, K=K, L=L, M=M, N_O=n_outer, N_I=n_inner)
    return CostReport(
        u_outer=n_outer * (Fraction(a * b, K) + Fraction(b * c, L)),
        d_outer=n_outer * Fraction(a * c, K * L),
        u_inner=n_inner * Fraction(a * b + b * c, M),
        d_inner=n_inner * Fraction(a * c),
    )


def asymptotic_compare(e: CostExponents) -> tuple[Fraction, Fraction, bool]:
    """Total-communication growth exponents and which strategy wins.

    Returns (outer_exponent, inner_exponent, outer_wins).  The predicate
    e_b <= min(e_a + e_l, e_c + e_k) matches the exponent comparison
    whenever e_k and e_l are strictly positive; with a degenerate zero
    exponent the exponents can tie while the predicate says inner.
    """
    outer = max(e.e_a + e.e_b + e.e_l, e.e_b + e.e_c + e.e_k, e.e_a + e.e_c)
    inner = max(e.e_a + e.e_b, e.e_b + e.e_c, e.e_a + e.e_c + e.e_m)
    wins = e.e_b <= min(e.e_a + e.e_l, e.e_c + e.e_k)
    return outer, inner, wins
