"""Equivalence of degree tables: squeezing, scaling, and canonical forms.

Two tables are equivalent when one arises from the other by permuting the
entries within each of the four blocks, shifting all alpha entries by a
common constant and all beta entries by another, and scaling everything by a
common nonzero rational (results must stay nonnegative integers).  Equivalent
tables have the same distinct-entry count, so search and census code only
ever has to look at one representative per class.

Squeezing closes oversized gaps: whenever the alpha values split into a low
group and a high group so far apart that no table entry from the low rows can
collide with the high rows, the whole high group can slide down until the gap
no longer qualifies, without changing the entry count.  Repeating until no gap
qualifies gives a table whose consecutive sorted gaps are bounded by the other
side's spread, which is what makes exhaustive searches finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Optional, Union

from .degree_table import DegreeTable, DomainError

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class SqueezeStep:
    """One applied gap-closing step.

    kind is "alpha_op" or "beta_op"; index is the 0-based position i in the
    sorted value list of the squeezed side whose gap to position i+1
    triggered; threshold is that i-th smallest value; affected lists the
    0-based positions (into the concatenated prefix|suffix vector) whose
    entries got decreased, each by ``by``.
    """

    kind: str
    index: int
    threshold: int
    affected: tuple[int, ...]
    by: int


def squeeze_step(table: DegreeTable) -> Optional[tuple[DegreeTable, SqueezeStep]]:
    """Close the first feasible gap, smallest index first, in one move.

    The alpha side is scanned before the beta side, which is the alpha side
    of the transpose; at most one side can have a feasible gap at a time, so
    the order only fixes determinism, not the outcome.  Entries strictly
    above the gap's low endpoint drop by the gap's whole excess, wherever
    they sit in the vector: the same table as that many unit slides, since
    a slide leaves the smaller gaps and the other side alone.
    """
    for kind, t in (("alpha_op", table), ("beta_op", transpose(table))):
        alpha, beta = t.alpha, t.beta
        vals = sorted(alpha)
        b, big_b = min(beta), max(beta)
        for i in range(len(vals) - 1):
            by = vals[i + 1] - 1 + b - vals[i] - big_b
            if by > 0:
                new_alpha = tuple(v - by if v > vals[i] else v for v in alpha)
                new = replace(t, alpha_p=new_alpha[: t.K], alpha_s=new_alpha[t.K:])
                affected = tuple(j for j, v in enumerate(alpha) if v > vals[i])
                step = SqueezeStep(kind=kind, index=i, threshold=vals[i], affected=affected, by=by)
                return (new if kind == "alpha_op" else transpose(new)), step
    return None


def squeeze(table: DegreeTable) -> tuple[DegreeTable, tuple[SqueezeStep, ...]]:
    """Close gaps until none is feasible; returns the result and the trace.

    Terminates because every step strictly decreases the entry sum.  The
    final table does not depend on the order steps were tried in; the trace
    does, and records the deterministic smallest-index-first order.
    """
    steps = []
    while True:
        nxt = squeeze_step(table)
        if nxt is None:
            return table, tuple(steps)
        table, step = nxt
        steps.append(step)


@dataclass(frozen=True)
class EquivalenceTransform:
    """scale * (block-permuted table + per-side shift).

    Shifts apply before scaling: alpha entries map to
    scale * (alpha[perm[i]] + shift_alpha), beta entries analogously.  Scale
    and shifts are ints or Fractions, not floats, strings or bools (scale
    nonzero, negative allowed); the transform applies only when every result
    is a nonnegative integer, which apply_transform checks after the fact.
    """

    scale: Rational = 1
    shift_alpha: Rational = 0
    shift_beta: Rational = 0
    perm_alpha_p: Optional[tuple[int, ...]] = None
    perm_alpha_s: Optional[tuple[int, ...]] = None
    perm_beta_p: Optional[tuple[int, ...]] = None
    perm_beta_s: Optional[tuple[int, ...]] = None


def _check_perm(perm: tuple[int, ...], n: int, name: str) -> tuple[int, ...]:
    if perm is None:
        return tuple(range(n))
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{name} is not a permutation of 0..{n - 1}: {perm!r}")
    return tuple(perm)


def apply_transform(table: DegreeTable, tf: EquivalenceTransform) -> DegreeTable:
    """Apply an equivalence transform, rejecting non-integral or negative results.

    Entries are mapped in integers: with scale a/b and a side's shift c/e in
    lowest terms, entry v goes to divmod(a * (v * e + c), b * e), which must
    leave no remainder and a nonnegative quotient.
    """
    for name in ("scale", "shift_alpha", "shift_beta"):
        if type(v := getattr(tf, name)) is bool or not isinstance(v, Rational):
            raise DomainError(f"{name} must be an exact rational, got {v!r}")
    scale = Fraction(tf.scale)
    if scale == 0:
        raise DomainError("scale must be nonzero")
    a, b = scale.numerator, scale.denominator
    sa, sb = Fraction(tf.shift_alpha), Fraction(tf.shift_beta)

    def mapped(vec, perm, shift):
        c, e = shift.numerator, shift.denominator
        out = []
        for i in perm:
            v, rem = divmod(a * (vec[i] * e + c), b * e)
            if rem or v < 0:
                raise DomainError(f"transform gives non-integer or negative entry {scale * (vec[i] + shift)}")
            out.append(v)
        return tuple(out)

    pap = _check_perm(tf.perm_alpha_p, table.K, "perm_alpha_p")
    pas = _check_perm(tf.perm_alpha_s, table.T, "perm_alpha_s")
    pbp = _check_perm(tf.perm_beta_p, table.L, "perm_beta_p")
    pbs = _check_perm(tf.perm_beta_s, table.T, "perm_beta_s")
    return DegreeTable(
        K=table.K, L=table.L, T=table.T,
        alpha_p=mapped(table.alpha_p, pap, sa),
        alpha_s=mapped(table.alpha_s, pas, sa),
        beta_p=mapped(table.beta_p, pbp, sb),
        beta_s=mapped(table.beta_s, pbs, sb),
    )


def transpose(table: DegreeTable) -> DegreeTable:
    """Swap the roles of the two sides (rows become columns)."""
    return DegreeTable(
        K=table.L, L=table.K, T=table.T,
        alpha_p=table.beta_p, alpha_s=table.beta_s,
        beta_p=table.alpha_p, beta_s=table.alpha_s,
    )


def normal(table: DegreeTable) -> DegreeTable:
    """Sort each block, shift each side's minimum to 0, divide out the gcd.

    The apply_transform that sorts by permutation, shifts by minus each
    side's minimum and scales by 1/g.  The gcd g is taken over ALL entries
    of both sides after the shift; a table of all zeros (structurally
    impossible for valid tables) would keep divisor 1.
    """
    alpha, beta = table.alpha, table.beta
    ma, mb = min(alpha), min(beta)
    g = math.gcd(*(v - ma for v in alpha), *(v - mb for v in beta)) or 1
    perms = (tuple(sorted(range(len(b)), key=b.__getitem__))
             for b in (table.alpha_p, table.alpha_s, table.beta_p, table.beta_s))
    return apply_transform(table, EquivalenceTransform(Fraction(1, g), -ma, -mb, *perms))


def is_normal(table: DegreeTable) -> bool:
    ap, as_, bp, bs = table.alpha_p, table.alpha_s, table.beta_p, table.beta_s
    # sorted() runs in C and is linear on a sorted block: faster than any
    # pairwise scan in Python over the blocks seen in practice
    for b in (ap, as_, bp, bs):
        if list(b) != sorted(b):
            return False
    if min(ap[0], as_[0]) != 0 or min(bp[0], bs[0]) != 0:
        return False
    g = math.gcd(*ap)
    for b in (as_, bp, bs):
        if g == 1:
            return True
        g = math.gcd(g, *b)
    return g in (0, 1)


def negate(table: DegreeTable) -> DegreeTable:
    """Reflect every entry through the global maximum (x -> max - x).

    The apply_transform with scale -1 and shift -max on both sides.  Entry
    sums map through 2*max - s, a bijection, so the distinct-entry count is
    untouched even though the table usually looks very different.
    """
    m = max(max(table.alpha), max(table.beta))
    return apply_transform(table, EquivalenceTransform(-1, -m, -m))


def canonical(table: DegreeTable) -> DegreeTable:
    """The lexicographically smaller of normal(t) and normal(negate(normal(t))).

    This is a class invariant: any two equivalent tables (including through
    negation) canonicalize to the same table, and canonical is idempotent.
    Comparison key is alpha_p|alpha_s|beta_p|beta_s.  The negated branch maps
    each block of n, reversed, by v -> max(side) - v (minimum 0, gcd 1 kept;
    the maxima are the sorted blocks' last entries).  Its key is compared
    with a lazy chain of n's blocks as both are generated, and its blocks are
    built only when it wins.
    """
    n = table if is_normal(table) else normal(table)
    ma, mb = max(n.alpha_p[-1], n.alpha_s[-1]), max(n.beta_p[-1], n.beta_s[-1])
    blocks = ((ma, n.alpha_p), (ma, n.alpha_s), (mb, n.beta_p), (mb, n.beta_s))
    negated = (m - v for m, block in blocks for v in reversed(block))
    key = chain(n.alpha_p, n.alpha_s, n.beta_p, n.beta_s)
    first = next(((v, u) for v, u in zip(key, negated) if v != u), None)
    if first is None or first[0] < first[1]:
        return n
    return DegreeTable(n.K, n.L, n.T, *(tuple(m - v for v in reversed(block)) for m, block in blocks))
