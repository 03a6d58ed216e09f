"""Reference kernels for the table calculus.

These are the earlier implementations of `degree_table._check`,
`degree_table._as_exponent_vector`, `equivalence.apply_transform` (one
`Fraction` per entry), `equivalence.normal` and `equivalence.negate` (each
block built by hand), `equivalence.canonical`, `equivalence.is_normal` and
`equivalence.squeeze_step`.  They count every
cell of Set(alpha) x Set(beta) in a Counter, check each entry of a block one
at a time, build the negated branch of the canonical form through `negate`
and `normal`, take min and gcd over both sides concatenated, and scan the
beta side for a squeeze gap in a loop of its own, sliding the high group down
one unit per step, so the differential tests in test_degree_table.py and
test_equivalence.py compare the bitset pass, the one-pass structural check,
the direct negated branch, the block-wise normal check and the one-loop,
whole-gap squeeze over a table and its transpose against them.  `score_bruteforce`
is the direct-enumeration collision score that test_degree_table.py and
test_gasp.py compare the closed form against.
The hypothesis strategies below draw the tables those tests share.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable, Optional

from hypothesis import strategies as st

from gasptables.degree_table import (
    _SPARSE_RATIO,
    DegreeTable,
    DomainError,
    ExponentVector,
    ScoreBreakdown,
    ValidationReport,
    sumset,
)
from gasptables.equivalence import EquivalenceTransform, SqueezeStep, _check_perm


def _as_exponent_vector(name: str, values: Iterable[int]) -> ExponentVector:
    vec = tuple(values)
    if len(vec) == 0:
        raise ValueError(f"{name} must be nonempty")
    for v in vec:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"{name} entries must be integers, got {v!r}")
        if v < 0:
            raise ValueError(f"{name} entries must be nonnegative, got {v}")
    return vec


def _check(table: DegreeTable) -> tuple[ValidationReport, int]:
    """validate()'s report and the table's distinct-entry count, in one pass.

    D3 is checked by counting, over Set(alpha) x Set(beta), the
    representations of each value in the prefix sumset; the first value with
    two or more is recorded as the witness.  The counter's keys are exactly
    the distinct entries.
    """
    d1 = len(set(table.alpha)) == len(table.alpha)
    d2 = len(set(table.beta)) == len(table.beta)
    sa, sb = set(table.alpha), set(table.beta)
    reps = Counter(x + y for x in sa for y in sb)
    witness = None
    for n in sorted(sumset(table.alpha_p, table.beta_p)):
        if reps[n] != 1:
            witness = n
            break
    return ValidationReport(d1_ok=d1, d2_ok=d2, d3_ok=witness is None, d3_witness=witness), len(reps)


def apply_transform(table: DegreeTable, tf: EquivalenceTransform) -> DegreeTable:
    """Apply an equivalence transform, rejecting non-integral results."""
    scale = Fraction(tf.scale)
    if scale == 0:
        raise DomainError("scale must be nonzero")
    sa, sb = Fraction(tf.shift_alpha), Fraction(tf.shift_beta)

    def mapped(vec, perm, shift):
        out = []
        for i in perm:
            v = scale * (vec[i] + shift)
            if v.denominator != 1 or v < 0:
                raise DomainError(f"transform gives non-integer or negative entry {v}")
            out.append(int(v))
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


def normal(table: DegreeTable) -> DegreeTable:
    """Sort each block, shift each side's minimum to 0, divide out the gcd.

    The gcd is taken over ALL entries of both sides after the shift; a table
    of all zeros (structurally impossible for valid tables) would keep
    divisor 1.
    """
    ap, as_, bp, bs = (sorted(table.alpha_p), sorted(table.alpha_s),
                       sorted(table.beta_p), sorted(table.beta_s))
    ma, mb = min(ap[0], as_[0]), min(bp[0], bs[0])
    ap = [v - ma for v in ap]
    as_ = [v - ma for v in as_]
    bp = [v - mb for v in bp]
    bs = [v - mb for v in bs]
    g = math.gcd(*ap, *as_, *bp, *bs)
    if g == 0:
        g = 1
    return DegreeTable(
        K=table.K, L=table.L, T=table.T,
        alpha_p=tuple(v // g for v in ap), alpha_s=tuple(v // g for v in as_),
        beta_p=tuple(v // g for v in bp), beta_s=tuple(v // g for v in bs),
    )


def negate(table: DegreeTable) -> DegreeTable:
    """Reflect every entry through the global maximum (x -> max - x)."""
    m = max(max(table.alpha), max(table.beta))
    return DegreeTable(
        K=table.K, L=table.L, T=table.T,
        alpha_p=tuple(m - v for v in table.alpha_p),
        alpha_s=tuple(m - v for v in table.alpha_s),
        beta_p=tuple(m - v for v in table.beta_p),
        beta_s=tuple(m - v for v in table.beta_s),
    )


def _lex_key(table: DegreeTable) -> tuple[int, ...]:
    return table.alpha_p + table.alpha_s + table.beta_p + table.beta_s


def canonical(table: DegreeTable) -> DegreeTable:
    """The lexicographically smaller of normal(t) and normal(negate(normal(t))).

    This is a class invariant: any two equivalent tables (including through
    negation) canonicalize to the same table, and canonical is idempotent.
    Comparison key is the concatenation alpha_p|alpha_s|beta_p|beta_s.
    """
    n = normal(table)
    m = normal(negate(n))
    return n if _lex_key(n) <= _lex_key(m) else m


def is_normal(table: DegreeTable) -> bool:
    blocks = (table.alpha_p, table.alpha_s, table.beta_p, table.beta_s)
    if any(list(b) != sorted(b) for b in blocks):
        return False
    if min(table.alpha) != 0 or min(table.beta) != 0:
        return False
    return math.gcd(*table.alpha, *table.beta) in (0, 1)


def _decrement_above(vec: tuple[int, ...], threshold: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    new = tuple(v - 1 if v > threshold else v for v in vec)
    affected = tuple(i for i, v in enumerate(vec) if v > threshold)
    return new, affected


def squeeze_step(table: DegreeTable) -> Optional[tuple[DegreeTable, SqueezeStep]]:
    """Apply one gap-closing step if any is feasible, smallest index first."""
    alpha, beta = table.alpha, table.beta

    vals = sorted(alpha)
    b, big_b = min(beta), max(beta)
    for i in range(len(vals) - 1):
        if vals[i] + big_b < vals[i + 1] - 1 + b:
            new_alpha, affected = _decrement_above(alpha, vals[i])
            step = SqueezeStep(kind="alpha_op", index=i, threshold=vals[i], affected=affected, by=1)
            new = DegreeTable(
                K=table.K, L=table.L, T=table.T,
                alpha_p=new_alpha[: table.K], alpha_s=new_alpha[table.K:],
                beta_p=table.beta_p, beta_s=table.beta_s,
            )
            return new, step

    vals = sorted(beta)
    a, big_a = min(alpha), max(alpha)
    for i in range(len(vals) - 1):
        if vals[i] + big_a < vals[i + 1] - 1 + a:
            new_beta, affected = _decrement_above(beta, vals[i])
            step = SqueezeStep(kind="beta_op", index=i, threshold=vals[i], affected=affected, by=1)
            new = DegreeTable(
                K=table.K, L=table.L, T=table.T,
                alpha_p=table.alpha_p, alpha_s=table.alpha_s,
                beta_p=new_beta[: table.L], beta_s=new_beta[table.L:],
            )
            return new, step

    return None


def score_bruteforce(table: DegreeTable) -> ScoreBreakdown:
    """Count suffix-row collisions by direct enumeration.

    Rows are scanned top-down, prefix columns before suffix columns within a
    row, maintaining the set of values seen so far.  No validity is assumed;
    on the standard constructions this reproduces the closed-form score.
    """
    seen = set(sumset(table.alpha_p, table.beta))
    left, right = [], []
    for a in table.alpha_s:
        row_p = {a + b for b in table.beta_p}
        left.append(sum(1 for v in row_p if v in seen))
        seen |= row_p
        row_s = {a + b for b in table.beta_s}
        right.append(sum(1 for v in row_s if v in seen))
        seen |= row_s
    return ScoreBreakdown(left=tuple(left), right=tuple(right))


def _table(K: int, L: int, T: int, alpha: list[int], beta: list[int]) -> DegreeTable:
    return DegreeTable(K=K, L=L, T=T, alpha_p=alpha[:K], alpha_s=alpha[K:],
                       beta_p=beta[:L], beta_s=beta[L:])


@st.composite
def tables(draw, entries=st.integers(0, 30), dims=st.integers(1, 4)):
    """Tables with K, L, T drawn from dims and every entry from entries."""
    K, L, T = draw(dims), draw(dims), draw(dims)
    alpha = draw(st.lists(entries, min_size=K + T, max_size=K + T))
    beta = draw(st.lists(entries, min_size=L + T, max_size=L + T))
    return _table(K, L, T, alpha, beta)


@st.composite
def mirrored_tables(draw, entries=st.integers(0, 30)):
    """Tables whose blocks each hold drawn values and their reflections
    through the side's center, so a table and its negation normalise alike."""
    K, L, T = (2 * draw(st.integers(1, 3)) for _ in range(3))
    ma, mb = draw(entries), draw(entries)

    def block(m: int, n: int) -> list[int]:
        half = draw(st.lists(st.integers(0, m), min_size=n // 2, max_size=n // 2))
        return sorted(half + [m - v for v in half])

    return _table(K, L, T, block(ma, K) + block(ma, T), block(mb, L) + block(mb, T))


@st.composite
def guard_tables(draw, over: int):
    """Tables whose largest entry sum is _SPARSE_RATIO times the larger of
    |Set(alpha)| and |Set(beta)|, plus over.

    Each alpha entry is drawn near 0 or near the largest one, so both ends of
    the table can collide.
    """
    K, L, T = (draw(st.integers(1, 4)) for _ in range(3))
    beta = draw(st.lists(st.integers(0, 40), min_size=L + T, max_size=L + T))
    # (False, v) is the entry v and (True, v) the entry top - v; the two
    # ranges never meet, so distinct spots are distinct entries.
    spot = st.tuples(st.booleans(), st.integers(0, 30))
    spots = draw(st.lists(spot, min_size=K + T, max_size=K + T))
    spots[draw(st.integers(0, K + T - 1))] = (True, 0)
    top = _SPARSE_RATIO * max(len(set(spots)), len(set(beta))) + over - max(beta)
    alpha = [top - v if high else v for high, v in spots]
    return _table(K, L, T, alpha, beta)


@st.composite
def progression_tables(draw, entries=st.integers(0, 30)):
    """Tables whose every block is an arithmetic progression: step -3..5 (0
    gives a constant block), length 1..6.  Each block starts near 0 or near
    one anchor drawn from entries, so blocks overlap within and across sides
    whether the anchor is small or far past the sparse guard."""
    K, L, T = (draw(st.integers(1, 6)) for _ in range(3))
    anchor = draw(entries)

    def block(n: int) -> list[int]:
        step = draw(st.integers(-3, 5))
        start = draw(st.sampled_from((0, anchor))) + draw(st.integers(0, 30)) + max(0, -step * (n - 1))
        return [start + step * i for i in range(n)]

    return _table(K, L, T, block(K) + block(T), block(L) + block(T))


@st.composite
def long_progression_tables(draw, fault=None):
    """Tables whose every block is an ascending progression of 4..40 terms,
    step 1..5, so each doubling in _check's rows runs two to five steps
    (progression_tables stops at 6 terms).  Suffixes start anywhere in
    0..400, so they may meet either prefix.  fault "repeat" starts one side's
    suffix on an entry of its prefix, so D1 or D2 fails; fault "collide"
    gives both prefixes one step, so their sums repeat and D3 fails."""
    K, L, T = (draw(st.integers(4, 40)) for _ in range(3))
    step = draw(st.integers(1, 5)) if fault == "collide" else None

    def block(n: int, start: int, s: Optional[int] = None) -> list[int]:
        s = s or draw(st.integers(1, 5))
        return [start + s * i for i in range(n)]

    ap, bp = block(K, draw(st.integers(0, 20)), step), block(L, draw(st.integers(0, 20)), step)
    suffixes = [block(T, draw(st.integers(0, 400))) for _ in range(2)]
    if fault == "repeat":
        side = draw(st.sampled_from((0, 1)))
        suffixes[side] = block(T, draw(st.sampled_from((ap, bp)[side])))
    return _table(K, L, T, ap + suffixes[0], bp + suffixes[1])


@st.composite
def repeated_tables(draw, entries=st.integers(0, 30)):
    """Tables with one entry copied to another position of the same side,
    so D1 or D2 fails."""
    t = draw(tables(entries))
    alpha, beta = list(t.alpha), list(t.beta)
    side = draw(st.sampled_from((alpha, beta)))
    i, j = draw(st.lists(st.integers(0, len(side) - 1), min_size=2, max_size=2, unique=True))
    side[j] = side[i]
    return _table(t.K, t.L, t.T, alpha, beta)


@st.composite
def colliding_tables(draw, entries=st.integers(0, 30)):
    """Tables where a prefix sum x + y has a second cell (x + d) + (y - d),
    so D3 fails."""
    t = draw(tables(entries))
    alpha, beta = list(t.alpha), list(t.beta)
    d = draw(st.integers(1, 10))
    i = draw(st.integers(0, t.K - 1))
    j = draw(st.integers(0, t.L - 1))
    i2 = draw(st.integers(0, len(alpha) - 1).filter(lambda k: k != i))
    j2 = draw(st.integers(0, len(beta) - 1).filter(lambda k: k != j))
    alpha[i] = draw(entries)
    beta[j] = draw(st.integers(d, d + 30))
    alpha[i2], beta[j2] = alpha[i] + d, beta[j] - d
    return _table(t.K, t.L, t.T, alpha, beta)
