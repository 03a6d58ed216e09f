"""Reference kernels for the protocol layer.

One plain Gauss-Jordan loop on lists of ints (`_gauss_jordan`), reducing every
entry after every row operation, answers both questions the protocol asks of
a matrix: what `solve` gives and whether it `is_invertible`.  On it run the
decode that solves the decode matrix from scratch, point selection and the
security audit testing each T x T block on its own, and `_mask_side`'s
verdict for one subset.  The list-of-ints `mat_combine` and `mat_mul` are the products
`field.py` replaced with packed-integer rows, and `_dependent_subsets` is the
exhaustive audit's DFS as it was with one dot product per leaf.  Point
selection and the audit take their subsets from `sdmm._subsets`, which
test_sdmm.py tests directly, so the differential tests in test_field.py and
test_sdmm.py compare the shared kernels against these result for result: the
same products and solutions, the same points, verdicts and dependent subsets,
and the same audit reports.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from gasptables.degree_table import DegreeTable, DomainError, count_distinct, sumset
from gasptables.field import Matrix, PrimeField, next_prime
from gasptables.sdmm import (
    EXHAUSTIVE_SUBSET_LIMIT,
    MAX_POINT_RETRIES,
    SAMPLED_SUBSET_COUNT,
    SELECTION_SAMPLES,
    SdmmInstance,
    SecurityReport,
    _subsets,
)


def mat_combine(field: PrimeField, weights: Sequence[int], mats: Sequence[Matrix]) -> Matrix:
    """sum(w * m for w, m in zip(weights, mats)), reduced once per entry."""
    q = field.q
    out = []
    for rows in zip(*mats):
        acc = [0] * len(rows[0])
        for w, row in zip(weights, rows):
            acc = [a + w * v for a, v in zip(acc, row)]
        out.append(tuple(a % q for a in acc))
    return tuple(out)


def mat_mul(field: PrimeField, a: Matrix, b: Matrix) -> Matrix:
    q = field.q
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % q for col in bt)
        for row in a
    )


def _gauss_jordan(q: int, rows: list[list[int]]) -> Optional[list[list[int]]]:
    """``rows`` reduced in place over GF(q) until their first n columns (n rows)
    are the identity, or None if those columns are singular: each column's
    pivot is the first row left that is nonzero there, scaled to 1 and cleared
    from every other row."""
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] % q), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, q)
        rows[col] = [v * inv % q for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] % q:
                f = rows[r][col]
                rows[r] = [(v - f * p) % q for v, p in zip(rows[r], rows[col])]
    return rows


def solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field by `_gauss_jordan` on the augmented rows; None if m is singular."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("solve needs a square matrix")
    if len(rhs) != n:
        raise DomainError("rhs row count mismatch")
    reduced = _gauss_jordan(field.q, [list(mr) + list(rr) for mr, rr in zip(m, rhs)])
    return None if reduced is None else tuple(tuple(row[n:]) for row in reduced)


def is_invertible(field: PrimeField, m: Matrix) -> bool:
    """Whether the square matrix m is invertible: whether `_gauss_jordan` reduces it."""
    return _gauss_jordan(field.q, [list(row) for row in m]) is not None


def decode(inst: SdmmInstance) -> Optional[dict[tuple[int, int], Matrix]]:
    """The product blocks, keyed (k, l), interpolated from the responses by a
    fresh `solve` of the decode matrix built entry by entry; None when that
    matrix is singular."""
    tab, fld = inst.table, inst.field
    degrees = _degrees(tab)
    rhs = tuple(tuple(val for row in resp for val in row) for resp in inst.responses)
    coeffs = solve(fld, tuple(map(tuple, _suffix_rows(fld, inst.points, degrees))), rhs)
    if coeffs is None:
        return None
    a, _, c = inst.dims
    ra, cl = a // tab.K, c // tab.L
    return {(k, l): tuple(coeffs[degrees.index(ak + bl)][i * cl:(i + 1) * cl] for i in range(ra))
            for k, ak in enumerate(tab.alpha_p) for l, bl in enumerate(tab.beta_p)}


def _degrees(table: DegreeTable) -> list[int]:
    return sorted(sumset(table.alpha, table.beta))


def _suffix_rows(field: PrimeField, points, exps) -> list[list[int]]:
    return [[field.pow(x, e) for e in exps] for x in points]


def _subset_ok(field: PrimeField, rows, subset) -> bool:
    return is_invertible(field, [rows[i] for i in subset])


def choose_field_and_points(
    table: DegreeTable,
    base_q: int = 2,
    seed: int = 0,
    selection_samples: int = SELECTION_SAMPLES,
    max_retries: int = MAX_POINT_RETRIES,
) -> tuple[PrimeField, tuple[int, ...]]:
    """Pick a prime field and N distinct nonzero evaluation points.

    q is the smallest prime at least max(base_q, M + 2, N + 1) where M is the
    largest table entry, so exponent arithmetic mod q - 1 cannot merge two
    distinct degrees.  Candidate point sets are rejection-sampled until the
    decode matrix and the T x T security submatrices of every subset, or of
    ``selection_samples`` drawn ones, are all invertible.
    """
    count_distinct(table)
    degrees = _degrees(table)
    n = len(degrees)
    m_big = degrees[-1]
    q = next_prime(max(base_q, m_big + 2, n + 1))
    fld = PrimeField(q)
    t = table.T
    rng = random.Random(f"points:{seed}")
    for _ in range(max_retries):
        pts = tuple(sorted(rng.sample(range(1, q), n)))
        v = tuple(tuple(fld.pow(x, d) for d in degrees) for x in pts)
        if not is_invertible(fld, v):
            continue
        rows_a = _suffix_rows(fld, pts, table.alpha_s)
        rows_b = _suffix_rows(fld, pts, table.beta_s)
        subsets = _subsets(n, t, selection_samples, selection_samples, rng)
        if all(_subset_ok(fld, rows_a, s) and _subset_ok(fld, rows_b, s)
               for s in (combinations(range(n), t) if subsets is None else subsets)):
            return fld, pts
    raise DomainError(
        f"no usable evaluation points after {max_retries} attempts over GF({q});"
        " retry with a larger base_q"
    )


def security_check(inst: SdmmInstance, mode: str = "auto", seed: int = 0) -> SecurityReport:
    """Verify the T x T mask submatrices are invertible for server subsets.

    Every subset is tried when there are at most EXHAUSTIVE_SUBSET_LIMIT of
    them in mode "auto", at most SAMPLED_SUBSET_COUNT, or when ``mode="all"``
    forces it; otherwise SAMPLED_SUBSET_COUNT distinct subsets are drawn.  A
    failure names the offending subset and which side leaked.  Both constants
    are read from this module: a test that patches sdmm's patches them here too.
    """
    if mode not in ("auto", "all", "sampled"):
        raise DomainError(f"unknown mode {mode!r}")
    fld = inst.field
    tab = inst.table
    n = inst.n_servers
    t = tab.T
    total = math.comb(n, t)
    rows_a = _suffix_rows(fld, inst.points, tab.alpha_s)
    rows_b = _suffix_rows(fld, inst.points, tab.beta_s)
    if mode == "all" or (mode == "auto" and total <= EXHAUSTIVE_SUBSET_LIMIT) or total <= SAMPLED_SUBSET_COUNT:
        subsets = combinations(range(n), t)
        checked = total
    else:
        subsets = _subsets(n, t, -1, SAMPLED_SUBSET_COUNT, random.Random(f"security:{seed}"))
        checked = SAMPLED_SUBSET_COUNT
    failures = []
    for s in subsets:
        if not _subset_ok(fld, rows_a, s):
            failures.append((s, "alpha"))
        if not _subset_ok(fld, rows_b, s):
            failures.append((s, "beta"))
    return SecurityReport(total_subsets=total, checked=checked, failures=tuple(failures))


def _dependent_subsets(q: int, rows, t: int):
    """Every linearly dependent t-subset of ``rows``, in lexicographic order, from
    one DFS that carries a basis of the vectors orthogonal to the prefix's rows: a
    row is in their span iff orthogonal to all of them, so a leaf costs one dot
    product, and the completions of a dependent prefix need no work at all."""
    n = len(rows)

    def walk(prefix, basis, lo):
        for i in range(lo, n - t + len(prefix) + 1):
            dots = [sum(map(mul, rows[i], w)) % q for w in basis]
            if not any(dots):
                s = prefix + (i,)
                yield from (s + rest for rest in combinations(range(i + 1, n), t - len(s)))
            elif len(basis) > 1:
                # Clear row i's dot from the other basis vectors with the first nonzero one.
                j = next(k for k, d in enumerate(dots) if d)
                f = pow(dots[j], q - 2, q)
                rest = [[(a - d * f * b) % q for a, b in zip(w, basis[j])]
                        for k, (w, d) in enumerate(zip(basis, dots)) if k != j]
                yield from walk(prefix + (i,), rest, i + 1)

    return walk((), [[int(i == j) for j in range(t)] for i in range(t)], 0)


def _mask_side(field: PrimeField, points, exps):
    """None when no T x T block of this side can be singular, else (leaks, every):
    leaks(s) tests one subset, every() yields the singular ones in lexicographic
    order.  Exponents a, a+d, ... give blocks diag(x^a) Vandermonde(x^d), singular iff
    two points share x^d; a zero point (field.pow takes 0^0 as 1) is eliminated."""
    t, n = len(exps), len(points)
    steps = {b - a for a, b in zip(exps, exps[1:])}
    if len(steps) <= 1 and all(x % field.q for x in points):
        y = [field.pow(x, max(steps, default=1)) for x in points]
        leaks = lambda s: len({y[i] for i in s}) < t
        return None if len(set(y)) == n else (leaks, lambda: filter(leaks, combinations(range(n), t)))
    rows = _suffix_rows(field, points, exps)
    return (lambda s: not _subset_ok(field, rows, s), lambda: _dependent_subsets(field.q, rows, t))
