"""End-to-end secure multiplication protocol driven by a degree table.

The outer-product scheme: A is cut into K row blocks, B into L column
blocks, both padded with T random masks, and each of the N servers gets one
evaluation of each masked polynomial.  Degrees come straight from the table:
prefix exponents carry data, suffix exponents carry masks.  Any T colluding
servers see T evaluations of the mask space only, which is why the T x T
selection submatrices have to stay invertible.

All arithmetic is exact over a prime field chosen large enough that every
table entry fits below q - 1 (so distinct exponents stay distinct under the
mod q - 1 reduction used during evaluation).
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import mul
from typing import Optional

from .degree_table import DegreeTable, DomainError, _require_int, require_valid, sumset
# perfbench's traced run wraps is_invertible, solve and mat_mul under these names here: keep them.
from .field import (Matrix, PrimeField, _factor, _lazy_pack, _shape, is_invertible, mat_combine, mat_mul,
                    next_prime, solve)

DEFAULT_SELECTION_SAMPLES = 50
MAX_POINT_RETRIES = 64
EXHAUSTIVE_SUBSET_LIMIT = 100_000
SAMPLED_SUBSET_COUNT = 10_000
# mode="all" refuses to enumerate more subsets than this.
MAX_EXHAUSTIVE_SUBSETS = 10**7


@dataclass(frozen=True)
class SdmmInstance:
    """Everything one protocol run needs, immutable once assembled."""

    field: PrimeField
    dims: tuple[int, int, int]
    table: DegreeTable
    a_mat: Matrix
    b_mat: Matrix
    r_masks: tuple[Matrix, ...]
    s_masks: tuple[Matrix, ...]
    points: tuple[int, ...]
    shares: tuple[tuple[Matrix, Matrix], ...]
    responses: tuple[Matrix, ...]

    @property
    def n_servers(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DecodeResult:
    product: Matrix
    blocks: dict[tuple[int, int], Matrix]


@dataclass(frozen=True)
class SecurityReport:
    total_subsets: int
    checked: int
    exhaustive: bool
    failures: tuple[tuple[tuple[int, ...], str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _shape_of(m: Matrix, what: str) -> tuple[int, int]:
    if not m or not m[0]:
        raise DomainError(f"{what} must be non-empty")
    return _shape(m, what)


def partition(a_mat: Matrix, b_mat: Matrix, K: int, L: int) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Split A into K row blocks and B into L column blocks.

    Dimensions must divide evenly; anything else is a caller error worth
    stopping on rather than silently padding.
    """
    a, b = _shape_of(a_mat, "A")
    b2, c = _shape_of(b_mat, "B")
    if b != b2:
        raise DomainError(f"inner dimensions differ: A is {a}x{b}, B is {b2}x{c}")
    if a % K:
        raise DomainError(f"A has {a} rows, not divisible by K={K}")
    if c % L:
        raise DomainError(f"B has {c} columns, not divisible by L={L}")
    ra, cl = a // K, c // L
    return (tuple(a_mat[k * ra:(k + 1) * ra] for k in range(K)),
            tuple(tuple(row[l * cl:(l + 1) * cl] for row in b_mat) for l in range(L)))


def _degrees(table: DegreeTable) -> list[int]:
    return sorted(sumset(table.alpha, table.beta))


def _powers(field: PrimeField, points, exps) -> Matrix:
    """x^e with one row per point x and one column per exponent e: where e steps
    by 1, x times the entry before it, else `PrimeField.pow`."""
    steps = [d + 1 == e for d, e in zip([-2, *exps], exps)]
    return tuple(tuple([v := v * x % field.q if step else field.pow(x, e) for e, step in zip(exps, steps)])
                 for x in points)


def _subsets(n: int, t: int, limit: int, samples: int, rng: random.Random, distinct: bool = True):
    """None (every t-subset of range(n)) if there are at most max(limit, samples),
    else ``samples`` sorted random draws, all made before the caller checks any;
    ``distinct`` redraws each repeat, so the draws before the first repeat are unchanged."""
    if math.comb(n, t) <= max(limit, samples):
        return None
    drawn = {}
    while len(drawn) < samples:
        s = tuple(sorted(rng.sample(range(n), t)))
        drawn[s if distinct else len(drawn)] = s
    return list(drawn.values())


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
    rows = _powers(field, points, exps)
    packed, layout = _lazy_pack(field.q, zip(rows), t, t)
    return (lambda s: _factor([packed[i] for i in s], layout, keep=False) is None,
            lambda: _dependent_subsets(field.q, rows, t))


def _leaks(field: PrimeField, points, table: DegreeTable, subsets):
    """Yield (subset, side), alpha first, for each singular T x T mask block: over
    ``subsets`` in order, or, when None, streamed over every T-subset in lexicographic order."""
    sides = [(side, check) for side, exps in (("alpha", table.alpha_s), ("beta", table.beta_s))
             if (check := _mask_side(field, points, exps))]
    if subsets is None:
        return heapq.merge(*(zip(every(), repeat(side)) for side, (_, every) in sides))
    return ((s, side) for s in subsets for side, (leaks, _) in sides if leaks(s))


def choose_field_and_points(
    table: DegreeTable,
    base_q: int = 2,
    seed: int = 0,
    selection_samples: int = DEFAULT_SELECTION_SAMPLES,
    max_retries: int = MAX_POINT_RETRIES,
) -> tuple[PrimeField, tuple[int, ...]]:
    """Pick a prime field and N distinct nonzero evaluation points.

    q is the smallest prime at least max(base_q, M + 2, N + 1) where M is the
    largest table entry, so exponent arithmetic mod q - 1 cannot merge two
    distinct degrees.  Candidate point sets are rejection-sampled until the
    decode matrix and a batch of randomly selected T x T security submatrices
    are all invertible; `decode` reuses the accepted decode matrix's factorisation.
    """
    require_valid(table)
    _require_int(selection_samples=selection_samples, max_retries=max_retries, rule="at least 1")
    degrees = _degrees(table)
    n = len(degrees)
    q = next_prime(max(base_q, degrees[-1] + 2, n + 1))
    fld = PrimeField(q)
    rng = random.Random(f"points:{seed}")
    for _ in range(max_retries):
        # range(1, q) has no len() past sys.maxsize; there a rare repeat costs a retry.
        pts = tuple(sorted(rng.sample(range(1, q), n) if q - 1 <= sys.maxsize
                           else {rng.randrange(1, q) for _ in range(n)}))
        if len(pts) < n or not is_invertible(fld, _powers(fld, pts, degrees)):
            continue
        # Drawn with replacement as always, so every seed keeps its points.
        subsets = _subsets(n, table.T, selection_samples, selection_samples, rng, distinct=False)
        if next(_leaks(fld, pts, table, subsets), None) is None:
            return fld, pts
    raise DomainError(
        f"no usable evaluation points after {max_retries} attempts over GF({q});"
        " retry with a larger base_q"
    )


def encode(field: PrimeField, table: DegreeTable, points, f_mats, g_mats) -> tuple[tuple[Matrix, Matrix], ...]:
    """Evaluate both masked polynomials at every point: server i gets
    (sum_j x_i^alpha_j F_j, sum_j x_i^beta_j G_j), one packed combine per side."""
    return tuple(zip(mat_combine(field, _powers(field, points, table.alpha), f_mats),
                     mat_combine(field, _powers(field, points, table.beta), g_mats)))


def server_compute(field: PrimeField, shares) -> tuple[Matrix, ...]:
    """Each server's response: the product of its two shares."""
    return tuple(mat_mul(field, f_sh, g_sh) for f_sh, g_sh in shares)


def build_instance(
    a_mat: Matrix,
    b_mat: Matrix,
    table: DegreeTable,
    base_q: int = 2,
    seed: int = 0,
    mask_seed: Optional[int] = None,
    zero_masks: bool = False,
) -> SdmmInstance:
    """Assemble a full protocol run: field, points, masks, shares, answers.

    ``mask_seed`` defaults to ``seed``; varying it alone changes every share
    while leaving the decoded product untouched.  ``zero_masks`` exists for
    tests that want to see the unmasked polynomial.
    """
    fld, pts = choose_field_and_points(table, base_q=base_q, seed=seed)
    a_red = tuple(tuple(v % fld.q for v in row) for row in a_mat)
    b_red = tuple(tuple(v % fld.q for v in row) for row in b_mat)
    a_blocks, b_blocks = partition(a_red, b_red, table.K, table.L)
    a, b, c = len(a_red), len(b_red), len(b_red[0])
    mrng = random.Random(f"masks:{seed if mask_seed is None else mask_seed}")
    ra, cl = a // table.K, c // table.L
    mask = (lambda r, c: ((0,) * c,) * r) if zero_masks else (lambda r, c: fld.random_matrix(mrng, r, c))
    r_masks = tuple(mask(ra, b) for _ in range(table.T))
    s_masks = tuple(mask(b, cl) for _ in range(table.T))
    shares = encode(fld, table, pts, a_blocks + r_masks, b_blocks + s_masks)
    return SdmmInstance(field=fld, dims=(a, b, c), table=table, a_mat=a_red, b_mat=b_red, r_masks=r_masks,
                        s_masks=s_masks, points=pts, shares=shares, responses=server_compute(fld, shares))


def decode(inst: SdmmInstance) -> DecodeResult:
    """Interpolate the response polynomial and read off the product blocks."""
    tab = inst.table
    degrees = _degrees(tab)
    if len(inst.points) != len(degrees):
        raise DomainError(f"expected {len(degrees)} evaluation points, got {len(inst.points)}")
    rhs = tuple(tuple(val for row in resp for val in row) for resp in inst.responses)
    coeffs = solve(inst.field, _powers(inst.field, inst.points, degrees), rhs)
    if coeffs is None:
        raise DomainError("decode matrix is singular; pick different evaluation points")
    a, _, c = inst.dims
    ra, cl = a // tab.K, c // tab.L
    index_of = {d: i for i, d in enumerate(degrees)}
    blocks = {(k, l): tuple(coeffs[index_of[ak + bl]][i * cl:(i + 1) * cl] for i in range(ra))
              for k, ak in enumerate(tab.alpha_p) for l, bl in enumerate(tab.beta_p)}
    product = tuple(tuple(val for l in range(tab.L) for val in blocks[(k, l)][i])
                    for k in range(tab.K) for i in range(ra))
    return DecodeResult(product=product, blocks=blocks)


def plain_product(inst: SdmmInstance) -> Matrix:
    """The product computed directly, for checking a decode."""
    return mat_mul(inst.field, inst.a_mat, inst.b_mat)


def security_check(
    inst: SdmmInstance,
    mode: str = "auto",
    sample_size: int = SAMPLED_SUBSET_COUNT,
    seed: int = 0,
) -> SecurityReport:
    """Verify the T x T mask submatrices are invertible for server subsets.

    Every subset is tried when there are at most 100000 of them, at most
    ``sample_size``, or when ``mode="all"`` forces it (up to
    MAX_EXHAUSTIVE_SUBSETS); otherwise ``sample_size`` distinct random subsets
    are drawn.  A failure names the offending subset and which side leaked.
    """
    # The most subsets each mode enumerates; above that it samples instead.
    limits = {"all": MAX_EXHAUSTIVE_SUBSETS, "auto": EXHAUSTIVE_SUBSET_LIMIT, "sampled": -1}
    if mode not in limits:
        raise DomainError(f"unknown mode {mode!r}")
    _require_int(sample_size=sample_size, rule="at least 1")
    n, t = inst.n_servers, inst.table.T
    total = math.comb(n, t)
    if mode == "all" and total > MAX_EXHAUSTIVE_SUBSETS:
        raise DomainError(f"an exhaustive audit would check C({n},{t}) = {total} subsets,"
                          f" more than {MAX_EXHAUSTIVE_SUBSETS}; use a sampled audit")
    subsets = _subsets(n, t, limits[mode], sample_size, random.Random(f"security:{seed}"))
    return SecurityReport(total_subsets=total, checked=total if subsets is None else sample_size,
                          exhaustive=subsets is None, failures=tuple(_leaks(inst.field, inst.points, inst.table, subsets)))
