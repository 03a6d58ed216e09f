"""Reference kernels for the protocol layer.

These are the original implementations of the field eliminations (the
list-of-ints ones, the packed one that reduced every row after every row
operation, and the lazily reduced one whose `solve` eliminated the augmented
rows and back-substituted entry by entry), the decode that solved the decode
matrix from scratch, the scale-and-add encoding fold, the list-of-ints `mat_combine` and `mat_mul`
that `field.py` replaced with packed-integer rows, point selection and the
security audit, each with its own copy of the loop that `field.py` and
`sdmm.py` now share.  Three more are the audit's kernels as they were
before the audit replayed `random.sample` inline, took each block's first
elimination step on relative exponents and packed the DFS leaves: `_subsets`
drawing through `rng.sample`, `_dependent_subsets` with one dot product per
leaf, and `_mask_side` eliminating the absolute rows of each block.
`_factor` is the elimination behind `solve` and `is_invertible` as it was
before it reduced each pivot row exactly: into [0, 2q) by a Barrett estimate,
on rows packed by `_lazy_pack`, in struct-width slots that hold that bound
(`lazy_eliminate` and `lazy_solve` take the same packing).
`keepless_factor` is the block test's loop as it was inside that `_factor`,
before the test took its pivot inverses from a table and its last row from
slot 0 alone, and `_singular` is that test after it, one block at a time,
before `field._singular_many` took a chunk of blocks through each step
together.  The differential tests in test_field.py and test_sdmm.py compare
the shared kernels against them result for result: the same products and
solutions, the same points (so the same RNG draws), the same draws, subsets
and verdicts, and the same audit reports.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from operator import mul
from typing import Optional, Sequence

from gasptables.degree_table import DegreeTable, DomainError, count_distinct, sumset
from gasptables.field import Matrix, PrimeField, _pack, _slot_bytes, _unpack, next_prime
from gasptables.sdmm import (
    EXHAUSTIVE_SUBSET_LIMIT,
    MAX_POINT_RETRIES,
    SAMPLED_SUBSET_COUNT,
    SELECTION_SAMPLES,
    SdmmInstance,
    SecurityReport,
    _powers,
)


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_add(field: PrimeField, a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple((x + y) % field.q for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(field: PrimeField, s: int, a: Matrix) -> Matrix:
    return tuple(tuple(s * x % field.q for x in row) for row in a)


def scale_and_add(field: PrimeField, weights, mats, rows: int, cols: int) -> Matrix:
    """The fold `encode` ran once per share: start from zero, add w * M."""
    acc = zero_matrix(rows, cols)
    for blk, w in zip(mats, weights):
        acc = mat_add(field, acc, mat_scale(field, w, blk))
    return acc


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


def solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field; None if m is singular.

    Standard row reduction with modular pivoting; exact by construction.
    """
    q = field.q
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("solve needs a square matrix")
    if len(rhs) != n:
        raise DomainError("rhs row count mismatch")
    w = len(rhs[0]) if rhs else 0
    aug = [list(mr) + list(rr) for mr, rr in zip(m, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % q), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], q - 2, q)
        aug[col] = [v * inv % q for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * p) % q for v, p in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def is_invertible(field: PrimeField, m: Matrix) -> bool:
    q = field.q
    n = len(m)
    a = [list(row) for row in m]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % q), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], q - 2, q)
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * inv % q
                a[r] = [(v - f * p) % q for v, p in zip(a[r], a[col])]
    return True


def barrett_eliminate(q: int, rows, n: int, width: int) -> Optional[tuple[list[int], int]]:
    """Forward elimination on the first n columns of ``rows`` (as `_pack` takes
    them): the n pivot rows, packed with their pivot in slot 0, and the slot
    bytes; None at the first column with no pivot.

    Slots stay lazily reduced in [0, 2q).  A row operation adds g = -f mod q
    times the pivot row (each slot is then below q(2q - 1) < 2^k), shifts out
    the eliminated column, and takes off q times the floor-Barrett estimate
    (v*m >> k, m = floor(2^k / q)) of floor(v / q), exact or one short.  As
    v*m < 2q * 2^k fits k + bits(q) + 1 bits, slots never carry into each
    other, and each estimate, below 2q, fits the bits above k that lowmask keeps.
    """
    b = q.bit_length()
    k = 2 * b + 2
    m = (1 << k) // q
    nb = _slot_bytes(k + b + 1)
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    lowmask = int.from_bytes(((1 << w - k) - 1).to_bytes(nb, "little") * width, "little")
    rows = _pack(rows, q, nb, width)
    pivots = []
    for _ in range(n):
        i = next((i for i, x in enumerate(rows) if (x & smask) % q), None)
        if i is None:
            return None
        pivots.append(p := rows.pop(i))
        neg = q - pow(p & smask, -1, q)
        rows = [(s := (x + (x & smask) * neg % q * p) >> w) - q * ((s * m >> k) & lowmask)
                for x in rows]
    return pivots, nb


def _lazy_pack(q: int, rows, n: int, width: int) -> tuple[list[int], tuple[int, ...]]:
    """``rows`` (as `_pack` takes them) packed for `_factor` on up to n of them, with the layout it takes."""
    k = (q + n * (q - 1) * (2 * q - 1)).bit_length()
    nb = _slot_bytes(2 * k - q.bit_length() + 2)
    lowmask = int.from_bytes(((1 << 8 * nb - k) - 1).to_bytes(nb, "little") * width, "little")
    return _pack(rows, q, nb, width), (q, k, (1 << k) // q, nb, lowmask)


def lazy_eliminate(rows: list[int], layout: tuple[int, ...]) -> Optional[tuple[list[int], int]]:
    """Forward elimination on the first len(rows) columns of ``rows``, packed by
    `_lazy_pack`: the pivot rows, pivot in slot 0 and slots in [0, 2q), and
    the slot bytes; None at the first column with no pivot.  Each row is reduced
    once, by a floor-Barrett estimate, as it becomes the pivot; nothing else is kept."""
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    pivots = []
    while rows:
        i = next((i for i, x in enumerate(rows) if (x & smask) % q), None)
        if i is None:
            return None
        p = rows.pop(i)
        pivots.append(p := p - q * ((p * m >> k) & lowmask))
        neg = q - pow(p & smask, -1, q)
        rows = [(x + (x & smask) * neg % q * p) >> w for x in rows]
    return pivots, nb


def _factor(rows: list[int], layout: tuple[int, ...]):
    """Forward elimination on the first len(rows) columns of ``rows``, packed by
    `_lazy_pack` with ``layout`` (q, k, m, slot bytes, lowmask): the pivot rows
    (pivot in slot 0, slots in [0, 2q)), the steps (each pivot's index among the
    rows left, and the multiplier of every row left after it) and the slot bytes;
    None at the first column with no pivot.

    A row operation adds g = -f mod q < q times a pivot row and shifts out the
    eliminated column.  Rows enter below q, so on at most n rows (the n `_lazy_pack`
    was given) a slot stays below q + (n-1)(q-1)(2q-1) < V = q + n(q-1)(2q-1) < 2^k,
    k = bits(V).  Each row is reduced once, as it becomes the pivot, by q times the
    floor-Barrett estimate v*m >> k (m = 2^k // q) of v // q, exact or one short.
    As v*m < 2^(2k - bits(q) + 1), slots of 2k - bits(q) + 2 bits never carry, and
    each estimate, below 2^k / q, fits the bits above k that lowmask keeps.
    """
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    pivots, steps = [], []
    while rows:
        if (i := next((i for i, x in enumerate(rows) if (x & smask) % q), None)) is None:
            return None
        p = rows.pop(i)
        p -= q * ((p * m >> k) & lowmask)
        neg = q - pow(p & smask, -1, q)
        pivots.append(p)
        steps.append((i, gs := [(x & smask) * neg % q for x in rows]))
        rows = [(x + g * p) >> w for x, g in zip(rows, gs)]
    return pivots, steps, nb


def keepless_factor(rows: list[int], layout: tuple[int, ...]) -> Optional[bool]:
    """The elimination `field._factor` ran for the audit's block test before the
    test got its own loop: `lazy_eliminate` keeping no pivot rows, True where
    that gives them, None at the first column with no pivot.  Every pivot's
    inverse comes from `pow`, and the last row is reduced and scanned like the rest."""
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    while rows:
        for i, x in enumerate(rows):
            if (x & smask) % q:
                break
        else:
            return None
        p = rows.pop(i)
        p -= q * ((p * m >> k) & lowmask)
        neg = q - pow(p & smask, -1, q)
        rows = [(x + (x & smask) * neg % q * p) >> w for x in rows]
    return True


def _singular(rows: list[int], layout: tuple[int, ...], inverses) -> bool:
    """Whether the block of ``rows`` is singular: `_factor`'s elimination keeping nothing, on
    the n - 1 rows (n as `_lazy_pack` was given) the audit leaves below 2q after its free first
    step, so a slot stays below 2q + (n-2)(q-1)(2q-1) < V.  The first row left is tried as the
    pivot before the rest are scanned; a pivot, reduced into [0, 2q), takes -1/p mod q from
    ``inverses`` (indexed by p) when given, else from `pow`; the last row needs only its slot 0."""
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    while len(rows) > 1:
        i = 0 if (rows[0] & smask) % q else next((i for i, x in enumerate(rows) if (x & smask) % q), None)
        if i is None:
            return True
        p = rows.pop(i)
        p -= q * ((p * m >> k) & lowmask)
        neg = inverses[p & smask] if inverses else q - pow(p & smask, -1, q)
        rows = [(x + (x & smask) * neg % q * p) >> w for x in rows]
    return bool(rows) and not (rows[0] & smask) % q


def lazy_solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field; None if m is singular: `lazy_eliminate` on
    the augmented rows, then back-substitution entry by entry on the w
    right-hand-side columns, O(n^2 w)."""
    q, n = field.q, len(m)
    w = len(rhs[0]) if rhs else 0
    if (found := lazy_eliminate(*_lazy_pack(q, zip(m, rhs), n, n + w))) is None:
        return None
    # u[c][j - c] is the entry in column j of the pivot row of column c.
    u = [_unpack(p, n + w - c, found[1], q) for c, p in enumerate(found[0])]
    x = [list(row[n - c:]) for c, row in enumerate(u)]
    for col in range(n - 1, -1, -1):
        inv = pow(u[col][0], -1, q)
        xrow = x[col] = [v * inv % q for v in x[col]]
        for r in range(col):
            if f := u[r][col - r]:
                x[r] = [(v - f * p) % q for v, p in zip(x[r], xrow)]
    return tuple(map(tuple, x))


def decode(inst: SdmmInstance) -> Optional[dict[tuple[int, int], Matrix]]:
    """The product blocks, keyed (k, l), interpolated from the responses by a
    fresh `lazy_solve` of the decode matrix built entry by entry; None when that
    matrix is singular."""
    tab, fld = inst.table, inst.field
    degrees = _degrees(tab)
    rhs = tuple(tuple(val for row in resp for val in row) for resp in inst.responses)
    coeffs = lazy_solve(fld, tuple(map(tuple, _suffix_rows(fld, inst.points, degrees))), rhs)
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
    return is_invertible(field, tuple(tuple(rows[i]) for i in subset))


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
    decode matrix and a batch of randomly selected T x T security submatrices
    are all invertible.
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
        if t:
            rows_a = _suffix_rows(fld, pts, table.alpha_s)
            rows_b = _suffix_rows(fld, pts, table.beta_s)
            total = math.comb(n, t)
            if total <= selection_samples:
                subsets = list(combinations(range(n), t))
            else:
                subsets = [tuple(sorted(rng.sample(range(n), t))) for _ in range(selection_samples)]
            if not all(
                _subset_ok(fld, rows_a, s) and _subset_ok(fld, rows_b, s)
                for s in subsets
            ):
                continue
        return fld, pts
    raise DomainError(
        f"no usable evaluation points after {max_retries} attempts over GF({q});"
        " retry with a larger base_q"
    )


def security_check(inst: SdmmInstance, mode: str = "auto", seed: int = 0) -> SecurityReport:
    """Verify the T x T mask submatrices are invertible for server subsets.

    Every subset is tried when there are at most EXHAUSTIVE_SUBSET_LIMIT of
    them in mode "auto", at most SAMPLED_SUBSET_COUNT, or when ``mode="all"``
    forces it; otherwise SAMPLED_SUBSET_COUNT distinct random subsets are
    drawn.  A failure names the offending subset and which side leaked.  Both
    constants are read from this module: a test that patches sdmm's patches
    them here too.
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
        # Distinct draws in draw order: a repeated subset is drawn again.
        rng = random.Random(f"security:{seed}")
        subsets = []
        while len(subsets) < SAMPLED_SUBSET_COUNT:
            s = tuple(sorted(rng.sample(range(n), t)))
            if s not in subsets:
                subsets.append(s)
        checked = SAMPLED_SUBSET_COUNT
    failures = []
    for s in subsets:
        if not _subset_ok(fld, rows_a, s):
            failures.append((s, "alpha"))
        if not _subset_ok(fld, rows_b, s):
            failures.append((s, "beta"))
    return SecurityReport(total_subsets=total, checked=checked, failures=tuple(failures))


def _subsets(n: int, t: int, limit: int, samples: int, rng: random.Random, distinct: bool = True):
    """None (every t-subset of range(n)) if there are at most ``limit``, else
    ``samples`` sorted random draws, all made before the caller checks any;
    ``distinct`` redraws each repeat, so the draws before the first repeat are unchanged."""
    if math.comb(n, t) <= limit:
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
    return (lambda s: lazy_eliminate([packed[i] for i in s], layout) is None,
            lambda: _dependent_subsets(field.q, rows, t))
