"""Reference kernels for the protocol layer.

These are the original implementations of the field eliminations (the
list-of-ints ones, the packed one that reduced every row after every row
operation, and the lazily reduced one whose `solve` eliminated the augmented
rows and back-substituted entry by entry), the decode that solved the decode
matrix from scratch, the scale-and-add encoding fold, the list-of-ints `mat_combine` and `mat_mul`
that `field.py` replaced with packed-integer rows, point selection and the
security audit, each with its own copy of the loop that `field.py` and
`sdmm.py` now share.  The differential tests in test_field.py and
test_sdmm.py compare the shared kernels against them result for result: the
same products and solutions, the same points (so the same RNG draws) and the
same audit reports.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Optional, Sequence

from gasptables.degree_table import DegreeTable, DomainError, require_valid, sumset
from gasptables.field import Matrix, PrimeField, _lazy_pack, _pack, _slot_bytes, _unpack, next_prime
from gasptables.sdmm import (
    DEFAULT_SELECTION_SAMPLES,
    EXHAUSTIVE_SUBSET_LIMIT,
    MAX_POINT_RETRIES,
    SAMPLED_SUBSET_COUNT,
    SdmmInstance,
    SecurityReport,
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


def lazy_eliminate(rows: list[int], layout: tuple[int, ...]) -> Optional[tuple[list[int], int]]:
    """Forward elimination on the first len(rows) columns of ``rows``, packed by
    `field._lazy_pack`: the pivot rows, pivot in slot 0 and slots in [0, 2q), and
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
    selection_samples: int = DEFAULT_SELECTION_SAMPLES,
    max_retries: int = MAX_POINT_RETRIES,
) -> tuple[PrimeField, tuple[int, ...]]:
    """Pick a prime field and N distinct nonzero evaluation points.

    q is the smallest prime at least max(base_q, M + 2, N + 1) where M is the
    largest table entry, so exponent arithmetic mod q - 1 cannot merge two
    distinct degrees.  Candidate point sets are rejection-sampled until the
    decode matrix and a batch of randomly selected T x T security submatrices
    are all invertible.
    """
    require_valid(table)
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


def security_check(
    inst: SdmmInstance,
    mode: str = "auto",
    sample_size: int = SAMPLED_SUBSET_COUNT,
    seed: int = 0,
) -> SecurityReport:
    """Verify the T x T mask submatrices are invertible for server subsets.

    Every subset is tried when there are at most 100000 of them, at most
    ``sample_size``, or when ``mode="all"`` forces it; otherwise
    ``sample_size`` distinct random subsets are drawn.  A failure names the
    offending subset and which side leaked.
    """
    if mode not in ("auto", "all", "sampled"):
        raise DomainError(f"unknown mode {mode!r}")
    fld = inst.field
    tab = inst.table
    n = inst.n_servers
    t = tab.T
    total = math.comb(n, t)
    if t == 0:
        return SecurityReport(total_subsets=total, checked=0, exhaustive=True)
    rows_a = _suffix_rows(fld, inst.points, tab.alpha_s)
    rows_b = _suffix_rows(fld, inst.points, tab.beta_s)
    exhaustive = (mode == "all" or (mode == "auto" and total <= EXHAUSTIVE_SUBSET_LIMIT)
                  or total <= sample_size)
    if exhaustive:
        subsets = combinations(range(n), t)
        checked = total
    else:
        # Distinct draws in draw order: a repeated subset is drawn again.
        rng = random.Random(f"security:{seed}")
        subsets = []
        while len(subsets) < sample_size:
            s = tuple(sorted(rng.sample(range(n), t)))
            if s not in subsets:
                subsets.append(s)
        checked = sample_size
    failures = []
    for s in subsets:
        if not _subset_ok(fld, rows_a, s):
            failures.append((s, "alpha"))
        if not _subset_ok(fld, rows_b, s):
            failures.append((s, "beta"))
    return SecurityReport(
        total_subsets=total,
        checked=checked,
        exhaustive=exhaustive,
        failures=tuple(failures),
    )
