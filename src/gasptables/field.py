"""Prime fields and exact linear algebra, no floating point anywhere.

Matrices are tuples of tuples of ints already reduced mod q.  Everything the
protocol needs is here: `mat_combine` (a weighted sum of matrices, which is
what encoding a share is), `mat_mul`, and one forward elimination behind both
`is_invertible` and `solve`.  Arithmetic is inline ``% q``; inverses go
through Fermat (x^(q-2)), which is plenty at the field sizes involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .degree_table import DomainError

Matrix = tuple[tuple[int, ...], ...]

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10**24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class PrimeField:
    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise DomainError(f"{self.q} is not prime")

    def pow(self, x: int, e: int) -> int:
        # Exponents live mod q-1 on nonzero elements; reducing keeps the
        # computation cheap for the occasional huge exponent.
        if x % self.q == 0:
            return 0 if e else 1
        return pow(x, e % (self.q - 1), self.q)

    def random_matrix(self, rng, rows: int, cols: int) -> Matrix:
        return tuple(tuple(rng.randrange(self.q) for _ in range(cols)) for _ in range(rows))


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


def _eliminate(q: int, rows: list[list[int]], n: int) -> bool:
    """Reduce the first n columns of ``rows`` in place to upper-triangular form,
    pivots unnormalised; False at the first column with no pivot (singular)."""
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] % q), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        prow = rows[col]
        inv = pow(prow[col], q - 2, q)
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] * inv % q
                rows[r] = [(v - f * p) % q for v, p in zip(rows[r], prow)]
    return True


def solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field; None if m is singular.

    Forward elimination on the augmented rows, then back-substitution on the
    w right-hand-side columns alone, O(n^2 w); exact by construction.
    """
    q = field.q
    n = len(m)
    if any(len(row) != n for row in m):
        raise DomainError("solve needs a square matrix")
    if len(rhs) != n:
        raise DomainError("rhs row count mismatch")
    aug = [list(mr) + list(rr) for mr, rr in zip(m, rhs)]
    if not _eliminate(q, aug, n):
        return None
    x = [row[n:] for row in aug]
    for col in range(n - 1, -1, -1):
        inv = pow(aug[col][col], q - 2, q)
        xrow = x[col] = [v * inv % q for v in x[col]]
        for r in range(col):
            f = aug[r][col]
            if f:
                x[r] = [(v - f * p) % q for v, p in zip(x[r], xrow)]
    return tuple(map(tuple, x))


def is_invertible(field: PrimeField, m: Matrix) -> bool:
    return _eliminate(field.q, [list(row) for row in m], len(m))
