"""Prime fields and exact linear algebra, no floating point anywhere.

Matrices are tuples of tuples of ints; the kernels reduce entries mod q
themselves.  Everything the protocol needs is here: `mat_combine` (weighted
sums of matrices, which is what encoding the shares is), `mat_mul`, and one
forward elimination, which factors the matrix of `solve` and `is_invertible`
and, keeping nothing, tests the security audit's blocks.

The hot loops run on packed rows: a row over GF(q) is one Python int with one
byte-aligned slot per column, so a row operation is a few big-int operations
instead of one ``% q`` per entry.  Products sum weight times packed row in
slots wide enough for the unreduced sum and reduce each entry once, unpacked.
Elimination reduces each row once, into [0, 2q), when it becomes the pivot
(see `_factor`).  The last factorisation is kept, so `solve` on the matrix
`is_invertible` has just accepted only applies it.  Shapes are checked before
anything is packed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
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


def _shape(m: Matrix, what: str) -> tuple[int, int]:
    cols = len(m[0]) if m else 0
    if any(len(row) != cols for row in m):
        raise DomainError(f"{what} has ragged rows: lengths {sorted({len(row) for row in m})}")
    return len(m), cols


# struct codes of the slot widths it packs in one call; other widths go through to_bytes.
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bits: int) -> int:
    """Whole bytes for a slot of ``bits`` bits: the narrowest struct width that fits, else the fewest."""
    nb = max(1, -(-bits // 8))
    return next(s for s in (*_FORMATS, nb) if s >= nb)


def _pack(rows, q: int, nb: int, width: int) -> list[int]:
    """Each row, a tuple of pieces ``width`` entries long in all, as one int:
    entry j, reduced mod q, in bytes [j*nb, (j+1)*nb)."""
    flat = [v % q for row in rows for piece in row for v in piece]
    c = _FORMATS.get(nb)
    b = struct.pack(f"<{len(flat)}{c}", *flat) if c else b"".join([v.to_bytes(nb, "little") for v in flat])
    return [int.from_bytes(b[i:i + width * nb], "little") for i in range(0, len(b), width * nb or 1)]


def _unpack(x: int, width: int, nb: int, q: int) -> tuple[int, ...]:
    b = x.to_bytes(width * nb, "little")
    c = _FORMATS.get(nb)
    row = struct.unpack(f"<{width}{c}", b) if c else [
        int.from_bytes(b[i:i + nb], "little") for i in range(0, len(b), nb)]
    return tuple([v % q for v in row])


def _weighted_sums(q: int, weights, rows, width: int, terms: int) -> Matrix:
    """sum(w * row) for each weight vector, over ``rows`` packed once in slots
    wide enough for ``terms`` unreduced products; each entry reduced once."""
    nb = _slot_bytes((terms * (q - 1) ** 2).bit_length())
    packed = _pack(rows, q, nb, width)
    return tuple(_unpack(sum(map(mul, [w % q for w in ws], packed)), width, nb, q) for ws in weights)


def mat_combine(field: PrimeField, weights: Sequence[Sequence[int]], mats: Sequence[Matrix]) -> tuple[Matrix, ...]:
    """sum(w * m for w, m in zip(ws, mats)) for each weight vector ws, the matrices packed once, each as one row."""
    shapes = {_shape(m, "a combined matrix") for m in mats}
    if (wrong := {len(ws) for ws in weights} - {len(mats)}) or len(shapes) > 1:
        raise DomainError(f"mat_combine got {min(wrong, default=len(mats))} weights for {len(mats)} matrices of shape "
                          + " and ".join(f"{r}x{c}" for r, c in sorted(shapes)))
    (rows, cols), = shapes or {(0, 0)}
    sums = _weighted_sums(field.q, weights, mats, rows * cols, len(mats))
    return tuple(tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)) for flat in sums)


def mat_mul(field: PrimeField, a: Matrix, b: Matrix) -> Matrix:
    (n, inner), (inner_b, cols) = _shape(a, "A"), _shape(b, "B")
    if n and inner != inner_b:  # an A with no rows has no inner dimension to match
        raise DomainError(f"mat_mul inner dimensions differ: A is {n}x{inner}, B is {inner_b}x{cols}")
    return _weighted_sums(field.q, a, zip(b), cols, inner_b)


def _lazy_pack(q: int, rows, n: int, width: int) -> tuple[list[int], tuple[int, ...]]:
    """``rows`` (as `_pack` takes them) packed for `_factor` on up to n of them, with the layout it takes."""
    k = (q + n * (q - 1) * (2 * q - 1)).bit_length()
    nb = _slot_bytes(2 * k - q.bit_length() + 2)
    lowmask = int.from_bytes(((1 << 8 * nb - k) - 1).to_bytes(nb, "little") * width, "little")
    return _pack(rows, q, nb, width), (q, k, (1 << k) // q, nb, lowmask)


def _factor(rows: list[int], layout: tuple[int, ...], keep: bool = True):
    """Forward elimination on the first len(rows) columns of ``rows``, packed by
    `_lazy_pack` with ``layout`` (q, k, m, slot bytes, lowmask): the pivot rows
    (pivot in slot 0, slots in [0, 2q)), the steps (each pivot's index among the
    rows left, and the multiplier of every row left after it) and the slot bytes;
    with ``keep`` false, the audit's block test, just True.  None at the first
    column with no pivot.

    A row operation adds g = -f mod q < q times a pivot row and shifts out the
    eliminated column, so on at most n rows (the n `_lazy_pack` was given) a slot
    stays below V = q + n(q-1)(2q-1) < 2^k, k = bits(V).  Each row is reduced once, as it becomes the pivot, by q times the
    floor-Barrett estimate v*m >> k (m = 2^k // q) of v // q, exact or one short.
    As v*m < 2^(2k - bits(q) + 1), slots of 2k - bits(q) + 2 bits never carry, and
    each estimate, below 2^k / q, fits the bits above k that lowmask keeps.
    """
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    pivots, steps = [], []
    while rows:
        for i, x in enumerate(rows):
            if (x & smask) % q:
                break
        else:
            return None
        p = rows.pop(i)
        p -= q * ((p * m >> k) & lowmask)
        neg = q - pow(p & smask, -1, q)
        if keep:
            pivots.append(p)
            steps.append((i, gs := [(x & smask) * neg % q for x in rows]))
            rows = [(x + g * p) >> w for x, g in zip(rows, gs)]
        else:
            rows = [(x + (x & smask) * neg % q * p) >> w for x in rows]
    return (pivots, steps, nb) if keep else True


@lru_cache(maxsize=1)
def _lu(q: int, m: Matrix):
    """`_factor` of the square matrix m over GF(q), the last one kept: `decode`
    solves the very matrix that point selection's `is_invertible` just factored."""
    return _factor(*_lazy_pack(q, zip(m), len(m), len(m)))


def solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field; None if m is singular.

    m's factorisation is applied to the rhs rows, packed once as `_factor` packs
    m: the forward pass replays its steps, each pivot reduced into [0, 2q) first,
    so slots stay below V.  The back pass sums y_c + sum_j (-u_cj) x_j over packed
    rows x_j < q, below 2q + (n-1)(q-1)^2 <= V, and reduces each entry once.
    """
    q, (n, cols), (rn, w) = field.q, _shape(m, "the matrix"), _shape(rhs, "rhs")
    if n != cols:
        raise DomainError(f"expected a square matrix, got {n}x{cols}")
    if rn != n:
        raise DomainError(f"rhs row count mismatch: the matrix is {n}x{n}, the rhs {rn}x{w}")
    if (lu := _lu(q, tuple(map(tuple, m)))) is None:
        return None
    if not w:  # rows of no columns pack to no ints
        return ((),) * n
    pivots, steps, mnb = lu
    ys, (_, k, bm, nb, lowmask) = _lazy_pack(q, zip(rhs), n, w)
    y = []
    for i, gs in steps:
        p = ys.pop(i)
        y.append(p := p - q * ((p * bm >> k) & lowmask))
        ys = [v + g * p for v, g in zip(ys, gs)]
    x, xs = [], []  # xs: x_{n-1}, x_{n-2}, ... packed
    for c in range(n - 1, -1, -1):
        u = _unpack(pivots[c], n - c, mnb, q)
        inv, acc = pow(u[0], -1, q), y[c] + sum(map(mul, [-v % q for v in u[:0:-1]], xs))
        x.append(row := tuple([v * inv % q for v in _unpack(acc, w, nb, q)]))
        xs.append(_pack(((row,),), q, nb, w)[0])
    return tuple(reversed(x))


def is_invertible(field: PrimeField, m: Matrix) -> bool:
    """Whether the square matrix m is invertible: `solve` with no right-hand side."""
    return solve(field, m, ((),) * len(m)) is not None
