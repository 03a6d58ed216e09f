"""Prime fields and exact linear algebra, no floating point anywhere.

Matrices are tuples of tuples of ints; the kernels reduce entries mod q
themselves.  Everything the protocol needs is here: `mat_combine` (weighted
sums of matrices, which is what encoding the shares is), `mat_mul`, one
forward elimination, which factors the matrix of `solve` and `is_invertible`,
and the security audit's block test, which takes a chunk of blocks through each
elimination step together (`_singular_many`).

The hot loops run on packed rows: a row over GF(q) is one Python int with one
byte-aligned slot per column, so a row operation is a few big-int operations
instead of one ``% q`` per entry.  Products sum weight times packed row in
slots wide enough for the unreduced sum and reduce each entry once, unpacked.
Elimination reduces each row once, exactly, when it becomes the pivot, which
keeps its slots narrow (see `_factor`); the block test reduces its pivots only
into [0, 2q), by a Barrett estimate (see `_lazy_pack`).  The last factorisation
is kept, so `solve` on the matrix `is_invertible` has just accepted only applies
it.  Shapes are checked before anything is packed.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional, Sequence

from .degree_table import DomainError

Matrix = tuple[tuple[int, ...], ...]

# Miller-Rabin to the first 13 prime bases is exact below psi_13 (Sorenson and
# Webster, 2015); above it is_prime adds a strong Lucas test.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a, t = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd n
    without a factor below 42: D is the first of 5, -7, 9, -11, ... with
    (D/n) = -1, P = 1, Q = (1 - D)/4, and with n + 1 = d * 2^s, n passes when
    U_d = 0 or V_(d*2^r) = 0 for some r < s (all mod n)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # D shares a factor with n, and |D| < n
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q % n  # index 1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index k to 2k
        if bit == "1":  # index 2k to 2k + 1, with P = 1
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Whether n is prime.  Exact below psi_13 = 3,317,044,064,679,887,385,961,981,
    where Miller-Rabin to the bases 2 to 41 decides.  At or above it n must also
    pass a strong Lucas test; with base 2 that is the Baillie-PSW test, which no
    composite is known to pass."""
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
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    # A float past 2**53 would loop forever: c += 1 leaves it unchanged.
    if type(n) is not int:
        raise DomainError(f"n must be an integer, got {n!r}")
    c = max(n, 2)
    while not is_prime(c):
        c += 1
    return c


@dataclass(frozen=True)
class PrimeField:
    q: int

    def __post_init__(self):
        if type(self.q) is not int:
            raise DomainError(f"q must be an integer, got {self.q!r}")
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
    """``rows`` (as `_pack` takes them) packed for `_singular_many` on up to n of them, with the layout it takes,
    (q, k, m, slot bytes, lowmask): a slot of a row left after row operations with pivots reduced into [0, 2q) by
    q times the floor-Barrett estimate v*m >> k (m = 2^k // q) of v // q, exact or one short, stays below
    V = q + n(q-1)(2q-1) < 2^k, k = bits(V).  As v*m < 2^(2k - bits(q) + 1), slots of 2k - bits(q) + 2 bits never
    carry, and each estimate, below 2^k / q, fits the bits above k that lowmask keeps.  The slots take the fewest
    whole bytes, not a struct width: the block test never unpacks a row."""
    k = (q + n * (q - 1) * (2 * q - 1)).bit_length()
    nb = -(-(2 * k - q.bit_length() + 2) // 8)
    lowmask = int.from_bytes(((1 << 8 * nb - k) - 1).to_bytes(nb, "little") * width, "little")
    return _pack(rows, q, nb, width), (q, k, (1 << k) // q, nb, lowmask)


def _factor(q: int, rows, n: int, width: int):
    """Forward elimination on the first n columns of the n ``rows`` (as `_pack` takes them, ``width`` entries
    long): the pivot rows (pivot in slot 0, every slot below q), the steps (each pivot's index among the rows
    left, and the multiplier of every row left after it) and the slot bytes; None at the first column with no
    pivot.

    A row operation adds g = -f mod q < q times a pivot row and shifts out the eliminated column.  Each row is
    reduced exactly, unpacked and packed again, as it becomes the pivot, so rows enter and pivots stay below q,
    and a slot, after at most n - 1 row operations, stays below (q-1) + (n-1)(q-1)^2: four struct bytes at
    GF(331) with n = 246.
    """
    nb = _slot_bytes((q - 1 + (n - 1) * (q - 1) ** 2).bit_length())
    rows, smask = _pack(rows, q, nb, width), (1 << 8 * nb) - 1
    pivots, steps = [], []
    while rows:
        if (i := next((i for i, x in enumerate(rows) if (x & smask) % q), None)) is None:
            return None
        u = _unpack(rows.pop(i), width, nb, q)
        pivots.append(p := _pack(((u,),), q, nb, width)[0])
        neg = q - pow(u[0], -1, q)
        steps.append((i, gs := [(x & smask) * neg % q for x in rows]))
        rows = [(x + g * p) >> 8 * nb for x, g in zip(rows, gs)]
        width -= 1
    return pivots, steps, nb


def _singular_many(rows: list[list[int]], layout: tuple[int, ...], inverses) -> set[int]:
    """The indices b of the singular blocks, rows[o][b] being row o of block b: `_factor`'s elimination keeping
    nothing, on the n - 1 rows (packed by `_lazy_pack` for n) the audit leaves below 2q after its free first step,
    so a slot stays below 2q + (n-2)(q-1)(2q-1) < V.  Every block takes each step together, its row 0 the pivot,
    reduced into [0, 2q), with -1/p mod q from ``inverses`` (indexed by p, 0 at p = 0 and q) when given, else from
    `pow`.  A block whose row 0 is 0 mod q in slot 0 swaps in its first row that is not, or is singular if none is
    (it rides along: that step only shifts its rows, which keeps the bound).  The last row needs only its slot 0."""
    q, k, m, nb, lowmask = layout
    w, smask = 8 * nb, (1 << 8 * nb) - 1
    singular = set()
    while len(rows) > 1:
        P = [p - q * ((p * m >> k) & lowmask) for p in rows[0]]
        neg = [inverses[p & smask] for p in P] if inverses else [
            q - pow(v, -1, q) if (v := p & smask) % q else 0 for p in P]
        for b in [b for b, g in enumerate(neg) if not g] if 0 in neg else ():
            if (i := next((i for i, row in enumerate(rows) if (row[b] & smask) % q), None)) is None:
                singular.add(b)
                continue
            rows[0][b], rows[i][b] = rows[i][b], rows[0][b]
            P[b] = p = rows[0][b] - q * ((rows[0][b] * m >> k) & lowmask)
            neg[b] = inverses[p & smask] if inverses else q - pow(p & smask, -1, q)
        rows = [[(x + (x & smask) * g % q * p) >> w for x, p, g in zip(row, P, neg)] for row in rows[1:]]
    return singular.union(b for b, x in enumerate(rows[0]) if not (x & smask) % q) if rows else singular


@lru_cache(maxsize=1)
def _lu(q: int, m: Matrix):
    """`_factor` of the square matrix m over GF(q), the last one kept: `decode`
    solves the very matrix that point selection's `is_invertible` just factored."""
    return _factor(q, zip(m), len(m), len(m))


def solve(field: PrimeField, m: Matrix, rhs: Matrix) -> Optional[Matrix]:
    """Solve m X = rhs over the field; None if m is singular.

    m's factorisation is applied to the rhs rows, packed once in `_factor`'s slots:
    the forward pass replays its steps, each pivot reduced exactly first, so slots
    stay below (q-1) + (n-1)(q-1)^2.  The back pass sums y_c + sum_j (-u_cj) x_j over
    packed rows y_c, x_j < q, within the same bound, and reduces each entry once.
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
    pivots, steps, nb = lu
    ys, y = _pack(zip(rhs), q, nb, w), []
    for i, gs in steps:
        y.append(p := _pack(((_unpack(ys.pop(i), w, nb, q),),), q, nb, w)[0])
        ys = [v + g * p for v, g in zip(ys, gs)]
    x, xs = [], []  # xs: x_{n-1}, x_{n-2}, ... packed
    for c in range(n - 1, -1, -1):
        u = _unpack(pivots[c], n - c, nb, q)
        inv, acc = pow(u[0], -1, q), y[c] + sum(map(mul, [-v % q for v in u[:0:-1]], xs))
        x.append(row := tuple([v * inv % q for v in _unpack(acc, w, nb, q)]))
        xs.append(_pack(((row,),), q, nb, w)[0])
    return tuple(reversed(x))


def is_invertible(field: PrimeField, m: Matrix) -> bool:
    """Whether the square matrix m is invertible: `solve` with no right-hand side."""
    return solve(field, m, ((),) * len(m)) is not None
