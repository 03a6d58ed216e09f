"""Prime-field arithmetic and small linear algebra."""

import functools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protocol_oracles as oracle
from gasptables import DomainError, PrimeField, field, is_prime, next_prime
from gasptables.field import is_invertible, mat_combine, mat_mul, solve


def test_is_prime_small():
    n_max = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n_max - 1)
    for i in range(2, math.isqrt(n_max) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n_max + 1, i)))
    assert [n for n in range(n_max + 1) if is_prime(n) != sieve[n]] == []


def test_is_prime_larger():
    assert is_prime(1_000_003)
    assert not is_prime(1_000_001)  # 101 * 9901


# psi_12 and psi_13, the least strong pseudoprimes to the bases 2 to 37 and 2 to 41,
# then Mersenne composites (2^67 - 1 = 193707721 * 761838257287).
@pytest.mark.parametrize("n", [318665857834031151167461, 3317044064679887385961981,
                               2 ** 67 - 1, 2 ** 101 - 1, 2 ** 257 - 1])
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("e", [61, 89, 107, 127, 521, 607])
def test_is_prime_accepts_mersenne_primes(e):
    assert is_prime(2 ** e - 1)


def test_strong_lucas_alone():
    # OEIS A217255: the strong Lucas pseudoprimes (Selfridge's parameters) below 20,000
    passing = [n for n in range(43, 20_000, 2) if field._strong_lucas(n) and not is_prime(n)]
    assert passing == [5459, 5777, 10877, 16109, 18971]
    assert all(field._strong_lucas(n) for n in range(43, 20_000, 2) if is_prime(n))


@pytest.mark.parametrize("n,p", [(0, 2), (2, 2), (3, 3), (4, 5), (14, 17),
                                 (43, 43), (44, 47), (1_000_000, 1_000_003),
                                 (332306998946228968225951765070086144,
                                  332306998946228968225951765070086169)])
def test_next_prime(n, p):
    assert next_prime(n) == p


# A float past 2**53 made next_prime loop forever, since c += 1 leaves it unchanged.
@pytest.mark.parametrize("n", [1e40, 7.0, True, "7", None])
def test_next_prime_rejects_non_integers(n):
    with pytest.raises(DomainError, match=rf"n must be an integer, got {re.escape(repr(n))}"):
        next_prime(n)


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(DomainError, match="not prime"):
            PrimeField(10)
        with pytest.raises(DomainError, match="not prime"):
            PrimeField(318665857834031151167461)

    # PrimeField(7.0) used to be accepted and fail later inside mat_mul.
    @pytest.mark.parametrize("q", [7.0, True, "7", None])
    def test_rejects_non_integers(self, q):
        with pytest.raises(DomainError, match=rf"q must be an integer, got {re.escape(repr(q))}"):
            PrimeField(q)

    def test_inverse_of_zero(self):
        # the inverse is a 1x1 solve; 0 and 14 are zero in GF(7), so singular
        f = PrimeField(7)
        assert solve(f, ((0,),), ((1,),)) is None
        assert solve(f, ((14,),), ((1,),)) is None

    def test_inv_against_all_elements(self):
        f = PrimeField(23)
        for x in range(1, 23):
            (inv,), = solve(f, ((x,),), ((1,),))
            assert x * inv % 23 == 1

    def test_pow_exponent_reduction(self):
        # x**(q-1) = 1 for nonzero x, so exponents act mod q-1
        f = PrimeField(11)
        for x in range(1, 11):
            for e in (0, 1, 7, 10, 23):
                assert f.pow(x, e) == f.pow(x, e + (f.q - 1))
                assert f.pow(x, e) == pow(x, e, 11)

    def test_pow_of_zero(self):
        f = PrimeField(11)
        assert f.pow(0, 0) == 1
        assert f.pow(0, 5) == 0
        assert f.pow(11, 5) == 0

    def test_pow_huge_exponent(self):
        f = PrimeField(101)
        assert f.pow(3, 10 ** 18 + 4) == pow(3, (10 ** 18 + 4) % 100, 101)

    def test_random_matrix_shape_and_range(self):
        f = PrimeField(5)
        m = f.random_matrix(random.Random(0), 3, 4)
        assert len(m) == 3 and all(len(r) == 4 for r in m)
        assert all(0 <= x < 5 for row in m for x in row)


class TestMatrixOps:
    F = PrimeField(13)

    def test_add_scale(self):
        a = ((1, 2), (3, 4))
        b = ((12, 12), (1, 1))
        assert mat_combine(self.F, ((1, 1),), (a, b)) == (((0, 1), (4, 5)),)
        assert mat_combine(self.F, ((2,),), (a,)) == (((2, 4), (6, 8)),)
        assert mat_combine(self.F, ((3, 5),), (a, b)) == (((11, 1), (1, 4)),)

    def test_mul(self):
        a = ((1, 2), (3, 4))
        b = ((5, 6), (7, 8))
        assert mat_mul(self.F, a, b) == ((19 % 13, 22 % 13), (43 % 13, 50 % 13))

    def test_zero_matrix(self):
        a = ((1, 2, 3), (4, 5, 6))
        b = ((7, 8, 9), (10, 11, 12))
        assert mat_combine(self.F, ((0, 13),), (a, b)) == (((0, 0, 0), (0, 0, 0)),)


class TestSolve:
    F = PrimeField(7)

    def test_identity(self):
        m = ((1, 0), (0, 1))
        rhs = ((3,), (5,))
        assert solve(self.F, m, rhs) == rhs

    def test_known_system(self):
        # 2x + y = 5, x + 3y = 6 over GF(7): x = 6, y = 0
        m = ((2, 1), (1, 3))
        rhs = ((5,), (6,))
        x = solve(self.F, m, rhs)
        assert x == ((6,), (0,))
        assert mat_mul(self.F, m, x) == rhs

    def test_singular_returns_none(self):
        m = ((1, 2), (2, 4))
        assert solve(self.F, m, ((1,), (1,))) is None

    def test_pivoting_handles_leading_zero(self):
        m = ((0, 1), (1, 0))
        assert solve(self.F, m, ((2,), (3,))) == ((3,), (2,))

    def test_shape_errors(self):
        with pytest.raises(DomainError, match="square"):
            solve(self.F, ((1, 2),), ((1,),))
        with pytest.raises(DomainError, match="row count"):
            solve(self.F, ((1, 0), (0, 1)), ((1,),))

    def test_multicolumn_rhs(self):
        m = ((2, 1), (1, 3))
        rhs = ((5, 1), (6, 0))
        x = solve(self.F, m, rhs)
        assert mat_mul(self.F, m, x) == rhs

    def test_random_roundtrip(self):
        f = PrimeField(101)
        rng = random.Random(12)
        for _ in range(50):
            m = f.random_matrix(rng, 4, 4)
            if not is_invertible(f, m):
                continue
            x = f.random_matrix(rng, 4, 2)
            rhs = mat_mul(f, m, x)
            assert solve(f, m, rhs) == x


class TestIsInvertible:
    F = PrimeField(5)

    def test_examples(self):
        assert is_invertible(self.F, ((1, 2), (3, 4)))
        assert not is_invertible(self.F, ((1, 2), (2, 4)))
        assert not is_invertible(self.F, ((0, 0), (0, 0)))

    def test_vandermonde_always_invertible(self):
        f = PrimeField(97)
        pts = (3, 10, 55, 80)
        m = tuple(tuple(pow(p, i, 97) for i in range(4)) for p in pts)
        assert is_invertible(f, m)

    def test_agrees_with_solve(self):
        f = PrimeField(11)
        rng = random.Random(3)
        eye = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for _ in range(100):
            m = f.random_matrix(rng, 3, 3)
            assert is_invertible(f, m) == (solve(f, m, eye) is not None)


@st.composite
def square_systems(draw, widths=lambda n: st.integers(1, 3)):
    """(q, m, rhs) with m square, n <= 6, entries unreduced in [-2q, 3q), and
    rhs as wide as ``widths(n)`` draws.

    One row may be replaced by a multiple of another plus multiples of q, so
    singular inputs turn up at every q, not only at the small ones.
    """
    q = draw(st.sampled_from((2, 3, 5, 13, 43)))
    n = draw(st.integers(0, 6))
    w = draw(widths(n))
    entry = st.integers(-2 * q, 3 * q - 1)
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(0, q - 1))
        m[j] = [c * v + q * draw(st.integers(-2, 2)) for v in m[i]]
    rhs = tuple(tuple(draw(st.lists(entry, min_size=w, max_size=w))) for _ in range(n))
    return q, tuple(map(tuple, m)), rhs


class TestAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(square_systems())
    def test_elimination(self, system):
        q, m, rhs = system
        f = PrimeField(q)
        assert is_invertible(f, m) == oracle.is_invertible(f, m)
        assert solve(f, m, rhs) == oracle.solve(f, m, rhs)

    # The back pass touches the right-hand side alone: no columns, one, and
    # more columns than the matrix has.
    @settings(max_examples=150, deadline=None)
    @given(square_systems(widths=lambda n: st.sampled_from((0, 1, n + 3))))
    def test_solve_widths(self, system):
        q, m, rhs = system
        f = PrimeField(q)
        got = solve(f, m, rhs)
        assert got == oracle.solve(f, m, rhs)
        if got is not None:
            assert len(got) == len(m) and all(len(row) == len(rhs[0]) for row in got)
            assert mat_mul(f, m, got) == tuple(tuple(v % q for v in row) for row in rhs)

    @pytest.mark.parametrize("w", [0, 1, 5])
    def test_singular_solves_to_none(self, w):
        f = PrimeField(13)
        m = ((1, 2, 3), (2, 4, 6 + 13), (0, 1, 1))
        rhs = tuple(tuple(range(r, r + w)) for r in range(3))
        assert solve(f, m, rhs) is None
        assert oracle.solve(f, m, rhs) is None

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 5, 13, 43)), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 5), st.data())
    def test_combine(self, q, rows, cols, count, data):
        f = PrimeField(q)
        entry = st.integers(-q, 2 * q)
        mats = [
            tuple(tuple(data.draw(st.lists(entry, min_size=cols, max_size=cols)))
                  for _ in range(rows))
            for _ in range(count)
        ]
        weights = data.draw(st.lists(entry, min_size=count, max_size=count))
        assert mat_combine(f, (weights,), mats) == (oracle.mat_combine(f, weights, mats),)


class TestShapeChecks:
    """Ragged or mismatched operands are rejected before anything is packed."""

    F = PrimeField(13)

    def test_is_invertible_needs_a_square_matrix(self):
        with pytest.raises(DomainError, match="square matrix, got 2x3"):
            is_invertible(self.F, ((1, 2, 3), (4, 5, 6)))
        with pytest.raises(DomainError, match="square matrix, got 3x2"):
            is_invertible(self.F, ((1, 2), (3, 4), (5, 6)))

    def test_mat_mul_inner_dimensions(self):
        with pytest.raises(DomainError, match="A is 2x3, B is 2x2"):
            mat_mul(self.F, ((1, 2, 3), (4, 5, 6)), ((1, 0), (0, 1)))

    def test_solve_ragged_rhs(self):
        with pytest.raises(DomainError, match="rhs has ragged rows"):
            solve(self.F, ((1, 0), (0, 1)), ((1, 2), (3,)))

    def test_mat_combine_weight_count(self):
        a = ((1, 2), (3, 4))
        with pytest.raises(DomainError, match="3 weights for 2 matrices"):
            mat_combine(self.F, ((1, 2, 3),), (a, a))

    def test_mat_combine_shapes(self):
        with pytest.raises(DomainError, match="2x2 and 2x3"):
            mat_combine(self.F, ((1, 1),), (((1, 2), (3, 4)), ((1, 2, 3), (4, 5, 6))))


# Fields for the packed kernels: 1-, 2-, 4- and 8-byte struct slots, and slots
# wider than 8 bytes that go through int.to_bytes.  The elimination's slots,
# 2k - bits(q) + 2 bits with k = bits(q + n(q-1)(2q-1)), grow with n: at
# q = 331 they are 31 bits at n = 2 and 33, one past 4 bytes, at n = 3.
PACKED_QS = (2, 3, 13, 331, 1009, 65537, 1_000_003, next_prime(2 ** 64))


def _entries(rng, q, rows, cols, spread):
    """Entries in [-spread*q, spread*q), or reduced ones when spread is 0."""
    lo, hi = (-spread * q, spread * q) if spread else (0, q)
    return [[rng.randrange(lo, hi) for _ in range(cols)] for _ in range(rows)]


@st.composite
def packed_systems(draw, qs=PACKED_QS):
    """(q, m, rhs) with q from ``qs``, m square of size 0-40, rhs 0 or more
    columns wide, and entries reduced, unreduced or negative.  Some rows are
    replaced by a multiple of another plus multiples of q, so singular inputs,
    and lazily reduced zeros, turn up at every q and every depth."""
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(0, 40))
    w = draw(st.sampled_from((0, 1, 3, n + 2)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    spread = draw(st.sampled_from((0, 1, 3)))
    m = _entries(rng, q, n, n, spread)
    for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randrange(q)
        m[j] = [c * v + q * rng.randrange(-2, 3) for v in m[i]]
    return q, tuple(map(tuple, m)), tuple(map(tuple, _entries(rng, q, n, w, spread)))


class TestPackedAgainstOracle:
    """The packed kernels against the list-of-ints kernels they replaced."""

    @settings(max_examples=250, deadline=None)
    @given(packed_systems())
    def test_elimination(self, system):
        q, m, rhs = system
        f = PrimeField(q)
        assert is_invertible(f, m) == oracle.is_invertible(f, m)
        assert solve(f, m, rhs) == oracle.solve(f, m, rhs)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PACKED_QS), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
           st.sampled_from((0, 1, 3)), st.integers(0, 2 ** 32))
    def test_mat_mul(self, q, rows, inner, cols, spread, seed):
        f, rng = PrimeField(q), random.Random(seed)
        a = tuple(map(tuple, _entries(rng, q, rows, inner, spread)))
        b = tuple(map(tuple, _entries(rng, q, inner, cols, spread)))
        assert mat_mul(f, a, b) == oracle.mat_mul(f, a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PACKED_QS), st.integers(0, 40), st.integers(0, 8), st.integers(0, 40),
           st.sampled_from((0, 1, 3)), st.integers(0, 2 ** 32))
    def test_mat_combine(self, q, count, rows, cols, spread, seed):
        f, rng = PrimeField(q), random.Random(seed)
        mats = [tuple(map(tuple, _entries(rng, q, rows, cols, spread))) for _ in range(count)]
        weights = [row[0] for row in _entries(rng, q, count, 1, spread)]
        assert mat_combine(f, (weights,), mats) == (oracle.mat_combine(f, weights, mats),)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PACKED_QS), st.sampled_from((0, 1, 2, 17)), st.integers(0, 12),
           st.integers(0, 8), st.integers(0, 40), st.sampled_from((0, 1, 3)), st.integers(0, 2 ** 32))
    def test_mat_combine_batched(self, q, vectors, count, rows, cols, spread, seed):
        # One call with many weight vectors gives, for each, what the oracle gives for it alone.
        f, rng = PrimeField(q), random.Random(seed)
        mats = [tuple(map(tuple, _entries(rng, q, rows, cols, spread))) for _ in range(count)]
        weights = _entries(rng, q, vectors, count, spread)
        assert mat_combine(f, weights, mats) == tuple(oracle.mat_combine(f, ws, mats) for ws in weights)

    @pytest.mark.parametrize("q", PACKED_QS)
    @pytest.mark.parametrize("n", [1, 2, 17, 40])
    def test_every_entry_q_minus_1(self, q, n):
        # The largest entries fill every slot to its bound: n products of
        # (q-1)^2 in a product slot, and pivots and multipliers of q-1.
        f, top = PrimeField(q), q - 1
        full = ((top,) * n,) * n
        assert mat_mul(f, full, full) == oracle.mat_mul(f, full, full) == ((n * top * top % q,) * n,) * n
        assert mat_combine(f, ((top,) * n,), (full,) * n) == (oracle.mat_combine(f, (top,) * n, (full,) * n),)
        assert is_invertible(f, full) == oracle.is_invertible(f, full) == (n == 1)
        off_diagonal = tuple(tuple(top * (i != j) for j in range(n)) for i in range(n))
        for m in (full, off_diagonal):
            assert is_invertible(f, m) == oracle.is_invertible(f, m)
            assert solve(f, m, full) == oracle.solve(f, m, full)


# PACKED_QS and the first primes past 2^62 and 2^118, field sizes a
# cryptographic instance needs.
LAZY_QS = PACKED_QS + (next_prime(2 ** 62), next_prime(2 ** 118))


def _slots(x, width, nb):
    """The ``width`` raw slot values of a packed row, unreduced."""
    b = x.to_bytes(width * nb, "little")
    return [int.from_bytes(b[i:i + nb], "little") for i in range(0, len(b), nb)]


def _packed(values, nb):
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in values), "little")


def _every_multiplier_q_minus_1(q, n):
    """An invertible n x n matrix whose elimination takes q - 1 times the pivot
    row at every step: row i is q - 1 in column 0 and past column i, and q - 2 in
    columns 1 to i, so the rows left always agree with the pivot row, mod q, in
    its pivot column."""
    return tuple(tuple(q - 1 if j == 0 or j > i else q - 2 for j in range(n)) for i in range(n))


class TestLazyBound:
    """Rows reduced only when they become the pivot, at the bound's worst case."""

    # Every multiplier q - 1 and every pivot slot 2q - 1 (the Barrett estimate
    # one short): n row operations take a slot from q - 1 to V - 1.
    @pytest.mark.parametrize("q", LAZY_QS)
    @pytest.mark.parametrize("n", [1, 2, 12, 40, 246])
    def test_worst_slots_never_carry(self, q, n):
        _, (_, k, m, nb, lowmask) = field._lazy_pack(q, (), n, n)
        top = q - 1 + n * (q - 1) * (2 * q - 1)
        pivot, row = _packed([2 * q - 1] * n, nb), _packed([q - 1] * n, nb)
        for _ in range(n):
            row += (q - 1) * pivot
        assert top < 1 << k
        assert _slots(row, n, nb) == [top] * n
        # Reduced as a pivot, every slot from 0 to V - 1 lands in [0, 2q), congruent.
        values = [0, q - 1, q, 2 * q - 1, top - q, top][:n] + [top * i // n for i in range(6, n)]
        row = _packed(values, nb)
        reduced = _slots(row - q * ((row * m >> k) & lowmask), n, nb)
        assert all(r < 2 * q and (r - v) % q == 0 for r, v in zip(reduced, values))

    @pytest.mark.parametrize("q", LAZY_QS)
    @pytest.mark.parametrize("n", [1, 2, 17, 40, 246])
    def test_every_multiplier_q_minus_1(self, q, n):
        f, m = PrimeField(q), _every_multiplier_q_minus_1(q, n)
        rhs = ((q - 1,) * 3,) * n
        got = solve(f, m, rhs)
        assert is_invertible(f, m)
        if n > 40:
            # The oracles take seconds at this size; m is invertible, so the
            # solution is unique and equal to theirs iff it solves the system.
            assert oracle.mat_mul(f, m, got) == rhs
            return
        assert oracle.is_invertible(f, m) and got == oracle.solve(f, m, rhs)
        singular = m[:-1] + m[-2:-1] if n >= 2 else ((0,),)
        assert is_invertible(f, singular) == oracle.is_invertible(f, singular) is False
        assert solve(f, singular, rhs) is oracle.solve(f, singular, rhs) is None

    # `_factor` fails exactly on the singular matrices.  Replayed from its
    # steps, each pivot is the first row left whose slot 0 is nonzero mod q,
    # reduced exactly; every multiplier is below q and clears slot 0 of its
    # row; and every slot of every row stays within (q-1) + (n-1)(q-1)^2,
    # which its slot bytes hold.
    @settings(max_examples=150, deadline=None)
    @given(packed_systems())
    def test_pivot_rows_match_parent_kernel(self, system):
        q, m, rhs = system
        n = len(m)
        width = n + (len(rhs[0]) if rhs else 0)
        got = field._factor(q, zip(m, rhs), n, width)
        assert (got is None) == (not oracle.is_invertible(PrimeField(q), m))
        if got is None:
            return
        pivots, steps, nb = got
        bound = q - 1 + (n - 1) * (q - 1) ** 2
        assert bound < 1 << 8 * nb
        rows = field._pack(zip(m, rhs), q, nb, width)
        for c, ((i, gs), p) in enumerate(zip(steps, pivots)):
            slots = [_slots(x, width - c, nb) for x in rows]
            assert all(v <= bound for row in slots for v in row)
            assert i == next(j for j, row in enumerate(slots) if row[0] % q)
            pivot = _slots(p, width - c, nb)
            assert all(v < q for v in pivot) and pivot == [v % q for v in slots.pop(i)]
            assert all(g < q and (row[0] + g * pivot[0]) % q == 0 for row, g in zip(slots, gs))
            rows.pop(i)
            rows = [(x + g * p) >> 8 * nb for x, g in zip(rows, gs)]

    # Exact pivot rows put the N x N decode matrices of 8^3 and 12^3 in 4-byte
    # struct slots; pivots reduced only into [0, 2q) needed 8 at both.
    @pytest.mark.parametrize("q, n", [(157, 122), (331, 246)])
    def test_decode_matrix_slots(self, q, n):
        assert field._factor(q, (), n, n)[2] == 4


@st.composite
def square_blocks(draw):
    """(q, m): a square block of size 1-12 over a field from LAZY_QS, random,
    rank-deficient (one row a combination of others), with a zero row, or
    with a repeated row; entries reduced, unreduced or negative."""
    q = draw(st.sampled_from(LAZY_QS))
    n = draw(st.integers(1, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    m = _entries(rng, q, n, n, draw(st.sampled_from((0, 1, 3))))
    kind = draw(st.sampled_from(("random", "rank-deficient", "zero row", "repeated row")))
    i = rng.randrange(n)
    if kind == "zero row":
        m[i] = [q * rng.randrange(-2, 3) for _ in range(n)]
    elif n >= 2 and kind != "random":
        others = [j for j in range(n) if j != i]
        used = others if kind == "rank-deficient" else [rng.choice(others)]
        cs = [rng.randrange(q) if kind == "rank-deficient" else 1 for _ in used]
        m[i] = [sum(c * m[j][col] for c, j in zip(cs, used)) + q * rng.randrange(-2, 3) for col in range(n)]
    return q, tuple(map(tuple, m))


@functools.cache
def _inverses(q):
    """-1/v mod q for v in [0, 2q), as the audit's block test reads them, 0 at v = 0
    and q (never a pivot, and how the batched test tells one); no table past 2^11,
    where the audit would not build one."""
    return [-pow(v, -1, q) % q if v % q else 0 for v in range(2 * q)] if q < 1 << 11 else None


def _batched(rows, layout, inverses) -> bool:
    """Whether `field._singular_many` finds the one block of ``rows`` singular."""
    found = field._singular_many([[r] for r in rows], layout, inverses)
    assert found <= {0}
    return found == {0}


class TestFactorAgainstParent:
    """`solve`'s factor-then-apply path and the audit's batched block test
    (`_singular_many`, here on batches of one block) against plain
    elimination, past 2^64 and at 2^118."""

    @settings(max_examples=250, deadline=None)
    @given(packed_systems(LAZY_QS))
    def test_solve(self, system):
        q, m, rhs = system
        f = PrimeField(q)
        assert solve(f, m, rhs) == oracle.solve(f, m, rhs)
        assert is_invertible(f, m) == oracle.is_invertible(f, m)
        # The kept factorisation serves a second right-hand side too.
        assert solve(f, m, rhs[::-1]) == oracle.solve(f, m, rhs[::-1])

    # Pivot inverses from the table or from pow.
    @settings(max_examples=400, deadline=None)
    @given(square_blocks(), st.booleans())
    def test_singular_blocks(self, block, table):
        q, m = block
        n = len(m)
        rows, layout = field._lazy_pack(q, zip(m), n, n)
        inverses = _inverses(q) if table else None
        assert _batched(rows, layout, inverses) == (not oracle.is_invertible(PrimeField(q), m))

    # The audit hands the block test the n - 1 rows left after its own first
    # step, with slots below 2q: each slot lifted by q at random, or every one.
    @settings(max_examples=200, deadline=None)
    @given(square_blocks(), st.sampled_from([0, 1, None]), st.integers(0, 2 ** 32), st.booleans())
    def test_singular_blocks_below_2q(self, block, lift, seed, table):
        q, m = block
        n, rng = len(m), random.Random(seed)
        _, layout = field._lazy_pack(q, (), n + 1, n)
        rows = [_packed([v % q + q * (rng.randrange(2) if lift is None else lift) for v in row], layout[3])
                for row in m]
        inverses = _inverses(q) if table else None
        assert _batched(rows, layout, inverses) == (not oracle.is_invertible(PrimeField(q), m))

    # T = 1 leaves no row after the audit's first step, so the block is
    # invertible; T = 2 leaves one, decided by its slot 0 mod q, alone or in a batch.
    @pytest.mark.parametrize("q", [13, 331, LAZY_QS[-1]])
    @pytest.mark.parametrize("table", [True, False])
    def test_one_and_two_row_blocks(self, q, table):
        _, layout = field._lazy_pack(q, (), 2, 1)
        inverses = _inverses(q) if table else None
        assert field._singular_many([], layout, inverses) == set()
        cases = ((0, True), (1, False), (q - 1, False), (q, True), (q + 1, False), (2 * q - 1, False))
        for v, singular in cases:
            assert _batched([_packed([v], layout[3])], layout, inverses) is singular
        batch = [[_packed([v], layout[3]) for v, _ in cases]]
        assert field._singular_many(batch, layout, inverses) == {b for b, (_, s) in enumerate(cases) if s}

    def test_solve_applies_the_kept_factorisation(self):
        f = PrimeField(next_prime(2 ** 118))
        m = _every_multiplier_q_minus_1(f.q, 30)
        assert is_invertible(f, m)
        before = field._lu.cache_info()
        assert solve(f, m, ((1,),) * 30) == oracle.solve(f, m, ((1,),) * 30)
        after = field._lu.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
