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

A sampled security audit splits its block tests over forked workers, up to
one per CPU the process may run on; its report does not depend on how many.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import signal
import sys
import threading
from array import array
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import mul

from .degree_table import DegreeTable, DomainError, _require_int, count_distinct, sumset
# perfbench's traced run wraps is_invertible, solve and mat_mul under these names here: keep them.
from .field import (Matrix, PrimeField, _lazy_pack, _pack, _shape, _singular_many, _slot_bytes, _unpack, is_invertible,
                    mat_combine, mat_mul, next_prime, solve)

# Point selection audits this many T-subsets per attempt and gives up after
# MAX_POINT_RETRIES attempts; both are read at call time, so tests can patch them.
SELECTION_SAMPLES = 50
MAX_POINT_RETRIES = 64
# A sampled audit draws SAMPLED_SUBSET_COUNT distinct subsets where there are more than its mode
# enumerates, so it never covers them all: keep it at most EXHAUSTIVE_SUBSET_LIMIT.
EXHAUSTIVE_SUBSET_LIMIT = 100_000
SAMPLED_SUBSET_COUNT = 10_000
# mode="all" refuses to enumerate more subsets than this.
MAX_EXHAUSTIVE_SUBSETS = 10**7
# The sampled audit takes this many subsets through the block test's elimination
# steps together: time is flat from 128 up, and memory grows with the chunk.
AUDIT_CHUNK = 128
# security_check's sampled audit forks a worker for each this many chunks, up to one per CPU
# the process may run on; read at call time, so tests can patch it.
MIN_WORKER_CHUNKS = 8


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
    failures: tuple[tuple[tuple[int, ...], str], ...] = ()

    @property
    def exhaustive(self) -> bool:
        return self.checked == self.total_subsets

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


def _subsets(n: int, t: int, limit: int, samples: int, rng: random.Random):
    """None (every t-subset of range(n)) if there are at most ``limit``, else ``samples`` distinct
    sorted random t-subsets (so ``samples`` must be below the count), all drawn before the caller
    checks any.  A draw adds getrandbits(bits(n)) values below n to a set until it holds t, and a
    repeated subset is drawn again, so the draws before the first repeat are the plain stream's."""
    if math.comb(n, t) <= limit:
        return None
    gb, k, drawn = rng.getrandbits, n.bit_length(), {}
    while len(drawn) < samples:
        sel = set()
        while len(sel) < t:
            if (x := gb(k)) < n:
                sel.add(x)
        drawn[tuple(sorted(sel))] = None
    return list(drawn)


def _dependent_subsets(q: int, rows, t: int):
    """Every linearly dependent t-subset of ``rows``, in lexicographic order, from one DFS that carries a basis of
    the vectors orthogonal to the prefix's rows: a row is in their span iff orthogonal to all of them, and the
    completions of a dependent prefix need no work at all.  A node reads its rows' dots from one sum per basis
    vector over the columns, packed once in slots of t(q-1)^2.  At t - 2 rows the basis is two vectors, and rows
    i < j complete a dependent set iff their dot pairs are dependent in GF(q)^2: one is (0, 0), or both name the
    same point of the projective line, d1/d2 or, when d2 = 0, q.  The 1/d2 come from a table of q inverses when
    there are as many rows to key, at most C(n, t-1) (a (t-2)-prefix and one row after it), else from `pow`."""
    n = len(rows)
    nb = _slot_bytes((t * (q - 1) ** 2).bit_length())
    cols = _pack([(col,) for col in zip(*rows)], q, nb, n)
    table = [pow(v, -1, q) if v else 0 for v in range(q)] if t > 1 and q <= math.comb(n, t - 1) else None

    def walk(prefix, basis, lo):
        dots = [_unpack(sum(map(mul, w, cols)) >> 8 * nb * lo, n - lo, nb, q) for w in basis]
        if len(basis) == 2:
            # The class of each row: d1/d2 in [0, q), q when d2 = 0, and q + 1 for (0, 0).
            inv = map(table.__getitem__, dots[1]) if table else (pow(b, -1, q) if b else 0 for b in dots[1])
            keys = [a * v % q if b else q + (not a) for a, b, v in zip(*dots, inv)]
            if q + 1 in keys or len(set(keys)) < len(keys):
                mates = {}
                for i, c in enumerate(keys, lo):
                    mates.setdefault(c, []).append(i)
                zero = mates.pop(q + 1, [])
                pairs = {p for g in mates.values() if zero or len(g) > 1 for p in combinations(sorted(g + zero), 2)}
                yield from (prefix + p for p in sorted(pairs.union(combinations(zero, 2))))
        else:
            for i, ds in zip(range(lo, n - t + len(prefix) + 1), zip(*dots)):
                if not any(ds):
                    s = prefix + (i,)
                    yield from (s + rest for rest in combinations(range(i + 1, n), t - len(s)))
                else:
                    # Clear row i's dot from the other basis vectors with the first nonzero one.
                    j = next(k for k, d in enumerate(ds) if d)
                    f = pow(ds[j], -1, q)
                    rest = [[(a - d * f * b) % q for a, b in zip(w, basis[j])]
                            for k, (w, d) in enumerate(zip(basis, ds)) if k != j]
                    yield from walk(prefix + (i,), rest, i + 1)

    return walk((), [[int(i == j) for j in range(t)] for i in range(t)], 0)


def _mask_side(field: PrimeField, points, exps, count: int):
    """None when no T x T block of this side can be singular, else leaks(chunk): the set of positions
    of the singular blocks in a non-empty list of subsets.  The proof is for exponents a, a+d, ...,
    whose blocks diag(x^a) Vandermonde(x^d) are invertible when no point is zero and no two share x^d.
    Every other side is block-tested: a block is diag(x^e0) times the rows x^(e - e0), e0 the least
    exponent, packed with the columns sorted, so slot 0 is 1.  diag(x^e0) is invertible but on a zero
    point, whose row sinks every block when e0 > 0.  So leaks(chunk) takes the first step free, a row
    position at a time: with c = q in every slot minus a subset's first row, each other row x goes to
    (x + c) >> slot, below 2q.  `_singular_many` takes the chunk's blocks through the other steps
    together, in tight slots (never unpacked) and with the 2q pivot inverses listed once if ``count``
    subsets need more `pow` calls than that."""
    q, t, n = field.q, len(exps), len(points)
    steps = {b - a for a, b in zip(exps, exps[1:])}
    if (len(steps) <= 1 and all(x % q for x in points)
            and len({field.pow(x, max(steps, default=1)) for x in points}) == n):
        return None
    e0 = min(exps)
    zeros = {i for i, x in enumerate(points) if x % q == 0} if e0 else set()
    packed, layout = _lazy_pack(q, zip(_powers(field, points, sorted(e - e0 for e in exps))), t, t)
    w = 8 * layout[3]
    qs = q * sum(1 << w * j for j in range(t))
    inverses = [q - pow(v, -1, q) if v % q else 0 for v in range(2 * q)] if 2 * q <= count * (t - 1) else None

    def leaks(chunk):
        first, *rest = zip(*chunk)
        c = [qs - packed[i] for i in first]
        found = _singular_many([[(packed[i] + d) >> w for i, d in zip(col, c)] for col in rest], layout, inverses)
        return found | {b for b, s in enumerate(chunk) if not zeros.isdisjoint(s)} if zeros else found

    return leaks


def _fork(test, run, w: int):
    """A child's pid, or None where os.fork fails.  The child writes test(*run) down the pipe end
    ``w`` behind its byte count and leaves by os._exit, with the signals `_in_workers` holds."""
    try:
        if pid := os.fork():
            return pid
    except OSError:
        return None
    try:
        data = test(*run).tobytes()
        with open(w, "wb") as out:
            out.write(len(data).to_bytes(8, "little") + data)
    finally:
        os._exit(0)  # the parent reads the payload, not the status


def _in_workers(test, n: int) -> array:
    """test(lo, hi) over contiguous runs of range(n), one run per worker, concatenated in run order.
    The parent tests run 0 and a forked child each other run; a run whose fork fails or whose child
    sends a short payload is tested in the parent.  Signals are held from before the first fork until
    every child is listed, so the `finally` kills and reaps each one."""
    usable = hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1
    if (workers := min(len(os.sched_getaffinity(0)), n // MIN_WORKER_CHUNKS) if usable else 1) < 2:
        return test(0, n)
    cuts = [n * w // workers for w in range(workers + 1)]
    runs, live, held = list(zip(cuts, cuts[1:])), [], signal.pthread_sigmask(signal.SIG_BLOCK, ())
    try:
        signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
        for run in runs[1:]:
            r, w = os.pipe()
            live.append((run, open(r, "rb"), _fork(test, run, w)))
            os.close(w)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)
        found = test(*runs[0])
        for run, pipe, _ in live:
            got = pipe.read()
            if int.from_bytes(got[:8], "little") == len(got) - 8:
                found.frombytes(got[8:])
            else:
                found.extend(test(*run))
        return found
    finally:
        for _, pipe, pid in live:
            pipe.close()
            if pid:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _leaks(field: PrimeField, points, table: DegreeTable, subsets):
    """Yield (subset, side), alpha first, for each singular T x T mask block of a side
    `_mask_side` cannot prove clean: over ``subsets`` in order, by the side's block test
    AUDIT_CHUNK at a time, or, when ``subsets`` is None, over every T-subset in lexicographic
    order, streamed by `_dependent_subsets` on the side's powers.  The chunks are split over
    workers by `_in_workers`; point selection's SELECTION_SAMPLES subsets are one chunk, so
    its audit stays in one process."""
    sides = [(side, exps, leaks) for side, exps in (("alpha", table.alpha_s), ("beta", table.beta_s))
             if (leaks := _mask_side(field, points, exps, len(subsets or ())))]
    if subsets is None:
        return heapq.merge(*(zip(_dependent_subsets(field.q, _powers(field, points, exps), table.T), repeat(side))
                             for side, exps, _ in sides))
    chunks = [subsets[c:c + AUDIT_CHUNK] for c in range(0, len(subsets), AUDIT_CHUNK)]

    def test(lo, hi):
        # 2i + j for each singular block of subset i on side j, in the chunks lo to hi - 1, ascending.
        return array("q", sorted(2 * (c * AUDIT_CHUNK + b) + j for c in range(lo, hi)
                                 for j, (_, _, leaks) in enumerate(sides) for b in leaks(chunks[c])))

    found = _in_workers(test, len(chunks)) if sides else ()
    return ((subsets[v >> 1], sides[v & 1][0]) for v in found)


def choose_field_and_points(
    table: DegreeTable,
    base_q: int = 2,
    seed: int = 0,
) -> tuple[PrimeField, tuple[int, ...]]:
    """Pick a prime field and N distinct nonzero evaluation points.

    q is the smallest prime at least max(base_q, M + 2, N + 1) where M is the
    largest table entry, so exponent arithmetic mod q - 1 cannot merge two
    distinct degrees.  Candidate point sets are rejection-sampled until the
    decode matrix and the T x T security submatrices of SELECTION_SAMPLES
    distinct random T-subsets (of every one, where there are no more) are all
    invertible, at most MAX_POINT_RETRIES times.  `decode` reuses the accepted
    decode matrix's factorisation.
    """
    _require_int(base_q=base_q, low=2, rule="at least 2")
    n = count_distinct(table)
    degrees = _degrees(table)
    q = next_prime(max(base_q, degrees[-1] + 2, n + 1))
    fld = PrimeField(q)
    rng = random.Random(f"points:{seed}")
    for _ in range(MAX_POINT_RETRIES):
        # range(1, q) has no len() past sys.maxsize; there a rare repeat costs a retry.
        pts = tuple(sorted(rng.sample(range(1, q), n) if q - 1 <= sys.maxsize
                           else {rng.randrange(1, q) for _ in range(n)}))
        if len(pts) < n or not is_invertible(fld, _powers(fld, pts, degrees)):
            continue
        subsets = _subsets(n, table.T, SELECTION_SAMPLES, SELECTION_SAMPLES, rng)
        if next(_leaks(fld, pts, table, subsets), None) is None:
            return fld, pts
    raise DomainError(
        f"no usable evaluation points after {MAX_POINT_RETRIES} attempts over GF({q});"
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
) -> SdmmInstance:
    """Assemble a full protocol run: field, points, masks, shares, answers."""
    partition(a_mat, b_mat, table.K, table.L)  # shape errors before point selection's attempts
    fld, pts = choose_field_and_points(table, base_q=base_q, seed=seed)
    a_red = tuple(tuple(v % fld.q for v in row) for row in a_mat)
    b_red = tuple(tuple(v % fld.q for v in row) for row in b_mat)
    a_blocks, b_blocks = partition(a_red, b_red, table.K, table.L)
    a, b, c = len(a_red), len(b_red), len(b_red[0])
    mrng = random.Random(f"masks:{seed}")
    ra, cl = a // table.K, c // table.L
    r_masks = tuple(fld.random_matrix(mrng, ra, b) for _ in range(table.T))
    s_masks = tuple(fld.random_matrix(mrng, b, cl) for _ in range(table.T))
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


def security_check(inst: SdmmInstance, mode: str = "auto", seed: int = 0) -> SecurityReport:
    """Verify the T x T mask submatrices are invertible for server subsets.

    ``mode="all"`` tries every subset (refusing past MAX_EXHAUSTIVE_SUBSETS), "auto"
    every one when there are at most EXHAUSTIVE_SUBSET_LIMIT, "sampled" when there are
    at most SAMPLED_SUBSET_COUNT; otherwise SAMPLED_SUBSET_COUNT distinct random subsets
    drawn from ``seed`` and tested AUDIT_CHUNK at a time, each mask side's blocks by one
    batched elimination (see `_mask_side`).  Those chunks are cut into contiguous runs, one
    per CPU the process may run on but at least MIN_WORKER_CHUNKS each, and every run but
    the first is tested in a forked child; the audit stays in this process where fork is
    missing or another thread runs.  A failure names the subset and the side that leaked,
    in the same order however many workers there are; the report is exhaustive exactly
    when it checked every subset.
    """
    # The most subsets each mode enumerates; above that it samples instead.
    limits = {"all": MAX_EXHAUSTIVE_SUBSETS, "auto": EXHAUSTIVE_SUBSET_LIMIT, "sampled": SAMPLED_SUBSET_COUNT}
    if mode not in limits:
        raise DomainError(f"unknown mode {mode!r}")
    n, t = inst.n_servers, inst.table.T
    total = math.comb(n, t)
    if mode == "all" and total > MAX_EXHAUSTIVE_SUBSETS:
        raise DomainError(f"an exhaustive audit would check C({n},{t}) = {total} subsets,"
                          f" more than {MAX_EXHAUSTIVE_SUBSETS}; use a sampled audit")
    subsets = _subsets(n, t, limits[mode], SAMPLED_SUBSET_COUNT, random.Random(f"security:{seed}"))
    return SecurityReport(total_subsets=total, checked=total if subsets is None else len(subsets),
                          failures=tuple(_leaks(inst.field, inst.points, inst.table, subsets)))
