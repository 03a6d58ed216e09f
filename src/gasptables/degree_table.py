"""Degree tables for polynomial-coded matrix multiplication.

A degree table for partition parameters (K, L) and collusion tolerance T is a
pair of exponent vectors, alpha = alpha_p | alpha_s of length K + T and
beta = beta_p | beta_s of length L + T.  Entry (i, j) of the table is
alpha_i + beta_j: the degree produced when a server multiplies the two
encoding polynomials evaluated at its point.  A table is usable when

  D1: the entries of alpha are pairwise distinct,
  D2: the entries of beta are pairwise distinct,
  D3: every value in Set(alpha_p) + Set(beta_p) is produced by exactly one
      cell of the whole table.

D3 is what makes the products of the data blocks recoverable: the degree of
each wanted product collides with nothing else.  The number of distinct
entries of the table equals the number of servers needed, so the rest of the
package is about driving that count down subject to D1, D2, D3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

ExponentVector = tuple[int, ...]

_SPARSE_RATIO = 1024  # _check uses sets when a bitset row takes more bits per row value


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on.

    Every bad argument in the package raises it; it is a ValueError, so
    code that catches ValueError keeps catching it."""


def _require_int(*, low: int = 1, rule: str = "a positive integer", **values) -> None:
    """Raise DomainError at the first of ``values`` (name=value) that is not a plain
    int (so not a bool) of at least ``low``; the message says it must be ``rule``."""
    for name, v in values.items():
        if type(v) is not int or v < low:
            raise DomainError(f"{name} must be {rule}, got {v!r}")


class InvalidTableError(DomainError):
    """A degree table failed validation where a valid one is required.

    Carries the ValidationReport so callers can see which condition broke.
    """

    def __init__(self, message: str, report: "ValidationReport"):
        super().__init__(message)
        self.report = report


def _as_exponent_vector(name: str, values: Iterable[int]) -> ExponentVector:
    """``values`` as a tuple of nonnegative ints, checked entry by entry, or by its ends if a nonempty range."""
    vec = tuple(values)
    if len(vec) == 0:
        raise DomainError(f"{name} must be nonempty")
    if type(values) is range and min(values[0], values[-1]) >= 0 or set(map(type, vec)) == {int} and min(vec) >= 0:
        return vec
    for v in vec:
        if not isinstance(v, int) or isinstance(v, bool):
            raise DomainError(f"{name} entries must be integers, got {v!r}")
        if v < 0:
            raise DomainError(f"{name} entries must be nonnegative, got {v}")
    return vec


@dataclass(frozen=True)
class DegreeTable:
    """An (alpha, beta) exponent pair with its declared block structure.

    Construction checks structure only (block lengths match K, L, T and all
    entries are nonnegative integers).  Whether the table satisfies D1, D2,
    D3 is a semantic question answered by validate(); structurally sound but
    invalid tables are deliberately constructible since search and
    equivalence code needs to handle them.
    """

    K: int
    L: int
    T: int
    alpha_p: ExponentVector
    alpha_s: ExponentVector
    beta_p: ExponentVector
    beta_s: ExponentVector

    def __post_init__(self):
        _require_int(K=self.K, L=self.L, T=self.T)
        object.__setattr__(self, "alpha_p", _as_exponent_vector("alpha_p", self.alpha_p))
        object.__setattr__(self, "alpha_s", _as_exponent_vector("alpha_s", self.alpha_s))
        object.__setattr__(self, "beta_p", _as_exponent_vector("beta_p", self.beta_p))
        object.__setattr__(self, "beta_s", _as_exponent_vector("beta_s", self.beta_s))
        for name, dim in (("alpha_p", "K"), ("alpha_s", "T"), ("beta_p", "L"), ("beta_s", "T")):
            if (n := len(getattr(self, name))) != getattr(self, dim):
                raise DomainError(f"{name} has length {n}, expected {dim}={getattr(self, dim)}")

    @property
    def alpha(self) -> ExponentVector:
        return self.alpha_p + self.alpha_s

    @property
    def beta(self) -> ExponentVector:
        return self.beta_p + self.beta_s

    @classmethod
    def from_json_dict(cls, d: dict) -> "DegreeTable":
        if not isinstance(d, dict):
            raise DomainError(f"table JSON must be an object, got {type(d).__name__}")
        blocks = ("alpha_p", "alpha_s", "beta_p", "beta_s")
        missing = {"K", "L", "T", *blocks} - set(d)
        if missing:
            raise DomainError(f"table object missing keys: {sorted(missing)}")
        for name in blocks:
            if not isinstance(d[name], list):
                raise DomainError(f"{name} must be a list of integers, got {type(d[name]).__name__}")
        return cls(K=d["K"], L=d["L"], T=d["T"], **{name: tuple(d[name]) for name in blocks})


@dataclass(frozen=True)
class ValidationReport:
    d1_ok: bool
    d2_ok: bool
    d3_ok: bool
    # A sum from the prefix block with more than one representation, when D3
    # fails.  None otherwise.
    d3_witness: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.d1_ok and self.d2_ok and self.d3_ok


def sumset(a: Iterable[int], b: Iterable[int]) -> set[int]:
    """Set of all pairwise sums {x + y : x in a, y in b}.

    Empty inputs are rejected: an empty sumset has no meaning for a degree
    table and silently returning set() hides bugs upstream.
    """
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise DomainError("sumset requires nonempty operands")
    return {x + y for x in sa for y in sb}


def _step(block: ExponentVector) -> int:
    """The step s > 0 of an ascending progression of 3+ terms, else 0: a block's one O(n) test."""
    s = (block[-1] - block[0]) // (len(block) - 1) if len(block) > 2 else 0
    return s if s > 0 and block[0] + s == block[1] and block == tuple(range(block[0], block[-1] + 1, s)) else 0


def _mask(block: ExponentVector, s: int = 0) -> int:
    """The bitset of a block: bit v is set for each entry v; bit by bit, or given the block's
    step s > 0 (see _step), as one geometric series of bits, one division by 2^s - 1."""
    if s:
        return ((1 << s * len(block)) - 1) // ((1 << s) - 1) << block[0]
    mask = 0
    for v in block:
        mask |= 1 << v
    return mask


def _rows(shift, block, s: int, twice, once):
    """(twice, once) with each row shift(v), v in block, ORed into `once` and its overlap into `twice`: one
    row per entry, last first (widest first on a sorted block: measured faster), or for step s > 0 (bitsets)
    by doubling: c rows and their copy shifted by c*s make 2c, plus one row per set bit of n after the top."""
    if not s:
        for r in map(shift, reversed(block)):
            twice |= once & r
            once |= r
        return twice, once
    t, o, c = 0, shift(0), 1
    for bit in bin(len(block))[3:]:
        t, o, c = t | t << c * s | o & (o << c * s), o | o << c * s, 2 * c
        if bit == "1":
            r = shift(c * s)
            t, o, c = t | o & r, o | r, c + 1
    t, o = t << block[0], o << block[0]
    return twice | t | once & o, once | o


def _check(table: DegreeTable) -> tuple[ValidationReport, int]:
    """validate()'s report and the table's distinct-entry count, in one pass.

    D1 and D2 compare a side's length with the popcount of its blocks' bitsets.  _rows ORs the rows
    of the side with fewer distinct entries (alpha on a tie; its set if it repeats one), each
    shifting the other side's bitset, into `once` and their overlaps into `twice`, and the prefix
    sumset likewise.  D3 fails exactly at the prefix sums in `twice`; the least is the witness.
    Sets replace bitsets when the largest sum exceeds _SPARSE_RATIO times the larger distinct count
    (measured crossover), which the side lengths decide before any bitset is built when they can.
    """
    K, L, T = table.K, table.L, table.T
    blocks = table.alpha_p, table.alpha_s, table.beta_p, table.beta_s
    steps = tuple(map(_step, blocks))
    tops = [block[-1] if s else max(block) for block, s in zip(blocks, steps)]
    top = max(tops[:2]) + max(tops[2:])
    sparse = top > _SPARSE_RATIO * (max(K, L) + T)
    if not sparse:
        pa, sa, pb, sb = map(_mask, blocks, steps)
        va, vb = pa | sa, pb | sb
        sparse = top > _SPARSE_RATIO * max(va.bit_count(), vb.bit_count())
    if sparse:
        steps, (pa, sa, pb, sb) = (0,) * 4, map(set, blocks)
        va, vb, size, shifted, empty = pa | sa, pb | sb, len, (lambda s: lambda a: {a + v for v in s}), set
    else:
        size, shifted, empty = int.bit_count, (lambda s: s.__lshift__), int
    na, nb = size(va), size(vb)
    i, values, repeats = (0, vb, na < K + T) if na <= nb else (2, va, nb < L + T)
    side = [(sorted({*blocks[i], *blocks[i + 1]}), 0)] if repeats else zip(blocks[i:i + 2], steps[i:i + 2])
    twice, once = empty(), empty()
    for block, s in side:
        twice, once = _rows(shifted(values), block, s, twice, once)
    j, p_values = (0, pb) if size(pa) <= size(pb) else (2, pa)
    prefix = _rows(shifted(p_values), blocks[j], steps[j], empty(), empty())[1]
    bad = prefix & twice
    witness = min(bad, default=None) if sparse else ((bad & -bad).bit_length() - 1 if bad else None)
    report = ValidationReport(d1_ok=na == K + T, d2_ok=nb == L + T, d3_ok=witness is None, d3_witness=witness)
    return report, size(once)


def validate(table: DegreeTable) -> ValidationReport:
    """Check D1, D2, D3 and report which failed."""
    return _check(table)[0]


def count_distinct(table: DegreeTable) -> int:
    """Number of distinct entries of a valid degree table.

    This is the number of servers the scheme needs.  Invalid tables are
    rejected with an InvalidTableError because the count is only
    operationally meaningful under D1 to D3; use sumset() directly to size
    an arbitrary table.
    """
    report, distinct = _check(table)
    if not report.ok:
        flags = (("D1", report.d1_ok), ("D2", report.d2_ok), ("D3", report.d3_ok))
        broken = [name for name, ok in flags if not ok]
        detail = f" (witness sum {report.d3_witness})" if report.d3_witness is not None else ""
        raise InvalidTableError(f"degree table violates {', '.join(broken)}{detail}", report)
    return distinct


@dataclass(frozen=True)
class ScoreBreakdown:
    """Per-suffix-row collision counts, scanning the table top-down.

    left[i] counts prefix-column cells of suffix row i whose value already
    occurred in earlier rows; right[i] the same for suffix-column cells (the
    cells of the current row's prefix part count as "earlier" by then).  The
    total is the score S; larger scores mean more collisions and hence fewer
    distinct entries.
    """

    left: tuple[int, ...]
    right: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.left) + sum(self.right)
