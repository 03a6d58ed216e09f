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
    vec = tuple(values)
    if len(vec) == 0:
        raise DomainError(f"{name} must be nonempty")
    if set(map(type, vec)) == {int} and min(vec) >= 0:
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
        if len(self.alpha_p) != self.K:
            raise DomainError(f"alpha_p has length {len(self.alpha_p)}, expected K={self.K}")
        if len(self.alpha_s) != self.T:
            raise DomainError(f"alpha_s has length {len(self.alpha_s)}, expected T={self.T}")
        if len(self.beta_p) != self.L:
            raise DomainError(f"beta_p has length {len(self.beta_p)}, expected L={self.L}")
        if len(self.beta_s) != self.T:
            raise DomainError(f"beta_s has length {len(self.beta_s)}, expected T={self.T}")

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


def _mask(block: ExponentVector) -> int:
    """The bitset of a block: bit v is set for each entry v.  An ascending
    progression of three or more terms is one geometric series of bits, built
    by one division by its ratio 2^s - 1."""
    n, lo, hi = len(block), block[0], block[-1]
    if n > 2 and (s := block[1] - lo) > 0 and hi == lo + s * (n - 1) and block == tuple(range(lo, hi + 1, s)):
        return ((1 << s * n) - 1) // ((1 << s) - 1) << lo
    mask = 0
    for v in block:
        mask |= 1 << v
    return mask


def _check(table: DegreeTable) -> tuple[ValidationReport, int]:
    """validate()'s report and the table's distinct-entry count, in one pass.

    A side's distinct entries are the popcount of its blocks' bitsets, which
    D1 and D2 compare with its length.  Each row, the side with more distinct
    entries shifted by an entry of the other, is ORed into `once` after its
    overlap with `once` is ORed into `twice`; the prefix sumset's rows pair the
    prefixes the same way.  D3 fails exactly at the prefix sums in `twice`;
    the least is the witness.  Rows are sets when the largest sum exceeds
    _SPARSE_RATIO times the larger distinct count (measured crossover), which
    the side lengths decide before any bitset is built when they can.
    """
    alpha, beta = table.alpha, table.beta
    top = max(alpha) + max(beta)
    sparse = top > _SPARSE_RATIO * max(len(alpha), len(beta))
    if not sparse:
        pa, pb = _mask(table.alpha_p), _mask(table.beta_p)
        va, vb = pa | _mask(table.alpha_s), pb | _mask(table.beta_s)
        sparse = top > _SPARSE_RATIO * max(va.bit_count(), vb.bit_count())
    if sparse:
        pa, pb, va, vb = set(table.alpha_p), set(table.beta_p), set(alpha), set(beta)
        size, shifted, once, twice, prefix = len, (lambda s: lambda a: {a + v for v in s}), set(), set(), set()
    else:
        size, shifted, once, twice, prefix = int.bit_count, (lambda s: s.__lshift__), 0, 0, 0
    na, nb = size(va), size(vb)
    # Shifts: the side with fewer distinct entries (alpha on a tie), descending (faster), or a set if one repeats.
    shifts, values, n = (alpha, vb, na) if na <= nb else (beta, va, nb)
    for r in map(shifted(values), reversed(shifts) if len(shifts) == n else set(shifts)):
        twice |= once & r
        once |= r
    p_shifts, p_values = (table.alpha_p, pb) if size(pa) <= size(pb) else (table.beta_p, pa)
    for r in map(shifted(p_values), p_shifts):
        prefix |= r
    bad = prefix & twice
    witness = min(bad, default=None) if sparse else ((bad & -bad).bit_length() - 1 if bad else None)
    report = ValidationReport(d1_ok=na == len(alpha), d2_ok=nb == len(beta), d3_ok=witness is None, d3_witness=witness)
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
