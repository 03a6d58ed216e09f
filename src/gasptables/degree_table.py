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


def _mask(values: Iterable[int]) -> int:
    """The bitset of a set of entry values: bit v is set for each value v."""
    mask = 0
    for v in values:
        mask |= 1 << v
    return mask


def _check(table: DegreeTable) -> tuple[ValidationReport, int]:
    """validate()'s report and the table's distinct-entry count, in one pass.

    Each row, the larger side's value set shifted by a value of the other, is
    ORed into `once` after its overlap with `once` is ORed into `twice`; the
    prefix sumset's rows pair the two prefixes the same way.  Each prefix sum
    occurs at least once, so D3 fails exactly at the prefix sums in `twice`;
    the least is the witness.  Rows are bitsets, or sets when the largest sum
    exceeds _SPARSE_RATIO times the row size (measured crossover).
    """
    sa, sb = set(table.alpha), set(table.beta)
    d1, d2 = len(sa) == len(table.alpha), len(sb) == len(table.beta)
    shifts, values = sorted((sa, sb), key=len)
    p_shifts, p_values = sorted((set(table.alpha_p), set(table.beta_p)), key=len)
    sparse = max(shifts) + max(values) > _SPARSE_RATIO * len(values)
    if sparse:
        row, base, p_base = (lambda s, a: {a + v for v in s}), values, p_values
        once, twice, prefix = set(), set(), set()
    else:
        row, base, p_base = int.__lshift__, _mask(values), _mask(p_values)
        once = twice = prefix = 0
    for a in shifts:
        r = row(base, a)
        twice |= once & r
        once |= r
    for a in p_shifts:
        prefix |= row(p_base, a)
    bad = prefix & twice
    witness = min(bad, default=None) if sparse else ((bad & -bad).bit_length() - 1 if bad else None)
    distinct = len(once) if sparse else once.bit_count()
    return ValidationReport(d1_ok=d1, d2_ok=d2, d3_ok=witness is None, d3_witness=witness), distinct


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
