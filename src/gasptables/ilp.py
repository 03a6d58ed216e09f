"""Integer-program formulations of the degree-table problem.

build_blp gives the general boolean model: one indicator per possible entry
value, per row value, per column value, and per cell/value pair, with
symmetry cuts that pin sorted blocks and a zero minimum on each side.
build_ilp_fixed is the far smaller model when the standard prefix and beta
are frozen and only the alpha suffix is free.

Models are plain data (variables, linear constraints with one term per
variable, objective) and are serialized to LP text for an external solver.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .bounds import EntryBound, census_bounds
from .degree_table import DomainError
from .gasp import standard_beta, suffix_window

Coeffs = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" or "integer"
    lower: int = 0
    upper: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("binary", "integer"):
            raise DomainError(f"unknown variable kind {self.kind!r}")
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", self.name):
            raise DomainError(f"bad variable name {self.name!r}")
        if self.kind == "binary":
            if self.lower != 0 or self.upper not in (None, 1):
                raise DomainError(f"binary {self.name} must have bounds 0 and 1, got {self.lower}, {self.upper}")
            object.__setattr__(self, "upper", 1)  # one representation, however declared
        elif self.upper is not None and self.lower > self.upper:
            raise DomainError(f"variable {self.name} has lower bound {self.lower} > upper {self.upper}")


def _merge(coeffs: Coeffs) -> Coeffs:
    """Sum the coefficients of each variable, drop zero sums, sort by name."""
    total: dict[str, int] = {}
    for name, c in coeffs:
        total[name] = total.get(name, 0) + c
    return tuple(sorted((n, c) for n, c in total.items() if c))


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coeffs: Coeffs  # one term per variable, sorted by name, no zero coefficients
    sense: str  # "<=", ">=", "="
    rhs: int

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise DomainError(f"bad sense {self.sense!r}")
        object.__setattr__(self, "coeffs", _merge(self.coeffs))


@dataclass(frozen=True)
class IlpModel:
    name: str
    objective: Coeffs  # minimization, merged like constraint coefficients
    variables: tuple[Variable, ...]  # sorted by name
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", _merge(self.objective))
        object.__setattr__(self, "variables", tuple(sorted(self.variables, key=lambda v: v.name)))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DomainError("duplicate variable name in model")
        cnames = [c.name for c in self.constraints]
        if len(set(cnames)) != len(cnames):
            raise DomainError("duplicate constraint name in model")
        if set(cnames) & set(names):
            raise DomainError("constraint name collides with a variable name")
        known = set(names)
        for n, _ in self.objective:
            if n not in known:
                raise DomainError(f"objective references unknown variable {n}")
        for c in self.constraints:
            for n, _ in c.coeffs:
                if n not in known:
                    raise DomainError(f"constraint {c.name} references unknown variable {n}")


def build_ilp_fixed(K: int, L: int, T: int, tight_link: bool = False) -> IlpModel:
    """ILP for the best alpha suffix under the standard prefix and beta.

    S_(r,s) = 1 picks value s for suffix row r, R_r carries the picked value,
    U_e flags entry values in use outside the prefix block, and N = KL +
    sum(U) is minimized.  Rows: def_N; K+T-1 fix_U for values always used;
    link_(r,s) for each of the T rows and V = TKL+T^2+K-KL values; one_r and
    val_r; sort_i and gap_i, which keep suffix values sorted with bounded gaps
    and so cut permutation symmetry without losing an equivalence class.
    That is T^2KL+T^3-TKL+TK+5T+K-2 rows.  tight_link splits each link row
    into L+T per-column rows, stronger for an LP relaxation: (L+T-1)TV more.
    """
    v_lo, v_hi, gap, f_hi = suffix_window(K, L, T)
    kl = K * L
    beta = standard_beta(K, L, T)
    e_lo, e_hi = kl, v_hi + gap - 1
    values = range(v_lo, v_hi + 1)
    rows = range(K + 1, K + T + 1)

    variables = [Variable("N", "integer", lower=kl, upper=e_hi - e_lo + 1 + kl)]
    variables += [Variable(f"U_{e}", "binary", 0, 1) for e in range(e_lo, e_hi + 1)]
    variables += [Variable(f"R_{r}", "integer", lower=v_lo, upper=v_hi) for r in rows]
    variables += [Variable(f"S_{r}_{s}", "binary", 0, 1) for r in rows for s in values]

    cons: list[LinearConstraint] = []
    cons.append(LinearConstraint(
        "def_N",
        (("N", 1),) + tuple((f"U_{e}", -1) for e in range(e_lo, e_hi + 1)),
        "=", kl,
    ))
    for e in range(kl, f_hi + 1):
        cons.append(LinearConstraint(f"fix_U_{e}", ((f"U_{e}", 1),), "=", 1))
    for r in rows:
        for s in values:
            if tight_link:
                for c, bc in enumerate(beta, start=1):
                    cons.append(LinearConstraint(
                        f"link_{r}_{s}_{c}",
                        ((f"S_{r}_{s}", 1), (f"U_{s + bc}", -1)),
                        "<=", 0,
                    ))
            else:
                cons.append(LinearConstraint(
                    f"link_{r}_{s}",
                    ((f"S_{r}_{s}", L + T),) + tuple((f"U_{s + bc}", -1) for bc in beta),
                    "<=", 0,
                ))
    for r in rows:
        cons.append(LinearConstraint(
            f"one_{r}", tuple((f"S_{r}_{s}", 1) for s in values), "=", 1))
    for r in rows:
        cons.append(LinearConstraint(
            f"val_{r}",
            tuple((f"S_{r}_{s}", s) for s in values) + ((f"R_{r}", -1),),
            "=", 0,
        ))
    for i in rows[:-1]:
        cons.append(LinearConstraint(
            f"sort_{i}", ((f"R_{i}", 1), (f"R_{i + 1}", -1)), "<=", -1))
        cons.append(LinearConstraint(
            f"gap_{i}", ((f"R_{i + 1}", 1), (f"R_{i}", -1)), "<=", gap))

    return IlpModel(
        name=f"suffix_{K}_{L}_{T}",
        objective=(("N", 1),),
        variables=tuple(variables),
        constraints=tuple(cons),
    )


def build_blp(K: int, L: int, T: int, entry_bound: Optional[EntryBound] = None) -> IlpModel:
    """Boolean model over all normal tables with entries within the bound.

    The bounds are bounds.census_bounds(K, L, T, entry_bound), so None means
    the proven ones.  Entry values range over [0, bound_alpha + bound_beta].
    R_(r,e) picks the value of alpha row r, C_(c,e) of beta column c,
    M_(r,c,e) of cell (r,c); the uniqueness condition is enforced by
    forbidding any second cell from sharing a value claimed by a prefix-block
    cell.  Symmetry cuts pin each block sorted and force a zero on each side.
    """
    ba, bb = census_bounds(K, L, T, entry_bound)
    e_hi = ba + bb
    evals = range(e_hi + 1)
    rows = range(1, K + T + 1)
    cols = range(1, L + T + 1)
    lam = min(K, L) + T

    variables = [Variable(f"U_{e}", "binary", 0, 1) for e in evals]
    variables += [Variable(f"R_{r}_{e}", "binary", 0, 1) for r in rows for e in evals]
    variables += [Variable(f"C_{c}_{e}", "binary", 0, 1) for c in cols for e in evals]
    variables += [Variable(f"M_{r}_{c}_{e}", "binary", 0, 1)
                  for r in rows for c in cols for e in evals]

    cons: list[LinearConstraint] = []
    for r in rows:
        for c in cols:
            for e in evals:
                cons.append(LinearConstraint(
                    f"ub_{r}_{c}_{e}",
                    ((f"M_{r}_{c}_{e}", 1), (f"U_{e}", -1)), "<=", 0))
    for e in evals:
        for rp in range(1, K + 1):
            for cp in range(1, L + 1):
                coeffs = [(f"M_{r}_{c}_{e}", 1)
                          for r in rows for c in cols if (r, c) != (rp, cp)]
                coeffs.append((f"M_{rp}_{cp}_{e}", lam))
                cons.append(LinearConstraint(f"uniq_{rp}_{cp}_{e}", tuple(coeffs), "<=", lam))
    for e in evals:
        cons.append(LinearConstraint(
            f"drow_{e}", tuple((f"R_{r}_{e}", 1) for r in rows), "<=", 1))
    for e in evals:
        cons.append(LinearConstraint(
            f"dcol_{e}", tuple((f"C_{c}_{e}", 1) for c in cols), "<=", 1))
    for r in rows:
        for c in cols:
            cons.append(LinearConstraint(
                f"cell_{r}_{c}", tuple((f"M_{r}_{c}_{e}", 1) for e in evals), "=", 1))
    for r in rows:
        cons.append(LinearConstraint(
            f"rone_{r}", tuple((f"R_{r}_{e}", 1) for e in evals), "=", 1))
    for c in cols:
        cons.append(LinearConstraint(
            f"cone_{c}", tuple((f"C_{c}_{e}", 1) for e in evals), "=", 1))
    for r in rows:
        for c in cols:
            coeffs = [(f"M_{r}_{c}_{e}", e) for e in evals]
            coeffs += [(f"R_{r}_{e}", -e) for e in evals]
            coeffs += [(f"C_{c}_{e}", -e) for e in evals]
            cons.append(LinearConstraint(f"sum_{r}_{c}", tuple(coeffs), "=", 0))

    def sortrow(kind: str, i: int) -> LinearConstraint:
        coeffs = [(f"{kind}_{i}_{e}", e) for e in evals]
        coeffs += [(f"{kind}_{i + 1}_{e}", -e) for e in evals]
        return LinearConstraint(f"ord_{kind}_{i}", tuple(coeffs), "<=", -1)

    for r in range(1, K):
        cons.append(sortrow("R", r))
    for r in range(K + 1, K + T):
        cons.append(sortrow("R", r))
    for c in range(1, L):
        cons.append(sortrow("C", c))
    for c in range(L + 1, L + T):
        cons.append(sortrow("C", c))
    cons.append(LinearConstraint(
        "zero_alpha", ((f"R_1_0", 1), (f"R_{K + 1}_0", 1)), "=", 1))
    cons.append(LinearConstraint(
        "zero_beta", ((f"C_1_0", 1), (f"C_{L + 1}_0", 1)), "=", 1))

    return IlpModel(
        name=f"census_{K}_{L}_{T}",
        objective=tuple((f"U_{e}", 1) for e in evals),
        variables=tuple(variables),
        constraints=tuple(cons),
    )


# ---------------------------------------------------------------------------
# LP text

_MAX_LINE = 255


def _format_terms(coeffs: Coeffs) -> str:
    text = " ".join(f"{'+' if c > 0 else '-'} {'' if abs(c) == 1 else f'{abs(c)} '}{name}"
                    for name, c in coeffs)
    return text.removeprefix("+ ")


def _wrap(line: str) -> list[str]:
    out = []
    while len(line) > _MAX_LINE:
        cut = line.rfind(" ", 1, _MAX_LINE)
        if cut <= 0:
            cut = _MAX_LINE
        out.append(line[:cut])
        line = " " + line[cut:].lstrip()
    out.append(line)
    return out


def emit_lp_text(model: IlpModel) -> str:
    """Serialize to LP text: Minimize/Subject To/Bounds/Binary/General/End.

    Ordering is deterministic (terms sorted by variable name inside each
    expression, sections sorted by variable name) and lines are wrapped to
    255 characters, so output is diff-stable and digestible by the usual
    solvers.
    """
    lines: list[str] = [f"\\ {model.name}", "Minimize"]
    lines += _wrap(" obj: " + _format_terms(model.objective))
    lines.append("Subject To")
    for c in model.constraints:
        lines += _wrap(f" {c.name}: {_format_terms(c.coeffs)} {c.sense} {c.rhs}")
    integers = [v for v in model.variables if v.kind == "integer"]
    binaries = [v for v in model.variables if v.kind == "binary"]
    if integers:
        lines.append("Bounds")
        lines += [f" {v.lower} <= {v.name} <= {'+inf' if v.upper is None else v.upper}"
                  for v in integers]
    if binaries:
        lines += ["Binary"] + [f" {v.name}" for v in binaries]
    if integers:
        lines += ["General"] + [f" {v.name}" for v in integers]
    lines.append("End")
    return "\n".join(lines) + "\n"
