"""Integer-program formulations of the degree-table problem.

build_blp gives the general boolean model: one indicator per possible entry
value, per row value, per column value, and per cell/value pair, with
symmetry cuts that pin sorted blocks and a zero minimum on each side.
build_ilp_fixed is the far smaller model when the standard prefix and beta
are frozen and only the alpha suffix is free.

Models are plain data (variables, linear constraints with one term per
variable, objective), can be serialized to LP text for an external solver,
parsed back, and solved directly at desk scale by naive_solve.  That solver
is one depth-first loop over a fixed list of decisions (one-hot groups
first, then single variables), with equality propagation and interval
bounds on every row and on the objective, all undone from one trail.  It
exists to cross-check tiny instances, not to compete with a real solver:
anything beyond K*L*T around 8 is not its job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional, Union

from .degree_table import DomainError
from .gasp import standard_beta

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
        for c in self.constraints:
            for n, _ in c.coeffs:
                if n not in known:
                    raise DomainError(f"constraint {c.name} references unknown variable {n}")

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


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
    if L > K:
        raise DomainError(f"need L <= K, got K={K}, L={L}")
    kl = K * L
    beta = standard_beta(K, L, T)
    v_lo, v_hi = kl, T * (kl + T) + K - 1
    e_lo, e_hi = kl, (T + 1) * (kl + T) + K - 2
    f_hi = kl + K + T - 2
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
            f"gap_{i}", ((f"R_{i + 1}", 1), (f"R_{i}", -1)), "<=", kl + T))

    return IlpModel(
        name=f"suffix_{K}_{L}_{T}",
        objective=(("N", 1),),
        variables=tuple(variables),
        constraints=tuple(cons),
    )


def build_blp(K: int, L: int, T: int, entry_bound: Union[int, tuple[int, int]]) -> IlpModel:
    """Boolean model over all normal tables with entries within the bound.

    Entry values range over [0, bound_alpha + bound_beta].  R_(r,e) picks the
    value of alpha row r, C_(c,e) of beta column c, M_(r,c,e) of cell (r,c);
    the uniqueness condition is enforced by forbidding any second cell from
    sharing a value claimed by a prefix-block cell.  Symmetry cuts pin each
    block sorted and force a zero on each side.
    """
    if isinstance(entry_bound, int):
        ba = bb = entry_bound
    else:
        ba, bb = entry_bound
    if min(K, L, T) < 1 or min(ba, bb) < 0:
        raise DomainError("bad parameters")
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


_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*) *")


def _parse_terms(expr: str) -> Coeffs:
    coeffs = []
    pos = 0
    expr = expr.strip()
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m:
            raise DomainError(f"cannot parse expression near {expr[pos:pos + 30]!r}")
        sign, mag, name = m.groups()
        c = int(mag or 1)
        coeffs.append((name, -c if sign == "-" else c))
        pos = m.end()
    return tuple(coeffs)


_SECTIONS = ("minimize", "subject to", "bounds", "binary", "general", "end")


def _rows(lines: list[str]) -> list[str]:
    """Join continuation lines: a line that does not open with `name:` extends the row before."""
    rows: list[str] = []
    for line in lines:
        if rows and not re.match(r"\s*\w+:", line):
            rows[-1] += " " + line.strip()
        else:
            rows.append(line.strip())
    return rows


def parse_lp_text(text: str) -> IlpModel:
    """Parse LP text produced by emit_lp_text back into a model.

    Supports the subset emit_lp_text writes (integer data, the six
    sections, wrapped lines); not a general LP reader.
    """
    name = "parsed"
    section: Optional[str] = None
    lines: dict[Optional[str], list[str]] = {}
    for raw in text.splitlines():
        line = raw.rstrip()
        if line.startswith("\\"):
            name = line[1:].strip() or name
        elif line.strip().lower() in _SECTIONS:
            section = line.strip().lower()
        elif line:
            lines.setdefault(section, []).append(line)

    bounds: dict[str, tuple[int, Optional[int]]] = {}
    for line in lines.get("bounds", []):
        m = re.match(r"\s*(-?\d+)\s*<=\s*(\w+)\s*<=\s*(\+inf|-?\d+)\s*$", line)
        if not m:
            raise DomainError(f"cannot parse bound line {line!r}")
        lo, vname, hi = m.groups()
        bounds[vname] = (int(lo), None if hi == "+inf" else int(hi))

    objective = _rows(lines.get("minimize", []))
    if not objective:
        raise DomainError("no objective found")
    objective = _parse_terms(objective[0].split(":", 1)[-1])

    constraints = []
    for row in _rows(lines.get("subject to", [])):
        if ":" not in row:
            raise DomainError(f"constraint row missing name: {row!r}")
        cname, rest = row.split(":", 1)
        m = re.search(r"(<=|>=|=)\s*(-?\d+)\s*$", rest)
        if not m:
            raise DomainError(f"constraint row missing sense/rhs: {row!r}")
        constraints.append(LinearConstraint(
            name=cname.strip(), coeffs=_parse_terms(rest[: m.start()]),
            sense=m.group(1), rhs=int(m.group(2))))

    variables = [Variable(n.strip(), "binary", 0, 1) for n in lines.get("binary", [])]
    for n in lines.get("general", []):
        lo, hi = bounds.get(n.strip(), (0, None))
        variables.append(Variable(n.strip(), "integer", lo, hi))
    return IlpModel(name=name, objective=objective,
                    variables=tuple(variables), constraints=tuple(constraints))


# ---------------------------------------------------------------------------
# Naive solver

@dataclass(frozen=True)
class NaiveSolveOutcome:
    status: str  # "optimal", "infeasible", "budget_exceeded"
    objective: Optional[int] = None
    assignment: Optional[dict[str, int]] = None
    nodes: int = 0


def naive_solve(model: IlpModel, budget: Optional[int] = None) -> NaiveSolveOutcome:
    """Branch-and-prune enumeration of an integer model, exact but tiny-scale.

    The search walks one list of decisions in order.  The one-hot groups
    come first: equality rows with rhs 1, all coefficients 1 and binary
    members, in row order, each skipped if it shares a member with an
    earlier group.  A group branches on which member is 1, the rest being
    0.  Every other variable follows, branching on each value from its lower
    to its upper bound.  Each node first propagates the equalities that have
    a single free variable; interval arithmetic on every row and on the
    objective prunes infeasible and non-improving branches.  budget caps
    node expansions; exceeding it abandons the search (no incumbent is
    reported since it may not be optimal).
    """
    names = [v.name for v in model.variables]
    index = {n: i for i, n in enumerate(names)}
    lo, hi = [], []
    for v in model.variables:
        if v.kind == "integer" and v.upper is None:
            raise DomainError(f"naive_solve needs finite bounds, {v.name} has none")
        lo.append(0 if v.kind == "binary" else v.lower)
        hi.append(1 if v.kind == "binary" else v.upper)

    # One row per constraint, then the objective.  A row's total must land
    # in [floor, ceil], None being unbounded; fixed is its assigned part, and
    # free_min, free_max and free cover its unassigned variables.
    rows = [[(index[n], c) for n, c in con.coeffs] for con in model.constraints]
    rows.append([(index[n], c) for n, c in model.objective])
    obj = len(rows) - 1
    floor = [None if con.sense == "<=" else con.rhs for con in model.constraints] + [None]
    ceil = [None if con.sense == ">=" else con.rhs for con in model.constraints] + [None]
    fixed, free_min, free_max, free = ([0] * len(rows) for _ in range(4))
    terms: list[list[tuple[int, int]]] = [[] for _ in names]  # (row, coeff) per variable
    for r, row in enumerate(rows):
        for i, c in row:
            terms[i].append((r, c))
    value: list[Optional[int]] = [None] * len(names)
    trail: list[int] = []

    def shift(i: int, val: int, sign: int) -> None:
        """Move variable i into its rows' assigned parts (sign 1) or back out (-1)."""
        for r, c in terms[i]:
            a, b = c * lo[i], c * hi[i]
            fixed[r] += sign * c * val
            free_min[r] -= sign * min(a, b)
            free_max[r] -= sign * max(a, b)
            free[r] -= sign

    def feasible(r: int) -> bool:
        return ((floor[r] is None or fixed[r] + free_max[r] >= floor[r])
                and (ceil[r] is None or fixed[r] + free_min[r] <= ceil[r]))

    def put(i: int, val: int) -> bool:
        """Set variable i on the trail; False if it holds another value or a row fails."""
        if value[i] is not None:
            return value[i] == val
        value[i] = val
        trail.append(i)
        shift(i, val, 1)
        return all(feasible(r) for r, _ in terms[i])

    def undo(mark: int) -> None:
        while len(trail) > mark:
            i = trail.pop()
            shift(i, value[i], -1)
            value[i] = None

    for i in range(len(names)):
        shift(i, 0, -1)  # every variable starts free
    equalities = [r for r, con in enumerate(model.constraints) if con.sense == "="]

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for r in equalities:
                if free[r] == 1:
                    i, c = next((i, c) for i, c in rows[r] if value[i] is None)
                    val = (ceil[r] - fixed[r]) // c  # a remainder leaves row r unmet
                    if not lo[i] <= val <= hi[i] or not put(i, val):
                        return False
                    changed = True
        return True

    # Decisions in branching order: (the variable, or None for a group;
    # the alternatives, each a list of (variable, value) pairs).
    decisions: list[tuple[Optional[int], list[list[tuple[int, int]]]]] = []
    grouped: set[int] = set()
    for r in equalities:
        members = [i for i, _ in rows[r]]
        if (ceil[r] == 1 and len(members) > 1 and grouped.isdisjoint(members)
                and all(c == 1 and model.variables[i].kind == "binary" for i, c in rows[r])):
            decisions.append((None, [[(j, int(j == i)) for j in members] for i in members]))
            grouped.update(members)
    decisions += [(i, [[(i, v)] for v in range(lo[i], hi[i] + 1)])
                  for i in range(len(names)) if i not in grouped]

    best: Optional[int] = None
    best_value: list[Optional[int]] = []
    nodes = 0

    def search(d: int) -> bool:
        """Expand one node at decision d; True once the budget is spent."""
        nonlocal best, best_value, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            return True
        if best is not None and fixed[obj] + free_min[obj] >= best:
            return False
        mark = len(trail)
        if propagate():
            # A variable that propagation set is passed over.  A group is
            # still entered, through the one alternative that agrees with
            # it: that counts a node there, as the enumeration always has.
            while (d < len(decisions) and decisions[d][0] is not None
                   and value[decisions[d][0]] is not None):
                d += 1
            if d == len(decisions):
                if best is None or fixed[obj] < best:
                    best, best_value = fixed[obj], list(value)
            else:
                for alternative in decisions[d][1]:
                    inner = len(trail)
                    if all(put(i, v) for i, v in alternative) and search(d + 1):
                        return True
                    undo(inner)
        undo(mark)
        return False

    if search(0):
        return NaiveSolveOutcome(status="budget_exceeded", nodes=nodes)
    if best is None:
        return NaiveSolveOutcome(status="infeasible", nodes=nodes)
    return NaiveSolveOutcome(status="optimal", objective=best,
                             assignment=dict(zip(names, best_value)), nodes=nodes)
