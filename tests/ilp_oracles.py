"""Test-side ILP tools: the reference term writer, the LP reader and the naive solver.

The library writes models as LP text for an external solver; these read
that text back and solve tiny models, so the tests can check the models and
the writer.  `_format_terms` is the original term writer, with a separate
first-term path, kept so that `emit_lp_text` has a differential test.
`parse_lp_text` reads the subset of LP that `emit_lp_text` writes; its
reference is the round trip `parse_lp_text(emit_lp_text(m)) == m`.
`naive_solve` is a depth-first loop over a fixed list of decisions (one-hot
groups first, then single variables), with equality propagation and
interval bounds on every row and on the objective, all undone from one
trail.  It is checked against brute-force enumeration of small drawn models,
and its node counts on the acceptance models are pinned.  Anything beyond
K*L*T around 8 is not its job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from gasptables.degree_table import DomainError, _require_int
from gasptables.ilp import Coeffs, IlpModel, LinearConstraint, Variable


def _format_terms(coeffs: Coeffs) -> str:
    parts = []
    for i, (name, c) in enumerate(coeffs):
        if i == 0:
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"- {name}")
            else:
                parts.append(f"{c} {name}" if c > 0 else f"- {-c} {name}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            parts.append(f"{sign} {name}" if mag == 1 else f"{sign} {mag} {name}")
    return " ".join(parts)


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
    if budget is not None:
        _require_int(budget=budget, low=0, rule=">= 0")
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
    # A row is checked when one of its variables is set, so a row with no
    # terms (x - x >= 1) is decided here, by its rhs alone.
    if not all(feasible(r) for r, row in enumerate(rows) if not row):
        return NaiveSolveOutcome(status="infeasible", nodes=0)
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
