"""Reference kernels for the ILP module.

These are the original term writer, term parser, LP reader and naive
solver, copied unchanged: a term writer with a separate first-term path, a
reader that tracks the objective and the constraint rows with two copies of
the row rule, and a solver that branches on one-hot groups and on free
variables in two loops and looks up each coefficient by a linear scan.  The
differential tests in test_ilp.py compare the single-path kernels in
`gasptables.ilp` against them: byte-identical LP text, equal parsed models
and equal `NaiveSolveOutcome`s, node counts included.
"""

from __future__ import annotations

import re
from typing import Optional

from gasptables.degree_table import DomainError
from gasptables.ilp import (
    Coeffs,
    IlpModel,
    LinearConstraint,
    NaiveSolveOutcome,
    Variable,
)


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


_TERM_RE = re.compile(r"([+-])?\s*(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)")


def _parse_terms(expr: str) -> Coeffs:
    coeffs = []
    pos = 0
    expr = expr.strip()
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m:
            raise DomainError(f"cannot parse expression near {expr[pos:pos + 30]!r}")
        sign, mag, name = m.groups()
        c = int(mag) if mag else 1
        if sign == "-":
            c = -c
        coeffs.append((name, c))
        pos = m.end()
        while pos < len(expr) and expr[pos] == " ":
            pos += 1
    return tuple(coeffs)


def parse_lp_text(text: str) -> IlpModel:
    """Parse LP text produced by emit_lp_text back into a model.

    Supports the subset emit_lp_text writes (integer data, the six
    sections, wrapped lines); not a general LP reader.
    """
    name = "parsed"
    section = None
    logical: list[str] = []
    obj_parts: list[str] = []
    con_rows: list[str] = []
    bounds: dict[str, tuple[int, Optional[int]]] = {}
    binaries: list[str] = []
    generals: list[str] = []

    def flush_row(row: str, into: list[str]):
        if row.strip():
            into.append(row.strip())

    current = ""
    for raw in text.splitlines():
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("\\"):
            name = line[1:].strip() or name
            continue
        word = line.strip().lower()
        if word in ("minimize", "subject to", "bounds", "binary", "general", "end"):
            if current:
                flush_row(current, obj_parts if section == "obj" else con_rows)
                current = ""
            section = {"minimize": "obj", "subject to": "cons", "bounds": "bounds",
                       "binary": "binary", "general": "general", "end": "end"}[word]
            continue
        if section == "obj":
            if re.match(r"\s*\w+:", line) and current:
                flush_row(current, obj_parts)
                current = line
            else:
                current += " " + line.strip() if current else line
        elif section == "cons":
            if re.match(r"\s*\w+:", line) and current:
                flush_row(current, con_rows)
                current = line
            else:
                current += " " + line.strip() if current else line
        elif section == "bounds":
            m = re.match(r"\s*(-?\d+)\s*<=\s*(\w+)\s*<=\s*(\+inf|-?\d+)\s*$", line)
            if not m:
                raise DomainError(f"cannot parse bound line {line!r}")
            lo, vname, hi = m.groups()
            bounds[vname] = (int(lo), None if hi == "+inf" else int(hi))
        elif section == "binary":
            binaries.append(line.strip())
        elif section == "general":
            generals.append(line.strip())
    if current:
        flush_row(current, obj_parts if section == "obj" else con_rows)

    if not obj_parts:
        raise DomainError("no objective found")
    obj_expr = obj_parts[0]
    obj_expr = obj_expr.split(":", 1)[1] if ":" in obj_expr else obj_expr
    objective = _parse_terms(obj_expr)

    constraints = []
    sense_re = re.compile(r"(<=|>=|=)\s*(-?\d+)\s*$")
    for row in con_rows:
        if ":" not in row:
            raise DomainError(f"constraint row missing name: {row!r}")
        cname, rest = row.split(":", 1)
        m = sense_re.search(rest)
        if not m:
            raise DomainError(f"constraint row missing sense/rhs: {row!r}")
        sense, rhs = m.group(1), int(m.group(2))
        constraints.append(LinearConstraint(
            name=cname.strip(), coeffs=_parse_terms(rest[: m.start()]),
            sense=sense, rhs=rhs))

    variables = [Variable(n, "binary", 0, 1) for n in binaries]
    for n in generals:
        lo, hi = bounds.get(n, (0, None))
        variables.append(Variable(n, "integer", lo, hi))
    return IlpModel(name=name, objective=objective,
                    variables=tuple(variables), constraints=tuple(constraints))


def naive_solve(model: IlpModel, budget: Optional[int] = None) -> NaiveSolveOutcome:
    """Branch-and-prune enumeration of an integer model, exact but tiny-scale.

    One-hot equality rows (all coefficients 1, rhs 1, binary variables) are
    branched as a group; equalities with a single unassigned variable are
    propagated; everything else is plain depth-first assignment with
    interval-arithmetic feasibility checks and an objective bound.  budget
    caps node expansions; exceeding it abandons the search (no incumbent is
    reported since it may not be optimal).
    """
    vars_by_name = {v.name: v for v in model.variables}
    var_names = [v.name for v in model.variables]
    n_vars = len(var_names)
    index = {n: i for i, n in enumerate(var_names)}

    def var_range(v: Variable) -> tuple[int, int]:
        if v.kind == "binary":
            return 0, 1
        if v.upper is None:
            raise DomainError(f"naive_solve needs finite bounds, {v.name} has none")
        return v.lower, v.upper

    lo = [var_range(vars_by_name[n])[0] for n in var_names]
    hi = [var_range(vars_by_name[n])[1] for n in var_names]

    # Per-constraint state: fixed part and the min/max of the free part.
    cons = list(model.constraints)
    c_fix = [0] * len(cons)
    c_min = [0] * len(cons)
    c_max = [0] * len(cons)
    c_terms: list[list[tuple[int, int]]] = []  # (var index, coeff)
    touching: list[list[int]] = [[] for _ in range(n_vars)]
    for ci, c in enumerate(cons):
        terms = []
        for nm, coeff in c.coeffs:
            vi = index[nm]
            terms.append((vi, coeff))
            touching[vi].append(ci)
            a, b = coeff * lo[vi], coeff * hi[vi]
            c_min[ci] += min(a, b)
            c_max[ci] += max(a, b)
        c_terms.append(terms)
    unassigned_cnt = [len(t) for t in c_terms]

    obj_coeff = [0] * n_vars
    for nm, coeff in model.objective:
        obj_coeff[index[nm]] += coeff
    obj_fix = 0
    obj_min = sum(min(c * lo[i], c * hi[i]) for i, c in enumerate(obj_coeff) if c)

    value: list[Optional[int]] = [None] * n_vars

    def feasible(ci: int) -> bool:
        c = cons[ci]
        total_lo = c_fix[ci] + c_min[ci]
        total_hi = c_fix[ci] + c_max[ci]
        if c.sense == "<=":
            return total_lo <= c.rhs
        if c.sense == ">=":
            return total_hi >= c.rhs
        return total_lo <= c.rhs <= total_hi

    def assign(vi: int, val: int) -> Optional[list[int]]:
        """Set variable vi; returns the touched-constraint list or None if infeasible."""
        nonlocal obj_fix, obj_min
        value[vi] = val
        oc = obj_coeff[vi]
        if oc:
            obj_fix += oc * val
            obj_min -= min(oc * lo[vi], oc * hi[vi])
        bad = False
        for ci in touching[vi]:
            coeff = 0
            for vj, co in c_terms[ci]:
                if vj == vi:
                    coeff = co
                    break
            a, b = coeff * lo[vi], coeff * hi[vi]
            c_min[ci] -= min(a, b)
            c_max[ci] -= max(a, b)
            c_fix[ci] += coeff * val
            unassigned_cnt[ci] -= 1
            if not feasible(ci):
                bad = True
        return None if bad else touching[vi]

    def unassign(vi: int, val: int):
        nonlocal obj_fix, obj_min
        oc = obj_coeff[vi]
        if oc:
            obj_fix -= oc * val
            obj_min += min(oc * lo[vi], oc * hi[vi])
        for ci in touching[vi]:
            coeff = 0
            for vj, co in c_terms[ci]:
                if vj == vi:
                    coeff = co
                    break
            a, b = coeff * lo[vi], coeff * hi[vi]
            c_min[ci] += min(a, b)
            c_max[ci] += max(a, b)
            c_fix[ci] -= coeff * val
            unassigned_cnt[ci] += 1
        value[vi] = None

    # One-hot groups to branch on as units.
    sos_groups: list[list[int]] = []
    sos_member = set()
    for ci, c in enumerate(cons):
        if (c.sense == "=" and c.rhs == 1 and len(c.coeffs) > 1
                and all(co == 1 for _, co in c.coeffs)
                and all(vars_by_name[nm].kind == "binary" for nm, _ in c.coeffs)):
            group = [index[nm] for nm, _ in c.coeffs]
            if not any(vi in sos_member for vi in group):
                sos_groups.append(group)
                sos_member.update(group)

    free_order = [i for i in range(n_vars) if i not in sos_member]

    best_obj: Optional[int] = None
    best_assign: Optional[dict[str, int]] = None
    nodes = 0
    out_of_budget = False

    def propagate() -> Optional[list[tuple[int, int]]]:
        """Fix single-free-variable equalities; returns the trail or None."""
        trail: list[tuple[int, int]] = []
        changed = True
        while changed:
            changed = False
            for ci, c in enumerate(cons):
                if c.sense != "=" or unassigned_cnt[ci] != 1:
                    continue
                vi = next(vj for vj, _ in c_terms[ci] if value[vj] is None)
                coeff = next(co for vj, co in c_terms[ci] if vj == vi)
                need = c.rhs - c_fix[ci]
                if need % coeff != 0:
                    _undo(trail)
                    return None
                val = need // coeff
                if not lo[vi] <= val <= hi[vi]:
                    _undo(trail)
                    return None
                if assign(vi, val) is None:
                    trail.append((vi, val))
                    _undo(trail)
                    return None
                trail.append((vi, val))
                changed = True
        return trail

    def _undo(trail: list[tuple[int, int]]):
        for vi, val in reversed(trail):
            unassign(vi, val)

    def search(gi: int, fi: int):
        nonlocal best_obj, best_assign, nodes, out_of_budget
        if out_of_budget:
            return
        nodes += 1
        if budget is not None and nodes > budget:
            out_of_budget = True
            return
        if best_obj is not None and obj_fix + obj_min >= best_obj:
            return
        trail = propagate()
        if trail is None:
            return
        try:
            if gi < len(sos_groups):
                group = [vi for vi in sos_groups[gi] if value[vi] is None]
                if not group:
                    search(gi + 1, fi)
                    return
                taken = any(value[vi] == 1 for vi in sos_groups[gi])
                choices = [None] if taken else list(group)
                for one in choices:
                    sub: list[tuple[int, int]] = []
                    ok = True
                    for vi in group:
                        val = 1 if vi == one else 0
                        if assign(vi, val) is None:
                            sub.append((vi, val))
                            ok = False
                            break
                        sub.append((vi, val))
                    if ok:
                        search(gi + 1, fi)
                    _undo(sub)
                    if out_of_budget:
                        return
                return
            while fi < len(free_order) and value[free_order[fi]] is not None:
                fi += 1
            if fi == len(free_order):
                done = all(v is not None for v in value)
                if done:
                    if best_obj is None or obj_fix < best_obj:
                        best_obj = obj_fix
                        best_assign = {var_names[i]: value[i] for i in range(n_vars)}
                    return
                # Only SOS-covered variables remain; let propagation-free DFS
                # handle them through the group loop above.
                remaining = [i for i in range(n_vars) if value[i] is None]
                vi = remaining[0]
            else:
                vi = free_order[fi]
            for val in range(lo[vi], hi[vi] + 1):
                if assign(vi, val) is not None:
                    search(gi, fi + 1 if fi < len(free_order) else fi)
                unassign(vi, val)
                if out_of_budget:
                    return
        finally:
            _undo(trail)

    search(0, 0)
    if out_of_budget:
        return NaiveSolveOutcome(status="budget_exceeded", nodes=nodes)
    if best_obj is None:
        return NaiveSolveOutcome(status="infeasible", nodes=nodes)
    return NaiveSolveOutcome(status="optimal", objective=best_obj,
                             assignment=best_assign, nodes=nodes)
