"""Integer-program formulations of the degree-table problem.

build_blp gives the general boolean model: one indicator per possible entry
value, per row value, per column value, and per cell/value pair, with
symmetry cuts that pin sorted blocks and a zero minimum on each side.
build_ilp_fixed is the far smaller model when the standard prefix and beta
are frozen and only the alpha suffix is free.

Models are plain data (variables, linear constraints, objective), can be
serialized to LP text for an external solver, parsed back, and solved
directly at desk scale by naive_solve, a branch-and-prune enumerator that is
deliberately simple: it exists to cross-check tiny instances, not to compete
with a real solver.  Anything beyond K*L*T around 8 is not its job.
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


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coeffs: Coeffs  # sorted by variable name, zero coefficients dropped
    sense: str  # "<=", ">=", "="
    rhs: int

    def __post_init__(self):
        if self.sense not in ("<=", ">=", "="):
            raise DomainError(f"bad sense {self.sense!r}")
        cleaned = tuple(sorted((n, c) for n, c in self.coeffs if c != 0))
        object.__setattr__(self, "coeffs", cleaned)


@dataclass(frozen=True)
class IlpModel:
    name: str
    objective: Coeffs  # minimization, sorted by variable name
    variables: tuple[Variable, ...]  # sorted by name
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(sorted(self.objective)))
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


def _wrap(line: str) -> list[str]:
    if len(line) <= _MAX_LINE:
        return [line]
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
        for v in integers:
            hi = "+inf" if v.upper is None else str(v.upper)
            lines.append(f" {v.lower} <= {v.name} <= {hi}")
    if binaries:
        lines.append("Binary")
        for v in binaries:
            lines.append(f" {v.name}")
    if integers:
        lines.append("General")
        for v in integers:
            lines.append(f" {v.name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
