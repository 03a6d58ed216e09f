"""Searches for good degree tables.

Three strategies at three price points:

  exhaustive            full census of all normal tables within entry bounds;
                        only affordable when the entry bounds apply (large T)
                        and small, but it is ground truth.
  exhaustive_fixed_prefix   the standard prefix and beta are frozen, only the
                        alpha suffix varies over its finite window; every
                        candidate is automatically a usable table.
  greedy                best-first suffix construction with the pruning rule
                        from the fixed-prefix setting; fast enough for
                        parameters where nothing else is, not guaranteed
                        optimal.

Both heavy kernels work on integers used as bitsets.  The census is a join
on differences: D3 fails exactly when the nonzero differences A_p - A and
B - B_p share a value, so the beta sides are indexed by difference and by
gcd, and each alpha side reads its valid partners off as one mask.  Greedy
keeps the entries in use as one integer and every row's overlap with them
as a counter in another, updated by one shifted add per new entry; the
argmax is a search of the counters' bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .bounds import EntryBound, census_bounds
from .degree_table import DegreeTable, DomainError, _mask, _require_int
from .equivalence import canonical
from .gasp import fixed_prefix_table, standard_beta, suffix_window


@dataclass(frozen=True)
class SearchResult:
    K: int
    L: int
    T: int
    best_n: int
    # Optimal tables exactly as enumerated (blocks sorted ascending).
    optima: tuple[DegreeTable, ...]
    # The same optima after canonical(), deduplicated; usually shorter since
    # negation pairs up distinct normal tables.
    canonical_optima: tuple[DegreeTable, ...]
    tables_examined: int
    valid_tables: int
    entry_bound: tuple[int, int]
    side_candidates: tuple[int, int] = (0, 0)
    budget_exhausted: bool = False


def _dedupe_canonical(optima) -> tuple[DegreeTable, ...]:
    seen = {}
    for t in optima:
        c = canonical(t)
        seen.setdefault(c.alpha + c.beta, c)
    return tuple(seen[k] for k in sorted(seen))


def _side_candidates(p_len: int, s_len: int, bound: int):
    """All sorted-block sides with distinct entries in [0, bound] and 0 present.

    Yields (prefix, suffix, gcd, values), values being the sorted entry set.
    """
    n = p_len + s_len
    if bound < n - 1:
        return
    for rest in combinations(range(1, bound + 1), n - 1):
        values = (0,) + rest
        g = math.gcd(*values)
        for suffix_idx in combinations(range(n), s_len):
            taken = set(suffix_idx)
            suffix = tuple(values[i] for i in suffix_idx)
            prefix = tuple(values[i] for i in range(n) if i not in taken)
            yield prefix, suffix, g, values


def exhaustive(K: int, L: int, T: int, entry_bound: Optional[EntryBound] = None) -> SearchResult:
    """Census of every normal degree table within the entry bounds.

    The bounds are bounds.census_bounds(K, L, T, entry_bound): without an
    explicit entry_bound the proven ones, and a refusal when none is proven
    (T too small), since the search space is then not known to be finite.
    An explicit bound narrows or widens the census at the caller's own risk.
    """
    bound_a, bound_b = census_bounds(K, L, T, entry_bound)

    alphas = list(_side_candidates(K, T, bound_a))
    betas = list(_side_candidates(L, T, bound_b))

    # Bitsets over beta indices, keyed by each nonzero difference in
    # B - B_p and by the gcd of the entries.
    by_diff: dict[int, int] = {}
    by_gcd: dict[int, int] = {}
    for j, (pre, _, g, vals) in enumerate(betas):
        bit = 1 << j
        for d in {v - y for y in pre for v in vals if v != y}:
            by_diff[d] = by_diff.get(d, 0) | bit
        by_gcd[g] = by_gcd.get(g, 0) | bit
    value_masks = [_mask(vals) for *_, vals in betas]
    coprime: dict[int, int] = {}

    best_n: Optional[int] = None
    optima: list[DegreeTable] = []
    valid = 0
    for a_pre, a_suf, ga, a_vals in alphas:
        if ga not in coprime:
            coprime[ga] = sum(m for g, m in by_gcd.items() if math.gcd(ga, g) == 1)
        # D3 fails iff some x + y (x in A_p, y in B_p) equals another x' + y',
        # i.e. iff (A_p - A)\{0} and (B - B_p)\{0} share a difference.
        clash = 0
        for d in {x - v for x in a_pre for v in a_vals if v != x}:
            clash |= by_diff.get(d, 0)
        ok = coprime[ga] & ~clash
        while ok:
            low = ok & -ok
            ok ^= low
            j = low.bit_length() - 1
            valid += 1
            mask = value_masks[j]
            cover = 0
            for a in a_vals:
                cover |= mask << a
            n = cover.bit_count()
            if best_n is None or n <= best_n:
                b_pre, b_suf = betas[j][:2]
                table = DegreeTable(K=K, L=L, T=T, alpha_p=a_pre, alpha_s=a_suf,
                                    beta_p=b_pre, beta_s=b_suf)
                if best_n is None or n < best_n:
                    best_n, optima = n, [table]
                else:
                    optima.append(table)
    if best_n is None:
        raise DomainError(f"no valid table found within bounds ({bound_a}, {bound_b})")
    return SearchResult(
        K=K, L=L, T=T, best_n=best_n,
        optima=tuple(optima), canonical_optima=_dedupe_canonical(optima),
        tables_examined=len(alphas) * len(betas), valid_tables=valid,
        entry_bound=(bound_a, bound_b), side_candidates=(len(alphas), len(betas)),
    )


def exhaustive_fixed_prefix(K: int, L: int, T: int, budget: Optional[int] = None) -> SearchResult:
    """Optimal alpha suffix given the standard prefix and beta.

    Suffix values live in gasp.suffix_window's [KL, T(KL+T)+K-1] with
    consecutive sorted gaps of at most KL+T (tables outside that frame are
    equivalent to ones inside).  Every candidate is a usable table: suffix
    values clear the prefix block's sum range, so the uniqueness condition
    cannot break; the prefix rows alone cover [0, top].  budget caps the
    number of complete candidates scored; exceeding it flags the result.
    """
    v_lo, v_hi, max_gap, top = suffix_window(K, L, T)
    _check_limits(budget)
    beta_mask = _mask(standard_beta(K, L, T))
    best_n: Optional[int] = None
    optima: list[DegreeTable] = []
    examined = 0
    exhausted = False

    # DFS over suffix positions; stack holds (next candidate floor, chosen, mask).
    def rec(prev: int, chosen: list[int], cover: int):
        nonlocal best_n, optima, examined, exhausted
        if exhausted:
            return
        if len(chosen) == T:
            if budget is not None and examined >= budget:
                exhausted = True
                return
            examined += 1
            n = cover.bit_count()
            if best_n is None or n < best_n:
                best_n = n
                optima[:] = [tuple(chosen)]
            elif n == best_n:
                optima.append(tuple(chosen))
            return
        lo = max(v_lo, prev + 1)
        hi = min(v_hi, prev + max_gap)
        for a in range(lo, hi + 1):
            chosen.append(a)
            rec(a, chosen, cover | (beta_mask << a))
            chosen.pop()

    rec(K - 1, [], (1 << (top + 1)) - 1)
    if best_n is None:
        raise DomainError("fixed-prefix search scored no suffix (budget too small)")
    tables = tuple(fixed_prefix_table(K, L, T, suf) for suf in optima)
    return SearchResult(
        K=K, L=L, T=T, best_n=best_n,
        optima=tables, canonical_optima=_dedupe_canonical(tables),
        tables_examined=examined, valid_tables=examined,
        entry_bound=(v_hi, max_gap - 1),
        budget_exhausted=exhausted,
    )


def _check_limits(budget: Optional[int], beam_width: Optional[int] = None) -> None:
    if budget is not None:
        _require_int(budget=budget, low=0, rule=">= 0")
    if beam_width is not None:
        _require_int(beam_width=beam_width, rule=">= 1")


def _slots(buf: bytes, key: bytes) -> list[int]:
    """Indices of the len(key)-byte slots of buf that equal key, ascending."""
    found, p = [], buf.find(key)
    while p >= 0:
        if p % len(key) == 0:
            found.append(p // len(key))
        p = buf.find(key, p + 1)
    return found


@dataclass(frozen=True)
class GreedyResult:
    alpha_s: tuple[int, ...]
    n: int
    nodes: int
    budget_exhausted: bool


def greedy(K: int, L: int, T: int, budget: Optional[int] = None,
           beam_width: Optional[int] = None) -> GreedyResult:
    """Best-first suffix search: grow alpha_s by the row overlapping most.

    Row i overlaps the table in the columns b of beta with i + b an entry in
    use.  Every row's overlap is a counter in one packed integer (a byte per
    row while L+T <= 255, more bytes past it); a child that adds row r adds
    one to rows e - b, b in beta, for each new entry e: one shifted add per
    entry.  Rows with maximal overlap add the fewest new entries, and all of
    them are branched on in increasing order, depth first.  A branch is cut
    when even one new entry per remaining row cannot beat the incumbent.
    beam_width, if set, caps how many argmax candidates are expanded per
    node; budget caps total node expansions and flags the result when hit.
    """
    v_lo, _, _, top = suffix_window(K, L, T)
    _check_limits(budget, beam_width)
    beta = standard_beta(K, L, T)
    beta_mask = _mask(beta)
    width = L + T
    # Slot j of `over` counts row v_lo - max(beta) + j, so that entry e >= v_lo
    # adds rev_beta at slot e - v_lo.  A slot holds any count up to L+T.
    step = (width.bit_length() + 7) // 8
    slot = 8 * step
    rev_beta = sum(1 << slot * (beta[-1] - b) for b in beta)
    below = slot * beta[-1]

    best_n: Optional[int] = None
    best_suffix: tuple[int, ...] = ()
    nodes = 0
    exhausted = False
    chosen: list[int] = []

    def rec(cover: int, over: int, used: int, size: int):
        nonlocal best_n, best_suffix, nodes, exhausted
        nodes += 1
        if budget is not None and nodes > budget:
            exhausted = True
            return
        if best_n is not None and size + (T - len(chosen)) > best_n:
            return
        if len(chosen) == T:
            if best_n is None or size < best_n:
                best_n = size
                best_suffix = tuple(sorted(chosen))
            return
        # Rows above cover's top bit overlap nothing, so only the rows below
        # it are read; at depth < T that bit is below the window's end.  The
        # maximum is at least 1: each of the K+T-1 rows in [KL, top] meets
        # cover in column beta = 0, and at most T-1 of them are used.
        counts = ((over >> below) & ~used).to_bytes(step * (cover.bit_length() - v_lo), "little")
        for best in range(width, 0, -1):
            cands = _slots(counts, best.to_bytes(step, "little"))
            if cands:
                break
        for i in cands[:beam_width]:
            r = v_lo + i
            new = (beta_mask << r) & ~cover
            child, rest = over, new
            while rest:
                e = rest & -rest
                rest ^= e
                child += rev_beta << slot * (e.bit_length() - 1 - v_lo)
            chosen.append(r)
            rec(cover | new, child, used | ((1 << slot) - 1) << slot * i, size + width - best)
            chosen.pop()
            if exhausted:
                return

    # the prefix rows use every entry in [0, top]
    cover = (1 << (top + 1)) - 1
    over = sum(((cover >> i) & beta_mask).bit_count() << slot * (i - v_lo)
               for i in range(v_lo, top + 1))
    rec(cover, over << below, 0, top + 1)
    if best_n is None:
        raise DomainError("greedy found no complete suffix (budget too small)")
    return GreedyResult(alpha_s=best_suffix, n=best_n, nodes=nodes, budget_exhausted=exhausted)
