"""Reference kernels for the census, fixed-prefix and greedy searches.

These are the original, slower implementations of `search.exhaustive`,
`search.exhaustive_fixed_prefix` and `search.greedy`.  They compute D3 and
the entry count by another route (a packed big-integer multiplication over
sides split by a set and two generators each; a DFS that calls itself once
per scored leaf; a rescan of every row's overlap at every node), so the
differential tests in test_search.py compare the bitset and counter kernels
against them result for result, including the optima order,
`tables_examined` and greedy's node count.  `greedy_scan` is the one greedy
reference, and it reaches the wide shapes too (L+T >= 256, or K=L=T=130).
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional

from gasptables.bounds import entry_upper_bounds
from gasptables.degree_table import DegreeTable, DomainError, _mask
from gasptables.gasp import fixed_prefix_table, standard_beta, suffix_window
from gasptables.search import GreedyResult, SearchResult, _check_limits, _dedupe_canonical


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


def fixed_prefix_dfs(K: int, L: int, T: int, budget: Optional[int] = None) -> SearchResult:
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


def exhaustive_packed(K: int, L: int, T: int, entry_bound=None) -> SearchResult:
    """Census by multiplication: each side's value set is packed into a big
    integer with a fixed-width field per exponent, so one product yields the
    multiplicity of every entry sum at once."""
    if entry_bound is None:
        eb = entry_upper_bounds(K, L, T)
        if eb is None:
            raise DomainError(
                "no proven entry bound for these parameters; pass entry_bound= to override"
            )
        bound_a, bound_b = eb
    elif isinstance(entry_bound, int):
        bound_a = bound_b = entry_bound
    else:
        bound_a, bound_b = entry_bound

    # Field width: multiplicities never exceed the cell count.
    shift = ((K + T) * (L + T)).bit_length()
    mask = (1 << shift) - 1

    def pack(values):
        p = 0
        for v in values:
            p |= 1 << (shift * v)
        return p

    alphas = [(pre, suf, g, pack(vals)) for pre, suf, g, vals in _side_candidates(K, T, bound_a)]
    betas = [(pre, suf, g, pack(vals)) for pre, suf, g, vals in _side_candidates(L, T, bound_b)]

    gcd = math.gcd
    best_n: Optional[int] = None
    optima: list[DegreeTable] = []
    valid = 0
    n_fields = bound_a + bound_b + 1
    for a_pre, a_suf, ga, pa in alphas:
        for b_pre, b_suf, gb, pb in betas:
            if gcd(ga, gb) != 1:
                continue
            prod = pa * pb
            ok = True
            for x in a_pre:
                if not ok:
                    break
                for y in b_pre:
                    if (prod >> (shift * (x + y))) & mask != 1:
                        ok = False
                        break
            if not ok:
                continue
            valid += 1
            n = sum(1 for e in range(n_fields) if (prod >> (shift * e)) & mask)
            if best_n is None or n <= best_n:
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


def greedy_scan(K: int, L: int, T: int, budget: Optional[int] = None,
                beam_width: Optional[int] = None) -> GreedyResult:
    """Greedy on one cover bitset, rescanning every window row below the
    cover's top bit at every node: row i overlaps the table in
    popcount((cover >> i) & beta_mask) columns."""
    v_lo, v_hi, _, top = suffix_window(K, L, T)
    beta_mask = _mask(standard_beta(K, L, T))
    width = L + T

    best_n: Optional[int] = None
    best_suffix: tuple[int, ...] = ()
    nodes = 0
    exhausted = False
    chosen: list[int] = []
    used: set[int] = set()

    def rec(cover: int, size: int):
        nonlocal best_n, best_suffix, nodes, exhausted
        if exhausted:
            return
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
        best, cands = 1, []
        for i in range(v_lo, min(v_hi + 1, cover.bit_length())):
            o = ((cover >> i) & beta_mask).bit_count()
            if o >= best and i not in used:
                if o > best:
                    best, cands = o, [i]
                else:
                    cands.append(i)
        for r in cands[:beam_width]:
            used.add(r)
            chosen.append(r)
            rec(cover | (beta_mask << r), size + width - best)
            chosen.pop()
            used.remove(r)

    rec((1 << (top + 1)) - 1, top + 1)
    if best_n is None:
        raise DomainError("greedy found no complete suffix (budget too small)")
    return GreedyResult(alpha_s=best_suffix, n=best_n, nodes=nodes, budget_exhausted=exhausted)
