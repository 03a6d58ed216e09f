"""Searches for good degree tables.

Three strategies at three price points:

  exhaustive            full census of all normal tables within entry bounds;
                        only affordable when the entry bounds apply (large T)
                        and small, but it is ground truth.
  exhaustive_fixed_prefix   the standard prefix and beta are frozen, only the
                        alpha suffix varies over its window; a subtree that
                        cannot reach the incumbent is counted, not searched.
  greedy                best-first suffix construction with the pruning rule
                        from the fixed-prefix setting; fast enough for
                        parameters where nothing else is, not guaranteed
                        optimal.

Both heavy kernels work on integers used as bitsets.  The census is a join
on differences: D3 fails exactly when the nonzero differences A_p - A and
B - B_p share a value, so the beta sides are indexed by difference and by
gcd; an alpha side's valid partners are the AND of one free mask per prefix
position, the coprime beta sides with no clash at that value.  A side is a
value set plus a split of its positions into prefix and suffix; the sets
are listed once, the splits once per shape as prefix positions.  The beta
index is split-major and built by ANDs over value-set bitsets, one per
(sorted position, value), then copied to the splits.  Reflecting each side
through its maximum maps the census onto itself, so one alpha side of each
mirror pair is joined, and blocks are built only for the optima.  Greedy
keeps the entries in use as one integer and every row's overlap with them
as a counter in another; a child's new overlaps are summed at beta's width
and shifted to its row once.  The argmax is a search of the counters'
bytes, or a max over two-byte counters.  A subtree met again under the
same incumbent is replayed, its nodes counted.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from operator import and_
from typing import Optional

from .bounds import EntryBound, census_bounds
from .degree_table import DegreeTable, DomainError, _mask, _require_int
from .equivalence import canonical
from .gasp import fixed_prefix_table, standard_beta, suffix_window

# Unsigned array typecodes by item size: the argmax reads counters this wide.
_UNSIGNED = {array(c).itemsize: c for c in "QLIH"}


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


def _splits(p_len: int, s_len: int) -> list:
    """Every split of p_len + s_len sorted positions into a prefix and a
    suffix, suffix positions in lexicographic order, as its prefix positions."""
    n = p_len + s_len
    return [tuple(i for i in range(n) if i not in suf) for suf in combinations(range(n), s_len)]


def _mirrors(keys: list, top: Optional[int] = None) -> list:
    """Index in keys of each sorted tuple's reflection x -> m - x; m is top, else its maximum."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranked = [keys[i] for i in order]
    return [order[bisect_left(ranked, tuple((top or k[-1]) - v for v in reversed(k)))] for k in keys]


def _value_sets(size: int, bound: int) -> list:
    """(gcd, values) for each sorted set of size entries in [0, bound] holding 0, in order."""
    return [(math.gcd(*rest), (0,) + rest) for rest in combinations(range(1, bound + 1), size - 1)]


def exhaustive(K: int, L: int, T: int, entry_bound: Optional[EntryBound] = None) -> SearchResult:
    """Census of every normal degree table within the entry bounds.

    The bounds are bounds.census_bounds(K, L, T, entry_bound): without an
    explicit entry_bound the proven ones, and a refusal when none is proven
    (T too small), since the search space is then not known to be finite.
    An explicit bound narrows or widens the census at the caller's own risk.
    """
    bound_a, bound_b = census_bounds(K, L, T, entry_bound)
    a_sets = _value_sets(K + T, bound_a)
    b_sets = a_sets if (K, bound_a) == (L, bound_b) else _value_sets(L + T, bound_b)
    a_splits = _splits(K, T)
    b_splits = a_splits if K == L else _splits(L, T)
    nv = len(b_sets)

    # by_diff: beta sides by each nonzero difference in B - B_p, bit s*nv + j for split s of
    # value set j; by_gcd: value sets by gcd, copied to every split by `every`.  at[p][y] marks
    # the value sets with y at sorted position p, at[p][y] & holding[y + d] those with the
    # difference d from there, copied to each split with p in its prefix; sums add disjoint bits.
    at = [[0] * (bound_b + 1) for _ in range(L + T)]
    by_gcd: dict[int, int] = {}
    for j, (g, vals) in enumerate(b_sets):
        for p, y in enumerate(vals):
            at[p][y] |= 1 << j
        by_gcd[g] = by_gcd.get(g, 0) | 1 << j
    holding = [sum(col) for col in zip(*at)]
    by_diff: dict[int, int] = {}
    for p, row in enumerate(at):
        offsets = [s * nv for s, pos in enumerate(b_splits) if p in pos]
        for d in range(1, bound_b + 1):
            for key, sets in ((d, map(and_, row, holding[d:])), (-d, map(and_, row[d:], holding))):
                if e := sum(sets):
                    by_diff[key] = by_diff.get(key, 0) | sum(e << o for o in offsets)
    every = sum(1 << s * nv for s in range(len(b_splits)))
    value_masks = [_mask(vals) for _, vals in b_sets]
    coprime: dict[int, int] = {}
    # A side's reflection (values through their maximum, positions through n - 1) keeps a table
    # normal, valid and of equal N, so one row per mirror pair is joined; weight 2 counts both.
    a_mirror = _mirrors([v for _, v in a_sets])
    b_mirror = a_mirror if b_sets is a_sets else _mirrors([v for _, v in b_sets])
    sa_mirror = _mirrors(a_splits, K + T - 1)
    sb_mirror = sa_mirror if K == L else _mirrors(b_splits, L + T - 1)
    rows = [(sa, pos, 2) for sa, pos in enumerate(a_splits)]
    self_rows = [(sa, pos, 2 - (m == sa)) for (sa, pos, _), m in zip(rows, sa_mirror) if m >= sa]

    best_n: Optional[int] = None
    best: list[tuple[int, ...]] = []  # (value set, split) of alpha and beta at each optimum
    valid = 0
    for ia, (ga, a_vals) in enumerate(a_sets):
        if (mv := a_mirror[ia]) < ia:
            continue
        if ga not in coprime:
            coprime[ga] = every * sum(m for g, m in by_gcd.items() if math.gcd(ga, g) == 1)
        # D3 fails iff some x + y (x in A_p, y in B_p) equals another x' + y',
        # i.e. iff (A_p - A)\{0} and (B - B_p)\{0} share a difference; the
        # clashes of A_p are those of its values x, each x - A (by_diff has
        # no key 0).  free[p]: the coprime beta sides with no clash at a_vals[p].
        free = []
        for x in a_vals:
            clash = 0
            for v in a_vals:
                clash |= by_diff.get(x - v, 0)
            free.append(coprime[ga] & ~clash)
        for sa, pos, w in self_rows if mv == ia else rows:
            ok = free[pos[0]]
            for p in pos[1:]:
                ok &= free[p]
            while ok:
                low = ok & -ok
                ok ^= low
                js, jv = divmod(low.bit_length() - 1, nv)
                valid += w
                mask = value_masks[jv]
                cover = 0
                for a in a_vals:
                    cover |= mask << a
                n = cover.bit_count()
                if best_n is None or n <= best_n:
                    if best_n is None or n < best_n:
                        best_n, best = n, []
                    best.append((ia, sa, jv, js))
                    if w == 2:
                        best.append((mv, sa_mirror[sa], b_mirror[jv], sb_mirror[js]))
    if best_n is None:
        raise DomainError(f"no valid table found within bounds ({bound_a}, {bound_b})")
    optima = []
    for ia, sa, jv, js in sorted(best):  # the order of a join over every alpha side
        blocks = []
        for (_, vals), pre in ((a_sets[ia], a_splits[sa]), (b_sets[jv], b_splits[js])):
            blocks += [tuple(vals[p] for p in pre), tuple(v for p, v in enumerate(vals) if p not in pre)]
        optima.append(DegreeTable(K, L, T, *blocks))
    sides = (len(a_sets) * len(a_splits), nv * len(b_splits))
    return SearchResult(
        K=K, L=L, T=T, best_n=best_n,
        optima=tuple(optima), canonical_optima=_dedupe_canonical(optima),
        tables_examined=sides[0] * sides[1], valid_tables=valid,
        entry_bound=(bound_a, bound_b), side_candidates=sides,
    )


def exhaustive_fixed_prefix(K: int, L: int, T: int, budget: Optional[int] = None) -> SearchResult:
    """Optimal alpha suffix given the standard prefix and beta.

    Suffix values live in gasp.suffix_window's [KL, T(KL+T)+K-1] with
    consecutive sorted gaps of at most KL+T (tables outside that frame are
    equivalent to ones inside).  Every candidate is a usable table: suffix
    values clear the prefix block's sum range, so the uniqueness condition
    cannot break; the prefix rows alone cover [0, top].  tables_examined
    counts every complete candidate in the frame, scored or counted in a
    subtree cut for not reaching the incumbent.  budget caps that count,
    flagging the result when exceeded; a cut that would pass it is searched.
    """
    v_lo, v_hi, max_gap, top = suffix_window(K, L, T)
    _check_limits(budget)
    beta_mask = _mask(standard_beta(K, L, T))
    best_n: Optional[int] = None
    optima: list[DegreeTable] = []
    examined = 0
    exhausted = False
    cap = math.inf if budget is None else budget
    leaves = [[1] * (v_hi + 1 - v_lo)]  # [k][a - v_lo]: complete suffixes below row a, k rows left
    for _ in range(T - 1):
        sums = [*accumulate(leaves[-1], initial=0)]
        leaves.append([sums[min(j + max_gap, len(sums) - 1)] - sums[j] for j in range(1, len(sums))])

    # DFS over suffix positions.  Each row adds its top entry, so a child of cover size n and
    # `left` rows to place reaches only N >= n + left: past the incumbent, its leaves are counted.
    def rec(prev: int, chosen: list[int], cover: int):
        nonlocal best_n, optima, examined, exhausted
        left = T - 1 - len(chosen)
        for a in range(max(v_lo, prev + 1), min(v_hi, prev + max_gap) + 1):
            n = (child := cover | beta_mask << a).bit_count()
            if best_n is not None and n + left > best_n and examined + leaves[left][a - v_lo] <= cap:
                examined += leaves[left][a - v_lo]
            elif left:
                chosen.append(a)
                rec(a, chosen, child)
                chosen.pop()
                if exhausted:
                    return
            elif examined == cap:
                exhausted = True
                return
            else:
                examined += 1
                if best_n is None or n < best_n:
                    best_n, optima = n, [(*chosen, a)]
                elif n == best_n:
                    optima.append((*chosen, a))

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
    row while L+T <= 255, two bytes past it); a child that adds row r adds one
    to rows e - b, b in beta, for each new entry e: summed at beta's width,
    then shifted to row r once.  Rows with maximal overlap add the fewest new
    entries; all are branched on in increasing order, depth first.  A branch is
    cut when even one new entry per remaining row cannot beat the incumbent.
    beam_width, if set, caps the argmax candidates expanded per node; budget
    caps node expansions and flags the result when hit.  A subtree with the
    rows and incumbent of one searched before is replayed, its nodes counted.
    """
    v_lo, _, _, top = suffix_window(K, L, T)
    _check_limits(budget, beam_width)
    beta = standard_beta(K, L, T)
    beta_mask = _mask(beta)
    width = L + T
    # Slot j of `over` counts row v_lo - max(beta) + j, so that entry e >= v_lo
    # adds rev_beta at slot e - v_lo.  A slot holds any count up to L+T.
    step = 1 if width < 256 else next(s for s in (2, 4, 8) if width < 1 << 8 * s)
    slot = 8 * step
    ones = (1 << slot) - 1
    rev_beta = sum(1 << slot * (beta[-1] - b) for b in beta)
    # The entries r + b above the cover's top are r + beta[k:], all new:
    # together they add suffix_add[k] << slot * (r - v_lo).
    suffix_add = [0] * (width + 1)
    for k in range(width - 1, -1, -1):
        suffix_add[k] = suffix_add[k + 1] + (rev_beta << slot * beta[k])
    below = slot * beta[-1]

    best_n: Optional[int] = None
    best_suffix: tuple[int, ...] = ()
    nodes, exhausted = 1, budget == 0  # the root
    chosen: list[int] = []
    # A subtree is fixed by its set of rows (`used`; best_suffix is sorted) and
    # the incumbent at entry.  memo maps the pair to (nodes the subtree adds,
    # best_n, best_suffix after it); best_n only falls, so it names its suffix.
    memo: dict = {}

    def rec(cover: int, over: int, used: int, size: int):
        # Expands a node that is counted, within budget, uncut and not a leaf;
        # each child is counted, budget-checked and cut before it is built.
        nonlocal best_n, best_suffix, nodes, exhausted
        # Rows above cover's top bit overlap nothing, so only the rows below
        # it are read; at depth < T that bit is below the window's end.  The
        # maximum is at least 1: each of the K+T-1 rows in [KL, top] meets
        # cover in column beta = 0, and at most T-1 of them are used.
        end = cover.bit_length()
        counts = ((over >> below) & ~used).to_bytes(step * (end - v_lo), "little")
        if step == 1:  # a byte search: one max for both widths measured ~2x slower
            best = width
            while best not in counts:
                best -= 1
        else:
            counts = array(_UNSIGNED[step], counts)
            if sys.byteorder == "big":
                counts.byteswap()
            best = max(counts)
        n_cands = counts.count(best)
        if beam_width is not None:
            n_cands = min(n_cands, beam_width)
        child_size = size + width - best
        left = T - len(chosen) - 1
        holes = cover ^ ((1 << end) - 1)
        i = -1
        for n_left in range(n_cands, 0, -1):
            # Siblings share child_size and a cut child changes nothing, so
            # once one is cut, it and all after it are counted and dropped.
            cut = best_n is not None and child_size + left > best_n
            nodes += n_left if cut else 1
            if budget is not None and nodes > budget:
                nodes, exhausted = budget + 1, True
                return
            if cut:
                return
            i = counts.index(best, i + 1)
            r = v_lo + i
            if not left:  # a leaf child is scored without building it
                if best_n is None or child_size < best_n:
                    best_n = child_size
                    best_suffix = tuple(sorted(chosen + [r]))
                continue
            key = (used | ones << slot * i, best_n)
            seen = memo.get(key)  # past the budget, search it instead: it stops at the same node
            if seen is not None and (budget is None or nodes + seen[0] <= budget):
                nodes += seen[0]
                _, best_n, best_suffix = seen
                continue
            add = suffix_add[bisect_left(beta, end - r)]
            low = beta_mask & holes >> r  # the b in beta with r + b a hole below the top
            while low:
                b = low & -low
                low ^= b
                add += rev_beta << slot * (b.bit_length() - 1)
            start = nodes
            chosen.append(r)
            rec(cover | beta_mask << r, over + (add << slot * i), key[0], child_size)
            chosen.pop()
            if exhausted:
                return
            memo[key] = (nodes - start, best_n, best_suffix)

    # the prefix rows use every entry in [0, top]
    cover = (1 << (top + 1)) - 1
    over = sum(((cover >> i) & beta_mask).bit_count() << slot * (i - v_lo)
               for i in range(v_lo, top + 1))
    if not exhausted:
        rec(cover, over << below, 0, top + 1)
    if best_n is None:
        raise DomainError("greedy found no complete suffix (budget too small)")
    return GreedyResult(alpha_s=best_suffix, n=best_n, nodes=nodes, budget_exhausted=exhausted)
