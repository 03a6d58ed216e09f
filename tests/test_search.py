"""Exhaustive census, fixed-prefix search, and the greedy heuristic."""

import functools
import math
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gasptables import (
    DegreeTable,
    DomainError,
    EquivalenceTransform,
    GaspParams,
    apply_transform,
    construct,
    count_distinct,
    exhaustive,
    exhaustive_fixed_prefix,
    fixed_prefix_table,
    greedy,
    is_normal,
    lower_bounds,
    optimal_r,
    validate,
)
from gasptables import search
from gasptables.gasp import suffix_window
from search_oracles import exhaustive_packed, fixed_prefix_dfs, greedy_scan


# Shapes where the fixed-prefix search cuts subtrees (T >= 2), small enough
# for fixed_prefix_dfs: at most 64,000 leaves.
CUT_SHAPES = [(K, L, T) for K in range(1, 5) for L in range(1, K + 1) for T in range(2, 5)] + [(2, 2, 5)]


@functools.cache
def _leaf_total(K, L, T):
    return fixed_prefix_dfs(K, L, T).tables_examined


def _outcome(search, *args, **kw):
    """The search's result, or its DomainError message."""
    try:
        return search(*args, **kw)
    except DomainError as err:
        return str(err)


def _brute_census(K, L, T, bounds):
    """(valid count, best N, optima blocks) by validate() over every side pair
    within the (alpha, beta) entry bounds."""

    def sides(p_len, bound):
        for values in combinations(range(bound + 1), p_len + T):
            if values[0] == 0:
                for suffix in combinations(values, T):
                    yield tuple(v for v in values if v not in suffix), suffix

    valid, best, optima = 0, None, set()
    for a_pre, a_suf in sides(K, bounds[0]):
        for b_pre, b_suf in sides(L, bounds[1]):
            t = DegreeTable(K=K, L=L, T=T, alpha_p=a_pre, alpha_s=a_suf,
                            beta_p=b_pre, beta_s=b_suf)
            if not (is_normal(t) and validate(t).ok):
                continue
            valid += 1
            n = count_distinct(t)
            if best is None or n < best:
                best, optima = n, set()
            if n == best:
                optima.add((a_pre, a_suf, b_pre, b_suf))
    return valid, best, optima


class TestExhaustive:
    def test_smallest_interesting_case(self):
        res = exhaustive(1, 1, 2)
        assert res.best_n == 5
        assert res.entry_bound == (2, 2)
        assert res.side_candidates == (3, 3)
        assert res.tables_examined == 9
        assert res.valid_tables == 2
        assert len(res.optima) == 2
        assert len(res.canonical_optima) == 1
        for t in res.optima:
            assert validate(t).ok
            assert count_distinct(t) == 5

    def test_refuses_without_proven_bound(self):
        with pytest.raises(DomainError, match="no proven entry bound"):
            exhaustive(1, 1, 1)

    def test_explicit_bound_overrides(self):
        res = exhaustive(1, 1, 1, entry_bound=2)
        assert res.best_n == 3
        assert res.valid_tables == 10
        # the two optima are negates of each other
        assert len(res.optima) == 2
        assert len(res.canonical_optima) == 1

    def test_int_and_pair_bounds_agree(self):
        a = exhaustive(1, 1, 1, entry_bound=2)
        b = exhaustive(1, 1, 1, entry_bound=(2, 2))
        assert a == b

    @pytest.mark.parametrize("K,L,T,bound,message", [
        (1, 1, 0, 3, "T must be a positive integer, got 0"),
        (1, 1, 1, (3,), "entry bound must be"),
        (1, 1, 1, -1, "entry bound must be"),
        (1, 1, 1, (2, -1), "entry bound must be"),
        (1, 1, 1, 2.0, "entry bound must be"),
    ])
    def test_rejects_bad_parameters(self, K, L, T, bound, message):
        with pytest.raises(DomainError, match=message):
            exhaustive(K, L, T, entry_bound=bound)

    def test_census_2_2_5(self):
        # Full census within the proven entry bound (10, 10): 2716 valid
        # normal tables, four of which reach the minimum 17, pairing into
        # two classes under negation.
        res = exhaustive(2, 2, 5)
        assert res.entry_bound == (10, 10)
        assert res.side_candidates == (4410, 4410)
        assert res.tables_examined == 4410 * 4410
        assert res.valid_tables == 2716
        assert res.best_n == 17
        got = {(t.alpha_p, t.alpha_s, t.beta_p, t.beta_s) for t in res.optima}
        suffix = (4, 5, 6, 7, 8)
        low = (0, 1, 2, 3, 4)
        assert got == {
            ((6, 8), low, (7, 8), low),
            ((7, 8), low, (6, 8), low),
            ((0, 1), suffix, (0, 2), suffix),
            ((0, 2), suffix, (0, 1), suffix),
        }
        assert len(res.canonical_optima) == 2

    @pytest.mark.parametrize("K,L,T,valid,best,above_bound,sides", [
        (2, 2, 6, 4512, 19, 1, (9240, 9240)),
        (3, 1, 6, 58, 17, 0, (3780, 196)),
    ])
    def test_census_beyond_the_paper(self, K, L, T, valid, best, above_bound, sides):
        # Ground truth past the paper's (2,2,5): the best table is GASP's
        # N(r*) in both cases, one above the lower bound at (2,2,6) and on
        # it at (3,1,6).
        res = exhaustive(K, L, T)
        assert (res.valid_tables, res.best_n, res.side_candidates) == (valid, best, sides)
        assert res.best_n == optimal_r(K, L, T)[1]
        assert res.best_n - lower_bounds(K, L, T).best == above_bound
        for t in res.optima:
            assert validate(t).ok and count_distinct(t) == best

    @pytest.mark.parametrize("K,L,T,bound", [
        (1, 1, 2, None), (2, 1, 3, None), (3, 1, 5, None), (2, 2, 4, 7),
        (1, 1, 1, 3), (2, 1, 1, 5), (2, 2, 2, 6), (2, 2, 1, (6, 5)), (2, 1, 2, (3, 5)),
        (2, 2, 3, (7, 6)),
        # Unequal bounds with K = L and K != L, and self-mirror value sets and
        # splits; (2,2,2,(5,6)) has 14 optima, in the order of the full join.
        (2, 1, 3, 6), (1, 2, 2, (4, 6)), (2, 2, 2, (5, 6)), (2, 2, 4, (8, 7)), (1, 1, 3, (5, 6)),
        (1, 1, 1, (2, 3)),
    ])
    def test_matches_packed_oracle(self, K, L, T, bound):
        assert exhaustive(K, L, T, entry_bound=bound) == exhaustive_packed(K, L, T, bound)

    # One value-set list (K = L, equal bounds) is mirrored once, and at K = L one split list.
    @pytest.mark.parametrize("K,L,T,bound,mirrored", [
        (2, 2, 4, 7, 2), (2, 2, 2, (5, 6), 3), (2, 1, 3, 6, 4), (1, 2, 2, (4, 6), 4),
    ])
    def test_mirrors_each_list_once(self, monkeypatch, K, L, T, bound, mirrored):
        calls, real = [], search._mirrors
        monkeypatch.setattr(search, "_mirrors", lambda keys, top=None: calls.append(1) or real(keys, top))
        assert exhaustive(K, L, T, entry_bound=bound) == exhaustive_packed(K, L, T, bound)
        assert len(calls) == mirrored

    # The beta index is split-major (bit s*nv + j is split s of value set j,
    # of nv beta value sets), so side lists of unequal lengths, and an empty
    # beta list (nv = 0) under a nonempty alpha one, must decode as the full
    # join does.
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(K, L, T) for K in (1, 2, 3) for L in (1, 2, 3) for T in (1, 2, 3)
                            if K != L and K + L + T <= 7]),
           st.integers(-1, 4), st.integers(-1, 4))
    @example((1, 2, 2), 2, -1)
    @example((3, 1, 2), -1, 3)
    @example((1, 3, 3), 0, 3)
    def test_split_major_decode_matches_packed_oracle(self, shape, over_a, over_b):
        K, L, T = shape
        bound = (K + T - 1 + over_a, L + T - 1 + over_b)
        assume(bound[0] != bound[1])
        assert _outcome(exhaustive, K, L, T, entry_bound=bound) == _outcome(exhaustive_packed, K, L, T, bound)

    # A row is the AND of its prefix positions' free masks: K = L shapes, where
    # one value-set list holds self-mirror sets, and K = 3 and 4 with L = 1, so
    # rows have one to four prefix positions.  Bounds run from n - 2 (an empty
    # side list) to n + 3 for a side of n entries.
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(1, 1, 1), (1, 1, 2), (1, 1, 3), (2, 2, 1), (2, 2, 2), (3, 3, 1),
                            (3, 1, 1), (3, 1, 2), (4, 1, 1), (4, 1, 2)]),
           st.integers(-2, 3), st.integers(-2, 3))
    @example((2, 2, 2), 1, 1)
    @example((3, 3, 1), 2, 2)
    @example((4, 1, 1), 3, 0)
    def test_row_masks_match_packed_oracle(self, shape, over_a, over_b):
        K, L, T = shape
        bound = (K + T + over_a, L + T + over_b)
        assert _outcome(exhaustive, K, L, T, entry_bound=bound) == _outcome(exhaustive_packed, K, L, T, bound)

    def test_census_memory_stays_small(self):
        # Sides are value sets plus shared prefix positions: no tuple is built
        # per side, so the 17,820 sides of (2,2,7) cost little memory.
        tracemalloc.start()
        try:
            res = exhaustive(2, 2, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.side_candidates == (17820, 17820)
        assert peak < 1 << 20

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3), st.integers(0, 5), st.integers(0, 5))
    # An empty alpha, beta and both side lists (a bound below K+T-1 or L+T-1),
    # and unequal bounds with both lists nonempty.
    @example(2, 1, 3, 3, 5)
    @example(1, 2, 2, 5, 2)
    @example(2, 2, 2, 1, 0)
    @example(2, 1, 2, 3, 5)
    def test_matches_brute_validate(self, K, L, T, bound_a, bound_b):
        bound = (bound_a, bound_b)
        valid, best, optima = _brute_census(K, L, T, bound)
        if not valid:
            with pytest.raises(DomainError, match=rf"^no valid table found within bounds \({bound_a}, {bound_b}\)$"):
                exhaustive(K, L, T, entry_bound=bound)
            return
        res = exhaustive(K, L, T, entry_bound=bound)
        assert res.valid_tables == valid
        assert res.best_n == best
        assert {(t.alpha_p, t.alpha_s, t.beta_p, t.beta_s) for t in res.optima} == optima
        assert len(res.optima) == len(optima)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reflection_maps_the_census_onto_itself(self, data):
        # The census joins one alpha side of each mirror pair: reflecting each
        # side of a census table (values within the side's entry bound) through
        # its own maximum must give a census table with the same maxima, gcds,
        # verdict and N, and undo itself.
        K, L, T = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
        blocks = []
        for p_len in (K, L):
            n = p_len + T
            bound = data.draw(st.integers(n - 1, n + 4))
            vals = (0, *sorted(data.draw(st.permutations(range(1, bound + 1)))[:n - 1]))
            suf = sorted(data.draw(st.permutations(range(n)))[:T])
            blocks += [tuple(v for p, v in enumerate(vals) if p not in suf), tuple(vals[p] for p in suf)]
        t = DegreeTable(K, L, T, *blocks)
        assume(is_normal(t))

        def reflect(t):
            r = apply_transform(t, EquivalenceTransform(-1, -max(t.alpha), -max(t.beta)))
            return DegreeTable(K, L, T, *(tuple(sorted(b)) for b in (r.alpha_p, r.alpha_s, r.beta_p, r.beta_s)))

        r = reflect(t)
        assert is_normal(r)
        assert (max(r.alpha), max(r.beta)) == (max(t.alpha), max(t.beta))
        assert (math.gcd(*r.alpha), math.gcd(*r.beta)) == (math.gcd(*t.alpha), math.gcd(*t.beta))
        assert validate(r).ok == validate(t).ok
        if validate(t).ok:
            assert count_distinct(r) == count_distinct(t)
        assert reflect(r) == t


class TestFixedPrefix:
    def test_tiny(self):
        res = exhaustive_fixed_prefix(1, 1, 1)
        assert res.best_n == 3
        assert res.tables_examined == 2
        assert [t.alpha_s for t in res.optima] == [(1,)]

    def test_matches_best_chain_table(self):
        for K, L, T in ((2, 2, 2), (2, 1, 2), (3, 2, 2), (3, 3, 2)):
            res = exhaustive_fixed_prefix(K, L, T)
            assert res.best_n == optimal_r(K, L, T)[1], (K, L, T)

    def test_finds_both_chain_suffixes(self):
        res = exhaustive_fixed_prefix(2, 2, 2)
        suffixes = {t.alpha_s for t in res.optima}
        assert suffixes == {(4, 5), (4, 6)}
        assert res.best_n == 11

    def test_all_candidates_are_valid_tables(self):
        res = exhaustive_fixed_prefix(2, 1, 2)
        for t in res.optima:
            assert validate(t).ok

    def test_budget(self):
        res = exhaustive_fixed_prefix(2, 2, 2, budget=1)
        assert res.budget_exhausted
        assert res.tables_examined == 1

    def test_rejects_l_above_k(self):
        with pytest.raises(DomainError, match="need L <= K"):
            exhaustive_fixed_prefix(1, 2, 1)
        with pytest.raises(DomainError, match="need L <= K"):
            exhaustive_fixed_prefix(2, 3, 2)

    def test_rejects_t_zero(self):
        with pytest.raises(DomainError, match="T must be a positive integer"):
            exhaustive_fixed_prefix(2, 2, 0)

    def test_zero_budget_names_the_budget(self):
        with pytest.raises(DomainError, match="budget too small"):
            exhaustive_fixed_prefix(2, 2, 2, budget=0)

    def test_rejects_negative_budget(self):
        with pytest.raises(DomainError, match="budget must be >= 0"):
            exhaustive_fixed_prefix(2, 2, 2, budget=-1)

    @pytest.mark.parametrize("budget", [None, 0, 1, 7, 12_345, 63_999, 64_000, 64_001])
    def test_matches_dfs_oracle_at_4_cube(self, budget):
        # 64,000 leaves; 7 and 12,345 stop inside a last-position loop
        got = _outcome(exhaustive_fixed_prefix, 4, 4, 4, budget=budget)
        assert got == _outcome(fixed_prefix_dfs, 4, 4, 4, budget=budget)
        if budget is not None and 0 < budget < 64_000:
            assert (got.tables_examined, got.budget_exhausted) == (budget, True)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.one_of(st.none(), st.integers(0, 300)))
    def test_matches_dfs_oracle(self, K, L, T, budget):
        L = min(K, L)
        got = _outcome(exhaustive_fixed_prefix, K, L, T, budget=budget)
        assert got == _outcome(fixed_prefix_dfs, K, L, T, budget=budget)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(CUT_SHAPES).flatmap(
        lambda s: st.tuples(st.just(s), st.one_of(st.none(), st.integers(0, _leaf_total(*s))))))
    def test_matches_dfs_oracle_where_subtrees_are_cut(self, case):
        # Most leaves of these shapes lie in subtrees counted unvisited, so a
        # drawn budget mostly lands inside one; the whole count is allowed too.
        (K, L, T), budget = case
        got = _outcome(exhaustive_fixed_prefix, K, L, T, budget=budget)
        assert got == _outcome(fixed_prefix_dfs, K, L, T, budget=budget)

    @pytest.mark.parametrize("K, L, T", [(1, 1, 3), (2, 1, 3), (2, 2, 3), (2, 2, 4), (3, 2, 3), (4, 1, 3)])
    def test_leaf_table_counts_ascending_tails(self, K, L, T):
        # The table lives in one call, so it is read from the search's frame.
        lo, hi, gap, _ = suffix_window(K, L, T)
        frames = []

        def keep(frame, event, arg):
            if event == "return" and frame.f_code is exhaustive_fixed_prefix.__code__:
                frames.append(dict(frame.f_locals))

        before = sys.getprofile()
        sys.setprofile(keep)
        try:
            exhaustive_fixed_prefix(K, L, T)
        finally:
            sys.setprofile(before)
        leaves = frames[0]["leaves"]
        assert len(leaves) == T
        for k, row in enumerate(leaves):
            brute = [sum(all(0 < y - x <= gap for x, y in zip((a, *tail), tail))
                         for tail in combinations(range(a + 1, hi + 1), k))
                     for a in range(lo, hi + 1)]
            assert row == brute, k

    @pytest.mark.parametrize("K, L, T, best_n, alpha_s, examined", [
        (3, 3, 5, 27, [(9, 10, 11, 12, 13)], 307_328),
        (5, 5, 4, 49, [(25, 26, 30, 31), (26, 27, 31, 32)], 219_501),
        (2, 2, 6, 19, [(4, 5, 6, 7, 8, 9)], 800_000),
    ])
    def test_pinned_optima_and_counts(self, K, L, T, best_n, alpha_s, examined):
        res = exhaustive_fixed_prefix(K, L, T)
        assert (res.best_n, [t.alpha_s for t in res.optima], res.tables_examined) == (best_n, alpha_s, examined)
        assert not res.budget_exhausted


class TestGreedy:
    def test_tiny(self):
        res = greedy(1, 1, 1)
        assert res.alpha_s == (1,)
        assert res.n == 3
        assert res.nodes == 2
        assert not res.budget_exhausted

    def test_finds_optimum_on_small_cases(self):
        for K, L, T in ((2, 2, 2), (2, 1, 2), (3, 3, 3)):
            res = greedy(K, L, T)
            assert res.n == optimal_r(K, L, T)[1], (K, L, T)

    def test_result_is_a_real_table(self):
        res = greedy(3, 3, 3)
        t = fixed_prefix_table(3, 3, 3, res.alpha_s)
        assert validate(t).ok
        assert count_distinct(t) == res.n == 22

    def test_budget_with_partial_result(self):
        res = greedy(2, 2, 2, budget=3)
        assert res.budget_exhausted
        assert res.n == 11  # the first completed leaf happened to be optimal

    def test_budget_cuts_a_repeated_subtree(self):
        # The 444th node lies in a subtree already explored in another row
        # order: it is cut there, not replayed whole past the budget.
        res = greedy(8, 8, 8, budget=443)
        assert (res.n, res.nodes, res.budget_exhausted) == (122, 444, True)

    def test_deep_tree_fits_the_recursion_limit(self):
        # One Python frame per tree level: T = 800 nests 800 of them.
        res = greedy(1, 1, 800)
        assert (res.n, res.nodes, res.budget_exhausted) == (1601, 801, False)

    def test_budget_too_small_for_any_leaf(self):
        with pytest.raises(DomainError, match="budget too small"):
            greedy(2, 2, 2, budget=2)

    def test_beam_width_prunes_branches(self):
        full = greedy(3, 3, 3)
        beam = greedy(3, 3, 3, beam_width=1)
        assert beam.nodes < full.nodes
        assert beam.n >= full.n

    def test_rejects_l_above_k(self):
        with pytest.raises(DomainError, match="need L <= K"):
            greedy(1, 2, 1)

    @pytest.mark.parametrize("K,L,T,message", [
        (2, 2, 0, "T must be a positive integer"),
        (0, 0, 2, "K must be a positive integer"),
    ])
    def test_rejects_nonpositive(self, K, L, T, message):
        with pytest.raises(DomainError, match=message):
            greedy(K, L, T)

    @pytest.mark.parametrize("kw,message", [
        ({"budget": -1}, "budget must be >= 0, got -1"),
        ({"beam_width": 0}, "beam_width must be >= 1, got 0"),
        ({"beam_width": -1}, "beam_width must be >= 1, got -1"),
        ({"beam_width": 1.5}, r"beam_width must be >= 1, got 1\.5"),
        ({"beam_width": True}, "beam_width must be >= 1, got True"),
        ({"budget": 2.5}, r"budget must be >= 0, got 2\.5"),
    ])
    def test_rejects_bad_limits(self, kw, message):
        with pytest.raises(DomainError, match=message):
            greedy(8, 8, 8, **kw)

    @pytest.mark.parametrize("K,L,T,kw", [
        *(((n, n, n, {}) for n in range(11, 16))),
        # Slots wider than a byte (L+T >= 256).  Counts pass 255 in all but
        # the first; byte matches off the slot grid occur in the first and last.
        (1, 1, 255, {"budget": 300}),
        (1, 1, 300, {}),
        (3, 2, 300, {"budget": 400, "beam_width": 2}),
        (130, 130, 130, {"budget": 5}),
        # two-byte counters read as an array: a full run, and one cut by the budget
        (256, 1, 255, {}),
        (300, 2, 254, {"budget": 300}),
        # budgets across the node range (3,008 nodes in all)
        *(((12, 12, 12, {"budget": b}) for b in range(300, 3008, 300))),
    ])
    def test_matches_scan_oracle(self, K, L, T, kw):
        assert _outcome(greedy, K, L, T, **kw) == _outcome(greedy_scan, K, L, T, **kw)

    def test_two_byte_counters_reach_n_of_r_star(self):
        res = greedy(256, 1, 255)
        assert (res.n, res.nodes, res.budget_exhausted) == (1021, 256, False)
        assert res.n == optimal_r(256, 1, 255)[1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7),
           st.one_of(st.none(), st.integers(0, 80)), st.one_of(st.none(), st.integers(1, 3)))
    def test_matches_scan_oracle_on_any_shape(self, K, L, T, budget, beam_width):
        L = min(K, L)
        kw = {"budget": budget, "beam_width": beam_width}
        assert _outcome(greedy, K, L, T, **kw) == _outcome(greedy_scan, K, L, T, **kw)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(6, 10), st.data())
    def test_matches_scan_oracle_within_the_node_count(self, n, data):
        budget = data.draw(st.integers(0, greedy_scan(n, n, n).nodes))
        assert _outcome(greedy, n, n, n, budget=budget) == _outcome(greedy_scan, n, n, n, budget=budget)

    # A child's new overlaps are summed at beta's width, from entries both below
    # and above the cover's top, and shifted once; (256,1,255) has two-byte counters.
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12),
                  st.one_of(st.none(), st.integers(0, 2000))),
        st.tuples(st.just(256), st.just(1), st.just(255), st.integers(0, 256))))
    @example((12, 12, 12, None))
    @example((256, 1, 255, 200))
    def test_child_sums_match_scan_oracle(self, case):
        K, L, T, budget = case
        L = min(K, L)
        assert _outcome(greedy, K, L, T, budget=budget) == _outcome(greedy_scan, K, L, T, budget=budget)

    @pytest.mark.parametrize("n,N,nodes", [
        (16, 410, 17_388), (17, 467, 53_945), (18, 514, 69_376), (19, 563, 86_117),
        (20, 614, 104_366), (21, 684, 320_275), (22, 740, 588_636), (23, 797, 384_755),
        (24, 856, 414_253), (25, 918, 451_779), (26, 1_003, 4_229_290),
        (27, 1_070, 5_295_969), (28, 1_139, 6_362_510),
    ])
    def test_readme_table(self, n, N, nodes):
        # The sizes past the oracles' reach, where most nodes are repeats.
        res = greedy(n, n, n)
        assert (res.n, res.nodes, res.budget_exhausted) == (N, nodes, False)
        assert res.n >= optimal_r(n, n, n)[1]

    @pytest.mark.parametrize("K,L,T,kw", [
        *(((n, n, n, {}) for n in range(1, 11))),
        (5, 3, 4, {}),
        (8, 8, 8, {"budget": 100}),
        (10, 10, 10, {"budget": 1000}),
        (4, 4, 4, {"beam_width": 1}),
        (9, 9, 9, {"beam_width": 2}),
        (10, 10, 10, {"beam_width": 3, "budget": 200}),
        # budgets across the node range (498 and 277 nodes in all)
        *(((8, 8, 8, {"budget": b}) for b in range(50, 498, 50))),
        *(((10, 10, 10, {"beam_width": 3, "budget": b}) for b in range(30, 277, 30))),
    ])
    def test_matches_list_oracle(self, K, L, T, kw):
        # Same suffix, count and node count: tie order, pruning, budget and
        # beam behave exactly as in the rescanning kernel.
        assert greedy(K, L, T, **kw) == greedy_scan(K, L, T, **kw)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7),
           st.one_of(st.none(), st.integers(0, 60)), st.one_of(st.none(), st.integers(1, 3)))
    def test_matches_list_oracle_on_any_shape(self, K, L, T, budget, beam_width):
        L = min(K, L)
        try:
            want = greedy_scan(K, L, T, budget=budget, beam_width=beam_width)
        except DomainError:
            with pytest.raises(DomainError, match="budget too small"):
                greedy(K, L, T, budget=budget, beam_width=beam_width)
            return
        assert greedy(K, L, T, budget=budget, beam_width=beam_width) == want


class TestFixedPrefixTable:
    def test_matches_construction(self):
        p = GaspParams(3, 2, 2, 2)
        t = construct(p)
        assert fixed_prefix_table(3, 2, 2, t.alpha_s) == t

    def test_invalid_suffix_is_caught_by_validate(self):
        t = fixed_prefix_table(2, 2, 2, (4, 4))
        assert not validate(t).ok
