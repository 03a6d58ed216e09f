"""Construction family, closed forms, and the chain-length search."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasp_oracles as oracle
import gasptables
from gasptables import (
    DomainError,
    GaspParams,
    candidate_set,
    construct,
    count_distinct,
    fixed_prefix_table,
    h_function,
    n_of_r,
    n_theorem1,
    optimal_r,
    reduction_statistic,
    score_closed_form,
)
from gasptables.gasp import _n_of_r, suffix_window
from table_oracles import score_bruteforce

# Known server counts at K = L = T = 4 for each chain length.
KLT4 = {1: 41, 2: 36, 3: 37, 4: 39}


class TestParams:
    def test_swap_normalizes(self):
        p = GaspParams(2, 5, 3, 2)
        assert (p.K, p.L) == (5, 2)
        assert p.transposed

    def test_no_swap(self):
        p = GaspParams(5, 2, 3, 2)
        assert (p.K, p.L) == (5, 2)
        assert not p.transposed

    def test_r_range_checked_after_swap(self):
        # min(K, T) after swap is min(5, 3) = 3, so r = 3 is fine.
        assert GaspParams(2, 5, 3, 3).r == 3
        with pytest.raises(DomainError, match="r=4 out of range"):
            GaspParams(2, 5, 3, 4)

    def test_big(self):
        assert GaspParams.big(4, 4, 2).r == 2
        assert GaspParams.big(3, 7, 9).r == 7

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            GaspParams(0, 1, 1, 1)


class TestConstruct:
    def test_beta_is_fixed_across_r(self):
        for r in range(1, 5):
            t = construct(GaspParams(4, 4, 4, r))
            assert t.beta == (0, 4, 8, 12, 16, 17, 18, 19)

    @pytest.mark.parametrize("r,alpha_s", [
        (1, (16, 20, 24, 28)),
        (2, (16, 17, 20, 21)),
        (3, (16, 17, 18, 20)),
        (4, (16, 17, 18, 19)),
    ])
    def test_alpha_suffix_chains(self, r, alpha_s):
        t = construct(GaspParams(4, 4, 4, r))
        assert t.alpha_p == (0, 1, 2, 3)
        assert t.alpha_s == alpha_s

    def test_suffix_is_t_smallest_chain_values(self):
        """The suffix must be the T smallest of {KL + j + K*m : j < r}."""
        rng = random.Random(5)
        for _ in range(40):
            K = rng.randint(1, 9)
            L = rng.randint(1, K)
            T = rng.randint(1, 9)
            r = rng.randint(1, min(K, T))
            t = construct(GaspParams(K, L, T, r))
            kl = K * L
            chain = sorted(
                kl + K * m + j for m in range(T + 1) for j in range(r)
            )[:T]
            assert list(t.alpha_s) == chain

    def test_matches_while_loop_oracle_on_grid(self):
        for K in range(1, 13):
            for L in range(1, K + 1):
                for T in range(1, 14):
                    for r in range(1, min(K, T) + 1):
                        p = GaspParams(K, L, T, r)
                        assert construct(p) == oracle.construct(p), (K, L, T, r)

    def test_is_a_fixed_prefix_table(self):
        t = construct(GaspParams(4, 4, 4, 2))
        assert t == fixed_prefix_table(4, 4, 4, t.alpha_s)


class TestFixedPrefixFrame:
    def test_fixed_prefix_table_has_one_home(self):
        assert gasptables.fixed_prefix_table is gasptables.search.fixed_prefix_table
        assert gasptables.fixed_prefix_table is gasptables.gasp.fixed_prefix_table

    @pytest.mark.parametrize("K,L,T,frame", [
        (1, 1, 1, (1, 2, 2, 1)),
        (2, 2, 2, (4, 13, 6, 6)),
        (4, 4, 4, (16, 83, 20, 22)),
        (4, 3, 5, (12, 88, 17, 19)),
    ])
    def test_window(self, K, L, T, frame):
        # (lo, hi, gap, top) = (KL, T(KL+T)+K-1, KL+T, KL+K+T-2)
        assert suffix_window(K, L, T) == frame

    def test_prefix_rows_cover_zero_to_top(self):
        for K, L, T in ((1, 1, 1), (3, 2, 4), (4, 4, 4), (5, 1, 2)):
            top = suffix_window(K, L, T)[3]
            t = fixed_prefix_table(K, L, T, range(K * L, K * L + T))
            assert {x + y for x in t.alpha_p for y in t.beta} == set(range(top + 1))

    @pytest.mark.parametrize("K,L,T,message", [
        (2, 3, 2, "need L <= K"),
        (2, 2, 0, "T must be a positive integer"),
        (0, 0, 2, "K must be a positive integer"),
    ])
    def test_window_rejects(self, K, L, T, message):
        with pytest.raises(DomainError, match=message):
            suffix_window(K, L, T)


def _n_from_score(p: GaspParams) -> int:
    """N(r) from the per-row score lists, the O(T) route n_of_r replaced."""
    return p.K * p.L + p.K + p.T - 1 + p.T * (p.L + p.T) - score_closed_form(p).total


class TestServerCount:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_table_iii(self, r):
        p = GaspParams(4, 4, 4, r)
        assert n_of_r(p) == KLT4[r]
        assert count_distinct(construct(p)) == KLT4[r]

    def test_closed_form_equals_bruteforce_small(self):
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    for r in range(1, min(K, T) + 1):
                        p = GaspParams(K, L, T, r)
                        assert n_of_r(p) == count_distinct(construct(p)), (K, L, T, r)

    def test_score_closed_form_matches_bruteforce(self):
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    for r in range(1, min(K, T) + 1):
                        p = GaspParams(K, L, T, r)
                        cf = score_closed_form(p)
                        bf = score_bruteforce(construct(p))
                        assert cf.left == bf.left, (K, L, T, r)
                        assert cf.right == bf.right, (K, L, T, r)

    @pytest.mark.parametrize("r,score", [(1, 14), (2, 19), (3, 18), (4, 16)])
    def test_table_iii_scores(self, r, score):
        assert score_closed_form(GaspParams(4, 4, 4, r)).total == score

    def test_monolithic_formula_agrees(self):
        # n_of_r's O(1) sum, the per-row score lists and Theorem 1's closed
        # form, on every L <= K <= 30, T <= 40 and r.
        for K in range(1, 31):
            for L in range(1, K + 1):
                for T in range(1, 41):
                    for r in range(1, min(K, T) + 1):
                        p = GaspParams(K, L, T, r)
                        assert n_of_r(p) == _n_from_score(p) == n_theorem1(p), (K, L, T, r)

    def test_big_never_exceeds_2kl_plus_2t_minus_1(self):
        # The r = min(K, T) member needs at most 2KL + 2T - 1 servers, with
        # equality exactly when its middle band has no gaps (T >= K or L = 1).
        for K in range(1, 8):
            for L in range(1, K + 1):
                for T in range(1, 8):
                    n = n_of_r(GaspParams.big(K, L, T))
                    ub = 2 * K * L + 2 * T - 1
                    assert n <= ub, (K, L, T)
                    assert (n == ub) == (T >= K or L == 1), (K, L, T)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_three_derivations_agree_at_scale(self, data):
        K = data.draw(st.integers(1, 10**6))
        L = data.draw(st.integers(1, K))
        T = data.draw(st.integers(1, 10**6))
        p = GaspParams(K, L, T, data.draw(st.integers(1, min(K, T))))
        assert n_of_r(p) == _n_from_score(p) == n_theorem1(p)

    def test_theorem1_matches_fraction_oracle(self):
        for K in range(1, 31):
            for L in range(1, K + 1):
                for T in range(1, 31):
                    for r in range(1, min(K, T) + 1):
                        p = GaspParams(K, L, T, r)
                        assert n_theorem1(p) == oracle.n_theorem1(p), (K, L, T, r)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_theorem1_matches_fraction_oracle_at_scale(self, data):
        K = data.draw(st.integers(1, 10**6))
        L = data.draw(st.integers(1, K))
        T = data.draw(st.integers(1, 10**6))
        p = GaspParams(K, L, T, data.draw(st.integers(1, min(K, T))))
        assert n_theorem1(p) == oracle.n_theorem1(p)

    def test_large_t_in_constant_time(self):
        # GASP(2, 1, T, 1) needs 3T + 2 servers (count_distinct agrees for
        # small T); the per-row score lists would hold 2 * 10^9 items here.
        assert n_of_r(GaspParams(2, 1, 10**9, 1)) == 3 * 10**9 + 2

    def test_transposed_params_give_same_count(self):
        assert n_of_r(GaspParams(3, 5, 4, 2)) == n_of_r(GaspParams(5, 3, 4, 2))


def test_h_function_example():
    got = [h_function(9, 6, 9, r) for r in range(1, 10)]
    assert got == [76, 44, 32, 34, 32, 35, 38, 41, 45]


def test_h_function_range():
    with pytest.raises(DomainError):
        h_function(9, 6, 9, 10)
    with pytest.raises(DomainError):
        h_function(9, 6, 9, 0)


@pytest.mark.parametrize("r", [2.5, 2.0, True, "2"])
def test_h_function_rejects_non_integer_r(r):
    with pytest.raises(DomainError, match="integer"):
        h_function(4, 4, 4, r)


def test_h_minimizers_match_n_minimizers():
    # H drops the r-independent terms of N, so argmin sets agree on the
    # shared domain.
    rng = random.Random(11)
    for _ in range(50):
        K = rng.randint(1, 12)
        L = rng.randint(1, K)
        T = rng.randint(1, 12)
        phi = T - 1 - K * L + 2 * K
        lo = max(1, phi + 1)
        hi = min(K, T)
        if lo > hi:
            continue
        hs = {r: h_function(K, L, T, r) for r in range(lo, hi + 1)}
        ns = {r: n_of_r(GaspParams(K, L, T, r)) for r in range(lo, hi + 1)}
        h_min = {r for r, v in hs.items() if v == min(hs.values())}
        n_min = {r for r, v in ns.items() if v == min(ns.values())}
        assert h_min == n_min, (K, L, T)


def _trace_fields(tr):
    return tr.W, tr.q_w, tr.Q, tr.Q_prime, tr.Q_dprime


def _assert_trace_matches_oracle(K, L, T):
    """optimal_r's whole trace, evaluated pairs and winner included, against
    the oracle candidate set with N(r) read one r at a time."""
    r_star, n_star, tr = optimal_r(K, L, T)
    want = oracle.candidate_set(K, L, T)
    evaluated = tuple((r, _n_of_r(K, L, T, (r,))[0]) for r in want.Q_dprime)
    n_want, r_want = min((n, r) for r, n in evaluated)
    assert _trace_fields(tr) == _trace_fields(want)
    assert (tr.evaluated, tr.r_star, tr.n_star) == (evaluated, r_want, n_want)
    assert (r_star, n_star) == (r_want, n_want)
    return tr


class TestCandidateSet:
    def test_example_trace(self):
        tr = candidate_set(9, 6, 9)
        assert tr.W == (1, 2, 4, 8)
        assert tr.Q == (1, 2, 3, 5)
        assert tr.Q_prime == (1, 9)
        assert tr.Q_dprime == (1, 2, 3, 5, 9)

    def test_degenerate(self):
        tr = candidate_set(1, 1, 1)
        assert set(tr.Q_dprime) <= {1}

    def test_contains_minimizer_444(self):
        tr = candidate_set(4, 4, 4)
        assert 2 in tr.Q_dprime

    def test_candidates_within_feasible_range(self):
        rng = random.Random(23)
        for _ in range(80):
            K = rng.randint(1, 15)
            L = rng.randint(1, K)
            T = rng.randint(1, 15)
            tr = candidate_set(K, L, T)
            assert all(1 <= r <= min(K, T) for r in tr.Q_dprime), (K, L, T)

    def test_l_greater_than_k_rejected(self):
        with pytest.raises(DomainError, match="swap"):
            candidate_set(2, 3, 1)

    def test_matches_oracle_on_grid(self):
        for K in range(1, 41):
            for L in range(1, K + 1):
                for T in range(1, 61):
                    assert _trace_fields(candidate_set(K, L, T)) == _trace_fields(
                        oracle.candidate_set(K, L, T)
                    ), (K, L, T)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracle_at_scale(self, data):
        K = data.draw(st.integers(1, 5000))
        L = data.draw(st.integers(1, K))
        T = data.draw(st.integers(1, 5000))
        assert _trace_fields(candidate_set(K, L, T)) == _trace_fields(oracle.candidate_set(K, L, T))


class TestOptimalR:
    @pytest.mark.parametrize("n,want_n", [(1, 3), (2, 36), (3, 148), (4, 410)])
    def test_square_parameters(self, n, want_n):
        k = n * n
        r_star, best, trace = optimal_r(k, k, k)
        assert r_star == n
        assert best == want_n
        assert trace.r_star == n and trace.n_star == best

    def test_square_formula(self):
        for n in (2, 3, 4, 100, 1000):
            k = n * n
            assert optimal_r(k, k, k)[:2] == (n, n ** 4 + 2 * n ** 3 + 2 * n ** 2 - n - 2)

    def test_matches_full_scan(self):
        # Every L <= K <= 40, T <= 60; optimal_r maps L > K onto these.
        for K in range(1, 41):
            for L in range(1, K + 1):
                for T in range(1, 61):
                    assert optimal_r(K, L, T)[:2] == oracle.optimal_r_full_scan(K, L, T), (K, L, T)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_trace_matches_oracle_at_scale(self, data):
        K = data.draw(st.integers(1, 10**6))
        L = data.draw(st.integers(1, K))
        T = data.draw(st.integers(1, 10**6))
        _assert_trace_matches_oracle(K, L, T)

    # The block walk starts at the block of floor((T-1)/i) that holds
    # i_lo = max(1, phi + 1), so its largest w is (T-1)//i_lo.  At T = 28
    # that block is [7, 9].
    @pytest.mark.parametrize("K,L,T,i_lo", [
        (21, 3, 28, 7),  # i_lo at the block's start
        (20, 3, 28, 8),  # one past its start
        (19, 3, 28, 9),  # at its end
        (3, 3, 6, 3),    # at the start of the block [3, 5], the only one
        (3, 3, 2, 1),    # T = 2: i_lo = i_hi = 1, the one block [1, 1]
    ])
    def test_walk_starts_at_the_block_holding_i_lo(self, K, L, T, i_lo):
        tr = _assert_trace_matches_oracle(K, L, T)
        assert max(1, tr.phi + 1) == i_lo and tr.W[-1] == (T - 1) // i_lo

    @pytest.mark.parametrize("K,L,T", [
        (3, 3, 10), (60, 5, 250),         # K < i_lo <= T - 1: 3 < 7 <= 9, 60 < 70 <= 249
        (4, 1, 10),                       # i_lo = 14 > T - 1
        (3, 2, 1), (1, 1, 1), (9, 9, 1),  # T = 1
        (3, 2, 2), (1, 1, 2),             # T = 2, i_lo > i_hi = 1
    ] + [(1, 1, T) for T in (3, 4, 10, 999)])  # K = 1
    def test_walk_past_i_hi_gives_empty_w(self, K, L, T):
        assert _assert_trace_matches_oracle(K, L, T).W == ()

    def test_last_block_end_clipped_out_of_q_dprime(self):
        # i_hi = K = 4 lies in the block [4, 5] of w = 2; its end r_w = 5 is
        # a candidate in Q but not a feasible chain length.
        tr = _assert_trace_matches_oracle(4, 4, 11)
        assert tr.q_w[2] == (5,) and 5 in tr.Q and tr.Q_dprime == (2, 3, 4)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_trace_matches_oracle_with_walk_past_block_1(self, data):
        # T = i_lo + K(L-2) puts phi + 1 = i_lo with 1 < i_lo <= min(K, T-1),
        # so the walk starts past the first block; T <= K(L-1) <= 10^6.
        K = data.draw(st.integers(3, 10**6 // 2))
        L = data.draw(st.integers(3, min(K, 1 + 10**6 // K)))
        i_lo = data.draw(st.integers(2, K))
        T = i_lo + K * (L - 2)
        assert _assert_trace_matches_oracle(K, L, T).phi + 1 == i_lo

    def test_reduced_reaches_the_end_of_the_range(self):
        # T > K: the corner min(K, T) = 4 is a candidate; r = 3 gives 55.
        r_star, best, trace = optimal_r(4, 4, 11)
        assert (r_star, best) == (4, 53) == oracle.optimal_r_full_scan(4, 4, 11)
        assert trace.Q_prime == (2, 3, 4)

    def test_reduced_reads_the_first_step_of_a_block(self):
        # mu = 3 starts the block [3, 4]; N(4) - N(3) = 0, so both tie and
        # the smaller r must be a candidate.
        assert optimal_r(5, 4, 9)[:2] == (3, 57) == oracle.optimal_r_full_scan(5, 4, 9)

    def test_tie_breaks_to_smallest(self):
        # (9, 6, 9) has two minimizers, 3 and 5; the smaller wins.
        r_star, best, _ = optimal_r(9, 6, 9)
        assert r_star == 3
        assert n_of_r(GaspParams(9, 6, 9, 5)) == best

    def test_accepts_l_greater_than_k(self):
        assert optimal_r(6, 9, 9)[:2] == optimal_r(9, 6, 9)[:2] == oracle.optimal_r_full_scan(6, 9, 9)

    # optimal_r swaps K and L when L > K; a bad value is reported under the
    # name the caller gave it, not the one it would have after the swap.
    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    @pytest.mark.parametrize("name", ["K", "L", "T"])
    def test_bad_argument_named_as_passed(self, name, bad):
        args = {"K": 1, "L": 2, "T": 1, name: bad}
        with pytest.raises(DomainError, match=rf"^{name} must be a positive integer, got {bad!r}$"):
            optimal_r(**args)

    # Q'' is the only search: the full scan is the test oracle, not a mode.
    @pytest.mark.parametrize("mode", ["guess", "full_scan", "reduced"])
    def test_bad_mode(self, mode):
        with pytest.raises(TypeError):
            optimal_r(2, 2, 2, mode=mode)


class TestReductionStatistic:
    def test_matches_direct_enumeration(self):
        for k_max, t_max in ((6, 6), (9, 5), (4, 11), (40, 12), (12, 40)):
            total = Fraction(0)
            count = 0
            for K in range(1, k_max + 1):
                for L in range(1, K + 1):
                    for T in range(1, t_max + 1):
                        tr = candidate_set(K, L, T)
                        total += Fraction(5 + len(tr.W), min(K, T))
                        count += 1
            assert reduction_statistic(k_max, t_max) == total / count, (k_max, t_max)

    def test_exact_rational(self):
        assert isinstance(reduction_statistic(3, 3), Fraction)

    @pytest.mark.parametrize("k_max,t_max,message", [
        (0, 3, "k_max must be a positive integer, got 0"),
        (3, -2, "t_max must be a positive integer, got -2"),
        (2.5, 3, "k_max must be a positive integer, got 2.5"),
        (3, True, "t_max must be a positive integer, got True"),
    ])
    def test_rejects_bad_limits(self, k_max, t_max, message):
        with pytest.raises(DomainError, match=message):
            reduction_statistic(k_max, t_max)
