"""Tests for table construction, validation, counting, and scores."""

import dataclasses
import json
import random
import re
import time
from enum import IntEnum
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasptables import (
    DegreeTable,
    DomainError,
    GaspParams,
    InvalidTableError,
    construct,
    count_distinct,
    sumset,
    transpose,
    validate,
)
from gasptables import cli, degree_table
from gasptables.cli import cmd_dispatch
import table_oracles as oracle
from table_oracles import score_bruteforce

TABLE_III_B = DegreeTable(
    K=4, L=4, T=4,
    alpha_p=(0, 1, 2, 3), alpha_s=(16, 17, 20, 21),
    beta_p=(0, 4, 8, 12), beta_s=(16, 17, 18, 19),
)

TABLE_III_A = DegreeTable(
    K=4, L=4, T=4,
    alpha_p=(0, 1, 2, 3), alpha_s=(16, 20, 24, 28),
    beta_p=(0, 4, 8, 12), beta_s=(16, 17, 18, 19),
)


def tiny(alpha_s=(1,), beta_s=(1,)):
    return DegreeTable(K=1, L=1, T=1, alpha_p=(0,), alpha_s=alpha_s,
                       beta_p=(0,), beta_s=beta_s)


class TestConstruction:
    def test_block_length_mismatch_is_structural(self):
        with pytest.raises(ValueError, match="alpha_p has length 3"):
            DegreeTable(K=2, L=1, T=1, alpha_p=(0, 1, 2), alpha_s=(5,),
                        beta_p=(0,), beta_s=(3,))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            tiny(alpha_s=(-1,))

    def test_non_integer_entry_rejected(self):
        with pytest.raises(ValueError):
            tiny(alpha_s=(1.5,))

    def test_bad_K(self):
        with pytest.raises(ValueError, match="K must be"):
            DegreeTable(K=0, L=1, T=1, alpha_p=(), alpha_s=(1,),
                        beta_p=(0,), beta_s=(1,))

    @pytest.mark.parametrize("blocks,message", [
        (((0,), (5, 6), (0,), (3,)), "alpha_s has length 2, expected T=1"),
        (((0,), (5,), (0, 1), (3,)), "beta_p has length 2, expected L=1"),
        (((0,), (5,), (0,), ()), "beta_s must be nonempty"),
        (((0,), (5,), (0,), (3, 4)), "beta_s has length 2, expected T=1"),
    ])
    def test_block_length_errors(self, blocks, message):
        with pytest.raises(DomainError, match=f"^{message}$") as e:
            DegreeTable(1, 1, 1, *blocks)
        assert isinstance(e.value, ValueError)

    @pytest.mark.parametrize("name", ["K", "L", "T"])
    @pytest.mark.parametrize("bad", [0, -1, True, 1.0, IntEnum("One", "A").A])
    def test_block_sizes_follow_the_integer_rule(self, name, bad):
        # The same rule and message as every other integer argument: int
        # subclasses (bools, IntEnum members) and floats are refused.
        args = dict(K=1, L=1, T=1, alpha_p=(0,), alpha_s=(1,), beta_p=(0,), beta_s=(1,))
        with pytest.raises(DomainError, match=f"^{name} must be a positive integer, got {re.escape(repr(bad))}$"):
            DegreeTable(**{**args, name: bad})

    def test_semantically_invalid_is_constructible(self):
        # D1 broken, but structure fine: searches need such objects to exist.
        t = DegreeTable(K=2, L=1, T=1, alpha_p=(0, 0), alpha_s=(5,),
                        beta_p=(0,), beta_s=(3,))
        assert not validate(t).d1_ok

    def test_accessors(self):
        t = TABLE_III_B
        assert t.alpha == (0, 1, 2, 3, 16, 17, 20, 21)
        assert t.beta == (0, 4, 8, 12, 16, 17, 18, 19)
        assert set(t.alpha) == set(range(4)) | {16, 17, 20, 21}
        m = [[a + b for b in t.beta] for a in t.alpha]
        assert len(m) == 8 and all(len(row) == 8 for row in m)
        assert m[0][0] == 0 and m[7][7] == 40

    def test_json_roundtrip(self):
        d = json.loads(json.dumps(cli._payload(TABLE_III_B)))
        assert d["alpha_s"] == [16, 17, 20, 21]
        assert DegreeTable.from_json_dict(d) == TABLE_III_B

    def test_json_missing_key(self):
        d = cli._payload(TABLE_III_B)
        del d["beta_p"]
        with pytest.raises(ValueError, match="beta_p"):
            DegreeTable.from_json_dict(d)


class TestValidate:
    def test_table_iii_b_valid(self):
        assert validate(TABLE_III_B).ok

    def test_duplicate_alpha_breaks_d1(self):
        t = DegreeTable(K=2, L=1, T=1, alpha_p=(0, 0), alpha_s=(5,),
                        beta_p=(0,), beta_s=(3,))
        rep = validate(t)
        assert not rep.d1_ok and rep.d2_ok

    def test_smallest_valid_table(self):
        rep = validate(tiny())
        assert rep.ok and rep.d3_witness is None

    def test_d3_witness_is_doubly_represented(self):
        # alpha = (0, 1, 2), beta = (0, 1): the prefix sum 1 = 1+0 = 0+1.
        t = DegreeTable(K=2, L=1, T=1, alpha_p=(0, 1), alpha_s=(2,),
                        beta_p=(0,), beta_s=(1,))
        rep = validate(t)
        assert not rep.d3_ok
        assert rep.d3_witness == 1

    def test_gasp_tables_validate(self):
        for K in range(1, 7):
            for L in range(1, K + 1):
                for T in range(1, 7):
                    for r in range(1, min(K, T) + 1):
                        t = construct(GaspParams(K, L, T, r))
                        assert validate(t).ok, (K, L, T, r)


class TestCountDistinct:
    def test_golden_counts(self):
        assert count_distinct(TABLE_III_A) == 41
        assert count_distinct(TABLE_III_B) == 36
        assert count_distinct(tiny()) == 3

    def test_invalid_table_rejected_with_report(self):
        t = DegreeTable(K=2, L=1, T=1, alpha_p=(0, 1), alpha_s=(2,),
                        beta_p=(0,), beta_s=(1,))
        with pytest.raises(InvalidTableError, match="D3") as exc:
            count_distinct(t)
        assert exc.value.report.d3_witness == 1

    @pytest.mark.parametrize("alpha_p,alpha_s,beta_p,beta_s,message", [
        ((0, 0), (5,), (0,), (3,), "degree table violates D1"),
        ((0, 3), (5,), (0,), (0,), "degree table violates D2"),
        ((0, 1), (2,), (0,), (1,), "degree table violates D3 (witness sum 1)"),
        ((0, 0), (1,), (0,), (0,), "degree table violates D1, D2"),
        ((0, 1), (1,), (0,), (1,), "degree table violates D1, D3 (witness sum 1)"),
    ])
    def test_invalid_table_messages(self, alpha_p, alpha_s, beta_p, beta_s, message):
        t = DegreeTable(K=2, L=1, T=1, alpha_p=alpha_p, alpha_s=alpha_s,
                        beta_p=beta_p, beta_s=beta_s)
        with pytest.raises(InvalidTableError) as exc:
            count_distinct(t)
        assert str(exc.value) == message
        assert exc.value.report == validate(t)

    def test_equals_sumset_size_on_gasp_tables(self):
        for K in range(1, 9):
            for L in range(1, K + 1):
                for T in range(1, 9):
                    for r in range(1, min(K, T) + 1):
                        t = construct(GaspParams(K, L, T, r))
                        assert count_distinct(t) == len(sumset(t.alpha, t.beta)), (K, L, T, r)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_sumset_size_or_raises(self, data):
        K, L, T = (data.draw(st.integers(1, 4)) for _ in range(3))

        def vec(n):
            return tuple(data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))

        t = DegreeTable(K=K, L=L, T=T, alpha_p=vec(K), alpha_s=vec(T), beta_p=vec(L), beta_s=vec(T))
        if validate(t).ok:
            assert count_distinct(t) == len(sumset(t.alpha, t.beta))
        else:
            with pytest.raises(InvalidTableError):
                count_distinct(t)

    def test_at_least_kl(self):
        rng = random.Random(1003)
        for _ in range(60):
            K = rng.randint(1, 5)
            L = rng.randint(1, 5)
            T = rng.randint(1, 5)
            p = GaspParams(*sorted((K, L), reverse=True), T, rng.randint(1, min(K, L, T)))
            t = construct(p)
            assert count_distinct(t) >= t.K * t.L


def _outcome(t):
    """count_distinct's count, or its InvalidTableError message and report."""
    try:
        return count_distinct(t)
    except InvalidTableError as e:
        return str(e), e.report


def _assert_matches_oracle(t):
    assert degree_table._check(t) == oracle._check(t)
    with mock.patch.object(degree_table, "_check", oracle._check):
        expected = _outcome(t)
    assert _outcome(t) == expected


SPARSE = st.integers(0, 10**15)


class TestCheckAgainstOracle:
    """The bitset pass against the Counter kernel: equal reports, counts and
    InvalidTableError messages on every kind of table."""

    @settings(max_examples=300, deadline=None)
    @given(oracle.tables())
    def test_dense(self, t):
        _assert_matches_oracle(t)

    @settings(max_examples=200, deadline=None)
    @given(oracle.tables(SPARSE))
    def test_sparse(self, t):
        _assert_matches_oracle(t)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((0, 1)).flatmap(oracle.guard_tables))
    def test_at_and_above_the_sparse_guard(self, t):
        rows = max(len(set(t.alpha)), len(set(t.beta)))
        over = max(t.alpha) + max(t.beta) - degree_table._SPARSE_RATIO * rows
        assert over in (0, 1)
        _assert_matches_oracle(t)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(oracle.repeated_tables(), oracle.repeated_tables(SPARSE)))
    def test_repeated_entries(self, t):
        assert not validate(t).d1_ok or not validate(t).d2_ok
        _assert_matches_oracle(t)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(oracle.colliding_tables(), oracle.colliding_tables(SPARSE)))
    def test_prefix_collisions(self, t):
        assert not validate(t).d3_ok
        _assert_matches_oracle(t)

    @pytest.mark.parametrize("K,L,T", [(1000, 2, 8), (1000, 1, 3), (300, 3, 40), (60, 60, 80)])
    def test_gasp_tables_and_transposes(self, K, L, T):
        # GASP's alpha_p is the larger prefix, its transpose's beta_p.
        for r in sorted({1, 2, min(K, T) // 2 or 1, min(K, T)}):
            t = construct(GaspParams(K, L, T, r))
            _assert_matches_oracle(t)
            _assert_matches_oracle(transpose(t))

    def test_gasp_tables_and_transposes_on_a_grid(self):
        for K in range(1, 7):
            for L in range(1, K + 1):
                for T in range(1, 7):
                    for r in range(1, min(K, T) + 1):
                        t = construct(GaspParams(K, L, T, r))
                        _assert_matches_oracle(t)
                        _assert_matches_oracle(transpose(t))

    @settings(max_examples=200, deadline=None)
    @given(oracle.tables(SPARSE, dims=st.integers(1, 8)))
    def test_sparse_either_prefix_larger(self, t):
        _assert_matches_oracle(t)
        _assert_matches_oracle(transpose(t))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(oracle.progression_tables(), oracle.progression_tables(SPARSE)))
    def test_progression_blocks(self, t):
        _assert_matches_oracle(t)
        _assert_matches_oracle(transpose(t))

    @settings(max_examples=200, deadline=None)
    @given(oracle.long_progression_tables())
    def test_long_progressions(self, t):
        # Either side shifts: the one with fewer distinct entries, alpha on a tie.
        _assert_matches_oracle(t)
        _assert_matches_oracle(transpose(t))

    @settings(max_examples=150, deadline=None)
    @given(oracle.long_progression_tables("repeat"))
    def test_long_progressions_repeating_across_blocks(self, t):
        assert not (validate(t).d1_ok and validate(t).d2_ok)
        _assert_matches_oracle(t)
        _assert_matches_oracle(transpose(t))

    @settings(max_examples=150, deadline=None)
    @given(oracle.long_progression_tables("collide"))
    def test_long_prefix_progressions_colliding(self, t):
        assert not validate(t).d3_ok
        _assert_matches_oracle(t)
        _assert_matches_oracle(transpose(t))

    def test_entries_near_1e15_validate_at_once(self, capsys, tmp_path):
        big = 10**15
        t = DegreeTable(K=2, L=2, T=2, alpha_p=(0, 1), alpha_s=(big, big + 3),
                        beta_p=(0, 2), beta_s=(big - 10, big - 1))
        start = time.perf_counter()
        got = degree_table._check(t)
        assert time.perf_counter() - start < 1
        assert got == oracle._check(t) == (validate(t), 15)
        src = tmp_path / "big.json"
        src.write_text(json.dumps(dataclasses.asdict(t)))
        code = cmd_dispatch(["sdmm", "run", "--dims", "2,2,2", "--table", str(src)])
        assert code == 0, capsys.readouterr().err


def _or_loop(block):
    mask = 0
    for v in block:
        mask |= 1 << v
    return mask


def _mask(block):
    """_mask with the step _check would pass it."""
    return degree_table._mask(block, degree_table._step(block))


@pytest.mark.parametrize("block", [
    (0, 1, 2), (3, 7, 11, 15), (9, 6, 3, 0), (5, 5, 5), (2, 9), (9, 2), (4,), (0, 1, 3), (0, 2, 4, 5), (0, 2, 4, 5, 8),
    (1, 2, 3, 3), (70, 135, 200), (200, 135, 70), (65,), (64, 64),
])
def test_mask_matches_an_or_loop(block):
    assert _mask(block) == _or_loop(block)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 200), st.integers(-9, 40) | st.sampled_from([60, 61, 1000, -61]), st.integers(1, 70))
def test_mask_of_a_progression_matches_an_or_loop(start, step, n):
    # Ascending, descending and constant; masks run past 2^64 from an entry of 64.
    block = tuple(start + max(0, -step * (n - 1)) + step * i for i in range(n))
    assert _mask(block) == _or_loop(block)


# One division by 2^s - 1 at every step: one 30-bit digit up to 30, more past it.
@pytest.mark.parametrize("step", [29, 30, 31, 32, 33, 60, 61, 1000])
def test_mask_of_a_wide_progression_matches_an_or_loop(step):
    for n in range(3, 71):
        for start in (0, 1, 64):
            block = tuple(start + step * i for i in range(n))
            assert _mask(block) == _or_loop(block), (step, n, start)


def _rows_one_by_one(values, block, twice, once):
    for v in block:
        twice |= once & values << v
        once |= values << v
    return twice, once


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 2**80), st.integers(0, 200), st.integers(1, 9) | st.sampled_from([30, 31, 64]),
       st.integers(3, 70), st.integers(0, 2**90), st.integers(0, 2**90))
def test_rows_by_doubling_match_rows_one_by_one(values, start, step, n, twice, once):
    # Every doubling level and every trailing bit of n, merged into nonempty accumulators.
    block = tuple(range(start, start + step * n, step))
    assert degree_table._step(block) == step
    got = degree_table._rows(values.__lshift__, block, step, twice & once, once)
    assert got == _rows_one_by_one(values, block, twice & once, once)


def _mask_widths(t):
    """_check's result, and the bit length of every bitset _mask builds for it."""
    widths, real = [], degree_table._mask

    def recording(block, s):
        widths.append((m := real(block, s)).bit_length())
        return m

    with mock.patch.object(degree_table, "_mask", recording):
        return degree_table._check(t), widths


class TestSparseGuard:
    """The guard is decided from the side lengths, then from the distinct counts,
    and no bitset holds a bit above _SPARSE_RATIO times the longer side."""

    @pytest.mark.parametrize("over", [0, 1])
    @pytest.mark.parametrize("K,L,T,alpha,beta", [
        # H is the far entry; alpha and beta have 3 and 2, then 4 and 4, distinct entries.
        (3, 2, 3, (0, 1, 0, "H", 1, "H"), (0, 2, 2, 0, 2)),
        (3, 3, 3, (0, 1, 2, 1, "H", "H"), (0, 3, 6, 3, 3, 2)),
    ])
    def test_decided_by_distinct_counts(self, K, L, T, alpha, beta, over):
        # By the side lengths the largest sum is below the guard; by the distinct
        # counts it is at the guard (bitsets) or one above it (sets).
        ratio, rows = degree_table._SPARSE_RATIO, max(len(set(alpha)), len(set(beta)))
        t = oracle._table(K, L, T, [ratio * rows + over - max(beta) if v == "H" else v for v in alpha], list(beta))
        for u in (t, transpose(t)):
            assert max(u.alpha) + max(u.beta) == ratio * rows + over < ratio * max(len(u.alpha), len(u.beta))
            widths = _mask_widths(u)[1]
            _assert_matches_oracle(u)
            assert len(widths) == 4 and max(widths) - 1 <= ratio * rows + over

    def test_decided_by_lengths_builds_no_bitset(self):
        t = DegreeTable(K=1, L=1, T=2, alpha_p=(0,), alpha_s=(3, 10**15), beta_p=(0,), beta_s=(1, 3))
        got, widths = _mask_widths(t)
        assert widths == [] and got == oracle._check(t)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(oracle.tables(SPARSE), oracle.progression_tables(SPARSE),
                     oracle.repeated_tables(SPARSE), st.sampled_from((0, 1)).flatmap(oracle.guard_tables)))
    def test_no_bitset_past_the_guard(self, t):
        widths = _mask_widths(t)[1]
        assert all(w - 1 <= degree_table._SPARSE_RATIO * max(len(t.alpha), len(t.beta)) for w in widths)


class IntSub(int):
    pass


ENTRY = st.one_of(
    st.integers(-3, 10**15), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2),
    st.none(), st.integers(0, 9).map(IntSub),
)


def _vector_outcome(check, values):
    try:
        return check("beta_s", values)
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTRY, max_size=5) | st.lists(st.integers(0, 10**15), max_size=5))
def test_exponent_vector_matches_oracle(values):
    got = _vector_outcome(degree_table._as_exponent_vector, values)
    assert got == _vector_outcome(oracle._as_exponent_vector, values)
    if isinstance(got, tuple):
        assert list(map(type, got)) == list(map(type, values))


@settings(max_examples=300, deadline=None)
@given(st.builds(range, st.integers(-6, 30), st.integers(-6, 30), st.integers(-4, 4).filter(bool)))
def test_range_checked_by_its_ends_as_its_tuple(values):
    got = _vector_outcome(degree_table._as_exponent_vector, values)
    assert got == _vector_outcome(degree_table._as_exponent_vector, tuple(values))
    assert got == _vector_outcome(oracle._as_exponent_vector, values)
    assert type(got) is str or type(got) is tuple


@pytest.mark.parametrize("K,L,T", [(1, 1, 1), (4, 3, 5), (1000, 2, 8)])
def test_table_of_ranges_equals_table_of_tuples(K, L, T):
    blocks = (range(K), range(K * L, K * L + T), range(0, K * L, K), range(K * L + 1, K * L + T + 1))
    t, u = DegreeTable(K, L, T, *blocks), DegreeTable(K, L, T, *map(tuple, blocks))
    assert t == u and hash(t) == hash(u)
    assert all(type(b) is tuple for b in (t.alpha_p, t.alpha_s, t.beta_p, t.beta_s))


@pytest.mark.parametrize("block,message", [
    (range(0), "beta_s must be nonempty"),
    (range(4, 4), "beta_s must be nonempty"),
    (range(-1, 3), "beta_s entries must be nonnegative, got -1"),
    (range(2, -3, -1), "beta_s entries must be nonnegative, got -1"),
    (range(-7, 0, 3), "beta_s entries must be nonnegative, got -7"),
])
def test_empty_and_negative_ranges_fail_as_their_tuples(block, message):
    for b in (block, tuple(block)):
        with pytest.raises(DomainError, match=f"^{message}$"):
            DegreeTable(1, 1, max(1, len(block)), (0,), (1,) * max(1, len(block)), (0,), b)


def test_int_subclass_accepted_and_bool_rejected():
    assert degree_table._as_exponent_vector("alpha_s", (IntSub(2), 3)) == (2, 3)
    with pytest.raises(ValueError, match="integers, got True"):
        degree_table._as_exponent_vector("alpha_s", (2, True))


def test_sumset_basics():
    assert sumset({0, 1}, {0, 2}) == {0, 1, 2, 3}
    assert sumset([5], [7]) == {12}
    with pytest.raises(DomainError):
        sumset(set(), {1})


def test_sumset_intersection_bound():
    """No row of the table shares more than one value with any column.

    For valid tables this follows from uniqueness of the prefix-block sums;
    checked here over the whole construction family.
    """
    for K in range(1, 7):
        for L in range(1, K + 1):
            for T in range(1, 7):
                for r in range(1, min(K, T) + 1):
                    t = construct(GaspParams(K, L, T, r))
                    sap, sbp = set(t.alpha_p), set(t.beta_p)
                    cols = [{a + bj for a in sap} for bj in t.beta]
                    for ai in t.alpha:
                        row = {ai + b for b in sbp}
                        for col in cols:
                            assert len(row & col) <= 1


def _is_ap(values: tuple) -> bool:
    if len(values) < 2:
        return True
    d = values[1] - values[0]
    return all(values[i + 1] - values[i] == d for i in range(len(values) - 1))


def _common_difference(values: tuple) -> int:
    return values[1] - values[0]


def test_sumset_size_bound_and_equality_shape():
    """|A+B| >= |A|+|B|-1, equality exactly for same-step progressions.

    Exhaustive over sets with minimum 0 and entries up to 12 (sumset size
    and progression structure are shift invariant, so anchoring the minimum
    loses no generality), sizes up to 4 per side.
    """
    pool = []
    for size in range(1, 5):
        for rest in combinations(range(1, 13), size - 1):
            pool.append((0,) + rest)
    for a in pool:
        for b in pool:
            n = len(sumset(a, b))
            assert n >= len(a) + len(b) - 1
            if len(a) >= 2 and len(b) >= 2:
                equality = n == len(a) + len(b) - 1
                structured = (
                    _is_ap(a) and _is_ap(b)
                    and _common_difference(a) == _common_difference(b)
                )
                assert equality == structured, (a, b)


class TestScores:
    @pytest.mark.parametrize("r,score", [(1, 14), (2, 19), (3, 18), (4, 16)])
    def test_table_iii_scores(self, r, score):
        t = construct(GaspParams(4, 4, 4, r))
        assert score_bruteforce(t).total == score

    def test_smallest_table_score(self):
        # 2x2 table with entries {0,1,1,2}: one repeat.
        assert score_bruteforce(tiny()).total == 1

    def test_breakdown_shapes(self):
        sb = score_bruteforce(TABLE_III_B)
        assert len(sb.left) == 4 and len(sb.right) == 4
        assert sb.total == sum(sb.left) + sum(sb.right)
