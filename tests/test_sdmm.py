"""End-to-end checks for the masked matrix multiplication protocol."""

import contextlib
import dataclasses
import functools
import hashlib
import math
import os
import random
import re
import signal
import sys
import threading
import tracemalloc
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protocol_oracles as oracle
from gasptables import (
    DomainError,
    GaspParams,
    PrimeField,
    SdmmInstance,
    SecurityReport,
    build_instance,
    choose_field_and_points,
    construct,
    count_distinct,
    decode,
    encode,
    n_of_r,
    next_prime,
    partition,
    plain_product,
    security_check,
    server_compute,
)
from gasptables import field, sdmm
from gasptables.sdmm import MAX_EXHAUSTIVE_SUBSETS

T111 = construct(GaspParams(1, 1, 1, 1))
T222 = construct(GaspParams(2, 2, 2, 1))
T442 = construct(GaspParams(4, 4, 4, 2))


def rand_matrix(rng, rows, cols, bound=100):
    return tuple(tuple(rng.randrange(bound) for _ in range(cols)) for _ in range(rows))


@contextlib.contextmanager
def _sampling(count):
    """A sampled audit of ``count`` subsets, in sdmm and in the oracle's copy of the constant."""
    with mock.patch.object(sdmm, "SAMPLED_SUBSET_COUNT", count):
        with mock.patch.object(oracle, "SAMPLED_SUBSET_COUNT", count):
            yield


def _remasked(inst, mask):
    """``inst`` with every mask replaced by ``mask(old_mask)``, re-encoded and re-answered."""
    r_masks, s_masks = tuple(map(mask, inst.r_masks)), tuple(map(mask, inst.s_masks))
    a_blocks, b_blocks = partition(inst.a_mat, inst.b_mat, inst.table.K, inst.table.L)
    shares = encode(inst.field, inst.table, inst.points, a_blocks + r_masks, b_blocks + s_masks)
    return dataclasses.replace(inst, r_masks=r_masks, s_masks=s_masks, shares=shares,
                               responses=server_compute(inst.field, shares))


class TestPartition:
    def test_row_blocks(self):
        a = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
        b = ((1, 1), (1, 1), (1, 1))
        a_blocks, _ = partition(a, b, K=2, L=1)
        assert a_blocks == (
            ((1, 2, 3), (4, 5, 6)),
            ((7, 8, 9), (10, 11, 12)),
        )

    def test_column_blocks(self):
        a = ((1, 1, 1),)
        b = ((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12))
        _, b_blocks = partition(a, b, K=1, L=2)
        assert b_blocks == (
            ((1, 2), (5, 6), (9, 10)),
            ((3, 4), (7, 8), (11, 12)),
        )

    def test_trivial_split_is_whole_matrix(self):
        a = ((1, 2), (3, 4))
        b = ((5,), (6,))
        a_blocks, b_blocks = partition(a, b, K=1, L=1)
        assert a_blocks == (a,) and b_blocks == (b,)

    def test_empty_matrix_rejected(self):
        with pytest.raises(DomainError, match="must be non-empty"):
            partition((), ((1,),), 1, 1)
        with pytest.raises(DomainError, match="B must be non-empty"):
            partition(((1,),), ((),), 1, 1)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DomainError, match="A has ragged rows"):
            partition(((1, 2), (3,)), ((1,), (2,)), 1, 1)

    def test_inner_dimension_mismatch(self):
        with pytest.raises(DomainError, match=r"inner dimensions differ: A is 2x3, B is 4x2"):
            partition(((1, 2, 3), (4, 5, 6)), ((1, 2),) * 4, 1, 1)

    def test_indivisible_rows(self):
        with pytest.raises(DomainError, match=r"A has 3 rows, not divisible by K=2"):
            partition(((1,), (2,), (3,)), ((1, 2),), 2, 1)

    def test_indivisible_columns(self):
        with pytest.raises(DomainError, match=r"B has 3 columns, not divisible by L=2"):
            partition(((1,),), ((1, 2, 3),), 1, 2)


class TestFieldAndPoints:
    def test_smallest_table(self):
        # M = 2 forces q past M + 2; the draw itself is pinned by the seed.
        fld, pts = choose_field_and_points(T111)
        assert fld.q == 5
        assert pts == (2, 3, 4)

    def test_points_are_distinct_nonzero_sorted(self):
        fld, pts = choose_field_and_points(T442)
        assert fld.q == 43
        assert len(pts) == 36
        assert len(set(pts)) == 36
        assert all(1 <= x < 43 for x in pts)
        assert pts == tuple(sorted(pts))

    def test_base_q_dominates_when_large(self):
        fld, _ = choose_field_and_points(T111, base_q=101)
        assert fld.q == 101

    def test_same_seed_same_draw(self):
        assert choose_field_and_points(T442, seed=4) == choose_field_and_points(T442, seed=4)

    # 1e40 hung in next_prime, "7" and None raised a TypeError, and 1 or 0 were raised silently.
    @pytest.mark.parametrize("base_q", [1e40, 7.0, "7", None, True, 1, 0, -5])
    def test_base_q_must_be_an_integer_of_at_least_two(self, base_q):
        with pytest.raises(DomainError, match=rf"base_q must be at least 2, got {re.escape(repr(base_q))}"):
            build_instance(((1,),), ((1,),), T111, base_q=base_q)

    def test_points_past_sys_maxsize(self):
        # range(1, q) has no len() here, so the points are drawn one by one.
        fld, pts = choose_field_and_points(T111, base_q=2**63)
        assert fld.q > 2**63 > sys.maxsize
        assert len(set(pts)) == 3 and pts == tuple(sorted(pts))
        assert all(1 <= x < fld.q for x in pts)
        assert choose_field_and_points(T111, base_q=2**63) == (fld, pts)

    def test_run_past_sys_maxsize_decodes(self):
        rng = random.Random(7)
        a, b = rand_matrix(rng, 1, 2), rand_matrix(rng, 2, 1)
        inst = build_instance(a, b, T111, base_q=2**63, seed=3)
        assert inst.field.q > sys.maxsize
        assert decode(inst).product == plain_product(inst)
        assert security_check(inst).ok

    def test_small_field_can_be_structurally_unusable(self):
        # GF(19) has only 18 nonzero points for this table's 14 servers and
        # none of the retried draws gives invertible decode/security minors.
        t = construct(GaspParams(3, 2, 2, 1))
        msg = r"no usable evaluation points after 64 attempts over GF\(19\); retry with a larger base_q"
        with pytest.raises(DomainError, match=msg):
            choose_field_and_points(t)
        fld, _ = choose_field_and_points(t, base_q=23)
        assert fld.q == 23


class TestEncodeDecode:
    def test_zero_masks_give_constant_shares(self):
        a = ((1, 2, 3), (4, 0, 1))
        b = ((2, 0), (1, 3), (0, 4))
        inst = _remasked(build_instance(a, b, T111), lambda m: tuple((0,) * len(row) for row in m))
        for f_sh, g_sh in inst.shares:
            assert f_sh == inst.a_mat
            assert g_sh == inst.b_mat
        assert decode(inst).product == plain_product(inst)

    def test_hand_worked_single_cell(self):
        # f(x) = 1 + 2x and g(x) = 1 + 3x over GF(5), so the response
        # polynomial is 1 + x^2 and the (0,0) coefficient is the product.
        fld, pts = PrimeField(5), (1, 2, 3)
        shares = encode(fld, T111, pts, (((1,),), ((2,),)), (((1,),), ((3,),)))
        assert shares == ((((3,),), ((4,),)), (((0,),), ((2,),)), (((2,),), ((0,),)))
        responses = server_compute(fld, shares)
        assert responses == (((2,),), ((0,),), ((0,),))
        inst = SdmmInstance(
            field=fld,
            dims=(1, 1, 1),
            table=T111,
            a_mat=((1,),),
            b_mat=((1,),),
            r_masks=(((2,),),),
            s_masks=(((3,),),),
            points=pts,
            shares=shares,
            responses=responses,
        )
        result = decode(inst)
        assert result.product == ((1,),)
        assert result.blocks == {(0, 0): ((1,),)}

    def test_roundtrip_random_square(self):
        rng = random.Random(11)
        for _ in range(10):
            a = rand_matrix(rng, 4, 3)
            b = rand_matrix(rng, 3, 4)
            inst = build_instance(a, b, T222, base_q=101, seed=rng.randrange(1000))
            assert decode(inst).product == plain_product(inst)

    def test_roundtrip_rectangular_blocks(self):
        t = construct(GaspParams(3, 2, 2, 1))
        a = tuple((i, i + 1) for i in range(6))
        b = ((2, 3, 4, 5), (6, 7, 8, 9))
        inst = build_instance(a, b, t, base_q=23, seed=3)
        res = decode(inst)
        assert res.product == plain_product(inst)
        assert set(res.blocks) == {(k, l) for k in range(3) for l in range(2)}
        assert all(len(blk) == 2 and len(blk[0]) == 2 for blk in res.blocks.values())

    def test_block_reassembly_matches_product(self):
        rng = random.Random(5)
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T222, base_q=101)
        res = decode(inst)
        for k, l in res.blocks:
            for i in range(2):
                for j in range(2):
                    assert res.blocks[(k, l)][i][j] == res.product[2 * k + i][2 * l + j]

    def test_input_entries_reduced_into_field(self):
        inst = build_instance(((8,),), ((9,),), T111)
        assert inst.field.q == 5
        assert inst.a_mat == ((3,),)
        assert inst.b_mat == ((4,),)
        assert decode(inst).product == ((2,),)

    def test_other_masks_change_shares_not_product(self):
        a = ((1, 2), (3, 4))
        b = ((5, 6), (7, 8))
        base = build_instance(a, b, T222, base_q=101, seed=0)
        rng = random.Random(99)
        other = _remasked(base, lambda m: base.field.random_matrix(rng, len(m), len(m[0])))
        assert base.points == other.points
        assert base.shares != other.shares
        assert decode(base).product == decode(other).product

    def test_decode_applies_the_factorisation_point_selection_kept(self):
        rng = random.Random(3)
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T442, seed=2)
        before = field._lu.cache_info()
        assert decode(inst).product == plain_product(inst)
        after = field._lu.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    # The factorisation is keyed by the decode matrix, so an instance with other
    # points or another table of the same size decodes from its own matrix:
    # what a fresh solve of that matrix gives, or the singular-matrix error.
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["points", "table"]), st.integers(0, 10**6), st.data())
    def test_edited_instance_never_uses_a_stale_factorisation(self, edit, seed, data):
        rng = random.Random(seed)
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T222, base_q=101, seed=seed)
        decode(inst)
        if edit == "points":
            pts = data.draw(st.lists(st.integers(0, 2 * inst.field.q), min_size=11, max_size=11))
            other = dataclasses.replace(inst, points=tuple(pts))
        else:
            other = dataclasses.replace(inst, table=construct(GaspParams(2, 2, 2, 2)))
        want = oracle.decode(other)
        if want is None:
            with pytest.raises(DomainError, match="decode matrix is singular"):
                decode(other)
        else:
            assert decode(other).blocks == want

    def test_instance_equality_ignores_decoding(self):
        rng = random.Random(4)
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T222, base_q=101)
        same = SdmmInstance(**{f.name: getattr(inst, f.name) for f in dataclasses.fields(inst)})
        key = hash(inst)
        assert decode(inst) == decode(same)
        assert inst == same and hash(inst) == hash(same) == key

    def test_decode_checks_point_count(self):
        inst = build_instance(((1,),), ((1,),), T111)
        short = dataclasses.replace(inst, points=inst.points[:-1])
        with pytest.raises(DomainError, match="expected 3 evaluation points, got 2"):
            decode(short)

    def test_decode_rejects_repeated_points(self):
        inst = build_instance(((1,),), ((1,),), T111)
        dup = dataclasses.replace(inst, points=(inst.points[0],) * inst.n_servers)
        with pytest.raises(DomainError, match="decode matrix is singular"):
            decode(dup)

    def test_build_validates_dimensions(self):
        with pytest.raises(DomainError, match="not divisible by K=2"):
            build_instance(((1, 2), (3, 4), (5, 6)), ((1, 2), (3, 4)), T222)

    # GF(19) has no usable points for GASP(3,2,2,1) (test_small_field_can_be_structurally_unusable),
    # so shapes checked only after point selection were reported as that instead.
    def test_shapes_are_checked_before_point_selection(self):
        t = construct(GaspParams(3, 2, 2, 1))
        with pytest.raises(DomainError, match=r"^A has 4 rows, not divisible by K=3$"):
            build_instance(((1, 2),) * 4, ((1, 2), (3, 4)), t)


class TestSecurityCheck:
    def test_single_mask_always_secure(self):
        t = construct(GaspParams(2, 2, 1, 1))
        inst = build_instance(((1, 2), (3, 4)), ((5, 6), (7, 0)), t)
        rep = security_check(inst)
        # T = 1 subsets are 1x1 powers of nonzero points, always invertible.
        assert rep.total_subsets == inst.n_servers == 8
        assert rep.exhaustive and rep.ok
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep.checked == 8
        assert rep.failures == ()

    # Whether a report is exhaustive is read off its counts, never stored apart from them.
    def test_exhaustive_is_derived(self):
        assert [f.name for f in dataclasses.fields(SecurityReport)] == ["total_subsets", "checked", "failures"]
        assert SecurityReport(total_subsets=5, checked=5).exhaustive
        assert not SecurityReport(total_subsets=5, checked=4).exhaustive

    def test_small_field_leaks_on_alpha_side(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        assert inst.field.q == 43
        rep = security_check(inst, mode="all")
        assert rep.exhaustive
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep.total_subsets == math.comb(36, 4) == 58905
        assert rep.checked == 58905
        assert not rep.ok
        # Every bad subset comes from the gappy alpha suffix; the consecutive
        # beta suffix gives scaled Vandermonde minors that never vanish.
        assert len(rep.failures) == 1177
        assert {side for _, side in rep.failures} == {"alpha"}
        for subset, _ in rep.failures[:10]:
            assert len(subset) == 4 and len(set(subset)) == 4

    def test_readme_quick_start_audits(self):
        # The README's claim: at the defaults the 4-cube audit leaks over
        # GF(43); base_q=65537 gives points whose exhaustive audit is clean.
        a = tuple(tuple(range(i, i + 4)) for i in range(8))
        b = tuple(tuple(range(i, i + 8)) for i in range(4))
        rep = security_check(build_instance(a, b, T442), mode="all")
        assert (rep.checked, len(rep.failures)) == (58905, 1158)
        assert {side for _, side in rep.failures} == {"alpha"}
        inst = build_instance(a, b, T442, base_q=65537)
        assert inst.field.q == 65537
        assert security_check(inst, mode="all").ok

    def test_larger_field_clears_sampled_audit(self):
        rng = random.Random(2)
        inst = build_instance(
            rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442,
            base_q=1_000_003, seed=0,
        )
        with _sampling(2000):
            rep = security_check(inst, mode="sampled")
        assert not rep.exhaustive
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep.checked == 2000
        assert rep.ok

    def test_sampled_mode_honors_sample_size(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        with _sampling(500):
            rep = security_check(inst, mode="sampled")
            assert rep == oracle.security_check(inst, mode="sampled")
        assert not rep.exhaustive
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep.total_subsets == 58905
        assert rep.checked == 500
        # 500 distinct subsets.  Drawn with replacement, the 500 held 498
        # (the first repeat at draw 250) and also gave 15 failures.
        assert len(rep.failures) == 15
        assert not rep.ok

    @pytest.mark.parametrize("mode", ["auto", "sampled"])
    def test_sample_covering_every_subset_is_exhaustive(self, monkeypatch, mode):
        inst = build_instance(((1,),), ((1,),), T111)
        with _sampling(10):
            rep = security_check(inst, mode=mode)
        assert (rep.total_subsets, rep.checked, rep.exhaustive, rep.ok) == (3, 3, True, True)
        # C(11, 2) = 55 subsets: each mode enumerates them up to its limit and
        # samples past it.  The sample is kept at most auto's limit.
        inst = build_instance(((1,), (2,)), ((3, 4),), construct(GaspParams(2, 2, 2, 2)))
        for limit, checked in ((54, 54), (55, 55)):
            monkeypatch.setattr(sdmm, "EXHAUSTIVE_SUBSET_LIMIT", limit)
            with _sampling(limit):
                rep = security_check(inst, mode=mode)
            assert (rep.total_subsets, rep.checked, rep.exhaustive) == (55, checked, checked == 55)
        assert rep == security_check(inst, mode="all")

    def test_sampled_subsets_are_distinct(self):
        # At GASP(4,4,4,2), 10,000 draws with repeats kept hold 9,189 distinct
        # subsets; redrawing each repeat keeps the draws before the first one.
        with_repeats = _drawn(36, 4, 10_000, random.Random("security:0"), distinct=False)
        assert len(set(with_repeats)) == 9189
        first = next(i for i, s in enumerate(with_repeats) if s in with_repeats[:i])
        assert first == 250
        assert sdmm._subsets(36, 4, -1, 10_000, random.Random("security:0"))[:first] == with_repeats[:first]
        # Distinct sorted t-subsets of range(n), as many as asked for, there and on
        # each side of the sizes where random.sample switches from a pool to a set.
        for n, t, samples in ((36, 4, 10_000), (21, 3, 200), (22, 3, 200), (85, 6, 200), (86, 6, 200)):
            drawn = sdmm._subsets(n, t, -1, samples, random.Random("security:0"))
            assert len(drawn) == len(set(drawn)) == samples
            assert all(len(s) == t and list(s) == sorted(set(s)) and set(s) <= set(range(n)) for s in drawn)

    def test_exhaustive_audit_streams_its_subsets(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        listed = list(combinations(range(36), 4))
        list_bytes = sys.getsizeof(listed) + sum(map(sys.getsizeof, listed))
        del listed
        tracemalloc.start()
        try:
            rep = security_check(inst, mode="all")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.checked, len(rep.failures)) == (58905, 1177)
        assert list_bytes > 4_000_000
        assert peak < list_bytes / 10

    def test_auto_switches_to_sampling_above_limit(self):
        t = construct(GaspParams(2, 2, 9, 2))
        inst = build_instance(((1,), (2,)), ((3, 4),), t)
        assert inst.n_servers == 25
        with _sampling(300):
            rep = security_check(inst, mode="auto")
        assert rep.total_subsets == math.comb(25, 9) == 2042975
        assert not rep.exhaustive
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep.checked == 300
        assert rep.ok

    def test_sampled_is_seed_deterministic(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        with _sampling(200):
            first = security_check(inst, mode="sampled", seed=9)
            again = security_check(inst, mode="sampled", seed=9)
        assert first == again

    def test_exhaustive_audit_is_bounded(self):
        t = construct(GaspParams(2, 2, 12, 2))
        inst = build_instance(((1,), (2,)), ((3, 4),), t)
        assert inst.n_servers == 31
        total = math.comb(31, 12)
        assert total == 141120525 > MAX_EXHAUSTIVE_SUBSETS
        with pytest.raises(DomainError, match=rf"C\(31,12\) = {total} subsets"):
            security_check(inst, mode="all")
        with _sampling(20):
            assert security_check(inst, mode="auto").checked == 20

    def test_unknown_mode_rejected(self):
        inst = build_instance(((1,),), ((1,),), T111)
        with pytest.raises(DomainError, match="unknown mode"):
            security_check(inst, mode="thorough")


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except DomainError as e:
        return str(e)


class TestAgainstOracle:
    # GF(13) at (2,2,2,1) fails on every seed, GF(19) at (3,2,2,1) on nearly
    # all; both sides must fail with the same message, and succeed with the
    # same points, which needs the same draws from the shared RNG.
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(2, 2, 2, 1), (3, 2, 2, 1), (4, 4, 4, 2)]),
           st.integers(0, 10**6), st.sampled_from([2, 50]))
    def test_points(self, params, seed, samples):
        t = construct(GaspParams(*params))
        with mock.patch.object(sdmm, "SELECTION_SAMPLES", samples):
            got = _outcome(choose_field_and_points, t, seed=seed)
        assert got == _outcome(oracle.choose_field_and_points, t, seed=seed, selection_samples=samples)

    # Exponents unsorted, repeated and with gaps; points zero (0^0 = 1), at or past q.
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 5, 13, 331, next_prime(2 ** 64), next_prime(2 ** 118)]), st.data())
    def test_powers(self, q, data):
        f = PrimeField(q)
        pts = data.draw(st.lists(st.one_of(st.integers(0, 3 * q), st.sampled_from([0, 1, q, q + 1])), max_size=8))
        exps = data.draw(st.lists(st.integers(0, 40), max_size=12)
                         | st.lists(st.integers(0, 12), max_size=8).map(lambda es: sorted(set(es))))
        assert sdmm._powers(f, pts, exps) == tuple(map(tuple, oracle._suffix_rows(f, pts, exps)))

    # Decoded blocks against a fresh solve of the decode matrix, past 2^64 and at 2^118.
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(1, 1, 1, 1), (2, 2, 2, 1), (3, 2, 2, 1), (2, 2, 3, 2), (4, 4, 4, 2)]),
           st.sampled_from([2, 65537, 2 ** 64, 2 ** 118]), st.integers(0, 10**6))
    def test_decode(self, params, base_q, seed):
        t = construct(GaspParams(*params))
        rng = random.Random(seed)
        try:
            inst = build_instance(rand_matrix(rng, 2 * t.K, 3, 1 << 20), rand_matrix(rng, 3, t.L, 1 << 20), t,
                                  base_q=base_q, seed=seed)
        except DomainError:
            return  # the smallest fields have no usable points for some tables and seeds
        res = decode(inst)
        assert res.blocks == oracle.decode(inst)
        assert res.product == plain_product(inst)

    # Every 11 of GF(13)'s 12 nonzero points hold five pairs x, -x, each of which
    # makes the alpha block (x^4, x^6) singular, and 50 distinct subsets of the 55
    # always include one: GASP(2,2,2,1) at the default base_q refuses on every seed.
    def test_points_on_a_run_of_seeds(self):
        t = construct(GaspParams(2, 2, 2, 1))
        outcomes = [_outcome(choose_field_and_points, t, seed=s) for s in range(40)]
        assert outcomes[:20] == [_outcome(oracle.choose_field_and_points, t, seed=s) for s in range(20)]
        assert set(outcomes) == {"no usable evaluation points after 64 attempts over GF(13); retry with a larger base_q"}

    # At C(N,T) == SELECTION_SAMPLES every subset is checked; one below, the
    # subsets are sampled from the shared RNG.
    @pytest.mark.parametrize("params", [(2, 2, 2, 1), (3, 2, 2, 1)])
    @pytest.mark.parametrize("below", [0, 1])
    def test_points_at_the_enumeration_boundary(self, monkeypatch, params, below):
        t = construct(GaspParams(*params))
        samples = math.comb(n_of_r(GaspParams(*params)), t.T) - below
        monkeypatch.setattr(sdmm, "SELECTION_SAMPLES", samples)
        for seed in range(8):
            assert _outcome(choose_field_and_points, t, seed=seed) == _outcome(
                oracle.choose_field_and_points, t, seed=seed, selection_samples=samples)

    @pytest.mark.parametrize("below", [0, 1])
    def test_audit_at_the_enumeration_boundary(self, monkeypatch, below):
        inst = build_instance(((1,), (2,)), ((3, 4),), construct(GaspParams(2, 2, 3, 2)), seed=3)
        total = math.comb(inst.n_servers, 3)
        monkeypatch.setattr(sdmm, "EXHAUSTIVE_SUBSET_LIMIT", total - below)
        monkeypatch.setattr(oracle, "EXHAUSTIVE_SUBSET_LIMIT", total - below)
        with _sampling(40):
            rep = security_check(inst, seed=1)
            assert rep == oracle.security_check(inst, seed=1)
        assert rep.exhaustive == (below == 0)
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        monkeypatch.setattr(sdmm, "MAX_EXHAUSTIVE_SUBSETS", total - below)
        if below:
            with pytest.raises(DomainError, match="exhaustive audit would check"):
                security_check(inst, mode="all")
        else:
            assert security_check(inst, mode="all") == oracle.security_check(inst, mode="all")

    # Points are drawn freely from a small field, repeats allowed, so many
    # audits leak on one side or both.
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(1, 1, 1, 1), (2, 1, 2, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 3, 2),
                            (3, 1, 3, 1)]),
           st.sampled_from([5, 13, 43]), st.sampled_from(["all", "auto", "sampled"]),
           st.integers(1, 300), st.integers(0, 10**6), st.data())
    def test_security_reports(self, params, q, mode, sample_size, seed, data):
        t = construct(GaspParams(*params))
        n = count_distinct(t)
        pts = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        inst = SdmmInstance(
            field=PrimeField(q), dims=(1, 1, 1), table=t, a_mat=((1,),), b_mat=((1,),),
            r_masks=(), s_masks=(), points=tuple(pts), shares=(), responses=(),
        )
        with _sampling(sample_size):
            assert security_check(inst, mode=mode, seed=seed) == oracle.security_check(inst, mode=mode, seed=seed)

    def test_sampled_report_with_leaks(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        with _sampling(3000):
            rep = security_check(inst, mode="sampled", seed=5)
            assert rep == oracle.security_check(inst, mode="sampled", seed=5)
        assert rep.failures

    # The default 4^3 audit, every one of its 58,905 subsets through the DFS and
    # its pair level, against the oracle's test of each subset: over GF(43) and
    # GF(53) the alpha side leaks on over a thousand subsets.
    @pytest.mark.parametrize("base_q, q, leaks", [(2, 43, 1164), (53, 53, 1386)])
    def test_exhaustive_report_at_4_cubed(self, base_q, q, leaks):
        inst = build_instance(((1,),) * 4, ((1,) * 4,), T442, base_q=base_q, seed=1)
        rep = security_check(inst)
        assert (inst.field.q, rep.exhaustive, rep.checked, len(rep.failures)) == (q, True, 58_905, leaks)
        assert rep.exhaustive == (rep.checked == rep.total_subsets)
        assert rep == oracle.security_check(inst)

    # Every GASP table with at most 1,500 T-subsets.  It holds AP suffixes
    # with step 1 (r >= T), step K (r = 1) and T = 1, and gappy alpha
    # suffixes such as (3, 4, 6) that go through the prefix DFS.
    AUDITED = [
        p for p in ((K, L, T, r) for K in range(1, 5) for L in range(1, K + 1)
                    for T in range(1, 5) for r in range(1, min(K, T) + 1))
        if math.comb(n_of_r(GaspParams(*p)), p[2]) <= 1500
    ]

    def test_audited_tables_cover_every_path(self):
        suffixes = [construct(GaspParams(*p)).alpha_s for p in self.AUDITED]
        steps = [{b - a for a, b in zip(s, s[1:])} for s in suffixes]
        assert any(len(s) == 1 for s in suffixes)
        assert any(st_ == {1} for st_ in steps)
        assert any(len(st_) == 1 and st_ != {1} for st_ in steps)
        assert any(len(st_) > 1 for st_ in steps)

    # Points are drawn from [0, 2q], so zero points (0, q, 2q), repeated
    # points and unreduced ones all occur, and with them the elimination path
    # on sides that would otherwise be proved clean.
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(AUDITED), st.sampled_from([5, 13, 43]),
           st.sampled_from(["all", "auto", "sampled"]), st.integers(1, 300),
           st.integers(0, 10**6), st.data())
    def test_audit_paths(self, params, q, mode, sample_size, seed, data):
        t = construct(GaspParams(*params))
        n = count_distinct(t)
        pts = data.draw(st.lists(st.integers(0, 2 * q), min_size=n, max_size=n))
        inst = SdmmInstance(
            field=PrimeField(q), dims=(1, 1, 1), table=t, a_mat=((1,),), b_mat=((1,),),
            r_masks=(), s_masks=(), points=tuple(pts), shares=(), responses=(),
        )
        with _sampling(sample_size):
            assert security_check(inst, mode=mode, seed=seed) == oracle.security_check(inst, mode=mode, seed=seed)

    # 8^3 tables whose alpha suffix is not an arithmetic progression (1 < r < T),
    # over small fields where many blocks are singular.  A sampled audit runs
    # the elimination on packed T x T blocks of each drawn subset; an exhaustive
    # one, over the first few servers, walks every subset.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 7), st.sampled_from([11, 13, 43, 101]), st.sampled_from(["all", "sampled"]),
           st.integers(1, 400), st.integers(0, 10**6), st.data())
    def test_gappy_alpha_side_at_8_cubed(self, r, q, mode, sample_size, seed, data):
        t = construct(GaspParams(8, 8, 8, r))
        assert len({b - a for a, b in zip(t.alpha_s, t.alpha_s[1:])}) > 1
        n = count_distinct(t) if mode == "sampled" else data.draw(st.integers(8, 11))
        pts = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        inst = SdmmInstance(
            field=PrimeField(q), dims=(1, 1, 1), table=t, a_mat=((1,),), b_mat=((1,),),
            r_masks=(), s_masks=(), points=tuple(pts), shares=(), responses=(),
        )
        with _sampling(sample_size):
            assert security_check(inst, mode=mode, seed=seed) == oracle.security_check(inst, mode=mode, seed=seed)

    @pytest.mark.parametrize("params", [(2, 2, 2, 2), (4, 4, 2, 2), (3, 1, 3, 1), (3, 2, 3, 2)])
    @pytest.mark.parametrize("edit", ["zero", "q", "repeat"])
    @pytest.mark.parametrize("mode", ["all", "auto", "sampled"])
    def test_zero_or_repeated_point(self, params, edit, mode):
        t = construct(GaspParams(*params))
        inst = build_instance(((1,),) * t.K, ((1,) * t.L,), t, base_q=101, seed=1)
        pts = list(inst.points)
        if edit == "repeat":
            pts[1] = pts[0]
        else:
            pts[2] = 0 if edit == "zero" else inst.field.q
        bad = dataclasses.replace(inst, points=tuple(pts))
        # The clean instance's beta side is proved clean; the edited one is not.
        assert sdmm._mask_side(inst.field, inst.points, t.beta_s, 40) is None
        assert sdmm._mask_side(bad.field, bad.points, t.beta_s, 40) is not None
        with _sampling(40):
            rep = security_check(bad, mode=mode, seed=2)
            assert rep == oracle.security_check(bad, mode=mode, seed=2)
        # A zero row sinks every block it enters; a repeated pair sinks only
        # the subsets holding both, which a sample may miss.
        if rep.exhaustive or edit != "repeat":
            assert rep.failures

    # Tables at r = 1 and r = T, whose mask sides are all progressions (alpha
    # steps by K or 1, beta by 1).  Over small fields their points repeat an
    # x^d, so no side is proved clean and the exhaustive audit lists each one
    # by the DFS on its powers; a zero point sends a side there too.
    PROGRESSIONS = [p for p in AUDITED if p[3] in (1, p[2])]

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(PROGRESSIONS), st.sampled_from([5, 7, 11, 13, 43]), st.sampled_from(["all", "auto"]),
           st.booleans(), st.data())
    def test_progression_sides_with_repeats(self, params, q, mode, zero, data):
        t = construct(GaspParams(*params))
        n = count_distinct(t)
        pts = data.draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
        if zero:
            pts[data.draw(st.integers(0, n - 1))] = data.draw(st.sampled_from([0, q]))
        f = PrimeField(q)
        inst = SdmmInstance(
            field=f, dims=(1, 1, 1), table=t, a_mat=((1,),), b_mat=((1,),),
            r_masks=(), s_masks=(), points=tuple(pts), shares=(), responses=(),
        )
        rep = security_check(inst, mode=mode)
        assert rep == oracle.security_check(inst, mode=mode)
        assert rep.exhaustive and rep.exhaustive == (rep.checked == rep.total_subsets)
        for side, exps in (("alpha", t.alpha_s), ("beta", t.beta_s)):
            listed = oracle._dependent_subsets(q, oracle._suffix_rows(f, pts, exps), t.T)
            assert [s for s, leaked in rep.failures if leaked == side] == list(listed)

    # GASP(4,4,4, r=1) over GF(1009) at seed 0: the alpha side steps by K = 4,
    # and 4 divides 1008, so some of the 41 points share an x^4.  The
    # exhaustive audit's listing is every subset holding such a pair.
    def test_progression_side_with_repeats_at_4_cubed(self):
        t = construct(GaspParams(4, 4, 4, 1))
        inst = build_instance(((1,),) * 4, ((1,) * 4,), t, base_q=1009)
        assert sdmm._mask_side(inst.field, inst.points, t.beta_s, 0) is None
        y = [pow(x, 4, 1009) for x in inst.points]
        want = [(s, "alpha") for s in combinations(range(41), 4) if len({y[i] for i in s}) < 4]
        rep = security_check(inst, mode="all")
        assert (inst.field.q, rep.total_subsets, rep.checked, len(want)) == (1009, 101_270, 101_270, 741)
        assert rep.failures == tuple(want)

    # Its sampled twin, as `sdmm run --r 1 --q 1009 --security sampled` audits it: the
    # alpha side's blocks go to the block test, which fails exactly the 71 sampled
    # subsets that hold such a pair, in draw order, over any number of workers.
    def test_sampled_progression_side_with_repeats_at_4_cubed(self, monkeypatch):
        t = construct(GaspParams(4, 4, 4, 1))
        inst = build_instance(((1,),) * 4, ((1,) * 4,), t, base_q=1009)
        y = [pow(x, 4, 1009) for x in inst.points]
        drawn = _drawn(41, 4, 10_000, random.Random("security:0"))
        want = tuple((s, "alpha") for s in drawn if len({y[i] for i in s}) < 4)
        forks = _forks(monkeypatch)
        for workers in (1, 2, 3):
            _cpus(monkeypatch, workers)
            rep = security_check(inst, mode="sampled")
            assert (rep.total_subsets, rep.checked, len(rep.failures)) == (101_270, 10_000, 71)
            assert rep.failures == want and len(forks) == workers - 1
            forks.clear()


# Wide primes put the packed DFS columns in slots past 8 bytes: 16 bytes at
# 2^61 and 30 at 2^118, both read back through int.from_bytes.
WIDE_Q = (next_prime(2 ** 61), next_prime(2 ** 118))


def _drawn(n, t, samples, rng, distinct=True):
    """``samples`` sorted t-subsets of range(n) by the draw rule: getrandbits(bits(n))
    values below n go into a set until it holds t; a repeat is drawn again when ``distinct``."""
    drawn = []
    while len(drawn) < samples:
        sel = set()
        while len(sel) < t:
            if (x := rng.getrandbits(n.bit_length())) < n:
                sel.add(x)
        if not (distinct and tuple(sorted(sel)) in drawn):
            drawn.append(tuple(sorted(sel)))
    return drawn


def _points(data, q, n):
    """n points with zeros (0, q, 2q), repeats and unreduced values (at or past q)."""
    return data.draw(st.lists(st.integers(0, 2 * q) | st.sampled_from([0, 1, q - 1, q, q + 1, 2 * q]),
                              min_size=n, max_size=n))


class TestAuditKernels:
    """The audit's kernels: the draws against the draw rule, the dependent subsets
    against the reference DFS in the same order, and every block's verdict against
    plain elimination."""

    # Every n and t, past the enumeration limit, takes the one draw rule and leaves
    # the stream where the rule ends it.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300), st.data(), st.integers(1, 60), st.integers(0, 10**6))
    def test_draws(self, n, data, samples, seed):
        t = data.draw(st.integers(1, min(n, 14)))
        rng, ref = random.Random(seed), random.Random(seed)
        got = sdmm._subsets(n, t, samples, samples, rng)
        assert got == (None if math.comb(n, t) <= samples else _drawn(n, t, samples, ref))
        assert rng.getstate() == ref.getstate()

    # Each side of the sizes where random.sample switches from a pool to a set (n = 21
    # for t <= 5, 85 for 6 <= t <= 21), and the 8^3 and 12^3 audits' sizes: the draws
    # before the first repeat are the rule's with or without repeats drawn again.
    @pytest.mark.parametrize("n, t", [(21, 3), (22, 3), (21, 5), (22, 5), (85, 6), (86, 6), (85, 14), (86, 14),
                                      (122, 8), (246, 12)])
    @pytest.mark.parametrize("distinct", [True, False])
    def test_draws_at_the_branch_boundary(self, n, t, distinct):
        for seed in range(5):
            rng, ref = random.Random(f"security:{seed}"), random.Random(f"security:{seed}")
            got, want = sdmm._subsets(n, t, -1, 200, rng), _drawn(n, t, 200, ref, distinct)
            first = next((i for i, s in enumerate(want) if s in want[:i]), len(want))
            assert got[:first] == want[:first]
            assert not distinct or (got == want and rng.getstate() == ref.getstate())

    # The 8^3 and 12^3 audits' first 200 draws for seeds 0-4, as drawn before the
    # rule was the only one: those sizes already took it.
    def test_audit_draws_are_pinned(self):
        draws = [sdmm._subsets(n, t, -1, 200, random.Random(f"security:{s}"))
                 for n, t in ((122, 8), (246, 12)) for s in range(5)]
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()
        assert digest == "ff1f9cf96fa2d782272481a3addf3d20a495f6acd1b94f592f4de5b1b5695b9c"

    # From t - 2 rows on, the DFS pairs the rows left by the class of their dot
    # pair on the projective line.  Rows are drawn so that each case is common:
    # zero rows (multiples of q), which pair with every later row; repeats and
    # scaled copies, which share a class; and unit rows, whose second dot is
    # often 0, the class q.  Small fields read the inverses from a table when
    # there are at least q rows to key, wide ones call pow; entries come
    # unreduced too.
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([2, 3, 5, 13, 43, *WIDE_Q]), st.integers(1, 5), st.data())
    def test_dependent_subsets(self, q, t, data):
        n = data.draw(st.integers(0, 14))
        entry = st.sampled_from([0, 1, 2, q - 1, q, q + 1])
        entry = entry if q in WIDE_Q else entry | st.integers(0, 2 * q)
        rows = []
        for _ in range(n):
            kind = data.draw(st.sampled_from(["random", "zero", "scaled", "unit"]))
            if kind == "zero":
                rows.append([q * data.draw(st.integers(0, 2)) for _ in range(t)])
            elif kind == "scaled" and rows:
                c, row = data.draw(entry), data.draw(st.sampled_from(rows))
                rows.append([c * v for v in row])
            elif kind == "unit":
                j, c = data.draw(st.integers(0, t - 1)), data.draw(entry)
                rows.append([c * (k == j) for k in range(t)])
            else:
                rows.append(data.draw(st.lists(entry, min_size=t, max_size=t)))
        got = list(sdmm._dependent_subsets(q, rows, t))
        assert got == list(oracle._dependent_subsets(q, rows, t))

    # The pair level keys at most C(n, t - 1) rows, a (t - 2)-prefix and one row
    # after it, so it builds its table of q - 1 inverses only when q is at most
    # that, and otherwise inverts no more often than it keys a row.  At n = 12,
    # t = 10 that is 220 rows, where q = 1009 would cost a table of 1008.  The
    # levels above it invert one pivot per node with the same pow(v, -1, q),
    # called from `walk` itself, so those calls are not counted.
    @pytest.mark.parametrize("q, n, t", [(43, 12, 4), (1009, 12, 10), (WIDE_Q[0], 12, 5)])
    def test_pair_level_inverts_at_most_the_rows_it_keys(self, monkeypatch, q, n, t):
        inversions = []

        def counted(*args):
            if args[1] == -1 and sys._getframe(1).f_code.co_name != "walk":
                inversions.append(args[0])
            return pow(*args)

        monkeypatch.setattr(sdmm, "pow", counted, raising=False)
        rng = random.Random(q)
        rows = [[rng.randrange(q) for _ in range(t)] for _ in range(n)]
        assert list(sdmm._dependent_subsets(q, rows, t)) == list(oracle._dependent_subsets(q, rows, t))
        keyed = math.comb(n, t - 1)
        assert len(inversions) == q - 1 if q <= keyed else 0 < len(inversions) <= keyed

    # Exponents sorted with or without 0 (so e0 = 0 or e0 > 0), gappy or an
    # arithmetic progression, and unsorted with repeats.
    # A subset count on each side of the table rule: 0 never builds the 2q pivot
    # inverses, 10^6 builds them on a small q, never on WIDE_Q.  A side the
    # tester cannot prove clean is listed by the DFS on its powers, as the
    # exhaustive audit lists it, progressions with a repeated x^d included.
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 13, 43, *WIDE_Q]),
           st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True).map(sorted)
           | st.lists(st.integers(0, 12), min_size=1, max_size=4) | st.just([0, 2, 3]),
           st.integers(1, 9), st.sampled_from([0, 10 ** 6]), st.data())
    def test_block_verdicts(self, q, exps, n, count, data):
        f, t = PrimeField(q), len(exps)
        pts = _points(data, q, n)
        got, want = sdmm._mask_side(f, pts, exps, count), oracle._mask_side(f, pts, exps)
        assert (got is None) == (want is None)
        if got is not None:
            subsets = list(combinations(range(n), t))
            verdicts = [want[0](s) for s in subsets]
            assert [bool(got([s])) for s in subsets] == verdicts
            if subsets:  # a chunk is never empty
                assert got(subsets) == {b for b, v in enumerate(verdicts) if v}
            assert list(sdmm._dependent_subsets(q, sdmm._powers(f, pts, exps), t)) == list(want[1]())

    # T = 1 and T = 2 reach the block test only with a zero point, which rules
    # out the progression shortcut; T = 1 with e0 = 0 leaks nowhere.
    @pytest.mark.parametrize("exps", [(0, 2, 3), (1, 3, 4), (0, 1, 3, 7), (0,), (2,), (0, 5), (1, 4)])
    def test_block_verdicts_with_zero_points(self, exps):
        # e0 = 0: a zero point's row is (1, 0, ...); e0 > 0: it is zero.
        f = PrimeField(13)
        pts = (0, 1, 2, 3, 5, 13, 12, 2, 7)
        subsets = list(combinations(range(len(pts)), len(exps)))
        want = oracle._mask_side(f, pts, exps)
        for count in (0, 10 ** 6):
            got = sdmm._mask_side(f, pts, exps, count)
            verdicts = [bool(got([s])) for s in subsets]
            assert verdicts == [want[0](s) for s in subsets]
            assert got(subsets) == {b for b, v in enumerate(verdicts) if v}
            assert any(verdicts) and not all(verdicts) if exps != (0,) else not any(verdicts)
        listed = list(sdmm._dependent_subsets(f.q, sdmm._powers(f, pts, exps), len(exps)))
        assert listed == list(want[1]()) == [s for s, v in zip(subsets, verdicts) if v]

    # The batched block test against plain elimination, on the rows the audit
    # hands it after its free first step:
    # primes 2 to 13 (where pivot swaps and singular blocks are common) and 43, T = 1 to
    # 5, points with zeros, repeats and unreduced values, the pivot-inverse table
    # and pow, and batches from one block up.
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 43]),
           st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True).map(sorted),
           st.booleans(), st.integers(1, 40), st.data())
    def test_batched_block_test(self, q, exps, table, batch, data):
        f, t = PrimeField(q), len(exps)
        n = data.draw(st.integers(t, 10))
        pts = _points(data, q, n)
        subset = st.lists(st.integers(0, n - 1), min_size=t, max_size=t, unique=True).map(sorted).map(tuple)
        subsets = data.draw(st.lists(subset, min_size=batch, max_size=batch))
        rel = sdmm._powers(f, pts, [e - exps[0] for e in exps])
        packed, layout = field._lazy_pack(q, zip(rel), t, t)
        w = 8 * layout[3]
        qs = q * sum(1 << w * j for j in range(t))
        blocks = [[(packed[i] + qs - packed[s[0]]) >> w for i in s[1:]] for s in subsets]
        inverses = [q - pow(v, -1, q) if v % q else 0 for v in range(2 * q)] if table else None
        got = field._singular_many([list(col) for col in zip(*blocks)], layout, inverses)
        assert got == {b for b, s in enumerate(subsets) if not oracle.is_invertible(f, tuple(rel[i] for i in s))}

    # 2 * AUDIT_CHUNK + extra subsets span three chunks; the first and last hold a
    # repeated point, so both sides leak there.  Failures come in subset order,
    # alpha before beta, as the oracle's per-subset test finds them.
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, sdmm.AUDIT_CHUNK), st.data())
    def test_leaks_across_three_chunks(self, q, extra, data):
        f, t = PrimeField(q), T442
        pts = _points(data, q, count_distinct(t))
        pts[1] = pts[0]
        subset = st.lists(st.integers(0, len(pts) - 1), min_size=4, max_size=4, unique=True).map(sorted).map(tuple)
        middle = data.draw(st.lists(subset, min_size=2 * sdmm.AUDIT_CHUNK + extra - 2,
                                    max_size=2 * sdmm.AUDIT_CHUNK + extra - 2))
        subsets = [(0, 1, 2, 3), *middle, (0, 1, 4, 5)]
        sides = [(side, oracle._mask_side(f, pts, exps)) for side, exps in (("alpha", t.alpha_s), ("beta", t.beta_s))]
        want = [(s, side) for s in subsets for side, check in sides if check and check[0](s)]
        got = list(sdmm._leaks(f, pts, t, subsets))
        assert got == want
        assert got[:2] == [((0, 1, 2, 3), "alpha"), ((0, 1, 2, 3), "beta")]
        assert got[-2:] == [((0, 1, 4, 5), "alpha"), ((0, 1, 4, 5), "beta")]

    # The block's second pivot reduces to 158 = q + 1, the Barrett estimate one
    # short, so a table of only q inverses has no entry for it.
    def test_pivot_reduced_past_q(self, monkeypatch):
        f, pts, exps = PrimeField(157), (142, 36, 45, 82), (1, 2, 4, 7)
        real, read = sdmm._singular_many, []

        class Reads(list):
            def __getitem__(self, v):
                read.append(v)
                return super().__getitem__(v)

        monkeypatch.setattr(sdmm, "_singular_many", lambda rows, layout, inverses: real(rows, layout, Reads(inverses)))
        got, want = sdmm._mask_side(f, pts, exps, 10 ** 6), oracle._mask_side(f, pts, exps)
        assert want[0]((0, 1, 2, 3)) is False
        assert got([(0, 1, 2, 3)]) == set()
        assert read == [51, 158]

    # 2q <= count * (T - 1): at q = 331 and T = 12 the table pays from 61 subsets.
    @pytest.mark.parametrize("count, table", [(0, False), (60, False), (61, True), (10 ** 4, True)])
    def test_inverse_table_rule(self, count, table, monkeypatch):
        t = construct(GaspParams(12, 12, 12, 4))
        fld, pts = choose_field_and_points(t, seed=1)
        seen = []
        monkeypatch.setattr(sdmm, "_singular_many", lambda rows, layout, inverses: seen.append(inverses) or set())
        leaks = sdmm._mask_side(fld, pts, t.alpha_s, count)
        assert fld.q == 331 and not leaks([tuple(range(12))])
        assert (seen[0] is not None) is table
        if table:
            assert len(seen[0]) == 2 * fld.q and all((v * i + 1) % fld.q == 0 for i, v in enumerate(seen[0]) if i % fld.q)


def _cpus(monkeypatch, k):
    """Let the audit see ``k`` CPUs and fork a worker for every chunk."""
    monkeypatch.setattr(sdmm.os, "sched_getaffinity", lambda pid: set(range(k)))
    monkeypatch.setattr(sdmm, "MIN_WORKER_CHUNKS", 1)


def _forks(monkeypatch):
    """The list of os.fork calls, each passed through."""
    calls, real = [], os.fork
    monkeypatch.setattr(sdmm.os, "fork", lambda: calls.append(1) or real())
    return calls


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@functools.lru_cache(maxsize=None)
def _audited(n, r, seed, base_q=2):
    """A K = L = T = n instance whose sampled audit takes 10,000 subsets in 79 chunks."""
    inst = build_instance(((1,) * n,) * n, ((1,) * n,) * n, construct(GaspParams(n, n, n, r)), base_q=base_q, seed=seed)
    assert math.comb(inst.n_servers, n) > sdmm.EXHAUSTIVE_SUBSET_LIMIT
    return inst


class TestForkedAudit:
    """The sampled audit's chunks split over forked workers, one contiguous run each."""

    # Seed 0 gives the points `sdmm run` picks, and its pinned failure counts.
    @pytest.mark.parametrize("n, r, seed, leaks", [(8, 3, 0, 73), (8, 3, 5, None), (12, 4, 0, 34), (12, 4, 3, None)])
    def test_report_does_not_depend_on_workers(self, monkeypatch, n, r, seed, leaks):
        inst, reports = _audited(n, r, seed), []
        forks = _forks(monkeypatch)
        for workers in (1, 2, 3):
            _cpus(monkeypatch, workers)
            reports.append(security_check(inst, seed=seed))
            assert len(forks) == workers - 1
            forks.clear()
            _no_child_left()
        assert reports[0].checked == 10_000 and reports[1:] == reports[:1] * 2
        assert leaks is None or len(reports[0].failures) == leaks

    def test_wide_field(self, monkeypatch):
        inst = _audited(8, 3, 0, base_q=4611686018427388039)
        assert inst.field.q == 4611686018427388039
        reports = set()
        for workers in (1, 2, 3):
            _cpus(monkeypatch, workers)
            reports.add(security_check(inst, mode="sampled"))
        assert len(reports) == 1 and reports.pop().checked == 10_000

    # 79 chunks: over 3 workers the runs are chunks 0-25, 26-51 and 52-78, over 2
    # workers 0-38 and 39-78; at 40 chunks a worker there is one worker and no fork.
    @pytest.mark.parametrize("least, run0, forked", [(1, (0, 26), 2), (26, (0, 26), 2), (27, (0, 39), 1),
                                                     (40, (0, 79), 0)])
    def test_runs_are_whole_chunks(self, monkeypatch, least, run0, forked):
        inst, runs = _audited(8, 3, 0), []
        real = sdmm._in_workers
        monkeypatch.setattr(sdmm, "_in_workers", lambda test, n: real(lambda *run: runs.append(run) or test(*run), n))
        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sdmm, "MIN_WORKER_CHUNKS", least)
        forks = _forks(monkeypatch)
        assert len(security_check(inst).failures) == 73
        # The parent tests run 0 alone; the children test theirs.
        assert (runs, len(forks)) == ([run0], forked)

    def test_kernel_error_reaches_the_parent(self, monkeypatch):
        inst = _audited(8, 3, 0)
        _cpus(monkeypatch, 3)
        forks = _forks(monkeypatch)

        def broken(rows, layout, inverses):
            raise ArithmeticError("kernel fault")

        monkeypatch.setattr(sdmm, "_singular_many", broken)
        with pytest.raises(ArithmeticError, match="kernel fault"):
            security_check(inst)
        assert len(forks) == 2
        _no_child_left()

    def test_interrupt_at_a_fork_leaves_no_child(self, monkeypatch):
        # SIGINT lands in the parent just after the first fork: it is held until every child is listed,
        # so the KeyboardInterrupt that follows finds both children to kill and reap, and the mask is restored.
        inst, real, forks, mask = _audited(8, 3, 0), os.fork, [], signal.pthread_sigmask(signal.SIG_BLOCK, ())

        def fork_then_interrupt():
            if pid := real():
                forks.append(pid)
                os.kill(os.getpid(), signal.SIGINT)
            return pid

        _cpus(monkeypatch, 3)
        monkeypatch.setattr(sdmm.os, "fork", fork_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            security_check(inst)
        assert len(forks) == 2
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        _no_child_left()

    def test_children_hold_signals(self, monkeypatch):
        # A SIGINT sent to a child waits until it exits, so it still delivers: the parent tests only run 0.
        inst, want = self._fallback(monkeypatch)
        parent, real, tested = os.getpid(), sdmm._singular_many, []

        def child_interrupted(rows, layout, inverses):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGINT)
            else:
                tested.append(1)
            return real(rows, layout, inverses)

        monkeypatch.setattr(sdmm, "_singular_many", child_interrupted)
        assert security_check(inst) == want
        assert len(tested) == 26  # run 0 of 3: chunks 0-25 of the one leaking side
        _no_child_left()

    def _fallback(self, monkeypatch):
        """The audit's report with every child's result dropped, and the plain report."""
        inst = _audited(8, 3, 0)
        want = security_check(inst)
        _cpus(monkeypatch, 3)
        return inst, want

    def test_child_error_falls_back_to_the_parent(self, monkeypatch):
        inst, want = self._fallback(monkeypatch)
        parent, real, tested = os.getpid(), sdmm._singular_many, []

        def child_fails(rows, layout, inverses):
            if os.getpid() != parent:
                raise ArithmeticError("child fault")
            tested.append(1)
            return real(rows, layout, inverses)

        monkeypatch.setattr(sdmm, "_singular_many", child_fails)
        assert security_check(inst) == want
        assert len(tested) == 79  # the parent tested every chunk of the one leaking side
        _no_child_left()

    def test_short_payload_falls_back_to_the_parent(self, monkeypatch):
        inst, want = self._fallback(monkeypatch)
        real = open

        class Short:
            def __init__(self, fd, mode):
                self.f = real(fd, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:-1])

        monkeypatch.setattr(sdmm, "open", lambda fd, mode: Short(fd, mode) if mode == "wb" else real(fd, mode),
                            raising=False)
        assert security_check(inst) == want
        _no_child_left()

    def test_failed_fork_falls_back_to_the_parent(self, monkeypatch):
        inst, want = self._fallback(monkeypatch)
        calls = []

        def no_fork():
            calls.append(1)
            raise BlockingIOError("no processes left")

        monkeypatch.setattr(sdmm.os, "fork", no_fork)
        assert security_check(inst) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
    def test_serial_without_fork_or_affinity(self, monkeypatch, missing):
        inst, want = self._fallback(monkeypatch)
        forks = _forks(monkeypatch)
        monkeypatch.delattr(sdmm.os, missing)
        assert security_check(inst) == want
        assert not forks

    def test_serial_with_a_second_thread(self, monkeypatch):
        inst, want = self._fallback(monkeypatch)
        forks, done = _forks(monkeypatch), threading.Event()
        waiter = threading.Thread(target=done.wait)
        waiter.start()
        try:
            assert threading.active_count() > 1
            assert security_check(inst) == want
        finally:
            done.set()
            waiter.join()
        assert not forks

    def test_point_selection_and_dfs_stay_serial(self, monkeypatch):
        # Point selection's 50 subsets are one chunk, too few for a second worker; the 4^3 audit is the DFS.
        _cpus(monkeypatch, 3)
        forks = _forks(monkeypatch)
        _outcome(choose_field_and_points, construct(GaspParams(8, 8, 8, 3)))
        inst = build_instance(rand_matrix(random.Random(2), 8, 4), rand_matrix(random.Random(3), 4, 4), T442, seed=7)
        assert security_check(inst, mode="all").checked == 58905
        assert not forks
