"""End-to-end checks for the masked matrix multiplication protocol."""

import dataclasses
import math
import random
import re
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import protocol_oracles as oracle
from gasptables import (
    DomainError,
    GaspParams,
    PrimeField,
    SdmmInstance,
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

    def test_retry_exhaustion_reports_field(self):
        # GF(19) has no usable points for (3,2,2,1), so the one attempt fails.
        msg = r"no usable evaluation points after 1 attempts over GF\(19\); retry with a larger base_q"
        with pytest.raises(DomainError, match=msg):
            choose_field_and_points(construct(GaspParams(3, 2, 2, 1)), max_retries=1)

    # 2.5 used to raise a TypeError, and -1 and 0 reported "no usable points after -1 attempts".
    @pytest.mark.parametrize("retries", [2.5, -1, 0, True])
    def test_max_retries_must_be_positive(self, retries):
        with pytest.raises(DomainError, match=rf"max_retries must be at least 1, got {re.escape(repr(retries))}"):
            choose_field_and_points(T442, max_retries=retries)

    # 0 used to check no subset at all, and 2.5 was taken as given.
    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_selection_samples_must_be_positive(self, samples):
        with pytest.raises(DomainError, match=rf"selection_samples must be at least 1, got {re.escape(repr(samples))}"):
            choose_field_and_points(T222, base_q=13, selection_samples=samples)

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
        with pytest.raises(DomainError, match=r"GF\(19\)"):
            choose_field_and_points(t)
        fld, _ = choose_field_and_points(t, base_q=23)
        assert fld.q == 23


class TestEncodeDecode:
    def test_zero_masks_give_constant_shares(self):
        a = ((1, 2, 3), (4, 0, 1))
        b = ((2, 0), (1, 3), (0, 4))
        inst = build_instance(a, b, T111, zero_masks=True)
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
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T222)
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

    def test_mask_seed_changes_shares_not_product(self):
        a = ((1, 2), (3, 4))
        b = ((5, 6), (7, 8))
        base = build_instance(a, b, T222, seed=0)
        other = build_instance(a, b, T222, seed=0, mask_seed=99)
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
        inst = build_instance(rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 4), T222)
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


class TestSecurityCheck:
    def test_single_mask_always_secure(self):
        t = construct(GaspParams(2, 2, 1, 1))
        inst = build_instance(((1, 2), (3, 4)), ((5, 6), (7, 0)), t)
        rep = security_check(inst)
        # T = 1 subsets are 1x1 powers of nonzero points, always invertible.
        assert rep.total_subsets == inst.n_servers == 8
        assert rep.exhaustive and rep.ok
        assert rep.checked == 8
        assert rep.failures == ()

    def test_small_field_leaks_on_alpha_side(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        assert inst.field.q == 43
        rep = security_check(inst, mode="all")
        assert rep.exhaustive
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
        rep = security_check(inst, mode="sampled", sample_size=2000)
        assert not rep.exhaustive
        assert rep.checked == 2000
        assert rep.ok

    def test_sampled_mode_honors_sample_size(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        rep = security_check(inst, mode="sampled", sample_size=500)
        assert not rep.exhaustive
        assert rep.total_subsets == 58905
        assert rep.checked == 500
        # 500 distinct subsets.  Drawn with replacement, the 500 held 498
        # (the first repeat at draw 250) and also gave 15 failures.
        assert len(rep.failures) == 15
        assert rep == oracle.security_check(inst, mode="sampled", sample_size=500)
        assert not rep.ok

    @pytest.mark.parametrize("mode", ["all", "auto", "sampled"])
    @pytest.mark.parametrize("size", [0, -5, 2.5, True])
    def test_sample_size_must_be_positive(self, mode, size):
        inst = build_instance(((1,),), ((1,),), T111)
        with pytest.raises(DomainError, match=rf"sample_size must be at least 1, got {re.escape(repr(size))}"):
            security_check(inst, mode=mode, sample_size=size)

    @pytest.mark.parametrize("mode", ["auto", "sampled"])
    def test_sample_covering_every_subset_is_exhaustive(self, monkeypatch, mode):
        inst = build_instance(((1,),), ((1,),), T111)
        rep = security_check(inst, mode=mode, sample_size=10)
        assert (rep.total_subsets, rep.checked, rep.exhaustive, rep.ok) == (3, 3, True, True)
        # C(11, 2) = 55 subsets, with auto's own limit set below them.
        monkeypatch.setattr(sdmm, "EXHAUSTIVE_SUBSET_LIMIT", 10)
        inst = build_instance(((1,), (2,)), ((3, 4),), construct(GaspParams(2, 2, 2, 2)))
        below = security_check(inst, mode=mode, sample_size=54)
        assert (below.total_subsets, below.checked, below.exhaustive) == (55, 54, False)
        rep = security_check(inst, mode=mode, sample_size=55)
        assert (rep.checked, rep.exhaustive) == (55, True)
        assert rep == security_check(inst, mode="all")

    def test_sampled_subsets_are_distinct(self):
        # At GASP(4,4,4,2), 10,000 draws with replacement hold 9,189 distinct
        # subsets; redrawing each repeat keeps the draws before the first one.
        rng = random.Random("security:0")
        with_repeats = sdmm._subsets(36, 4, -1, 10_000, rng, distinct=False)
        drawn = sdmm._subsets(36, 4, -1, 10_000, random.Random("security:0"))
        assert len(set(with_repeats)) == 9189
        assert len(drawn) == len(set(drawn)) == 10_000
        first = next(i for i, s in enumerate(with_repeats) if s in with_repeats[:i])
        assert first == 250
        assert drawn[:first] == with_repeats[:first]
        assert all(list(s) == sorted(set(s)) and len(s) == 4 for s in drawn)

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
        rep = security_check(inst, mode="auto", sample_size=300)
        assert rep.total_subsets == math.comb(25, 9) == 2042975
        assert not rep.exhaustive
        assert rep.checked == 300
        assert rep.ok

    def test_sampled_is_seed_deterministic(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        first = security_check(inst, mode="sampled", sample_size=200, seed=9)
        again = security_check(inst, mode="sampled", sample_size=200, seed=9)
        assert first == again

    def test_exhaustive_audit_is_bounded(self):
        t = construct(GaspParams(2, 2, 12, 2))
        inst = build_instance(((1,), (2,)), ((3, 4),), t)
        assert inst.n_servers == 31
        total = math.comb(31, 12)
        assert total == 141120525 > MAX_EXHAUSTIVE_SUBSETS
        with pytest.raises(DomainError, match=rf"C\(31,12\) = {total} subsets"):
            security_check(inst, mode="all")
        assert security_check(inst, mode="auto", sample_size=20).checked == 20

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
    # GF(13) at (2,2,2,1) fails for about half the seeds, GF(19) at (3,2,2,1)
    # for nearly all; both sides must fail with the same message, and succeed
    # with the same points, which needs the same draws from the shared RNG.
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([(2, 2, 2, 1), (3, 2, 2, 1), (4, 4, 4, 2)]),
           st.integers(0, 10**6), st.sampled_from([2, 50]))
    def test_points(self, params, seed, samples):
        t = construct(GaspParams(*params))
        kw = dict(seed=seed, selection_samples=samples)
        assert _outcome(choose_field_and_points, t, **kw) == _outcome(
            oracle.choose_field_and_points, t, **kw)

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

    def test_points_on_a_run_of_seeds(self):
        t = construct(GaspParams(2, 2, 2, 1))
        outcomes = [_outcome(choose_field_and_points, t, seed=s) for s in range(20)]
        assert outcomes == [_outcome(oracle.choose_field_and_points, t, seed=s) for s in range(20)]
        assert 5 <= sum(isinstance(o, str) for o in outcomes) <= 15

    # At C(N,T) == selection_samples every subset is checked; one below, the
    # subsets are sampled from the shared RNG.
    @pytest.mark.parametrize("params", [(2, 2, 2, 1), (3, 2, 2, 1)])
    @pytest.mark.parametrize("below", [0, 1])
    def test_points_at_the_enumeration_boundary(self, params, below):
        t = construct(GaspParams(*params))
        samples = math.comb(n_of_r(GaspParams(*params)), t.T) - below
        for seed in range(8):
            kw = dict(seed=seed, selection_samples=samples)
            assert _outcome(choose_field_and_points, t, **kw) == _outcome(
                oracle.choose_field_and_points, t, **kw)

    @pytest.mark.parametrize("below", [0, 1])
    def test_audit_at_the_enumeration_boundary(self, monkeypatch, below):
        inst = build_instance(((1,), (2,)), ((3, 4),), construct(GaspParams(2, 2, 3, 2)), seed=3)
        total = math.comb(inst.n_servers, 3)
        monkeypatch.setattr(sdmm, "EXHAUSTIVE_SUBSET_LIMIT", total - below)
        monkeypatch.setattr(oracle, "EXHAUSTIVE_SUBSET_LIMIT", total - below)
        rep = security_check(inst, sample_size=40, seed=1)
        assert rep.exhaustive == (below == 0)
        assert rep == oracle.security_check(inst, sample_size=40, seed=1)
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
        kw = dict(mode=mode, sample_size=sample_size, seed=seed)
        assert security_check(inst, **kw) == oracle.security_check(inst, **kw)

    def test_sampled_report_with_leaks(self):
        rng = random.Random(2)
        inst = build_instance(rand_matrix(rng, 8, 4), rand_matrix(rng, 4, 4), T442, seed=7)
        rep = security_check(inst, mode="sampled", sample_size=3000, seed=5)
        assert rep.failures
        assert rep == oracle.security_check(inst, mode="sampled", sample_size=3000, seed=5)

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
        kw = dict(mode=mode, sample_size=sample_size, seed=seed)
        assert security_check(inst, **kw) == oracle.security_check(inst, **kw)

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
        kw = dict(mode=mode, sample_size=sample_size, seed=seed)
        assert security_check(inst, **kw) == oracle.security_check(inst, **kw)

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
        assert sdmm._mask_side(inst.field, inst.points, t.beta_s) is None
        assert sdmm._mask_side(bad.field, bad.points, t.beta_s) is not None
        rep = security_check(bad, mode=mode, sample_size=40, seed=2)
        assert rep == oracle.security_check(bad, mode=mode, sample_size=40, seed=2)
        # A zero row sinks every block it enters; a repeated pair sinks only
        # the subsets holding both, which a sample may miss.
        if rep.exhaustive or edit != "repeat":
            assert rep.failures
