"""Gap squeezing, transforms, and canonical forms."""

import dataclasses
import random
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gasptables import (
    DegreeTable,
    sumset,
    DomainError,
    EquivalenceTransform,
    apply_transform,
    canonical,
    construct,
    count_distinct,
    GaspParams,
    is_normal,
    negate,
    normal,
    squeeze,
    transpose,
)
from gasptables import equivalence
from gasptables.equivalence import SqueezeStep, squeeze_step
from table_oracles import _lex_key
import table_oracles as oracle


def table(K, L, T, ap, as_, bp, bs):
    return DegreeTable(K=K, L=L, T=T, alpha_p=tuple(ap), alpha_s=tuple(as_),
                       beta_p=tuple(bp), beta_s=tuple(bs))


# A 2x2, T=2 table with one oversized alpha gap, and its fully squeezed form.
GAPPY = table(2, 2, 2, (0, 1), (9, 10), (0, 2), (4, 5))
SQUEEZED = table(2, 2, 2, (0, 1), (7, 8), (0, 2), (4, 5))

# An unsorted, shifted, doubled table and its normal and canonical forms.
MESSY = table(3, 2, 1, (19, 21, 1), (9,), (2, 6), (10,))
MESSY_NORMAL = table(3, 2, 1, (0, 9, 10), (4,), (0, 2), (4,))
MESSY_CANONICAL = table(3, 2, 1, (0, 1, 10), (6,), (2, 4), (0,))

# The four distinct-entry-minimal normal tables at K = L = 2, T = 5 (N = 17).
OPT_A = table(2, 2, 5, (6, 8), (0, 1, 2, 3, 4), (7, 8), (0, 1, 2, 3, 4))
OPT_B = table(2, 2, 5, (7, 8), (0, 1, 2, 3, 4), (6, 8), (0, 1, 2, 3, 4))
OPT_C = table(2, 2, 5, (0, 1), (4, 5, 6, 7, 8), (0, 2), (4, 5, 6, 7, 8))
OPT_D = table(2, 2, 5, (0, 2), (4, 5, 6, 7, 8), (0, 1), (4, 5, 6, 7, 8))


def n_of(t):
    """Distinct-entry count without the validity gate (random tables
    here are rarely D1/D3-valid, and the invariants hold regardless)."""
    return len(sumset(t.alpha, t.beta))


def random_table(rng, max_dim=3, max_entry=12):
    K = rng.randint(1, max_dim)
    L = rng.randint(1, max_dim)
    T = rng.randint(1, max_dim)
    draw = lambda n: tuple(rng.randint(0, max_entry) for _ in range(n))
    return table(K, L, T, draw(K), draw(T), draw(L), draw(T))


class TestSqueeze:
    def test_single_alpha_step(self):
        got = squeeze_step(GAPPY)
        assert got is not None
        new, step = got
        assert new.alpha == (0, 1, 7, 8)
        assert new.beta == GAPPY.beta
        assert step.kind == "alpha_op"
        assert step.index == 1
        assert step.threshold == 1
        assert step.affected == (2, 3)
        assert step.by == 2

    def test_single_beta_step_on_transpose(self):
        half = table(2, 2, 2, (0, 2), (4, 5), (0, 1), (8, 9))
        new, step = squeeze_step(half)
        assert step.kind == "beta_op" and step.by == 1
        assert new.beta == (0, 1, 7, 8)
        assert new.alpha == half.alpha

    def test_full_squeeze(self):
        out, steps = squeeze(GAPPY)
        assert out == SQUEEZED
        assert steps == (SqueezeStep(kind="alpha_op", index=1, threshold=1, affected=(2, 3), by=2),)

    def test_squeezed_is_fixed_point(self):
        assert squeeze_step(SQUEEZED) is None
        out, steps = squeeze(SQUEEZED)
        assert out == SQUEEZED and steps == ()

    # A gap of g took g - 2 unit steps, and at 10**9 hours and gigabytes.
    @pytest.mark.parametrize("gap", [100, 10**9])
    def test_long_gap_closes_in_one_step(self, gap):
        t = table(1, 1, 1, (0,), (gap,), (0,), (1,))
        out, steps = squeeze(t)
        assert out.alpha == (0, 2)
        assert steps == (SqueezeStep(kind="alpha_op", index=0, threshold=0, affected=(1,), by=gap - 2),)

    def test_preserves_distinct_count(self):
        rng = random.Random(404)
        for _ in range(200):
            t = random_table(rng, max_entry=40)
            out, _ = squeeze(t)
            assert n_of(out) == n_of(t)

    def test_commutes_with_transpose(self):
        rng = random.Random(405)
        for _ in range(200):
            t = random_table(rng, max_entry=40)
            a = transpose(squeeze(t)[0])
            b = squeeze(transpose(t))[0]
            assert a == b

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(oracle.tables(st.integers(0, 40)), oracle.tables(st.integers(0, 6))))
    def test_each_step_matches_oracle(self, t):
        # The oracle slides one unit per step: squeeze reaches the same fixpoint,
        # and its trace is the run-length encoding of the oracle's, beta_op steps included.
        want, units = t, []
        while (nxt := oracle.squeeze_step(want)) is not None:
            want, unit = nxt
            units.append(unit)
        runs = tuple(dataclasses.replace(unit, by=len(list(run))) for unit, run in groupby(units))
        assert squeeze(t) == (want, runs)

    def test_gasp_tables_are_already_squeezed(self):
        for K in range(1, 7):
            for L in range(1, K + 1):
                for T in range(1, 7):
                    for r in range(1, min(K, T) + 1):
                        t = construct(GaspParams(K, L, T, r))
                        assert squeeze_step(t) is None, (K, L, T, r)


class TestApplyTransform:
    def test_identity(self):
        assert apply_transform(MESSY, EquivalenceTransform()) == MESSY

    def test_permutes_blocks(self):
        tf = EquivalenceTransform(perm_alpha_p=(2, 0, 1))
        got = apply_transform(MESSY, tf)
        assert got.alpha_p == (1, 19, 21)
        assert got.alpha_s == MESSY.alpha_s

    def test_shift_and_scale(self):
        tf = EquivalenceTransform(scale=2, shift_alpha=1, shift_beta=0)
        got = apply_transform(GAPPY, tf)
        assert got.alpha_p == (2, 4)
        assert got.beta_s == (8, 10)

    def test_negative_scale_with_reflecting_shifts(self):
        # scale -1 with shift -max(side) reflects each side; entry sums stay
        # affine in the originals, so the count is untouched.
        tf = EquivalenceTransform(scale=-1, shift_alpha=-10, shift_beta=-5)
        got = apply_transform(GAPPY, tf)
        assert got.alpha == (10, 9, 1, 0)
        assert got.beta == (5, 3, 1, 0)
        assert count_distinct(got) == count_distinct(GAPPY)

    def test_zero_scale_rejected(self):
        with pytest.raises(DomainError, match="scale must be nonzero"):
            apply_transform(GAPPY, EquivalenceTransform(scale=0))

    def test_fractional_result_rejected(self):
        from fractions import Fraction
        tf = EquivalenceTransform(scale=Fraction(1, 2))
        with pytest.raises(DomainError, match="non-integer or negative"):
            apply_transform(GAPPY, tf)

    def test_negative_result_rejected(self):
        with pytest.raises(DomainError, match="non-integer or negative"):
            apply_transform(GAPPY, EquivalenceTransform(shift_alpha=-1))

    @pytest.mark.parametrize("field, value", [
        ("scale", 0.1), ("scale", 0.5), ("scale", "1/2"), ("scale", True),
        ("shift_alpha", "x"), ("shift_beta", float("nan")),
    ])
    def test_inexact_scale_or_shift_refused(self, field, value):
        # Floats, strings and bools are refused before any entry is mapped,
        # with a DomainError naming the argument, as costmodel refuses floats.
        tf = EquivalenceTransform(**{field: value})
        with pytest.raises(DomainError, match=f"^{field} must be an exact rational, got "):
            apply_transform(GAPPY, tf)

    def test_bad_permutation_rejected(self):
        tf = EquivalenceTransform(perm_beta_p=(0, 0))
        with pytest.raises(DomainError, match="not a permutation"):
            apply_transform(GAPPY, tf)

    def test_preserves_distinct_count(self):
        rng = random.Random(77)
        for _ in range(150):
            t = random_table(rng)
            perm = lambda n: tuple(rng.sample(range(n), n))
            tf = EquivalenceTransform(
                scale=rng.choice((1, 2, 3)),
                shift_alpha=rng.randint(0, 4),
                shift_beta=rng.randint(0, 4),
                perm_alpha_p=perm(t.K),
                perm_alpha_s=perm(t.T),
                perm_beta_p=perm(t.L),
                perm_beta_s=perm(t.T),
            )
            assert n_of(apply_transform(t, tf)) == n_of(t)


def _outcome(f, *args):
    """f(*args), or the message of the DomainError it raises."""
    try:
        return f(*args)
    except DomainError as e:
        return str(e)


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=6)


@st.composite
def exact_transforms(draw):
    """A table with entries d * w + offset per side, and the transform with
    scale +-k/d and shifts that map it onto +-k * w, reflected through each
    side's maximum when the scale is negative: every entry lands on a
    nonnegative integer."""
    w = draw(st.one_of(oracle.tables(), oracle.tables(st.integers(0, 2**70))))
    d, k, oa, ob = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(0, 9)), draw(st.integers(0, 9))
    sign = draw(st.sampled_from((1, -1)))
    t = DegreeTable(w.K, w.L, w.T, *(tuple(d * v + o for v in b) for b, o in (
        (w.alpha_p, oa), (w.alpha_s, oa), (w.beta_p, ob), (w.beta_s, ob))))
    reflect_a, reflect_b = (0, 0) if sign == 1 else (d * max(w.alpha), d * max(w.beta))
    return t, EquivalenceTransform(Fraction(sign * k, d), -oa - reflect_a, -ob - reflect_b)


@st.composite
def drawn_transforms(draw):
    """A table and a transform with arbitrary rational scale and shifts (zero
    scale included); most are rejected somewhere."""
    t = draw(oracle.tables())
    return t, EquivalenceTransform(draw(RATIONALS), draw(RATIONALS), draw(RATIONALS))


@settings(max_examples=400, deadline=None)
@given(st.one_of(exact_transforms(), drawn_transforms()), st.data())
def test_apply_transform_matches_fraction_oracle(pair, data):
    t, tf = pair
    perms = {name: data.draw(st.permutations(range(n))) if data.draw(st.booleans()) else None
             for name, n in (("perm_alpha_p", t.K), ("perm_alpha_s", t.T),
                             ("perm_beta_p", t.L), ("perm_beta_s", t.T))}
    tf = dataclasses.replace(tf, **{k: v and tuple(v) for k, v in perms.items()})
    assert _outcome(apply_transform, t, tf) == _outcome(oracle.apply_transform, t, tf)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    oracle.tables(),
    oracle.tables(st.integers(0, 3)),
    oracle.tables(st.integers(0, 2**70)),
    oracle.tables(st.sampled_from((0, 6, 12, 2**65 * 3))),
    oracle.repeated_tables(),
))
def test_normal_and_negate_match_hand_written_oracles(t):
    # Drawn blocks are unsorted, repeat entries and hold zeros; the sampled
    # entries share a gcd past 2^64.
    assert normal(t) == oracle.normal(t)
    assert negate(t) == oracle.negate(t)


def test_normal_and_negate_are_transforms(monkeypatch):
    calls = []
    real = equivalence.apply_transform
    monkeypatch.setattr(equivalence, "apply_transform", lambda t, tf: calls.append(tf) or real(t, tf))
    assert normal(MESSY) == MESSY_NORMAL
    assert negate(MESSY_NORMAL) == table(3, 2, 1, (10, 1, 0), (6,), (10, 8), (6,))
    assert calls == [
        EquivalenceTransform(Fraction(1, 2), -1, -2, (2, 0, 1), (0,), (0, 1), (0,)),
        EquivalenceTransform(-1, -10, -10),
    ]


def test_transpose_swaps_sides():
    got = transpose(MESSY)
    assert (got.K, got.L) == (2, 3)
    assert got.alpha_p == MESSY.beta_p and got.beta_s == MESSY.alpha_s
    assert transpose(got) == MESSY
    assert count_distinct(got) == count_distinct(MESSY)


class TestNormal:
    def test_sorts_shifts_and_divides(self):
        assert normal(MESSY) == MESSY_NORMAL

    def test_divides_by_joint_gcd(self):
        t = table(1, 1, 1, (0,), (2,), (0,), (4,))
        got = normal(t)
        assert got.alpha == (0, 1) and got.beta == (0, 2)

    def test_gcd_spans_both_sides(self):
        # alpha alone has gcd 2 but beta contributes an odd entry, so no
        # division happens.
        t = table(1, 1, 1, (0,), (2,), (0,), (3,))
        assert normal(t) == t

    def test_idempotent(self):
        rng = random.Random(9)
        for _ in range(100):
            t = random_table(rng)
            n = normal(t)
            assert normal(n) == n
            assert is_normal(n)
            assert n_of(n) == n_of(t)

    def test_all_zero_table_unchanged(self):
        z = table(1, 1, 1, (0,), (0,), (0,), (0,))
        assert normal(z) == z

    def test_is_normal_spot_checks(self):
        assert is_normal(MESSY_NORMAL)
        assert not is_normal(MESSY)
        assert not is_normal(table(1, 1, 1, (0,), (2,), (0,), (4,)))
        assert not is_normal(table(1, 1, 1, (1,), (2,), (0,), (1,)))

    @settings(max_examples=300, deadline=None)
    @given(oracle.tables(), st.sampled_from(["drawn", "normal", "shifted", "scaled"]),
           st.integers(1, 5))
    def test_is_normal_matches_oracle(self, t, form, k):
        # Drawn tables are mostly unsorted; a normal table shifted on one
        # side or scaled by k + 1 keeps its order and loses normality.
        if form != "drawn":
            t = normal(t)
        if form == "shifted":
            t = dataclasses.replace(t, beta_p=tuple(v + k for v in t.beta_p),
                                    beta_s=tuple(v + k for v in t.beta_s))
        elif form == "scaled":
            t = table(t.K, t.L, t.T, *(tuple(v * (k + 1) for v in b)
                                       for b in (t.alpha_p, t.alpha_s, t.beta_p, t.beta_s)))
        assert is_normal(t) == oracle.is_normal(t)

    @pytest.mark.parametrize("blocks,want", [
        (((1,), (0,), (0,), (1,)), True),     # 0 only in the suffix block
        (((0, 2), (4, 6), (0, 4), (6, 8)), False),
        (((0, 2), (4, 6), (0, 4), (6, 9)), True),   # gcd 1 only with the last entry
        (((0, 0), (0, 0), (0,), (0, 0)), True),
        (((0, 1), (3, 2), (0,), (1, 2)), False),
    ])
    def test_is_normal_block_cases(self, blocks, want):
        t = table(len(blocks[0]), len(blocks[2]), len(blocks[1]), *blocks)
        assert is_normal(t) is oracle.is_normal(t) is want

    def test_gasp_tables_are_normal(self):
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    assert is_normal(construct(GaspParams(K, L, T, 1)))


class TestNegate:
    def test_reflects_through_global_max(self):
        got = negate(MESSY_NORMAL)
        assert got.alpha_p == (10, 1, 0)
        assert got.alpha_s == (6,)
        assert got.beta_p == (10, 8)
        assert got.beta_s == (6,)

    def test_preserves_distinct_count(self):
        rng = random.Random(31)
        for _ in range(100):
            t = random_table(rng)
            assert n_of(negate(t)) == n_of(t)

    def test_involution(self):
        # Reflecting twice restores the table whenever some entry is 0, which
        # normalized tables always satisfy.
        assert negate(negate(MESSY_NORMAL)) == MESSY_NORMAL


class TestCanonical:
    def test_picks_lex_smaller_branch(self):
        assert canonical(MESSY) == MESSY_CANONICAL

    def test_idempotent_and_negate_invariant(self):
        rng = random.Random(55)
        for _ in range(100):
            t = random_table(rng)
            c = canonical(t)
            assert canonical(c) == c
            assert canonical(negate(t)) == c
            assert n_of(c) == n_of(t)

    def test_optimal_tables_pair_up(self):
        # The four minimal tables at K=L=2, T=5 fall into two classes under
        # shift/scale/permutation/negation, linked across by transposition.
        assert normal(negate(OPT_B)) == OPT_C
        assert normal(negate(OPT_A)) == OPT_D
        assert transpose(OPT_C) == OPT_D
        assert canonical(OPT_A) == canonical(OPT_D)
        assert canonical(OPT_B) == canonical(OPT_C)
        assert canonical(OPT_A) != canonical(OPT_B)
        assert canonical(transpose(OPT_A)) == canonical(OPT_B)

    def test_all_four_have_n_17(self):
        for t in (OPT_A, OPT_B, OPT_C, OPT_D):
            assert count_distinct(t) == 17
            assert is_normal(t)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        oracle.tables(),
        oracle.tables(st.integers(0, 3)),
        oracle.tables(st.integers(0, 10**15)),
        oracle.tables(st.sampled_from((0, 6, 12, 18))),
        oracle.colliding_tables(),
    ))
    def test_equals_oracle(self, t):
        assert canonical(t) == oracle.canonical(t)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(oracle.tables(), oracle.tables(st.integers(0, 10**15))))
    def test_equals_oracle_where_the_negated_branch_wins(self, t):
        n = normal(t)
        if oracle.canonical(n) == n:
            t = negate(n)
        assume(oracle.canonical(t) != normal(t))
        assert canonical(t) == oracle.canonical(t)

    @settings(max_examples=200, deadline=None)
    @given(oracle.mirrored_tables())
    def test_equals_oracle_where_the_keys_tie(self, t):
        n = normal(t)
        assert _lex_key(normal(negate(n))) == _lex_key(n)
        assert canonical(t) == oracle.canonical(t) == n

    def test_equals_oracle_on_gasp_tables_and_negations(self):
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    for r in range(1, min(K, T) + 1):
                        t = construct(GaspParams(K, L, T, r))
                        for u in (t, negate(t), transpose(t)):
                            assert canonical(u) == oracle.canonical(u)

    @pytest.mark.parametrize("t", [
        table(1, 1, 1, (0,), (0,), (0,), (0,)),
        table(2, 1, 2, (5, 5), (5, 5), (7,), (7, 7)),
        MESSY, GAPPY, OPT_A, OPT_B, OPT_C, OPT_D,
    ])
    def test_equals_oracle_on_fixed_tables(self, t):
        assert canonical(t) == oracle.canonical(t)

    def test_normal_input_skips_normal(self, monkeypatch):
        import gasptables.equivalence as equivalence

        def refuse(_):
            raise AssertionError("normal() called on a normal table")

        t, expect = normal(MESSY), canonical(MESSY)
        monkeypatch.setattr(equivalence, "normal", refuse)
        assert is_normal(t)
        assert canonical(t) == expect
        with pytest.raises(AssertionError):
            canonical(MESSY)
