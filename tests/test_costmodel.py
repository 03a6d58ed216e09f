"""Upload/download accounting for the two partitioning strategies."""

import random
from fractions import Fraction

import pytest

from gasptables import CostExponents, DomainError, asymptotic_compare, concrete_costs


def exponents(e_a, e_b, e_c, e_k, e_l, e_m):
    return CostExponents(e_a, e_b, e_c, e_k, e_l, e_m)


class TestCostExponents:
    def test_ints_coerce_to_fractions(self):
        e = exponents(2, 3, 2, 1, 1, 2)
        assert e.e_a == Fraction(2) and isinstance(e.e_a, Fraction)
        assert isinstance(e.e_m, Fraction)

    def test_fraction_inputs_kept_exact(self):
        e = exponents(Fraction(3, 2), 2, Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), 1)
        assert e.e_k == Fraction(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(DomainError, match="exact rationals, not floats"):
            exponents(1.5, 2, 2, 1, 1, 2)

    def test_non_rational_rejected(self):
        with pytest.raises(DomainError, match="not a rational"):
            exponents("2", 2, 2, 1, 1, 2)

    def test_negative_rejected(self):
        with pytest.raises(DomainError, match="e_b must be non-negative"):
            exponents(1, -1, 1, 0, 0, 0)

    @pytest.mark.parametrize(
        "args, msg",
        [
            ((1, 9, 1, 2, 1, 3), "e_k exceeds e_a"),
            ((1, 9, 1, 1, 2, 3), "e_l exceeds e_c"),
            ((2, 1, 2, 1, 1, 2), "e_m exceeds e_b"),
            ((2, 9, 2, 1, 1, 3), r"e_m must equal e_k \+ e_l"),
        ],
    )
    def test_structural_invariants(self, args, msg):
        with pytest.raises(DomainError, match=msg):
            exponents(*args)


class TestConcreteCosts:
    def test_hand_computed_square_case(self):
        rep = concrete_costs(4, 4, 4, K=2, L=2, M=4, n_outer=17, n_inner=9)
        assert rep.u_outer == 17 * (8 + 8) == 272
        assert rep.d_outer == 17 * 4 == 68
        assert rep.u_inner == 9 * 8 == 72
        assert rep.d_inner == 9 * 16 == 144
        assert rep.total_outer == 340
        assert rep.total_inner == 216

    def test_non_dividing_blocks_give_fractional_sizes(self):
        rep = concrete_costs(3, 1, 1, K=2, L=1, M=1, n_outer=1, n_inner=1)
        assert rep.u_outer == Fraction(5, 2)
        assert isinstance(rep.u_outer, Fraction)

    def test_download_ratio(self):
        rng = random.Random(3)
        for _ in range(50):
            a, b, c = (rng.randint(1, 9) for _ in range(3))
            K, L, M = (rng.randint(1, 4) for _ in range(3))
            n_o, n_i = rng.randint(1, 40), rng.randint(1, 40)
            rep = concrete_costs(a, b, c, K, L, M, n_o, n_i)
            assert rep.d_inner / rep.d_outer == Fraction(n_i * K * L, n_o)

    def test_unit_blocks_make_strategies_identical(self):
        rep = concrete_costs(5, 7, 3, K=1, L=1, M=1, n_outer=13, n_inner=13)
        assert rep.total_outer == rep.total_inner

    @pytest.mark.parametrize("field, value", [("a", 0), ("K", -2), ("N_I", 0)])
    def test_positive_integers_required(self, field, value):
        args = dict(a=2, b=2, c=2, K=1, L=1, M=1, n_outer=3, n_inner=3)
        args[{"a": "a", "K": "K", "N_I": "n_inner"}[field]] = value
        with pytest.raises(DomainError, match=f"{field} must be a positive integer"):
            concrete_costs(**args)

    def test_float_dimension_rejected(self):
        with pytest.raises(DomainError, match="b must be a positive integer"):
            concrete_costs(2, 2.0, 2, 1, 1, 1, 3, 3)

    def test_bool_dimension_rejected(self):
        with pytest.raises(DomainError, match="a must be a positive integer, got True"):
            concrete_costs(True, 1, 1, 1, 1, 1, 1, 1)


class TestAsymptoticCompare:
    def test_balanced_square_prefers_outer(self):
        out, inn, wins = asymptotic_compare(
            exponents(1, 1, 1, Fraction(1, 2), Fraction(1, 2), 1)
        )
        assert (out, inn, wins) == (Fraction(5, 2), Fraction(3), True)

    def test_heavy_shared_dimension_prefers_inner(self):
        out, inn, wins = asymptotic_compare(exponents(1, 5, 1, 1, 1, 2))
        assert (out, inn, wins) == (7, 6, False)

    def test_tie_goes_to_outer(self):
        out, inn, wins = asymptotic_compare(exponents(1, 2, 1, 1, 1, 2))
        assert out == inn == 4
        assert wins

    def test_degenerate_zero_exponents_break_the_predicate(self):
        # Exponents tie here, yet the side condition picks inner: with
        # e_k = e_l = 0 the predicate is no longer the exponent comparison.
        out, inn, wins = asymptotic_compare(exponents(10, 1, 0, 0, 0, 0))
        assert out == inn == 11
        assert not wins

    def test_predicate_matches_exponents_when_strictly_positive(self):
        rng = random.Random(17)
        for _ in range(1000):
            e_k = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            e_l = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            e_a = e_k + Fraction(rng.randint(0, 8), rng.randint(1, 4))
            e_c = e_l + Fraction(rng.randint(0, 8), rng.randint(1, 4))
            e_m = e_k + e_l
            e_b = e_m + Fraction(rng.randint(0, 10), rng.randint(1, 4))
            out, inn, wins = asymptotic_compare(exponents(e_a, e_b, e_c, e_k, e_l, e_m))
            assert (out <= inn) == wins

    def test_scaling_exponents_scales_both_sides(self):
        e = exponents(2, 3, 2, 1, 1, 2)
        out, inn, wins = asymptotic_compare(e)
        scaled = exponents(*(3 * v for v in (e.e_a, e.e_b, e.e_c, e.e_k, e.e_l, e.e_m)))
        out3, inn3, wins3 = asymptotic_compare(scaled)
        assert (out3, inn3) == (3 * out, 3 * inn)
        assert wins3 == wins
