"""Lower bounds, entry bounds, and the operational threshold."""

from fractions import Fraction

import pytest

from gasptables import (
    DomainError,
    GaspParams,
    MatrixDims,
    construct,
    entry_upper_bounds,
    full_report,
    largeT_entry_bound,
    lower_bounds,
    n_of_r,
    operational_threshold,
    optimal_r,
)
from gasptables.bounds import entry_exceeds_threshold, threshold_exponent


class TestLowerBounds:
    def test_small_square_tall_t(self):
        rep = lower_bounds(2, 2, 5)
        assert (rep.ineq1, rep.ineq2, rep.ineq3) == (15, 16, 7)
        assert rep.ineq2_conditions == ("square",)
        assert rep.best == 16

    def test_klt4(self):
        rep = lower_bounds(4, 4, 4)
        assert rep.best == rep.ineq2 == 28

    def test_ineq2_absent(self):
        rep = lower_bounds(2, 1, 1)
        assert rep.ineq2 is None
        assert rep.ineq2_conditions == ()
        assert rep.best == rep.ineq1

    def test_lopsided_condition(self):
        # 3*max + 3T - 2 < KL needs K and L both sizeable but not equal.
        rep = lower_bounds(10, 9, 2)
        assert "KL_large" in rep.ineq2_conditions
        assert "square" not in rep.ineq2_conditions
        assert rep.ineq2 == rep.ineq1 + 1

    def test_linear_in_t_for_fixed_square(self):
        for T in range(1, 11):
            assert lower_bounds(4, 4, T).ineq1 == 2 * T + 19

    def test_symmetric_in_k_l(self):
        a, b = lower_bounds(3, 7, 2), lower_bounds(7, 3, 2)
        assert (a.ineq1, a.ineq2, a.ineq3) == (b.ineq1, b.ineq2, b.ineq3)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            lower_bounds(0, 1, 1)

    def test_never_exceeds_achievable(self):
        for K in range(1, 9):
            for L in range(1, K + 1):
                for T in range(1, 9):
                    _, n_star, _ = optimal_r(K, L, T)
                    assert lower_bounds(K, L, T).best <= n_star, (K, L, T)

    def test_ineq3_beats_ineq1_iff_t_squared_below_min(self):
        for K in range(1, 9):
            for L in range(1, K + 1):
                for T in range(1, 9):
                    rep = lower_bounds(K, L, T)
                    assert (rep.ineq3 > rep.ineq1) == (T * T < min(K, L)), (K, L, T)

    def test_tight_at_t_1(self):
        """With a single colluding server the chain-1 table meets the bound."""
        for K in range(1, 9):
            for L in range(1, K + 1):
                want = K * L + K + L
                assert lower_bounds(K, L, 1).best == want
                assert n_of_r(GaspParams(K, L, 1, 1)) == want


class TestAsymptoticRatio:
    def test_ratio_bound_on_square_powers(self):
        # At K = L = T = n*n the second bound is n**4 + 3n**2 and the best
        # chain table stays within a vanishing factor of it.
        ratios = {}
        for n in range(2, 31):
            k = n * n
            _, n_star, _ = optimal_r(k, k, k)
            ratios[n] = Fraction(n_star, n ** 4 + 3 * n ** 2)
            assert ratios[n] <= 1 + Fraction(2, n) + Fraction(2, n * n), n
        worst = max(ratios.values())
        assert worst == ratios[3] == Fraction(37, 27)
        assert worst < Fraction(138, 100)


class TestEntryBounds:
    def test_applicable(self):
        assert entry_upper_bounds(2, 2, 5) == (10, 10)
        assert entry_upper_bounds(1, 1, 2) == (2, 2)

    def test_not_applicable(self):
        assert entry_upper_bounds(4, 4, 4) is None

    def test_boundary(self):
        # threshold on T is 2KL - K - L - min(K, L) + 3
        assert entry_upper_bounds(2, 2, 4) is None
        assert entry_upper_bounds(2, 2, 5) is not None

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            entry_upper_bounds(1, 0, 1)


class TestLargeTEntryBound:
    def test_known_count_tightens(self):
        t = construct(GaspParams.big(2, 2, 5))
        assert largeT_entry_bound(t, 17) == (10, 10)

    def test_small_table(self):
        t = construct(GaspParams.big(1, 1, 2))
        assert largeT_entry_bound(t, 5) == (2, 2)

    def test_count_too_large(self):
        t = construct(GaspParams.big(2, 2, 5))
        assert largeT_entry_bound(t, 18) is None

    def test_requires_normal(self):
        from gasptables import DegreeTable
        shifted = DegreeTable(K=1, L=1, T=1, alpha_p=(1,), alpha_s=(2,),
                              beta_p=(0,), beta_s=(1,))
        with pytest.raises(DomainError, match="normal"):
            largeT_entry_bound(shifted, 4)


class TestOperationalThreshold:
    def test_values(self):
        assert operational_threshold(MatrixDims(1, 1, 1, 2)) == 0
        assert operational_threshold(MatrixDims(1, 1, 1, 8)) == 6
        assert operational_threshold(MatrixDims(2, 2, 2, 3)) == 531439

    def test_exponent_is_symbolic(self):
        for dims in (MatrixDims(1, 1, 1, 2), MatrixDims(1, 1, 1, 8), MatrixDims(2, 2, 2, 3)):
            assert operational_threshold(dims) == dims.q ** threshold_exponent(dims) - 2
        # 3**15_996_000_000 would need gigabytes; the exponent alone is exact
        assert threshold_exponent(MatrixDims(2000, 2000, 2000, 3)) == 15_996_000_000

    def test_dims_validation(self):
        with pytest.raises(DomainError):
            MatrixDims(0, 1, 1, 2)
        with pytest.raises(DomainError):
            MatrixDims(1, 1, 1, 1)

    def test_exceeds_boundary(self):
        dims = MatrixDims(2, 2, 2, 3)
        thr = operational_threshold(dims)
        assert not entry_exceeds_threshold(thr - 1, dims)
        assert entry_exceeds_threshold(thr, dims)
        assert entry_exceeds_threshold(thr + 1, dims)

    def test_exceeds_fast_paths(self):
        # far from the boundary the bit-length shortcut must decide alone
        dims = MatrixDims(3, 3, 3, 2)
        assert not entry_exceeds_threshold(2, dims)
        assert entry_exceeds_threshold(1 << 100, dims)

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            entry_exceeds_threshold(-1, MatrixDims(1, 1, 1, 2))

    def test_exceeds_matches_exact_on_window(self):
        dims = MatrixDims(1, 2, 1, 3)  # threshold 3**3 - 2 = 25
        thr = operational_threshold(dims)
        assert thr == 25
        for entry in range(0, 80):
            assert entry_exceeds_threshold(entry, dims) == (entry >= thr)


class TestFullReport:
    def test_without_dims(self):
        rep = full_report(2, 2, 5)
        assert rep.best == 16
        assert rep.entry_bound_alpha == rep.entry_bound_beta == 10
        assert rep.threshold_exponent is None

    def test_with_dims(self):
        rep = full_report(4, 4, 4, dims=MatrixDims(1, 1, 1, 8))
        assert rep.entry_bound_alpha is None
        assert rep.threshold_exponent == 1
