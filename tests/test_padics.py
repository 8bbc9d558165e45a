import random
from fractions import Fraction

import pytest

from zetaumm.padics import (
    additive_character,
    ball_coset_representatives,
    fractional_part,
    haar_integrate_norm_power,
    padic_norm,
    valuation,
)


def random_rational(rng, p, max_pow=8):
    num = rng.randrange(-(10**6), 10**6) or 1
    den = rng.randrange(1, 10**6)
    return Fraction(num, den) * Fraction(p) ** rng.randrange(-max_pow, max_pow)


class TestNorm:
    def test_norm_of_12_base_2(self):
        assert padic_norm(12, 2) == Fraction(1, 4)

    def test_norm_of_5_sixths_base_3(self):
        assert padic_norm(Fraction(5, 6), 3) == 3

    def test_norm_of_unit(self):
        assert padic_norm(7, 5) == 1

    def test_norm_of_zero(self):
        assert padic_norm(0, 7) == 0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            padic_norm(Fraction(1, 0), 2)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            padic_norm(3, 4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_ultrametric_inequality(self, p):
        rng = random.Random(1000 + p)
        for _ in range(200):
            a, b = random_rational(rng, p), random_rational(rng, p)
            na, nb, ns = padic_norm(a, p), padic_norm(b, p), padic_norm(a + b, p)
            assert ns <= max(na, nb)
            if na != nb:
                assert ns == max(na, nb)


class TestCharacter:
    def test_half_base_2(self):
        assert abs(additive_character(2, Fraction(1, 2)) - (-1)) < 1e-15

    def test_three_quarters_base_2(self):
        assert abs(additive_character(2, Fraction(3, 4)) - (-1j)) < 1e-15

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_integers_map_to_one(self, p):
        for n in (0, 1, 7, -12, 5 * p):
            assert additive_character(p, n) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_additivity(self, p):
        rng = random.Random(900 + p)
        for _ in range(100):
            k1, k2 = rng.randrange(0, 9), rng.randrange(0, 9)
            a = Fraction(rng.randrange(-(10**4), 10**4), p**k1)
            b = Fraction(rng.randrange(-(10**4), 10**4), p**k2)
            lhs = additive_character(p, a + b)
            rhs = additive_character(p, a) * additive_character(p, b)
            assert abs(lhs - rhs) < 1e-14

    def test_fractional_part_window(self):
        assert fractional_part(Fraction(3, 4), 2) == Fraction(3, 4)
        assert fractional_part(Fraction(1, 2) + 5, 2) == Fraction(1, 2)
        assert fractional_part(Fraction(22, 7), 7) == Fraction(1, 7)


class TestHaarIntegral:
    def test_exact_value_one_sixth(self):
        # (p-1)/p * p^-s / (1 - p^-s) at p=2, s=2 is exactly 1/6.
        res = haar_integrate_norm_power(2, 2, 40)
        assert res.closed_form == Fraction(1, 6)
        assert abs(res.value - Fraction(1, 6)) <= res.tail_bound
        assert res.tail_bound < Fraction(1, 2**80)

    def test_measure_of_maximal_ideal(self):
        # s=1 integrand is 1, so the sum is the measure of {|xi|_p < 1}.
        res = haar_integrate_norm_power(3, 1, 40)
        assert res.closed_form == Fraction(1, 3)

    def test_single_shell_arithmetic(self):
        res = haar_integrate_norm_power(5, 2, 1)
        assert res.value == Fraction(4, 5) * Fraction(1, 25)
        assert res.tail_bound == Fraction(4, 5) * Fraction(1, 25) * Fraction(1, 24)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(ValueError):
            haar_integrate_norm_power(2, 0, 10)
        with pytest.raises(ValueError):
            haar_integrate_norm_power(2, -1.0 + 2j, 10)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("s", [1, 2, 0.75, 1.5 + 2.0j])
    @pytest.mark.parametrize("K", [1, 5, 25])
    def test_partial_sum_within_tail_bound(self, p, s, K):
        res = haar_integrate_norm_power(p, s, K)
        err = abs(complex(res.value) - complex(res.closed_form))
        assert err <= float(res.tail_bound) * (1 + 1e-12)


def ball_measure(p, level, K=3):
    """Haar measure of the ball p^level Z_p: its count of level-K cosets
    times p^-K."""
    return Fraction(len(list(ball_coset_representatives(p, Fraction(0), level, K))), p**K)


class TestRegions:
    def test_measures_of_named_regions(self):
        for p in (2, 3, 5):
            # the shell integral of |xi|^0 is the measure of its region, the
            # ball p Z_p; with the unit group (measure 1 - 1/p) it tiles Z_p
            interior = haar_integrate_norm_power(p, 1, 1).closed_form
            assert interior == ball_measure(p, 1) == Fraction(1, p)
            assert interior + Fraction(p - 1, p) == ball_measure(p, 0) == 1


class TestCosets:
    def test_counts_and_exact_tiling(self):
        reps = list(ball_coset_representatives(3, Fraction(0), -1, 2))
        assert len(reps) == 27
        # tiling is exact: integrating the constant 1 gives the domain measure
        total = Fraction(len(reps), 3**2)
        assert total == 3  # measure of {|xi|_3 <= 3}

    def test_ball_restricted_enumeration(self):
        reps = list(ball_coset_representatives(2, Fraction(1, 2), 1, 3))
        assert len(reps) == 4
        for r in reps:
            assert padic_norm(r - Fraction(1, 2), 2) <= Fraction(1, 2)
