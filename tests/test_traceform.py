import math

import numpy as np
import pytest
from scipy.integrate import quad

from zetaumm.traceform import _g, _h, trace_formula_check, wigner_marginal_comb
from zetaumm.zeta import PrimeTable


@pytest.fixture(scope="module")
def primes_1e4():
    return PrimeTable.build(10**4)


def _prime_side(a, limit):
    """2 sum_{p^k <= limit} ln p p^(-k/2) g(k ln p), term by term over trial-divided primes."""
    terms = []
    for p in range(2, limit + 1):
        if all(p % d for d in range(2, math.isqrt(p) + 1)):
            pk, k = p, 1
            while pk <= limit:
                q = k * math.log(p)
                terms.append(math.log(p) * math.exp(-0.5 * q - q * q / (2.0 * a * a)))
                pk, k = pk * p, k + 1
    return 2.0 * math.fsum(terms)


class TestFunctionPairContract:
    def test_gaussian_self_test(self):
        # h against direct quadrature of the transform of g
        for a in (0.5, 1.0, 3.0):
            for u in np.linspace(0.0, 4.0, 9):
                val, _ = quad(lambda q: _g(a, q) * math.cos(u * q), 0.0, 60.0, limit=400)
                assert abs(2.0 * val - _h(a, u)) < 1e-10

    def test_transform_real_and_even(self):
        for u in (0.3, 1.7, 4.0):
            hv = complex(_h(1.5, u))
            assert abs(hv.imag) < 1e-14
            assert abs(hv - complex(_h(1.5, -u))) < 1e-14

    def test_closed_form_at_imaginary_argument(self):
        assert abs(complex(_h(1.0, 0.5j)) - math.sqrt(2 * math.pi) * math.exp(0.125)) < 1e-12

    def test_double_transform_recovers_g(self):
        for q in (0.0, 0.7, 2.1):
            val, _ = quad(lambda u: _h(1.0, u) * math.cos(u * q), 0, 40, limit=400)
            assert abs(2.0 * val - 2.0 * math.pi * _g(1.0, -q)) < 1e-10


class TestTraceFormula:
    def test_residual_small_and_bounded(self, zeros_2000, primes_1e4):
        rep = trace_formula_check(1.0, zeros_2000, 100, primes_1e4)
        assert abs(rep.residual) < 1e-3
        assert abs(rep.residual) <= rep.total_bound

    @pytest.mark.parametrize("a", [0.75, 1.0, 1.5, 2.0])
    def test_residual_within_bound_across_widths(self, a, zeros_2000, primes_1e4):
        rep = trace_formula_check(a, zeros_2000, 100, primes_1e4)
        assert abs(rep.residual) <= rep.total_bound

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_doubling_zeros_never_worsens_residual(self, a, zeros_2000, primes_1e4):
        # at admissible widths h(t_1) is ~1e-25 or smaller, so the change is
        # at rounding level; the residual must not grow
        r100 = trace_formula_check(a, zeros_2000, 100, primes_1e4)
        r200 = trace_formula_check(a, zeros_2000, 200, primes_1e4)
        assert abs(r200.residual) <= abs(r100.residual) + 1e-12

    def test_terms_reported(self, zeros_2000, primes_1e4):
        rep = trace_formula_check(1.0, zeros_2000, 100, primes_1e4)
        assert abs(rep.lhs_pole - 2 * math.sqrt(2 * math.pi) * math.exp(0.125)) < 1e-12
        assert abs(rep.rhs_log_pi - math.log(math.pi)) < 1e-14
        assert rep.lhs - rep.rhs == pytest.approx(rep.residual, abs=1e-15)

    def test_width_preconditions(self, zeros_2000, primes_1e4):
        with pytest.raises(ValueError, match="width"):
            trace_formula_check(0.3, zeros_2000, 100, primes_1e4)
        with pytest.raises(ValueError, match="width"):
            trace_formula_check(4.0, zeros_2000, 100, primes_1e4)

    def test_zero_count_precondition(self, zeros_2000, primes_1e4):
        with pytest.raises(ValueError, match="50"):
            trace_formula_check(1.0, zeros_2000, 20, primes_1e4)

    def test_gaussian_family_carries_its_width(self, zeros_2000, primes_1e4):
        rep = trace_formula_check(1.5, zeros_2000, 100, primes_1e4)
        assert rep.lhs_pole == pytest.approx(2 * 1.5 * math.sqrt(2 * math.pi) * math.exp(1.5**2 / 8),
                                             rel=1e-14)

    def test_prime_power_at_the_limit_included(self, zeros_2000):
        # 3125 = 5^5 is a prime power at the limit; its term is ~1.6e-3 at a = 3
        rep = trace_formula_check(3.0, zeros_2000, 100, PrimeTable.build(3125))
        assert rep.rhs_prime_sum == pytest.approx(_prime_side(3.0, 3125), rel=1e-12, abs=0.0)


class TestWignerCombs:
    def test_single_prime_locations(self):
        comb = wigner_marginal_comb(2, 0.0, 3.0)
        expected = np.array([1, 2, 3, 4]) * math.log(2.0)
        assert np.abs(comb.locations - expected).max() < 1e-12
        assert np.abs(comb.weights - math.log(2.0)).max() < 1e-12

    def test_position_marginal_period(self):
        comb = wigner_marginal_comb(3, 0.0, 2.0)
        assert abs(comb.position_period - 2.0 * math.pi / math.log(3.0)) < 1e-12

    def test_all_primes_match_trace_weights(self, primes_1e4):
        comb = wigner_marginal_comb("all", 0.5, 2.0)
        locs = np.exp(comb.locations)
        assert sorted(np.round(locs).astype(int).tolist()) == [2, 3, 4, 5, 7]
        expected = {
            2: math.log(2) * 2**-0.5,
            3: math.log(3) * 3**-0.5,
            4: math.log(2) * 4**-0.5,
            5: math.log(5) * 5**-0.5,
            7: math.log(7) * 7**-0.5,
        }
        for loc, w in zip(locs, comb.weights):
            assert abs(w - expected[int(round(loc))]) < 1e-12

    def test_weights_damped_by_mu(self):
        c0 = wigner_marginal_comb(2, 0.0, 3.0)
        c1 = wigner_marginal_comb(2, 0.5, 3.0)
        assert np.abs(c1.weights - c0.weights * np.exp(-0.5 * c0.locations)).max() < 1e-14

    def test_shared_code_path_with_trace_prime_sum(self, zeros_2000, primes_1e4):
        # the comb and the trace formula's prime side both match the term-by-term sum
        want = _prime_side(1.0, 10**4)
        rep = trace_formula_check(1.0, zeros_2000, 100, primes_1e4)
        assert rep.rhs_prime_sum == pytest.approx(want, rel=1e-12, abs=0.0)
        comb = wigner_marginal_comb("all", 0.5, math.log(10**4))
        from_comb = 2.0 * (comb.weights * _g(1.0, comb.locations)).sum()
        assert from_comb == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_comb_invariants(self):
        comb = wigner_marginal_comb("all", 0.5, 3.0)
        assert (comb.locations > 0).all()
        assert (comb.weights > 0).all()

    def test_q_max_validated(self):
        with pytest.raises(ValueError):
            wigner_marginal_comb(2, 0.0, -1.0)

    def test_non_prime_rejected(self):
        for p in (4, 1, "4"):
            with pytest.raises(ValueError, match="not a prime"):
                wigner_marginal_comb(p, 0.5, 5.0)
