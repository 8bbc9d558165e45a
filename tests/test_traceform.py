import math

import numpy as np
import pytest
from scipy.integrate import quad

from zetaumm.traceform import (
    TestFunctionPair,
    trace_formula_check,
    wigner_marginal_comb,
)
from zetaumm.zeta import PrimeTable


@pytest.fixture(scope="module")
def primes_1e4():
    return PrimeTable.build(10**4)


class TestFunctionPairContract:
    def test_gaussian_self_test(self):
        pair = TestFunctionPair.gaussian(1.0)
        assert pair.self_test() < 1e-10

    def test_transform_real_and_even(self):
        pair = TestFunctionPair.gaussian(1.5)
        for u in (0.3, 1.7, 4.0):
            hv = complex(pair.h(u))
            assert abs(hv.imag) < 1e-14
            assert abs(hv - complex(pair.h(-u))) < 1e-14

    def test_closed_form_at_imaginary_argument(self):
        pair = TestFunctionPair.gaussian(1.0)
        assert abs(complex(pair.h(0.5j)) - math.sqrt(2 * math.pi) * math.exp(0.125)) < 1e-12

    def test_double_transform_recovers_g(self):
        pair = TestFunctionPair.gaussian(1.0)
        for q in (0.0, 0.7, 2.1):
            val, _ = quad(lambda u: complex(pair.h(u)).real * math.cos(u * q), 0, 40, limit=400)
            assert abs(2.0 * val - 2.0 * math.pi * pair.g(-q)) < 1e-10

    def test_inconsistent_pair_rejected(self):
        bad = TestFunctionPair(
            g=lambda q: math.exp(-q * q / 2.0),
            h=lambda u: 1.001 * math.sqrt(2 * math.pi) * np.exp(-0.5 * u * u),
            label="bad",
        )
        with pytest.raises(ValueError, match="self-test"):
            bad.self_test()


class TestTraceFormula:
    def test_residual_small_and_bounded(self, zeros_2000, primes_1e4):
        rep = trace_formula_check(TestFunctionPair.gaussian(1.0), zeros_2000, 100, primes_1e4)
        assert abs(rep.residual) < 1e-3
        assert abs(rep.residual) <= rep.total_bound

    @pytest.mark.parametrize("a", [0.75, 1.0, 1.5, 2.0])
    def test_residual_within_bound_across_widths(self, a, zeros_2000, primes_1e4):
        rep = trace_formula_check(TestFunctionPair.gaussian(a), zeros_2000, 100, primes_1e4)
        assert abs(rep.residual) <= rep.total_bound

    @pytest.mark.parametrize("a", [1.0, 2.0])
    def test_doubling_zeros_never_worsens_residual(self, a, zeros_2000, primes_1e4):
        # at admissible widths h(t_1) is ~1e-25 or smaller, so the change is
        # at rounding level; the residual must not grow
        r100 = trace_formula_check(TestFunctionPair.gaussian(a), zeros_2000, 100, primes_1e4)
        r200 = trace_formula_check(TestFunctionPair.gaussian(a), zeros_2000, 200, primes_1e4)
        assert abs(r200.residual) <= abs(r100.residual) + 1e-12

    def test_terms_reported(self, zeros_2000, primes_1e4):
        rep = trace_formula_check(TestFunctionPair.gaussian(1.0), zeros_2000, 100, primes_1e4)
        assert abs(rep.lhs_pole - 2 * math.sqrt(2 * math.pi) * math.exp(0.125)) < 1e-12
        assert abs(rep.rhs_log_pi - math.log(math.pi)) < 1e-14
        assert rep.lhs - rep.rhs == pytest.approx(rep.residual, abs=1e-15)

    def test_width_preconditions(self, zeros_2000, primes_1e4):
        with pytest.raises(ValueError, match="width"):
            trace_formula_check(TestFunctionPair.gaussian(0.3), zeros_2000, 100, primes_1e4)
        with pytest.raises(ValueError, match="width"):
            trace_formula_check(TestFunctionPair.gaussian(4.0), zeros_2000, 100, primes_1e4)

    def test_zero_count_precondition(self, zeros_2000, primes_1e4):
        with pytest.raises(ValueError, match="50"):
            trace_formula_check(TestFunctionPair.gaussian(1.0), zeros_2000, 20, primes_1e4)

    def test_user_pair_goes_through_self_test(self, zeros_2000, primes_1e4):
        bad = TestFunctionPair(
            g=lambda q: math.exp(-q * q / 2.0),
            h=lambda u: 1.001 * math.sqrt(2 * math.pi) * np.exp(-0.5 * np.asarray(u) ** 2),
            label="user",
        )
        with pytest.raises(ValueError, match="self-test"):
            trace_formula_check(bad, zeros_2000, 100, primes_1e4)

    def test_gaussian_label_does_not_skip_self_test(self, zeros_2000, primes_1e4):
        # only the width field marks a Gaussian pair; a label is just a label
        bad = TestFunctionPair(
            g=lambda q: math.exp(-q * q / 2.0),
            h=lambda u: 1.001 * math.sqrt(2 * math.pi) * np.exp(-0.5 * np.asarray(u) ** 2),
            label="gaussian(a=1.0)",
        )
        assert bad.width is None
        with pytest.raises(ValueError, match="self-test"):
            trace_formula_check(bad, zeros_2000, 100, primes_1e4)

    def test_gaussian_family_carries_its_width(self):
        assert TestFunctionPair.gaussian(1.5).width == 1.5

    def test_pair_without_width_rejected_after_self_test(self, zeros_2000, primes_1e4):
        # a correct Gaussian built by hand: its transform is right, but only
        # the width field unlocks the closed-form tail bounds
        pair = TestFunctionPair(
            g=lambda q: math.exp(-q * q / 2.0),
            h=lambda u: math.sqrt(2 * math.pi) * np.exp(-0.5 * np.asarray(u) ** 2),
            label="hand-made gaussian",
        )
        assert pair.self_test() < 1e-10
        with pytest.raises(ValueError, match="Gaussian family"):
            trace_formula_check(pair, zeros_2000, 100, primes_1e4)


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
        pair = TestFunctionPair.gaussian(1.0)
        rep = trace_formula_check(pair, zeros_2000, 100, primes_1e4)
        comb = wigner_marginal_comb("all", 0.5, math.log(primes_1e4.limit), primes=primes_1e4)
        recomputed = 2.0 * (comb.weights * np.array([pair.g(q) for q in comb.locations])).sum()
        assert recomputed == rep.rhs_prime_sum

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
