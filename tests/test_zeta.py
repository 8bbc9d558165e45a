import math
import os
import random
import re
import signal
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import digamma, expi, loggamma

from zetaumm import zeta as zt
from zetaumm.resolvent import xi_log_series
from zetaumm.zeta import (
    PrimeTable,
    ZetaPole,
    bundled_zeros_path,
    chebyshev_psi_direct,
    chebyshev_psi_explicit,
    ingest_zeros,
    li_coefficients_cauchy,
    li_coefficients_zero_sum,
    local_count_direct,
    local_count_explicit,
    log_zeta_real_place,
    prime_count_j_direct,
    prime_count_j_explicit,
    sieve_primes,
    xi,
    zeta,
    zeta_unit,
    zeta_unit_log_derivative,
)


def _bernoulli_upto(m):
    """B_0..B_m by the defining recurrence, exact."""
    out = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * out[k]
        out.append(-acc / (n + 1))
    return out


def test_bernoulli_tables_are_the_exact_values_rounded():
    """The Euler-Maclaurin and Stirling coefficients are float(Fraction) of
    the exact B_2k expressions, bit for bit; the digamma table is (2k - 1)
    times the Stirling one, which differs from float(B_2k / 2k) by an ulp
    at k = 4, 5 and 12, so that product is what is checked."""
    B = _bernoulli_upto(24)
    k = range(1, 13)
    over_fact = [float(B[2 * j] / math.factorial(2 * j)) for j in k]
    stirling = [float(B[2 * j] / (2 * j * (2 * j - 1))) for j in k]
    assert zt._B2K_OVER_FACT.tolist() == over_fact
    assert zt._STIRLING.tolist() == stirling
    assert zt._STIRLING_D.tolist() == [(2 * j - 1) * s for j, s in zip(k, stirling)]
    assert B[12] == Fraction(-691, 2730)


def direct_series_zeta2(N=200_000):
    """Independent oracle for zeta(2): partial sum plus integral tail and
    midpoint correction, error O(1/N^3)."""
    n = np.arange(1, N, dtype=float)
    return float((n**-2.0).sum() + 1.0 / N + 0.5 / N**2)


class TestZeta:
    def test_zeta_at_two_against_series_oracle(self):
        oracle = direct_series_zeta2()
        assert abs(zeta(2.0) - oracle) < 1e-10
        assert abs(zeta(2.0) - 1.6449340668) < 5e-10

    def test_left_half_plane_refused(self):
        # the refusal comes before any arithmetic, so numpy never warns
        with np.errstate(all="raise"):
            for s in (-2.0, -0.5 + 3.0j):
                for fn in (zeta, zeta_unit, xi):
                    with pytest.raises(ValueError, match="Re\\(s\\) >= 0"):
                        fn(s)

    def test_reflection_identity_residual(self):
        s = 0.3 + 2.0j
        lhs = zeta(s)
        rhs = (
            2.0**s
            * math.pi ** (s - 1.0)
            * np.sin(0.5 * math.pi * s)
            * np.exp(loggamma(1.0 - s))
            * zeta(1.0 - s)
        )
        assert abs(lhs - rhs) < 1e-10

    def test_pole_reported_distinctly(self):
        for s in (1.0, 1.0 + 1e-14j):
            with pytest.raises(ZetaPole):
                zeta(s)
        # the log-derivative of (s-1) zeta(s) has no pole there: it is
        # euler_gamma, the constant of zeta's Laurent series
        for s in (1.0, 1.0 + 1e-14j):
            assert abs(zeta_unit_log_derivative(s) - np.euler_gamma) < 1e-14

    def test_unit_product_regular_at_one(self):
        assert abs(zeta_unit(1.0) - 1.0) < 1e-14
        # (s-1) zeta(s) -> 1 smoothly
        assert abs(zeta_unit(1.0 + 1e-8) - 1.0) < 1e-6

    def test_derivative_matches_finite_difference(self):
        for s in (2.0 + 1.0j, 1.5, 3.0 - 2.0j, 1.0 + 1e-3j):
            h = 1e-6
            fd = (np.log(zeta_unit(s + h)) - np.log(zeta_unit(s - h))) / (2.0 * h)
            assert abs(zeta_unit_log_derivative(s) - fd) < 1e-7

    def test_array_derivative_against_mpmath(self):
        s = np.array([2.0 + 1.0j, 1.5, 3.0 - 2.0j, 0.5 + 14.0j, 0.25 + 30.0j, 1.0 + 1e-6j])
        val, got = zeta(s), zeta_unit_log_derivative(s)
        assert val.shape == got.shape == s.shape
        with mpmath.workdps(30):
            for k, sk in enumerate(s):
                vwant = complex(mpmath.zeta(sk))
                want = complex(mpmath.zeta(sk, 1, 1) / mpmath.zeta(sk) + 1 / (mpmath.mpc(sk) - 1))
                assert abs(val[k] - vwant) < 1e-12 * max(1.0, abs(vwant))
                assert abs(got[k] - want) < 1e-12 * max(1.0, abs(want))

    def test_array_and_scalar_entry_points_agree(self):
        s = np.array([0.3 + 2.0j, 0.1 + 3.0j, 2.5, 0.5 + 40.0j])
        for fn in (zeta, zeta_unit, xi):
            arr = fn(s)
            for k, sk in enumerate(s):
                one = fn(complex(sk))
                assert isinstance(one, complex)
                # a single point uses its own direct-sum length, the array
                # the one set by its largest |Im s|
                assert abs(arr[k] - one) <= 1e-12 * max(1.0, abs(one))

    def test_empty_array_gives_empty_array(self):
        for fn in (zeta, zeta_unit, xi):
            out = fn(np.array([], dtype=complex))
            assert isinstance(out, np.ndarray) and out.size == 0


class TestXi:
    def test_functional_symmetry_example(self):
        s = 0.3 + 4.0j
        assert abs(xi(s) - xi(1.0 - s)) < 1e-10

    def test_value_at_origin(self):
        # limit through (s-1)zeta(s); cross-checked by approach on the axis
        assert abs(xi(0.0) - 0.5) < 1e-12
        assert abs(xi(1e-8) - 0.5) < 1e-6

    def test_vanishes_at_first_zero(self, zeros_2000):
        assert abs(xi(0.5 + 1j * zeros_2000.ts[0])) < 1e-6

    def test_symmetry_on_random_strip_points(self):
        rng = random.Random(42)
        for _ in range(50):
            s = complex(rng.uniform(0.0, 1.0), rng.uniform(-30.0, 30.0))
            assert abs(xi(s) - xi(1.0 - s)) < 1e-10

    def test_digamma_recurrence_grid(self):
        for re in np.linspace(0.25, 4.0, 8):
            for im in np.linspace(-10.0, 10.0, 7):
                z = complex(re, im)
                assert abs(digamma(z + 1.0) - digamma(z) - 1.0 / z) < 1e-12


def _circle(center, r, nodes):
    return center + r * np.exp(2j * math.pi * np.arange(nodes) / nodes)


class TestSpecialFunctionKernels:
    """ln Gamma, digamma and Ei against scipy and mpmath, over the arguments
    the CLI reaches."""

    def test_log_gamma_on_contour_nodes_takes_scipy_branch(self):
        # betas --model xi: ln Gamma(s/2 + 1), s = 1/(1-z) on |z| = 0.5, 0.7;
        # li: ln Gamma(s/2), s = 1 + w on |w| = 0.45, 0.63
        z = np.concatenate([
            0.5 / (1.0 - _circle(0.0, 0.5, 2048)) + 1.0,
            0.5 / (1.0 - _circle(0.0, 0.7, 1024)) + 1.0,
            0.5 * _circle(1.0, 0.45, 1024),
            0.5 * _circle(1.0, 0.63, 512),
        ])
        # equal, not equal modulo 2 pi i: the contour log-extraction needs it
        assert np.abs(zt._log_gamma(z) - loggamma(z)).max() <= 1e-14

    def test_log_gamma_branch_far_from_the_origin(self):
        # the reflection's Gamma(1 - s), Im ln Gamma ~ t ln t at large t, Re z < 0
        z = np.array([3.0 - 2.0j, 30.5 + 40.0j, 0.25 + 5000.0j, 0.25 - 700.0j,
                      -7.5 + 1.0j, -20.2 + 3.0j, -3.5 - 0.1j])
        want = loggamma(z)
        assert (np.abs(zt._log_gamma(z) - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()
        with mpmath.workdps(30):
            mp = np.array([complex(mpmath.loggamma(mpmath.mpc(x.real, x.imag))) for x in z])
        assert (np.abs(zt._log_gamma(z) - mp) <= 1e-14 * np.maximum(1.0, np.abs(mp))).all()

    def test_digamma_on_gamma_model_and_trace_nodes(self):
        # betas --model gamma: psi(s/2), s = (1+z)/(1-z) on |z| = 0.5, 0.7;
        # trace-check: psi(1/4 + iu/2) for |u| <= 14/0.5
        z = np.concatenate([
            0.5 * (1.0 + _circle(0.0, 0.5, 1024)) / (1.0 - _circle(0.0, 0.5, 1024)),
            0.5 * (1.0 + _circle(0.0, 0.7, 512)) / (1.0 - _circle(0.0, 0.7, 512)),
            0.25 + 0.5j * np.linspace(-28.0, 28.0, 1121),
        ])
        want = digamma(z)
        assert (np.abs(zt._digamma(z) - want) <= 1e-14 * np.maximum(1.0, np.abs(want))).all()
        with mpmath.workdps(30):
            mp = np.array([complex(mpmath.digamma(mpmath.mpc(x.real, x.imag))) for x in z[::50]])
        assert np.abs(zt._digamma(z[::50]) - mp).max() <= 1e-14 * np.abs(mp).max()

    def test_expi_on_explicit_formula_arguments(self):
        # explicit-formula --kind J: Ei((1/2 + it) ln x) for every bundled t,
        # all on the continued-fraction side, and Li(x) = Ei(ln x) on the series side
        ts = np.loadtxt(bundled_zeros_path(), comments="#")
        for x in (5.5, 20.5, 100.5):
            w = (0.5 + 1j * ts) * math.log(x)
            assert (np.abs(w) - w.real > 4.0).all()
            want = expi(w)
            assert (np.abs(zt._expi(w) - want) <= 1e-14 * np.abs(want)).all()
        lnx = np.log(np.arange(5.5, 101.0))
        assert np.abs(zt._expi(lnx) - expi(lnx)).max() <= 1e-14 * expi(lnx).max()

    def test_expi_across_the_series_fraction_switch(self):
        # |w| - Re w = 4 -/+ 0.01 at several |w|: series on one side, continued
        # fraction on the other
        r = np.array([2.5, 5.0, 10.0, 40.0])
        pts = []
        for gap in (3.99, 4.01):
            phi = np.arccos(1.0 - gap / r)
            pts += [r * np.exp(1j * phi), r * np.exp(-1j * phi)]
        w = np.concatenate(pts)
        want = expi(w)
        assert np.abs(zt._expi(w) - want).max() <= 1e-14 * np.maximum(1.0, np.abs(want)).max()
        with mpmath.workdps(30):
            mp = np.array([complex(-mpmath.e1(-mpmath.mpc(x.real, x.imag))) for x in w])
        mp += np.where(w.imag > 0, 1j, -1j) * math.pi
        assert (np.abs(zt._expi(w) - mp) <= 1e-14 * np.maximum(1.0, np.abs(mp))).all()

    def test_li_tail_against_mpmath_quadrature(self):
        for T in (14.134725141734694, 2515.2865, 9877.782654):
            got, est = zt._li_tail_integrals(20, T)
            with mpmath.workdps(30):
                want = np.array([float(mpmath.quad(
                    lambda t: 4 * mpmath.sin(n * mpmath.atan(1 / (2 * t))) ** 2
                    * mpmath.log(t / (2 * mpmath.pi)) / (2 * mpmath.pi),
                    [T, 2 * T, 10 * T, 100 * T, mpmath.inf])) for n in range(1, 21)])
            assert (np.abs(got - want) <= 1e-13 * want).all()
            assert (est <= 1e-13 * want).all()

    def test_siegel_theta_kernel_leaves_ingestion_unchanged(self, tmp_path, monkeypatch):
        """theta as Im of Stirling's series at 1/4 + it/2 + 8 less eight
        principal arguments (its own formula before it shared ln Gamma's
        kernel) passes and rejects the same ordinates of the bundled and the
        +0.3-shifted table."""
        def theta_by_arguments(t):
            z = 0.25 + 0.5j * t
            w = z + 8.0
            lg = (w - 0.5) * np.log(w) - w + np.polyval(zt._STIRLING[::-1], 1.0 / (w * w)) / w
            return lg.imag - sum(np.angle(z + j) for j in range(8)) - 0.5 * t * zt.LN_PI

        ts = np.loadtxt(bundled_zeros_path(), comments="#")[:2000]
        ts[20:] += 0.3
        for path in (bundled_zeros_path(), _write_table(tmp_path / "shifted.txt", ts)):
            new = ingest_zeros(path)
            with monkeypatch.context() as m:
                m.setattr(zt, "_siegel_theta", theta_by_arguments)
                old = ingest_zeros(path)
            assert np.array_equal(new.ts, old.ts)
            assert [t for t, _ in new.excluded] == [t for t, _ in old.excluded]
            # the residuals |Z(t)| at zeros are rounding noise; they agree to Z's bound
            assert (np.abs(new.residuals - old.residuals) <= zt.hardy_z(new.ts)[1]).all()


class TestEulerFactors:
    def test_real_place_against_gaussian_mellin_quadrature(self):
        # zeta_R(s) = int |x|^(s-1) e^(-pi x^2) dx over R (the transform of
        # the Gaussian), evaluated here by adaptive quadrature as the oracle
        for s in (2.0, 3.5, 1.0):
            oracle = 2.0 * quad(lambda x, s=s: x ** (s - 1.0) * math.exp(-math.pi * x * x), 0, 12)[0]
            assert abs(np.exp(log_zeta_real_place(s)) - oracle) < 1e-10
        assert abs(np.exp(log_zeta_real_place(2.0)) - 0.3183098862) < 1e-10


class TestPrimeTable:
    def _sundaram(self, limit):
        # independent second sieve for cross-validation
        k = (limit - 1) // 2
        marked = np.zeros(k + 1, dtype=bool)
        for i in range(1, k + 1):
            j = i
            while i + j + 2 * i * j <= k:
                marked[i + j + 2 * i * j] = True
                j += 1
        primes = [2] + [2 * i + 1 for i in range(1, k + 1) if not marked[i]]
        return [p for p in primes if p <= limit]

    def test_sieve_matches_second_method(self):
        assert sieve_primes(5000).tolist() == self._sundaram(5000)

    def test_sieve_edges(self):
        for n in range(201):
            assert sieve_primes(n).tolist() == self._sundaram(n), n
        assert sieve_primes(10**6).size == 78498
        big = sieve_primes(10**7)
        assert big.size == 664579
        assert big.dtype == np.int64 and (np.diff(big) > 0).all()
        for p in (199, 10007):
            assert sieve_primes(p)[-1] == p

    @staticmethod
    def _flat_sieve(limit):
        """The flat odd-only sieve that the blocked one replaced, kept as its
        reference: one mask over all (limit + 1) // 2 odd slots."""
        if limit < 2:
            return np.zeros(0, dtype=np.int64)
        mask = np.ones((limit + 1) // 2, dtype=bool)
        for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
            if mask[i]:
                p = 2 * i + 1
                mask[p * p // 2 :: p] = False
        primes = np.flatnonzero(mask)
        primes *= 2
        primes += 1
        primes[0] = 2
        return primes

    @pytest.mark.parametrize("limit", [2**21 - 1, 2**21, 2**21 + 1, 2**22 - 1, 2**22, 2**22 + 1, 10**7])
    def test_blocked_sieve_matches_flat_sieve(self, limit):
        # block k holds the 2^20 odd numbers in [k 2^21, (k + 1) 2^21): limits at its edges
        got, want = sieve_primes(limit), self._flat_sieve(limit)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    @staticmethod
    def _reference_prime_table(limit):
        """The per-power Python loop that PrimeTable.build replaced, kept as
        its bit-for-bit reference."""
        vals, exps, wts = [], [], []
        for p in sieve_primes(limit).tolist():
            pk, k = p, 1
            while pk <= limit:
                vals.append(pk)
                exps.append(k)
                wts.append(math.log(p))
                pk *= p
                k += 1
        order = np.argsort(np.asarray(vals))
        return (np.asarray(vals, dtype=np.int64)[order], np.asarray(exps, dtype=np.int64)[order],
                np.asarray(wts, dtype=float)[order])

    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 8, 9, 1000, 3125, 10**5])
    def test_prime_table_matches_per_power_loop(self, limit):
        table = PrimeTable.build(limit)
        vals, exps, wts = self._reference_prime_table(limit)
        assert table.limit == limit
        assert table.power_values.dtype == np.int64 and np.array_equal(table.power_values, vals)
        assert table.power_exponents.dtype == np.int64 and np.array_equal(table.power_exponents, exps)
        assert table.power_weights.tobytes() == wts.tobytes()

    def test_prime_powers_complete_and_unique(self):
        table = PrimeTable.build(1000)
        vals = table.power_values.tolist()
        assert len(vals) == len(set(vals))
        expected = sorted(
            p**k
            for p in sieve_primes(1000).tolist()
            for k in range(1, 11)
            if p**k <= 1000
        )
        assert vals == expected
        two_cubed = vals.index(8)
        assert table.power_exponents[two_cubed] == 3
        assert abs(table.power_weights[two_cubed] - math.log(2)) < 1e-15


class TestCounting:
    def test_psi_direct_example(self):
        expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
        assert abs(chebyshev_psi_direct(10.5) - expected) < 1e-12
        assert abs(chebyshev_psi_direct(10.5) - 7.832015) < 1e-6

    def test_j_direct_example(self):
        assert abs(prime_count_j_direct(20.0) - (8 + 1 + 1.0 / 3 + 0.25)) < 1e-12

    def test_local_direct_example(self):
        assert local_count_direct(2, 10.0) == 3.0

    @pytest.mark.parametrize("x", [-3.0, 0.0, 0.5, 1.0, 1.5])
    def test_counts_vanish_below_the_first_prime_power(self, x):
        counts = [chebyshev_psi_direct(x), prime_count_j_direct(x),
                  local_count_direct(2, x), local_count_direct(3, x)]
        assert counts == [0.0] * 4 and all(type(c) is float for c in counts)

    def test_midpoint_convention_at_jumps(self):
        assert abs(chebyshev_psi_direct(8.0) - (chebyshev_psi_direct(7.9) + 0.5 * math.log(2))) < 1e-12
        assert abs(prime_count_j_direct(9.0) - (prime_count_j_direct(8.9) + 0.25)) < 1e-12
        assert local_count_direct(3, 9.0) == 1.5
        # within 1e-9 of a jump counts as the jump; 6 is no prime power
        x = 8.0 + 5e-10
        assert abs(chebyshev_psi_direct(x) - (chebyshev_psi_direct(7.9) + 0.5 * math.log(2))) < 1e-12
        assert abs(prime_count_j_direct(x) - (prime_count_j_direct(7.9) + 1.0 / 6.0)) < 1e-12
        assert local_count_direct(2, x) == 2.5
        assert chebyshev_psi_direct(6.0) == chebyshev_psi_direct(5.9)
        assert prime_count_j_direct(6.0) == prime_count_j_direct(5.9)
        assert local_count_direct(2, 6.0) == 2.0

    def test_psi_explicit_close_at_first_sample_point(self, zeros_2000):
        direct = chebyshev_psi_direct(10.5)
        assert abs(chebyshev_psi_explicit(10.5, zeros_2000.ts[:100]) - direct) < 0.1

    def test_psi_explicit_behaviour_at_second_sample_point(self, zeros_2000):
        # conditionally convergent zero sum: the pointwise error at 100
        # zeros is O(1) here and shrinks as the truncation deepens
        direct = chebyshev_psi_direct(100.5)
        e100 = abs(chebyshev_psi_explicit(100.5, zeros_2000.ts[:100]) - direct)
        e200 = abs(chebyshev_psi_explicit(100.5, zeros_2000.ts[:200]) - direct)
        e2000 = abs(chebyshev_psi_explicit(100.5, zeros_2000.ts) - direct)
        assert e100 < 1.2
        assert e200 < e100
        assert e2000 < 0.2

    def test_psi_explicit_requires_zeros(self):
        with pytest.raises(ValueError):
            chebyshev_psi_explicit(10.5, [])

    def test_j_explicit_matches_direct(self, zeros_2000):
        assert abs(prime_count_j_explicit(20.0, zeros_2000.ts[:200]) - prime_count_j_direct(20.0)) < 1e-2
        assert abs(prime_count_j_explicit(100.5, zeros_2000.ts[:1000]) - prime_count_j_direct(100.5)) < 0.05

    def test_local_explicit_matches_direct(self):
        assert abs(local_count_explicit(2, 10.0) - 3.0) < 1e-3
        # Fourier form lands on the midpoint at a jump by construction
        assert abs(local_count_explicit(2, 8.0) - 2.5) < 1e-3

    def test_local_counts_reject_non_prime(self):
        # without the check p = 1 loops forever on p^n *= 1: the alarm turns a hang into a failure
        def hang(signum, frame):
            raise TimeoutError("local_count_direct(1, 10) did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            with pytest.raises(ValueError):
                local_count_direct(1, 10.0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for p in (1, 4):
            with pytest.raises(ValueError):
                local_count_explicit(p, 10.0)
        with pytest.raises(ValueError):
            local_count_direct(4, 10.0)


class TestLiCoefficients:
    def test_lambda_one_both_methods(self, zeros_2000):
        a = li_coefficients_cauchy(1)
        b = li_coefficients_zero_sum(1, zeros_2000.ts)
        assert abs(a.values[0] - 0.023096) < 1e-4
        assert abs(b.values[0] - 0.023096) < 1e-4
        assert abs(a.values[0] - b.values[0]) < 1e-5

    def test_methods_agree_to_ten(self, zeros_2000):
        a = li_coefficients_cauchy(10)
        b = li_coefficients_zero_sum(10, zeros_2000.ts)
        assert np.abs(a.values - b.values).max() < 1e-3

    def test_positivity_through_ten(self):
        assert (li_coefficients_cauchy(10).values > 0).all()

    def test_empty_zero_table_rejected(self):
        with pytest.raises(ValueError):
            li_coefficients_zero_sum(5, [])

    def test_radius_precondition(self):
        # li_coefficients_cauchy reads xi_log_series on |z| = 0.45
        for radius in (0.0, 1.0):
            with pytest.raises(ValueError, match="radius must lie in"):
                xi_log_series(5, radius, 512)

    def test_cross_validation_surfaces_disagreement(self, zeros_2000):
        a = li_coefficients_cauchy(5)

        def check(ts):
            b = li_coefficients_zero_sum(5, ts)
            bar = a.error_estimate + b.error_estimate + 1e-3
            return zt.check_agreement("lambda_{n}", a.values, b.values, bar, ("cauchy", "zero_sum"))

        assert check(zeros_2000.ts) == []  # clean table passes
        # dropping the first zero shifts lambda_1 by ~5e-3, beyond tolerance
        [message] = check(zeros_2000.ts[1:])
        assert re.search(r"lambda_1: cauchy .* zero_sum .* differ by", message)
        # a NaN gap is a failure, not a pass
        [message] = zt.check_agreement("x_{n}", [1.0, float("nan")], [1.0, 2.0], 1.0, ("a", "b"))
        assert re.search("x_2", message)


def _masked_riemann_siegel(t):
    """Z by Riemann-Siegel with the main sum as first written: term n added
    under the boolean mask N >= n, in the caller's order of t.  The
    bit-for-bit reference of the sum on slices of ascending t."""
    a = np.sqrt(t / (2.0 * math.pi))
    N = np.floor(a).astype(np.int64)
    main = np.zeros_like(t)
    theta = zt._siegel_theta(t)
    for n in range(1, int(N.max(initial=0)) + 1):
        live = N >= n
        main[live] += np.cos(theta[live] - t[live] * math.log(n)) / math.sqrt(n)
    x = a - N - 0.5
    corr = np.zeros_like(t)
    for k in reversed(range(len(zt._RS_COEFFS))):
        corr = corr / a + np.polyval(zt._RS_COEFFS[k], x * x) * (x if k % 2 else 1.0)
    return 2.0 * main + np.where(N % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)


class TestHardyZ:
    @pytest.mark.parametrize("lo, hi", [(14.0, 200.0), (200.0, 1000.0), (1000.0, 1e4)])
    def test_against_mpmath_within_bound(self, lo, hi):
        t = np.sort(np.random.default_rng(int(lo)).uniform(lo, hi, 60))
        z, err = zt.hardy_z(t)
        with mpmath.workdps(30):
            oracle = np.array([float(mpmath.siegelz(x)) for x in t])
            theta = np.array([float(mpmath.siegeltheta(x)) for x in t])
        assert (np.abs(z - oracle) <= err).all()
        assert np.abs(zt._siegel_theta(t) - theta).max() < 1e-14 * hi * math.log(hi)

    @pytest.mark.parametrize("t", [14.0, 199.999, 200.0, 1e3, 1e4, 1e6])
    def test_siegel_theta_against_mpmath(self, t):
        with mpmath.workdps(30):
            want = float(mpmath.siegeltheta(t))
        assert abs(zt._siegel_theta(np.array([t]))[0] - want) <= 1e-14 * t * math.log(t)

    def test_siegel_theta_series_meets_log_gamma_at_the_switch(self):
        # the asymptotic series from _RS_MIN_T on against ln Gamma at the same
        # points, and the step between the last point below and 200 itself
        t = np.array([zt._RS_MIN_T, 250.0])
        by_log_gamma = zt._log_gamma(0.25 + 0.5j * t).imag - 0.5 * t * zt.LN_PI
        bound = zt._z_riemann_siegel(t)[1]
        assert (np.abs(zt._siegel_theta(t) - by_log_gamma) < bound).all()
        below = np.nextafter(zt._RS_MIN_T, 0.0)
        jump = np.diff(zt._siegel_theta(np.array([below, zt._RS_MIN_T])))[0]
        assert abs(jump) < bound[0]

    def test_routes_agree_across_the_overlap(self):
        t = np.linspace(200.0, 300.0, 101)
        rs, rs_err = zt._z_riemann_siegel(t)
        em, em_err = zt._z_euler_maclaurin(t)
        assert (np.abs(rs - em) <= rs_err + em_err).all()
        assert np.abs(rs - em).max() > 1e-12  # two routes, not one route twice

    def test_riemann_siegel_bit_identical_to_masked_loop(self):
        # the points ingestion evaluates for the bundled table, t - delta,
        # t and t + delta side by side (not ascending), that take this route
        with open(bundled_zeros_path(), encoding="utf-8") as fh:
            lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
        ts = np.array([float(line) for line in lines])
        delta = np.array([max(zt._DELTA_MIN, 0.5 * 10.0 ** Decimal(line).as_tuple().exponent)
                          for line in lines])
        t = np.concatenate([ts - delta, ts, ts + delta])
        t = t[t >= zt._RS_MIN_T]
        assert t.size > 29000 and (np.diff(t) < 0).any()
        assert np.array_equal(zt._z_riemann_siegel(t)[0], _masked_riemann_siegel(t))

    def test_riemann_siegel_coefficients_match_generator(self):
        tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "riemann_siegel_coefficients.py")
        proc = subprocess.run([sys.executable, tool], check=True, timeout=120,
                              capture_output=True, text=True)
        generated = {}
        exec(proc.stdout, generated)
        assert generated["_RS_COEFFS"] == zt._RS_COEFFS


def _write_table(path, ts):
    path.write_text("".join(f"{float(t)!r}\n" for t in ts))
    return str(path)


class TestIngestZeros:
    def test_valid_table(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("# header\n14.134725141734694\n21.022039638771555\n")
        table = ingest_zeros(str(f))
        assert len(table) == 2
        assert table.residuals.max() < 1e-6

    @pytest.mark.parametrize("line", [
        "14.134725141734694", "17.25", "21", "21.", ".5", "14.10", "1e3", "1.5e3", "1.5E+3",
        "2.25e-2", "+14.1347", "-3.5", "+1.5E-4", "1_000.000_5", "1_4.1e1_0",
        "\u0661\u0664.\u0661\u0663", "\uff11\uff14.\uff12\uff15e2", "1e\u0663",
        "\u0967\u096a.\u0967\u0969E-\u0967",
    ])
    def test_last_digit_exponent_matches_decimal(self, line):
        assert float(line)  # a line ingest_zeros reads
        assert zt._last_digit_exponent(line) == Decimal(line).as_tuple().exponent

    def test_sign_change_bracket_is_half_the_last_digit(self, tmp_path, monkeypatch):
        # Z is taken at the points t - delta, t + delta of the per-line form
        # delta = max(1e-6, 0.5 * 10^e), e the last printed digit's exponent, to the bit
        lines = ["14.13472514", "17.25", "21.02204", "2.5e1", "3.2935e1", "37.6", "40.918719012147"]
        f = tmp_path / "zeros.txt"
        f.write_text("".join(line + "\n" for line in lines))
        seen = []
        monkeypatch.setattr(zt, "hardy_z", lambda t: seen.append(t) or (np.ones_like(t),) * 2)
        ingest_zeros(str(f))
        ts = np.array([float(line) for line in lines])
        delta = np.array([max(zt._DELTA_MIN, 0.5 * 10.0 ** Decimal(line).as_tuple().exponent)
                          for line in lines])
        assert seen[0].tobytes() == np.concatenate([ts - delta, ts + delta]).tobytes()

    @pytest.mark.parametrize("max_zeros", [100, 2000, 5000, None])
    def test_byte_read_matches_line_loop_on_bundled_table(self, max_zeros):
        path = bundled_zeros_path()
        with open(path, "rb") as fh:
            fast = zt._read_bytes(fh.read(), max_zeros)
        assert fast is not None  # the bundled table takes the array route
        ts, exponents = zt._read_lines(path, max_zeros)
        assert fast[0].tobytes() == ts.tobytes()
        assert fast[1].tolist() == exponents.tolist()

    # (text, whether the array route reads it): every table either route reads
    # gives the same ordinates and exponents; the rest go through the loop
    _TABLES = {
        "17+ digits": ("14.1347251417346937904572519835625\n"
                       "21.022039638771554992628479593896902777334\n", True),
        "exponent forms": ("2.5e1\n3.2935E+1\n375.86178158825671e-1\n4.0918719012147495e1\n5E1\n6.e1\n"
                           ".7e2\n", True),
        # 1 + 2^-53 exactly, halfway between 1 and the next double, rounds to even;
        # a digit more rounds up; then a halfway case of 2^53 + 1
        "halfway": ("1.00000000000000011102230246251565404236316680908203125\n"
                    "1.000000000000000111022302462515654042363166809082031251\n"
                    "9007199254740993\n9007199254740993.000000000000001\n", True),
        "comments and blanks mid-file": ("# a\n\n14.134725141734694\n  # b\n\n   21.022039638771555  \n"
                                         "\t25.010857580145689\t\n# c _ d\n  \n26\n30.42e0", True),
        "signs": ("+14.1347\n+2.1022039638771555e+1\n25.0108575801456887e-0\n", True),
        "underscores": ("14.134_725\n21.022\n", False),
        "underscore in an exponent": ("14.134725\n2.1022e0_1\n", False),
        "non-ASCII digits": ("١٤.١٣\n21.022\n", False),
        "CRLF": ("14.134725141734694\r\n21.022039638771555\r\n", False),
        "form feed": ("14.134725141734694\x0c\n21.02\n", False),
        "negative": ("-14.1347\n21.02\n", False),
    }

    @pytest.mark.parametrize("name", list(_TABLES))
    def test_byte_read_matches_line_loop_on_adversarial_lines(self, tmp_path, name):
        text, fast_route = self._TABLES[name]
        f = tmp_path / "zeros.txt"
        f.write_bytes(text.encode("utf-8"))
        fast = zt._read_bytes(f.read_bytes(), None)
        assert (fast is not None) == fast_route
        if fast is None:
            return
        ts, exponents = zt._read_lines(str(f), None)
        assert fast[0].tobytes() == ts.tobytes()
        assert fast[1].tolist() == exponents.tolist()
        assert exponents.tolist() == [Decimal(line.strip()).as_tuple().exponent for line in text.splitlines()
                                      if line.strip() and not line.strip().startswith("#")]

    @pytest.mark.parametrize("text, message", [
        ("# h\n\n14.134725141734694\n  abc  \n", ":4: unparsable ordinate 'abc'"),
        ("# h\n21.022039638771555\n\n14.134725141734694\n", ":4: descending ordinate 14.134725141734695"),
        ("14.134725141734694\n# h\n14.134725141734694\n", ":3: duplicate ordinate 14.134725141734695"),
        ("# h\n\n0\n", ":3: ordinates must be positive"),
        ("14.134725141734694\n  nan\n", ":2: non-finite ordinate 'nan'"),
        ("14.134725141734694\n1_4\n", ":2: descending ordinate 14.0"),
        ("14.134725141734694\r21.02\rx\r", ":3: unparsable ordinate 'x'"),
        ("# only a comment\n\n", ": no ordinates found"),
    ])
    def test_malformed_table_names_its_line(self, tmp_path, text, message):
        f = tmp_path / "zeros.txt"
        f.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as info:
            ingest_zeros(str(f))
        assert str(info.value) == f"{f}{message}"

    def test_z_is_taken_once_at_two_points_per_ordinate(self, monkeypatch):
        sizes = []
        hardy_z = zt.hardy_z
        monkeypatch.setattr(zt, "hardy_z", lambda t: sizes.append(len(t)) or hardy_z(t))
        table = ingest_zeros(bundled_zeros_path(), max_zeros=500)
        assert sizes == [1000] and len(table) == 500
        residuals = table.residuals  # |Z(t)| at the accepted ordinates, on first read only
        assert table.residuals is residuals and sizes == [1000, 500]

    def test_residuals_are_z_at_the_accepted_ordinates(self, tmp_path, zeros_all, zeros_2000):
        assert zeros_all.residuals.tobytes() == np.abs(zt.hardy_z(zeros_all.ts)[0]).tobytes()
        ts = zeros_2000.ts.copy()
        ts[20:] += 0.3
        table = ingest_zeros(_write_table(tmp_path / "shifted.txt", ts))
        assert table.residuals.tobytes() == np.abs(zt.hardy_z(ts[:20])[0]).tobytes()
        assert [r for _, r in table.excluded] == np.abs(zt.hardy_z(ts[20:])[0]).tolist()

    def test_unparsable_line_number_reported(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725141734694\n21.022039638771555\nabc\n")
        with pytest.raises(ValueError, match=":3"):
            ingest_zeros(str(f))

    def test_descending_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("21.022039638771555\n14.134725141734694\n")
        with pytest.raises(ValueError, match="descending"):
            ingest_zeros(str(f))

    def test_duplicate_rejected(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725141734694\n14.134725141734694\n")
        with pytest.raises(ValueError, match="duplicate"):
            ingest_zeros(str(f))

    @pytest.mark.parametrize("max_zeros", [0, -3])
    def test_nonpositive_limit_rejected(self, tmp_path, max_zeros):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725141734694\n21.022039638771555\n")
        with pytest.raises(ValueError, match="max_zeros must be >= 1"):
            ingest_zeros(str(f), max_zeros=max_zeros)
        assert len(ingest_zeros(str(f), max_zeros=1)) == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_rejected(self, tmp_path, value):
        f = tmp_path / "zeros.txt"
        f.write_text(f"14.134725141734694\n{value}\n")
        with pytest.raises(ValueError, match=":2: non-finite ordinate"):
            ingest_zeros(str(f))

    def test_invalid_ordinate_excluded_and_listed(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("14.134725141734694\n17.25\n21.022039638771555\n")
        table = ingest_zeros(str(f))
        assert len(table) == 2
        assert len(table.excluded) == 1
        assert abs(table.excluded[0][0] - 17.25) < 1e-12
        assert table.excluded[0][1] == pytest.approx(abs(zt.hardy_z([17.25])[0][0]), rel=1e-12)

    def test_bundled_table_ingests_without_exclusion(self, zeros_all):
        assert len(zeros_all) == 10_000 and not zeros_all.excluded
        # |Z| does not underflow: the largest residuals sit near t = 200,
        # where the Riemann-Siegel bound is widest
        assert (zeros_all.residuals > 0.0).all() and zeros_all.residuals.max() < 1e-8

    def test_shifted_table_excluded(self, tmp_path, zeros_2000):
        ts = zeros_2000.ts.copy()
        ts[20:] += 0.3
        table = ingest_zeros(_write_table(tmp_path / "shifted.txt", ts))
        assert len(table) == 20 and len(table.excluded) == 1980
        assert [t for t, _ in table.excluded] == ts[20:].tolist()

    def test_ordinates_moved_by_1e4_excluded(self, tmp_path, zeros_2000):
        ts = zeros_2000.ts[::100] + 1e-4
        table = ingest_zeros(_write_table(tmp_path / "moved.txt", ts))
        assert len(table) == 0 and len(table.excluded) == ts.size

    def test_bundled_table_matches_generator(self, tmp_path):
        # provenance: the bundled table is what tools/generate_zeros.py writes
        tool = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "generate_zeros.py")
        out = tmp_path / "zeros5.txt"
        subprocess.run([sys.executable, tool, "5", str(out)], check=True, timeout=120,
                       stdout=subprocess.DEVNULL)

        def data_lines(path):
            with open(path, "rb") as fh:
                return [line for line in fh if not line.startswith(b"#")]

        generated = data_lines(out)
        assert len(generated) == 5
        assert generated == data_lines(bundled_zeros_path())[:5]

    def test_bundled_table_first_ordinate(self, zeros_2000):
        assert abs(zeros_2000.ts[0] - 14.134725141734694) < 1e-9
        assert zeros_2000.residuals[0] < 1e-6
        assert (np.diff(zeros_2000.ts) > 0).all()
