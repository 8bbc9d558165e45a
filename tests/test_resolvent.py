import cmath
import math
import random

import numpy as np
import pytest

from zetaumm import resolvent as rv
from zetaumm import zeta as zt
from zetaumm.resolvent import (
    ResolventModel,
    beta_contour,
    beta_pole_free,
    beta_renormalized_prime_sum,
    contour_coefficients,
    density_profile,
    gamma_log_coefficients,
    local_potential_derivative,
    local_spike_angles,
    potential_sum_local,
    resolvent,
    xi_log_series,
)
from zetaumm.zeta import NumericConsistencyError


def local_beta_series_oracle(p, order=6):
    """Taylor coefficients of z/(1-z)^2 * w/(1-w), w = p^(-(1+z)/(1-z)),
    by plain truncated power-series arithmetic (composition/convolution),
    independent of any contour quadrature."""
    n = order + 1

    def mul(a, b):
        out = np.zeros(n)
        for i, ai in enumerate(a):
            if ai:
                out[i : n] += ai * np.asarray(b[: n - i])
        return out

    # s(z) - 1 = 2z + 2z^2 + ... ; w = p^-1 * exp(-ln p * (s-1))
    sm1 = np.zeros(n)
    sm1[1:] = 2.0
    expo = np.zeros(n)
    expo[0] = 1.0
    power = np.zeros(n)
    power[0] = 1.0
    for k in range(1, n + 2):
        power = mul(power, -math.log(p) * sm1)
        expo += power / math.factorial(k)
    w = expo / p
    # geometric resummation w/(1-w) = sum_k w^k, truncated
    geo = np.zeros(n)
    wk = w.copy()
    for _ in range(80):
        geo += wk
        wk = mul(wk, w)
        if np.abs(wk).max() < 1e-18:
            break
    front = np.zeros(n)  # z/(1-z)^2 = sum m z^m
    for m in range(1, n):
        front[m] = m
    return mul(front, geo)


def local_potential_derivative_partial(p, theta, n_terms):
    """Symmetric partial sum of the pole expansion of V'(theta), an oracle
    for the closed form: (1/(2 ln p sin^2)) [1/x + sum_n 2x/(x^2 - a^2 n^2)]
    with x = cot(theta/2) and a = 2 pi/ln p."""
    x = 1.0 / math.tan(0.5 * theta)
    a = 2.0 * math.pi / math.log(p)
    n = np.arange(1, n_terms + 1)
    core = 1.0 / x + (2.0 * x / (x * x - (a * n) ** 2)).sum()
    return core / (2.0 * math.log(p) * math.sin(0.5 * theta) ** 2)


class TestResolvent:
    def test_local_value_at_origin(self):
        assert resolvent(ResolventModel("local", p=2), 0.0) == 1.0

    def test_reflection_examples(self):
        z = 0.3 + 0.2j
        model = ResolventModel("local", p=2)
        val = resolvent(model, z) + resolvent(model, 1.0 / z)
        assert abs(val - 1.0) < 1e-12

    def test_gamma_place_small_z_limit(self):
        assert resolvent(ResolventModel("gamma"), 0.0) == 1.0
        assert abs(resolvent(ResolventModel("gamma"), 1e-8) - 1.0) < 1e-7

    @pytest.mark.parametrize("model", [ResolventModel("local", p=2), ResolventModel("local", p=3),
                                       ResolventModel("local", p=5), ResolventModel("gamma")])
    def test_reflection_on_random_annulus(self, model):
        rng = random.Random(7 + (model.p or 0))
        for _ in range(100):
            r = rng.uniform(0.1, 0.9)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            val = resolvent(model, z) + resolvent(model, 1.0 / z)
            assert abs(val - 1.0) < 1e-10

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            resolvent(ResolventModel("local", p=2), complex(math.cos(1.0), math.sin(1.0)))

    def test_branch_read_off_modulus(self):
        model = ResolventModel("local", p=2)
        assert resolvent(model, 1.5) == 1.0 - resolvent(model, 1.0 / 1.5)
        with pytest.raises(ValueError):
            resolvent(model, -1.0)

    def test_shifted_and_xi_have_no_pointwise_resolvent(self):
        # both have coefficients only (beta_contour), on either branch
        for model in (ResolventModel("shifted", s0=1.5), ResolventModel("xi")):
            for z in (0.4 - 0.1j, 1.0 / (0.4 - 0.1j)):
                with pytest.raises(ValueError, match=f"the {model.kind} model has coefficients only"):
                    resolvent(model, z)

    @pytest.mark.parametrize("model", [ResolventModel("local", p=2), ResolventModel("gamma")],
                             ids=lambda m: m.kind)
    def test_outside_branch_is_the_reflection_not_the_continuation(self, model):
        # at this z the closed form continued past |z| = 1, 1 + g(z), lies
        # more than 2 away from the reflection 1 - (1 + g(1/z))
        import mpmath as mp

        g = {"local": _local_fluctuation, "gamma": _gamma_fluctuation}[model.kind]
        z = mp.mpc(1.7, 0.4)
        reflected = complex(-g(1 / z))
        assert abs(resolvent(model, complex(z)) - reflected) < 1e-13
        assert abs(complex(1 + g(z)) - reflected) > 2.0

    def test_model_preconditions(self):
        for kind, p, s0 in (("local", None, None), ("local", 4, None), ("shifted", None, None),
                            ("shifted", None, 0.5), ("shifted", None, 0.3), ("nope", None, None),
                            ("gamma", 2, None), ("shifted", 2, 1.5), ("xi", 2, None)):
            with pytest.raises(ValueError):
                ResolventModel(kind, p=p, s0=s0)


def cauchy_sum_oracle(g, M, r=0.5, Q=256):
    """[z^m] g for m = 1..M by the Q-node Cauchy sum on |z| = r in 40-digit
    mpmath arithmetic: the aliasing error ~ r^Q is far below binary64."""
    import mpmath as mp

    with mp.workdps(40):
        z = [r * mp.expjpi(mp.mpf(2 * q) / Q) for q in range(Q)]
        vals = [g(zq) for zq in z]
        return np.array([complex(mp.fsum(v * zq**-m for v, zq in zip(vals, z)) / Q)
                         for m in range(1, M + 1)])


def _local_fluctuation(z, p=2):
    import mpmath as mp

    w = mp.power(p, -(1 + z) / (1 - z))
    return z / (1 - z) ** 2 * w / (1 - w)


def _gamma_fluctuation(z):
    import mpmath as mp

    s = (1 + z) / (1 - z)
    return z / (1 - z) ** 2 * (mp.digamma(s / 2) - mp.log(mp.pi)) / 2


def shifted_series_oracle(mu, M):
    """[z^m] z/(1-z)^2 zeta'/zeta(mu + 1/2 + z/(1-z)) for m = 1..M by 40-digit
    power-series arithmetic, no contour: zeta's Taylor series at mu + 1/2
    (mpmath derivatives), its log-derivative, composed with w = z/(1-z)
    ([z^n] w^k = C(n-1, k-1)), times z/(1-z)^2 ([z^n] = n)."""
    import mpmath as mp

    with mp.workdps(40):
        a = mp.mpf(mu) + mp.mpf(1) / 2
        c = [mp.zeta(a, 1, k) / mp.factorial(k) for k in range(M + 1)]
        r = []  # zeta'/zeta: r c = zeta' term by term
        for k in range(M):
            r.append(((k + 1) * c[k + 1] - mp.fsum(c[j] * r[k - j] for j in range(1, k + 1))) / c[0])
        g = [r[0]] + [mp.fsum(r[k] * mp.binomial(n - 1, k - 1) for k in range(1, n + 1))
                      for n in range(1, M)]
        return np.array([float(mp.fsum(j * g[m - j] for j in range(1, m + 1))) for m in range(1, M + 1)])


def _shifted_fluctuation(z, s0=1.5):
    import mpmath as mp

    s = s0 + (1 + z) / (2 * (1 - z))
    return z / (1 - z) ** 2 * mp.zeta(s, 1, 1) / mp.zeta(s)


class TestBetaContour:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_leading_coefficient(self, p):
        bs = beta_contour(ResolventModel("local", p=p), 20, 0.5, 512)
        assert abs(bs.coefficients[0] - 1.0 / (p - 1)) < 1e-9

    @pytest.mark.parametrize("p", [2, 3])
    def test_series_against_power_series_oracle(self, p):
        oracle = local_beta_series_oracle(p, order=6)
        bs = beta_contour(ResolventModel("local", p=p), 6, 0.5, 512)
        for n in range(1, 7):
            assert abs(bs.coefficients[n - 1] - oracle[n]) < 1e-10

    def test_radius_independence(self):
        b4 = beta_contour(ResolventModel("local", p=2), 20, 0.4, 512)
        b7 = beta_contour(ResolventModel("local", p=2), 20, 0.7, 512)
        assert np.abs(b4.coefficients - b7.coefficients).max() < 1e-9

    def test_imaginary_parts_negligible(self):
        for model in (ResolventModel("local", p=3), ResolventModel("gamma")):
            bs = beta_contour(model, 20, 0.5, 512)
            assert np.abs(bs.coefficients.imag).max() < 1e-9

    def test_node_count_validated(self):
        with pytest.raises(ValueError):
            beta_contour(ResolventModel("local", p=2), 5, 0.5, 100)
        with pytest.raises(ValueError):
            beta_contour(ResolventModel("local", p=2), 5, 0.5, 32)

    @pytest.mark.parametrize("model, g", [
        (ResolventModel("gamma"), _gamma_fluctuation),
        (ResolventModel("shifted", s0=1.5), _shifted_fluctuation),
    ], ids=["gamma", "shifted"])
    def test_accuracy_at_the_rounding_floor(self, model, g):
        got = beta_contour(model, 20, 0.5, 512).coefficients
        assert np.abs(got - cauchy_sum_oracle(g, 20)).max() <= 1e-11

    def test_log_series_routes_report_node_doubling(self):
        series = beta_contour(ResolventModel("xi"), 10, 0.5, 512)
        assert 0.0 < series.doubling_error < 1e-9

    def test_log_route_with_zero_inside_second_radius_raises(self):
        # ln(1 - z/0.6): analytic on |z| = 0.5, but the guard's second
        # radius 0.7 encloses the zero, so the logarithm winds there
        f = lambda z: 1.0 - z / 0.6
        with pytest.raises(NumericConsistencyError, match="winds .* zeros or poles inside"):
            contour_coefficients(f, 8, 0.5, 256, log=True)
        c = contour_coefficients(f, 8, 0.3, 256, log=True)  # second radius 0.42
        m = np.arange(1, 9)
        assert np.abs(c.coefficients + 1.0 / (m * 0.6**m)).max() < 1e-12

    def test_log_route_names_an_under_resolved_phase(self):
        # ln xi(1/(1-z)) at r = 0.99: its zeros lie on |z| = 1, but the
        # phase moves by about 3 rad between neighbouring nodes, so the
        # winding is the nodes' and the message must not blame a zero
        with pytest.raises(NumericConsistencyError, match="winds .* under-resolved") as err:
            rv.xi_log_series(10, 0.99, 512)
        assert "zeros or poles" not in str(err.value)

    def test_radius_guard_raises_on_a_pole_inside_second_radius(self):
        with pytest.raises(NumericConsistencyError, match="radii"):
            contour_coefficients(lambda z: 1.0 / (z - 0.6), 8, 0.5, 256)


class TestPotentialSum:
    def test_zero_at_origin(self):
        assert potential_sum_local(2, 0.0) == 0.0

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_closed_form_matches_series(self, p):
        bs = beta_contour(ResolventModel("local", p=p), 40, 0.5, 512)
        rng = random.Random(11 * p)
        for _ in range(20):
            r = rng.uniform(0.05, 0.6)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            z = r * complex(math.cos(phi), math.sin(phi))
            series = sum(bs.coefficients[n - 1] * z**n / n for n in range(1, 41))
            assert abs(series - potential_sum_local(p, z)) < 1e-8

    def test_real_on_real_axis(self):
        val = potential_sum_local(5, -0.5)
        assert abs(val.imag) < 1e-14

    def test_open_disk_only(self):
        with pytest.raises(ValueError):
            potential_sum_local(2, 1.2)


class TestDensityProfile:
    def test_first_spike_angle(self):
        th1 = local_spike_angles(2, 1)
        assert abs(th1 - 0.2197470331732683) < 1e-12

    def test_spikes_match_conformal_pole_images(self):
        for p in (2, 3, 5):
            ns = np.arange(-5, 6)
            for th, n in zip(local_spike_angles(p, ns), ns):
                if n == 0:
                    assert abs(th - math.pi) < 1e-12
                    continue
                # pole image z = (s-1)/(s+1) on the circle, angle in (0, 2pi)
                s = 2j * math.pi * n / math.log(p)
                z = (s - 1.0) / (s + 1.0)
                assert abs(abs(z) - 1.0) < 1e-14
                assert abs(cmath.phase(z) % (2.0 * math.pi) - th) < 1e-12

    def test_weight_constant(self):
        prof = density_profile(3, 4)
        assert abs(prof.spike_weight - math.pi / math.log(3)) < 1e-15

    def test_closed_form_vs_partial_sum(self):
        closed = local_potential_derivative(3, np.array([2.0]))[0]
        partial = local_potential_derivative_partial(3, 2.0, 10**5)
        assert abs(closed - partial) < 1e-6

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_vprime_is_minus_dv_in_the_abel_limit(self, p):
        # V(theta) = 2 Re F(e^{i theta}), F = potential_sum_local, and
        # dF/dtheta = i (R_<(z) - 1), so -V'(theta) = 2 Im R_< as r -> 1: the
        # closed-form resolvent shares neither the cot resummation nor its sign
        model = ResolventModel("local", p=p)
        for theta in (0.7, 1.9, 2.8, 3.6, 4.4, 5.5):
            abel = 2.0 * resolvent(model, (1.0 - 1e-9) * cmath.exp(1j * theta)).imag
            assert local_potential_derivative(p, theta) == pytest.approx(abel, rel=1e-6)

    def test_grid_near_spike_rejected(self):
        # spike -6 of p = 136308191 lies 3.6e-11 from grid point 58
        theta = density_profile(2, 3).theta
        assert abs(theta[58] - local_spike_angles(136308191, -6)) < 1e-10
        with pytest.raises(ValueError, match=f"grid point {theta[58]} sits on a density spike"):
            density_profile(136308191, 3)

    def test_non_prime_rejected(self):
        for p in (1, 4):
            with pytest.raises(ValueError, match="not a prime"):
                density_profile(p, 3)


def laguerre_table(M, x):
    """L^(1)_m(x) for m = 0..M-1, stacked into an M x len(x) table by the
    three-term recurrence."""
    out = np.empty((M,) + np.shape(x))
    out[0] = 1.0
    if M > 1:
        out[1] = 2.0 - x
    for m in range(2, M):
        out[m] = ((2.0 * m - x) * out[m - 1] - m * out[m - 2]) / m
    return out


def _reference_prime_sum(M, mu, P_max, N_max=60):
    """The stacked-table prime sum that beta_renormalized_prime_sum
    replaced (an M x pi(P) Laguerre table, boolean-mask prime selections),
    kept as the bit-for-bit reference of the row-by-row sum."""
    p_arr = zt.sieve_primes(P_max).astype(float)
    logp_all = np.log(p_arr)
    coeffs = np.zeros(M)
    sigma = mu + 0.5
    for n in range(1, N_max + 1):
        cut = math.exp(min(48.0 / (n * sigma), math.log(P_max) + 1.0))
        logp = logp_all[p_arr <= cut]
        if logp.size == 0:
            break
        damp = np.exp(-n * sigma * logp)
        lag = laguerre_table(M, n * logp)
        coeffs -= (logp * damp * lag).sum(axis=1)
        if np.abs(logp * damp).max() * np.abs(lag).max() < 1e-18:
            break
    return (coeffs + rv._prime_tail_integrals(M, mu, float(P_max))).astype(complex)


def _prime_sum_magnitude(M, mu, P_max, N_max=60):
    """sum |ln p p^(-n sigma) L^(1)_(m-1)(n ln p)| over the prime powers the
    prime sum takes (those of _reference_prime_sum), for m = 1..M."""
    p_arr = zt.sieve_primes(P_max).astype(float)
    logp_all = np.log(p_arr)
    out = np.zeros(M)
    sigma = mu + 0.5
    for n in range(1, N_max + 1):
        logp = logp_all[p_arr <= math.exp(min(48.0 / (n * sigma), math.log(P_max) + 1.0))]
        if logp.size == 0:
            break
        out += np.abs(logp * np.exp(-n * sigma * logp) * laguerre_table(M, n * logp)).sum(axis=1)
    return out


class TestRenormalized:
    def test_prime_sum_matches_shifted_contour(self):
        sh = beta_contour(ResolventModel("shifted", s0=1.5), 10, 0.5, 1024)
        ps = beta_renormalized_prime_sum(10, 1.5, 10**6)
        assert np.abs(ps.coefficients - sh.coefficients).max() < 1e-6

    def test_prime_sum_at_spec_cutoff(self):
        # P = 1e5 leaves a measured 1.2e-6 fluctuation gap to the contour
        sh = beta_contour(ResolventModel("shifted", s0=1.5), 10, 0.5, 1024)
        ps = beta_renormalized_prime_sum(10, 1.5, 10**5)
        assert np.abs(ps.coefficients - sh.coefficients).max() < 2e-6

    @pytest.mark.parametrize("mu, P", [(1.2, 2.0), (1.2, 1e7), (1.7, 1e6), (2.5, 1e6)])
    def test_prime_tail_against_mpmath_quadrature(self, mu, P):
        import mpmath

        M = 20
        with mpmath.workdps(20):
            a, u0 = mpmath.mpf(mu) - 0.5, mpmath.log(P)
            want = np.array([float(mpmath.quad(
                lambda u: -mpmath.exp(-a * u) * mpmath.laguerre(m - 1, 1, u),
                [u0, u0 + 10, u0 + 40, u0 + 100, mpmath.inf])) for m in range(1, M + 1)])
        got = rv._prime_tail_integrals(M, mu, P)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("M", [1, 2, 10, 25])
    def test_laguerre_sums_against_mpmath(self, M):
        import mpmath

        rng = np.random.default_rng(M)
        x = np.concatenate([[0.0, 60.0], rng.uniform(0.0, 60.0, 300)])
        w = rng.standard_normal(x.size)
        got = rv._laguerre_alpha1_sums(M, x, w)
        with mpmath.workdps(40):
            terms = [[wi * mpmath.laguerre(m, 1, xi) for xi, wi in zip(x, w)] for m in range(M)]
            want = np.array([float(mpmath.fsum(row)) for row in terms])
            scale = np.array([float(mpmath.fsum(map(abs, row))) for row in terms])
        # measured <= 0.52 eps of sum |w_i L_m(x_i)| at M = 25
        assert got.shape == (M,)
        assert (np.abs(got - want) <= 1e-14 * scale).all()

    @pytest.mark.parametrize("M, mu, P", [
        (10, 1.5, 10**6), (20, 1.05, 10**5), (3, 2.4, 2), (1, 1.5, 1000), (10, 1.5, 5 * 10**4),
    ])
    def test_prime_sum_bit_identical_to_table_reference(self, M, mu, P):
        got = beta_renormalized_prime_sum(M, mu, P).coefficients
        assert np.array_equal(got, _reference_prime_sum(M, mu, P))

    def test_prime_sum_memory_does_not_grow_with_M(self):
        import tracemalloc

        pi_p = 78498  # primes up to 10^6
        tracemalloc.start()
        try:
            beta_renormalized_prime_sum(20, 1.7, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * pi_p

    @pytest.mark.parametrize("M", [1, 10, 25])
    @pytest.mark.parametrize("mu", [1.05, 1.5, 2.4])
    def test_prime_sum_in_many_chunks_matches_table_reference(self, monkeypatch, M, mu):
        # pi(10^5) = 9592 primes: level 1 runs as ten chunks, the last one short
        monkeypatch.setattr(rv, "_PRIME_CHUNK", 1000)
        got = beta_renormalized_prime_sum(M, mu, 10**5).coefficients.real
        want = _reference_prime_sum(M, mu, 10**5).real
        # both add the same rounded terms in two orders.  Each is within
        # (S + 32) eps sum|terms| of their exact sum: S <= 100 partial sums
        # (per chunk or per level) accumulate in sequence, and numpy's
        # pairwise sum of <= 10^4 terms adds <= 16 in sequence per block of
        # 128, then ceil(log2(10^4 / 128)) = 7 levels.  Both then add the
        # same tail, one more rounding of the result each
        bound = 2 * (100 + 32) * zt.EPS * _prime_sum_magnitude(M, mu, 10**5) + 2 * zt.EPS * np.abs(want)
        assert (np.abs(got - want) <= bound).all()

    def test_prime_sum_memory_does_not_grow_with_P(self):
        import tracemalloc

        pi_p = 664579  # primes up to 10^7: 6 chunks at level 1
        tracemalloc.start()
        try:
            beta_renormalized_prime_sum(10, 1.7, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the ln p table and five chunk-sized arrays (1 + 5 * 2^17 / pi_p =
        # 1.99x) stay below the log step's 2.01x; a separate product row made
        # it 2.18x, a stale Laguerre row kept between chunks 2.38x, and one
        # pass per level held seven pi(P)-length arrays (7.0x)
        assert peak <= 2.1 * 8 * pi_p

    def test_prime_sum_requires_convergent_mu(self):
        with pytest.raises(ValueError, match="sigma"):
            beta_renormalized_prime_sum(4, 1.0)

    # 5/6 puts zeta's pole z* = -(2 mu - 1)/(3 - 2 mu) on a node of |z| = 0.5
    @pytest.mark.parametrize("mu", [0.55, 0.6, 0.75, 5 / 6, 0.9, 1.0, 1.5, 3.0])
    def test_shifted_route_within_its_bar_of_series_oracle(self, mu):
        # beta-ren's circle, |z| = 0.5 with 1024 nodes.  Below mu = 1 the
        # coefficients grow like |q|^m, q = (3 - 2 mu)/(2 mu - 1) (beta_20 =
        # 3.8e25 at mu = 0.55), and only the bar's rounding term for the
        # closed-form pole part (-q)^m covers what rounding moves them by
        got = beta_contour(ResolventModel("shifted", s0=mu), 20, 0.5, 1024)
        err = np.abs(got.coefficients - shifted_series_oracle(mu, 20))
        assert (err <= got.error_estimates).all()

    def test_shifted_radius_consistency(self):
        a = beta_contour(ResolventModel("shifted", s0=1.5), 10, 0.4, 1024)
        b = beta_contour(ResolventModel("shifted", s0=1.5), 10, 0.6, 1024)
        assert np.abs(a.coefficients - b.coefficients).max() < 1e-9

    def test_xi_decomposition_identity(self):
        M = 20
        Xi = xi_log_series(M, 0.5, 1024).coefficients
        R = gamma_log_coefficients(M)
        m = np.arange(1, M + 1)
        G = beta_pole_free(0.5, M, 0.5, 1024).coefficients / m
        assert np.abs(Xi - (2.0 / m + R + G)).max() < 1e-8

    def test_appendix_comparison_relation(self):
        M = 20
        Xi = xi_log_series(M, 0.5, 1024).coefficients
        bsym = beta_contour(ResolventModel("xi"), M, 0.5, 1024)
        assert np.abs(-2.0 * math.log(2.0) * bsym.coefficients - Xi).max() < 1e-12
        assert bsym.radius_error < 1e-9

    def test_leading_log_coefficients_analytic_anchors(self):
        # [z] ln(z zeta(1/(1-z))) = euler_gamma - 1 from the Laurent
        # expansion at the pole, the pole-free shifted route's [z] at
        # mu = 1/2, and [z] ln zeta_R(1/(1-z)) evaluates to
        # -ln(pi)/2 + psi(1/2)/2 with psi(1/2) = -euler_gamma - 2 ln 2
        g1 = beta_pole_free(0.5, 1, 0.5, 1024).coefficients[0]
        assert abs(g1 - (np.euler_gamma - 1.0)) < 1e-10
        r1 = gamma_log_coefficients(1)[0]
        expected_r1 = -0.5 * math.log(math.pi) - 0.5 * np.euler_gamma - math.log(2.0)
        assert abs(r1 - expected_r1) < 1e-10

    def test_xi_series_generates_li_coefficients(self, li_oracle_20):
        # [z^m] ln xi(1/(1-z)) = lambda_m / m against the Stieltjes-constant oracle
        m = np.arange(1, 21)
        assert np.abs(m * xi_log_series(20, 0.5, 1024).coefficients.real - li_oracle_20).max() < 1e-8

    def test_route_preconditions(self):
        with pytest.raises(ValueError):
            beta_contour(ResolventModel("shifted", s0=0.5), 5)
        with pytest.raises(ValueError):
            beta_renormalized_prime_sum(5, 0.9)

    def test_gamma_two_map_consistency(self):
        # [z^m] ln zeta_R(full map) reproduced from the half-map series R_k
        # through w = 2z/(1+z): A_m = sum_k R_k 2^k (-1)^(m-k) C(m-1, m-k),
        # and beta^gamma_m = (m/2) A_m
        M = 10
        bg = beta_contour(ResolventModel("gamma"), M, 0.5, 512)
        R = gamma_log_coefficients(M)
        for m in range(1, M + 1):
            A = 2.0 / m * bg.coefficients[m - 1]
            S = sum(
                R[k - 1] * 2.0**k * (-1) ** (m - k) * math.comb(m - 1, m - k)
                for k in range(1, m + 1)
            )
            assert abs(A - S) < 1e-8

