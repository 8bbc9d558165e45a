"""Acceptance gate: every exit criterion at its stated tolerance, timed
against its stated budget, one pass/fail line per criterion."""

import math
import random
import time

import numpy as np

from test_resolvent import local_beta_series_oracle

from zetaumm import ensemble, resolvent, traceform
from zetaumm import zeta as zt
from zetaumm.padics import haar_integrate_norm_power
from zetaumm.wavelets import WaveletIndex, gram_matrix, vladimirov_apply


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.budget
        print(f"ACCEPTANCE {self.label}: {'PASS' if ok else 'FAIL'} "
              f"({elapsed:.2f}s / budget {self.budget}s)")
        if exc_type is None:
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s ({elapsed:.2f}s)"
        return False


def test_criterion_01_resolvent_reflection():
    models = [resolvent.ResolventModel("local", p=p) for p in (2, 3, 5)]
    models.append(resolvent.ResolventModel("gamma"))
    with _Timer("1 resolvent reflection", 1.0):
        rng = random.Random(101)
        for model in models:
            for _ in range(100):
                r = rng.uniform(0.1, 0.9)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                z = r * complex(math.cos(phi), math.sin(phi))
                val = resolvent.resolvent(model, z) + resolvent.resolvent(model, 1.0 / z)
                assert abs(val - 1.0) < 1e-10


def test_criterion_02_leading_betas_and_radius_independence():
    with _Timer("2 beta_1 = 1/(p-1) and radius independence", 5.0):
        for p in (2, 3, 5):
            series = resolvent.beta_contour(resolvent.ResolventModel("local", p=p), 20, 0.5, 512)
            assert abs(series.coefficients[0] - 1.0 / (p - 1)) < 1e-9
            oracle = local_beta_series_oracle(p, order=6)
            for n in range(1, 7):
                assert abs(series.coefficients[n - 1] - oracle[n]) < 1e-9
            a = resolvent.beta_contour(resolvent.ResolventModel("local", p=p), 20, 0.4, 512)
            b = resolvent.beta_contour(resolvent.ResolventModel("local", p=p), 20, 0.7, 512)
            assert np.abs(a.coefficients - b.coefficients).max() < 1e-9


def test_criterion_03_closed_form_potential():
    with _Timer("3 closed-form potential vs series", 5.0):
        for p in (2, 3, 5):
            series = resolvent.beta_contour(resolvent.ResolventModel("local", p=p), 40, 0.5, 512)
            rng = random.Random(300 + p)
            for _ in range(20):
                rr = rng.uniform(0.05, 0.6)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                z = rr * complex(math.cos(phi), math.sin(phi))
                partial = sum(series.coefficients[n - 1] * z**n / n for n in range(1, 41))
                assert abs(partial - resolvent.potential_sum_local(p, z)) < 1e-8


def test_criterion_04_vladimirov_and_gram():
    with _Timer("4 Vladimirov kernel/spectral and Gram identity", 30.0):
        for p in (2, 3):
            for alpha in (1.0, 2.0, 1.0 + 1.0j):
                for scale in (0, 1):
                    res = vladimirov_apply(WaveletIndex(p, scale), alpha)
                    assert res.residual / abs(res.eigenvalue) < 1e-6
        for p in (2, 3, 5):
            G = gram_matrix(p, 12)
            assert np.abs(G - np.eye(12)).max() < 1e-12


def test_criterion_05_haar_integral():
    from fractions import Fraction

    with _Timer("5 Haar shell sum", 1.0):
        res = haar_integrate_norm_power(2, 2, 40)
        assert res.closed_form == Fraction(1, 6)
        assert abs(res.value - Fraction(1, 6)) <= Fraction(1, 2**80)
        for p in (2, 3, 5):
            for s in (1, 2, 1.5 + 1.0j):
                for K in (1, 10, 30):
                    out = haar_integrate_norm_power(p, s, K)
                    if isinstance(out.value, Fraction):
                        assert abs(out.value - out.closed_form) <= out.tail_bound
                    else:
                        err = abs(complex(out.value) - complex(out.closed_form))
                        assert err <= float(out.tail_bound)


def test_criterion_06_explicit_formula(zeros_2000):
    with _Timer("6 explicit formula at x = 10.5", 5.0):
        direct = zt.chebyshev_psi_direct(10.5)
        assert abs(direct - 7.832015) < 1e-6
        e100 = abs(zt.chebyshev_psi_explicit(10.5, zeros_2000.ts[:100]) - direct)
        assert e100 < 0.1
        # doubling the zero count tightens the truncation: the reported
        # tail estimate shrinks, and so does the worst error over the two
        # monitored sample points (the raw pointwise sum oscillates)
        est100 = zt.explicit_tail_estimate(10.5, float(zeros_2000.ts[99]))
        est200 = zt.explicit_tail_estimate(10.5, float(zeros_2000.ts[199]))
        assert est200 < est100
        d2 = zt.chebyshev_psi_direct(100.5)
        worst100 = max(e100, abs(zt.chebyshev_psi_explicit(100.5, zeros_2000.ts[:100]) - d2))
        worst200 = max(
            abs(zt.chebyshev_psi_explicit(10.5, zeros_2000.ts[:200]) - direct),
            abs(zt.chebyshev_psi_explicit(100.5, zeros_2000.ts[:200]) - d2),
        )
        assert worst200 < worst100


def test_criterion_07_li_coefficients(zeros_2000):
    with _Timer("7 Li coefficients, two routes", 30.0):
        a = zt.li_coefficients_cauchy(10)
        b = zt.li_coefficients_zero_sum(10, zeros_2000.ts, 2000)
        assert np.abs(a.values - b.values).max() < 1e-3
        assert (a.values > 0).all()
        assert (b.values > 0).all()


def test_criterion_08_renormalized():
    with _Timer("8 renormalized coefficient routes", 60.0):
        sh = resolvent.beta_contour(resolvent.ResolventModel("shifted", s0=1.5), 10, 0.5, 1024)
        ps = resolvent.beta_renormalized_prime_sum(10, 1.5, 10**6)
        assert np.abs(ps.coefficients - sh.coefficients).max() < 1e-6
        M = 20
        Xi = resolvent.xi_log_series(M, 0.5, 1024).coefficients
        R = resolvent.gamma_log_coefficients(M)
        m = np.arange(1, M + 1)
        G = resolvent.beta_pole_free(0.5, M, 0.5, 1024).coefficients / m  # the shifted route at mu = 1/2
        assert np.abs(Xi - (2.0 / m + R + G)).max() < 1e-8
        bsym = resolvent.beta_contour(resolvent.ResolventModel("xi"), M, 0.5, 1024)
        assert np.abs(-2.0 * math.log(2.0) * bsym.coefficients - Xi).max() < 1e-12


def test_criterion_09_trace_formula(zeros_2000):
    with _Timer("9 trace formula", 10.0):
        primes = zt.PrimeTable.build(10**4)
        rep = traceform.trace_formula_check(1.0, zeros_2000, 100, primes)
        assert abs(rep.residual) < 1e-3
        assert abs(rep.residual) <= rep.total_bound


def test_criterion_10_gue_statistics():
    with _Timer("10 GUE statistics", 600.0):
        cue = ensemble.sample_cue(40, 4000, seed=7)
        rep = ensemble.pair_correlation(cue, bins=50, r_max=5.0)
        assert rep.l2_distance < 0.05

        run = ensemble.plaquette_mc(
            32, [0.25], sweeps=2000, burn_in=300, seed=17, chains=8, bins=64
        )
        centers = 0.5 * (run.bin_edges[1:] + run.bin_edges[:-1])
        model = ensemble.plaquette_model_density(centers, [0.25])
        assert np.abs(run.density - model).max() < 0.02
        assert ensemble.acceptance_in_band(run)

        rng = np.random.Generator(np.random.PCG64(23))
        poisson = np.sort(rng.uniform(0.0, 10_000.0, 10_000))
        prep = ensemble.pair_correlation(poisson, bins=50, r_max=5.0)
        assert prep.l2_distance > 0.2
        assert prep.l2_distance_to(np.ones(50)) < 0.15


def test_criterion_11_zero_table_validation(tmp_path):
    with _Timer("11 zero-table ingestion validates t_1", 1.0):
        path = tmp_path / "t1.txt"
        path.write_text("14.134725\n")
        table = zt.ingest_zeros(str(path))
        assert len(table) == 1
        assert table.residuals[0] < 1e-6
