import hashlib
from fractions import Fraction

import numpy as np
import pytest

from zetaumm.padics import ball_coset_representatives
from zetaumm.wavelets import (
    WaveletIndex,
    gram_matrix,
    inner_product,
    kozyrev_eval,
    restricted_index,
    vladimirov_apply,
    vladimirov_eigenvalue,
    vladimirov_kernel_apply,
)


class TestKozyrevEval:
    def test_mother_wavelet_at_one_base_2(self):
        idx = WaveletIndex(2, 0)
        assert abs(kozyrev_eval(idx, 1) - (-1)) < 1e-15

    def test_vanishes_outside_support(self):
        idx = WaveletIndex(2, 0)
        assert kozyrev_eval(idx, Fraction(1, 2)) == 0

    def test_mother_wavelet_at_zero_base_3(self):
        idx = WaveletIndex(3, 0)
        assert abs(kozyrev_eval(idx, 0) - 1) < 1e-15

    def test_modulus_is_norm_factor_on_support(self):
        idx = WaveletIndex(5, -2)
        val = kozyrev_eval(idx, 25)
        assert abs(abs(val) - 5.0**1.0) < 1e-14  # p^(-n/2) with n = -2


class TestOrthonormality:
    def test_unit_norm(self):
        idx = WaveletIndex(2, 0)
        assert abs(inner_product(idx, idx) - 1) < 1e-12

    def test_distinct_scales_orthogonal(self):
        a = WaveletIndex(2, 0)
        b = WaveletIndex(2, -1)
        assert abs(inner_product(a, b)) < 1e-12

    def test_mean_zero(self):
        # coset sum over the support ball Z_3 at one past the resolution level
        idx = WaveletIndex(3, 0)
        total = sum(kozyrev_eval(idx, r) for r in ball_coset_representatives(3, Fraction(0), 0, 2))
        assert abs(total) < 1e-12

    def test_prime_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inner_product(WaveletIndex(2, 0), WaveletIndex(3, 0))

    def test_empty_gram_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            gram_matrix(2, 0)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_restricted_gram_is_identity(self, p):
        G = gram_matrix(p, 12)
        assert np.abs(G - np.eye(12)).max() < 1e-12

    @pytest.mark.parametrize("p, digest", [
        (2, "5a317b78abebdb548ab824ae5ac535223b12a79ea13be02caa061f8416e425bd"),
        (3, "bb24f2fe98d6e594b81cf8c64ed51bfcec60b03010c33874a118be4cdca3eb50"),
        (5, "ae734b86401ae8ecbf319cb1f5fa3fec32cddf4a27822cc7a658b29d6d484fb7"),
    ])
    def test_gram_pinned(self, p, digest):
        # sha256 of the Gram matrix of the general (n, m, j)-labelled
        # wavelets' coset sums; the restricted family must reproduce it
        # bit for bit (IEEE float64, x86-64 glibc libm)
        assert hashlib.sha256(np.asarray(gram_matrix(p, 12)).tobytes()).hexdigest() == digest


class TestVladimirov:
    def test_spectral_eigenvalue_examples(self):
        assert vladimirov_eigenvalue(2, 2.0, 0) == 4
        assert vladimirov_eigenvalue(3, 1.0, 1) == 1

    def test_kernel_example(self):
        res = vladimirov_apply(WaveletIndex(2, 0), 1.0)
        assert abs(res.eigenvalue - 2.0) < 1e-14
        assert res.residual < 1e-6

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 1.0 + 1.0j])
    @pytest.mark.parametrize("scale", [0, 1])
    def test_kernel_matches_spectral(self, p, alpha, scale):
        res = vladimirov_apply(WaveletIndex(p, scale), alpha)
        assert res.residual / abs(res.eigenvalue) < 1e-6

    def test_kernel_pinned(self):
        # sha256 of eigenvalue and residual over the acceptance grid (IEEE
        # float64, x86-64 glibc libm); the eigenvalues are those the general
        # (n, m, j)-labelled wavelets gave, the residuals those of the
        # expm1 form of 1 - p^(+-alpha)
        h = hashlib.sha256()
        for p in (2, 3):
            for scale in (0, 1):
                for alpha in (1.0, 2.0, 1.0 + 1.0j):
                    res = vladimirov_apply(WaveletIndex(p, scale), alpha)
                    h.update(np.array([res.eigenvalue]).tobytes())
                    h.update(np.array([res.residual]).tobytes())
        assert h.hexdigest() == "83fee1d5976400e56a25f95d2febe0051d7675fbc4c28ef650609cd143067e22"

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 1.0 + 1.0j])
    @pytest.mark.parametrize("scale", [0, 1])
    def test_kernel_vanishes_off_the_support(self, p, alpha, scale):
        # D^alpha psi = lambda psi is 0 where psi is; vladimirov_apply
        # samples only points inside the support |xi|_p <= p^scale
        idx = WaveletIndex(p, scale)
        lam = vladimirov_eigenvalue(p, alpha, scale)
        for k in (1, 2, 3):
            for a in (1, -1, p + 1):
                xi = Fraction(a, p ** (scale + k))
                assert kozyrev_eval(idx, xi) == 0
                assert abs(vladimirov_kernel_apply(idx, alpha, xi)) / abs(lam) < 1e-6

    def test_kernel_on_restricted_basis_states(self):
        for n in (1, 2, 3):
            res = vladimirov_apply(restricted_index(2, n), 1.0)
            # log_p D eigenvalue on label n is n, i.e. D^1 eigenvalue p^n
            assert abs(res.eigenvalue - 2.0**n) < 1e-12
            assert res.residual / abs(res.eigenvalue) < 1e-6

    def test_kernel_rejects_nonpositive_real_exponent(self):
        # the kernel tail diverges for Re(alpha) <= 0 (and the prefactor has
        # a pole at alpha = -1); vladimirov_eigenvalue stays available there
        with pytest.raises(ValueError):
            vladimirov_apply(WaveletIndex(2, 0), -1.0)
        with pytest.raises(ValueError):
            vladimirov_apply(WaveletIndex(2, 0), -0.5)

    def test_kernel_domain_must_cover_support(self):
        # scale 13 spreads the support to |xi| <= 2^13, past the cutoff p^12
        with pytest.raises(ValueError, match="does not cover the support"):
            vladimirov_apply(WaveletIndex(2, 13), 1.0)

    def test_composition_law_on_eigenvalues(self):
        for a1, a2 in [(1.0, 2.0), (0.5, -0.25), (1 + 1j, 1 - 1j)]:
            for n in (-2, 0, 1):
                lhs = vladimirov_eigenvalue(3, a1, n) * vladimirov_eigenvalue(3, a2, n)
                rhs = vladimirov_eigenvalue(3, a1 + a2, n)
                assert abs(lhs - rhs) < 1e-12 * abs(rhs)
