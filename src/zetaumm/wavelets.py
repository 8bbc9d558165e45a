"""Kozyrev wavelets on Q_p, their Gram matrix on the restricted basis, and
the Vladimirov derivative (closed-form eigenvalue plus integral-kernel
check).

The restricted basis H_-^(p) consists of psi_{-n+1, 0, 1} for n = 1, 2, ...
(contractions only, translation 0, j = 1); these span the mean-zero
square-integrable functions supported on Z_p.  Points of Q_p are
rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import require_prime
from .padics import Rational, additive_character, ball_coset_representatives, padic_norm


@dataclass(frozen=True)
class WaveletIndex:
    """Kozyrev label of psi_{n,0,1}: scale n, translation 0, character
    index 1, the family the restricted basis is drawn from."""

    prime: int
    scale: int

    def __post_init__(self):
        require_prime(self.prime)

    @property
    def support_level(self) -> int:
        """Support is the ball |xi|_p <= p^(-support_level).

        |p^n xi| <= 1 unwinds to |xi| <= p^n, so the level is -n:
        contractions (n <= 0) live inside Z_p.
        """
        return -self.scale

    @property
    def resolution_level(self) -> int:
        """The wavelet is locally constant on cosets of p^resolution Z_p."""
        return 1 - self.scale

    @property
    def norm_factor(self) -> float:
        return float(self.prime) ** (-0.5 * self.scale)


def restricted_index(p: int, n: int) -> WaveletIndex:
    """Basis label n >= 1 of H_-^(p): the wavelet psi_{-n+1, 0, 1}."""
    if n < 1:
        raise ValueError("restricted-basis labels are n = 1, 2, ...")
    return WaveletIndex(p, 1 - n)


def kozyrev_eval(idx: WaveletIndex, xi: Rational) -> complex:
    """psi_{n,0,1}(xi) = p^(-n/2) chi(p^(n-1) xi) 1[|p^n xi|_p <= 1].

    Modulus is exact (a power of p or zero); the phase is binary64.
    """
    v = Fraction(xi)
    p, n = idx.prime, idx.scale
    if padic_norm(Fraction(p) ** n * v, p) > 1:
        return 0.0 + 0.0j
    chi = additive_character(p, Fraction(p) ** (n - 1) * v)
    return idx.norm_factor * chi


def inner_product(a: WaveletIndex, b: WaveletIndex) -> complex:
    """<psi_a, psi_b> by exact coset-sum quadrature at level K, one past the
    finer resolution level.

    Both wavelets are locally constant at their resolution levels and both
    supports are balls around 0, so the level-K sum over the smaller ball
    is exact once K resolves both.
    """
    if a.prime != b.prime:
        raise ValueError("inner products need a common prime")
    p = a.prime
    K = max(a.resolution_level, b.resolution_level) + 1
    level = max(a.support_level, b.support_level)
    acc = 0.0 + 0.0j
    for r in ball_coset_representatives(p, Fraction(0), level, K):
        acc += kozyrev_eval(a, r) * kozyrev_eval(b, r).conjugate()
    return acc * float(p) ** (-K)


def gram_matrix(p: int, n_max: int) -> list[list[complex]]:
    """Gram matrix of the restricted basis labels 1..n_max, as rows."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    idxs = [restricted_index(p, n) for n in range(1, n_max + 1)]
    G = [[0j] * n_max for _ in idxs]
    for i, a in enumerate(idxs):
        for k, b in enumerate(idxs):
            G[i][k] = G[k][i].conjugate() if k < i else inner_product(a, b)
    return G


# ---------------------------------------------------------------------------
# Vladimirov derivative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VladimirovResult:
    eigenvalue: complex
    residual: float


def vladimirov_eigenvalue(p: int, alpha: complex, scale: int) -> complex:
    """Spectral action: D^alpha psi_{n,0,1} = p^(alpha(1-n)) psi_{n,0,1}."""
    return complex(p) ** (complex(alpha) * (1 - scale))


def _one_minus_power(p: int, a: complex) -> complex:
    """1 - p^a = -expm1(z), z = a ln p, without cancellation at small |a|:
    numpy's complex expm1, Re = expm1(x) cos y - 2 sin^2(y/2), Im = e^x sin y."""
    z = complex(a) * math.log(p)
    x, y = z.real, z.imag
    h = math.sin(y / 2)
    return -complex(math.expm1(x) * math.cos(y) - 2 * h * h, math.exp(x) * math.sin(y))


_KERNEL_B = 12  # kernel domain cutoff p^B: past the support it moves only rounding


def _kernel_prefactor(p: int, alpha: complex) -> complex:
    num = _one_minus_power(p, alpha)
    den = 1.0 - complex(p) ** (-complex(alpha) - 1.0)
    return num / den


def _ball_integral(idx: WaveletIndex, center: Fraction, level: int) -> complex:
    """int_{|xi'-center| <= p^-level} psi dxi', exact via resolution cosets."""
    p = idx.prime
    if level <= idx.support_level:
        # a ball at least as large as the support swallows it or misses it:
        # mean-zero makes this exactly 0 either way
        return 0.0 + 0.0j
    K = max(idx.resolution_level, level)
    acc = 0.0 + 0.0j
    for r in ball_coset_representatives(p, center, level, K):
        acc += kozyrev_eval(idx, r)
    return acc * float(p) ** (-K)


def vladimirov_kernel_apply(idx: WaveletIndex, alpha: complex, xi: Fraction) -> complex:
    """Evaluate (D^alpha psi)(xi) through the integral kernel

        C(alpha) int (psi(xi') - psi(xi)) / |xi'-xi|^(alpha+1) dxi'

    by exact distance-shell summation over |xi'| <= p^B, B = _KERNEL_B (the
    subtraction kills the shells finer than the resolution level exactly)
    plus the closed-form geometric tail beyond p^B.  Each ball integral
    sums cosets at its own level, at least the resolution level.
    """
    p, alpha = idx.prime, complex(alpha)
    if alpha.real <= 0:
        raise ValueError(
            "kernel mode needs Re(alpha) > 0: the tail of the kernel integral "
            "diverges otherwise (and the normalisation has a pole at alpha = -1)"
        )
    r0, B = idx.resolution_level, _KERNEL_B
    if B < -idx.support_level:
        raise ValueError(f"domain cutoff p^{B} does not cover the support")
    f_xi = kozyrev_eval(idx, xi)
    pf = float(p)

    total = 0.0 + 0.0j
    # distance shells |xi'-xi| = p^(-j); f-dependent part vanishes once the
    # ball drops inside the support-free region or below the resolution
    for j in range(-B, r0):
        ball_j = _ball_integral(idx, xi, j)
        ball_j1 = _ball_integral(idx, xi, j + 1)
        shell_measure = pf ** (-j) - pf ** (-j - 1)
        shell_int = ball_j - ball_j1 - f_xi * shell_measure
        total += pf ** ((alpha + 1.0) * j) * shell_int
    # tail |xi'| > p^B: psi vanishes there and |xi'-xi| = |xi'|
    q = pf ** (-alpha)
    tail = -f_xi * (1.0 - 1.0 / pf) * q ** (B + 1) / _one_minus_power(p, -alpha)
    total += tail
    return _kernel_prefactor(p, alpha) * total


def vladimirov_apply(idx: WaveletIndex, alpha: complex) -> VladimirovResult:
    """Apply D^alpha to a basis wavelet: the exact eigenvalue p^(alpha(1-n)),
    checked against the integral kernel at sample points in the support;
    residual is the maximum pointwise deviation from eigenvalue * psi.
    """
    lam = vladimirov_eigenvalue(idx.prime, alpha, idx.scale)
    K = idx.resolution_level + 1
    residual = 0.0
    for xi in list(ball_coset_representatives(idx.prime, Fraction(0), idx.support_level, K))[:6]:
        val = vladimirov_kernel_apply(idx, alpha, xi)
        residual = max(residual, abs(val - lam * kozyrev_eval(idx, xi)))
    return VladimirovResult(lam, residual)
