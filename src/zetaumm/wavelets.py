"""Kozyrev wavelets on Q_p, their Gram matrix on the restricted basis, and
the Vladimirov derivative (closed-form eigenvalue plus integral-kernel
check).

The restricted basis H_-^(p) consists of psi_{-n+1, 0, 1} for n = 1, 2, ...
(contractions only, translation 0, j = 1); these span the mean-zero
square-integrable functions supported on Z_p.  Points of Q_p are
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padics import (
    Rational,
    additive_character,
    ball_coset_representatives,
    padic_norm,
    require_prime,
)


@dataclass(frozen=True)
class WaveletIndex:
    """Kozyrev label (scale n, translation m, character index j).

    m is the canonical coset representative in [0,1) with denominator a
    power of p; j runs over 1..p-1.
    """

    prime: int
    scale: int
    translation: Fraction = Fraction(0)
    j: int = 1

    def __post_init__(self):
        require_prime(self.prime)
        if not 1 <= self.j <= self.prime - 1:
            raise ValueError(f"j must be in 1..{self.prime - 1}")
        m = Fraction(self.translation)
        if not 0 <= m < 1:
            raise ValueError("translation must be the canonical rep in [0,1)")
        if m != 0:
            den = m.denominator
            while den % self.prime == 0:
                den //= self.prime
            if den != 1:
                raise ValueError("translation denominator must be a power of p")

    @property
    def support_center(self) -> Fraction:
        return Fraction(self.translation) * Fraction(self.prime) ** (-self.scale)

    @property
    def support_level(self) -> int:
        """Support is the ball |xi - center|_p <= p^(-support_level).

        |p^n xi - m| <= 1 unwinds to |xi - p^(-n) m| <= p^n, so the level
        is -n: contractions (n <= 0) live inside Z_p.
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
    return WaveletIndex(p, 1 - n, Fraction(0), 1)


def kozyrev_eval(idx: WaveletIndex, xi: Rational) -> complex:
    """psi_{n,m,j}(xi) = p^(-n/2) chi(j p^(n-1) xi) 1[|p^n xi - m|_p <= 1].

    Modulus is exact (a power of p or zero); the phase is binary64.
    """
    v = Fraction(xi)
    p, n = idx.prime, idx.scale
    arg = Fraction(p) ** n * v - Fraction(idx.translation)
    if padic_norm(arg, p) > 1:
        return 0.0 + 0.0j
    chi = additive_character(p, idx.j * Fraction(p) ** (n - 1) * v)
    return idx.norm_factor * chi


def inner_product(a: WaveletIndex, b: WaveletIndex) -> complex:
    """<psi_a, psi_b> by exact coset-sum quadrature at level K, one past the
    finer resolution level.

    Both wavelets are locally constant at their resolution levels, so the
    level-K sum restricted to the (ultrametric) intersection of supports is
    exact once K resolves both.
    """
    if a.prime != b.prime:
        raise ValueError("inner products need a common prime")
    p = a.prime
    K = max(a.resolution_level, b.resolution_level) + 1
    ca, la = a.support_center, a.support_level
    cb, lb = b.support_center, b.support_level
    # ultrametric balls are nested or disjoint
    if la <= lb:
        c_out, l_out, c_in, l_in = ca, la, cb, lb
    else:
        c_out, l_out, c_in, l_in = cb, lb, ca, la
    if padic_norm(c_in - c_out, p) > Fraction(p) ** (-l_out):
        return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for r in ball_coset_representatives(p, c_in, l_in, K):
        acc += kozyrev_eval(a, r) * kozyrev_eval(b, r).conjugate()
    return acc * float(p) ** (-K)


def gram_matrix(p: int, n_max: int):
    """Gram matrix of the restricted basis labels 1..n_max."""
    import numpy as np

    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    idxs = [restricted_index(p, n) for n in range(1, n_max + 1)]
    G = np.empty((n_max, n_max), dtype=complex)
    for i, a in enumerate(idxs):
        for k, b in enumerate(idxs):
            if k < i:
                G[i, k] = G[k, i].conjugate()
                continue
            G[i, k] = inner_product(a, b)
    return G


# ---------------------------------------------------------------------------
# Vladimirov derivative
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VladimirovResult:
    eigenvalue: complex
    residual: float


def vladimirov_eigenvalue(p: int, alpha: complex, scale: int) -> complex:
    """Spectral action: D^alpha psi_{n,m,j} = p^(alpha(1-n)) psi_{n,m,j}."""
    return complex(p) ** (complex(alpha) * (1 - scale))


def _kernel_prefactor(p: int, alpha: complex) -> complex:
    num = 1.0 - complex(p) ** complex(alpha)
    den = 1.0 - complex(p) ** (-complex(alpha) - 1.0)
    return num / den


def _ball_integral(idx: WaveletIndex, center: Fraction, level: int) -> complex:
    """int_{|xi'-center| <= p^-level} psi dxi', exact via resolution cosets."""
    p = idx.prime
    r0 = idx.resolution_level
    c_f, l_f = idx.support_center, idx.support_level
    if level <= l_f:
        # the ball swallows the support (they intersect since callers pass
        # centers inside the support): mean-zero makes this exactly 0
        return 0.0 + 0.0j
    if padic_norm(center - c_f, p) > Fraction(p) ** (-l_f):
        return 0.0 + 0.0j
    K = max(r0, level)
    acc = 0.0 + 0.0j
    for r in ball_coset_representatives(p, center, level, K):
        acc += kozyrev_eval(idx, r)
    return acc * float(p) ** (-K)


def vladimirov_kernel_apply(
    idx: WaveletIndex, alpha: complex, xi: Fraction, B: int = 12
) -> complex:
    """Evaluate (D^alpha psi)(xi) through the integral kernel

        C(alpha) int (psi(xi') - psi(xi)) / |xi'-xi|^(alpha+1) dxi'

    by exact distance-shell summation over |xi'| <= p^B (the subtraction
    kills the shells finer than the resolution level exactly) plus the
    closed-form geometric tail beyond p^B.  Each ball integral sums cosets
    at its own level, at least the resolution level.
    """
    p, alpha = idx.prime, complex(alpha)
    if alpha.real <= 0:
        raise ValueError(
            "kernel mode needs Re(alpha) > 0: the tail of the kernel integral "
            "diverges otherwise (and the normalisation has a pole at alpha = -1)"
        )
    r0 = idx.resolution_level
    c_f, l_f = idx.support_center, idx.support_level
    support_norm = max(padic_norm(c_f, p), Fraction(p) ** (-l_f)) if c_f else Fraction(p) ** (-l_f)
    if Fraction(p) ** B < support_norm:
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
    tail = -f_xi * (1.0 - 1.0 / pf) * q ** (B + 1) / (1.0 - q)
    total += tail
    return _kernel_prefactor(p, alpha) * total


def _kernel_sample_points(idx: WaveletIndex) -> list[Fraction]:
    p = idx.prime
    c_f, l_f = idx.support_center, idx.support_level
    pts = list(ball_coset_representatives(p, c_f, l_f, idx.resolution_level + 1))
    return pts[:6]


def vladimirov_apply(idx: WaveletIndex, alpha: complex, B: int = 12) -> VladimirovResult:
    """Apply D^alpha to a basis wavelet: the exact eigenvalue p^(alpha(1-n)),
    checked against the integral kernel (domain cutoff p^B)
    at sample points in the support; residual is the maximum pointwise
    deviation from eigenvalue * psi.
    """
    lam = vladimirov_eigenvalue(idx.prime, alpha, idx.scale)
    residual = 0.0
    for xi in _kernel_sample_points(idx):
        val = vladimirov_kernel_apply(idx, alpha, xi, B)
        residual = max(residual, abs(val - lam * kozyrev_eval(idx, xi)))
    return VladimirovResult(lam, residual)
