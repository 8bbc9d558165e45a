"""Complex zeta machinery: zeta/xi evaluation, prime counting functions and
their zero expansions, Li coefficients, prime sieve, Hardy's Z and
zero-table ingestion.

zeta is evaluated by one Euler-Maclaurin kernel over an array of s with
N = max(20, ceil max|Im s| + 20) direct terms and 12 Bernoulli corrections,
on Re(s) >= 0.  Hardy's Z, which validates zero tables, takes the
Riemann-Siegel formula from t = 200 on.  ln Gamma, digamma and Ei are
numpy kernels below and the Li tail is a fixed Gauss-Legendre rule: the
package needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .padics import require_prime

LN_PI = math.log(math.pi)
LN_2PI = math.log(2.0 * math.pi)
EPS = 2.220446049250313e-16


class ZetaPole(ArithmeticError):
    """Evaluation exactly at the simple pole s = 1."""


class NumericConsistencyError(ArithmeticError):
    """Two independent evaluation routes disagree beyond combined tolerance."""


def check_agreement(label: str, a, b, bar, names: tuple[str, str]) -> list[str]:
    """Surface (never average away) a disagreement of two routes: a list
    holding the message of the first index n (from 1) where |a - b| exceeds
    `bar` or is NaN, naming both values, the gap and the bar; empty when
    the routes agree.  `label` may hold `{n}`."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    gap = np.abs(a - b)
    bar = np.broadcast_to(bar, gap.shape)
    bad = np.nonzero(~(gap <= bar))[0]
    return [f"{label.format(n=i + 1)}: {names[0]} {a[i]:.9g} vs {names[1]} {b[i]:.9g} "
            f"differ by {gap[i]:.3g} (> bar {bar[i]:.3g})" for i in bad[:1]]


_EM_ORDER = 12  # Bernoulli corrections of the Euler-Maclaurin kernel
# the exact B_2k, k = 1.._EM_ORDER, from which both binary64 tables below come
_B2K = [Fraction(n, d) for n, d in (
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510),
    (43867, 798), (-174611, 330), (854513, 138), (-236364091, 2730))]
# B_2k / (2k)!: the Euler-Maclaurin corrections
_B2K_OVER_FACT = np.array([float(b / math.factorial(2 * k)) for k, b in enumerate(_B2K, 1)])


# ---------------------------------------------------------------------------
# ln Gamma, digamma and the exponential integral
# ---------------------------------------------------------------------------

# B_2k / (2k (2k-1)), k = 1.._EM_ORDER: Stirling's series of ln Gamma
_STIRLING = np.array([float(b / (2 * k * (2 * k - 1))) for k, b in enumerate(_B2K, 1)])
# (2k - 1) _STIRLING, B_2k / 2k to rounding: the series of its derivative, digamma
_STIRLING_D = (2.0 * np.arange(1, _EM_ORDER + 1) - 1.0) * _STIRLING


def _stirling_shift(z) -> tuple[np.ndarray, int, np.ndarray]:
    """z as a complex array, a step count n >= 8 and w = z + n with Re w >= 8,
    where 12 terms of Stirling's series are exact to rounding."""
    z = np.asarray(z, dtype=complex)
    n = 8 + math.ceil(-z.real.min(initial=0.0))
    return z, n, z + n


def _stirling_series(w):
    """ln Gamma(w) - [(w - 1/2) ln w - w + ln(2 pi)/2], 12 terms."""
    return np.polyval(_STIRLING[::-1], 1.0 / (w * w)) / w


def _log_gamma(z) -> np.ndarray:
    """ln Gamma(z), analytic on C \\ (-inf, 0]: the continuation of the real
    ln Gamma, not the principal log of Gamma.

    Stirling's series at w = z + n, carried back to z by n steps of
    Gamma(z+1) = z Gamma(z), each a principal log that does not cross its
    cut off the negative real axis.  Both sides are taken relative to
    ln Gamma(n) = ln (n-1)!, so that near the origin no term is much
    larger than the result:
        ln Gamma(z) = (n - 1/2) ln(1 + z/n) + z (ln w - 1) + S(w) - S(n)
                      - ln z - sum_{0<j<n} ln(1 + z/j),
    S the remainder series `_stirling_series`.
    """
    z, n, w = _stirling_shift(z)
    return ((n - 0.5) * np.log1p(z / n) + z * (np.log(w) - 1.0)
            + (_stirling_series(w) - _stirling_series(n))
            - np.log(z) - sum(np.log1p(z / j) for j in range(1, n)))


def _digamma(z) -> np.ndarray:
    """psi(z) = (ln Gamma)'(z): the derivative of `_log_gamma`'s series and
    recurrence."""
    z, n, w = _stirling_shift(z)
    iw2 = 1.0 / (w * w)
    series = np.log(w) - 0.5 / w - np.polyval(_STIRLING_D[::-1], iw2) * iw2
    return series - sum(1.0 / (z + j) for j in range(n))


def _expi(w) -> np.ndarray:
    """Exponential integral on a 1-D complex array: gamma + ln w +
    sum_k w^k/(k k!) with the principal log, which is Ei(x) for x > 0 and
    -E1(-w) + i pi sign(Im w) off the real axis.

    The series is summed where it loses at most e^4 to cancellation
    (|w| - Re w <= 4); elsewhere E1(-w) is the continued fraction
    e^w/(z+1- 1/(z+3- 4/(z+5- ...))), z = -w, by the modified Lentz method.
    """
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    out = np.empty_like(w)
    near = np.abs(w) - w.real <= 4.0
    x = w[near]
    term, acc = x.copy(), x.copy()
    for k in range(2, 4000):
        term *= x * ((k - 1) / (k * k))
        acc += term
        if (np.abs(term) <= EPS * np.abs(acc)).all():
            break
    out[near] = np.euler_gamma + np.log(x) + acc
    z = -w[~near]
    b, c = z + 1.0, np.full_like(z, 1e300)
    d = 1.0 / b
    frac = d.copy()
    for k in range(1, 4000):
        b += 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        step = c * d
        frac *= step
        if (np.abs(step - 1.0) <= 4.0 * EPS).all():
            break
    out[~near] = np.where(z.imag > 0.0, -1j, 1j) * math.pi - frac * np.exp(-z)
    return out


# ---------------------------------------------------------------------------
# Euler-Maclaurin zeta
# ---------------------------------------------------------------------------
#
# Every entry point takes a scalar or an array of s and returns the same
# kind; arrays are evaluated by one kernel call.


def _as_1d(s) -> tuple[np.ndarray, bool]:
    a = np.asarray(s, dtype=complex)
    return a.reshape(-1), a.ndim == 0


def _unbox(x: np.ndarray, scalar: bool):
    return x[0].item() if scalar else x


def _reject_pole(s: np.ndarray) -> None:
    if (np.abs(s - 1.0) < 1e-12).any():
        raise ZetaPole("zeta has a simple pole at s = 1")


def _em_terms(s: np.ndarray) -> int:
    """N = max(20, ceil max|Im s| + 20), the direct terms _em_kernel sums."""
    return max(20, int(math.ceil(np.abs(s.imag).max(initial=0.0))) + 20)


def _em_kernel(s: np.ndarray, derivative: bool = False):
    """Euler-Maclaurin on a 1-D array s sharing N = _em_terms(s) direct
    terms and _EM_ORDER Bernoulli corrections.

    Returns (core, pole, dzeta) with zeta(s) = core + pole/(s-1) and
    pole = N^(1-s): splitting out the pole term lets (s-1) zeta(s) be
    assembled without cancellation at s = 1.  dzeta is zeta'(s) when
    `derivative` is set (Re s > 0), else None.
    """
    N = _em_terms(s)
    ln_n = np.log(np.arange(1, N))
    powers = np.multiply.outer(-s, ln_n)
    np.exp(powers, out=powers)  # n^-s, n = 1..N-1
    lnN = math.log(N)
    n_pow = np.exp(-s * lnN)  # N^-s
    # B_2k/(2k)! (s)(s+1)...(s+2k-2) N^(1-s-2k) for k = 1.._EM_ORDER
    factors = s[:, None] + np.arange(2 * _EM_ORDER - 1)
    rising = np.cumprod(factors, axis=1)[:, ::2]
    scale = float(N) ** (1.0 - 2.0 * np.arange(1, _EM_ORDER + 1))
    bern = _B2K_OVER_FACT * rising * (n_pow[:, None] * scale)
    core = powers.sum(axis=1) + 0.5 * n_pow + bern.sum(axis=1)
    pole = N * n_pow
    dzeta = None
    if derivative:
        # d/ds of the rising product through its logarithmic derivative
        dlog_rising = np.cumsum(1.0 / factors, axis=1)[:, ::2]
        dcore = (
            -(powers @ ln_n)
            - 0.5 * lnN * n_pow
            + (bern * (dlog_rising - lnN)).sum(axis=1)
        )
        dzeta = dcore - pole * (lnN / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    return core, pole, dzeta


def zeta(s: complex) -> complex:
    """Riemann zeta on Re(s) >= 0, s != 1, by Euler-Maclaurin."""
    s, scalar = _as_1d(s)
    _reject_pole(s)
    return _unbox(zeta_unit(s) / (s - 1.0), scalar)


def zeta_unit(s: complex) -> complex:
    """(s-1) * zeta(s) as a single analytic unit (value 1 at s=1), on Re(s) >= 0."""
    s, scalar = _as_1d(s)
    if (s.real < 0.0).any():
        raise ValueError("zeta implemented for Re(s) >= 0 only")
    core, pole, _ = _em_kernel(s)
    return _unbox((s - 1.0) * core + pole, scalar)


def zeta_and_derivative(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) by term-wise differentiated Euler-Maclaurin.

    Re(s) > 0 only (that is the regime the contour extractions use).
    """
    s, scalar = _as_1d(s)
    if (s.real <= 0.0).any():
        raise ValueError("zeta_and_derivative implemented for Re(s) > 0 only")
    _reject_pole(s)
    core, pole, dzeta = _em_kernel(s, derivative=True)
    return _unbox(core + pole / (s - 1.0), scalar), _unbox(dzeta, scalar)


# ---------------------------------------------------------------------------
# Completed zeta and the archimedean factor
# ---------------------------------------------------------------------------


def log_zeta_real_place(s: complex) -> complex:
    """log of the archimedean factor pi^(-s/2) Gamma(s/2) (the Mellin
    transform of the Gaussian), analytic for Re(s) > 0."""
    half = 0.5 * np.asarray(s, dtype=complex)
    return _log_gamma(half) - half * LN_PI


def xi(s: complex) -> complex:
    """Completed zeta xi(s) = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s),
    entire and symmetric under s -> 1-s.

    Written as pi^(-s/2) Gamma(s/2+1) * [(s-1) zeta(s)] so the zeta pole is
    cancelled analytically rather than numerically.
    """
    s, scalar = _as_1d(s)
    unit = zeta_unit(s)  # refuses Re(s) < 0 before ln Gamma meets its poles
    pref = np.exp(_log_gamma(0.5 * s + 1.0) - 0.5 * s * LN_PI)
    return _unbox(pref * unit, scalar)


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------


_SIEVE_BLOCK = 2**20  # odd slots marked at a time: 1 MB of mask, 2^21 consecutive integers


def sieve_primes(limit: int) -> np.ndarray:
    """Primes <= limit, ascending, as int64: Eratosthenes on a numpy byte
    mask over the odd numbers only (slot i stands for 2i + 1, and slot 0
    for 2), so the mask takes limit/2 bytes.  The odd primes up to
    sqrt(limit) mark their multiples one block of _SIEVE_BLOCK slots at a
    time, so the slots being marked stay in cache."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones((limit + 1) // 2, dtype=bool)
    base = sieve_primes(math.isqrt(limit))[1:].tolist()
    for lo in range(0, mask.size, _SIEVE_BLOCK):
        block = mask[lo : lo + _SIEVE_BLOCK]
        for p in base:
            # odd multiples of p from p^2 on sit at slots = (p^2 - 1)/2 mod p
            first = p * p // 2
            if first >= lo + block.size:
                break
            block[max(first - lo, (first - lo) % p) :: p] = False
    primes = np.flatnonzero(mask)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


@dataclass(frozen=True)
class PrimeTable:
    """Primes and prime powers up to `limit`, with von Mangoldt weights."""

    limit: int
    # parallel arrays over prime powers p^k <= limit, ascending by value
    power_values: np.ndarray
    power_exponents: np.ndarray
    power_weights: np.ndarray  # ln p for each power

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        primes = sieve_primes(limit)
        # levels[k-1] holds p^k <= limit, ascending: a prefix of the primes,
        # since p^(k+1) <= limit exactly when p^k <= limit // p
        levels = [primes]
        while True:
            j = int(np.count_nonzero(levels[-1] <= limit // primes[: levels[-1].size]))
            if j == 0:
                break
            levels.append(levels[-1][:j] * primes[:j])
        sizes = [level.size for level in levels]
        logs = np.fromiter(map(math.log, primes.tolist()), dtype=float, count=primes.size)
        vals = np.concatenate(levels)
        order = np.argsort(vals)
        return cls(
            limit=limit,
            power_values=vals[order],
            power_exponents=np.repeat(np.arange(1, len(levels) + 1, dtype=np.int64), sizes)[order],
            power_weights=np.concatenate([logs[:k] for k in sizes])[order],
        )


# ---------------------------------------------------------------------------
# Counting functions
# ---------------------------------------------------------------------------


def _midpoint_power_sum(x: float, weights) -> float:
    """Sum of weights(table) over prime powers p^n <= x, half weight at a
    jump (x within 1e-9 of a prime power)."""
    if x <= 1.0:
        return 0.0
    primes = PrimeTable.build(int(x) + 1)
    w = weights(primes)
    total = w[primes.power_values <= x + 1e-9].sum()
    n = round(x)
    i = int(np.searchsorted(primes.power_values, n))
    if abs(x - n) <= 1e-9 and i < primes.power_values.size and primes.power_values[i] == n:
        total -= 0.5 * w[i]
    return float(total)


def chebyshev_psi_direct(x: float) -> float:
    """psi(x) = sum of ln p over prime powers p^n <= x, midpoint at jumps."""
    return _midpoint_power_sum(x, lambda t: t.power_weights)


def prime_count_j_direct(x: float) -> float:
    """J(x) = sum over prime powers p^n <= x of 1/n, midpoint at jumps."""
    return _midpoint_power_sum(x, lambda t: 1.0 / t.power_exponents)


def local_count_direct(p: int, x: float) -> float:
    """j_p(x) = #{n >= 1 : p^n <= x}, midpoint at jumps."""
    require_prime(p)
    if x <= 1.0:
        return 0.0
    count, pk = 0, p
    while pk <= x + 1e-9:
        count += 1
        pk *= p
    if count and abs(x - pk // p) <= 1e-9:  # x sits on the last power counted
        return count - 0.5
    return float(count)


def chebyshev_psi_explicit(x: float, zeros: Sequence[float]) -> float:
    """Explicit formula psi0(x) = x - sum_rho x^rho/rho - ln 2pi
    - (1/2) ln(1 - x^-2), summed over the zeros given, conjugate-paired."""
    t = np.asarray(zeros, dtype=float)
    if t.size < 1:
        raise ValueError("explicit mode needs at least one zero")
    if x <= 1.0:
        raise ValueError("explicit formula requires x > 1")
    rho = 0.5 + 1j * t
    lnx = math.log(x)
    osc = 2.0 * (np.exp(rho * lnx) / rho).real.sum()
    return float(x - osc - LN_2PI - 0.5 * math.log1p(-(x**-2.0)))


def explicit_tail_estimate(x: float, last_t: float) -> float:
    """Crude magnitude scale 2 sqrt(x)/|rho| of the first omitted zero term."""
    return 2.0 * math.sqrt(x) / abs(0.5 + 1j * last_t)


def prime_count_j_explicit(x: float, zeros: Sequence[float]) -> float:
    """J(x) = Li(x) - sum_rho Li(x^rho) - ln 2 + int_x^inf dt/(t(t^2-1)) over
    the zeros given, conjugate-paired; Li(x) = Ei(ln x), and the last integral
    is (1/2) ln(x^2/(x^2-1))."""
    t = np.asarray(zeros, dtype=float)
    if t.size < 1:
        raise ValueError("explicit mode needs at least one zero")
    if x <= 1.0:
        raise ValueError("explicit formula requires x > 1")
    osc = 2.0 * _expi((0.5 + 1j * t) * math.log(x)).real.sum()
    tail_int = 0.5 * math.log(x * x / (x * x - 1.0))
    return float(_expi(math.log(x))[0].real - osc - math.log(2.0) + tail_int)


def local_count_explicit(p: int, x: float, n_terms: int) -> float:
    """Pole expansion of j_p: ln x/ln p - 1/2 + (1/pi) sum_k sin(2 pi k
    log_p x)/k, the Fourier form of the sawtooth over the local-factor poles
    (midpoint values at jumps by construction)."""
    require_prime(p)
    if n_terms < 1:
        raise ValueError("explicit mode needs at least one oscillating term")
    if x <= 1.0:
        raise ValueError("explicit formula requires x > 1")
    u = math.log(x) / math.log(p)
    k = np.arange(1, n_terms + 1)
    return float(u - 0.5 + (np.sin(2.0 * math.pi * k * u) / k).sum() / math.pi)


# ---------------------------------------------------------------------------
# Li (Keiper-Li) coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiCoefficients:
    values: np.ndarray  # lambda_1..lambda_n
    error_estimate: np.ndarray


def li_coefficients_cauchy(n_max: int, radius: float = 0.45, nodes: int = 512) -> LiCoefficients:
    """lambda_n = n Xi_n with Xi_n = [z^n] ln xi(1/(1-z)) (Keiper 1992; Li
    1997), the series the symmetric model reads, from the shared contour
    extractor on |z| = radius: radius in (0, 1), n_max < nodes, and the
    extractor raises where ln xi winds or the coefficients move between
    radii.  error_estimate is n times its node-doubling and radius deltas.
    """
    from .resolvent import xi_log_series

    c = xi_log_series(n_max, radius, nodes)
    n = np.arange(1, n_max + 1)
    return LiCoefficients(n * c.coefficients.real, n * (c.doubling_deltas + c.radius_deltas))


def li_coefficients_zero_sum(
    n_max: int,
    zeros: Sequence[float],
    n_zeros: Optional[int] = None,
) -> LiCoefficients:
    """lambda_n = sum_m [1 - (1 - 1/rho_m)^n] with rho_m = 1/2 + i t_m,
    conjugate-paired: each pair contributes 2(1 - cos(n phi(t))) with
    phi(t) = pi - 2 arctan(2t).

    The truncated sum is completed by the smooth-density tail integral
    int_T^inf 2(1-cos(n phi(t))) dN(t), dN = ln(t/2pi)/2pi dt; without it
    the truncation error ~ n^2 ln T/(2 pi T) swamps small-n values.  A
    table shorter than n_zeros is rejected.
    """
    t = np.asarray(zeros, dtype=float)
    if n_zeros is not None:
        if t.size < n_zeros:
            raise ValueError(f"zero table holds {t.size} < n_zeros = {n_zeros}")
        t = t[:n_zeros]
    if t.size == 0:
        raise ValueError("zero_sum needs a nonempty zero table")
    phi = math.pi - 2.0 * np.arctan(2.0 * t)
    tails, quadrature = _li_tail_integrals(n_max, float(t[-1]))
    lam = np.array([(2.0 * (1.0 - np.cos(n * phi))).sum() for n in range(1, n_max + 1)]) + tails
    # residual after smoothing is zero-fluctuation noise, well under the
    # smoothed tail itself; report a 5% slice of it as the scale
    err = 0.05 * tails + quadrature + 1e-12
    return LiCoefficients(lam, err)


_LI_TAIL_U = 1e9  # height U where the Li tail switches from quadrature to closed form


def _li_tail_integrals(n_max: int, T: float) -> tuple[np.ndarray, np.ndarray]:
    """int_T^inf 2(1 - cos(n phi(t))) dN(t) for n = 1..n_max, and an
    estimate of the quadrature error of each.

    In u = ln t the integrand 4 sin^2(n arctan(1/2t)) (u - ln 2pi)/2pi e^u
    (the form that does not cancel at large t) is smooth: composite 8-node
    Gauss-Legendre on panels of length <= 1/2 up to ln U, estimated
    against the rule on half as many panels.  Beyond U the integrand is
    ~ n^2/t^2 ln(t/2pi)/2pi, integrated in closed form.
    """
    n = np.arange(1, n_max + 1)[:, None]
    lo, hi = math.log(T), math.log(_LI_TAIL_U)
    nodes, weights = np.polynomial.legendre.leggauss(8)

    def rule(panels: int) -> np.ndarray:
        half = 0.5 * (hi - lo) / panels
        u = (lo + half * (2 * np.arange(panels) + 1)[:, None] + half * nodes).ravel()
        t = np.exp(u)
        f = 4.0 * np.sin(n * np.arctan(0.5 / t)) ** 2 * (u - LN_2PI) / (2.0 * math.pi) * t
        return f @ np.tile(half * weights, panels)

    panels = max(1, math.ceil(hi - lo))
    fine = rule(2 * panels)
    remainder = n[:, 0] ** 2 * (math.log(_LI_TAIL_U / (2 * math.pi)) + 1.0) / (2.0 * math.pi * _LI_TAIL_U)
    return fine + remainder, np.abs(fine - rule(panels))


# ---------------------------------------------------------------------------
# Hardy's Z
# ---------------------------------------------------------------------------
#
# Z(t) = e^{i theta(t)} zeta(1/2 + it) is real for real t, |Z(t)| = |zeta(1/2 + it)|
# (O(t^{1/6}), so nothing underflows), and it changes sign at every simple
# zero on the critical line.

_RS_MIN_T = 200.0  # Riemann-Siegel from here on, where Gabcke's bound holds; Euler-Maclaurin below
_GABCKE_D4 = 0.017  # |Z - Riemann-Siegel with C_0..C_4| <= 0.017 t^(-11/4), t >= 200 (Gabcke 1979)
_DELTA_MIN = 1e-6  # floor of the half-width of the sign-change bracket of an ordinate

# Riemann-Siegel corrections C_k(p) = x^(k mod 2) P_k(x^2), x = p - 1/2: the
# coefficients of P_0..P_4, highest power first, written by
# tools/riemann_siegel_coefficients.py
_RS_COEFFS = (
    (  # C_0: 20 coefficients
        -9.380006601906792e-06, -2.3025650027239108e-05, 8.971057991388841e-05,
        0.0004006097785422114, -0.0004064230183729847, -0.004382647416580339,
        -0.0022759396706125644, 0.029999480619902277, 0.051832902999549624,
        -0.1085784416564066, -0.3755803051545095, 0.03051102182736167,
        1.3014304161007977, 1.216731288919232, -1.6626947308999325,
        -3.4733112243465167, -0.8707216670511481, 2.118025207685496,
        1.7489618723100817, 0.3826834323650898,
    ),
    (  # C_1: 20 coefficients
        -4.7624592453571896e-05, -3.956359669003182e-05, 0.0005010949051118487,
        0.0010410950537714891, -0.003399503721151274, -0.012582979651583417,
        0.01044923755006451, 0.09092026610973176, 0.03747264646531532,
        -0.38450723496057976, -0.5054829667900366, 0.7838423561500687,
        1.9407662946212714, -0.1081994495989921, -2.9998711967650102,
        -1.695108997559503, 1.2634964862799458, 1.2317200154315227,
        0.11027818741081483, -0.053650205256750697,
    ),
    (  # C_2: 21 coefficients
        -0.00012300805698196634, 6.413690120293882e-05, 0.001357219437237339,
        0.0009274149159794891, -0.010225012534028596, -0.017356040641479786,
        0.04782352019827294, 0.14033480067387014, -0.09911649873041212,
        -0.6359068055045434, -0.1722164273472999, 1.553901943022299,
        1.3689416723328378, -1.6760787022538115, -2.4210015958919517,
        0.3522472353403734, 1.3303391766687571, 0.14291492748532142,
        -0.18137505725167002, 0.0012378633552253776, 0.005188542830293168,
    ),
    (  # C_3: 21 coefficients
        -0.00020714032687001792, 0.00043764769774185707, 0.0024243969641103086,
        -0.0012464637158769293, -0.01926442168751409, -0.009530183848825268,
        0.10073382716626153, 0.12844792545207495, -0.3159044103617364,
        -0.6619353471039775, 0.45968080979749937, 1.7467492800868893,
        0.07845139961005464, -2.249763536666567, -0.8297560708527407,
        1.2308558763957462, 0.48888319992354445, -0.28997965779803897,
        -0.042570172541828676, 0.029953721091035165, -0.0026794321814389136,
    ),
    (  # C_4: 22 coefficients
        -0.0002277596675847214, 0.0011562478934088757, 0.003077503129870843,
        -0.006126628379519264, -0.026098874779194373, 0.015091527417903474,
        0.14431763086785424, 0.03573487795502748, -0.5036663995108306,
        -0.40124095793988573, 1.025782534005728, 1.2353393016565979,
        -1.0767471578751293, -1.6763494411763413, 0.5341535312914872,
        0.9507754185141758, -0.20854053686358828, -0.19604124343694462,
        0.06581175135809482, 0.0038471770517961267, -0.004022642946136188,
        0.0004648338936176339,
    ),
)


def _siegel_theta(t: np.ndarray) -> np.ndarray:
    """theta(t) = Im ln Gamma(1/4 + it/2) - (t/2) ln pi, continuous in t.
    From t = _RS_MIN_T on, its asymptotic series (Edwards 1974, 6.5)
        (t/2) ln(t/2pi) - t/2 - pi/8 + 1/48t + 7/5760t^3 + 31/80640t^5 + 127/430080t^7,
    whose next term is below 1e-24 there; ln Gamma below."""
    theta = np.empty_like(t)
    big = t >= _RS_MIN_T
    u, small = t[big], t[~big]
    r = 1.0 / (u * u)
    theta[big] = (0.5 * u * np.log(u / (2.0 * math.pi)) - 0.5 * u - 0.125 * math.pi
                  + (1.0 / 48.0 + r * (7.0 / 5760.0 + r * (31.0 / 80640.0 + r * (127.0 / 430080.0)))) / u)
    theta[~big] = _log_gamma(0.25 + 0.5j * small).imag - 0.5 * small * LN_PI
    return theta


def _z_riemann_siegel(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z by Riemann-Siegel, t >= _RS_MIN_T:
    2 sum_{n <= a} n^(-1/2) cos(theta(t) - t ln n) + (-1)^(N-1) a^(-1/2) sum_k C_k(p) a^(-k),
    a = sqrt(t/2pi), N = floor(a), p = a - N.  The bound is Gabcke's plus
    rounding: each phase is off by a few ulp of t ln t, over 2 sum n^(-1/2) <= 4 sqrt(a)."""
    a = np.sqrt(t / (2.0 * math.pi))
    N = np.floor(a).astype(np.int64)
    # in ascending t the points with N >= n are a suffix, so each term is
    # added on a slice; the sums go back to the caller's order at the end
    order = np.argsort(t, kind="stable")
    t_up, theta_up, N_up = t[order], _siegel_theta(t)[order], N[order]
    main_up, term = np.zeros_like(t), np.empty_like(t)
    for n in range(1, int(N.max(initial=0)) + 1):
        live = slice(int(np.searchsorted(N_up, n)), None)
        out = term[live]  # cos(theta - t ln n) / sqrt(n), in place
        np.multiply(t_up[live], math.log(n), out=out)
        np.subtract(theta_up[live], out, out=out)
        np.cos(out, out=out)
        out /= math.sqrt(n)
        main_up[live] += out
    main = np.empty_like(t)
    main[order] = main_up
    x = a - N - 0.5
    corr = np.zeros_like(t)
    for k in reversed(range(len(_RS_COEFFS))):
        corr = corr / a + np.polyval(_RS_COEFFS[k], x * x) * (x if k % 2 else 1.0)
    z = 2.0 * main + np.where(N % 2 == 1, 1.0, -1.0) * corr / np.sqrt(a)
    return z, _GABCKE_D4 * t**-2.75 + 16.0 * EPS * t * np.log(t) * np.sqrt(a)


def _z_euler_maclaurin(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = Re(e^{i theta(t)} zeta(1/2 + it)) through one Euler-Maclaurin
    kernel call, N = max |t| + 20 terms (t < _RS_MIN_T keeps N small).  Its
    truncation error is far below rounding for real t; the bound is
    rounding: each phase is off by a few ulp of t ln N over N terms
    n^(-1/2) summing to at most 2 sqrt(N)."""
    s = 0.5 + 1j * t
    z = (np.exp(1j * _siegel_theta(t)) * zeta(s)).real
    N = _em_terms(s)
    return z, 8.0 * EPS * (1.0 + np.abs(t)) * math.log(N) * math.sqrt(N)


def hardy_z(t) -> tuple[np.ndarray, np.ndarray]:
    """Hardy's Z(t) on a 1-D array of real t, and a bound on the error of
    each value: Riemann-Siegel with Gabcke's corrections C_0..C_4 for
    t >= 200 (O(sqrt t) terms), Euler-Maclaurin below (O(t) terms)."""
    t = np.asarray(t, dtype=float)
    z, err = np.empty_like(t), np.empty_like(t)
    fast = t >= _RS_MIN_T
    z[fast], err[fast] = _z_riemann_siegel(t[fast])
    z[~fast], err[~fast] = _z_euler_maclaurin(t[~fast])
    return z, err


# ---------------------------------------------------------------------------
# Zero-table ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTable:
    """Validated ordinates of nontrivial zeros, ascending."""

    ts: np.ndarray
    residuals: np.ndarray  # |Z(t)| at each accepted ordinate
    excluded: tuple[tuple[float, float], ...] = ()  # (t, |Z(t)|) of each rejected one

    def __len__(self) -> int:
        return int(self.ts.size)


def _last_digit_exponent(line: str) -> int:
    """Decimal(line).as_tuple().exponent, the power of ten of the last digit
    printed, for a line that float() reads as finite: the exponent less the
    digits after the point.  float() takes only ASCII signs, points and
    exponent letters around digits of any script, so the text is split on
    those alone, and int() reads the exponent's digits in any script."""
    mantissa, _, exponent = line.lower().partition("e")
    return (int(exponent) if exponent else 0) - len(mantissa.partition(".")[2].replace("_", ""))


def ingest_zeros(path: str, max_zeros: Optional[int] = None) -> ZeroTable:
    """Load a zero table (one ascending positive decimal per line, '#'
    comments) and validate each ordinate by a sign change of Hardy's Z.

    An ordinate t is accepted iff Z(t - delta) and Z(t + delta) have
    opposite signs and each exceeds its error bound (`hardy_z`); delta is
    the larger of 1e-6 and half a unit in the last digit printed on its
    line.  Every other ordinate is excluded and reported with |Z(t)|;
    parse errors and ordering violations carry line numbers.  At most
    max_zeros >= 1 ordinates are read.
    """
    if max_zeros is not None and max_zeros < 1:
        raise ValueError(f"max_zeros must be >= 1, got {max_zeros}")
    ts: list[float] = []
    exponents: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                t = float(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparsable ordinate {line!r}") from None
            if not math.isfinite(t):
                raise ValueError(f"{path}:{lineno}: non-finite ordinate {line!r}")
            if t <= 0.0:
                raise ValueError(f"{path}:{lineno}: ordinates must be positive")
            if ts and t <= ts[-1]:
                kind = "duplicate" if t == ts[-1] else "descending"
                raise ValueError(f"{path}:{lineno}: {kind} ordinate {t!r}")
            ts.append(t)
            exponents.append(_last_digit_exponent(line))
            if max_zeros is not None and len(ts) >= max_zeros:
                break
    if not ts:
        raise ValueError(f"{path}: no ordinates found")
    arr = np.asarray(ts)
    delta = np.maximum(_DELTA_MIN, 0.5 * 10.0 ** np.asarray(exponents, dtype=float))
    z, err = hardy_z(np.concatenate([arr - delta, arr, arr + delta]))
    (below, at, above), (err_below, _, err_above) = z.reshape(3, -1), err.reshape(3, -1)
    ok = (below * above < 0) & (np.abs(below) > err_below) & (np.abs(above) > err_above)
    residuals = np.abs(at)
    excluded = tuple((float(t), float(r)) for t, r in zip(arr[~ok], residuals[~ok]))
    return ZeroTable(ts=arr[ok], residuals=residuals[ok], excluded=excluded)


def bundled_zeros_path() -> str:
    """Path of the zero table shipped with the package."""
    import importlib.resources as res

    return str(res.files("zetaumm").joinpath("data/zeros10k.txt"))
