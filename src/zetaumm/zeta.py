"""Complex zeta machinery: zeta/xi evaluation, prime counting functions and
their zero expansions, Li coefficients, prime sieve, and zero-table
ingestion.

zeta is evaluated by one Euler-Maclaurin kernel over an array of s with
N = max(20, ceil max|Im s| + 20) direct terms and 12 Bernoulli corrections;
the reflection identity covers Re(s) < 0.  scipy is imported where it is used.
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


def check_agreement(label: str, a, b, bar, names: tuple[str, str]) -> None:
    """Surface (never average away) a disagreement of two routes: raise at
    the first index n (from 1) where |a - b| exceeds `bar` or is NaN,
    naming both values, the gap and the bar.  `label` may hold `{n}`."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    gap = np.abs(a - b)
    bar = np.broadcast_to(bar, gap.shape)
    bad = np.nonzero(~(gap <= bar))[0]
    if bad.size:
        i = int(bad[0])
        raise NumericConsistencyError(
            f"{label.format(n=i + 1)}: {names[0]} {a[i]:.9g} vs {names[1]} {b[i]:.9g} "
            f"differ by {gap[i]:.3g} (> bar {bar[i]:.3g})"
        )


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, computed once)
# ---------------------------------------------------------------------------


def _bernoulli_upto(m: int) -> list[Fraction]:
    """B_0..B_m by the defining recurrence, exact."""
    out = [Fraction(1)]
    for n in range(1, m + 1):
        acc = Fraction(0)
        for k in range(n):
            acc += Fraction(math.comb(n + 1, k)) * out[k]
        out.append(-acc / (n + 1))
    return out


_EM_ORDER = 12  # Bernoulli corrections of the Euler-Maclaurin kernel
_BERNOULLI = _bernoulli_upto(2 * _EM_ORDER)
# B_{2k} / (2k)! as binary64, k = 1.._EM_ORDER
_B2K_OVER_FACT = np.array(
    [float(_BERNOULLI[2 * k] / math.factorial(2 * k)) for k in range(1, _EM_ORDER + 1)]
)


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


def _em_kernel(s: np.ndarray, derivative: bool = False):
    """Euler-Maclaurin on a 1-D array s sharing N = max(20, ceil max|Im s| + 20)
    direct terms and _EM_ORDER Bernoulli corrections.

    Returns (core, pole, dzeta) with zeta(s) = core + pole/(s-1) and
    pole = N^(1-s): splitting out the pole term lets (s-1) zeta(s) be
    assembled without cancellation at s = 1.  dzeta is zeta'(s) when
    `derivative` is set (Re s > 0), else None.
    """
    N = max(20, int(math.ceil(np.abs(s.imag).max())) + 20)
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


def _reflection(s: np.ndarray) -> np.ndarray:
    """chi(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s), so zeta(s) = chi(s) zeta(1-s)."""
    from scipy.special import loggamma
    return 2.0**s * math.pi ** (s - 1.0) * np.sin(0.5 * math.pi * s) * np.exp(loggamma(1.0 - s))


def zeta(s: complex) -> complex:
    """Riemann zeta on C \\ {1}.  Re(s) >= 0 by Euler-Maclaurin, Re(s) < 0
    through the reflection identity
    zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)."""
    s, scalar = _as_1d(s)
    _reject_pole(s)
    return _unbox(zeta_unit(s) / (s - 1.0), scalar)


def zeta_unit(s: complex) -> complex:
    """(s-1) * zeta(s) evaluated as a single analytic unit (value 1 at s=1)."""
    s, scalar = _as_1d(s)
    left = s.real < 0.0
    w = np.where(left, 1.0 - s, s)  # Re(w) > 1 where reflected
    core, pole, _ = _em_kernel(w)
    val = (w - 1.0) * core + pole  # (w-1) zeta(w)
    if left.any():
        # (s-1) zeta(s) = (s-1) chi(s) zeta(w); zeta(w) regular, no care needed
        val[left] *= (s[left] - 1.0) / (w[left] - 1.0) * _reflection(s[left])
    return _unbox(val, scalar)


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
    from scipy.special import loggamma
    half = 0.5 * np.asarray(s, dtype=complex)
    return loggamma(half) - half * LN_PI


def xi(s: complex) -> complex:
    """Completed zeta xi(s) = (1/2) s (s-1) pi^(-s/2) Gamma(s/2) zeta(s),
    entire and symmetric under s -> 1-s.

    Written as pi^(-s/2) Gamma(s/2+1) * [(s-1) zeta(s)] so the zeta pole is
    cancelled analytically rather than numerically.
    """
    from scipy.special import loggamma
    s, scalar = _as_1d(s)
    pref = np.exp(loggamma(0.5 * s + 1.0) - 0.5 * s * LN_PI)
    return _unbox(pref * zeta_unit(s), scalar)


def log_xi(s: complex) -> complex:
    """Principal-log decomposition ln(1/2) + ln s + ln((s-1)zeta(s))
    + ln(pi^(-s/2)Gamma(s/2)); every factor is nonvanishing on the domains
    the contour extractions use, so no branch tracking is required."""
    s, scalar = _as_1d(s)
    val = math.log(0.5) + np.log(s) + np.log(zeta_unit(s)) + log_zeta_real_place(s)
    return _unbox(val, scalar)


# ---------------------------------------------------------------------------
# Primes
# ---------------------------------------------------------------------------


def sieve_primes(limit: int) -> np.ndarray:
    """Primes <= limit by Eratosthenes on a numpy byte mask."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(math.isqrt(limit)) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


@dataclass(frozen=True)
class PrimeTable:
    """Primes and prime powers up to `limit`, with von Mangoldt weights."""

    limit: int
    primes: np.ndarray
    # parallel arrays over prime powers p^k <= limit, ascending by value
    power_values: np.ndarray
    power_exponents: np.ndarray
    power_weights: np.ndarray  # ln p for each power

    @classmethod
    def build(cls, limit: int) -> "PrimeTable":
        primes = sieve_primes(limit)
        vals, exps, wts = [], [], []
        for p in primes.tolist():
            pk, k = p, 1
            while pk <= limit:
                vals.append(pk)
                exps.append(k)
                wts.append(math.log(p))
                pk *= p
                k += 1
        order = np.argsort(np.asarray(vals))
        return cls(
            limit=limit,
            primes=primes,
            power_values=np.asarray(vals, dtype=np.int64)[order],
            power_exponents=np.asarray(exps, dtype=np.int64)[order],
            power_weights=np.asarray(wts, dtype=float)[order],
        )


# ---------------------------------------------------------------------------
# Counting functions
# ---------------------------------------------------------------------------


def _midpoint_power_sum(x: float, primes: Optional[PrimeTable], weights) -> float:
    """Sum of weights(table) over prime powers p^n <= x, half weight at a
    jump (x within 1e-9 of a prime power)."""
    if x <= 1.0:
        return 0.0
    if primes is None or primes.limit < x:
        primes = PrimeTable.build(int(x) + 1)
    w = weights(primes)
    total = w[primes.power_values <= x + 1e-9].sum()
    n = round(x)
    i = int(np.searchsorted(primes.power_values, n))
    if abs(x - n) <= 1e-9 and i < primes.power_values.size and primes.power_values[i] == n:
        total -= 0.5 * w[i]
    return float(total)


def chebyshev_psi_direct(x: float, primes: Optional[PrimeTable] = None) -> float:
    """psi(x) = sum of ln p over prime powers p^n <= x, midpoint at jumps."""
    return _midpoint_power_sum(x, primes, lambda t: t.power_weights)


def prime_count_j_direct(x: float, primes: Optional[PrimeTable] = None) -> float:
    """J(x) = sum over prime powers p^n <= x of 1/n, midpoint at jumps."""
    return _midpoint_power_sum(x, primes, lambda t: 1.0 / t.power_exponents)


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


def chebyshev_psi_explicit(x: float, zeros: Sequence[float], n_zeros: int) -> float:
    """Explicit formula psi0(x) = x - sum_rho x^rho/rho - ln 2pi
    - (1/2) ln(1 - x^-2), zeros conjugate-paired for a real result."""
    if n_zeros < 1:
        raise ValueError("explicit mode needs at least one zero")
    if x <= 1.0:
        raise ValueError("explicit formula requires x > 1")
    t = np.asarray(zeros, dtype=float)[:n_zeros]
    rho = 0.5 + 1j * t
    lnx = math.log(x)
    osc = 2.0 * (np.exp(rho * lnx) / rho).real.sum()
    return float(x - osc - LN_2PI - 0.5 * math.log1p(-(x**-2.0)))


def explicit_tail_estimate(x: float, last_t: float) -> float:
    """Crude magnitude scale 2 sqrt(x)/|rho| of the first omitted zero term."""
    return 2.0 * math.sqrt(x) / abs(0.5 + 1j * last_t)


def _expi_complex(w: complex) -> complex:
    """Exponential integral Ei continued off the real axis,
    Ei(w) = -E1(-w) -/+ i pi for Im(w) >< 0."""
    from scipy.special import exp1, expi
    if w.imag == 0.0:
        return complex(expi(w.real))
    corr = 1j * math.pi if w.imag > 0 else -1j * math.pi
    return complex(-exp1(-w) + corr)


def logarithmic_integral(x: float) -> float:
    """Li(x) = PV int_0^x dt/ln t = Ei(ln x)."""
    if x <= 0 or x == 1.0:
        raise ValueError("Li defined for x > 0, x != 1")
    return _expi_complex(complex(math.log(x))).real


def prime_count_j_explicit(x: float, zeros: Sequence[float], n_zeros: int) -> float:
    """J(x) = Li(x) - sum_rho Li(x^rho) - ln 2 + int_x^inf dt/(t(t^2-1)),
    zeros conjugate-paired; the last integral is (1/2) ln(x^2/(x^2-1))."""
    if n_zeros < 1:
        raise ValueError("explicit mode needs at least one zero")
    if x <= 1.0:
        raise ValueError("explicit formula requires x > 1")
    lnx = math.log(x)
    t = np.asarray(zeros, dtype=float)[:n_zeros]
    osc = 0.0
    for tm in t:
        osc += 2.0 * _expi_complex((0.5 + 1j * tm) * lnx).real
    tail_int = 0.5 * math.log(x * x / (x * x - 1.0))
    return float(logarithmic_integral(x) - osc - math.log(2.0) + tail_int)


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
    """lambda_n = n [w^n] { (1+w)^(n-1) ln xi(1+w) } = n sum_k C(n-1,k) a_(n-k),
    with a_j = [w^j] ln xi(1+w) from the shared contour extractor on
    |w| = radius about s = 1 (spectrally accurate; ln xi analytic there).

    radius must lie in (0, 1/2): the principal-log decomposition of ln xi
    is singular at s = 0, which is |w| = 1, and the extractor's second
    radius 1.4 * radius must stay inside that circle.  The r^-n rounding
    floor of a_j shrinks as the radius grows.  error_estimate carries the
    extractor's node-doubling and radius deltas through the binomial sum.
    Fewer than 4 n_max nodes are raised to the smallest power of two >= 4 n_max.
    """
    if not 0.0 < radius < 0.5:
        raise ValueError("radius must lie in (0, 1/2)")
    nodes = max(nodes, 1 << (4 * n_max - 1).bit_length())
    from .resolvent import contour_coefficients

    c = contour_coefficients(lambda w: log_xi(1.0 + w), n_max, radius, nodes)
    n = range(1, n_max + 1)
    # lambda_n = sum_j n C(n-1, n-j) a_j: lower-triangular binomial weights
    weights = np.array([[m * math.comb(m - 1, m - j) if j <= m else 0 for j in n] for m in n], dtype=float)
    deltas = c.doubling_deltas + c.radius_deltas
    return LiCoefficients(weights @ c.coefficients.real, weights @ deltas)


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
    the truncation error ~ n^2 ln T/(2 pi T) swamps small-n values.
    """
    t = np.asarray(zeros, dtype=float)
    if n_zeros is not None:
        t = t[:n_zeros]
    if t.size == 0:
        raise ValueError("zero_sum needs a nonempty zero table")
    phi = math.pi - 2.0 * np.arctan(2.0 * t)
    lam = np.empty(n_max)
    err = np.empty(n_max)
    T = float(t[-1])
    for n in range(1, n_max + 1):
        lam[n - 1] = (2.0 * (1.0 - np.cos(n * phi))).sum()
        tail = _li_tail_integral(n, T)
        lam[n - 1] += tail
        # residual after smoothing is zero-fluctuation noise, well under
        # the smoothed tail itself; report a 5% slice of it as the scale
        err[n - 1] = 0.05 * tail + 1e-12
    return LiCoefficients(lam, err)


def _li_tail_integral(n: int, T: float, U: float = 1e9) -> float:
    from scipy.integrate import quad
    def integrand(u):  # u = ln t substitution keeps quad comfortable
        t = math.exp(u)
        ph = math.pi - 2.0 * math.atan(2.0 * t)
        return 2.0 * (1.0 - math.cos(n * ph)) * (u - LN_2PI) / (2.0 * math.pi) * t

    val, _ = quad(integrand, math.log(T), math.log(U), limit=200)
    # beyond U the integrand is ~ n^2/t^2 * ln(t/2pi)/2pi
    remainder = n * n * (math.log(U / (2 * math.pi)) + 1.0) / (2.0 * math.pi * U)
    return val + remainder


# ---------------------------------------------------------------------------
# Zero-table ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroTable:
    """Validated ordinates of nontrivial zeros, ascending."""

    ts: np.ndarray
    residuals: np.ndarray
    excluded: tuple[tuple[float, float], ...] = ()

    def __len__(self) -> int:
        return int(self.ts.size)

    def __getitem__(self, idx):
        return self.ts[idx]


def ingest_zeros(path: str, max_zeros: Optional[int] = None) -> ZeroTable:
    """Load a zero table (one ascending positive decimal per line, '#'
    comments) and validate each ordinate with this package's own xi.

    Zeros whose |xi(1/2 + i t)| exceed 1e-6 are excluded and
    reported; parse errors and ordering violations carry line numbers.
    At most max_zeros >= 1 ordinates are read.
    """
    if max_zeros is not None and max_zeros < 1:
        raise ValueError(f"max_zeros must be >= 1, got {max_zeros}")
    ts: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                t = float(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: unparsable ordinate {line!r}") from None
            if t <= 0.0:
                raise ValueError(f"{path}:{lineno}: ordinates must be positive")
            if ts and t <= ts[-1]:
                kind = "duplicate" if t == ts[-1] else "descending"
                raise ValueError(f"{path}:{lineno}: {kind} ordinate {t!r}")
            ts.append(t)
            if max_zeros is not None and len(ts) >= max_zeros:
                break
    if not ts:
        raise ValueError(f"{path}: no ordinates found")
    arr = np.asarray(ts)
    # one xi call per block of 8 neighbouring ordinates (N follows the largest
    # of them): each call carries a fixed array overhead of ~70 us
    residuals = np.concatenate([np.abs(xi(0.5 + 1j * arr[i : i + 8])) for i in range(0, arr.size, 8)])
    ok = residuals < 1e-6
    excluded = tuple((float(t), float(r)) for t, r in zip(arr[~ok], residuals[~ok]))
    return ZeroTable(
        ts=arr[ok],
        residuals=residuals[ok],
        excluded=excluded,
    )


def bundled_zeros_path() -> str:
    """Path of the zero table shipped with the package."""
    import importlib.resources as res

    return str(res.files("zetaumm").joinpath("data/zeros10k.txt"))
