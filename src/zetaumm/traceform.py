"""Trace-formula evaluation over zeros, primes, and the archimedean place,
plus the Wigner-marginal prime-power combs.

The identity checked here (Gaussian test function g(q) = e^(-q^2/(2a^2))
of width a, transform h(u) = int g(q) e^{iqu} dq = a sqrt(2pi) e^(-(au)^2/2)):

    h(i/2) + h(-i/2) - sum_m h(t_m)
        + (1/2pi) int h(u) Re psi(1/4 + iu/2) du
    = g(0) ln pi + 2 sum_p ln p sum_n p^(-n/2) g(n ln p)

with the zero sum running over both conjugate halves: Weil's explicit
formula (Weil 1952; Iwaniec & Kowalski 2004, ch. 5) for the pair
g(q) = (1/2pi) int h(u) e^{-iqu} du.  The log-derivative
(1/2) psi(s/2) - (1/2) ln pi of the gamma factor pi^(-s/2) Gamma(s/2),
integrated against h on s = 1/2 + iu (ds = i du, over 2 pi i) for s and
for 1 - s, gives the 1/(2pi) digamma integral and g(0) ln pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .padics import require_prime
from .zeta import LN_PI, PrimeTable, ZeroTable, _digamma

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Prime-power combs (Wigner marginals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimePowerComb:
    """Delta-comb data q = n ln p with weights ln p (optionally damped).

    For a single prime the position marginal repeats with period
    2 pi / ln p; that period ships as metadata rather than as samples of a
    divergent object.
    """

    locations: np.ndarray
    weights: np.ndarray
    position_period: Optional[float]


def wigner_marginal_comb(
    p: Union[int, str],
    mu: float = 0.0,
    q_max: float = 10.0,
) -> PrimePowerComb:
    """Momentum-marginal comb of the phase-space density.

    p = prime: locations n ln p <= q_max, weights ln p * e^(-mu n ln p),
    plus the position-marginal period 2 pi/ln p.  p = 'all': every prime
    power p^n <= e^q_max, weights ln p * p^(-n mu).
    """
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    if p == "all":
        # an integer p^k is <= e^q_max exactly when it is <= floor(e^q_max)
        primes = PrimeTable.build(int(math.exp(q_max)))
        locs = primes.power_exponents * primes.power_weights
        wts = primes.power_weights * np.exp(-mu * locs)
        return PrimePowerComb(locs, wts, None)  # k ln p ascends with p^k
    p = int(p)
    require_prime(p)
    lp = math.log(p)
    n = np.arange(1, int(q_max / lp) + 1)
    locs = n * lp
    wts = lp * np.exp(-mu * locs)
    return PrimePowerComb(locs, wts, TWO_PI / lp)


# ---------------------------------------------------------------------------
# Trace formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """Both sides of the trace formula term by term, with honest truncation
    bounds.  Each map keeps the order its artifact prints it in."""

    lhs_terms: dict[str, float]  # pole, zero_sum, digamma
    rhs_terms: dict[str, float]  # log_pi, prime_sum
    bounds: dict[str, float]  # zero_tail, prime_tail, digamma_tail, quadrature

    @property
    def lhs(self) -> float:
        t = self.lhs_terms
        return t["pole"] - t["zero_sum"] + t["digamma"]

    @property
    def rhs(self) -> float:
        return self.rhs_terms["log_pi"] + self.rhs_terms["prime_sum"]

    @property
    def residual(self) -> float:
        return float(self.lhs - self.rhs)

    @property
    def total_bound(self) -> float:
        return sum(self.bounds.values())


def _g(a: float, q):
    return np.exp(-q * q / (2.0 * a * a))


def _h(a: float, u):
    """Transform of `_g`; u may be complex (the pole term needs h(i/2))."""
    return a * math.sqrt(TWO_PI) * np.exp(-0.5 * (a * u) ** 2)


def trace_formula_check(
    a: float,
    zeros: ZeroTable,
    n_zeros: int,
    primes: PrimeTable,
) -> TraceReport:
    """Evaluate both sides of the trace formula for the Gaussian of width a
    and their residual.

    Widths lie in [0.5, 3], where every tail is estimable: zero and prime
    sums carry explicit remainder bounds, the archimedean integral a cutoff
    bound < 1e-12.  The prime side sums every prime power of the table,
    p^k <= primes.limit included.
    """
    if not 0.5 <= a <= 3.0:
        raise ValueError("Gaussian width must lie in [0.5, 3]")
    if primes.limit < 2:
        raise ValueError(f"prime limit {primes.limit} holds no prime (need >= 2)")
    if n_zeros < 50:
        raise ValueError("need at least 50 zeros")
    if len(zeros) < n_zeros:
        raise ValueError(f"zero table holds {len(zeros)} < n_zeros = {n_zeros}")
    ts = zeros.ts[:n_zeros]

    pole = float(2.0 * _h(a, 0.5j).real)
    zero_sum = float(2.0 * _h(a, ts).sum())
    lnp = primes.power_weights
    q = primes.power_exponents * lnp
    prime_sum = float(2.0 * (lnp * np.exp(-0.5 * q) * _g(a, q)).sum())

    # trapezoid rule with 1601 nodes on [-U, U]: the integrand is analytic
    # for |Im u| < 1/2 and Gaussian-damped, so the rule converges
    # geometrically (Trefethen-Weideman 2014).  The 801-node rule on every
    # other node misses by ~1e-12, and that difference is the estimate.
    # The end values are below e^-98 and left out.
    U = max(40.0, 14.0 / a)
    step = U / 800
    u = step * np.arange(-800, 801)
    f = _h(a, u) * _digamma(0.25 + 0.5j * u).real
    val = f.sum() * step
    quad_err = abs(val - f[::2].sum() * 2.0 * step)
    dig = val / TWO_PI

    # tail bounds (Gaussian closed forms; x3 margins absorb prime and
    # zero-count fluctuations around the smooth densities)
    T = float(ts[-1])
    # sum_{t > T} 2 h(t) dN, dN ~ ln(t/2pi)/2pi dt, density frozen at 2T
    density = math.log(max(2.0 * T, 7.0) / TWO_PI) / TWO_PI
    zero_tail = float(3.0 * density * 2.0 * math.pi * math.erfc(a * T / math.sqrt(2.0)))
    # 2 int_{ln X}^inf e^{q/2} g(q) dq by completing the square
    qX = math.log(primes.limit)
    prime_tail = float(
        6.0
        * math.exp(a * a / 8.0)
        * a
        * math.sqrt(math.pi / 2.0)
        * math.erfc((qX - 0.5 * a * a) / (a * math.sqrt(2.0)))
    )
    # |Re psi(1/4 + iu/2)| <= ln(2+u) + 2 past the cutoff
    dig_tail = float((math.log(2.0 + U) + 2.0) * math.erfc(a * U / math.sqrt(2.0)))

    return TraceReport(
        lhs_terms={"pole": pole, "zero_sum": zero_sum, "digamma": dig},
        rhs_terms={"log_pi": LN_PI, "prime_sum": prime_sum},
        bounds={
            "zero_tail": zero_tail,
            "prime_tail": prime_tail,
            "digamma_tail": dig_tail,
            "quadrature": float(quad_err / TWO_PI + 1e-13 * (abs(pole) + abs(prime_sum))),
        },
    )
