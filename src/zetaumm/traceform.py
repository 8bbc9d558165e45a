"""Trace-formula evaluation over zeros, primes, and the archimedean place,
plus the Wigner-marginal prime-power combs.

The identity checked here (Gaussian test functions g, transform
h(u) = int g(q) e^{iqu} dq):

    h(i/2) + h(-i/2) - sum_m h(t_m)
        + (1/2pi) int h(u) Re psi(1/4 + iu/2) du
    = g(0) ln pi + 2 sum_p ln p sum_n p^(-n/2) g(n ln p)

with the zero sum running over both conjugate halves.  The archimedean
integral carries a 1/(2pi) normalisation; the identity was pinned
numerically to machine precision across widths before being frozen here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, erfc

from .padics import require_prime
from .zeta import PrimeTable, ZeroTable

LN_PI = math.log(math.pi)
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class TestFunctionPair:
    """Even test function g and its Fourier transform h.

    h must accept complex arguments (the pole term needs h(+-i/2)).
    Every pair goes through `self_test` before use.  width is the Gaussian
    width a for the `gaussian` family, whose tails have closed-form bounds,
    and None for any other pair.
    """

    __test__ = False  # despite the name, not a pytest collection target

    g: Callable[[float], float]
    h: Callable[[complex], complex]
    label: str
    width: Optional[float] = None

    @classmethod
    def gaussian(cls, a: float) -> "TestFunctionPair":
        if not 0.0 < a:
            raise ValueError("width must be positive")

        def g(q: float) -> float:
            return math.exp(-q * q / (2.0 * a * a))

        def h(u: complex) -> complex:
            return a * math.sqrt(TWO_PI) * np.exp(-0.5 * (a * u) ** 2)

        return cls(g, h, f"gaussian(a={a})", a)

    def self_test(self, grid: Optional[Sequence[float]] = None, tol: float = 1e-10) -> float:
        """Verify h against direct quadrature of the transform on a grid;
        returns the worst deviation and raises beyond `tol`."""
        if grid is None:
            grid = np.linspace(0.0, 4.0, 9)
        worst = 0.0
        for u in grid:
            val, _ = quad(lambda q: self.g(q) * math.cos(u * q), 0.0, 60.0, limit=400)
            worst = max(worst, abs(2.0 * val - complex(self.h(u)).real))
            worst = max(worst, abs(complex(self.h(u)).imag))
        if worst > tol:
            raise ValueError(
                f"test-function pair {self.label!r} fails its transform "
                f"self-test by {worst:.3e}"
            )
        return worst


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
    mu: float
    prime: Optional[int]
    position_period: Optional[float]


def wigner_marginal_comb(
    p: Union[int, str],
    mu: float = 0.0,
    q_max: float = 10.0,
    primes: Optional[PrimeTable] = None,
) -> PrimePowerComb:
    """Momentum-marginal comb of the phase-space density.

    p = prime: locations n ln p <= q_max, weights ln p * e^(-mu n ln p),
    plus the position-marginal period 2 pi/ln p.  p = 'all': every prime
    power p^n <= e^q_max, weights ln p * p^(-n mu).
    """
    if q_max <= 0:
        raise ValueError("q_max must be positive")
    if p == "all":
        limit = int(math.exp(q_max)) + 1
        if primes is None or primes.limit < limit:
            primes = PrimeTable.build(limit)
        sel = primes.power_values <= math.exp(q_max)
        locs = primes.power_exponents[sel] * primes.power_weights[sel]
        wts = primes.power_weights[sel] * np.exp(-mu * locs)
        order = np.argsort(locs)
        return PrimePowerComb(locs[order], wts[order], mu, None, None)
    p = int(p)
    require_prime(p)
    lp = math.log(p)
    n = np.arange(1, int(q_max / lp) + 1)
    locs = n * lp
    wts = lp * np.exp(-mu * locs)
    return PrimePowerComb(locs, wts, mu, p, TWO_PI / lp)


# ---------------------------------------------------------------------------
# Trace formula
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceReport:
    """Both sides of the trace formula with honest truncation bounds."""

    lhs_pole: float
    lhs_zero_sum: float
    lhs_digamma: float
    rhs_log_pi: float
    rhs_prime_sum: float
    residual: float
    zero_tail_bound: float
    prime_tail_bound: float
    digamma_tail_bound: float
    quadrature_error: float
    n_zeros: int
    prime_limit: int
    pair_label: str

    @property
    def lhs(self) -> float:
        return self.lhs_pole - self.lhs_zero_sum + self.lhs_digamma

    @property
    def rhs(self) -> float:
        return self.rhs_log_pi + self.rhs_prime_sum

    @property
    def total_bound(self) -> float:
        return (
            self.zero_tail_bound
            + self.prime_tail_bound
            + self.digamma_tail_bound
            + self.quadrature_error
        )


def trace_formula_check(
    pair: TestFunctionPair,
    zeros: Union[ZeroTable, Sequence[float]],
    n_zeros: int,
    primes: PrimeTable,
) -> TraceReport:
    """Evaluate both sides of the trace formula and their residual.

    Only Gaussian pairs are accepted, with widths in [0.5, 3] (all tails
    estimable); zero and prime sums carry explicit remainder bounds, the
    archimedean integral a cutoff bound < 1e-12.  Any non-finite bound
    aborts with diagnosis.
    """
    a = pair.width
    if a is not None and not 0.5 <= a <= 3.0:
        raise ValueError("Gaussian width must lie in [0.5, 3]")
    pair.self_test()
    if a is None:
        raise ValueError(f"pair {pair.label!r}: closed-form tail bounds exist only for the "
                         "Gaussian family (TestFunctionPair.gaussian)")
    ts = np.asarray(zeros.ts if isinstance(zeros, ZeroTable) else zeros, dtype=float)
    if n_zeros < 50:
        raise ValueError("need at least 50 zeros")
    if ts.size < n_zeros:
        raise ValueError(f"zero table holds {ts.size} < n_zeros = {n_zeros}")
    ts = ts[:n_zeros]

    pole = float(2.0 * complex(pair.h(0.5j)).real)
    zero_sum = float(2.0 * sum(complex(pair.h(t)).real for t in ts))

    # prime side through the mu = 1/2 marginal comb (shared code path)
    q_max = math.log(primes.limit)
    comb = wigner_marginal_comb("all", mu=0.5, q_max=q_max, primes=primes)
    prime_sum = float(2.0 * (comb.weights * np.array([pair.g(q) for q in comb.locations])).sum())

    U = max(40.0, 14.0 / a)
    integrand = lambda u: complex(pair.h(u)).real * float(digamma(0.25 + 0.5j * u).real)
    val, quad_err = quad(integrand, -U, U, limit=800)
    dig = val / TWO_PI

    # tail bounds (Gaussian closed forms; x3 margins absorb prime and
    # zero-count fluctuations around the smooth densities)
    T = float(ts[-1])
    # sum_{t > T} 2 h(t) dN, dN ~ ln(t/2pi)/2pi dt, density frozen at 2T
    density = math.log(max(2.0 * T, 7.0) / TWO_PI) / TWO_PI
    zero_tail = float(3.0 * density * 2.0 * math.pi * erfc(a * T / math.sqrt(2.0)))
    # 2 int_{ln X}^inf e^{q/2} g(q) dq by completing the square
    qX = math.log(primes.limit)
    prime_tail = float(
        6.0
        * math.exp(a * a / 8.0)
        * a
        * math.sqrt(math.pi / 2.0)
        * erfc((qX - 0.5 * a * a) / (a * math.sqrt(2.0)))
    )
    # |Re psi(1/4 + iu/2)| <= ln(2+u) + 2 past the cutoff
    dig_tail = float((math.log(2.0 + U) + 2.0) * erfc(a * U / math.sqrt(2.0)))
    for name, bound in (("zero", zero_tail), ("prime", prime_tail), ("digamma", dig_tail)):
        if not math.isfinite(bound):
            raise ArithmeticError(f"{name}-sum tail estimate is not finite; aborting")

    lnpi_term = float(pair.g(0.0) * LN_PI)
    residual = (pole - zero_sum + dig) - (lnpi_term + prime_sum)
    return TraceReport(
        lhs_pole=pole,
        lhs_zero_sum=zero_sum,
        lhs_digamma=dig,
        rhs_log_pi=lnpi_term,
        rhs_prime_sum=prime_sum,
        residual=float(residual),
        zero_tail_bound=zero_tail,
        prime_tail_bound=prime_tail,
        digamma_tail_bound=dig_tail,
        quadrature_error=float(quad_err / TWO_PI + 1e-13 * (abs(pole) + abs(prime_sum))),
        n_zeros=n_zeros,
        prime_limit=primes.limit,
        pair_label=pair.label,
    )
