"""Exact arithmetic on Q_p.

Points of Q_p are rationals, so norms, fractional parts, characters and
ball memberships are computed exactly (arbitrary-precision integers) and
only complex outputs are rounded to binary64.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from . import require_prime

Rational = Union[int, Fraction]


def valuation(x: Rational, p: int) -> int:
    """ord_p(x): the exponent of p in x.  Undefined (raises) for x = 0."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        raise ValueError("ord_p(0) is not finite")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_norm(x: Rational, p: int) -> Fraction:
    """|x|_p = p^(ord_p(den) - ord_p(num)); |0|_p = 0 by convention."""
    require_prime(p)
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    return Fraction(p) ** -valuation(x, p)


def fractional_part(x: Rational, p: int) -> Fraction:
    """The p-adic fractional part {x}_p: the negative-power tail of the
    expansion, as a rational in [0, 1) with denominator a power of p."""
    require_prime(p)
    x = Fraction(x)
    den = x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    pk = p**k
    # x = a / (den * p^k) with p coprime to den; invert den mod p^k.
    a = x.numerator * pow(den, -1, pk)
    return Fraction(a % pk, pk)


def additive_character(p: int, x: Rational) -> complex:
    """chi(x) = exp(2 pi i {x}_p), the rank-one additive character of Q_p."""
    return cmath.exp(2j * cmath.pi * float(fractional_part(x, p)))


@dataclass(frozen=True)
class ShellSum:
    """Truncated Haar integral of |xi|_p^(s-1) over {|xi|_p < 1} plus bounds.

    `value` is the K-shell partial sum, `tail_bound` a geometric bound on
    the omitted shells, `closed_form` the limit (p-1)/p * p^-s/(1-p^-s).
    All three are exact Fractions for integer s and binary64 complex
    otherwise.
    """

    value: Union[Fraction, complex]
    tail_bound: Union[Fraction, float]
    closed_form: Union[Fraction, complex]


def haar_integrate_norm_power(p: int, s: Union[int, float, complex], K: int) -> ShellSum:
    """Integrate |xi|_p^(s-1) over the region {|xi|_p < 1} shell by shell.

    Shell |xi|_p = p^-k has measure (1-1/p) p^-k, so the integral is
    sum_{k>=1} (1-1/p) p^(-ks); requires Re(s) > 0 for convergence.  The
    region, written Z_p^x in some sources, is the ball p Z_p of measure 1/p,
    not the unit group {|xi|_p = 1} of measure 1 - 1/p.
    """
    require_prime(p)
    if K < 1:
        raise ValueError("K must be >= 1")
    sigma = s.real if isinstance(s, complex) else float(s)
    if sigma <= 0:
        raise ValueError(f"Re(s) = {sigma} <= 0: shell sum diverges")

    exact = isinstance(s, int)
    if exact:
        # integer exponent (s >= 1 here): every shell term is an exact rational
        w, q = Fraction(p - 1, p), Fraction(1, p**s)
    else:
        w, q = (p - 1) / p, p ** (-complex(s))
    qa = abs(q)
    value = w * sum(q**k for k in range(1, K + 1))
    tail = w * qa ** (K + 1) / (1 - qa)
    if not exact:
        # binary64 path: pad the geometric bound with a rounding allowance so
        # the reported bound stays honest once the tail drops below 1 ulp
        tail += 16 * 2.220446049250313e-16 * (K + 2) * max(abs(value), 1.0)
    closed = w * q / (1 - q)
    return ShellSum(value, tail, closed)


def ball_coset_representatives(
    p: int, center: Fraction, level: int, K: int
) -> Iterator[Fraction]:
    """Representatives of level-K cosets inside the ball of radius p^(-level)
    around `center`; requires K >= level."""
    if K < level:
        raise ValueError("K must refine the ball: K >= level")
    # the ball is center + p^level Z_p, so reps step by p^level
    step = Fraction(p) ** level
    for j in range(p ** (K - level)):
        yield center + j * step
