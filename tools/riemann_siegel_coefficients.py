#!/usr/bin/env python3
"""Print the Taylor coefficients of the Riemann-Siegel correction terms
C_0..C_4 that `zetaumm.zeta` carries as the constant `_RS_COEFFS`.

Development tool only; the package itself never imports mpmath.  With
Psi(p) = cos 2pi(p^2 - p - 1/16) / cos 2pi p, an entire function
(Edwards, Riemann's Zeta Function, 1974, sec. 7.6; Gabcke 1979):

  C_0 = Psi
  C_1 = -Psi'''/(96 pi^2)
  C_2 = Psi''/(64 pi^2) + Psi^(6)/(18432 pi^4)
  C_3 = -Psi'/(64 pi^2) - Psi^(5)/(3840 pi^4) - Psi^(9)/(5308416 pi^6)
  C_4 = Psi/(128 pi^2) + 19 Psi^(4)/(24576 pi^4) + 11 Psi^(8)/(5898240 pi^6)
        + Psi^(12)/(2038431744 pi^8)

In x = p - 1/2, Psi = -cos(2pi x^2 - 5pi/8) / cos(2pi x) is even, so C_k
has the parity of k and is printed as x^(k mod 2) P_k(x^2): the
coefficients of P_k, highest power first (numpy.polyval order), cut where
the dropped terms cannot move C_k on |x| <= 1/2 by more than 1e-17.  The
Taylor series of Psi comes from dividing the series of numerator and
denominator at 100 digits.

Usage: python3 tools/riemann_siegel_coefficients.py > coefficients.py
"""

import sys

import mpmath

ORDER = 120  # Taylor terms of Psi in x
TAIL = mpmath.mpf("1e-17")

# C_k = sum of weight * Psi^(m) over (m, weight)
TERMS = [
    [(0, 1)],
    [(3, -1 / (96 * mpmath.pi**2))],
    [(2, 1 / (64 * mpmath.pi**2)), (6, 1 / (18432 * mpmath.pi**4))],
    [(1, -1 / (64 * mpmath.pi**2)), (5, -1 / (3840 * mpmath.pi**4)),
     (9, -1 / (5308416 * mpmath.pi**6))],
    [(0, 1 / (128 * mpmath.pi**2)), (4, 19 / (24576 * mpmath.pi**4)),
     (8, 11 / (5898240 * mpmath.pi**6)), (12, 1 / (2038431744 * mpmath.pi**8))],
]


def psi_series() -> list:
    """Taylor coefficients of Psi in x, orders 0..ORDER-1."""
    two_pi = 2 * mpmath.pi
    num = [mpmath.mpf(0)] * ORDER  # -cos(2pi x^2 - 5pi/8)
    den = [mpmath.mpf(0)] * ORDER  # cos(2pi x)
    for m in range(ORDER // 2):
        num[2 * m] = -two_pi**m / mpmath.factorial(m) * mpmath.cos(m * mpmath.pi / 2 - 5 * mpmath.pi / 8)
    for j in range(0, ORDER, 2):
        den[j] = (-1) ** (j // 2) * two_pi**j / mpmath.factorial(j)
    out = []
    for n in range(ORDER):
        acc = num[n] - sum(den[k] * out[n - k] for k in range(1, n + 1))
        out.append(acc / den[0])
    return out


def derivative(series: list, m: int) -> list:
    return [series[j] * mpmath.factorial(j) / mpmath.factorial(j - m) for j in range(m, len(series))]


def main() -> int:
    mpmath.mp.dps = 100
    psi = psi_series()
    print("_RS_COEFFS = (")
    for k, terms in enumerate(TERMS):
        c = [mpmath.mpf(0)] * (ORDER - 12)
        for m, weight in terms:
            for j, value in enumerate(derivative(psi, m)[: len(c)]):
                c[j] += weight * value
        parity = c[k % 2 :: 2]  # P_k coefficients, lowest power first
        keep, tail = len(parity), mpmath.mpf(0)
        while tail + abs(parity[keep - 1]) * mpmath.mpf(2) ** -(2 * keep - 2 + k % 2) <= TAIL:
            keep -= 1
            tail += abs(parity[keep]) * mpmath.mpf(2) ** -(2 * keep + k % 2)
        values = [repr(float(v)) for v in reversed(parity[:keep])]
        print(f"    (  # C_{k}: {keep} coefficients")
        for i in range(0, len(values), 3):
            print("        " + ", ".join(values[i : i + 3]) + ",")
        print("    ),")
    print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
