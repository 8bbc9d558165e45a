"""Numerical toolkit for the unitary-matrix-model construction over the
Riemann zeta function's local factors: p-adic wavelets and Vladimirov
operators, resolvents and contour-extracted model coefficients,
renormalized critical-line data, trace-formula checks, and random-matrix
statistics.  `import zetaumm` loads no submodule."""

__version__ = "0.1.0"


class NumericConsistencyError(ArithmeticError):
    """Two independent evaluation routes disagree beyond combined tolerance."""


def is_prime(n: int) -> bool:
    """Trial-division primality test (the primes used here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p = {p!r} is not a prime")


def _cmul(x, y):
    """x * y from real products and sums.  Whether numpy's complex multiply
    fuses a multiply-add depends on the CPU and on the shapes of its
    operands, so with it a product's bits would depend on array vs scalar
    input, or on the size of the chunk of samples it is taken in.  A
    product with a real factor (one whose imaginary part is 0) rounds once
    either way.  The values still depend on the machine through numpy's
    SIMD loops for exp, log and the like, and through LAPACK."""
    import numpy as np  # here, so that the commands that need no numpy load none

    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out
