"""Numerical toolkit for the unitary-matrix-model construction over the
Riemann zeta function's local factors: p-adic wavelets and Vladimirov
operators, resolvents and contour-extracted model coefficients,
renormalized critical-line data, trace-formula checks, and random-matrix
statistics.  `import zetaumm` loads no submodule."""

__version__ = "0.1.0"


class NumericConsistencyError(ArithmeticError):
    """Two independent evaluation routes disagree beyond combined tolerance."""
