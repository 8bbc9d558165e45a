"""Numerical toolkit for the unitary-matrix-model construction over the
Riemann zeta function's local factors: p-adic wavelets and Vladimirov
operators, resolvents and contour-extracted model coefficients,
renormalized critical-line data, trace-formula checks, and random-matrix
statistics.

`import zetaumm` loads no submodule; `zetaumm.<module>` imports it on
first access."""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ensemble",
    "output",
    "padics",
    "resolvent",
    "traceform",
    "wavelets",
    "zeta",
]


def __getattr__(name: str):
    if name in __all__:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
