"""Unitary-matrix-model core: model resolvents, contour extraction of the
defining coefficients, eigenvalue density and potential profiles, and the
renormalized coefficients on the critical line.

Contour Taylor coefficients are extracted by the trapezoid rule on circles
|z| = r (spectrally accurate for analytic integrands), which on Q uniform
nodes is one FFT of the samples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import zeta as zt
from .padics import haar_integrate_norm_power, is_prime, require_prime
from .zeta import NumericConsistencyError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Resolvent models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolventModel:
    """Tagged analytic family on the unit disk.

    kind: 'local' (Euler factor at prime p), 'gamma' (archimedean factor),
    'shifted' (zeta log-derivative recentred at Re s = s0), 'xi'
    (completed-zeta log series).  The shifted model needs s0 > 1: the unit
    disk maps onto Re s > s0, so for s0 < 1 the zeta pole enters the disk,
    and a pole inside both extraction circles escapes the radius check.
    """

    kind: str
    p: Optional[int] = None
    s0: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("local", "gamma", "shifted", "xi"):
            raise ValueError(f"unknown resolvent kind {self.kind!r}")
        if self.kind == "local" and not is_prime(self.p or 0):
            raise ValueError("local model needs a prime p")
        if self.kind == "shifted" and (self.s0 is None or self.s0 <= 1.0):
            raise ValueError("shifted model needs the recentring abscissa s0 > 1")
        if self.kind != "shifted" and self.s0 is not None:
            raise ValueError(f"s0 is read by the shifted model only, not by {self.kind!r}")
        if self.kind != "local" and self.p is not None:
            raise ValueError(f"p is read by the local model only, not by {self.kind!r}")


def _mul(a, b) -> np.ndarray:
    """Complex product from real products and sums: numpy's complex array
    multiply may fuse multiply-adds depending on the CPU, this cannot, so
    samples do not depend on the machine or on array vs scalar input."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _fluctuation_inside(model: ResolventModel, z) -> np.ndarray:
    """R_<(z) - 1 on |z| < 1 for a scalar or an array of z, in closed form
    (no numeric differencing)."""
    z = np.asarray(z, dtype=complex)
    pref = z / _mul(1.0 - z, 1.0 - z)  # z/(1-z)^2
    s = (1.0 + z) / (1.0 - z)
    if model.kind == "local":
        w = np.exp(-s * math.log(model.p))
        return _mul(pref, w) / (1.0 - w)
    if model.kind == "gamma":
        return _mul(0.5 * pref, zt._digamma(0.5 * s) - zt.LN_PI)
    s = model.s0 + (1.0 + z) / (2.0 * (1.0 - z))
    val, dval = zt.zeta_and_derivative(s)
    return pref * (dval / val)


def resolvent(model: ResolventModel, z: complex) -> complex:
    """Evaluate the model resolvent on the branch |z| picks: the closed form
    inside the unit disk, its reflection 1 - R(1/z) outside.

    |z| = 1 is rejected here: boundary densities are handled by
    density_profile, not by this closed form.  The xi model has
    coefficients (beta_contour) but no pointwise resolvent.
    """
    if model.kind == "xi":
        raise ValueError("the xi model has coefficients only, no pointwise resolvent")
    zc = complex(z)
    az = abs(zc)
    if abs(az - 1.0) < 1e-12:
        raise ValueError("resolvent is not evaluated on the unit circle")
    if az < 1.0:
        return 1.0 + _fluctuation_inside(model, zc)
    # for local and gamma the reflection is their |z| > 1 closed form:
    # s(1/z) = -s(z) and z/(1-z)^2 is unchanged
    return 1.0 - resolvent(model, 1.0 / zc)


# ---------------------------------------------------------------------------
# Contour extraction of Taylor coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaSeries:
    """Model coefficients beta_1..beta_M with their quadrature deltas:
    per-coefficient |Δbeta_n| under node doubling and on the second radius
    (zero for the prime-sum route, which carries error_estimates)."""

    coefficients: np.ndarray  # complex, index 0 holds beta_1
    doubling_deltas: np.ndarray
    radius_deltas: np.ndarray
    error_estimates: Optional[np.ndarray] = None

    @property
    def radius_error(self) -> float:
        return float(self.radius_deltas.max(initial=0.0))

    @property
    def doubling_error(self) -> float:
        return float(self.doubling_deltas.max(initial=0.0))

    def __len__(self) -> int:
        return int(self.coefficients.size)


def _taylor_from_samples(samples: np.ndarray, r: float, M: int) -> np.ndarray:
    """[z^m] for m = 1..M < Q from Q uniform samples on |z| = r: the
    trapezoid rule on the circle is one FFT."""
    Q = samples.size
    return np.fft.fft(samples)[1 : M + 1] / Q / r ** np.arange(1, M + 1)


def _unwound_log_samples(values: np.ndarray) -> np.ndarray:
    """log f along a closed contour with continuous argument; a nonzero
    total winding is surfaced as an error.  It means zeros/poles inside,
    unless a phase step between neighbouring nodes exceeds pi/2: then the
    nodes cannot follow the phase and the winding count is not trusted."""
    mag = np.log(np.abs(values))
    ang = np.unwrap(np.angle(values))
    closing = np.angle(values[0] / values[-1])
    total = ang[-1] + closing - ang[0]
    if abs(total) > math.pi:
        step = max(np.abs(np.diff(ang)).max(), abs(closing))
        cause = (f"the phase is under-resolved by the nodes (largest step between "
                 f"neighbouring nodes {step:.2f} rad)" if step > 0.5 * math.pi
                 else "the function has zeros or poles inside the contour")
        raise NumericConsistencyError(f"contour log winds by {total / TWO_PI:.2f} turns: {cause}")
    return mag + 1j * ang


def contour_coefficients(
    f: Callable[[np.ndarray], np.ndarray],
    M: int,
    r: float,
    Q: int,
    log: bool = False,
) -> BetaSeries:
    """Taylor coefficients [z^m] f(z), or [z^m] ln f(z) with `log`, of a
    function analytic on the closed disk |z| <= max(r, r2), by the
    trapezoid rule on |z| = r with 2Q nodes; the deltas are taken against
    Q nodes and against Q nodes on the second radius r2, so M must be < Q.

    f is called once per node array.  The log route unwinds the argument
    along the contour and raises if ln f winds (zeros or poles inside).
    The second radius r2 = 1.4 r (r <= 0.6) or 0.7 r checks analyticity:
    coefficients moving between radii by more than a tolerance set above
    the r^-M rounding floor of the extraction raise instead of returning a
    value, so the guard trips on singularities inside the contour, not on
    binary64 noise.  A singularity that both circles enclose moves neither
    set of coefficients, so this check cannot see it: callers must keep
    singularities out of the disk |z| <= r2 themselves.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not 0.0 < r < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if Q < 64 or Q & (Q - 1):
        raise ValueError("node count must be a power of two >= 64")
    if M >= Q:
        raise ValueError(f"M = {M} needs more than Q = {Q} nodes: Q nodes give Q coefficients")
    r2 = r * 1.4 if r <= 0.6 else r * 0.7
    tol = max(1e-6, 3000.0 * zt.EPS * max(r**-M, r2**-M) / math.sqrt(Q))

    def samples(radius: float, nodes: int) -> np.ndarray:
        vals = f(radius * np.exp(1j * (TWO_PI * np.arange(nodes) / nodes)))
        return _unwound_log_samples(vals) if log else vals

    fine = samples(r, 2 * Q)
    values = _taylor_from_samples(fine, r, M)
    doubling = np.abs(values - _taylor_from_samples(fine[::2], r, M))
    deltas = np.abs(values - _taylor_from_samples(samples(r2, Q), r2, M))
    if deltas.max(initial=0.0) > tol:
        raise NumericConsistencyError(
            f"contour coefficients moved by {deltas.max():.3e} between radii "
            f"{r} and {r2}; not returning a value"
        )
    return BetaSeries(values, doubling, deltas)


def beta_contour(
    model: ResolventModel,
    M: int,
    r: float = 0.5,
    Q: int = 512,
) -> BetaSeries:
    """beta_n = (1/2 pi i) oint dz z^-(n+1) (R_<(z) - 1) by the shared
    contour extractor on |z| = r, with its node-doubling and second-radius
    guards (analyticity says the coefficients cannot depend on r)."""
    if model.kind == "xi":
        # the xi series is a log series, read by the unwinding extractor
        return beta_symmetric(M, r, Q)
    f = lambda z: _fluctuation_inside(model, z)
    return contour_coefficients(f, M, r, Q)


# ---------------------------------------------------------------------------
# Local-model closed forms on and off the circle
# ---------------------------------------------------------------------------


def potential_sum_local(p: int, z: complex) -> complex:
    """sum_n beta_n^(p) z^n / n in closed form,
    (1/2 ln p) ln[(1 - p^-s)/(1 - p^-1)] with s = (1+z)/(1-z)."""
    zc = complex(z)
    if abs(zc) >= 1.0:
        raise ValueError("potential sum converges on the open disk only")
    if zc == 0.0:
        return 0.0 + 0.0j
    s = (1.0 + zc) / (1.0 - zc)
    num = 1.0 - np.exp(-s * math.log(p))
    return complex(np.log(num / (1.0 - 1.0 / p)) / (2.0 * math.log(p)))


@dataclass(frozen=True)
class DensityProfile:
    """Spike data and smooth potential derivative of the local model.

    Spikes sit where the conformal image of the local-factor poles meets
    the circle; each carries weight pi/ln p in the cot(theta/2) coordinate.
    """

    spike_angles: np.ndarray
    spike_indices: np.ndarray
    spike_weight: float
    vprime: np.ndarray


def local_spike_angles(p: int, n_spikes: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles with cot(theta/2) = 2 pi n/ln p for n = -n_spikes..n_spikes.

    n = 0 (theta = pi) is a genuine pole of the local factor at s = 0 and
    is included; positive n land in (0, pi), mirrors in (pi, 2 pi).
    """
    ns = np.arange(-n_spikes, n_spikes + 1)
    angles = 2.0 * np.arctan2(math.log(p), TWO_PI * ns)
    # arctan2 keeps theta in (0, 2pi) going through pi at n = 0
    return angles, ns


def local_potential_derivative(p: int, theta: np.ndarray) -> np.ndarray:
    """-V'(theta) = (1/(4 sin^2(theta/2))) cot((ln p/2) cot(theta/2)) for the
    `ensemble` action with V(theta) = 2 Re F(e^{i theta}), F =
    `potential_sum_local`: the symmetric-pair resummation of the pole sum, and
    the Abel limit of 2 Im R_<(r e^{i theta}), since dF/dtheta = i (R_< - 1)."""
    th = np.asarray(theta, dtype=float)
    x = 1.0 / np.tan(0.5 * th)
    return 1.0 / (4.0 * np.sin(0.5 * th) ** 2 * np.tan(0.5 * math.log(p) * x))


def _cot_half(theta: float) -> float:
    return math.cos(0.5 * theta) / math.sin(0.5 * theta)


def density_profile(p: int, theta_grid: Sequence[float], n_spikes: int) -> DensityProfile:
    """Spike list plus V' samples; grid points within 1e-9 of a spike angle
    or of theta = 0 (the conformal accumulation point) are rejected."""
    require_prime(p)
    if n_spikes < 0:
        raise ValueError(f"n_spikes must be >= 0, got {n_spikes}")
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size < 1 or grid.min() <= 0.0 or grid.max() >= TWO_PI:
        raise ValueError("theta grid must be non-empty and lie strictly inside (0, 2pi)")
    for th in grid:
        if min(abs(th), abs(TWO_PI - th)) < 1e-9:
            raise ValueError(f"grid point {th} too close to the theta = 0 artefact")
        # nearest spike without enumerating the accumulation near 0/2pi
        n_near = round(_cot_half(th) * math.log(p) / TWO_PI)
        th_near = 2.0 * math.atan2(math.log(p), TWO_PI * n_near)
        if abs(th - th_near) < 1e-9:
            raise ValueError(f"grid point {th} sits on a density spike")
    sel_angles, sel_ns = local_spike_angles(p, n_spikes)
    return DensityProfile(
        spike_angles=sel_angles,
        spike_indices=sel_ns,
        spike_weight=math.pi / math.log(p),
        vprime=local_potential_derivative(p, grid),
    )


@dataclass(frozen=True)
class TraceFluctuation:
    partial: complex
    closed_form: complex
    tail_bound: float
    pole_proximity: bool


def trace_fluctuation(p: int, theta: float, eps: float, N: int) -> TraceFluctuation:
    """Abel-regularised trace of D^(-i cot(theta/2)) over the restricted
    basis: partial sum of p^-nw, n = 1..N, and geometric closed form
    p^-w/(1 - p^-w) with w = eps + i cot(theta/2), plus the geometric tail
    bound.  That sum is the Haar shell sum of |xi|_p^(w-1) over p Z_p
    divided by the shell weight 1 - 1/p.

    pole_proximity flags w approaching a local-factor pole (closed form
    denominator nearly vanishing as eps -> 0 on a spike angle).
    """
    if eps <= 0:
        raise ValueError("Abel parameter eps must be positive")
    w = complex(eps, _cot_half(theta))
    shells = haar_integrate_norm_power(p, w, N)
    scale = p / (p - 1)
    # on a spike angle the denominator is pinned at the Abel regulator
    # 1 - p^-eps and blows up as eps -> 0: flag that regime explicitly
    near_pole = abs(1.0 - p ** -w) <= 2.0 * (1.0 - p ** (-eps)) + 1e-14
    return TraceFluctuation(scale * shells.value, scale * shells.closed_form,
                            scale * shells.tail_bound, bool(near_pole))


# ---------------------------------------------------------------------------
# Renormalized coefficients (critical-line data)
# ---------------------------------------------------------------------------


def xi_log_series(M: int, r: float, Q: int) -> BetaSeries:
    """Xi_m = [z^m] ln xi(1/(1-z)) for m = 1..M, with the extractor's deltas."""
    return contour_coefficients(lambda z: zt.xi(1.0 / (1.0 - z)), M, r, Q, log=True)


def gamma_log_coefficients(M: int, r: float = 0.5, Q: int = 1024) -> np.ndarray:
    """R_m = [z^m] ln zeta_R(1/(1-z)) (archimedean log series)."""
    # loggamma is already branch-continuous on the right half-plane image
    f = lambda z: zt.log_zeta_real_place(1.0 / (1.0 - z))
    return contour_coefficients(f, M, r, Q).coefficients


def beta_symmetric(M: int, r: float = 0.5, Q: int = 1024) -> BetaSeries:
    """beta_m^sym = -(1/(2 ln 2)) [z^m] ln xi(1/(1-z))."""
    c, scale = xi_log_series(M, r, Q), 2.0 * math.log(2.0)
    return BetaSeries(-c.coefficients / scale, c.doubling_deltas / scale, c.radius_deltas / scale)


def _laguerre_alpha1_sums(M: int, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i L^(1)_m(x_i) for m = 0..M-1 at a 1-D x, by the three-term
    recurrence m L_m = (2m - x) L_(m-1) - m L_(m-2) from L_(-1) = 0 and
    L_0 = 1, carried on three rows.  The in-place steps follow the order of
    ((2m - x) L_(m-1) - m L_(m-2)) / m, so each element is the double that
    expression gives; each sum is numpy's pairwise sum of the products."""
    rows = [np.ones_like(x), np.empty_like(x), np.zeros_like(x)]  # L_0, -, L_(-1)
    prod, sums = np.empty_like(x), np.empty(M)
    for m in range(M):
        cur, prev1, prev2 = rows[m % 3], rows[(m - 1) % 3], rows[(m - 2) % 3]
        if m:
            np.subtract(2.0 * m, x, out=cur)
            cur *= prev1
            prev2 *= m  # L_(m-2) is not read again
            cur -= prev2
            cur /= m
        sums[m] = np.multiply(w, cur, out=prod).sum()
    return sums


# primes per chunk of the prime sum: the smallest power of two above
# pi(10^6) = 78498, so a level with no more primes than that is one chunk
_PRIME_CHUNK = 2**17


def beta_renormalized_prime_sum(
    M: int,
    mu: float,
    P_max: int = 10**6,
) -> BetaSeries:
    """Renormalized coefficients from explicit prime-power data.

    The line integral (1/4pi) int dx ((ix+1)/(ix-1))^m p^(-n(mu+ix/2)) is
    carried out in closed form per prime power (residue at x = -i):

        beta_m = - sum_p ln p sum_n p^(-n(mu+1/2)) L^(1)_(m-1)(n ln p),

    then the prime tail beyond P_max is completed by the smooth
    prime-density integral (terms fall off too slowly for raw truncation
    to reach 1e-6 at feasible sieve sizes).  Each power level is summed
    over contiguous chunks of _PRIME_CHUNK primes, one Laguerre row at a
    time, so memory is the pi(P_max) table of ln p plus six chunk-sized
    arrays (weights, arguments, three Laguerre rows and their product),
    whatever M and P_max are.  A level with at most _PRIME_CHUNK primes is
    one chunk, summed in the order of a single pass over its primes.
    """
    if mu <= 1.0:
        raise ValueError(
            "prime_sum needs mu > 1, the domain of the shifted model it expands: "
            "zeta's pole at s = 1 leaves the disk only for s0 = mu > 1 (the double "
            "sum over primes and powers, at sigma = mu + 1/2, converges absolutely "
            "already for mu > 1/2)"
        )
    if M < 1:
        raise ValueError("M must be >= 1")
    if P_max < 2:
        raise ValueError(f"P_max must be >= 2 (no prime up to {P_max})")
    logp_all = np.log(zt.sieve_primes(P_max))
    sigma = mu + 0.5
    w_buf, x_buf = np.empty((2, min(_PRIME_CHUNK, logp_all.size)))
    # powers of large primes are invisible at working precision: the n-th
    # powers take the primes p <= cut, a prefix of the ascending primes.  The
    # loop ends at the first n with 2^(n sigma) > e^48 (cut < 2): n <= 46 are
    # summed, as sigma > 3/2
    coeffs = np.zeros(M)
    for n in itertools.count(1):
        cut = min(math.floor(math.exp(min(48.0 / (n * sigma), math.log(P_max) + 1.0))), P_max)
        if cut < 2:
            break
        # np.log, as for the table, so that a prime equal to cut stays in
        end = int(np.searchsorted(logp_all, np.log(cut), side="right"))
        for start in range(0, end, _PRIME_CHUNK):
            logp = logp_all[start : min(start + _PRIME_CHUNK, end)]
            w, x = w_buf[: logp.size], x_buf[: logp.size]
            np.multiply(-n * sigma, logp, out=w)
            np.exp(w, out=w)
            w *= logp  # ln p * p^(-n sigma)
            np.multiply(n, logp, out=x)
            coeffs -= _laguerre_alpha1_sums(M, x, w)
    tails = _prime_tail_integrals(M, mu, float(P_max))
    coeffs += tails
    err = np.abs(tails) * 0.02 + 1e-12
    zero = np.zeros(M)
    return BetaSeries(coeffs.astype(complex), zero, zero, error_estimates=err)


def _prime_tail_integrals(M: int, mu: float, P: float) -> np.ndarray:
    """- int_P^inf t^-(mu+1/2) L^(1)_(m-1)(ln t) dt for m = 1..M.  With
    ln t = ln P + v/a, a = mu - 1/2, each is -(P^-a/a) times the integral
    of a polynomial of degree m - 1 against the Laguerre weight e^-v on
    (0, inf), which Gauss-Laguerre with ceil(M/2) + 1 nodes gives exactly
    up to rounding."""
    a = mu - 0.5
    v, w = np.polynomial.laguerre.laggauss(-(-M // 2) + 1)
    return -(P**-a) / a * _laguerre_alpha1_sums(M, math.log(P) + v / a, w)


def beta_renormalized_xi_decomposition(M: int, r: float = 0.5, Q: int = 1024) -> BetaSeries:
    """The mu = 1/2 coefficients G_m = [z^m] ln[z zeta(1/(1-z))], the unique
    regularisation making the symmetric-model comparison an identity:
    Xi_m = 2/m + R_m + G_m.  The factor z cancels the zeta pole at s = 1,
    which makes the literal ln zeta multivalued on the contour."""
    return contour_coefficients(lambda z: z * zt.zeta(1.0 / (1.0 - z)), M, r, Q, log=True)

