"""Random-matrix sampling and spectral statistics: Haar (CUE) eigenphases,
one-plaquette Metropolis Monte Carlo over the eigenvalue action, and
pair-correlation reports against the sine-kernel prediction.

Determinism contract: every stream is a pure function of (seed, chain
index); chains never share random state, so results are independent of how
chains are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .resolvent import ungapped_density

TWO_PI = 2.0 * math.pi

# Sign convention frozen from the Gross-Witten-type calibration run: with
# the action S = N sum_i sum_n (2 beta_n/n) cos(n theta_i) - log Vandermonde,
# the no-gap empirical density is (1/2pi)(1 + 2 sum_n c_n cos n theta) with
# c_n = PLAQUETTE_DENSITY_SIGN * beta_n.
PLAQUETTE_DENSITY_SIGN = -1.0


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chain))))


@dataclass(frozen=True)
class EnsembleSample:
    """Sorted eigenphase configurations theta in (-pi, pi]."""

    size: int
    phases: np.ndarray  # (n_samples, size)
    seed: int
    source: str

    @property
    def n_samples(self) -> int:
        return int(self.phases.shape[0])

    def circular_spacings(self) -> np.ndarray:
        """All N circular nearest-neighbour gaps per configuration."""
        ph = self.phases
        gaps = np.diff(ph, axis=1)
        wrap = (TWO_PI + ph[:, :1] - ph[:, -1:])
        return np.concatenate([gaps, wrap], axis=1)


def sample_cue(N: int, samples: int, seed: int) -> EnsembleSample:
    """Haar-distributed eigenphases of U(N).

    Complex Ginibre matrices are QR-factorised and the R-diagonal phases
    divided out, which corrects the plain QR measure to exactly Haar;
    the eigenphases are then sorted per sample.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    rng = _chain_rng(seed, 0)
    out = np.empty((samples, N))
    for k in range(samples):
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        Q, R = np.linalg.qr(A / math.sqrt(2.0))
        d = np.diagonal(R)
        Q = Q * (d / np.abs(d))
        out[k] = np.sort(np.angle(np.linalg.eigvals(Q)))
    return EnsembleSample(N, out, seed, "cue")


# ---------------------------------------------------------------------------
# One-plaquette Metropolis Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaquetteRun:
    """Metropolis output: retained configurations plus density histogram."""

    sample: EnsembleSample
    bin_edges: np.ndarray
    density: np.ndarray
    acceptance_rate: float
    proposal_widths: np.ndarray
    betas: np.ndarray

    def density_error(self) -> np.ndarray:
        """Poisson scale of each histogram bin (no autocorrelation factor)."""
        total = self.sample.phases.size
        width = self.bin_edges[1] - self.bin_edges[0]
        return np.sqrt(np.maximum(self.density, 1e-12) / (total * width))

    @property
    def gap_diagnostic(self) -> float:
        """Smallest histogram bin: a value collapsing toward zero signals a
        gapped phase.  Reported, never interpreted here."""
        return float(self.density.min())


def _site_potential(theta: float, betas: np.ndarray, N: int) -> float:
    """Per-site potential N sum_n (2 beta_n / n) cos(n theta)."""
    acc = 0.0
    for n in range(betas.size):
        acc += (2.0 * betas[n] / (n + 1)) * math.cos((n + 1) * theta)
    return N * acc


def _chain_sweep(
    theta: np.ndarray,
    betas: np.ndarray,
    width: float,
    rng: np.random.Generator,
) -> int:
    """One Metropolis sweep over all sites of a single chain, in place."""
    N = theta.size
    accepted = 0
    props = theta + width * rng.standard_normal(N)
    props = (props + math.pi) % TWO_PI - math.pi
    us = rng.random(N)
    for i in range(N):
        old, new = theta[i], props[i]
        d_pot = _site_potential(new, betas, N) - _site_potential(old, betas, N)
        # pairwise log-Vandermonde change; the i-th entry is pinned to 1 so
        # it drops out of the log sum instead of being deleted
        sn = 4.0 * np.sin(0.5 * (new - theta)) ** 2
        so = 4.0 * np.sin(0.5 * (old - theta)) ** 2
        sn[i] = 1.0
        so[i] = 1.0
        d_action = d_pot - float(np.log(sn).sum() - np.log(so).sum())
        if us[i] < math.exp(min(0.0, -d_action)):
            theta[i] = new
            accepted += 1
    return accepted


def plaquette_mc(
    N: int,
    betas: Sequence[float],
    sweeps: int = 2000,
    burn_in: int = 500,
    seed: int = 0,
    chains: int = 4,
    bins: int = 64,
) -> PlaquetteRun:
    """Metropolis over eigenphases with the action

        S = N sum_i sum_n (2 beta_n/n) cos(n theta_i)
            - sum_{i<j} ln |4 sin^2((theta_i - theta_j)/2)|.

    Single-site Gaussian proposals; the width adapts toward 0.4 acceptance
    during burn-in only, per chain, so each chain is a pure function of
    (seed, chain index).  An acceptance rate outside [0.1, 0.9] after
    burn-in is reported via the returned diagnostics.

    `betas` may be a plain sequence or a truncated coefficient series from
    the resolvent extraction.
    """
    if hasattr(betas, "coefficients"):
        betas = betas.coefficients
    betas = np.asarray([float(np.real(b)) for b in betas])
    if betas.size and np.abs(betas[0]) >= 0.5 and betas.size == 1:
        raise ValueError("single-coefficient model leaves the no-gap phase at |beta_1| >= 1/2")
    if min(N, chains, sweeps, bins) < 1 or burn_in < 0:
        raise ValueError("N, chains, sweeps and bins must be >= 1 and burn_in >= 0")
    phases = np.empty((chains * sweeps, N))
    widths = np.empty(chains)
    accepted_total = 0
    proposals_total = 0
    for c in range(chains):
        rng = _chain_rng(seed, c)
        theta = rng.uniform(-math.pi, math.pi, N)
        theta.sort()
        width = 0.5
        for _ in range(burn_in):
            acc = _chain_sweep(theta, betas, width, rng)
            rate = acc / N
            width *= math.exp(0.5 * (rate - 0.4))
            width = min(max(width, 1e-3), math.pi)
        for sweep in range(sweeps):
            accepted_total += _chain_sweep(theta, betas, width, rng)
            proposals_total += N
            phases[c * sweeps + sweep] = np.sort(theta)
        widths[c] = width
    rate = accepted_total / proposals_total
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    counts, _ = np.histogram(phases.ravel(), bins=edges)
    density = counts / (phases.size * (edges[1] - edges[0]))
    return PlaquetteRun(
        sample=EnsembleSample(N, phases, seed, "plaquette"),
        bin_edges=edges,
        density=density,
        acceptance_rate=float(rate),
        proposal_widths=widths,
        betas=betas,
    )


def acceptance_in_band(run: PlaquetteRun, lo: float = 0.1, hi: float = 0.9) -> bool:
    """Tuning diagnostic: healthy Metropolis acceptance sits in [lo, hi]."""
    return lo <= run.acceptance_rate <= hi


def plaquette_model_density(theta: np.ndarray, betas: Sequence[float]) -> np.ndarray:
    """Analytic no-gap density for the action convention used here."""
    signed = [PLAQUETTE_DENSITY_SIGN * float(np.real(b)) for b in betas]
    return ungapped_density(theta, signed)


# ---------------------------------------------------------------------------
# Pair correlation against the sine kernel
# ---------------------------------------------------------------------------


def sine_kernel_r2(r: np.ndarray) -> np.ndarray:
    """GUE two-point correlation 1 - (sin(pi r)/(pi r))^2."""
    r = np.asarray(r, dtype=float)
    return 1.0 - np.sinc(r) ** 2


@dataclass(frozen=True)
class CorrelationReport:
    bin_centers: np.ndarray
    r2: np.ndarray
    reference: np.ndarray
    l2_distance: float
    n_points: int

    def l2_distance_to(self, curve: np.ndarray) -> float:
        width = self.bin_centers[1] - self.bin_centers[0]
        return float(np.sqrt(((self.r2 - curve) ** 2 * width).sum()))


def unfold_zeros(ts: np.ndarray) -> np.ndarray:
    """Smooth zero-counting unfolding N(t) = (t/2pi) ln(t/(2 pi e)) + 7/8."""
    t = np.asarray(ts, dtype=float)
    return t / TWO_PI * np.log(t / (TWO_PI * math.e)) + 7.0 / 8.0


def pair_correlation(
    points: Union[EnsembleSample, np.ndarray],
    bins: int = 50,
    r_max: float = 5.0,
) -> CorrelationReport:
    """Empirical two-point correlation R_2 of unfolded points.

    CUE samples unfold circularly by N/2pi (unit mean spacing); a point
    array is taken as already unfolded (zero ordinates: pass
    unfold_zeros(ts)).  Directed pair distances up to r_max are
    histogrammed and normalised per reference point.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    edges = np.linspace(0.0, r_max, bins + 1)
    counts = np.zeros(bins)
    if isinstance(points, EnsembleSample):
        n_points = points.phases.size
        if n_points < 1000:
            raise ValueError("need at least 10^3 points after pooling")
        N = points.size
        L = float(N)
        refs = 0
        for row in points.phases:
            x = np.sort(row * N / TWO_PI)
            d = (x[None, :] - x[:, None]) % L
            np.fill_diagonal(d, np.inf)
            counts += np.histogram(d[d <= r_max], bins=edges)[0]
            refs += N
        denom = refs * (edges[1] - edges[0])
    else:
        x = np.sort(np.asarray(points, dtype=float))
        n_points = x.size
        if n_points < 1000:
            raise ValueError("need at least 10^3 points after pooling")
        # one-sided directed distances: for a stationary unit-density
        # process, E[#{j: x_j - x_i in dr}] = R2(r) dr per reference point
        interior = np.nonzero(x <= x[-1] - r_max)[0]
        refs = int(interior.size)
        hi = np.searchsorted(x, x[interior] + r_max, side="right")
        dists = np.concatenate(
            [x[i + 1 : h] - x[i] for i, h in zip(interior, hi)]
        ) if refs else np.zeros(0)
        counts += np.histogram(dists, bins=edges)[0]
        denom = refs * (edges[1] - edges[0])
    centers = 0.5 * (edges[1:] + edges[:-1])
    r2 = counts / denom
    ref_curve = sine_kernel_r2(centers)
    width = centers[1] - centers[0]
    l2 = float(np.sqrt((((r2 - ref_curve) ** 2) * width).sum()))
    return CorrelationReport(centers, r2, ref_curve, l2, n_points)
