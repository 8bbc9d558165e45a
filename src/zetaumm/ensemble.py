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
    phases: np.ndarray  # (samples, size)


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
        out[k] = _eigenphases(Q)
    return EnsembleSample(N, out)


def _eigenphases(Q: np.ndarray) -> np.ndarray:
    """Sorted eigenphases in (-pi, pi] of a unitary Q, by the Cayley transform.

    With U = e^{-i phi} Q, H = i(I - U)(I + U)^{-1} is Hermitian with
    eigenvalues x = tan((theta - phi)/2).  It loses accuracy for an
    eigenphase near phi + pi (large |x|, I + U near singular); then phi
    is moved so that phi + pi is the middle of the widest gap between the
    phases of the first pass.
    """
    N = Q.shape[0]
    eye = np.eye(N)
    phi = 0.0
    for _ in range(3):
        U = Q * np.exp(-1j * phi)
        try:
            H = 1j * np.linalg.solve(eye + U, eye - U)
            x = np.linalg.eigvalsh(0.5 * (H + H.conj().T))
        except np.linalg.LinAlgError:  # I + U exactly singular: turn by any angle
            phi += 1.0
            continue
        theta = math.pi - (math.pi - 2.0 * np.arctan(x) - phi) % TWO_PI
        theta = np.sort(np.where(theta > -math.pi, theta, math.pi))  # the % can round up to 2 pi
        if np.abs(x).max() <= 4 * N:
            break
        gaps = np.diff(theta, append=theta[0] + TWO_PI)
        k = int(np.argmax(gaps))
        phi = theta[k] + 0.5 * gaps[k] - math.pi
    return theta


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


def _log_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log 4 sin^2((a_i - b_j)/2) per chain (row), with the i = j entry pinned
    to log 1 = 0 so that a site drops out of its own Vandermonde sum."""
    s = 4.0 * np.sin(0.5 * (a[:, :, None] - b[:, None, :])) ** 2
    s.reshape(len(a), -1)[:, :: a.shape[1] + 1] = 1.0
    return np.log(s)


def _sweep(theta, pairs, betas, widths, rngs) -> np.ndarray:
    """One Metropolis sweep over all sites of all chains (rows of theta), in
    place; returns the accepted count per chain.  Each chain draws its N
    proposals, then its N uniforms, from its own stream.  `pairs` is
    _log_pairs(theta, theta), carried between sweeps; site i sums row i of
    it and of the proposal table, and accepting site i swaps column i of
    both for the column of its proposal."""
    C, N = theta.shape
    steps = np.array([r.standard_normal(N) for r in rngs])
    us = np.array([r.random(N) for r in rngs])
    props = theta + np.array(widths)[:, None] * steps
    props = (props + math.pi) % TWO_PI - math.pi
    prop_theta = _log_pairs(props, theta)
    rows = np.stack([prop_theta, pairs], axis=1)  # (chain, proposal/current, i, j)
    # sin^2 is even, so the transpose holds the current rows' proposal columns
    swaps = np.stack([_log_pairs(props, props), prop_theta.swapaxes(1, 2)], axis=1)
    pot = np.zeros((2, C, N))  # N sum_n (2 beta_n / n) cos(n theta) at (proposal, current)
    for n, beta in enumerate(betas):
        pot += (2.0 * beta / (n + 1)) * np.cos((n + 1) * np.stack([props, theta]))
    gain0, u = (N * pot[1] - N * pot[0]).T.tolist(), us.T.tolist()
    accept = np.zeros((C, N), dtype=bool)
    for i in range(N):
        sums = np.add.reduce(rows[:, :, i], axis=-1).tolist()
        for c, (s_new, s_old) in enumerate(sums):
            if u[i][c] < math.exp(min(0.0, (s_new - s_old) + gain0[i][c])):
                accept[c, i] = True
                rows[c, :, :, i] = swaps[c, :, :, i]
    theta[accept] = props[accept]
    pairs[:] = np.where(accept[:, :, None], rows[:, 0], rows[:, 1])
    return accept.sum(axis=1)


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
    """
    betas = np.asarray([float(np.real(b)) for b in betas])
    if betas.size and np.abs(betas[0]) >= 0.5 and betas.size == 1:
        raise ValueError("single-coefficient model leaves the no-gap phase at |beta_1| >= 1/2")
    if min(N, chains, sweeps, bins) < 1 or burn_in < 0:
        raise ValueError("N, chains, sweeps and bins must be >= 1 and burn_in >= 0")
    rngs = [_chain_rng(seed, c) for c in range(chains)]
    theta = np.sort([r.uniform(-math.pi, math.pi, N) for r in rngs], axis=1)
    pairs = _log_pairs(theta, theta)
    widths = [0.5] * chains
    for _ in range(burn_in):
        acc = _sweep(theta, pairs, betas, widths, rngs)
        widths = [min(max(w * math.exp(0.5 * (a / N - 0.4)), 1e-3), math.pi)
                  for w, a in zip(widths, acc)]
    phases = np.empty((chains * sweeps, N))  # chain c, sweep s in row c * sweeps + s
    accepted_total = 0
    for sweep in range(sweeps):
        accepted_total += int(_sweep(theta, pairs, betas, widths, rngs).sum())
        phases[sweep::sweeps] = np.sort(theta, axis=1)
    rate = accepted_total / (chains * sweeps * N)
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    counts, _ = np.histogram(phases.ravel(), bins=edges)
    density = counts / (phases.size * (edges[1] - edges[0]))
    return PlaquetteRun(
        sample=EnsembleSample(N, phases),
        bin_edges=edges,
        density=density,
        acceptance_rate=float(rate),
    )


def acceptance_in_band(run: PlaquetteRun) -> bool:
    """Tuning diagnostic: healthy Metropolis acceptance sits in [0.1, 0.9]."""
    return 0.1 <= run.acceptance_rate <= 0.9


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

    @property
    def l2_distance(self) -> float:
        return self.l2_distance_to(self.reference)

    def l2_distance_to(self, curve: np.ndarray) -> float:
        c = self.bin_centers
        # one bin spans [0, r_max], twice its centre
        width = c[1] - c[0] if c.size > 1 else 2.0 * c[0]
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
        if points.phases.size < 1000:
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
        if x.size < 1000:
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
    return CorrelationReport(centers, counts / denom, sine_kernel_r2(centers))
