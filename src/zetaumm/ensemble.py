"""Random-matrix sampling and spectral statistics: Haar (CUE) eigenphases,
one-plaquette Metropolis Monte Carlo over the eigenvalue action, and
pair-correlation reports against the sine-kernel prediction.

Determinism contract: every stream is a pure function of (seed, chain
index); chains never share random state, so results are independent of how
chains are scheduled.  CUE samples and Metropolis chains are split into one
contiguous block per CPU the process may use (os.sched_getaffinity); each
block past the first runs in a forked child.  A CUE block skips ahead in the
single (seed, 0) stream by drawing and discarding the normals of the samples
before it, so every result is bit-identical for any CPU count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

TWO_PI = 2.0 * math.pi


def _chain_rng(seed: int, chain: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, chain))))


def _blocks(n: int) -> list[tuple[int, int]]:
    """Contiguous bounds [lo, hi) covering range(n), one per CPU this process
    may use (none empty); a single block where os.fork is missing."""
    cpus = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    w = max(1, min(n, cpus))
    return [(k * n // w, (k + 1) * n // w) for k in range(w)]


def _in_parallel(fn: Callable, parts: list[tuple]) -> list:
    """[fn(*args) for args in parts]: parts[0] here, each other part in a
    forked child that pickles its result, or the exception it raised, into a
    pipe.  A child's exception is raised again here; every child is reaped
    on every path.  Forked children start with the modules and inputs
    already in memory, where a spawned one would import numpy again."""
    children = []
    try:
        for args in parts[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: never returns
                try:
                    os.close(r)
                    try:
                        payload = (True, fn(*args))
                    except BaseException as exc:
                        payload = (False, exc)
                    with open(w, "wb") as fh:
                        pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(*parts[0])]
        for pid, fh in children:
            try:  # protocol 5 reads an array's bytes straight into its buffer
                ok, value = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pid} exited without a result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, fh in children:
            fh.close()
            os.waitpid(pid, 0)


def sample_cue(N: int, samples: int, seed: int) -> np.ndarray:
    """Haar-distributed eigenphases of U(N): a (samples, N) array, each row
    ascending in (-pi, pi].

    Complex Ginibre matrices are QR-factorised and the R-diagonal phases
    divided out, which corrects the plain QR measure to exactly Haar;
    the eigenphases are then sorted per sample.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocks = _in_parallel(_cue_block, [(N, seed, lo, hi) for lo, hi in _blocks(samples)])
    return np.concatenate(blocks)


def _cue_block(N: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Eigenphases of samples lo..hi-1: the (seed, 0) stream skips the two
    N x N normal blocks of each earlier sample, one block at a time."""
    rng = _chain_rng(seed, 0)
    skip = np.empty((N, N))
    for _ in range(2 * lo):
        rng.standard_normal(out=skip)
    out = np.empty((hi - lo, N))
    for k in range(hi - lo):
        A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        Q, R = np.linalg.qr(A / math.sqrt(2.0))
        d = np.diagonal(R)
        Q = Q * (d / np.abs(d))
        out[k] = _eigenphases(Q)
    return out


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
    """Metropolis output: retained configurations plus density histogram.
    sample holds the retained phases, chain c, sweep s in row
    c * sweeps + s, each row ascending in [-pi, pi]."""

    sample: np.ndarray
    bin_edges: np.ndarray
    density: np.ndarray
    acceptance_rate: float

    def density_error(self) -> np.ndarray:
        """Poisson scale of each histogram bin (no autocorrelation factor)."""
        total = self.sample.size
        width = self.bin_edges[1] - self.bin_edges[0]
        return np.sqrt(np.maximum(self.density, 1e-12) / (total * width))


def _site_terms(x: np.ndarray, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos x, sin x) stacked, and sum_n (2 beta_n/n) cos(n x): the one-site action / N."""
    pot = np.zeros_like(x)
    for n, beta in enumerate(betas, 1):
        pot += (2.0 * beta / n) * np.cos(n * x)
    return np.stack([np.cos(x), np.sin(x)]), pot


def _log_chords(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log |e^{i a_k} - e^{i b_j}|^2 = log((cos a_k - cos b_j)^2 + (sin a_k -
    sin b_j)^2) at [chain, k, j], from (cos, sin) stacks of shape (2, chain,
    N); k = j is pinned to log 1 = 0: a site drops out of its own sum."""
    d = np.square(a[:, :, :, None] - b[:, :, None, :])
    out = d[0] + d[1]
    out.reshape(len(out), -1)[:, :: a.shape[2] + 1] = 1.0  # the k = j entries
    return np.log(out, out=out)


def _sweep(theta, trig, pot, B, betas, widths, rngs) -> np.ndarray:
    """One Metropolis sweep over the sites of every chain (rows of theta), in
    place; returns the accepted count per chain.  Each chain draws its N
    proposals, then its N uniforms, from its own stream and visits its sites
    in order.  trig, pot = _site_terms(theta) and B = L(theta, theta), L =
    _log_chords, are carried.  Site i's change of the log Vandermonde sum
    starts as the row-i sum of A = L(props, theta) minus B's; accepting site
    k adds row k of W = P - A - A^T + B, P = L(props, props), to each later
    site's.  The decisions, so the phases, are the site-by-site loop's: it
    sums in another order, rounds its potential otherwise and takes
    log 4 sin^2 for the chord form (error <~ 5e-16/|chord|), so they can
    differ only where a uniform lands that close to its threshold."""
    C, N = theta.shape
    steps = np.array([r.standard_normal(N) for r in rngs])
    us = np.array([r.random(N) for r in rngs])
    props = theta + np.array(widths)[:, None] * steps
    props = (props + math.pi) % TWO_PI - math.pi
    trig_p, pot_p = _site_terms(props, betas)
    A, P = _log_chords(trig_p, trig), _log_chords(trig_p, trig_p)
    delta = A.sum(axis=2) - B.sum(axis=2)
    W = P - A - A.swapaxes(1, 2) + B
    gain = (N * pot - N * pot_p).tolist()
    accept = np.zeros((C, N), dtype=bool)
    for c in range(C):
        d, w, u, g = delta[c], W[c], us[c].tolist(), gain[c]
        for i in range(N):
            if u[i] < math.exp(min(0.0, d[i] + g[i])):
                accept[c, i] = True
                d[i + 1 :] += w[i, i + 1 :]
    # next B: L(theta_i, props_j) for accepted j, then L(props_i, new_j) in accepted rows
    np.copyto(B, A.swapaxes(1, 2), where=accept[:, None, :])
    np.copyto(A, P, where=accept[:, None, :])
    np.copyto(B, A, where=accept[:, :, None])
    for old, new in ((theta, props), (trig, trig_p), (pot, pot_p)):
        np.copyto(old, new, where=accept)
    return accept.sum(axis=1)


def _chain_group(N: int, betas: np.ndarray, sweeps: int, burn_in: int, seed: int,
                 first: int, stop: int) -> tuple[np.ndarray, int]:
    """Chains first..stop-1 in lockstep: their retained phases (chain
    first + c, sweep s in row c * sweeps + s) and the count of proposals
    accepted after burn-in."""
    rngs = [_chain_rng(seed, c) for c in range(first, stop)]
    theta = np.sort([r.uniform(-math.pi, math.pi, N) for r in rngs], axis=1)
    trig, pot = _site_terms(theta, betas)
    state = (theta, trig, pot, _log_chords(trig, trig))
    widths = [0.5] * len(rngs)
    for _ in range(burn_in):
        acc = _sweep(*state, betas, widths, rngs)
        widths = [min(max(w * math.exp(0.5 * (a / N - 0.4)), 1e-3), math.pi)
                  for w, a in zip(widths, acc)]
    phases = np.empty((len(rngs) * sweeps, N))
    accepted = 0
    for sweep in range(sweeps):
        accepted += int(_sweep(*state, betas, widths, rngs).sum())
        phases[sweep::sweeps] = np.sort(theta, axis=1)
    return phases, accepted


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
    # trailing zero couplings add nothing to the action
    betas = np.trim_zeros(np.asarray([float(np.real(b)) for b in betas]), "b")
    if betas.size == 1 and abs(betas[0]) >= 0.5:
        raise ValueError("single-coefficient model leaves the no-gap phase at |beta_1| >= 1/2")
    if min(N, chains, sweeps, bins) < 1 or burn_in < 0:
        raise ValueError("N, chains, sweeps and bins must be >= 1 and burn_in >= 0")
    groups = _in_parallel(_chain_group, [(N, betas, sweeps, burn_in, seed, lo, hi)
                                         for lo, hi in _blocks(chains)])
    phases = np.concatenate([p for p, _ in groups])  # chain c, sweep s in row c * sweeps + s
    rate = sum(a for _, a in groups) / (chains * sweeps * N)
    edges = np.linspace(-math.pi, math.pi, bins + 1)
    counts, _ = np.histogram(phases.ravel(), bins=edges)
    density = counts / (phases.size * (edges[1] - edges[0]))
    return PlaquetteRun(phases, edges, density, float(rate))


def acceptance_in_band(run: PlaquetteRun) -> bool:
    """Tuning diagnostic: healthy Metropolis acceptance sits in [0.1, 0.9]."""
    return 0.1 <= run.acceptance_rate <= 0.9


def plaquette_model_density(theta: np.ndarray, betas: Sequence[float]) -> np.ndarray:
    """Analytic no-gap density (1/2pi)(1 - 2 sum beta_n cos n theta) of the
    action S = N sum_i V(theta_i) - log Vandermonde, V(theta) = sum_n
    (2 beta_n/n) cos(n theta), normalised to unit mass on (-pi, pi].  The
    minus sign solves the large-N saddle equation V'(theta) = P int rho(phi)
    cot((theta - phi)/2) dphi: the conjugate function of cos n theta is
    sin n theta, so rho = (1/2pi)(1 + 2 sum a_n cos n theta) has a_n = -beta_n."""
    th = np.asarray(theta, dtype=float)
    out = np.ones_like(th)
    for n, b in enumerate(betas, start=1):
        out -= 2.0 * float(np.real(b)) * np.cos(n * th)
    return out / TWO_PI


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
    points: np.ndarray,
    bins: int = 50,
    r_max: float = 5.0,
) -> CorrelationReport:
    """Empirical two-point correlation R_2 of unfolded points.

    A 2-D array holds eigenphase configurations, one ascending row each
    (as sample_cue and PlaquetteRun.sample give them; rows are not
    sorted here), unfolded circularly by N/2pi (unit mean spacing).  A 1-D
    array holds points already unfolded (zero ordinates: pass
    unfold_zeros(ts)).  Distances from each reference point to its m-th
    successor, m = 1, 2, ..., grow with m; they are histogrammed up to the
    first m that brings none within r_max, normalised per reference point.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    pts = np.asarray(points, dtype=float)
    if pts.ndim not in (1, 2):
        raise ValueError(f"points must be a 2-D array of configurations or a 1-D array of "
                         f"unfolded points, not a {pts.ndim}-D array")
    if pts.size < 1000:
        raise ValueError("need at least 10^3 points after pooling")
    edges = np.linspace(0.0, r_max, bins + 1)
    if pts.ndim == 2:
        N = pts.shape[1]
        if r_max > N:
            raise ValueError(f"r_max = {r_max:g} exceeds N = {N}: a configuration unfolds "
                             "to a circle of length N")
        step = max(1, 8192 // N)  # configurations per block: 64 KB of phases
        blocks = (pts[k : k + step] * N / TWO_PI for k in range(0, len(pts), step))
        refs, period = N, float(N)  # every point is a reference
    else:
        # one-sided directed distances: for a stationary unit-density
        # process, E[#{j: x_j - x_i in dr}] = R2(r) dr per interior
        # reference point, x_i <= x_max - r_max
        x = np.sort(pts)[None, :]
        refs = int(np.count_nonzero(x <= x[:, -1:] - r_max))
        if not refs:  # every point of the array lies within r_max of the largest
            raise ValueError(f"r_max = {r_max:g} is not below the span {x[0, -1] - x[0, 0]:g} "
                             "of the points: no reference point")
        blocks, period = [x], None
    counts = np.zeros(bins)
    for x in blocks:
        rows = x if period is None else np.tile(x, 2)  # rows[:, i + m] = x[:, (i + m) % N]
        for m in range(1, x.shape[1]):
            k = min(refs, rows.shape[1] - m)
            d = rows[:, m : m + k] - rows[:, :k]
            if period is not None:
                d %= period
            d = d[d <= r_max]
            if not d.size:
                break
            counts += np.histogram(d, bins=edges)[0]
    denom = (refs if period is None else pts.size) * (edges[1] - edges[0])
    centers = 0.5 * (edges[1:] + edges[:-1])
    return CorrelationReport(centers, counts / denom, sine_kernel_r2(centers))
