"""Random-matrix sampling and spectral statistics: Haar (CUE) eigenphases,
one-plaquette Metropolis Monte Carlo over the eigenvalue action, and
pair-correlation reports against the sine-kernel prediction.

The action of N eigenphases with couplings beta_1, beta_2, ... is

    S = N sum_i V(theta_i) - sum_{i<j} ln |4 sin^2((theta_i - theta_j)/2)|,
    V(theta) = sum_n (2 beta_n/n) cos(n theta),

the second term being log Vandermonde; configurations carry weight e^-S.

Determinism contract: every stream is a pure function of (seed, chain
index); chains never share random state, so results are independent of how
chains are scheduled.  CUE samples and Metropolis chains are split into one
contiguous block per CPU the process may use (os.sched_getaffinity); each
block past the first runs in a forked child.  Block k starts on the k-th
CPU of the mask and is then released to the whole mask; no bit depends on
where a block runs, nor on whether the kernel grants the move.  Every CUE
sample takes the same 2N - 1 uniforms of the single (seed, 0) stream, so a
block starts by advancing the PCG64 state past the samples before it.  A
sample's phases depend on its own uniforms only, not on the chunk of
samples it is computed in nor on which samples are retried with it at the
end of its block (complex products whose numpy loop could depend on the
chunk's shape are taken from real ones), so every result is bit-identical
for any CPU count.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import NumericConsistencyError

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


def _start_on(cpu: int, mask: set[int]) -> None:
    """Move this process to cpu, then give it back mask, so that it starts
    there and the kernel may still move it later.  A refused move leaves
    the process as it was; a refused restore raises, so no process is left
    on one CPU unseen."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return
    os.sched_setaffinity(0, mask)


def _in_parallel(fn: Callable, parts: list[tuple]) -> list:
    """[fn(*args) for args in parts]: parts[0] here, each other part in a
    forked child that pickles its result, or the exception it raised, into a
    pipe.  A child's exception is raised again here; every child is reaped
    on every path.  Forked children start with the modules and inputs
    already in memory, where a spawned one would import numpy again.

    With more than one part, part k starts on the k-th CPU of the affinity
    mask and is then released to the whole mask (_start_on).  On a 2-vCPU
    Linux VM whose second CPU had idled for 10 s or more, the kernel was
    seen to keep a child on its parent's CPU for the whole job otherwise
    (ROADMAP, Timing caveats).  No result depends on where a part runs.
    Every process, the caller included, ends with the mask the caller had
    when the call started."""
    mask = os.sched_getaffinity(0) if len(parts) > 1 else set()
    cpus = sorted(mask)
    children = []
    try:
        for k, args in enumerate(parts[1:], 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # child: never returns
                try:
                    os.close(r)
                    try:
                        _start_on(cpus[k % len(cpus)], mask)
                        payload = (True, fn(*args))
                    except BaseException as exc:
                        payload = (False, exc)
                    with open(w, "wb") as fh:
                        pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        if children:
            _start_on(cpus[0], mask)
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

    Each sample is the CMV matrix of N Verblunsky coefficients drawn by
    Killip and Nenciu's law, whose eigenvalues are exactly those of a Haar
    unitary; the eigenphases are then sorted per sample.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    out = np.empty((samples, N))
    parts = [(N, seed, lo, out[lo:hi]) for lo, hi in _blocks(samples)]
    for (*_, block), phases in zip(parts, _in_parallel(_cue_block, parts)):
        block[...] = phases  # a forked child filled its own copy of its block
    return out


def _cue_block(N: int, seed: int, lo: int, out: np.ndarray) -> np.ndarray:
    """Fill and return out with the eigenphases of samples lo, lo + 1, ...
    Each sample takes 2N - 1 uniforms of the (seed, 0) stream, one PCG64
    step each, so the block starts by advancing the stream past the
    lo (2N - 1) uniforms before it."""
    rng = _chain_rng(seed, 0)
    rng.bit_generator.advance(lo * (2 * N - 1))
    n, step = len(out), _chunk(N)
    draws = (rng.random((min(step, n - k), 2 * N - 1)) for k in range(0, n, step))
    return _cue_phases(out, map(_verblunsky, draws))


# complex words per chunk of samples: the (N, samples) arrays of the pivot
# recurrences, and the (samples, N, N) buffer of the Cayley matrices
_VECTOR_WORDS, _DENSE_WORDS = 2**11, 2**14
_PIVOT_FLOOR = 2.0**-10  # a pivot of T smaller in modulus fails the pass


def _chunk(N: int) -> int:
    return max(1, _VECTOR_WORDS // N)


def _verblunsky(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Verblunsky coefficients alpha and rho = sqrt(1 - |alpha|^2), N each
    per row of 2N - 1 uniforms u, by Killip and Nenciu's law.  The first
    N - 1 give the moduli by the inverse CDF of |alpha_k|^2 ~ Beta(1, N - 1
    - k), |alpha_k|^2 = 1 - (1 - u)^(1/(N-1-k)); |alpha_{N-1}| = 1, and the
    last N give the phases 2 pi u."""
    N = (u.shape[1] + 1) // 2
    x = np.log1p(-u[:, : N - 1]) / np.arange(N - 1, 0, -1)  # log(1 - |alpha_k|^2)
    alpha = np.exp(TWO_PI * 1j * u[:, N - 1 :])
    alpha[:, :-1] *= np.sqrt(-np.expm1(x))
    rho = np.zeros(alpha.shape)
    rho[:, :-1] = np.exp(0.5 * x)
    return alpha, rho


def _cue_phases(out: np.ndarray, chunks) -> np.ndarray:
    """Fill and return out with the sorted eigenphases in (-pi, pi], one row
    per sample, of the CMV matrices of an iterable of (alpha, rho) chunks.

    Each chunk takes a _cayley_pass at phi = 0 as it comes.  The samples a
    pass turns back are collected over all chunks and take up to two more
    passes, at the rotation _turn gives each; a sample turned back by the
    third raises NumericConsistencyError."""
    N, back, start = out.shape[1], [], 0
    for alpha, rho in chunks:
        rows = np.arange(start, start + len(alpha))
        start += len(alpha)
        back.append(_accept(out, rows, alpha, rho, np.zeros(len(alpha))))
    pending, step = [np.concatenate(a) for a in zip(*back)], _chunk(N)
    for _ in range(2):
        back = [_accept(out, *(a[k : k + step] for a in pending))
                for k in range(0, len(pending[0]), step)]
        if back:  # else nothing was pending, and nothing is
            pending = [np.concatenate(a) for a in zip(*back)]
    if len(pending[0]):
        raise NumericConsistencyError(f"{len(pending[0])} CUE sample(s) of U({N}) failed the "
                                      "Cayley transform at three rotations")
    return out


def _accept(out, rows, alpha, rho, phi):
    """One _cayley_pass over the samples: the accepted phases go to their
    rows of out; returns (rows, alpha, rho, next phi) of the turned-back
    samples."""
    theta, ok = _cayley_pass(alpha, rho, phi)
    out[rows[ok]] = theta[ok]
    bad = ~ok
    return rows[bad], alpha[bad], rho[bad], _turn(theta[bad], phi[bad])


def _turn(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The rotation that puts phi + pi in the middle of the widest gap
    between a sample's phases, or phi + 1 where its pass gave none (a NaN
    row)."""
    gaps = np.diff(theta, axis=1, append=theta[:, :1] + TWO_PI)
    k = np.argmax(gaps, axis=1)[:, None]
    mid = np.take_along_axis(theta + 0.5 * gaps, k, axis=1)[:, 0] - math.pi
    return np.where(np.isnan(mid), phi + 1.0, mid)


def _cayley_pass(alpha: np.ndarray, rho: np.ndarray,
                 phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenphases in (-pi, pi] of the CMV matrices C = L M of the
    rows of alpha and rho, by the Cayley transform of U = e^{-i phi} C, and
    a flag per sample, False where the pass fails.

    Theta_k = [[conj alpha_k, rho_k], [rho_k, -alpha_k]] on rows and
    columns k, k + 1 give L = diag(Theta_0, Theta_2, ...) and M = diag(1,
    Theta_1, Theta_3, ...) (Killip & Nenciu 2004), the last block cut to
    its corner.  Both are symmetric and unitary, so with w = e^{-i phi},
    I +- U = L(conj L +- w M) and H = i(I - U)(I + U)^{-1} = L K L^*,

        K = 2i conj(L) T^{-1} - iI,   T = conj(L) + w M.

    K, like H, is Hermitian with eigenvalues x = tan((theta - phi)/2).  T is
    complex symmetric and tridiagonal, with diagonal d and off-diagonal e;
    from its forward pivots delta and backward pivots sigma, T^{-1} has
    diagonal g_i = 1/(delta_i + sigma_i - d_i) and, right of it,
    T^{-1}_ij = g_i prod_{i <= k < j} c_k, c_k = -e_k/sigma_{k+1} (Meurant
    1992).  So right of column 2m + 1, rows 2m and 2m + 1 of T^{-1}, and of
    K, are multiples of one vector.

    A sample fails when a pivot that divides is not finite or below
    _PIVOT_FLOOR in modulus, or K is not finite (its row is then NaN), or
    some |x| > 4N: an eigenphase within about 1/(2N) of phi + pi, where
    I + U is near singular."""
    S, N = alpha.shape
    ok, c, u, v, diag = _pivots(alpha, rho, np.exp(-1j * phi))
    x = np.empty((S, N))
    step = max(1, _DENSE_WORDS // (N * N))
    buf = np.zeros((min(step, S), N, N), dtype=complex)
    for k in range(0, S, step):
        s, K = slice(k, k + step), buf[: S - k]
        with np.errstate(all="ignore"):  # a failing sample's K may hold inf and NaN
            _cayley_matrices(K, c[:, s], u[:, s], v[:, s], diag[:, s])
        finite = np.isfinite(K).all(axis=(1, 2))
        K[~finite] = 0.0
        ok[s] &= finite
        x[s] = np.linalg.eigvalsh(K, UPLO="U")
        x[s][~finite] = np.nan
    theta = math.pi - (math.pi - 2.0 * np.arctan(x) - phi[:, None]) % TWO_PI
    theta = np.sort(np.where(theta <= -math.pi, math.pi, theta), axis=1)  # % can round up to 2 pi
    ok &= np.maximum(-x[:, 0], x[:, -1]) <= 4 * N
    return theta, ok


def _pivots(alpha, rho, w):
    """The pivot flags and the columns c, u, v and diag of _cayley_pass, one
    column per sample, for T = conj(L) + w M.  Rows 2m and 2m + 1 of K are
    u_m R_m and v_m R_m right of column 2m, R_mj = prod_{2m < k < j} c_k,
    and K_{2m,2m} = diag_m."""
    S, N = alpha.shape
    a = alpha.T.copy()  # row k: coefficient k of every sample, so each step below is contiguous
    prev = np.concatenate([np.full((1, S), -1.0 + 0j), a[:-1]])  # alpha_{k-1}, alpha_{-1} = -1
    d = np.empty((N, S), dtype=complex)
    d[0::2] = a[0::2] - _cmul(w, prev[0::2])
    d[1::2] = _cmul(w, a[1::2].conj()) - prev[1::2].conj()
    e = rho.T.astype(complex)  # e_{N-1} = rho_{N-1} = 0 lies outside T
    e[1::2] *= w
    e2 = (rho.T * rho.T).astype(complex)
    e2[1::2] *= _cmul(w, w)
    delta, sigma = np.empty_like(d), np.empty_like(d)
    delta[0], sigma[-1] = d[0], d[-1]
    with np.errstate(all="ignore"):  # a failing sample may divide by 0 or overflow
        for k in range(1, N):
            np.divide(e2[k - 1], delta[k - 1], out=delta[k])
            np.subtract(d[k], delta[k], out=delta[k])
            np.divide(e2[N - 1 - k], sigma[N - k], out=sigma[N - 1 - k])
            np.subtract(d[N - 1 - k], sigma[N - 1 - k], out=sigma[N - 1 - k])
        floor = _PIVOT_FLOOR**2
        ok = (delta.real[:-1] ** 2 + delta.imag[:-1] ** 2 >= floor).all(axis=0)
        ok &= (sigma.real[1:] ** 2 + sigma.imag[1:] ** 2 >= floor).all(axis=0)
        g = 1.0 / (delta + sigma - d)
        c = np.zeros_like(d)  # c_{N-1} = 0 pads the last row pair of an odd N
        np.divide(-e[:-1], sigma[1:], out=c[:-1])
        h = _cmul(g[0::2], c[0::2])  # T^{-1}_{2m,2m+1}
        ae, re, P = a[0::2], rho.T[0::2], N // 2
        diag = 2j * (_cmul(ae, g[0::2]) + re * h)
        u = 2j * (_cmul(ae[:P], h[:P]) + re[:P] * g[1::2])
        v = 2j * (re[:P] * h[:P] - _cmul(ae[:P].conj(), g[1::2]))
    return ok, c, u, v, diag


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y from real products and sums.  Whether numpy's complex multiply
    fuses a multiply-add depends on the shapes of its operands, so with it
    a sample's bits would depend on the size of its chunk.  A product with
    a real factor (one whose imaginary part is 0) rounds once either way."""
    out = np.empty(np.broadcast(x, y).shape, dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _cayley_matrices(K, c, u, v, diag) -> None:
    """Write the K of _cayley_pass on and above the diagonal, one per
    sample, from the columns of c, u, v and diag.  The -iI and the
    imaginary part it cancels are left off: eigvalsh reads the real part
    of the diagonal only."""
    n, N, _ = K.shape
    P = N // 2
    ev, od = K[:, 0 : 2 * P : 2], K[:, 1 : 2 * P : 2]
    od[:, :, 1:] = c.T[:, None, :-1]  # od[m, j] = c_{j-1}, then 1 up to column 2m + 1
    np.copyto(od, 1.0, where=np.arange(N) <= np.arange(1, 2 * P, 2)[:, None])
    np.multiply.accumulate(od, axis=2, out=od)  # R
    np.multiply(od, u.T[:, :, None], out=ev)
    od *= v.T[:, :, None]
    K.reshape(n, N * N)[:, :: 2 * (N + 1)] = diag.T


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


def _site_terms(x: np.ndarray, betas: np.ndarray,
                out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """cos x, sin x and V(x) = sum_n (2 beta_n/n) cos(n x), the one-site
    action / N, stacked along the first axis of out (a new array if None);
    returns the (cos x, sin x) stack and V, both views of out.  The n = 1
    term reuses cos x."""
    out = np.empty((3, *x.shape)) if out is None else out
    np.cos(x, out=out[0])
    np.sin(x, out=out[1])
    pot = out[2]
    pot.fill(0.0)
    for n, beta in enumerate(betas, 1):
        pot += (2.0 * beta / n) * (out[0] if n == 1 else np.cos(n * x))
    return out[:2], pot


def _log_chords(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log |e^{i a_k} - e^{i b_j}|^2 = log((cos a_k - cos b_j)^2 + (sin a_k -
    sin b_j)^2) at [..., chain, k, j], written into out where given, from
    (cos, sin) stacks a of shape (2, chain, N) and b of shape (..., 2, chain,
    N); k = j is pinned to log 1 = 0: a site drops out of its own sum."""
    d = np.square(a[..., None] - b[..., None, :])
    out = np.add(d[..., 0, :, :, :], d[..., 1, :, :, :], out=out)
    N = out.shape[-1]
    out.reshape(-1, N * N)[:, :: N + 1] = 1.0  # the k = j entries
    return np.log(out, out=out)


def _sweep(x, site, B, AP, W, scratch, accept, widths, betas, rngs) -> np.ndarray:
    """One Metropolis sweep over the sites of every chain, in place on the
    arrays _chain_group carries; returns the accepted count per chain.

    x[0] holds the phases theta, a row per chain, and x[1] their proposals;
    site[0] and site[1] hold their cos, sin and N V (_site_terms), and B =
    L(theta, theta), L = _log_chords.  Each chain draws its N proposal
    steps into x[1], then its N uniforms into scratch, from its own stream,
    and visits its sites in order.  One L(props, [theta, props]) into AP
    gives A = L(props, theta) and P = L(props, props).  Site i's change of
    the log Vandermonde sum starts as the row-i sum of A minus B's;
    accepting site k adds row k of W = P - A - A^T + B to each later
    site's.  A site whose change plus potential gain t is >= 0 (or NaN) is
    accepted without exp, as u < exp(min(0, t)) accepts it for every
    uniform u < 1.  The decisions, so the phases, are the site-by-site
    loop's: it sums in another order, rounds its potential otherwise and
    takes log 4 sin^2 for the chord form (error <~ 5e-16/|chord|), so they
    can differ only where a uniform lands that close to its threshold."""
    N = B.shape[-1]
    theta, props = x
    us, delta, gain = scratch
    for r, step, u in zip(rngs, props, us):
        r.standard_normal(out=step)
        r.random(out=u)
    props *= widths
    props += theta
    props += math.pi
    np.remainder(props, TWO_PI, out=props)
    props -= math.pi
    _site_terms(props, betas, site[1])
    site[1, 2] *= N
    A, P = _log_chords(site[1, :2], site[:, :2], AP)
    np.sum(A, axis=2, out=delta)
    delta -= B.sum(axis=2)
    np.subtract(P, A, out=W)
    W -= A.swapaxes(1, 2)
    W += B
    np.subtract(site[0, 2], site[1, 2], out=gain)
    accept.fill(False)
    for d, w, u, g, ok in zip(delta, W, us.tolist(), gain.tolist(), accept):
        for i, (ui, gi) in enumerate(zip(u, g)):
            t = d.item(i) + gi
            if not t < 0.0 or ui < math.exp(t):
                ok[i] = True
                d += w[i]  # the sites up to i are done: the whole row will do
    # next B: L(theta_i, props_j) for accepted j, then L(props_i, new_j) in accepted rows
    np.copyto(B, A.swapaxes(1, 2), where=accept[:, None, :])
    np.copyto(A, P, where=accept[:, None, :])
    np.copyto(B, A, where=accept[:, :, None])
    np.copyto(theta, props, where=accept)
    np.copyto(site[0], site[1], where=accept)
    return accept.sum(axis=1)


def _chain_group(N: int, betas: np.ndarray, sweeps: int, burn_in: int, seed: int,
                 first: int, stop: int) -> tuple[np.ndarray, int]:
    """Chains first..stop-1 in lockstep: their retained phases (chain
    first + c, sweep s in row c * sweeps + s) and the count of proposals
    accepted after burn-in.

    The arrays _sweep works on are allocated here once and carried from
    sweep to sweep: the phases and their proposals, the cos, sin and N V of
    both, the tables B, [A, P] and W, the uniforms, site changes and gains,
    the accept flags and the proposal widths.  Each sweep's phases are
    stored as they stand and sorted once at the end."""
    rngs = [_chain_rng(seed, c) for c in range(first, stop)]
    C = len(rngs)
    x = np.empty((2, C, N))
    x[0] = np.sort([r.uniform(-math.pi, math.pi, N) for r in rngs], axis=1)
    site = np.empty((2, 3, C, N))
    _site_terms(x[0], betas, site[0])
    site[0, 2] *= N
    B = _log_chords(site[0, :2], site[0, :2])
    widths = np.full((C, 1), 0.5)
    state = (x, site, B, np.empty((2, C, N, N)), np.empty((C, N, N)), np.empty((3, C, N)),
             np.empty((C, N), dtype=bool), widths)
    for _ in range(burn_in):
        for w, a in zip(widths, _sweep(*state, betas, rngs).tolist()):
            w[0] = min(max(w[0] * math.exp(0.5 * (a / N - 0.4)), 1e-3), math.pi)
    phases = np.empty((C * sweeps, N))
    accepted = 0
    for sweep in range(sweeps):
        accepted += int(_sweep(*state, betas, rngs).sum())
        phases[sweep::sweeps] = x[0]
    phases.sort(axis=1)
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
    """Metropolis over eigenphases with the module docstring's action S.

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
    action S of the module docstring, normalised to unit mass on (-pi, pi].
    The minus sign solves the large-N saddle equation V'(theta) = P int
    rho(phi) cot((theta - phi)/2) dphi: the conjugate function of cos n theta
    is sin n theta, so rho = (1/2pi)(1 + 2 sum a_n cos n theta) has
    a_n = -beta_n."""
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


def pair_correlation(
    points: np.ndarray,
    bins: int = 50,
    r_max: float = 5.0,
) -> CorrelationReport:
    """Empirical two-point correlation R_2 of unfolded points.

    A 2-D array holds eigenphase configurations, one ascending row each
    (as sample_cue and PlaquetteRun.sample give them; rows are not
    sorted here), unfolded circularly by N/2pi (unit mean spacing).  A 1-D
    array holds points that are already unfolded.  Distances from each
    reference point to its m-th successor, m = 1, 2, ..., grow with m; they
    are histogrammed up to the first m that brings none within r_max,
    normalised per reference point.
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
