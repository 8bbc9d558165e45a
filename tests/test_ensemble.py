import cmath
import hashlib
import math
import os

import mpmath
import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from zetaumm import NumericConsistencyError, cli, ensemble
from zetaumm.ensemble import (
    _chain_rng,
    acceptance_in_band,
    pair_correlation,
    plaquette_mc,
    plaquette_model_density,
    sample_cue,
    sine_kernel_r2,
)

TWO_PI = 2.0 * math.pi


def _circular_spacings(phases):
    """All N circular nearest-neighbour gaps per sorted configuration."""
    gaps = np.diff(phases, axis=1)
    wrap = (TWO_PI + phases[:, :1] - phases[:, -1:])
    return np.concatenate([gaps, wrap], axis=1)


class TestCUE:
    def test_mean_circular_spacing_is_exact(self):
        s = sample_cue(16, 200, seed=1)
        # N circular gaps always sum to 2pi, so the mean is identically 2pi/N
        assert abs(_circular_spacings(s).mean() - TWO_PI / 16) < 1e-12

    def test_same_seed_reproduces_stream(self):
        a = sample_cue(8, 50, seed=42)
        b = sample_cue(8, 50, seed=42)
        assert np.array_equal(a, b)
        c = sample_cue(8, 50, seed=43)
        assert not np.array_equal(a, c)

    def test_phases_sorted_in_interval(self):
        s = sample_cue(12, 100, seed=5)
        assert (np.diff(s, axis=1) >= 0).all()
        assert s.max() <= math.pi and s.min() > -math.pi

    def test_two_by_two_spacing_law(self):
        # joint density |e^{i a} - e^{i b}|^2 makes a uniformly chosen
        # circular gap follow sin^2(g/2)/pi; KS against its CDF
        s = sample_cue(2, 100_000, seed=9)
        gaps = _circular_spacings(s)
        pick = np.random.Generator(np.random.PCG64(1234)).integers(0, 2, gaps.shape[0])
        g = gaps[np.arange(gaps.shape[0]), pick]
        res = kstest(g, lambda x: (x - np.sin(x)) / TWO_PI)
        assert res.pvalue > 0.01

    @pytest.mark.parametrize("j", [1, 2, 4, 8, 9])
    def test_power_traces_have_haar_moments(self, j):
        # E|tr U^j|^2 = min(j, N) for Haar U (Diaconis & Shahshahani 1994);
        # the samples are independent, so the standard error is std/sqrt(n)
        N = 8
        t = np.abs(np.exp(1j * j * sample_cue(N, 20000, seed=17)).sum(axis=1)) ** 2
        assert abs(t.mean() - min(j, N)) <= 5 * t.std() / math.sqrt(t.size)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sample_cue(1, 10, seed=0)
        for samples in (0, -5):
            with pytest.raises(ValueError, match="samples must be >= 1"):
                sample_cue(4, samples, seed=0)

    @pytest.mark.parametrize("N, samples, seed, digest", [
        (2, 1001, 3, "d1fd28571b9cb73c97f4e83535895e165ddc9dd15edcdf118dab2eaaf6643c03"),
        (8, 301, 4, "0dbf3cb28dc5d8841cd6ff98932ad75c2ef4f0c2e9c05f5f6baeca1d8eeb0db5"),
        (40, 61, 5, "817845b7feea78d8f62a986ab9ab544782cb2d9fc298b7e93f1bd0f3e8e3e08c"),
    ])
    def test_phases_pinned(self, N, samples, seed, digest):
        # sha256 of the phases of a one-process run (IEEE float64, x86-64
        # glibc libm); no sample count here is a multiple of 2 or 3.  The
        # bits also depend on the SIMD loops numpy dispatches to (log1p, exp,
        # expm1, sqrt, arctan) and on the LAPACK build behind eigvalsh
        assert hashlib.sha256(sample_cue(N, samples, seed).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N, samples", [(2, 1001), (5, 401), (40, 61)])
    def test_phases_independent_of_chunk_size(self, monkeypatch, N, samples):
        # one sample per chunk, odd sizes that split the turned-back samples
        # unevenly, and the whole block in one chunk
        ref = sample_cue(N, samples, seed=2)
        for vector, dense in [(1, 1), (7 * N, 3 * N * N), (2**18, 2**22)]:
            monkeypatch.setattr(ensemble, "_VECTOR_WORDS", vector)
            monkeypatch.setattr(ensemble, "_DENSE_WORDS", dense)
            assert np.array_equal(sample_cue(N, samples, seed=2), ref)

    def test_failed_pass_raises_after_three_rotations(self, cpus, monkeypatch, tmp_path, capsys):
        # a pass that gives no phases turns each sample by 1 radian; the
        # third failure is an error, and the CLI exits 2 on it
        cpus(1)
        phis = []

        def never(alpha, rho, phi):
            phis.append(phi.tolist())
            return np.full(alpha.shape, np.nan), np.zeros(len(alpha), dtype=bool)

        monkeypatch.setattr(ensemble, "_cayley_pass", never)
        with pytest.raises(NumericConsistencyError, match=r"3 CUE sample\(s\) of U\(4\)"):
            sample_cue(4, 3, seed=0)
        assert phis == [[0.0] * 3, [1.0] * 3, [2.0] * 3]
        out = tmp_path / "cue.csv"
        assert cli.main(["cue-sample", "--n", "4", "--samples", "300", "--out", str(out)]) == 2
        assert "failed the Cayley transform at three rotations" in capsys.readouterr().err


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes the ensemble layer see n usable CPUs; cpus.reads counts
    the reads of the fake mask in this process.  Each part hands back the
    fake mask it read, which would narrow the process's real mask on a
    larger machine, so the real mask is put back afterwards."""
    real, set_mask = os.sched_getaffinity(0), os.sched_setaffinity

    def fake(n):
        def sched_getaffinity(pid):
            fake.reads += 1
            return set(range(n))

        monkeypatch.setattr(os, "sched_getaffinity", sched_getaffinity)

    fake.reads = 0
    yield fake
    set_mask(0, real)


def _record_affinity(monkeypatch, log, refuse=lambda mask: False):
    """Log each os.sched_setaffinity call, in any process, as a line "pid
    cpu,cpu,..." in log before passing it on (or raising OSError where
    refuse(mask) holds); return the pids of the children forked, in
    order."""
    set_mask, fork, children = os.sched_setaffinity, os.fork, []

    def sched_setaffinity(pid, mask):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {','.join(map(str, sorted(mask)))}\n")
        if refuse(mask):
            raise OSError(22, "refused")
        set_mask(pid, mask)

    def recorded_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_setaffinity", sched_setaffinity)
    monkeypatch.setattr(os, "fork", recorded_fork)
    return children


def _affinity_calls(log):
    """{pid: [the CPU lists it asked for, in order]}, emptying log."""
    calls = {}
    for line in log.read_text().splitlines():
        pid, mask = line.split()
        calls.setdefault(int(pid), []).append([int(c) for c in mask.split(",")])
    log.unlink()
    return calls


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """Blocks of CUE samples and groups of chains in forked children."""

    @pytest.mark.parametrize("N, samples", [(2, 1001), (8, 301), (40, 61)])
    def test_cue_independent_of_cpu_count(self, cpus, N, samples):
        runs = []
        for n in (1, 2, 3):
            cpus(n)
            runs.append(sample_cue(N, samples, seed=N))
        assert all(np.array_equal(runs[0], r) for r in runs[1:])
        _assert_no_child_left()

    @pytest.mark.parametrize("chains", [1, 3, 4])
    def test_plaquette_independent_of_cpu_count(self, cpus, chains):
        runs = []
        for n in (1, 2, 3):
            cpus(n)
            run = plaquette_mc(10, [0.15, 0.04], sweeps=40, burn_in=15, seed=8, chains=chains)
            runs.append((run.sample, run.density, run.acceptance_rate))
        for phases, density, rate in runs[1:]:
            assert np.array_equal(phases, runs[0][0]) and np.array_equal(density, runs[0][1])
            assert rate == runs[0][2]
        _assert_no_child_left()

    @pytest.mark.parametrize("n", [2, 3])
    def test_each_part_starts_on_its_own_cpu(self, cpus, monkeypatch, tmp_path, n):
        # part k asks for the k-th CPU alone, then, if the kernel granted
        # that (a fake mask may name a CPU this machine lacks), for the
        # whole mask it read
        real = os.sched_getaffinity(0)
        cpus(n)
        log = tmp_path / "affinity.log"
        children = _record_affinity(monkeypatch, log)
        for run in (lambda: sample_cue(8, 30, seed=1),
                    lambda: plaquette_mc(10, [0.15], sweeps=20, burn_in=5, seed=1, chains=n)):
            del children[:]
            run()
            calls = _affinity_calls(log)
            assert sorted(calls) == sorted([os.getpid(), *children]) and len(children) == n - 1
            for k, pid in enumerate([os.getpid(), *children]):
                assert calls[pid] == [[k], list(range(n))] if k in real else [[k]]
        _assert_no_child_left()

    def test_caller_keeps_its_mask(self, monkeypatch, tmp_path):
        # on the real mask, every process hands back the mask it read
        before = os.sched_getaffinity(0)
        log = tmp_path / "affinity.log"
        children = _record_affinity(monkeypatch, log)
        sample_cue(8, 30, seed=1)
        plaquette_mc(10, [0.15], sweeps=20, burn_in=5, seed=1, chains=3)
        assert os.sched_getaffinity(0) == before
        if children:  # on one CPU nothing forks and nothing moves
            calls = _affinity_calls(log)
            assert set(calls) == {os.getpid(), *children}
            assert all(c[-1] == sorted(before) for c in calls.values())
        _assert_no_child_left()

    def test_refused_placement_changes_nothing(self, cpus, monkeypatch, tmp_path):
        cpus(1)
        cue = sample_cue(8, 301, seed=3)
        mc = plaquette_mc(10, [0.15, 0.04], sweeps=40, burn_in=15, seed=8, chains=3)
        cpus(3)
        log = tmp_path / "affinity.log"
        _record_affinity(monkeypatch, log, refuse=lambda mask: len(mask) == 1)
        assert np.array_equal(sample_cue(8, 301, seed=3), cue)
        run = plaquette_mc(10, [0.15, 0.04], sweeps=40, burn_in=15, seed=8, chains=3)
        assert np.array_equal(run.sample, mc.sample) and np.array_equal(run.density, mc.density)
        assert run.acceptance_rate == mc.acceptance_rate
        # each of the 3 processes of each run asks once, and a refused
        # move is not followed by a restore
        assert sum(len(c) for c in _affinity_calls(log).values()) == 2 * 3
        _assert_no_child_left()

    def test_refused_restore_raises(self, cpus, monkeypatch, tmp_path):
        # a process that moved but cannot get its mask back is an error,
        # not a silent one-CPU run
        cpus(3)
        _record_affinity(monkeypatch, tmp_path / "affinity.log", refuse=lambda mask: len(mask) > 1)
        with pytest.raises(OSError, match="refused"):
            sample_cue(8, 30, seed=1)
        _assert_no_child_left()

    def test_blocks_cover_the_range(self, cpus, monkeypatch):
        # one contiguous, non-empty block per CPU, each with the fixed arguments first
        cpus(3)
        blocks = lambda n: ensemble._in_parallel(lambda a, lo, hi: (a, lo, hi), n, "a")
        assert blocks(7) == [("a", 0, 2), ("a", 2, 4), ("a", 4, 7)]
        assert blocks(2) == [("a", 0, 1), ("a", 1, 2)]
        assert blocks(1) == [("a", 0, 1)]
        monkeypatch.delattr(os, "fork")
        assert blocks(7) == [("a", 0, 7)]
        _assert_no_child_left()

    def test_mask_read_once_per_call(self, cpus):
        # the parts are cut and placed from one read, so a mask that changes
        # in between cannot make them disagree
        cpus(2)
        sample_cue(8, 30, seed=1)
        assert cpus.reads == 1
        plaquette_mc(10, [0.15], sweeps=20, burn_in=5, seed=1, chains=3)
        assert cpus.reads == 2
        _assert_no_child_left()

    def _raise_in(self, monkeypatch, where, exc):
        parent = os.getpid()
        original = ensemble._cayley_pass

        def cayley_pass(alpha, rho, phi):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            return original(alpha, rho, phi)

        monkeypatch.setattr(ensemble, "_cayley_pass", cayley_pass)

    def test_child_exception_raised_in_parent(self, cpus, monkeypatch):
        cpus(3)
        self._raise_in(monkeypatch, "child", FloatingPointError("raised in a child"))
        with pytest.raises(FloatingPointError, match="raised in a child"):
            sample_cue(8, 30, seed=1)
        _assert_no_child_left()

    @pytest.mark.parametrize("exc", [np.linalg.LinAlgError("raised here"), KeyboardInterrupt()])
    def test_parent_exception_reaps_children(self, cpus, monkeypatch, exc):
        cpus(3)
        self._raise_in(monkeypatch, "parent", exc)
        with pytest.raises(type(exc)):
            sample_cue(8, 30, seed=1)
        _assert_no_child_left()

    def test_child_without_result(self, cpus, monkeypatch):
        cpus(2)
        parent = os.getpid()
        original = ensemble._cayley_pass
        monkeypatch.setattr(ensemble, "_cayley_pass",
                            lambda *args: original(*args) if os.getpid() == parent else os._exit(3))
        with pytest.raises(ChildProcessError, match="without a result"):
            sample_cue(8, 30, seed=1)
        _assert_no_child_left()


def _circular_error(a, b):
    """Largest distance on the circle from a phase of either set to the
    nearest phase of the other (a phase at pi may sort to either end)."""
    d = np.abs(np.angle(np.exp(1j * (a[:, None] - b[None, :]))))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _cmv_of(alpha):
    """The CMV matrix C = L M of the Verblunsky coefficients alpha, |alpha_k|
    < 1 for k < N - 1 and |alpha_{N-1}| = 1, built alone: Theta_k = [[conj
    alpha_k, rho_k], [rho_k, -alpha_k]] on rows k, k + 1 of L (k even) or M
    (k odd, after M's leading 1), the last block cut to its corner."""
    N = len(alpha)
    L, M = np.zeros((N, N), complex), np.eye(N, dtype=complex)
    for k, a in enumerate(alpha):
        X = L if k % 2 == 0 else M
        if k == N - 1:
            X[k, k] = a.conjugate()
        else:
            rho = math.sqrt(1.0 - abs(a) ** 2)
            X[k : k + 2, k : k + 2] = [[a.conjugate(), rho], [rho, -a]]
    return L @ M


def _cmv_replay(N, rng):
    """The next CMV matrix of sample_cue's stream: 2N - 1 uniforms give
    |alpha_k|^2 = 1 - (1 - u_k)^(1/(N-1-k)) for k < N - 1, |alpha_{N-1}| =
    1, and the phases 2 pi u_{N-1+k}."""
    u = rng.random(2 * N - 1)
    return _cmv_of([cmath.exp(2j * math.pi * u[N - 1 + k])
                    * (math.sqrt(1.0 - (1.0 - u[k]) ** (1.0 / (N - 1 - k))) if k < N - 1 else 1.0)
                    for k in range(N)])


def _with_eigenvalue(alpha, z):
    """alpha with its last coefficient replaced so that z, |z| = 1, is an
    eigenvalue of the CMV matrix.  Its characteristic polynomial is Phi_N,
    by the Szego recursion Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k,
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k from Phi_0 = Phi*_0 = 1, so
    conj(alpha_{N-1}) = z Phi_{N-1}(z) / Phi*_{N-1}(z), of modulus 1."""
    phi, star = 1.0 + 0j, 1.0 + 0j
    for a in alpha[:-1]:
        phi, star = z * phi - a.conjugate() * star, star - a * z * phi
    alpha = alpha.copy()
    alpha[-1] = (z * phi / star).conjugate()
    return alpha


class TestCayleyPhases:
    """The factor-form Cayley eigenphases against np.linalg.eigvals."""

    @pytest.mark.parametrize("N, samples, seed", [
        (40, 60, 1), (80, 10, 2), (3, 300, 3), (5, 300, 4), (8, 1000, 5),
    ])
    def test_sample_cue_matches_eigvals(self, N, samples, seed):
        # _cmv_replay replays the draws of sample_cue, so these are its
        # matrices; 16 of the 60 at N = 40 take a rotated pass
        phases = sample_cue(N, samples, seed)
        rng = _chain_rng(seed, 0)
        for row in phases:
            ref = np.angle(np.linalg.eigvals(_cmv_replay(N, rng)))
            assert _circular_error(row, ref) <= 1e-12

    @pytest.mark.parametrize("lam", [math.pi, math.pi - 1e-10])
    def test_eigenvalue_at_or_next_to_minus_one(self, monkeypatch, lam):
        # at z = -1 the unrotated T = conj(L) + M is singular; 1e-10 from it
        # the first pass reads |x| = cot(5e-11) ~ 2e10, far above 4N.  Either
        # way it turns the sample back, and the rotated pass reads every phase
        N = 12
        alpha, rho = ensemble._verblunsky(_chain_rng(4, 0).random((1, 2 * N - 1)))
        alpha = _with_eigenvalue(alpha[0], cmath.exp(1j * lam))
        C = _cmv_of(alpha)
        assert np.abs(np.linalg.eigvals(C) - cmath.exp(1j * lam)).min() <= 1e-14
        flags = []
        original = ensemble._cayley_pass

        def spy(*args):
            theta, ok = original(*args)
            flags.append(ok.tolist())
            return theta, ok

        monkeypatch.setattr(ensemble, "_cayley_pass", spy)
        th = ensemble._cue_phases(np.empty((1, N)), [(alpha[None], rho)])[0]
        assert flags == [[False], [True]]
        assert _circular_error(th, np.angle(np.linalg.eigvals(C))) <= 1e-12
        assert np.abs(np.angle(np.exp(1j * (th - lam)))).min() <= 1e-12
        assert (np.diff(th) >= 0).all()
        assert th.min() > -math.pi and th.max() <= math.pi


    def test_zero_pivot_gives_no_phases_and_a_turn_by_one(self, monkeypatch):
        # alpha_0 = -1 (rho_0 = 0) splits off the eigenvalue -1, and the
        # unrotated T's first pivot, alpha_0 - alpha_{-1} = alpha_0 + 1, is
        # exactly 0, so K is not finite: the pass gives a NaN row, and the
        # next pass turns the sample by 1 radian
        N = 9
        alpha, rho = ensemble._verblunsky(_chain_rng(6, 0).random((1, 2 * N - 1)))
        alpha[0, 0], rho[0, 0] = -1.0, 0.0
        passes = []
        original = ensemble._cayley_pass

        def spy(*args):
            theta, ok = original(*args)
            passes.append((args[2].tolist(), ok.tolist(), bool(np.isnan(theta).all())))
            return theta, ok

        monkeypatch.setattr(ensemble, "_cayley_pass", spy)
        th = ensemble._cue_phases(np.empty((1, N)), [(alpha, rho)])[0]
        assert passes[0] == ([0.0], [False], True) and passes[1][0] == [1.0]
        assert _circular_error(th, np.angle(np.linalg.eigvals(_cmv_of(alpha[0])))) <= 1e-12
        assert np.abs(np.angle(-np.exp(1j * th))).min() <= 1e-15


def _reference_chain(N, betas, sweeps, burn_in, seed, chain):
    """The single-chain, site-by-site Metropolis loop that plaquette_mc
    replaced, kept as the bit-for-bit reference of the lockstep sweep:
    retained phases and the count of proposals accepted after burn-in."""

    def potential(t):
        return N * sum((2.0 * b / (n + 1)) * math.cos((n + 1) * t) for n, b in enumerate(betas))

    def sweep(theta, width):
        props = theta + width * rng.standard_normal(N)
        props = (props + math.pi) % TWO_PI - math.pi
        us, accepted = rng.random(N), 0
        for i in range(N):
            sn = 4.0 * np.sin(0.5 * (props[i] - theta)) ** 2
            so = 4.0 * np.sin(0.5 * (theta[i] - theta)) ** 2
            sn[i] = so[i] = 1.0
            d_action = potential(props[i]) - potential(theta[i]) - float(
                np.log(sn).sum() - np.log(so).sum())
            if us[i] < math.exp(min(0.0, -d_action)):
                theta[i] = props[i]
                accepted += 1
        return accepted

    rng = _chain_rng(seed, chain)
    theta = np.sort(rng.uniform(-math.pi, math.pi, N))
    width = 0.5
    for _ in range(burn_in):
        width = min(max(width * math.exp(0.5 * (sweep(theta, width) / N - 0.4)), 1e-3), math.pi)
    out, accepted = [], 0
    for _ in range(sweeps):
        accepted += sweep(theta, width)
        out.append(np.sort(theta))
    return np.array(out), accepted


class TestPlaquetteMC:
    def test_zero_coupling_gives_uniform_density(self):
        run = plaquette_mc(32, [], sweeps=1500, burn_in=300, seed=1, chains=6, bins=32)
        assert np.abs(run.density - 1.0 / TWO_PI).max() < 0.01
        assert acceptance_in_band(run)

    def test_single_coupling_matches_ungapped_density(self):
        run = plaquette_mc(32, [0.25], sweeps=1200, burn_in=300, seed=2, chains=4, bins=32)
        th = 0.5 * (run.bin_edges[1:] + run.bin_edges[:-1])
        model = plaquette_model_density(th, [0.25])
        assert np.abs(run.density - model).max() < 0.03

    def test_sign_convention_frozen(self):
        # the minus sign of plaquette_model_density, seen in a run: the
        # saddle equation of the action gives a_n = -beta_n (derived in
        # test_density_solves_the_saddle_equation_of_the_sampled_action), so
        # the fitted first Fourier coefficient has magnitude beta_1 and the
        # opposite sign
        run = plaquette_mc(32, [0.25], sweeps=800, burn_in=300, seed=3, chains=4)
        c_fit = np.cos(run.sample.ravel()).mean()
        assert abs(c_fit + 0.25) < 0.02

    def test_density_solves_the_saddle_equation_of_the_sampled_action(self):
        # at large N the action's saddle equation is V'(theta) = P int
        # rho(phi) cot((theta - phi)/2) dphi, with V the one-site potential
        # the sampler evaluates; (1/2pi) P int f(phi) cot((theta - phi)/2)
        # dphi is the conjugate function of f, the Fourier multiplier
        # -i sign(n), so V' = 2 pi conj(rho).  Both are trigonometric
        # polynomials far below the grid's Nyquist order: exact up to rounding
        n_grid = 256
        th = TWO_PI * np.arange(n_grid) / n_grid - math.pi
        k = np.fft.fftfreq(n_grid, 1.0 / n_grid)
        rng = np.random.default_rng(13)
        for order in (1, 2, 3, 5):
            betas = rng.uniform(-0.1, 0.1, order)
            pot = ensemble._site_terms(th, betas)[1]
            vprime = np.fft.ifft(1j * k * np.fft.fft(pot)).real
            conj = np.fft.ifft(-1j * np.sign(k) * np.fft.fft(plaquette_model_density(th, betas))).real
            assert np.abs(vprime - TWO_PI * conj).max() < 1e-13

    def test_ungapped_density_normalised(self):
        th = np.linspace(-math.pi, math.pi, 20001)
        rho = plaquette_model_density(th, [-0.25, 0.1])
        assert abs(np.trapezoid(rho, th) - 1.0) < 1e-6

    def test_phases_sorted(self):
        # pair_correlation reads each stored configuration as ascending
        run = plaquette_mc(10, [0.2], sweeps=50, burn_in=10, seed=6, chains=3)
        assert (np.diff(run.sample, axis=1) >= 0).all()

    def test_burn_in_changes_histogram(self):
        a = plaquette_mc(16, [0.25], sweeps=200, burn_in=0, seed=4, chains=2)
        b = plaquette_mc(16, [0.25], sweeps=200, burn_in=200, seed=4, chains=2)
        assert not np.array_equal(a.density, b.density)

    def test_chain_streams_independent_of_chain_count(self):
        a = plaquette_mc(8, [0.1], sweeps=50, burn_in=20, seed=7, chains=1)
        b = plaquette_mc(8, [0.1], sweeps=50, burn_in=20, seed=7, chains=3)
        assert np.array_equal(a.sample[:50], b.sample[:50])

    @pytest.mark.parametrize("N, betas, sweeps, burn_in, seed, chains, digest", [
        (8, [0.1, 0.03], 60, 20, 7, 1,
         "7d32e7dd678f7e127a26e4a7929dffb8032629d47967af63b5b8f70ea1f0b4a8"),
        (12, [0.2], 40, 15, 11, 3,
         "47126e3617e39bf0434cf20981084275b4ea22ddb92ecb6c775e585e38e0a718"),
    ])
    def test_phases_pinned(self, N, betas, sweeps, burn_in, seed, chains, digest):
        # sha256 of the phases written by the one-chain-at-a-time sampler
        # that preceded the lockstep sweep; the rewrite must reproduce them
        # bit for bit (IEEE float64, x86-64 glibc libm)
        run = plaquette_mc(N, betas, sweeps, burn_in, seed, chains)
        assert hashlib.sha256(run.sample.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N, betas, chains", [(6, [], 2), (9, [0.15, -0.05, 0.02], 3),
                                                 (2, [], 3)])
    def test_matches_one_chain_reference(self, N, betas, chains):
        run = plaquette_mc(N, betas, sweeps=30, burn_in=25, seed=3, chains=chains)
        ref = np.concatenate([_reference_chain(N, betas, 30, 25, 3, c)[0] for c in range(chains)])
        assert np.array_equal(run.sample, ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("N, betas, chains", [(48, [0.2, 0.05], 1), (32, [0.25], 4)])
    def test_matches_reference_at_benchmark_shapes(self, N, betas, chains, seed):
        # the shapes of the benchmark's plaquette-mc jobs: one chain, and
        # four chains in one group per usable CPU
        run = plaquette_mc(N, betas, sweeps=300, burn_in=60, seed=seed, chains=chains)
        refs = [_reference_chain(N, betas, 300, 60, seed, c) for c in range(chains)]
        assert np.array_equal(run.sample, np.concatenate([p for p, _ in refs]))
        assert run.acceptance_rate == sum(a for _, a in refs) / (chains * 300 * N)

    def test_chord_table_against_sine_form(self):
        # log |e^{ia} - e^{ib}|^2 = log 4 sin^2((a - b)/2), in 40-digit
        # arithmetic from the same doubles; pairs 1e-3 apart, two of them
        # across the cut at +-pi
        a = np.array([-math.pi + 5e-4, math.pi - 5e-4, math.pi - 1.5e-3, 0.0, 1e-3, 2e-3,
                      0.7, 1.3, -2.2, 3.0, -3.0, -1.0, -1.001])
        gaps = np.abs(np.angle(np.exp(1j * (a[:, None] - a[None, :]))))
        assert gaps[~np.eye(a.size, dtype=bool)].min() > 0.999e-3
        L = ensemble._log_chords(*[np.stack([np.cos(a), np.sin(a)])[:, None, :]] * 2)[0]
        with mpmath.workdps(40):
            ref = np.array([[float(mpmath.log(4 * mpmath.sin((mpmath.mpf(x) - mpmath.mpf(y)) / 2) ** 2))
                             if i != j else 0.0 for j, y in enumerate(a)] for i, x in enumerate(a)])
        assert np.abs(L - ref).max() <= 1e-12
        assert (np.diagonal(L) == 0.0).all()

    def test_same_seed_same_histogram(self):
        a = plaquette_mc(16, [0.2], sweeps=100, burn_in=50, seed=11, chains=2)
        b = plaquette_mc(16, [0.2], sweeps=100, burn_in=50, seed=11, chains=2)
        assert np.array_equal(a.density, b.density)

    def test_gap_phase_guard(self):
        # trailing zero couplings add nothing to the action, so they keep
        # the single-coefficient refusal
        for betas in ([0.6], [0.75, 0.0], [0.75, 0.0, 0.0], [-0.75, -0.0]):
            with pytest.raises(ValueError, match="leaves the no-gap phase"):
                plaquette_mc(16, betas, sweeps=10, burn_in=0, seed=0)

    def test_no_bins_rejected(self):
        with pytest.raises(ValueError, match="chains, sweeps and bins must be >= 1"):
            plaquette_mc(16, [0.2], sweeps=10, burn_in=0, seed=0, bins=0)

    def test_trailing_zero_coupling_keeps_the_bits(self):
        a = plaquette_mc(8, [0.25], sweeps=20, burn_in=5, seed=4, chains=2)
        b = plaquette_mc(8, [0.25, 0.0, -0.0], sweeps=20, burn_in=5, seed=4, chains=2)
        assert np.array_equal(a.sample, b.sample) and a.acceptance_rate == b.acceptance_rate

    @pytest.mark.parametrize("rate, healthy", [(0.05, False), (0.1, True), (0.9, True), (0.95, False)])
    def test_acceptance_band_edges(self, rate, healthy):
        run = ensemble.PlaquetteRun(np.zeros((1, 1)), np.array([-math.pi, math.pi]), np.ones(1), rate)
        assert acceptance_in_band(run) is healthy

    def test_zero_coupling_spacings_match_cue(self):
        # heavy thinning and one gap per configuration keep the two-sample
        # KS comparison effectively independent
        run = plaquette_mc(16, [], sweeps=2000, burn_in=300, seed=5, chains=2)
        mc_gaps = _circular_spacings(run.sample[::10])[::2, 0]
        cue_gaps = _circular_spacings(sample_cue(16, mc_gaps.size, seed=6))[:, 0]
        assert ks_2samp(mc_gaps, cue_gaps).pvalue > 1e-3


def _reference_r2(sample, bins=50, r_max=5.0):
    """The one-configuration-at-a-time, all-pairs histogram that
    pair_correlation's loop over forward offsets replaced."""
    N = sample.shape[1]
    edges = np.linspace(0.0, r_max, bins + 1)
    counts = np.zeros(bins)
    for row in sample:
        x = np.sort(row * N / TWO_PI)
        d = (x[None, :] - x[:, None]) % float(N)
        np.fill_diagonal(d, np.inf)
        counts += np.histogram(d[d <= r_max], bins=edges)[0]
    return counts / (len(sample) * N * (edges[1] - edges[0]))


def _reference_point_r2(points, bins, r_max):
    """The per-reference-point list comprehension that pair_correlation's
    loop over forward offsets replaced, for an unfolded point array."""
    edges = np.linspace(0.0, r_max, bins + 1)
    x = np.sort(np.asarray(points, dtype=float))
    interior = np.nonzero(x <= x[-1] - r_max)[0]
    hi = np.searchsorted(x, x[interior] + r_max, side="right")
    dists = np.concatenate([x[i + 1 : h] - x[i] for i, h in zip(interior, hi)])
    return np.histogram(dists, bins=edges)[0] / (interior.size * (edges[1] - edges[0]))


class TestPairCorrelation:
    @pytest.mark.parametrize("N, samples, bins, r_max", [
        (40, 203, 50, 5.0), (80, 31, 50, 5.0), (181, 7, 30, 3.0), (6, 400, 20, 2.5),
        (2, 500, 10, 1.0), (2, 500, 16, 2.0), (3, 400, 25, 3.0), (8, 130, 40, 8.0),
        (40, 30, 50, 40.0), (80, 13, 40, 0.3),
    ])
    def test_blocked_histogram_matches_row_loop(self, N, samples, bins, r_max):
        # r_max = N takes every offset of every row
        s = sample_cue(N, samples, seed=samples)
        assert np.array_equal(pair_correlation(s, bins, r_max).r2, _reference_r2(s, bins, r_max))

    @pytest.mark.parametrize("bins, r_max", [(50, 5.0), (40, 4.0), (30, 0.3), (20, 50.0)])
    def test_point_histogram_matches_list_comprehension(self, zeros_all, bins, r_max):
        x = zeros_all.ts
        assert np.array_equal(pair_correlation(x, bins, r_max).r2, _reference_point_r2(x, bins, r_max))

    def test_point_histogram_near_the_end_of_the_array(self):
        # r_max is 60 % of the span, so the offsets run past the end of the
        # array for the last reference points
        pts = np.random.Generator(np.random.PCG64(3)).uniform(0.0, 100.0, 1000)
        assert np.array_equal(pair_correlation(pts, 30, 60.0).r2, _reference_point_r2(pts, 30, 60.0))

    def test_cue_matches_sine_kernel(self):
        s = sample_cue(40, 800, seed=11)
        rep = pair_correlation(s, bins=50, r_max=5.0)
        assert rep.l2_distance < 0.08
        # R2 flattens to 1 at large separations
        assert abs(rep.r2[-10:].mean() - 1.0) < 0.05

    def test_cue_matches_finite_n_pair_correlation(self):
        # the exact U(N) pair correlation in unit mean spacing, 1 - (sin(pi r)
        # / (N sin(pi r/N)))^2 (Dyson 1962), averaged over each bin, bin by
        # bin; the samples are independent, so the spread of 40 batch means
        # is an honest bar.  Haar samples read max |z| 2.3-3.3 at seeds 21-23,
        # Beta(1, N - k) moduli about 40
        N, batches, size, bins, r_max = 8, 40, 500, 40, 4.0
        s = sample_cue(N, batches * size, seed=21)
        r2 = np.array([pair_correlation(s[k * size : (k + 1) * size], bins, r_max).r2
                       for k in range(batches)])
        mean, bar = r2.mean(axis=0), r2.std(axis=0, ddof=1) / math.sqrt(batches)
        edges = np.linspace(0.0, r_max, bins + 1)
        r = edges[:-1, None] + (edges[1] - edges[0]) * (np.arange(64) + 0.5) / 64
        exact = (1.0 - (np.sin(math.pi * r) / (N * np.sin(math.pi * r / N))) ** 2).mean(axis=1)
        z = (mean - exact) / bar
        assert np.abs(z).max() < 5.0
        assert (z**2).mean() < 2.0

    def test_poisson_control(self):
        rng = np.random.Generator(np.random.PCG64(5))
        pts = np.sort(rng.uniform(0.0, 10_000.0, 10_000))
        rep = pair_correlation(pts, bins=50, r_max=5.0)
        assert rep.l2_distance > 0.2
        assert rep.l2_distance_to(np.ones(50)) < 0.15

    @pytest.mark.parametrize("shape", [(), (10, 10, 20)])
    def test_rank_other_than_one_or_two_rejected(self, shape):
        with pytest.raises(ValueError, match=f"not a {len(shape)}-D array"):
            pair_correlation(np.zeros(shape))

    @pytest.mark.parametrize("bins, r_max, message", [
        (0, 5.0, "bins must be >= 1"), (50, 0.0, "r_max must be positive"),
        (50, -1.0, "r_max must be positive"),
    ])
    def test_histogram_shape_rejected(self, bins, r_max, message):
        with pytest.raises(ValueError, match=message):
            pair_correlation(sample_cue(12, 100, seed=0), bins, r_max)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            pair_correlation(np.linspace(0, 100, 500))

    def test_r_max_beyond_the_span_rejected(self):
        # no point has r_max room ahead of it: R2 would be 0/0 in every bin
        x = np.linspace(0, 100, 1000)
        with pytest.raises(ValueError, match=r"r_max = 150 is not below the span 100"):
            pair_correlation(x, r_max=150.0)
        with np.errstate(all="raise"):
            rep = pair_correlation(x, bins=20, r_max=99.9)  # one reference point, x = 0
        assert np.isfinite(rep.r2).all()
        assert np.array_equal(rep.r2, _reference_point_r2(x, 20, 99.9))

    def test_r_max_beyond_the_circle_rejected(self):
        # a U(N) row unfolds to a circle of length N: no separation reaches N
        s = sample_cue(4, 300, seed=0)
        with pytest.raises(ValueError, match=r"r_max = 5 exceeds N = 4"):
            pair_correlation(s, r_max=5.0)
        assert pair_correlation(s, bins=8, r_max=4.0).r2.size == 8

    def test_sine_kernel_reference(self):
        r = np.array([1e-9, 0.5, 1.0, 2.5])
        vals = sine_kernel_r2(r)
        assert abs(vals[0]) < 1e-8
        assert abs(vals[2] - 1.0) < 1e-12  # sinc vanishes at integers
        assert (vals <= 1.2).all() and (vals >= -1e-12).all()
