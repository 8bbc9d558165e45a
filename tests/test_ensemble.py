import hashlib
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from zetaumm.ensemble import (
    PLAQUETTE_DENSITY_SIGN,
    _chain_rng,
    _eigenphases,
    acceptance_in_band,
    pair_correlation,
    plaquette_mc,
    plaquette_model_density,
    sample_cue,
    sine_kernel_r2,
    unfold_zeros,
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
        assert abs(_circular_spacings(s.phases).mean() - TWO_PI / 16) < 1e-12

    def test_same_seed_reproduces_stream(self):
        a = sample_cue(8, 50, seed=42)
        b = sample_cue(8, 50, seed=42)
        assert np.array_equal(a.phases, b.phases)
        c = sample_cue(8, 50, seed=43)
        assert not np.array_equal(a.phases, c.phases)

    def test_phases_sorted_in_interval(self):
        s = sample_cue(12, 100, seed=5)
        assert (np.diff(s.phases, axis=1) >= 0).all()
        assert s.phases.max() <= math.pi and s.phases.min() > -math.pi

    def test_two_by_two_spacing_law(self):
        # joint density |e^{i a} - e^{i b}|^2 makes a uniformly chosen
        # circular gap follow sin^2(g/2)/pi; KS against its CDF
        s = sample_cue(2, 100_000, seed=9)
        gaps = _circular_spacings(s.phases)
        pick = np.random.Generator(np.random.PCG64(1234)).integers(0, 2, gaps.shape[0])
        g = gaps[np.arange(gaps.shape[0]), pick]
        res = kstest(g, lambda x: (x - np.sin(x)) / TWO_PI)
        assert res.pvalue > 0.01

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            sample_cue(1, 10, seed=0)


def _circular_error(a, b):
    """Largest distance on the circle from a phase of either set to the
    nearest phase of the other (a phase at pi may sort to either end)."""
    d = np.abs(np.angle(np.exp(1j * (a[:, None] - b[None, :]))))
    return max(d.min(axis=1).max(), d.min(axis=0).max())


def _haar(N, rng):
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    Q, R = np.linalg.qr(A / math.sqrt(2.0))
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


class TestCayleyPhases:
    """The Cayley-transform eigenphases against np.linalg.eigvals."""

    @pytest.mark.parametrize("N, samples, seed", [(40, 60, 1), (80, 10, 2), (3, 300, 3)])
    def test_sample_cue_matches_eigvals(self, N, samples, seed):
        # _haar replays the draws of sample_cue, so these are its matrices;
        # about one in six takes the guarded second pass
        phases = sample_cue(N, samples, seed).phases
        rng = _chain_rng(seed, 0)
        for row in phases:
            ref = np.angle(np.linalg.eigvals(_haar(N, rng)))
            assert _circular_error(row, ref) <= 1e-12

    @pytest.mark.parametrize("rotate", [False, True])
    def test_eigenvalue_at_minus_one_and_cluster_near_pi(self, rotate):
        lam = np.array([math.pi, math.pi - 1e-10, math.pi - 6e-10, -math.pi + 9e-10,
                        0.0, 0.4, 1.1, 2.9, -0.5, -1.7, -2.8, 2.2])
        N = lam.size
        z = np.exp(1j * lam)
        z[0] = -1.0  # unrotated, I + U then has an exact zero pivot and the solve fails
        V = _haar(N, np.random.Generator(np.random.PCG64(5))) if rotate else np.eye(N)
        U = (V * z) @ V.conj().T
        th = _eigenphases(U)
        assert _circular_error(th, np.angle(np.linalg.eigvals(U))) <= 1e-12
        assert _circular_error(th, lam) <= 1e-12
        assert (np.diff(th) >= 0).all()
        assert th.min() > -math.pi and th.max() <= math.pi


def _reference_chain(N, betas, sweeps, burn_in, seed, chain):
    """The single-chain, site-by-site Metropolis loop that plaquette_mc
    replaced, kept as the bit-for-bit reference of the lockstep sweep."""

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
    out = []
    for _ in range(sweeps):
        sweep(theta, width)
        out.append(np.sort(theta))
    return np.array(out)


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
        # the calibration that froze PLAQUETTE_DENSITY_SIGN: fitted first
        # Fourier coefficient has magnitude beta_1 and the recorded sign
        run = plaquette_mc(32, [0.25], sweeps=800, burn_in=300, seed=3, chains=4)
        c_fit = np.cos(run.sample.phases.ravel()).mean()
        assert abs(c_fit - PLAQUETTE_DENSITY_SIGN * 0.25) < 0.02

    def test_burn_in_changes_histogram(self):
        a = plaquette_mc(16, [0.25], sweeps=200, burn_in=0, seed=4, chains=2)
        b = plaquette_mc(16, [0.25], sweeps=200, burn_in=200, seed=4, chains=2)
        assert not np.array_equal(a.density, b.density)

    def test_chain_streams_independent_of_chain_count(self):
        a = plaquette_mc(8, [0.1], sweeps=50, burn_in=20, seed=7, chains=1)
        b = plaquette_mc(8, [0.1], sweeps=50, burn_in=20, seed=7, chains=3)
        assert np.array_equal(a.sample.phases[:50], b.sample.phases[:50])

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
        assert hashlib.sha256(run.sample.phases.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("N, betas, chains", [(6, [], 2), (9, [0.15, -0.05, 0.02], 3)])
    def test_matches_one_chain_reference(self, N, betas, chains):
        run = plaquette_mc(N, betas, sweeps=30, burn_in=25, seed=3, chains=chains)
        ref = np.concatenate([_reference_chain(N, betas, 30, 25, 3, c) for c in range(chains)])
        assert np.array_equal(run.sample.phases, ref)

    def test_same_seed_same_histogram(self):
        a = plaquette_mc(16, [0.2], sweeps=100, burn_in=50, seed=11, chains=2)
        b = plaquette_mc(16, [0.2], sweeps=100, burn_in=50, seed=11, chains=2)
        assert np.array_equal(a.density, b.density)

    def test_gap_phase_guard(self):
        with pytest.raises(ValueError):
            plaquette_mc(16, [0.6], sweeps=10, burn_in=0, seed=0)

    def test_zero_coupling_spacings_match_cue(self):
        # heavy thinning and one gap per configuration keep the two-sample
        # KS comparison effectively independent
        run = plaquette_mc(16, [], sweeps=2000, burn_in=300, seed=5, chains=2)
        mc_gaps = _circular_spacings(run.sample.phases[::10])[::2, 0]
        cue_gaps = _circular_spacings(sample_cue(16, mc_gaps.size, seed=6).phases)[:, 0]
        assert ks_2samp(mc_gaps, cue_gaps).pvalue > 1e-3


class TestPairCorrelation:
    def test_cue_matches_sine_kernel(self):
        s = sample_cue(40, 800, seed=11)
        rep = pair_correlation(s, bins=50, r_max=5.0)
        assert rep.l2_distance < 0.08
        # R2 flattens to 1 at large separations
        assert abs(rep.r2[-10:].mean() - 1.0) < 0.05

    def test_poisson_control(self):
        rng = np.random.Generator(np.random.PCG64(5))
        pts = np.sort(rng.uniform(0.0, 10_000.0, 10_000))
        rep = pair_correlation(pts, bins=50, r_max=5.0)
        assert rep.l2_distance > 0.2
        assert rep.l2_distance_to(np.ones(50)) < 0.15

    def test_zero_unfolding_has_unit_mean_spacing(self, zeros_2000):
        x = unfold_zeros(zeros_2000.ts)
        spacing = np.diff(x).mean()
        assert abs(spacing - 1.0) < 0.01

    def test_unfolded_zeros_near_sine_kernel(self, zeros_all):
        # low-height zeros carry a visible 1/ln(t) correction at small r,
        # so the distance depends on binning; both conventions below hold
        rep = pair_correlation(unfold_zeros(zeros_all.ts), bins=40, r_max=4.0)
        assert rep.l2_distance < 0.08
        rep_default = pair_correlation(unfold_zeros(zeros_all.ts), bins=50, r_max=5.0)
        assert rep_default.l2_distance < 0.1

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            pair_correlation(np.linspace(0, 100, 500))

    def test_sine_kernel_reference(self):
        r = np.array([1e-9, 0.5, 1.0, 2.5])
        vals = sine_kernel_r2(r)
        assert abs(vals[0]) < 1e-8
        assert abs(vals[2] - 1.0) < 1e-12  # sinc vanishes at integers
        assert (vals <= 1.2).all() and (vals >= -1e-12).all()
