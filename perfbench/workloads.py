"""Job lists of the three benchmark workloads.

Sizes are fixed, so the cost of a workload does not depend on the seed.
The seed only picks values inside ranges on which every command exits 0:
primes, mu, s0, x, the Gaussian width, and the p-adic and RNG seeds.

Each job is one `zetaumm` CLI invocation.  Its argv holds two placeholders,
``{zeros}`` (the bundled zero table) and ``{out}`` (the artifact path),
which the runner fills in; ``params`` carries what the checks need.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-light", "critical-line", "ensemble")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # selects the correctness check in checks.py
    argv: tuple[str, ...]
    ext: str = "csv"
    params: dict = field(default_factory=dict)

    def resolve(self, zeros: str, out: str) -> list[str]:
        return [a.replace("{zeros}", zeros).replace("{out}", out) for a in self.argv]


def _job(name, kind, argv, ext="csv", **params) -> Job:
    argv = list(argv) + ["--out", "{out}"] + (["--format", "json"] if ext == "json" else [])
    return Job(name, kind, tuple(str(a) for a in argv), ext, params)


def _u(rng: random.Random, lo: float, hi: float) -> float:
    # 6 significant decimals, so the value survives argv and metadata round trips
    return round(rng.uniform(lo, hi), 6)


def cli_light(rng: random.Random) -> list[Job]:
    """Every README command except cue-sample and plaquette-mc, at README
    sizes, plus betas --model xi/shifted and beta-ren shifted_contour."""
    p_local = rng.choice([2, 3, 5, 7, 11, 13])
    p_density = rng.choice([2, 3, 5, 7])
    mu_ps = _u(rng, 1.2, 2.5)
    width = _u(rng, 0.8, 1.5)
    # half-integers: 0.5 away from every prime-power jump of psi and J
    x_psi = rng.randrange(5, 60) + 0.5
    mu_comb = _u(rng, 0.2, 1.0)
    padic_seed = rng.randrange(10**6)
    s0 = _u(rng, 1.5, 3.0)
    mu_sc = _u(rng, 1.2, 2.5)
    return [
        _job("betas-local", "betas-local",
             ["betas", "--model", "local", "--prime", p_local, "--mmax", 20,
              "--radius", 0.5, "--nodes", 512], p=p_local, M=20),
        _job("density", "density", ["density", "--prime", p_density, "--spikes", 5],
             p=p_density, spikes=5),
        _job("li-2000", "li", ["li", "--zeros", "{zeros}", "--nmax", 10, "--nzeros", 2000],
             nmax=10, nzeros=2000),
        _job("beta-ren-prime", "beta-ren-prime",
             ["beta-ren", "--method", "prime_sum", "--mu", mu_ps, "--mmax", 10, "--pmax", 10**6],
             mu=mu_ps, M=10, pmax=10**6),
        _job("trace-check-100", "trace-check",
             ["trace-check", "--zeros", "{zeros}", "--nzeros", 100, "--primes-max", 10**4,
              "--width", width], "json", width=width, nzeros=100, primes_max=10**4),
        _job("explicit-psi", "explicit-psi",
             ["explicit-formula", "--kind", "psi", "--x", x_psi, "--zeros", "{zeros}"],
             x=x_psi, nzeros=100),
        _job("comb", "comb", ["comb", "--prime", "all", "--mu", mu_comb, "--qmax", 5],
             mu=mu_comb, qmax=5.0),
        _job("padic-check", "padic-check", ["padic-check", "--seed", padic_seed],
             primes=(2, 3, 5, 7)),
        _job("wavelet-check", "wavelet-check", ["wavelet-check"], "json", prime=2, alpha=1.0),
        _job("betas-xi", "betas-xi", ["betas", "--model", "xi"], M=20),
        _job("betas-shifted", "betas-shifted", ["betas", "--model", "shifted", "--s0", s0],
             s0=s0, M=20),
        _job("beta-ren-shifted", "beta-ren-shifted",
             ["beta-ren", "--method", "shifted_contour", "--mu", mu_sc], s0=mu_sc, M=10),
    ]


def critical_line(rng: random.Random) -> list[Job]:
    """The zero and prime routes at the full bundled size."""
    width = _u(rng, 0.8, 1.5)
    x_j = rng.randrange(5, 100) + 0.5
    mu = _u(rng, 1.2, 2.5)
    return [
        _job("li-10000", "li",
             ["li", "--zeros", "{zeros}", "--nmax", 10, "--nzeros", 10000], nmax=10, nzeros=10000),
        _job("trace-check-5000", "trace-check",
             ["trace-check", "--zeros", "{zeros}", "--nzeros", 5000, "--primes-max", 10**6,
              "--width", width], width=width, nzeros=5000, primes_max=10**6),
        _job("explicit-J", "explicit-J",
             ["explicit-formula", "--kind", "J", "--x", x_j, "--zeros", "{zeros}",
              "--nzeros", 10000], x=x_j, nzeros=10000),
        _job("beta-ren-prime-1e7", "beta-ren-prime",
             ["beta-ren", "--method", "prime_sum", "--mu", mu, "--pmax", 10**7], mu=mu, M=10,
             pmax=10**7),
    ]


def ensemble(rng: random.Random) -> list[Job]:
    """CUE sampling and one-plaquette Metropolis, each kernel at two shapes."""
    seeds = [rng.randrange(10**6) for _ in range(4)]
    b32 = _u(rng, 0.1, 0.3)
    b48 = (_u(rng, 0.1, 0.25), _u(rng, 0.02, 0.08))
    return [
        _job("cue-40", "cue", ["cue-sample", "--n", 40, "--samples", 2000, "--seed", seeds[0]],
             N=40, samples=2000, bins=50, rmax=5.0),
        _job("cue-80", "cue", ["cue-sample", "--n", 80, "--samples", 300, "--seed", seeds[1]],
             N=80, samples=300, bins=50, rmax=5.0),
        _job("mc-32x4", "plaquette",
             ["plaquette-mc", "--n", 32, "--betas", b32, "--sweeps", 1000, "--burn-in", 250,
              "--chains", 4, "--seed", seeds[2]],
             N=32, betas=(b32,), sweeps=1000, burn_in=250, chains=4, bins=64),
        _job("mc-48x1", "plaquette",
             ["plaquette-mc", "--n", 48, "--betas", f"{b48[0]},{b48[1]}", "--sweeps", 1500,
              "--burn-in", 500, "--chains", 1, "--seed", seeds[3]],
             N=48, betas=b48, sweeps=1500, burn_in=500, chains=1, bins=64),
    ]


_BUILDERS = {"cli-light": cli_light, "critical-line": critical_line, "ensemble": ensemble}


def jobs(workload: str, seed: int) -> list[Job]:
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# The untimed warm-up process of the set-up phase: cheap, and it imports
# the whole package, so it compiles every module to bytecode.
WARMUP = _job("warmup", "comb", ["comb", "--prime", "all", "--mu", 0.5, "--qmax", 1],
              mu=0.5, qmax=1.0)
