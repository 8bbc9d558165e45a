"""Command-line surface: reproducible, file-based experiments over the
library modules.

Every run writes CSV or JSON with a metadata block echoing the complete
configuration (no timestamps), so outputs are reproducible bit-for-bit
from their own metadata.  Exit codes: 0 success, 1 validation error,
2 numeric-consistency failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Optional

import numpy as np

from . import __version__
from . import ensemble, output, resolvent, traceform
from . import zeta as zt
from .padics import additive_character, haar_integrate_norm_power, padic_norm, require_prime
from .wavelets import WaveletIndex, gram_matrix, vladimirov_apply
from .zeta import NumericConsistencyError


def _parse_config_file(path: str) -> dict[str, str]:
    """Plain key=value defaults; '#' comments; flags override."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _prime(text: str) -> int:
    """argparse type of --prime."""
    try:
        require_prime(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime") from None
    return int(text)


def _prime_list(text: str) -> str:
    """padic-check's --primes, kept as text: comma-separated primes."""
    for entry in text.split(","):
        _prime(entry)
    return text


def _prime_or_all(text: str) -> str:
    """comb's --prime, kept as text: 'all' or a prime."""
    if text != "all":
        _prime(text)
    return text


def _finite(text: str) -> float:
    """argparse type of every float option: nan and +-inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _finite_list(text: str) -> str:
    """plaquette-mc's --betas, kept as text: '' or comma-separated finite
    floats, so an empty entry cannot shift the orders that follow it."""
    if text:
        for entry in text.split(","):
            _finite(entry)
    return text


# the options every command ends with
_COMMON = (
    ("--out", dict(required=True, help="output file path")),
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--config", dict(default=None, help="key=value defaults file")),
)

# command name -> (help, options, handler); an option is (flag, add_argument keywords)
COMMANDS: dict = {}


def _command(name: str, help: str, *options):
    """Declare the decorated handler as `zetaumm name` with its options."""
    def register(handler):
        COMMANDS[name] = (help, options + _COMMON, handler)
        return handler
    return register


def _emit(args, columns, payload, extra: Optional[dict] = None) -> None:
    """Write the artifact.  Its metadata echoes every option that is set,
    then the version, then the handler's `extra` entries."""
    echo = {k.replace("_", "-"): v for k, v in vars(args).items()}
    metadata = {k: v for k, v in {**echo, "version": __version__, **(extra or {})}.items()
                if v is not None}
    if args.format == "csv":
        output.write_csv(args.out, columns, metadata)
    else:
        output.write_json(args.out, payload, metadata)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


@_command("padic-check", "norm/character/Haar verification report",
          ("--primes", dict(type=_prime_list, default="2,3,5,7")),
          ("--samples", dict(type=int, default=200)),
          ("--seed", dict(type=int, default=0)))
def _cmd_padic_check(args) -> None:
    import random

    if args.samples < 1:
        raise ValueError("padic-check needs --samples >= 1")
    primes = [int(p) for p in args.primes.split(",")]
    rng = random.Random(args.seed)
    names, values, bounds = [], [], []
    for p in primes:
        worst_ultra = 0.0
        for _ in range(args.samples):
            a = Fraction(rng.randrange(-(10**6), 10**6) or 1, rng.randrange(1, 10**6))
            b = Fraction(rng.randrange(-(10**6), 10**6) or 1, rng.randrange(1, 10**6))
            ns, na, nb = padic_norm(a + b, p), padic_norm(a, p), padic_norm(b, p)
            if ns > max(na, nb):
                worst_ultra = max(worst_ultra, float(ns / max(na, nb)) - 1.0)
        worst_char = 0.0
        for _ in range(args.samples):
            x = Fraction(rng.randrange(-(10**4), 10**4), p ** rng.randrange(0, 9))
            y = Fraction(rng.randrange(-(10**4), 10**4), p ** rng.randrange(0, 9))
            dev = abs(additive_character(p, x + y) - additive_character(p, x) * additive_character(p, y))
            worst_char = max(worst_char, dev)
        shell = haar_integrate_norm_power(p, 2, 40)
        shell_dev = abs(complex(shell.value) - complex(shell.closed_form))
        names += [f"ultrametric(p={p})", f"character(p={p})", f"haar_shell(p={p})"]
        values += [worst_ultra, worst_char, shell_dev]
        bounds += [0.0, 1e-14, float(shell.tail_bound)]
    failed = [(n, v, b) for n, v, b in zip(names, values, bounds) if not v <= b + 1e-30]
    cols = {"check": names, "deviation": values, "bound": bounds}
    _emit(args, cols, {"checks": cols, "pass": not failed})
    if failed:
        raise NumericConsistencyError("{}: deviation {:.3g} exceeds bound {:.3g}".format(*failed[0]))


@_command("wavelet-check", "Gram matrix and Vladimirov residuals",
          ("--prime", dict(type=_prime, default=2)),
          ("--nmax", dict(type=int, default=12)),
          ("--alpha", dict(type=_finite, default=1.0)),
          ("--kernel-b", dict(type=int, default=12)))
def _cmd_wavelet_check(args) -> None:
    G = gram_matrix(args.prime, args.nmax)
    gram_dev = float(np.abs(G - np.eye(args.nmax)).max())
    rows = []
    for scale in (0, 1):
        res = vladimirov_apply(WaveletIndex(args.prime, scale), args.alpha, args.kernel_b)
        rows.append((scale, res.eigenvalue, res.residual / abs(res.eigenvalue)))
    cols = {
        "check": [f"gram(nmax={args.nmax})"] + [f"kernel(scale={s})" for s, _, _ in rows],
        "value": [gram_dev] + [abs(e) for _, e, _ in rows],
        "residual": [gram_dev] + [r for _, _, r in rows],
    }
    checks = zip(cols["check"], cols["residual"], [1e-12] + [1e-6] * len(rows))
    failed = [(n, r, limit) for n, r, limit in checks if not r < limit]
    _emit(args, cols, {"gram_deviation": gram_dev, "kernel": cols, "pass": not failed})
    if failed:
        raise NumericConsistencyError("{}: residual {:.3g} is not below {:g}".format(*failed[0]))


@_command("betas", "contour-extracted model coefficients",
          ("--model", dict(choices=("local", "gamma", "shifted", "xi"), required=True)),
          ("--prime", dict(type=_prime, default=None)),
          ("--s0", dict(type=_finite, default=None)),
          ("--mmax", dict(type=int, default=20)),
          ("--radius", dict(type=_finite, default=0.5)),
          ("--nodes", dict(type=int, default=512)))
def _cmd_betas(args) -> None:
    model = resolvent.ResolventModel(args.model, p=args.prime, s0=args.s0)
    series = resolvent.beta_contour(model, args.mmax, args.radius, args.nodes)
    cols = {
        "index": np.arange(1, len(series) + 1),
        "value": series.coefficients.real,
        "imag": series.coefficients.imag,
        "radius_consistency": series.radius_deltas,
    }
    _emit(args, cols, {"series": cols}, {"model": series.model, "radius_error": series.radius_error,
                                         "doubling_error": series.doubling_error})


@_command("density", "local-model spike/potential profile",
          ("--prime", dict(type=_prime, required=True)),
          ("--spikes", dict(type=int, default=5)),
          ("--grid-start", dict(type=_finite, default=0.5)),
          ("--grid-stop", dict(type=_finite, default=5.78)),
          ("--grid-points", dict(type=int, default=64)))
def _cmd_density(args) -> None:
    grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
    prof = resolvent.density_profile(args.prime, grid, args.spikes)
    kind = ["spike"] * prof.spike_angles.size + ["vprime"] * grid.size
    location = np.concatenate([prof.spike_angles, grid])
    value = np.concatenate([np.full(prof.spike_angles.size, prof.spike_weight), prof.vprime])
    cols = {"kind": kind, "location": location, "value": value}
    _emit(args, cols, {
        "spike_angles": prof.spike_angles,
        "spike_indices": prof.spike_indices,
        "spike_weight": prof.spike_weight,
        "theta": grid,
        "vprime": prof.vprime,
    }, {"spike-weight": prof.spike_weight})


def _ingest(path: str, max_zeros: int) -> zt.ZeroTable:
    """The validated zero table.  Excluded ordinates are reported in one
    stderr line, never in the artifact; a table with none left is refused."""
    table = zt.ingest_zeros(path, max_zeros=max_zeros)
    if table.excluded:
        print(f"zetaumm: {len(table.excluded)} of {len(table) + len(table.excluded)} ordinates "
              f"of {path} failed validation (first t = {table.excluded[0][0]!r})", file=sys.stderr)
    if not len(table):
        raise ValueError(f"no ordinate of {path} passed validation")
    return table


@_command("li", "Li coefficients, both routes cross-checked",
          ("--nmax", dict(type=int, default=10)),
          ("--zeros", dict(required=True)),
          ("--nzeros", dict(type=int, default=2000)),
          ("--radius", dict(type=_finite, default=0.45)),
          ("--nodes", dict(type=int, default=512)),
          ("--tolerance", dict(type=_finite, default=1e-3)))
def _cmd_li(args) -> None:
    if args.tolerance < 0.0:
        raise ValueError(f"li needs --tolerance >= 0, got {args.tolerance!r}")
    table = _ingest(args.zeros, args.nzeros)
    a = zt.li_coefficients_cauchy(args.nmax, args.radius, args.nodes)
    b = zt.li_coefficients_zero_sum(args.nmax, table.ts, args.nzeros)
    combined = a.error_estimate + b.error_estimate + args.tolerance
    cols = {
        "index": np.arange(1, args.nmax + 1),
        "cauchy": a.values,
        "zero_sum": b.values,
        "difference": np.abs(a.values - b.values),
        "combined_tolerance": combined,
    }
    _emit(args, cols, {"series": cols})
    zt.check_agreement("lambda_{n}", a.values, b.values, combined, ("cauchy", "zero_sum"))


@_command("beta-ren", "renormalized coefficients",
          ("--method", dict(choices=("prime_sum", "shifted_contour", "xi_decomposition"),
                            required=True)),
          ("--mu", dict(type=_finite, required=True)),
          ("--mmax", dict(type=int, default=10)),
          ("--pmax", dict(type=int, default=10**6)),
          ("--powers", dict(type=int, default=60)),
          ("--radius", dict(type=_finite, default=0.5)),
          ("--nodes", dict(type=int, default=1024)))
def _cmd_beta_ren(args) -> None:
    if args.method == "prime_sum":
        series = resolvent.beta_renormalized_prime_sum(args.mmax, args.mu, args.pmax, args.powers)
    elif args.method == "shifted_contour":
        model = resolvent.ResolventModel("shifted", s0=args.mu)
        series = resolvent.beta_contour(model, args.mmax, args.radius, args.nodes)
    elif abs(args.mu - 0.5) > 1e-12:
        raise ValueError("xi_decomposition is the mu = 1/2 route")
    else:
        series = resolvent.beta_renormalized_xi_decomposition(args.mmax, args.radius, args.nodes)
    err = series.error_estimates
    if err is None:
        err = np.full(len(series), series.radius_error)
    cols = {
        "index": np.arange(1, len(series) + 1),
        "value": series.coefficients.real,
        "error": err,
    }
    _emit(args, cols, {"series": cols}, {"model": series.model})


@_command("trace-check", "trace-formula residual report",
          ("--zeros", dict(required=True)),
          ("--nzeros", dict(type=int, default=100)),
          ("--primes-max", dict(type=int, default=10**4)),
          ("--width", dict(type=_finite, default=1.0)))
def _cmd_trace_check(args) -> None:
    table = _ingest(args.zeros, max(args.nzeros, 50))
    primes = zt.PrimeTable.build(args.primes_max)
    rep = traceform.trace_formula_check(args.width, table, args.nzeros, primes)
    payload = {
        "lhs": {"pole": rep.lhs_pole, "zero_sum": rep.lhs_zero_sum, "digamma": rep.lhs_digamma},
        "rhs": {"log_pi": rep.rhs_log_pi, "prime_sum": rep.rhs_prime_sum},
        "residual": rep.residual,
        "bounds": {
            "zero_tail": rep.zero_tail_bound,
            "prime_tail": rep.prime_tail_bound,
            "digamma_tail": rep.digamma_tail_bound,
            "quadrature": rep.quadrature_error,
            "total": rep.total_bound,
        },
    }
    cols = {
        "term": ["pole", "zero_sum", "digamma", "log_pi", "prime_sum", "residual", "bound"],
        "value": [rep.lhs_pole, rep.lhs_zero_sum, rep.lhs_digamma, rep.rhs_log_pi,
                  rep.rhs_prime_sum, rep.residual, rep.total_bound],
    }
    _emit(args, cols, payload)
    bounds = payload["bounds"]
    big = max(("zero_tail", "prime_tail", "digamma_tail", "quadrature"), key=bounds.get)
    zt.check_agreement(f"trace formula residual vs total_bound (largest term {big} {bounds[big]:.3g})",
                       rep.lhs, rep.rhs, rep.total_bound, ("lhs", "rhs"))


@_command("explicit-formula", "counting functions, direct vs zero expansion",
          ("--kind", dict(choices=("psi", "J", "j_local"), default="psi")),
          ("--x", dict(type=_finite, required=True)),
          ("--zeros", dict(default=None)),
          ("--nzeros", dict(type=int, default=100)),
          ("--prime", dict(type=_prime, default=2)),
          ("--terms", dict(type=int, default=1000)))
def _cmd_explicit_formula(args) -> None:
    if args.x <= 1.0:
        raise ValueError("counting functions are evaluated for x > 1")
    if args.kind == "j_local":
        direct = zt.local_count_direct(args.prime, args.x)
        explicit = zt.local_count_explicit(args.prime, args.x, args.terms)
        tail = 1.0 / (math.pi * args.terms)
    else:
        if args.zeros is None:
            raise ValueError("explicit mode needs --zeros")
        table = _ingest(args.zeros, args.nzeros)
        if args.kind == "psi":
            direct = zt.chebyshev_psi_direct(args.x)
            explicit = zt.chebyshev_psi_explicit(args.x, table.ts, args.nzeros)
        else:
            direct = zt.prime_count_j_direct(args.x)
            explicit = zt.prime_count_j_explicit(args.x, table.ts, args.nzeros)
        tail = zt.explicit_tail_estimate(args.x, float(table.ts[min(args.nzeros, len(table)) - 1]))
    cols = {
        "x": [args.x],
        "direct": [direct],
        "explicit": [explicit],
        "difference": [abs(direct - explicit)],
        "tail_estimate": [tail],
    }
    _emit(args, cols, {"result": cols})


@_command("cue-sample", "CUE pair-correlation report",
          ("--n", dict(type=int, default=40)),
          ("--samples", dict(type=int, default=4000)),
          ("--seed", dict(type=int, default=0)),
          ("--bins", dict(type=int, default=50)),
          ("--rmax", dict(type=_finite, default=5.0)))
def _cmd_cue_sample(args) -> None:
    sample = ensemble.sample_cue(args.n, args.samples, args.seed)
    rep = ensemble.pair_correlation(sample, args.bins, args.rmax)
    cols = {
        "r": rep.bin_centers,
        "r2": rep.r2,
        "sine_kernel": rep.reference,
    }
    _emit(args, cols, {"report": cols, "l2_distance": rep.l2_distance},
          {"l2-distance": rep.l2_distance})


@_command("plaquette-mc", "one-plaquette Metropolis run",
          ("--n", dict(type=int, default=32)),
          ("--betas", dict(type=_finite_list, default="0.25",
                           help="comma-separated beta_1,beta_2,...")),
          ("--sweeps", dict(type=int, default=2000)),
          ("--burn-in", dict(type=int, default=500)),
          ("--seed", dict(type=int, default=0)),
          ("--chains", dict(type=int, default=4)),
          ("--bins", dict(type=int, default=64)))
def _cmd_plaquette_mc(args) -> None:
    betas = [float(b) for b in args.betas.split(",")] if args.betas else []
    run = ensemble.plaquette_mc(args.n, betas, args.sweeps, args.burn_in,
                                args.seed, args.chains, args.bins)
    centers = 0.5 * (run.bin_edges[1:] + run.bin_edges[:-1])
    model = ensemble.plaquette_model_density(centers, betas)
    cols = {
        "theta": centers,
        "density": run.density,
        "model_density": model,
        "bin_error": run.density_error(),
    }
    _emit(args, cols, {"histogram": cols, "acceptance_rate": run.acceptance_rate,
                       "gap_diagnostic": run.gap_diagnostic},
          {"acceptance-rate": run.acceptance_rate, "gap-diagnostic": run.gap_diagnostic,
           "acceptance-in-band": ensemble.acceptance_in_band(run)})


@_command("comb", "prime-power comb of the Wigner marginals",
          ("--prime", dict(type=_prime_or_all, default="all", help="a prime or 'all'")),
          ("--mu", dict(type=_finite, default=0.5)),
          ("--qmax", dict(type=_finite, default=5.0)))
def _cmd_comb(args) -> None:
    comb = traceform.wigner_marginal_comb(args.prime, args.mu, args.qmax)
    cols = {"location": comb.locations, "weight": comb.weights}
    _emit(args, cols, {
        "locations": comb.locations,
        "weights": comb.weights,
        "position_period": comb.position_period,
    }, {"position-period": comb.position_period})


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zetaumm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return ap


def _with_config(argv: list[str]) -> tuple[list[str], set[str]]:
    """argv with the `--config` file's pairs inserted as flags right after
    the command, and the options that only the file sets.  The file is read
    before the full parse, so it can supply required options; explicit
    flags come later in argv and win."""
    if not argv or argv[0] not in COMMANDS:
        return argv, set()
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv, set()
    options = COMMANDS[argv[0]][1]
    flags = {flag[2:].replace("-", "_"): flag for flag, _ in options if flag != "--config"}
    pairs = _parse_config_file(path)
    extra = []
    for key, val in pairs.items():
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a known option")
        extra.append(f"{flags[key]}={val}")
    # argparse takes any unambiguous prefix of a long option
    given = {token.partition("=")[0] for token in argv[1:] if token.startswith("--") and token != "--"}
    explicit = {key for key in pairs if any(flags[key].startswith(t) for t in given)}
    return argv[:1] + extra + argv[1:], set(pairs) - explicit


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv, from_config = _with_config(argv)
        args = ap.parse_args(argv)
        if args.command == "betas":
            # a config file's prime and s0 are defaults for the models that
            # read them; given as flags to any other model they exit 1
            for dest, kind in (("prime", "local"), ("s0", "shifted")):
                if dest in from_config and args.model != kind:
                    setattr(args, dest, None)
        COMMANDS[args.command][2](args)
        return 0
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"zetaumm: {exc}", file=sys.stderr)
        return 1
    except NumericConsistencyError as exc:
        print(f"zetaumm: numeric consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
