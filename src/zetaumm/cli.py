"""Command-line surface: reproducible, file-based experiments over the
library modules.

Every run writes CSV or JSON with a metadata block echoing the complete
configuration (no timestamps), so outputs are reproducible bit-for-bit
from their own metadata.  `@FILE` reads options from FILE, one
`key = value` a line; flags on the command line win.  Exit codes:
0 success, 1 validation error, 2 numeric-consistency failure.  A process
enters through `_entry.run` (the `zetaumm` script, and `python -m
zetaumm.cli` below); in-process callers use main().
"""

from __future__ import annotations

if __name__ == "__main__":  # pragma: no cover
    from ._entry import run

    run()  # the command runs in the imported zetaumm.cli; this copy stops here

import argparse
import math
import sys
from typing import Optional

# `output` loads for every command and needs no numpy; each handler imports
# numpy and the other modules it calls, so padic-check and wavelet-check run
# without numpy, and only those two load `padics` and `fractions`
from . import NumericConsistencyError, __version__, output, require_prime


def _prime(text: str) -> int:
    """argparse type of --prime."""
    try:
        require_prime(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a prime") from None
    return int(text)


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
)

# command name -> (help, options, handler); an option is (flag, add_argument keywords)
COMMANDS: dict = {}


def _command(name: str, help: str, *options):
    """Declare the decorated handler as `zetaumm name` with its options."""
    def register(handler):
        COMMANDS[name] = (help, options + _COMMON, handler)
        return handler
    return register


def _non_finite(columns, metadata) -> list[str]:
    """A message for each column, naming its first row (from 1), and each
    metadata value that holds a NaN or an infinity."""
    out = []
    for name, column in columns.items():
        values = column.tolist() if hasattr(column, "tolist") else column
        out += [f"column {name!r} holds {v} at row {i + 1}" for i, v in enumerate(values)
                if isinstance(v, float) and not math.isfinite(v)][:1]
    return out + [f"metadata {key!r} holds {v}" for key, v in sorted(metadata.items())
                  if isinstance(v, float) and not math.isfinite(v)]


def _emit(args, columns, payload, extra: Optional[dict] = None, failed=()) -> None:
    """Write the artifact (its metadata: each set option, the version, `extra`),
    then raise on the first `failed` message, or else on the first NaN or
    infinity of a column or a metadata value: a command's checks exit 2 here."""
    echo = {k.replace("_", "-"): v for k, v in vars(args).items()}
    metadata = {k: v for k, v in {**echo, "version": __version__, **(extra or {})}.items()
                if v is not None}
    if args.format == "csv":
        output.write_csv(args.out, columns, metadata)
    else:
        output.write_json(args.out, payload, metadata)
    failed = [*failed, *_non_finite(columns, metadata)]
    if failed:
        raise NumericConsistencyError(failed[0])


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


@_command("padic-check", "norm/character/Haar verification report at p = 2, 3, 5, 7",
          ("--samples", dict(type=int, default=200)),
          ("--seed", dict(type=int, default=0)))
def _cmd_padic_check(args) -> None:
    import random
    from fractions import Fraction

    from .padics import additive_character, haar_integrate_norm_power, padic_norm
    if args.samples < 1:
        raise ValueError("padic-check needs --samples >= 1")
    rng = random.Random(args.seed)
    names, values, bounds = [], [], []
    for p in (2, 3, 5, 7):
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
    failed = [f"{n}: deviation {v:.3g} exceeds bound {b:.3g}"
              for n, v, b in zip(names, values, bounds) if not v <= b + 1e-30]
    cols = {"check": names, "deviation": values, "bound": bounds}
    _emit(args, cols, {"checks": cols, "pass": not failed}, failed=failed)


@_command("wavelet-check", "Gram matrix (p = 2, labels 1..12) and D^1 residuals")
def _cmd_wavelet_check(args) -> None:
    from .wavelets import WaveletIndex, gram_matrix, vladimirov_apply
    gram_dev = max(abs(g - float(i == k)) for i, row in enumerate(gram_matrix(2, 12))
                   for k, g in enumerate(row))
    rows = []
    for scale in (0, 1):
        res = vladimirov_apply(WaveletIndex(2, scale), 1.0)
        rows.append((scale, res.eigenvalue, res.residual / abs(res.eigenvalue)))
    cols = {
        "check": ["gram(nmax=12)"] + [f"kernel(scale={s})" for s, _, _ in rows],
        "value": [gram_dev] + [abs(e) for _, e, _ in rows],
        "residual": [gram_dev] + [r for _, _, r in rows],
    }
    failed = [f"{n}: residual {r:.3g} is not below {limit:g}" for n, r, limit
              in zip(cols["check"], cols["residual"], [1e-12] + [1e-6] * len(rows)) if not r < limit]
    _emit(args, cols, {"gram_deviation": gram_dev, "kernel": cols, "pass": not failed}, failed=failed)


@_command("betas", "contour-extracted model coefficients",
          ("--model", dict(choices=("local", "gamma", "shifted", "xi"), required=True)),
          ("--prime", dict(type=_prime, default=None)),
          ("--s0", dict(type=_finite, default=None)),
          ("--mmax", dict(type=int, default=20)),
          ("--radius", dict(type=_finite, default=0.5)),
          ("--nodes", dict(type=int, default=512)))
def _cmd_betas(args) -> None:
    import numpy as np

    from . import resolvent
    model = resolvent.ResolventModel(args.model, p=args.prime, s0=args.s0)
    series = resolvent.beta_contour(model, args.mmax, args.radius, args.nodes)
    cols = {
        "index": np.arange(1, len(series) + 1),
        "value": series.coefficients.real,
        "imag": series.coefficients.imag,
        "radius_consistency": series.radius_deltas,
    }
    _emit(args, cols, {"series": cols}, {"radius_error": series.radius_error,
                                         "doubling_error": series.doubling_error})


@_command("density", "local-model spike/potential profile",
          ("--prime", dict(type=_prime, required=True)),
          ("--spikes", dict(type=int, default=5)))
def _cmd_density(args) -> None:
    import numpy as np

    from . import resolvent
    prof = resolvent.density_profile(args.prime, args.spikes)
    kind = ["spike"] * prof.spike_angles.size + ["vprime"] * prof.theta.size
    location = np.concatenate([prof.spike_angles, prof.theta])
    value = np.concatenate([np.full(prof.spike_angles.size, prof.spike_weight), prof.vprime])
    cols = {"kind": kind, "location": location, "value": value}
    _emit(args, cols, {
        "spike_angles": prof.spike_angles,
        "spike_indices": prof.spike_indices,
        "spike_weight": prof.spike_weight,
        "theta": prof.theta,
        "vprime": prof.vprime,
    }, {"spike-weight": prof.spike_weight})


def _ingest(path: str, max_zeros: int):
    """The validated zero table.  Excluded ordinates are reported in one
    stderr line, never in the artifact; a table with none left is refused."""
    from . import zeta as zt
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
          ("--nzeros", dict(type=int, default=2000)))
def _cmd_li(args) -> None:
    import numpy as np

    from . import zeta as zt
    table = _ingest(args.zeros, args.nzeros)
    a = zt.li_coefficients_cauchy(args.nmax)
    b = zt.li_coefficients_zero_sum(args.nmax, table.ts, args.nzeros)
    combined = a.error_estimate + b.error_estimate
    cols = {
        "index": np.arange(1, args.nmax + 1),
        "cauchy": a.values,
        "zero_sum": b.values,
        "difference": np.abs(a.values - b.values),
        "combined_tolerance": combined,
    }
    _emit(args, cols, {"series": cols},
          failed=zt.check_agreement("lambda_{n}", a.values, b.values, combined, ("cauchy", "zero_sum")))


@_command("beta-ren", "renormalized coefficients",
          ("--method", dict(choices=("prime_sum", "shifted_contour", "xi_decomposition"),
                            required=True)),
          ("--mu", dict(type=_finite, required=True)),
          ("--mmax", dict(type=int, default=10)),
          ("--pmax", dict(type=int, default=10**6)))
def _cmd_beta_ren(args) -> None:
    import numpy as np

    from . import resolvent
    if args.method == "prime_sum":
        series = resolvent.beta_renormalized_prime_sum(args.mmax, args.mu, args.pmax)
    elif args.method == "shifted_contour":
        model = resolvent.ResolventModel("shifted", s0=args.mu)
        series = resolvent.beta_contour(model, args.mmax, 0.5, 1024)
    elif abs(args.mu - 0.5) > 1e-12:
        raise ValueError("xi_decomposition is the mu = 1/2 route")
    else:  # the shifted route's mu = 1/2 end: G_m = beta°_m / m
        c, m = resolvent.beta_pole_free(0.5, args.mmax, 0.5, 1024), np.arange(1, args.mmax + 1)
        rd = c.radius_deltas / m  # each row's error is the largest
        series = resolvent.BetaSeries(c.coefficients / m, c.doubling_deltas / m, rd, np.full(m.size, rd.max()))
    cols = {
        "index": np.arange(1, len(series) + 1),
        "value": series.coefficients.real,
        "error": series.error_estimates,
    }
    _emit(args, cols, {"series": cols})


@_command("trace-check", "trace-formula residual report",
          ("--zeros", dict(required=True)),
          ("--nzeros", dict(type=int, default=100)),
          ("--primes-max", dict(type=int, default=10**4)),
          ("--width", dict(type=_finite, default=1.0)))
def _cmd_trace_check(args) -> None:
    from . import traceform
    from . import zeta as zt
    table = _ingest(args.zeros, args.nzeros)
    primes = zt.PrimeTable.build(args.primes_max)
    rep = traceform.trace_formula_check(args.width, table, args.nzeros, primes)
    terms = {**rep.lhs_terms, **rep.rhs_terms, "residual": rep.residual, "bound": rep.total_bound}
    cols = {"term": list(terms), "value": list(terms.values())}
    big = max(rep.bounds, key=rep.bounds.get)
    failed = zt.check_agreement(f"trace formula residual vs total_bound (largest term {big} "
                                f"{rep.bounds[big]:.3g})", rep.lhs, rep.rhs, rep.total_bound, ("lhs", "rhs"))
    _emit(args, cols, {"lhs": rep.lhs_terms, "rhs": rep.rhs_terms, "residual": rep.residual,
                       "bounds": {**rep.bounds, "total": rep.total_bound}}, failed=failed)


@_command("explicit-formula", "counting functions, direct vs zero expansion",
          ("--kind", dict(choices=("psi", "J", "j_local"), default="psi")),
          ("--x", dict(type=_finite, required=True)),
          ("--zeros", dict(default=None)),
          ("--nzeros", dict(type=int, default=100)),
          ("--prime", dict(type=_prime, default=2)))
def _cmd_explicit_formula(args) -> None:
    from . import zeta as zt
    if args.x <= 1.0:
        raise ValueError("counting functions are evaluated for x > 1")
    if args.kind == "j_local":
        args.zeros = args.nzeros = None  # not echoed: j_local reads no zeros
        direct = zt.local_count_direct(args.prime, args.x)
        explicit = zt.local_count_explicit(args.prime, args.x)
        tail = 1.0 / (math.pi * zt.LOCAL_COUNT_TERMS)
    else:
        args.prime = None  # not echoed: psi and J read no prime
        if args.zeros is None:
            raise ValueError("explicit mode needs --zeros")
        table = _ingest(args.zeros, args.nzeros)
        if args.kind == "psi":
            direct = zt.chebyshev_psi_direct(args.x)
            explicit = zt.chebyshev_psi_explicit(args.x, table.ts)
        else:
            direct = zt.prime_count_j_direct(args.x)
            explicit = zt.prime_count_j_explicit(args.x, table.ts)
        tail = zt.explicit_tail_estimate(args.x, float(table.ts[-1]))
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
          ("--seed", dict(type=int, default=0)))
def _cmd_cue_sample(args) -> None:
    from . import ensemble
    sample = ensemble.sample_cue(args.n, args.samples, args.seed)
    rep = ensemble.pair_correlation(sample)
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
                           help="comma-separated beta_1,beta_2,...; a leading negative "
                                "one needs the = form, --betas=-0.25,0.1")),
          ("--sweeps", dict(type=int, default=2000)),
          ("--burn-in", dict(type=int, default=500)),
          ("--seed", dict(type=int, default=0)),
          ("--chains", dict(type=int, default=4)))
def _cmd_plaquette_mc(args) -> None:
    from . import ensemble
    betas = [float(b) for b in args.betas.split(",")] if args.betas else []
    run = ensemble.plaquette_mc(args.n, betas, args.sweeps, args.burn_in,
                                args.seed, args.chains)
    centers = 0.5 * (run.bin_edges[1:] + run.bin_edges[:-1])
    model = ensemble.plaquette_model_density(centers, betas)
    gap = float(run.density.min())  # a bin collapsing toward 0 signals a gapped phase
    cols = {
        "theta": centers,
        "density": run.density,
        "model_density": model,
        "bin_error": run.density_error(),
    }
    _emit(args, cols, {"histogram": cols, "acceptance_rate": run.acceptance_rate,
                       "gap_diagnostic": gap},
          {"acceptance-rate": run.acceptance_rate, "gap-diagnostic": gap,
           "acceptance-in-band": ensemble.acceptance_in_band(run)})


@_command("comb", "prime-power comb of the Wigner marginals",
          ("--prime", dict(type=_prime_or_all, default="all", help="a prime or 'all'")),
          ("--mu", dict(type=_finite, default=0.5)),
          ("--qmax", dict(type=_finite, default=5.0)))
def _cmd_comb(args) -> None:
    from . import traceform
    comb = traceform.wigner_marginal_comb(args.prime, args.mu, args.qmax)
    cols = {"location": comb.locations, "weight": comb.weights}
    _emit(args, cols, vars(comb), {"position-period": comb.position_period})


def _options_line(line: str) -> list[str]:
    """An @FILE line `key = value` as the flag --key=value; '#' and blank lines give none."""
    line = line.strip()
    if not line or line.startswith("#"):
        return []
    key, eq, value = line.partition("=")
    if not eq:
        raise ValueError(f"options file line {line!r}: expected key = value")
    return [f"--{key.strip().replace('_', '-')}={value.strip()}"]


def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: `--primes` must not run as `--primes-max`
    ap = argparse.ArgumentParser(prog="zetaumm", description=__doc__, fromfile_prefix_chars="@",
                                 allow_abbrev=False)
    ap.convert_arg_line_to_args = _options_line
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag, keywords in options:
            sp.add_argument(flag, **keywords)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # options files go right after the command, so the flags that follow win
    argv = argv[:1] + sorted(argv[1:], key=lambda arg: not arg.startswith("@"))
    try:
        args = ap.parse_args(argv)
        COMMANDS[args.command][2](args)
        return 0
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    # overflow: an input beyond binary64; memory: an allocation beyond the machine
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"zetaumm: {exc}", file=sys.stderr)
        return 1
    except NumericConsistencyError as exc:
        print(f"zetaumm: numeric consistency failure: {exc}", file=sys.stderr)
        return 2
