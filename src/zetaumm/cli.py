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


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", required=True, help="output file path")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--config", default=None, help="key=value defaults file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="zetaumm", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap._command_parsers = sub.choices  # config-file keys are checked against the command's options

    sp = sub.add_parser("padic-check", help="norm/character/Haar verification report")
    sp.add_argument("--primes", type=_prime_list, default="2,3,5,7")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)

    sp = sub.add_parser("wavelet-check", help="Gram matrix and Vladimirov residuals")
    sp.add_argument("--prime", type=_prime, default=2)
    sp.add_argument("--nmax", type=int, default=12)
    sp.add_argument("--alpha", type=_finite, default=1.0)
    sp.add_argument("--kernel-b", type=int, default=12)
    _add_common(sp)

    sp = sub.add_parser("betas", help="contour-extracted model coefficients")
    sp.add_argument("--model", choices=("local", "gamma", "shifted", "xi"), required=True)
    sp.add_argument("--prime", type=_prime, default=None)
    sp.add_argument("--s0", type=_finite, default=None)
    sp.add_argument("--mmax", type=int, default=20)
    sp.add_argument("--radius", type=_finite, default=0.5)
    sp.add_argument("--nodes", type=int, default=512)
    _add_common(sp)

    sp = sub.add_parser("density", help="local-model spike/potential profile")
    sp.add_argument("--prime", type=_prime, required=True)
    sp.add_argument("--spikes", type=int, default=5)
    sp.add_argument("--grid-start", type=_finite, default=0.5)
    sp.add_argument("--grid-stop", type=_finite, default=5.78)
    sp.add_argument("--grid-points", type=int, default=64)
    _add_common(sp)

    sp = sub.add_parser("li", help="Li coefficients, both routes cross-checked")
    sp.add_argument("--nmax", type=int, default=10)
    sp.add_argument("--zeros", required=True)
    sp.add_argument("--nzeros", type=int, default=2000)
    sp.add_argument("--radius", type=_finite, default=0.45)
    sp.add_argument("--nodes", type=int, default=512)
    sp.add_argument("--tolerance", type=_finite, default=1e-3)
    _add_common(sp)

    sp = sub.add_parser("beta-ren", help="renormalized coefficients")
    sp.add_argument("--method", choices=("prime_sum", "shifted_contour", "xi_decomposition"),
                    required=True)
    sp.add_argument("--mu", type=_finite, required=True)
    sp.add_argument("--mmax", type=int, default=10)
    sp.add_argument("--pmax", type=int, default=10**6)
    sp.add_argument("--powers", type=int, default=60)
    sp.add_argument("--radius", type=_finite, default=0.5)
    sp.add_argument("--nodes", type=int, default=1024)
    _add_common(sp)

    sp = sub.add_parser("trace-check", help="trace-formula residual report")
    sp.add_argument("--zeros", required=True)
    sp.add_argument("--nzeros", type=int, default=100)
    sp.add_argument("--primes-max", type=int, default=10**4)
    sp.add_argument("--width", type=_finite, default=1.0)
    _add_common(sp)

    sp = sub.add_parser("explicit-formula", help="counting functions, direct vs zero expansion")
    sp.add_argument("--kind", choices=("psi", "J", "j_local"), default="psi")
    sp.add_argument("--x", type=_finite, required=True)
    sp.add_argument("--zeros", default=None)
    sp.add_argument("--nzeros", type=int, default=100)
    sp.add_argument("--prime", type=_prime, default=2)
    sp.add_argument("--terms", type=int, default=1000)
    _add_common(sp)

    sp = sub.add_parser("cue-sample", help="CUE pair-correlation report")
    sp.add_argument("--n", type=int, default=40)
    sp.add_argument("--samples", type=int, default=4000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bins", type=int, default=50)
    sp.add_argument("--rmax", type=_finite, default=5.0)
    _add_common(sp)

    sp = sub.add_parser("plaquette-mc", help="one-plaquette Metropolis run")
    sp.add_argument("--n", type=int, default=32)
    sp.add_argument("--betas", type=_finite_list, default="0.25",
                    help="comma-separated beta_1,beta_2,...")
    sp.add_argument("--sweeps", type=int, default=2000)
    sp.add_argument("--burn-in", type=int, default=500)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--chains", type=int, default=4)
    sp.add_argument("--bins", type=int, default=64)
    _add_common(sp)

    sp = sub.add_parser("comb", help="prime-power comb of the Wigner marginals")
    sp.add_argument("--prime", type=_prime_or_all, default="all", help="a prime or 'all'")
    sp.add_argument("--mu", type=_finite, default=0.5)
    sp.add_argument("--qmax", type=_finite, default=5.0)
    _add_common(sp)

    return ap


def _metadata(args: argparse.Namespace) -> dict:
    md = {k.replace("_", "-"): v for k, v in vars(args).items() if v is not None}
    md["version"] = __version__
    return md


def _emit(args, columns, payload, metadata):
    if args.format == "csv":
        output.write_csv(args.out, columns, metadata)
    else:
        output.write_json(args.out, payload, metadata)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_padic_check(args) -> int:
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
    ok = all(v <= b + 1e-30 for v, b in zip(values, bounds))
    cols = {"check": names, "deviation": values, "bound": bounds}
    _emit(args, cols, {"checks": cols, "pass": ok}, _metadata(args))
    return 0 if ok else 2


def _cmd_wavelet_check(args) -> int:
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
    ok = gram_dev < 1e-12 and all(r < 1e-6 for _, _, r in rows)
    _emit(args, cols, {"gram_deviation": gram_dev, "kernel": cols, "pass": ok}, _metadata(args))
    return 0 if ok else 2


def _cmd_betas(args) -> int:
    model = resolvent.ResolventModel(args.model, p=args.prime, s0=args.s0)
    series = resolvent.beta_contour(model, args.mmax, args.radius, args.nodes)
    cols = {
        "index": np.arange(1, len(series) + 1),
        "value": series.coefficients.real,
        "imag": series.coefficients.imag,
        "radius_consistency": series.radius_deltas,
    }
    md = _metadata(args)
    md.update(model=series.model, radius_error=series.radius_error,
              doubling_error=series.doubling_error)
    _emit(args, cols, {"series": cols}, md)
    return 0


def _cmd_density(args) -> int:
    grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
    prof = resolvent.density_profile(args.prime, grid, args.spikes)
    kind = ["spike"] * prof.spike_angles.size + ["vprime"] * grid.size
    location = np.concatenate([prof.spike_angles, grid])
    value = np.concatenate([np.full(prof.spike_angles.size, prof.spike_weight), prof.vprime])
    cols = {"kind": kind, "location": location, "value": value}
    md = _metadata(args)
    md["spike-weight"] = prof.spike_weight
    _emit(args, cols, {
        "spike_angles": prof.spike_angles,
        "spike_indices": prof.spike_indices,
        "spike_weight": prof.spike_weight,
        "theta": grid,
        "vprime": prof.vprime,
    }, md)
    return 0


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


def _cmd_li(args) -> int:
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
    _emit(args, cols, {"series": cols}, _metadata(args))
    zt.check_agreement("lambda_{n}", a.values, b.values, combined, ("cauchy", "zero_sum"))
    return 0


def _cmd_beta_ren(args) -> int:
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
    md = _metadata(args)
    md["model"] = series.model
    _emit(args, cols, {"series": cols}, md)
    return 0


def _cmd_trace_check(args) -> int:
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
    _emit(args, cols, payload, _metadata(args))
    bounds = payload["bounds"]
    big = max(("zero_tail", "prime_tail", "digamma_tail", "quadrature"), key=bounds.get)
    zt.check_agreement(f"trace formula residual vs total_bound (largest term {big} {bounds[big]:.3g})",
                       rep.lhs, rep.rhs, rep.total_bound, ("lhs", "rhs"))
    return 0


def _cmd_explicit_formula(args) -> int:
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
    _emit(args, cols, {"result": cols}, _metadata(args))
    return 0


def _cmd_cue_sample(args) -> int:
    sample = ensemble.sample_cue(args.n, args.samples, args.seed)
    rep = ensemble.pair_correlation(sample, args.bins, args.rmax)
    cols = {
        "r": rep.bin_centers,
        "r2": rep.r2,
        "sine_kernel": rep.reference,
    }
    md = _metadata(args)
    md["l2-distance"] = rep.l2_distance
    _emit(args, cols, {"report": cols, "l2_distance": rep.l2_distance}, md)
    return 0


def _cmd_plaquette_mc(args) -> int:
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
    md = _metadata(args)
    md["acceptance-rate"] = run.acceptance_rate
    md["acceptance-in-band"] = ensemble.acceptance_in_band(run)
    md["gap-diagnostic"] = run.gap_diagnostic
    _emit(args, cols, {"histogram": cols, "acceptance_rate": run.acceptance_rate,
                       "gap_diagnostic": run.gap_diagnostic}, md)
    return 0


def _cmd_comb(args) -> int:
    comb = traceform.wigner_marginal_comb(args.prime, args.mu, args.qmax)
    cols = {"location": comb.locations, "weight": comb.weights}
    md = _metadata(args)
    if comb.position_period is not None:
        md["position-period"] = comb.position_period
    _emit(args, cols, {
        "locations": comb.locations,
        "weights": comb.weights,
        "position_period": comb.position_period,
    }, md)
    return 0


_HANDLERS = {
    "padic-check": _cmd_padic_check,
    "wavelet-check": _cmd_wavelet_check,
    "betas": _cmd_betas,
    "density": _cmd_density,
    "li": _cmd_li,
    "beta-ren": _cmd_beta_ren,
    "trace-check": _cmd_trace_check,
    "explicit-formula": _cmd_explicit_formula,
    "cue-sample": _cmd_cue_sample,
    "plaquette-mc": _cmd_plaquette_mc,
    "comb": _cmd_comb,
}


def _with_config(ap: argparse.ArgumentParser, argv: list[str]) -> tuple[list[str], set[str]]:
    """argv with the `--config` file's pairs inserted as flags right after
    the command, and the options that only the file sets.  The file is read
    before the full parse, so it can supply required options; explicit
    flags come later in argv and win."""
    command_parser = ap._command_parsers.get(argv[0]) if argv else None
    if command_parser is None:
        return argv, set()
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv, set()
    flags = {a.dest: a.option_strings for a in command_parser._actions
             if a.option_strings and a.dest not in ("help", "config")}
    pairs = _parse_config_file(path)
    extra = []
    for key, val in pairs.items():
        if key not in flags:
            raise ValueError(f"config key {key!r} is not a known option")
        extra.append(f"{flags[key][-1]}={val}")
    # argparse takes any unambiguous prefix of a long option
    given = {token.partition("=")[0] for token in argv[1:] if token.startswith("--") and token != "--"}
    explicit = {key for key in pairs if any(flag.startswith(t) for flag in flags[key] for t in given)}
    return argv[:1] + extra + argv[1:], set(pairs) - explicit


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        argv, from_config = _with_config(ap, argv)
        args = ap.parse_args(argv)
        if args.command == "betas":
            # a config file's prime and s0 are defaults for the models that
            # read them; given as flags to any other model they exit 1
            for dest, kind in (("prime", "local"), ("s0", "shifted")):
                if dest in from_config and args.model != kind:
                    setattr(args, dest, None)
        return _HANDLERS[args.command](args)
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
