#!/usr/bin/env python3
"""Apply each listed one-line mutant to a copy of this checkout, run the
Tier-1 suite there, and print whether the suite kills it.

A mutant is a (file, exact old line, new line) triple; the tool stops if
the old line does not occur exactly once in its file.  Each run works in
its own temporary copy of the checkout without `.git` (`BENCHMARK.json`
comes along: perfbench's self-test reads it).  One unmutated run comes
first, and its failures are subtracted from every mutant's, so a test
that fails on this machine anyway kills nothing.

Per mutant it prints: killed or survived, the number of failing tests,
how many of them are not sha256-digest tests (a test whose body calls
`sha256`), and the first such test.  A mutant that only digests kill is
caught by bits, not by a bar.  Run with

    python3 tools/mutants.py

It runs the suite once per mutant plus once, one run at a time.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "--continue-on-collection-errors"]

MUTANTS = [
    ("explicit_tail_estimate x 10", "src/zetaumm/zeta.py",
     "    return 2.0 * math.sqrt(x) / abs(0.5 + 1j * last_t)",
     "    return 10 * 2.0 * math.sqrt(x) / abs(0.5 + 1j * last_t)"),
    ("prime-sum bar 0.02 -> 0.2", "src/zetaumm/resolvent.py",
     "    err = np.abs(tails) * 0.02 + 1e-12",
     "    err = np.abs(tails) * 0.2 + 1e-12"),
    ("prime_tail margin 6 -> 600", "src/zetaumm/traceform.py",
     "        6.0",
     "        600.0"),
    ("Haar shell tail x 100", "src/zetaumm/padics.py",
     "    tail = w * qa ** (K + 1) / (1 - qa)",
     "    tail = 100 * w * qa ** (K + 1) / (1 - qa)"),
    ("acceptance_in_band [0.1, 0.9] -> [0, 1]", "src/zetaumm/ensemble.py",
     "    return 0.1 <= run.acceptance_rate <= 0.9",
     "    return 0 <= run.acceptance_rate <= 1"),
    ("plaquette_model_density out -= -> out +=", "src/zetaumm/ensemble.py",
     "        out -= 2.0 * float(b) * np.cos(n * th)",
     "        out += 2.0 * float(b) * np.cos(n * th)"),
    ("local_potential_derivative sign flip", "src/zetaumm/resolvent.py",
     "    return 1.0 / (4.0 * np.sin(0.5 * th) ** 2 * np.tan(0.5 * math.log(p) * x))",
     "    return -1.0 / (4.0 * np.sin(0.5 * th) ** 2 * np.tan(0.5 * math.log(p) * x))"),
    ("padic-check worst_ultra update -> pass", "src/zetaumm/cli.py",
     "                worst_ultra = max(worst_ultra, float(ns / max(na, nb)) - 1.0)",
     "                pass"),
    ("options file keys keep their _", "src/zetaumm/cli.py",
     "    return [f\"--{key.strip().replace('_', '-')}={value.strip()}\"]",
     "    return [f\"--{key.strip()}={value.strip()}\"]"),
    ("options files stay where they stand", "src/zetaumm/cli.py",
     "    argv = argv[:1] + sorted(argv[1:], key=lambda arg: not arg.startswith(\"@\"))",
     "    pass"),
    ("padic_norm exponent sign flip", "src/zetaumm/padics.py",
     "    return Fraction(p) ** -valuation(x, p)",
     "    return Fraction(p) ** valuation(x, p)"),
    ("xi model scale 2 ln 2 -> ln 2", "src/zetaumm/resolvent.py",
     "        c, scale = xi_log_series(M, r, Q), 2.0 * math.log(2.0)",
     "        c, scale = xi_log_series(M, r, Q), math.log(2.0)"),
    ("beta-ren shifted radius 0.5 -> 0.45", "src/zetaumm/cli.py",
     "        series = resolvent.beta_contour(model, args.mmax, 0.5, 1024)",
     "        series = resolvent.beta_contour(model, args.mmax, 0.45, 1024)"),
    ("shifted pole part (3 - 2 mu) -> (3 + 2 mu)", "src/zetaumm/resolvent.py",
     "        q = (3.0 - 2.0 * model.s0) / (2.0 * model.s0 - 1.0)",
     "        q = (3.0 + 2.0 * model.s0) / (2.0 * model.s0 - 1.0)"),
    ("shifted bar without the pole part's rounding", "src/zetaumm/resolvent.py",
     "        bar = c.radius_error + c.doubling_error + (np.arange(1, M + 1) + 2) * zt.EPS * np.abs(pole)",
     "        bar = c.radius_error + c.doubling_error + 0.0 * np.abs(pole)"),
    ("1 - p^a as plain exp(z) - 1", "src/zetaumm/wavelets.py",
     "    return -complex(math.expm1(x) * math.cos(y) - 2 * h * h, math.exp(x) * math.sin(y))",
     "    return -complex(math.exp(x) * math.cos(y) - 1, math.exp(x) * math.sin(y))"),
    ("CUE Verblunsky moduli Beta(1, N - 1 - k) -> Beta(1, N - k)", "src/zetaumm/ensemble.py",
     "    x = np.log1p(-u[:, : N - 1]) / np.arange(N - 1, 0, -1)  # log(1 - |alpha_k|^2)",
     "    x = np.log1p(-u[:, : N - 1]) / np.arange(N, 1, -1)  # log(1 - |alpha_k|^2)"),
    ("CUE Cayley guard |x| <= 4N dropped", "src/zetaumm/ensemble.py",
     "    ok &= np.maximum(-x[:, 0], x[:, -1]) <= 4 * N",
     "    pass"),
    ("Metropolis carried table: accepted rows and columns swapped", "src/zetaumm/ensemble.py",
     "    np.copyto(B, A, where=accept[:, :, None])",
     "    np.copyto(B, A, where=accept[:, None, :])"),
    ("forked ensemble parts all start on the first CPU", "src/zetaumm/ensemble.py",
     "                        _start_on(cpus[k], cpus)",
     "                        _start_on(cpus[0], cpus)"),
    ("j_local terms 1000 -> 500", "src/zetaumm/zeta.py",
     "LOCAL_COUNT_TERMS = 1000  # Fourier terms of local_count_explicit; tail estimate 1/(pi terms)",
     "LOCAL_COUNT_TERMS = 500  # Fourier terms of local_count_explicit; tail estimate 1/(pi terms)"),
    ("zero-table byte read: last digit's exponent off by one", "src/zetaumm/zeta.py",
     "    exponents = np.where(dot < mantissa_end, dot + 1 - mantissa_end, 0)",
     "    exponents = np.where(dot < mantissa_end, dot - mantissa_end, 0)"),
]


def digest_tests(root: Path) -> set[str]:
    """Node ids, without parameters, of the tests whose body calls sha256."""
    out = set()
    for path in sorted(root.glob("tests/test_*.py")) + sorted(root.glob("perfbench/test_*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(rel, tree.body)] + [(f"{rel}::{c.name}", c.body) for c in tree.body
                                       if isinstance(c, ast.ClassDef)]
        for prefix, body in scopes:
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and "sha256" in ast.unparse(fn):
                    out.add(f"{prefix}::{fn.name}")
    return out


def mutated(root: Path, path: str, old: str, new: str) -> str:
    """The text of `path` with its one line `old` replaced by `new`."""
    lines = (root / path).read_text(encoding="utf-8").split("\n")
    hits = [i for i, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        raise SystemExit(f"{path}: the old line occurs {len(hits)} times, not once: {old!r}")
    lines[hits[0]] = new
    return "\n".join(lines)


def failing(root: Path) -> set[str]:
    """Node ids of the tests (or collection errors) Tier-1 reports failing."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])))
    run = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE))


def run_in_copy(mutant=None) -> set[str]:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        if mutant:
            (copy / mutant[0]).write_text(mutated(copy, *mutant), encoding="utf-8")
        return failing(copy)


def main() -> None:
    for _, *mutant in MUTANTS:  # every old line must match before the first run
        mutated(ROOT, *mutant)
    digests = digest_tests(ROOT)
    baseline = run_in_copy()
    print(f"unmutated: {len(baseline)} failing", *sorted(baseline), flush=True)
    for name, *mutant in MUTANTS:
        fails = run_in_copy(mutant) - baseline
        plain = sorted(f for f in fails if f.partition("[")[0] not in digests)
        verdict = "killed" if fails else "survived"
        print(f"{verdict:8} {len(fails):3} failing, {len(plain):3} not digests  {name}"
              + (f"  (first: {plain[0]})" if plain else ""), flush=True)


if __name__ == "__main__":
    main()
