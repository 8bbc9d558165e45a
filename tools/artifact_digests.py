#!/usr/bin/env python3
"""Print one digest line per command: the artifact's sha256, the exit code
and the sha256 of stderr.  The commands are the `zetaumm ...` lines in the
README's code blocks, every job of `perfbench/workloads.py` at seeds 1
and 2 (that file is read, never written), and sixteen edge cases: more
ordinates asked of `li` than the table holds, a `betas --model xi`
radius where the logarithm winds, a `trace-check` on 20 zeros, and the
CLI routes that neither the README nor the jobs reach: `explicit-formula
--kind j_local`, `beta-ren --method xi_decomposition`, `comb` for one
prime, a JSON artifact (`comb --format json`), an `@FILE` options file
with a comment line, the gamma model's closed form (`betas --model
gamma`), the half weights of psi and of j_local at a prime-power jump
(x = 9), the shifted model below s0 = 1, where zeta's pole lies
inside the circle (`betas --s0 0.75`, `beta-ren --mu 0.6`), CUE
samples of an odd N, whose CMV factor L ends in a lone corner entry
(`cue-sample --n 5`), and two Metropolis runs: zero couplings
(`plaquette-mc --betas=`) and three couplings on three chains, which
two or more CPUs split unevenly.

Each command runs in-process (`zetaumm.cli.main`) with this checkout's
`src/` first on the path, in a temporary directory that holds the
bundled zero table at `src/zetaumm/data/zeros10k.txt` and the options
file `xi.cfg`.  The zero-table, options and artifact paths are relative
to that directory, so the artifact's metadata is the same from any
checkout.  Compare two checkouts with

    diff <(python3 tools/artifact_digests.py) \\
         <(python3 /path/to/other/tools/artifact_digests.py)

A command that writes no artifact prints `-` in place of its digest.
"""

import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path("src/zetaumm/data/zeros10k.txt")
EDGE_CASES = (
    f"zetaumm li --zeros {TABLE} --nmax 10 --nzeros 20000 --out li-20000.csv",
    "zetaumm betas --model xi --radius 0.99 --out betas-xi-r099.csv",
    f"zetaumm trace-check --zeros {TABLE} --nzeros 20 --out trace-20.csv",
    "zetaumm explicit-formula --kind j_local --prime 3 --x 10.5 --out jlocal-3.csv",
    "zetaumm beta-ren --method xi_decomposition --mu 0.5 --mmax 10 --out bren-xi.csv",
    "zetaumm comb --prime 2 --out comb-2.csv",
    "zetaumm comb --format json --out comb.json",
    "zetaumm betas --model xi @xi.cfg --out betas-xi-cfg.csv",
    "zetaumm betas --model gamma --out betas-gamma.csv",
    f"zetaumm explicit-formula --kind psi --zeros {TABLE} --x 9 --out psi-9.csv",
    "zetaumm explicit-formula --kind j_local --prime 3 --x 9 --out jlocal-3-9.csv",
    "zetaumm betas --model shifted --s0 0.75 --mmax 20 --out betas-shifted-075.csv",
    "zetaumm beta-ren --method shifted_contour --mu 0.6 --out bren-shifted-06.csv",
    "zetaumm cue-sample --n 5 --samples 401 --seed 3 --out cue-5.csv",
    "zetaumm plaquette-mc --n 6 --betas= --chains 2 --sweeps 40 --burn-in 25 --seed 3 --out mc-6.csv",
    "zetaumm plaquette-mc --n 9 --betas=0.15,-0.05,0.02 --chains 3 --sweeps 40 --burn-in 25 "
    "--seed 3 --out mc-9.csv",
)
# the file `@xi.cfg` reads
XI_CFG = "# the xi model's order\nmmax = 12\n"


def readme_commands(text: str) -> list[str]:
    """The `zetaumm ...` lines of the fenced code blocks, continuations joined."""
    commands, in_block, line = [], False, ""
    for raw in text.splitlines():
        if raw.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        line += raw.strip()
        if line.endswith("\\"):
            line = line[:-1].rstrip() + " "
            continue
        if line.startswith("zetaumm "):
            commands.append(line)
        line = ""
    return commands


def benchmark_commands() -> list[str]:
    """Every job of the benchmark's three workloads at seeds 1 and 2."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return ["zetaumm " + shlex.join(job.resolve(str(TABLE), f"{job.name}-{seed}.{job.ext}"))
            for workload in workloads.WORKLOADS for seed in (1, 2)
            for job in workloads.jobs(workload, seed)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(cli_main, command: str) -> None:
    """Run one command in the current directory and print its digest line."""
    argv = shlex.split(command)[1:]
    out = Path(argv[argv.index("--out") + 1])
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(argv)
    artifact = _sha256(out.read_bytes()) if out.exists() else "-"
    print(artifact, code, _sha256(err.getvalue().encode()), command, flush=True)


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from zetaumm._entry import one_blas_thread

    one_blas_thread()  # as the `zetaumm` script does, before numpy loads
    from zetaumm.cli import main as cli_main

    commands = readme_commands((ROOT / "README.md").read_text(encoding="utf-8"))
    commands += benchmark_commands() + list(EDGE_CASES)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / TABLE).parent.mkdir(parents=True)
        shutil.copyfile(ROOT / TABLE, Path(tmp) / TABLE)
        (Path(tmp) / "xi.cfg").write_text(XI_CFG, encoding="utf-8")
        os.chdir(tmp)
        try:
            for command in commands:
                _run(cli_main, command)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
