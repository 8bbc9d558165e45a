#!/usr/bin/env python3
"""Print one digest line per `zetaumm ...` command in the README's code
blocks: the artifact's sha256, the exit code and the sha256 of stderr.

Each command runs in-process (`zetaumm.cli.main`) with this checkout's
`src/` first on the path, in a temporary directory that holds the
bundled zero table at `src/zetaumm/data/zeros10k.txt`, so the README's
relative paths resolve there and the artifact's metadata is the same
from any checkout.  Compare two checkouts with

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
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / TABLE).parent.mkdir(parents=True)
        shutil.copyfile(ROOT / TABLE, Path(tmp) / TABLE)
        os.chdir(tmp)
        try:
            for command in commands:
                _run(cli_main, command)
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
