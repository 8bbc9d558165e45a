"""Process entry of the `zetaumm` script and of `python -m zetaumm.cli`.

A process gets one BLAS thread unless its environment names another
count: the ensemble forks one worker per CPU, and a BLAS pool of one
thread per CPU in every worker oversubscribes the machine.  The defaults
must be set before numpy loads.  In-process callers of `cli.main` keep
their environment."""

import os


def one_blas_thread() -> None:
    """Set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
    where the environment leaves them unset."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def run() -> None:
    """The `zetaumm` script: `cli.run` after one_blas_thread()."""
    one_blas_thread()
    from . import cli

    cli.run()
