"""The one process entry: the `zetaumm` script and `python -m zetaumm.cli`
both run `run`.

A process gets one BLAS thread unless its environment names another
count: the ensemble forks one worker per CPU, and a BLAS pool of one
thread per CPU in every worker oversubscribes the machine.  The defaults
must be set before numpy loads.  In-process callers of `cli.main` keep
their environment and an unfrozen heap."""

import gc
import os
import sys


def one_blas_thread() -> None:
    """Set OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
    where the environment leaves them unset."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")


def run() -> None:
    """one_blas_thread(), then `cli.main()` as the process's exit status.
    The heap is frozen before the command runs and again after it, once
    the command's own imports (numpy for all but padic-check and
    wavelet-check) are in: the exit skips its cyclic-GC sweep over them."""
    one_blas_thread()
    from . import cli

    gc.freeze()
    status = cli.main()
    gc.freeze()
    sys.exit(status)
