"""The ``simrec`` command, also run as ``python -m simrec``.

BLAS runs at one thread unless the user set a thread count: the model's
matrices are small, so extra BLAS threads mostly spin. The thread count is
read when numpy is first imported, so this module imports nothing numeric
before ``main`` sets it. ``import simrec`` leaves the environment alone.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
