"""The command's entry point: unset BLAS thread counts become 1 before numpy loads."""

import os
import sys


def main() -> int:
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main  # the process's first import of numpy

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
