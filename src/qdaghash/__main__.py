"""Entry point of `python -m qdaghash` and of the `qdaghash` console script."""

import gc
import os
import sys


def main() -> int:
    # numpy starts an OpenBLAS thread pool when it loads, and qdaghash calls
    # no BLAS routine; a value the user set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    # The import-time objects live until exit. Frozen, they are skipped by
    # every later collection, the one at exit included, so no collection in
    # a forked worker writes to (and so copies) their pages.
    gc.freeze()
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
