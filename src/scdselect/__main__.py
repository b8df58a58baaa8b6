"""The CLI entry: ``python -m scdselect`` and the ``scdselect`` console script.

Importing this module tells OpenBLAS to start with one thread, then loads
the CLI, and with it numpy. Every BLAS call the CLI makes runs pinned to one
thread (see :mod:`scdselect.discretizer`), so a larger pool would only start
idle threads, which spin at startup. The count is set, not defaulted: no
CLI path has work for a second BLAS thread. ``--threads`` and the label-file
loader are the CLI's only parallelism. A program that imports scdselect as a
library does not run this module and keeps its own BLAS setting.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main  # noqa: E402  numpy must load after the variable is set

if __name__ == "__main__":
    raise SystemExit(main())
