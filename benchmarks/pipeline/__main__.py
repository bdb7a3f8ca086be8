"""``python -m benchmarks.pipeline``: see :mod:`benchmarks.pipeline.cli`."""

import sys

from benchmarks.pipeline.cli import main

if __name__ == "__main__":
    sys.exit(main())
