"""Benchmark entry point named by BENCHMARK.json.

``python3 benchmarks/pipeline/run.py --workload W --seed N --seconds S
--trace 0|1 [--core C]`` measures one workload from the root of a
checkout and prints its result as the last stdout line; see
:mod:`benchmarks.pipeline.cli` for the other subcommands.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parents[2]
    sys.path[:1] = [str(root), str(root / "src")]
    from benchmarks.pipeline.cli import main

    sys.exit(main(["measure", *sys.argv[1:]]))
