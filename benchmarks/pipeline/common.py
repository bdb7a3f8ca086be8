"""Paths, the metric declarations and small statistics helpers.

Importing this module imports nothing from ``repro``, so the entry
points can check that the program is present before touching it.
"""

import json
import os
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Dict, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"
#: Everything a run writes: warm trace cache, cold caches, serve stores.
WORK = ROOT / ".bench_build" / "pipeline"

#: One input scale for every workload.  Tiny keeps each workload's full
#: program, experiment and grid set while a round stays a few seconds,
#: so one run repeats its round several times.
SCALE = "tiny"

WORKLOADS = ("cold-trace", "runall-warm", "kernel-sweep", "serve-mixed")

#: The program's simulation cores (``repro.sim.CORES``).
CORES = ("object", "fast", "numpy")

#: Set-up samples per run; ``setup_s`` is their median.
SETUPS = 5


class BenchError(RuntimeError):
    """The harness could not measure (a precondition of the run broke)."""


def environment() -> Dict[str, str]:
    """Point the program's caches and temp files into :data:`WORK` and
    make ``src`` importable.

    Applied to this process (so children inherit it) and returned for
    ``subprocess`` calls.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    paths = [str(ROOT), str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ.update({
        "PYTHONPATH": os.pathsep.join(paths),
        "REPRO_TRACE_CACHE": str(WORK / "traces"),
        "TMPDIR": str(tmp),
    })
    tempfile.tempdir = str(tmp)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return dict(os.environ)


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU, so
    that a :class:`~benchmarks.pipeline.clock.SpeedClock` probes the
    CPU the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def load_benchmark() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def declared(traced: bool) -> Dict[str, dict]:
    """The metrics a run emits: name -> its BENCHMARK.json entry."""
    spec = load_benchmark()
    return {
        entry["name"]: entry
        for entry in spec["per_layer" if traced else "end_to_end"]
    }


def percentile(values: Sequence[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (1..99) of ``values``."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
