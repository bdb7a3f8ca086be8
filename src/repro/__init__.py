"""Reproduction of *Incorporating Predicate Information into Branch
Predictors* (B. Simon, B. Calder, J. Ferrante — HPCA-9, 2003).

The package provides, bottom-up:

* :mod:`repro.isa` — an EPIC-style predicated instruction set.
* :mod:`repro.lang` / :mod:`repro.compiler` — the ``minic`` language and
  an if-converting (hyperblock-forming) compiler targeting the ISA.
* :mod:`repro.engine` — an interpreter producing dynamic traces.
* :mod:`repro.trace` — packed trace containers with a disk cache.
* :mod:`repro.predictors` — bimodal/gshare/gselect/local/tournament
  predictors plus the paper's squash false-path filter and predicate
  global-update mechanisms.
* :mod:`repro.pipeline` — the front-end availability and cycle models.
* :mod:`repro.sim` — the trace-driven simulation driver and statistics.
* :mod:`repro.telemetry` — metrics, span tracing and sinks (see
  ``docs/observability.md``).
* :mod:`repro.workloads` — the deterministic benchmark suite.
* :mod:`repro.experiments` — one module per reproduced table/figure.

Quickstart::

    from repro.workloads import get_workload
    from repro.sim import SimOptions, simulate
    from repro.predictors import PGUConfig, SFPConfig, make_predictor

    trace = get_workload("qsort").trace(scale="small", hyperblocks=True)
    result = simulate(
        trace,
        make_predictor("gshare", entries=4096),
        SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    )
    print(result.misprediction_rate)
"""

from functools import lru_cache

__version__ = "1.0.0"


@lru_cache(maxsize=None)
def repro_version() -> str:
    """The installed package version, falling back to ``__version__``.

    ``PYTHONPATH=src`` runs (CI, dev checkouts) have no installed
    distribution metadata; the module constant keeps RunRecords and
    JSONL headers stamped either way.  Looked up once per process: the
    metadata search scans every distribution on ``sys.path``, and the
    daemon stamps a record on every miss.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version
        return version("repro")
    except (ImportError, PackageNotFoundError):
        return __version__


__all__ = ["__version__", "repro_version"]
