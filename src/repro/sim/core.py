"""Simulation-core selection: ``object`` vs ``fast``/``numpy``.

Every core replays the same pre-decoded replay plan
(:mod:`repro.sim.fastcore`): ``object`` drives the object predictor
event by event — the readable path, and the only one for predictors
without a kernel — while ``fast`` and ``numpy`` replay flat,
allocation-free kernels.  All of them must stay bit-identical to the
branch-by-branch oracle ``tests/driver_oracle.py`` (the differential
suites enforce this).  Because metrics are identical,
the core choice is *not* part of a run's identity: it lives in the
RunRecord envelope, never the payload, and the same config produces the
same ``run_id`` on every core.

Resolution order (mirrors ``REPRO_SWEEP_WORKERS``):

1. an explicit ``core=`` argument,
2. the active :func:`use_core` context (how the CLI threads ``--core``
   through experiment modules without touching their signatures),
3. the ``REPRO_SIM_CORE`` environment variable,
4. ``"object"``.
"""

import os
from contextlib import contextmanager

#: Valid values for the ``core`` knob.
CORES = ("object", "fast", "numpy")

#: Environment variable overriding the default core.
CORE_ENV = "REPRO_SIM_CORE"

_ACTIVE: list = []


def _validate(core: str, source: str) -> str:
    if core not in CORES:
        raise ValueError(
            f"unknown simulation core {core!r} (from {source}); "
            f"choose from {CORES}"
        )
    return core


def resolve_core(core=None) -> str:
    """Resolve the core knob: argument > context > env > ``object``."""
    if core is not None:
        return _validate(core, "argument")
    if _ACTIVE:
        return _ACTIVE[-1]
    env = os.environ.get(CORE_ENV, "").strip().lower()
    if env:
        return _validate(env, CORE_ENV)
    return "object"


@contextmanager
def use_core(core):
    """Install ``core`` as the default for the dynamic extent.

    ``None`` is a no-op (so callers can pass an optional knob through
    unconditionally).  The context is resolved in the *calling*
    process: parallel sweeps capture the resolved core in the parent
    and ship it to workers, so ``use_core`` composes with
    ``workers > 1``.
    """
    if core is None:
        yield
        return
    _ACTIVE.append(_validate(core, "use_core"))
    try:
        yield
    finally:
        _ACTIVE.pop()
