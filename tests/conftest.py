"""Suite-wide test configuration.

The test suite's expectations are written against the *default* core
resolution (``simulate`` runs the object reference loop unless a test
opts in).  An ambient ``REPRO_SIM_CORE`` would silently reroute every
simulation through the fast cores — results are bit-identical by
contract, but telemetry snapshots grow ``sim.core.*``/``fastcore.*``
entries and the suite would no longer exercise the reference path it
documents.  Pin the knob for the whole session; tests that want a
specific core pass ``core=`` or use :func:`repro.sim.use_core`.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _pin_default_sim_core():
    saved = os.environ.pop("REPRO_SIM_CORE", None)
    yield
    if saved is not None:
        os.environ["REPRO_SIM_CORE"] = saved


def pytest_collection_modifyitems(config, items):
    """Skip ``engine_small`` tests (minutes of reference-loop runs)
    unless the ``-m`` expression names the marker."""
    if "engine_small" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="select with -m engine_small")
    for item in items:
        if "engine_small" in item.keywords:
            item.add_marker(skip)
