import pytest


@pytest.fixture(scope="session", autouse=True)
def warm_traces():
    """The pipeline benchmark keeps its own trace caches under
    ``.bench_build``; skip the gate suite's session-wide warm-up."""
    yield
