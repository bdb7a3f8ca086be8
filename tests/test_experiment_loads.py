"""No experiment reads or builds a cached trace file twice.

Every experiment runs at the tiny scale (full mode, on the fast core)
while ``Trace.load`` and ``TraceCache.put`` count their calls per cache
file.  A build stores its file and a later request would load it, so
on a cold cache as on a warm one each file may see one call in all.

The decoded-trace memo is process-wide, so each test starts with it
empty: an experiment's own requests are counted, not served by an
earlier test's loads.  Run-all in one process then reads every file at
most once in total.
"""

from collections import Counter

import pytest

from repro.experiments import experiment_ids, get_experiment
from repro.sim import use_core
from repro.trace.cache import TraceCache, clear_memo
from repro.trace.container import Trace

SUBSET = ["compress", "grep", "nbody"]


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_memo()
    yield
    clear_memo()


def _count_reads(monkeypatch):
    """Per-file ``Trace.load`` and ``TraceCache.put`` call counters."""
    loads = Counter()
    puts = Counter()
    load = Trace.load.__func__
    put = TraceCache.put

    def counting_load(cls, path):
        loads[str(path)] += 1
        return load(cls, path)

    def counting_put(self, key, trace):
        puts[str(self.key_path(key))] += 1
        return put(self, key, trace)

    monkeypatch.setattr(Trace, "load", classmethod(counting_load))
    monkeypatch.setattr(TraceCache, "put", counting_put)
    return loads, puts


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_each_trace_file_is_read_once(exp_id, monkeypatch):
    loads, puts = _count_reads(monkeypatch)
    with use_core("fast"):
        get_experiment(exp_id).run(scale="tiny", workloads=SUBSET)
    calls = loads + puts
    assert calls, f"{exp_id} read no trace"
    repeated = {path: n for path, n in calls.items() if n > 1}
    assert not repeated, f"{exp_id} re-reads {repeated}"


def test_run_all_reads_each_file_once(monkeypatch):
    loads, puts = _count_reads(monkeypatch)
    with use_core("fast"):
        for exp_id in experiment_ids():
            get_experiment(exp_id).run(scale="tiny")
    assert loads or puts, "run-all read no trace"
    reloaded = {path: n for path, n in loads.items() if n > 1}
    republished = {path: n for path, n in puts.items() if n > 1}
    assert not reloaded, f"run-all re-loads {reloaded}"
    assert not republished, f"run-all re-publishes {republished}"
