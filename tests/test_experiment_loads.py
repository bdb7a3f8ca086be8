"""No experiment reads or builds a cached trace file twice.

Every experiment runs at the tiny scale (full mode, on the fast core)
while ``Trace.load`` and ``TraceCache.put`` count their calls per cache
file.  A build stores its file and a later request would load it, so
on a cold cache as on a warm one each file may see one call in all.
"""

from collections import Counter

import pytest

from repro.experiments import experiment_ids, get_experiment
from repro.sim import use_core
from repro.trace.cache import TraceCache
from repro.trace.container import Trace

SUBSET = ["compress", "grep", "nbody"]


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_each_trace_file_is_read_once(exp_id, monkeypatch):
    calls = Counter()
    load = Trace.load.__func__
    put = TraceCache.put

    def counting_load(cls, path):
        calls[str(path)] += 1
        return load(cls, path)

    def counting_put(self, key, trace):
        calls[str(self.key_path(key))] += 1
        return put(self, key, trace)

    monkeypatch.setattr(Trace, "load", classmethod(counting_load))
    monkeypatch.setattr(TraceCache, "put", counting_put)
    with use_core("fast"):
        get_experiment(exp_id).run(scale="tiny", workloads=SUBSET)
    assert calls, f"{exp_id} read no trace"
    repeated = {path: n for path, n in calls.items() if n > 1}
    assert not repeated, f"{exp_id} re-reads {repeated}"
