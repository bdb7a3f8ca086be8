"""Run-all gates: one trace load per file per process, and one history
stream computation per (trace, stream) while it stays in the memo.

Run with::

    pytest benchmarks/test_bench_runall.py --benchmark-only -s

All fifteen experiments run at the benchmark scale on ``--core fast``,
serially.  Each gate compares two kinds of pass; each round runs one
pass of each kind back to back, alternating which goes first, and the
speedup is the median over five rounds of the round's cleared/kept
time ratio, which a shared host's slow spells move less than a ratio
of two separately taken minimums.  Every pass starts with an empty
replay-plan cache and an empty history memo.

* ``bench_runall_memo_gate`` — the decoded-trace memo is emptied before
  every experiment (``cleared``: each experiment loads its own traces
  from disk, what run-all did before the memo) or once, before the
  first experiment (``kept``: every later request for a file is served
  from memory).  The two kinds' ``numeric_metrics()`` must be identical
  for every experiment, and the kept memo must make the pass at least
  1.1× faster.
* ``bench_runall_history_gate`` — on loaded traces, the history memo
  (:data:`~repro.sim.fastcore.decode.HISTORY_MEMO_BYTES`) is emptied
  before every plan decode (``cleared``: every decode computes its
  stream, as before the memo) or once per pass (``kept``).  The outputs
  must be identical, the cleared pass must compute one stream per
  decode, and the kept memo must make the pass at least 1.08× faster.

The speedups, each kind's fastest pass and its ``Trace.load``,
plan-decode and history-computation counts ride out through
:func:`emit_gate`; with ``REPRO_BENCH_JSON=BENCH_runall.json`` they
land in the committed ``BENCH_runall.json``.
"""

import inspect
import statistics
import time
from collections import Counter

from benchmarks.conftest import BENCH_SCALE, emit_gate, run_once
from repro.experiments import EXPERIMENTS
from repro.sim import fastcore, use_core
from repro.sim.fastcore import decode
from repro.trace.cache import clear_memo
from repro.trace.container import Trace

#: Minimum accepted speedup, kept memo vs memo emptied per experiment.
SPEEDUP_FLOOR = 1.1

#: Minimum accepted speedup, kept history memo vs memo emptied per
#: decode.
HISTORY_SPEEDUP_FLOOR = 1.08

#: Rounds of one pass per kind; the median round's ratio counts.
ROUNDS = 5


def _run_all(before_each=None):
    """Every experiment once, serially: its numeric metrics by id."""
    outputs = {}
    with use_core("fast"):
        for exp_id, module in EXPERIMENTS.items():
            if before_each is not None:
                before_each()
            kwargs = {"scale": BENCH_SCALE}
            if "workers" in inspect.signature(module.run).parameters:
                kwargs["workers"] = 1
            outputs[exp_id] = module.run(**kwargs).numeric_metrics()
    return outputs


def _pass(clear_each: bool):
    """One run-all pass: (seconds, per-experiment numeric metrics)."""
    clear_memo()
    fastcore._PLANS.clear()
    start = time.perf_counter()
    outputs = _run_all(clear_memo if clear_each else None)
    return time.perf_counter() - start, outputs


def bench_runall_memo_gate(benchmark, monkeypatch):
    """Kept memo >= 1.1x the per-experiment reload, identically."""
    #: kind -> its last pass's load and decode counts
    counts = {}
    current = Counter()
    load = Trace.load.__func__
    build_plan = fastcore.build_plan

    def counting_load(cls, path):
        current["loads"] += 1
        return load(cls, path)

    def counting_build(trace, options):
        current["decodes"] += 1
        return build_plan(trace, options)

    monkeypatch.setattr(Trace, "load", classmethod(counting_load))
    monkeypatch.setattr(fastcore, "build_plan", counting_build)
    seconds = {"cleared": [], "kept": []}
    outputs = {}

    def compare():
        for round_ in range(ROUNDS):
            kinds = ("cleared", "kept") if round_ % 2 == 0 else (
                "kept", "cleared"
            )
            for kind in kinds:
                current.clear()
                elapsed, result = _pass(kind == "cleared")
                counts[kind] = Counter(current)
                seconds[kind].append(elapsed)
                outputs.setdefault(kind, []).append(result)

    run_once(benchmark, compare)
    expected = outputs["cleared"][0]
    identical = all(
        result == expected
        for kind in ("cleared", "kept")
        for result in outputs[kind]
    )
    speedup = statistics.median(
        cleared / kept
        for cleared, kept in zip(seconds["cleared"], seconds["kept"])
    )
    best = {kind: min(times) for kind, times in seconds.items()}
    emit_gate(
        "runall_memo",
        experiments=len(EXPERIMENTS),
        cleared_seconds=best["cleared"],
        kept_seconds=best["kept"],
        cleared_loads=counts["cleared"]["loads"],
        kept_loads=counts["kept"]["loads"],
        cleared_decodes=counts["cleared"]["decodes"],
        kept_decodes=counts["kept"]["decodes"],
        speedup=speedup,
        identical=float(identical),
    )
    print(
        f"\nrun-all at {BENCH_SCALE}, fastest passes: memo emptied per "
        f"experiment {best['cleared']:.3f} s "
        f"({counts['cleared']['loads']} loads, "
        f"{counts['cleared']['decodes']} decodes), memo kept "
        f"{best['kept']:.3f} s ({counts['kept']['loads']} loads, "
        f"{counts['kept']['decodes']} decodes); median round speedup "
        f"{speedup:.2f}x"
    )
    assert identical, "run-all outputs depend on the trace memo"
    assert speedup >= SPEEDUP_FLOOR, (
        f"run-all memo speedup {speedup:.2f}x is below the "
        f"{SPEEDUP_FLOOR:.1f}x floor"
    )


def bench_runall_history_gate(benchmark, monkeypatch):
    """Kept history memo >= 1.08x a stream per decode, identically."""
    #: kind -> its last pass's decode and history-computation counts
    counts = {}
    current = Counter()
    clear_each = [False]
    build_plan = fastcore.build_plan
    compute = decode._history_values

    def clearing_build(trace, options):
        current["decodes"] += 1
        if clear_each[0]:
            decode._HISTORY.clear()
        return build_plan(trace, options)

    def counting_compute(trace, options, squash):
        current["histories"] += 1
        return compute(trace, options, squash)

    monkeypatch.setattr(fastcore, "build_plan", clearing_build)
    monkeypatch.setattr(decode, "_history_values", counting_compute)
    _run_all()  # load every trace into the trace memo
    seconds = {"cleared": [], "kept": []}
    outputs = {}

    def compare():
        for round_ in range(ROUNDS):
            kinds = ("cleared", "kept") if round_ % 2 == 0 else (
                "kept", "cleared"
            )
            for kind in kinds:
                current.clear()
                clear_each[0] = kind == "cleared"
                fastcore._PLANS.clear()
                decode._HISTORY.clear()
                start = time.perf_counter()
                result = _run_all()
                seconds[kind].append(time.perf_counter() - start)
                counts[kind] = Counter(current)
                outputs.setdefault(kind, []).append(result)

    run_once(benchmark, compare)
    expected = outputs["cleared"][0]
    identical = all(
        result == expected
        for kind in ("cleared", "kept")
        for result in outputs[kind]
    )
    speedup = statistics.median(
        cleared / kept
        for cleared, kept in zip(seconds["cleared"], seconds["kept"])
    )
    best = {kind: min(times) for kind, times in seconds.items()}
    emit_gate(
        "runall_history",
        experiments=len(EXPERIMENTS),
        memo_bytes=decode.HISTORY_MEMO_BYTES,
        cleared_seconds=best["cleared"],
        kept_seconds=best["kept"],
        cleared_decodes=counts["cleared"]["decodes"],
        kept_decodes=counts["kept"]["decodes"],
        cleared_histories=counts["cleared"]["histories"],
        kept_histories=counts["kept"]["histories"],
        speedup=speedup,
        identical=float(identical),
    )
    print(
        f"\nrun-all at {BENCH_SCALE}, fastest passes: history memo "
        f"emptied per decode {best['cleared']:.3f} s "
        f"({counts['cleared']['histories']} streams for "
        f"{counts['cleared']['decodes']} decodes), memo kept "
        f"{best['kept']:.3f} s ({counts['kept']['histories']} streams for "
        f"{counts['kept']['decodes']} decodes); median round speedup "
        f"{speedup:.2f}x"
    )
    assert identical, "run-all outputs depend on the history memo"
    assert counts["cleared"]["histories"] == counts["cleared"]["decodes"]
    assert counts["kept"]["decodes"] == counts["cleared"]["decodes"]
    assert counts["kept"]["histories"] < counts["cleared"]["histories"]
    assert speedup >= HISTORY_SPEEDUP_FLOOR, (
        f"run-all history memo speedup {speedup:.2f}x is below the "
        f"{HISTORY_SPEEDUP_FLOOR:.2f}x floor"
    )
