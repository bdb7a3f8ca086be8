"""Engine gate: a cold trace build, translated engine against the
reference loop.

Run with::

    pytest benchmarks/test_bench_engine.py --benchmark-only -s

For every workload of the BENCH subset the gate compiles the profiling,
baseline and hyperblock executables once, then runs the cold build's
interpreter passes — the profiling run (with a fresh profile collector,
as :func:`repro.compiler.pipeline.collect_profile` does) and the two
traced runs — on both engines: the one-instruction-at-a-time loop kept in
``tests/engine_oracle.py`` and the translated engine
(:mod:`repro.engine`).  The translated engine's time includes
translating and compiling each executable, which it does on every run.

* ``bench_engine_speedup_gate`` — the outputs (every trace array and
  dtype, every ``ExecResult``, the profiles) must be bit-identical, and
  the translated engine must reach at least 1.5x the reference's
  instructions per second.  It also times the traced set's trace files:
  the previous format (``numpy.savez_compressed``, deflate level 6),
  :meth:`~repro.trace.container.Trace.save` (level 1) and an
  uncompressed ``numpy.savez``, with their sizes and load times.

The numbers ride out through :func:`emit_gate`; with
``REPRO_BENCH_JSON=BENCH_engine.json`` they land in the committed
``BENCH_engine.json``.
"""

import time

import numpy as np

from benchmarks.conftest import BENCH_SCALE, BENCH_SUBSET, emit_gate, run_once
from repro.compiler import compile_source
from repro.compiler import config as config_mod
from repro.compiler.profile import ProfileCollector
from repro.engine import Interpreter
from repro.trace import Trace, TraceRecorder
from repro.workloads import get_workload
from tests.engine_oracle import ReferenceInterpreter

#: Minimum accepted instructions-per-second ratio, translated vs
#: reference.  Measured about 3x at tiny scale, translation included.
SPEEDUP_FLOOR = 1.5

#: Passes per engine; each engine's fastest pass counts.
ROUNDS = 3

TRACE_FIELDS = (
    "b_pc", "b_idx", "b_taken", "b_guard", "b_guard_def", "b_kind",
    "b_region", "b_target", "d_pc", "d_idx", "d_value", "d_pred",
)


def _executables():
    """(workload, config) -> executable, for the cold build's runs."""
    out = {}
    for name in BENCH_SUBSET:
        workload = get_workload(name)
        out[(name, "profiling")] = compile_source(
            workload.source(BENCH_SCALE), config_mod.PROFILING
        ).executable
        for config in (config_mod.BASELINE, config_mod.HYPERBLOCK):
            key = (name, "hyperblock" if config.hyperblocks else "baseline")
            out[key] = workload.compile(BENCH_SCALE, config).executable
    return out


def _engine_pass(engine, executables):
    """One cold build's interpreter runs: (seconds, instructions,
    outputs)."""
    seconds = 0.0
    instructions = 0
    outputs = {}
    for key, executable in executables.items():
        profiling = key[1] == "profiling"
        profile = ProfileCollector() if profiling else None
        recorder = None if profiling else TraceRecorder()
        start = time.perf_counter()
        result = engine(executable, recorder=recorder, profile=profile).run()
        seconds += time.perf_counter() - start
        instructions += result.instructions
        trace = recorder.finish() if recorder is not None else None
        outputs[key] = (result, profile.as_dict() if profiling else None,
                        trace)
    return seconds, instructions, outputs


def _assert_identical(expected, actual):
    assert expected.keys() == actual.keys()
    for key, (result, profile, trace) in expected.items():
        other_result, other_profile, other_trace = actual[key]
        assert result == other_result, key
        assert profile == other_profile, key
        if trace is None:
            continue
        for name in TRACE_FIELDS:
            a, b = getattr(trace, name), getattr(other_trace, name)
            assert a.dtype == b.dtype, (key, name)
            assert np.array_equal(a, b), (key, name)


def _savez(compressed):
    writer = np.savez_compressed if compressed else np.savez

    def save(trace, path):
        writer(path, **{name: getattr(trace, name) for name in TRACE_FIELDS},
               meta_workload=np.array(trace.meta.workload),
               meta_scale=np.array(trace.meta.scale),
               meta_config=np.array(trace.meta.compile_config),
               meta_instructions=np.array(trace.meta.instructions),
               meta_return=np.array(trace.meta.return_value))

    return save


def _trace_files(traces, directory):
    """Save and load time (s) and total size (MB) per trace format."""
    formats = {
        "level6": _savez(True),
        "level1": lambda trace, path: trace.save(path),
        "stored": _savez(False),
    }
    numbers = {}
    for label, save in formats.items():
        paths = [directory / f"{label}-{i}.npz" for i in range(len(traces))]
        start = time.perf_counter()
        for trace, path in zip(traces, paths):
            save(trace, path)
        numbers[f"save_{label}_seconds"] = time.perf_counter() - start
        numbers[f"file_{label}_mb"] = sum(
            path.stat().st_size for path in paths
        ) / 1e6
        start = time.perf_counter()
        for path in paths:
            Trace.load(path)
        numbers[f"load_{label}_seconds"] = time.perf_counter() - start
    return numbers


def bench_engine_speedup_gate(benchmark, tmp_path):
    executables = _executables()

    def measure():
        best = {}
        outputs = {}
        for _ in range(ROUNDS):
            for label, engine in (("reference", ReferenceInterpreter),
                                  ("translated", Interpreter)):
                seconds, instructions, out = _engine_pass(engine,
                                                          executables)
                if seconds < best.get(label, (float("inf"),))[0]:
                    best[label] = (seconds, instructions)
                outputs[label] = out
        return best, outputs

    best, outputs = run_once(benchmark, measure)
    _assert_identical(outputs["reference"], outputs["translated"])

    ref_s, instructions = best["reference"]
    new_s, _ = best["translated"]
    ref_rate = instructions / ref_s / 1e6
    new_rate = instructions / new_s / 1e6
    speedup = new_rate / ref_rate
    traces = [t for _, _, t in outputs["translated"].values()
              if t is not None]
    files = _trace_files(traces, tmp_path)
    print(
        f"\nengine: {instructions / 1e6:.2f} Minstr per cold build; "
        f"reference {ref_s:.3f}s ({ref_rate:.2f} Minstr/s), translated "
        f"{new_s:.3f}s ({new_rate:.2f} Minstr/s): {speedup:.2f}x"
    )
    print(
        "trace files: "
        + ", ".join(
            f"{label} save {files[f'save_{label}_seconds']:.3f}s "
            f"load {files[f'load_{label}_seconds']:.3f}s "
            f"{files[f'file_{label}_mb']:.2f} MB"
            for label in ("level6", "level1", "stored")
        )
    )
    emit_gate(
        "engine_cold_build",
        instructions=instructions,
        reference_seconds=ref_s,
        translated_seconds=new_s,
        reference_minstr_per_second=ref_rate,
        translated_minstr_per_second=new_rate,
        speedup=speedup,
        **files,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"translated engine only {speedup:.2f}x the reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
