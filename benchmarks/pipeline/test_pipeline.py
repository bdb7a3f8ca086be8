"""Self-test of the pipeline benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.  The
workload checks run the real entry point with a one-second window, so
the module takes about two minutes.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.pipeline import harness
from benchmarks.pipeline.clock import REFERENCE_S, SpeedClock
from benchmarks.pipeline.common import (
    BENCHMARK,
    GOLDENS,
    HERE,
    ROOT,
    WORKLOADS,
    load_benchmark,
)
from benchmarks.pipeline.layers import Span, Target, Tracer, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(root, workload: str, trace: int, seconds: float = 1.0):
    """BENCHMARK.json's command with the per-run arguments appended."""
    command = load_benchmark()["command"]
    return subprocess.run(
        [sys.executable, *command[1:], "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(target, with_program: bool) -> None:
    shutil.copy(BENCHMARK, target / "BENCHMARK.json")
    shutil.copytree(HERE, target / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src" / "repro", target / "src" / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_metric_and_workload_names_are_well_formed():
    spec = load_benchmark()
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_self_time_folds_children_out_of_a_nested_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a.child", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
        Span("b.child", 8.0, 12.0, parent=3),  # overhangs its parent
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 4.0]
    # Without overhang, self times sum to the top-level wall time.
    assert sum(self_times(spans[:4])) == 10.0


def test_calibration_scales_each_stretch_and_skips_the_probes():
    clock = SpeedClock()
    # Probes over [0, 1], [3, 4] and [6, 7]; the middle one ran at half
    # the speed of the others, which ran at the reference speed.
    clock.starts = [0.0, 3.0, 6.0]
    clock.ends = [1.0, 4.0, 7.0]
    clock.readings = [REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S]
    # Between two probes the speed is the mean of their readings.
    assert clock.calibrate(1.0, 3.0) == pytest.approx(2.0 / 1.5)
    # The probe inside the interval does not count.
    assert clock.calibrate(2.0, 5.0) == pytest.approx(2.0 / 1.5)
    # After the last probe, its reading alone.
    assert clock.calibrate(7.0, 9.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        clock.calibrate(-1.0, 0.5)


def test_tracer_records_spans_and_restores_every_binding():
    from repro.compiler import pipeline
    from repro.workloads import get_workload

    original = pipeline.compile_source
    tracer = Tracer([Target("repro.compiler.pipeline:compile_source",
                            "compiler")])
    tracer.install()
    try:
        assert pipeline.compile_source is not original
        get_workload("crc").compile(scale="tiny")
    finally:
        tracer.uninstall()
    assert pipeline.compile_source is original
    assert [span.name for span in tracer.spans] == ["compiler"]
    assert tracer.spans[0].seconds > 0


def test_serve_requests_are_a_function_of_the_seed():
    def keys(seed):
        return [harness.serve_key(body)
                for body in harness.serve_requests(seed)]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)
    space = {harness.serve_key(body) for body in harness.serve_keys()}
    assert len(space) == 600
    assert set(keys(3)) <= space
    assert len(keys(3)) == harness.SERVE_REQUESTS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    proc = run_bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {e["name"]: e["unit"] for e in load_benchmark()["end_to_end"]}
    emitted = result["metrics"]
    assert {name: item["unit"] for name, item in emitted.items()} == declared
    assert all(item["value"] > 0 for item in emitted.values())


@pytest.mark.parametrize("workload", ["cold-trace", "serve-mixed"])
def test_every_layer_metric_is_emitted_with_its_unit(workload):
    proc = run_bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    declared = {e["name"]: e["unit"] for e in load_benchmark()["per_layer"]}
    emitted = result_line(proc)["metrics"]
    assert {name: item["unit"] for name, item in emitted.items()} == declared
    if workload != "serve-mixed":  # nothing is wrapped there
        assert emitted["bench.coverage"]["value"] >= 0.95


def test_a_tampered_golden_is_a_mismatch_and_a_failing_exit(tmp_path):
    copy_benchmark(tmp_path, with_program=True)
    path = tmp_path / "benchmarks" / "pipeline" / GOLDENS.name
    goldens = json.loads(path.read_text())
    entry = goldens["cold-trace"]["crc/baseline"]
    entry["return_value"] += 1
    path.write_text(json.dumps(goldens))
    proc = run_bench(tmp_path, "cold-trace", trace=0)
    assert proc.returncode != 0
    assert result_line(proc)["correct"] is False
    counted = re.search(r"(\d+) golden mismatches", proc.stderr)
    assert counted and int(counted.group(1)) >= 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    copy_benchmark(tmp_path, with_program=False)
    proc = run_bench(tmp_path, "cold-trace", trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
