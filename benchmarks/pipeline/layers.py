"""Per-layer timing from outside the program.

The benchmark changes no ``src/`` file.  Instead, :class:`Tracer` wraps
the phase-grained public functions of each layer wherever a ``repro.*``
module (or this package) binds them, records one :class:`Span` per call
and restores the originals afterwards.  Per-branch methods are never
wrapped, so a wrapper runs at most a few thousand times per round.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`); summed over every
span of a round it reproduces the round's wall time, which is what
``bench.coverage`` checks.

:class:`Checkpoints` wraps the same functions in an untraced run, only
to let a :class:`~benchmarks.pipeline.clock.SpeedClock` probe the
host's speed between them.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import EXPERIMENTS
from repro.sim.core import resolve_core
from repro.sim.fastcore import kernelizable

#: Module-name prefixes whose bindings of a wrapped function are replaced.
BINDING_PREFIXES = ("repro", "benchmarks.pipeline")


@dataclass
class Span:
    """One wrapped call: layer, interval, enclosing span and its work
    (instructions, branches or bytes, depending on the layer)."""

    name: str
    start: float
    end: float
    parent: int = -1  #: index of the enclosing span; -1 at top level
    work: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to the parent's interval, so overlapping or
    overhanging child spans never drive a self time below zero.
    """
    children: List[List[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        edge = span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo = max(kid.start, edge)
            hi = min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out.append(span.seconds - covered)
    return out


# -- what gets wrapped ---------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module:qualname`` plus how to label calls.

    ``layer`` is the span name, or a callable of the call's
    :class:`Arguments` returning it; ``work`` maps (arguments, result)
    to the span's work.
    """

    path: str
    layer: object
    work: Optional[Callable[["Arguments", object], float]] = None


class Arguments:
    """A call's arguments by parameter name; omitted ones read ``None``.

    One instance per wrapped function is reused for every call: a dict
    per call triggered young-generation garbage collections that slowed
    the traced kernel-sweep by 3%.
    """

    def __init__(self, fn):
        self.position = {
            name: index
            for index, name in enumerate(inspect.signature(fn).parameters)
        }
        self.args: Optional[tuple] = None
        self.kwargs: Optional[dict] = None

    def __getitem__(self, name: str):
        if name in self.kwargs:
            return self.kwargs[name]
        index = self.position[name]
        return self.args[index] if index < len(self.args) else None


def _engine_layer(arguments: Arguments) -> str:
    if arguments["recorder"] is not None:
        return "engine.trace"
    if arguments["profile"] is not None:
        return "engine.profile"
    return "engine.run"


def _simulate_layer(arguments: Arguments) -> str:
    """``sim``, or ``sim.fallback.<reason>`` when the arguments keep the
    point off the fast core."""
    if resolve_core(arguments["core"]) == "object":
        return "sim"
    options = arguments["options"]
    if not kernelizable(arguments["predictor"]):
        return "sim.fallback.predictor"
    if options is not None and options.btb is not None:
        return "sim.fallback.btb"
    if arguments["collector"] is not None:
        return "sim.fallback.collector"
    return "sim"


def _instructions(arguments: Arguments, result) -> float:
    return result.instructions


def _saved_bytes(arguments: Arguments, result) -> float:
    return os.path.getsize(arguments["path"])


def _plan_branches(arguments: Arguments, result) -> float:
    return arguments["plan"].n


def _result_branches(arguments: Arguments, result) -> float:
    return result.branches


def targets() -> List[Target]:
    """Every wrapped function."""
    table = [
        Target("repro.compiler.pipeline:compile_source", "compiler"),
        Target("repro.engine.interpreter:run", _engine_layer, _instructions),
        Target("repro.trace.recorder:TraceRecorder.finish", "trace.finish"),
        Target("repro.trace.container:Trace.save", "trace.save",
               _saved_bytes),
        Target("repro.trace.container:Trace.load", "trace.load"),
        Target("repro.workloads.base:Workload.trace", "trace.lookup"),
        Target("repro.sim.fastcore.decode:build_plan", "fastcore.decode"),
        Target("repro.sim.fastcore.replay:fast_replay", "fastcore.replay",
               _plan_branches),
        Target("repro.sim.fastcore.batch:batch_replay", "fastcore.replay",
               _plan_branches),
        Target("repro.sim.driver:simulate", _simulate_layer,
               _result_branches),
        Target("repro.sim.confidence:simulate_with_confidence",
               "sim.confidence", _result_branches),
        Target("repro.pipeline.fetchsim:simulate_frontend",
               "pipeline.fetchsim"),
        Target("repro.sim.sweep:sweep", "sweep"),
    ]
    for exp_id, module in EXPERIMENTS.items():
        table.append(Target(f"{module.__name__}:run", f"experiments.{exp_id}"))
    return table


# -- wrapping ------------------------------------------------------------------


class Patch:
    """Replaces every binding of :func:`targets` with a wrapper while
    installed.

    ``install``/``uninstall`` only swap attributes, so a harness can
    wrap one unit of work and run the next one on the bare program.
    """

    def __init__(self, table: Optional[Sequence[Target]] = None):
        #: (owner, attribute, original value, wrapped value)
        self._bindings = []
        for target in table if table is not None else targets():
            self._bind(target)

    def _bind(self, target: Target) -> None:
        module_name, qualname = target.path.split(":")
        owner = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for name in outer:
            owner = getattr(owner, name)
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, target))
            self._bindings.append((owner, attr, raw, wrapped))
            return
        wrapped = self._wrap(raw, target)
        if outer:  # a method: the class is its only binding
            self._bindings.append((owner, attr, raw, wrapped))
            return
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if not name.startswith(BINDING_PREFIXES):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._bindings.append((module, key, raw, wrapped))

    def _wrap(self, fn, target: Target):
        raise NotImplementedError

    def install(self) -> None:
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw, _ in self._bindings:
            setattr(owner, attr, raw)


class Checkpoints(Patch):
    """Calls ``tick`` before and after every wrapped call, so that a
    :class:`~benchmarks.pipeline.clock.SpeedClock` can probe the host's
    speed inside a long unit of work."""

    def __init__(self, tick: Callable[[], None],
                 table: Optional[Sequence[Target]] = None):
        self.tick = tick
        super().__init__(table)

    def _wrap(self, fn, target: Target):
        tick = self.tick

        def wrapper(*args, **kwargs):
            tick()
            try:
                return fn(*args, **kwargs)
            finally:
                tick()

        return functools.wraps(fn)(wrapper)


class Tracer(Patch):
    """Wraps :func:`targets` while installed and keeps their spans."""

    def __init__(self, table: Optional[Sequence[Target]] = None):
        # Spans are kept as columns of strings and numbers, so recording
        # one allocates nothing the garbage collector tracks.
        self._names: List[str] = []
        self._parents: List[int] = []
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._works: List[float] = []
        self._stack: List[int] = []
        super().__init__(table)

    def _wrap(self, fn, target: Target):
        arguments = Arguments(fn)
        layer = target.layer
        work = target.work
        tracer = self

        def wrapper(*args, **kwargs):
            arguments.args = args
            arguments.kwargs = kwargs
            stack = tracer._stack
            index = len(tracer._names)
            tracer._names.append(
                layer(arguments) if callable(layer) else layer
            )
            tracer._parents.append(stack[-1] if stack else -1)
            tracer._ends.append(0.0)
            tracer._works.append(0.0)
            stack.append(index)
            start = time.perf_counter()
            tracer._starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._ends[index] = time.perf_counter()
                stack.pop()
            if work is not None:
                # A nested call of the same function rebound arguments.
                arguments.args = args
                arguments.kwargs = kwargs
                tracer._works[index] = float(work(arguments, result))
            arguments.args = arguments.kwargs = None  # keep nothing alive
            return result

        return functools.wraps(fn)(wrapper)

    @property
    def spans(self) -> List[Span]:
        """Every recorded call, in call order."""
        return [
            Span(*fields) for fields in zip(
                self._names, self._starts, self._ends, self._parents,
                self._works,
            )
        ]


# -- spans -> per-layer metrics ------------------------------------------------


def layer_metrics(spans: Sequence[Span], rounds: int) -> Dict[str, float]:
    """Per-round layer metrics folded from ``spans`` of ``rounds`` rounds.

    Times are self times in seconds per round; counts are per round;
    rates divide the layer's work by its own self time.
    """
    has_replay = [False] * len(spans)
    for span in spans:
        if span.name == "fastcore.replay" and span.parent >= 0:
            has_replay[span.parent] = True

    time_of: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    work: Dict[str, float] = {}
    for index, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = span.name
        if name.startswith("sim.fallback."):
            calls[name] = calls.get(name, 0) + 1
            name = "sim.object"
        elif name == "sim":
            name = "sim.kernel" if has_replay[index] else "sim.object"
        time_of[name] = time_of.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0.0) + span.work
        if name.startswith("experiments."):
            inclusive = f"{name}.inclusive"
            time_of[inclusive] = time_of.get(inclusive, 0.0) + span.seconds

    n = max(rounds, 1)

    def seconds(name: str) -> float:
        return time_of.get(name, 0.0) / n

    def count(name: str) -> float:
        return calls.get(name, 0) / n

    def rate(amount: float, *names: str) -> float:
        busy = sum(time_of.get(name, 0.0) for name in names)
        return amount / busy if busy > 0 else 0.0

    engine_minstr = (
        work.get("engine.profile", 0.0) + work.get("engine.trace", 0.0)
    ) / 1e6
    points = count("sim.kernel") + count("sim.object") + count(
        "sim.confidence"
    )
    object_points = count("sim.object") + count("sim.confidence")

    metrics = {
        "compiler.calls": count("compiler"),
        "compiler.self_s": seconds("compiler"),
        "engine.profile_s": seconds("engine.profile"),
        "engine.profile_minstr": work.get("engine.profile", 0.0) / 1e6 / n,
        "engine.trace_s": seconds("engine.trace"),
        "engine.trace_minstr": work.get("engine.trace", 0.0) / 1e6 / n,
        "engine.minstr_per_s": rate(
            engine_minstr, "engine.profile", "engine.trace"
        ),
        "trace.lookup_s": seconds("trace.lookup"),
        "trace.finish_s": seconds("trace.finish"),
        "trace.save_s": seconds("trace.save"),
        "trace.save_mb": work.get("trace.save", 0.0) / 1e6 / n,
        "trace.load_calls": count("trace.load"),
        "trace.load_s": seconds("trace.load"),
        "trace.builds": count("trace.finish"),
        "fastcore.decode_calls": count("fastcore.decode"),
        "fastcore.decode_s": seconds("fastcore.decode"),
        "fastcore.replay_calls": count("fastcore.replay"),
        "fastcore.replay_s": seconds("fastcore.replay"),
        "fastcore.replay_mbranch_per_s": rate(
            work.get("fastcore.replay", 0.0) / 1e6, "fastcore.replay"
        ),
        "sim.points": points,
        "sim.object_points": object_points,
        "sim.fallback_share": object_points / points if points else 0.0,
        "sim.object_s": seconds("sim.object"),
        "sim.kernel_glue_s": seconds("sim.kernel"),
        "sim.object_mbranch_per_s": rate(
            work.get("sim.object", 0.0) / 1e6, "sim.object"
        ),
        "sim.fallback.confidence": count("sim.confidence"),
        "sim.confidence_s": seconds("sim.confidence"),
        "pipeline.fetchsim_s": seconds("pipeline.fetchsim"),
        "sweep.self_s": seconds("sweep"),
        "experiments.self_s": sum(
            seconds(f"experiments.{exp_id}") for exp_id in EXPERIMENTS
        ),
    }
    for reason in ("predictor", "btb", "collector"):
        metrics[f"sim.fallback.{reason}"] = count(f"sim.fallback.{reason}")
    for exp_id in EXPERIMENTS:
        metrics[f"experiments.{exp_id}_s"] = seconds(
            f"experiments.{exp_id}.inclusive"
        )
    return metrics
