"""Every simulation core against the branch-by-branch oracle.

All three cores replay one decoded plan, so comparing them with each
other cannot catch a decode bug they share.  This suite compares each
of them with ``tests/driver_oracle.py`` instead: a per-branch loop that
owns a real global-history register, a delayed-update queue and a BTB,
and takes its squash and define selection from the independent
``tests/confidence_oracle.frontend_rules``.

* Results: headline metrics, per-branch flags and the number of delayed
  updates that reached the tables, over all workloads × both compile
  configs × the front-end options below × every predictor family
  (including static and perfect, which only the object core runs).
* Profiler events: the streams a collector receives at rate 1 and at
  rate 7 seed 3 are equal field for field, and of the same Python
  types, on every core.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro import telemetry
from repro.pipeline import BTBConfig
from repro.predictors import (
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    PerfectPredictor,
    PGUConfig,
    SFPConfig,
    StaticPredictor,
    TagePredictor,
    TournamentPredictor,
    make_predictor,
)
from repro.profiler import AggregatingCollector, ProfileSpec
from repro.profiler.collector import EventCollector
from repro.profiler.events import PredictionEvent
from repro.sim import SimOptions, fastcore, simulate
from repro.sim.driver import record_sim_counters
from repro.workloads import get_workload, workload_names
from tests.driver_oracle import oracle_simulate

pytestmark = pytest.mark.fastcore

CORES = ("object", "fast", "numpy")

PREDICTORS = {
    "gshare": lambda: GSharePredictor(entries=1024, history_bits=10),
    "local": lambda: LocalPredictor(
        entries=512, local_entries=64, history_bits=9
    ),
    "tournament": lambda: TournamentPredictor(entries=512),
    "perceptron": lambda: PerceptronPredictor(entries=64, history_bits=12),
    "tage": lambda: TagePredictor(base_entries=512, table_entries=128),
    "static": lambda: StaticPredictor("btfn"),
    "perfect": PerfectPredictor,
}

SFP_PGU = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())

#: A BTB small enough that the tiny traces miss in it.
SMALL_BTB = BTBConfig(sets=16, ways=2)

OPTIONS = {
    "plain": SimOptions(),
    "sfp+pgu": SFP_PGU,
    "delayed": SimOptions(delayed_update=True),
    "sfp-pht": SimOptions(sfp=SFPConfig(update_pht=True)),
    "sfp-true+guards": SimOptions(
        sfp=SFPConfig(squash_known_true=True),
        pgu=PGUConfig(which="guards_only"),
    ),
    "btb": SimOptions(btb=SMALL_BTB),
    "flags": replace(
        SFP_PGU, delayed_update=True, btb=SMALL_BTB, record_flags=True
    ),
}

#: Front ends for the event streams: every SFP decision and PGU path,
#: a define delay of its own, and the delayed-update queue.
EVENT_OPTIONS = {
    "plain": SimOptions(),
    "sfp+pgu": SFP_PGU,
    "sfp-true+guards": OPTIONS["sfp-true+guards"],
    "pgu-delay2+delayed": SimOptions(
        sfp=SFPConfig(), pgu=PGUConfig(delay=2), delayed_update=True
    ),
}

#: (rate, seed) pairs the event streams are sampled at.
SAMPLINGS = ((1, 0), (7, 3))


def _flags(result):
    if result.flags is None:
        return None
    return tuple(
        getattr(result.flags, name).tolist()
        for name in ("correct", "squashed", "misfetch")
    )


def _simulate_counted(trace, predictor, options, core):
    """``simulate`` on ``core``, with its ``sim.*`` outcome counters
    (without the ones naming the path taken)."""
    with telemetry.use_registry(telemetry.MetricsRegistry()) as registry:
        result = simulate(trace, predictor, options, core=core)
    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if not name.startswith(("sim.core.", "sim.fallback."))
    }
    return result, counters


def _oracle_counters(ref, applied):
    registry = telemetry.MetricsRegistry()
    record_sim_counters(registry, ref, applied)
    return registry.snapshot()["counters"]


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_cores_match_oracle(workload, hyperblocks):
    """Metrics, flags and applied delayed updates equal the oracle's."""
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for oname, options in OPTIONS.items():
        for label, factory in PREDICTORS.items():
            ref, applied = oracle_simulate(trace, factory(), options)
            expected = _oracle_counters(ref, applied)
            context = f"{workload}/{oname}/{label}"
            if options.delayed_update:
                assert fastcore.plan_for(
                    trace, options
                ).applied_updates == applied, context
            for core in CORES:
                got, counters = _simulate_counted(
                    trace, factory(), options, core
                )
                where = f"{context} on core {core}"
                assert got.headline_metrics() == ref.headline_metrics(), \
                    where
                assert got.per_class == ref.per_class, where
                assert _flags(got) == _flags(ref), where
                assert counters == expected, where


class _ListCollector(EventCollector):
    """Keeps every event it receives."""

    def __init__(self, spec):
        super().__init__(spec)
        self.events = []

    def collect(self, event):
        self.events.append(event)


def _typed(events):
    """Every field of every event, with its Python type."""
    return [
        tuple(
            (name, type(getattr(event, name)), getattr(event, name))
            for name in PredictionEvent.__slots__
        )
        for event in events
    ]


def _events(run, trace, options, rate, seed):
    """The events ``run`` (a simulate function) hands a collector."""
    collector = _ListCollector(ProfileSpec(rate=rate, seed=seed))
    run(trace, PREDICTORS["gshare"](), options, collector=collector)
    return _typed(collector.events)


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_event_streams_match_oracle(workload, hyperblocks):
    """Sampled event streams are identical, types included, on every
    core and in the oracle."""
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for oname, options in EVENT_OPTIONS.items():
        for rate, seed in SAMPLINGS:
            ref = _events(oracle_simulate, trace, options, rate, seed)
            assert len(ref) == len(range((-seed) % rate,
                                         trace.num_branches, rate))
            for core in CORES:
                got = _events(partial(simulate, core=core), trace, options,
                              rate, seed)
                assert got == ref, (
                    f"{workload}/{oname} rate={rate} seed={seed} "
                    f"on core {core}"
                )


def test_profiling_runs_on_the_fast_core():
    """A collector no longer forces the object core."""
    trace = get_workload("crc").trace(scale="tiny")
    collector = AggregatingCollector(ProfileSpec(rate=1), workload="crc")
    with telemetry.use_registry(telemetry.MetricsRegistry()) as registry:
        result = simulate(
            trace, make_predictor("gshare"), SFP_PGU,
            collector=collector, core="fast",
        )
    counters = registry.snapshot()["counters"]
    assert counters["sim.core.fast"] == 1
    assert "sim.core.object" not in counters
    assert not [name for name in counters if name.startswith("sim.fallback.")]
    assert result.attribution is collector.aggregator
    assert collector.aggregator.totals()["events"] == trace.num_branches
    assert collector.aggregator.totals()["mispredictions"] == (
        result.mispredictions
    )
