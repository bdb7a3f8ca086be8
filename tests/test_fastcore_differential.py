"""Differential equivalence: every simulation core vs the oracle.

The branch-by-branch loop in ``tests/driver_oracle.py`` is the
reference; the object (``object``), fast (``fast``) and
numpy-batched (``numpy``) cores all replay one decoded plan and must
be *bit-identical* to the oracle — same mispredict counts, same
per-class stats, same headline metrics, branch for branch.  This suite
enforces that over the whole workload suite under both compile
configs, over the paper's mechanism space on focused workloads, and
over hypothesis-generated random traces, and proves the harness can
localise a seeded divergence.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.e10_ablations import VARIANTS as E10_VARIANTS
from repro.isa.opcodes import BranchKind
from repro.predictors import (
    BimodalPredictor,
    GAgPredictor,
    GSelectPredictor,
    GSharePredictor,
    LocalPredictor,
    PerceptronPredictor,
    PGUConfig,
    SFPConfig,
    TagePredictor,
    TournamentPredictor,
)
from repro.pipeline import BTBConfig
from repro.sim import SimOptions, simulate, use_core
from repro.sim import fastcore
from repro.sim.fastcore.kernels import gshare_index
from repro.trace.container import Trace, TraceMeta
from repro.workloads import get_workload, workload_names
from tests.differential_harness import REPLAYS, differential_check
from tests.driver_oracle import oracle_simulate
from tests.replay_oracle import object_state

pytestmark = pytest.mark.fastcore

FAST_CORES = ("fast", "numpy")
CORES = ("object",) + FAST_CORES


def _tage(aging_period=None, **kwargs):
    predictor = TagePredictor(**kwargs)
    if aging_period is not None:
        predictor.aging_period = aging_period
    return predictor


#: One factory per kernelized predictor family.
PREDICTORS = {
    "bimodal": lambda: BimodalPredictor(entries=512),
    "gshare": lambda: GSharePredictor(entries=1024, history_bits=10),
    "gselect": lambda: GSelectPredictor(entries=1024, history_bits=5),
    "gag": lambda: GAgPredictor(entries=1024),
    "local": lambda: LocalPredictor(
        entries=512, local_entries=64, history_bits=9
    ),
    "tournament": lambda: TournamentPredictor(entries=512),
    "perceptron": lambda: PerceptronPredictor(
        entries=64, history_bits=12
    ),
    "tage": lambda: _tage(base_entries=512, table_entries=128),
    # A period the tiny traces reach, so the global useful-counter
    # aging runs (the default of 256k mispredictions never fires here).
    "tage-aging": lambda: _tage(
        base_entries=256, table_entries=64, aging_period=50
    ),
}

#: The two headline configurations the full matrix runs under.
MATRIX_OPTIONS = {
    "plain": SimOptions(),
    "sfp+pgu": SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
}

#: The families ``tests/test_driver_oracle.py`` does not run; its
#: matrix covers gshare, local, tournament, perceptron and TAGE under
#: these options and more.
MATRIX_PREDICTORS = ("bimodal", "gselect", "gag", "tage-aging")

#: Mechanism-space variants exercised on focused workloads.
VARIANT_OPTIONS = {
    "sfp-pht": SimOptions(sfp=SFPConfig(update_pht=True)),
    "sfp-nohist": SimOptions(sfp=SFPConfig(update_history=False)),
    "sfp-true": SimOptions(sfp=SFPConfig(squash_known_true=True)),
    "pgu0-guards": SimOptions(
        pgu=PGUConfig(delay=0, which="guards_only")
    ),
    "delayed": SimOptions(delayed_update=True),
    "delayed+sfp+pgu": SimOptions(
        delayed_update=True, sfp=SFPConfig(), pgu=PGUConfig()
    ),
    "d0-delayed": SimOptions(distance=0, delayed_update=True),
    "h8": SimOptions(history_bits=8),
    "h64": SimOptions(history_bits=64),
}


def _outcome_counters(counters):
    """A counter snapshot minus the keys naming the path a point took
    (``sim.core.*``, ``sim.fallback.*``), which differ across cores."""
    return {
        name: value
        for name, value in counters.items()
        if not name.startswith(("sim.core.", "sim.fallback."))
    }


def _assert_identical(ref, got, context):
    assert got.headline_metrics() == ref.headline_metrics(), context
    assert got.per_class == ref.per_class, context
    assert got.branches == ref.branches, context
    assert got.mispredictions == ref.mispredictions, context


@pytest.mark.parametrize(
    "hyperblocks", [True, False], ids=["hyperblock", "baseline"]
)
@pytest.mark.parametrize("workload", workload_names())
def test_full_matrix(workload, hyperblocks):
    """All workloads x both configs x plain and SFP+PGU x the kernel
    families the driver-oracle matrix leaves out, on every core."""
    trace = get_workload(workload).trace(
        scale="tiny", hyperblocks=hyperblocks
    )
    for oname, options in MATRIX_OPTIONS.items():
        for label in MATRIX_PREDICTORS:
            factory = PREDICTORS[label]
            ref, _ = oracle_simulate(trace, factory(), options)
            for core in CORES:
                got = simulate(trace, factory(), options, core=core)
                _assert_identical(
                    ref, got,
                    f"{workload}/{oname}/{label} on core {core}",
                )


@pytest.mark.parametrize("oname", sorted(VARIANT_OPTIONS))
@pytest.mark.parametrize("workload", ["crc", "grep"])
def test_option_variants(workload, oname):
    """Every mechanism knob, checked branch-for-branch via the harness."""
    trace = get_workload(workload).trace(scale="tiny", hyperblocks=True)
    options = VARIANT_OPTIONS[oname]
    for label, factory in PREDICTORS.items():
        batchable = fastcore.batch_supported(factory())
        for core in CORES:
            if core == "numpy" and not batchable:
                # No numpy backend (only table predictors have one); the
                # public knob falls back to the fast loops, which the
                # "fast" leg of this loop already checks.
                continue
            report = differential_check(
                trace, factory, options, core=core
            )
            assert report.matches, report.summary()
            assert report.first_divergence is None


@pytest.mark.parametrize(
    "label", ["tournament", "perceptron", "tage", "tage-aging"]
)
@pytest.mark.parametrize("oname", ["plain", "delayed+sfp+pgu"])
def test_composite_trained_state_matches_object_predictor(
    label, oname, monkeypatch
):
    """Chunked replay leaves every composite predictor's state exactly
    as object training does, across chunk boundaries."""
    from repro.sim.fastcore import replay

    trace = get_workload("lexer").trace(scale="tiny", hyperblocks=True)
    options = {**MATRIX_OPTIONS, **VARIANT_OPTIONS}[oname]
    predictor = PREDICTORS[label]()
    result, _ = oracle_simulate(trace, predictor, options)
    replayed = PREDICTORS[label]()
    # lexer has ~21k events: many chunk boundaries
    monkeypatch.setattr(replay, "CHUNK_EVENTS", 1000)
    fastcore.fast_replay(replayed, fastcore.plan_for(trace, options))
    assert object_state(replayed) == object_state(predictor)
    if label == "tage-aging":
        # Mispredicted updates tick toward aging: it ran many times.
        assert result.mispredictions > 10 * predictor.aging_period


def test_trained_state_matches_object_predictor():
    """Replay leaves the tables exactly as object training does."""
    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    predictor = GSharePredictor(entries=1024, history_bits=10)
    oracle_simulate(trace, predictor, SimOptions())
    for core in FAST_CORES:
        replayed = GSharePredictor(entries=1024, history_bits=10)
        assert fastcore.batch_supported(replayed)
        REPLAYS[core](replayed, fastcore.plan_for(trace, SimOptions()))
        assert replayed.counters.table == predictor.counters.table, core


#: Tournaments over component pairs besides the default (local, gshare).
TOURNAMENTS = {
    "bimodal+gselect": lambda: TournamentPredictor(
        256, BimodalPredictor(entries=128),
        GSelectPredictor(entries=512, history_bits=4),
    ),
    "local+local": lambda: TournamentPredictor(
        256, LocalPredictor(entries=256, local_entries=32, history_bits=8),
        LocalPredictor(entries=64, local_entries=16, history_bits=5),
    ),
    "gshare+bimodal": lambda: TournamentPredictor(
        256, GSharePredictor(entries=512, history_bits=9),
        BimodalPredictor(entries=256),
    ),
}


@pytest.mark.parametrize("oname", ["delayed+sfp+pgu", "sfp-pht", "h64"])
def test_tournament_of_other_components(oname):
    """Tournaments over other table and local components replay
    exactly, on flagged plans (delayed update, ``update_pht``) and on
    uniform ones (64-bit history)."""
    trace = get_workload("grep").trace(scale="tiny", hyperblocks=True)
    for pair, factory in TOURNAMENTS.items():
        report = differential_check(
            trace, factory, VARIANT_OPTIONS[oname], core="fast"
        )
        assert report.matches, f"{pair}: {report.summary()}"


class TestSeededDivergence:
    """Corrupt one table entry; the harness must localise it."""

    def _first_read_entry(self, trace, predictor, options):
        plan = fastcore.build_plan(trace, options)
        return plan, int(
            gshare_index(predictor, plan.pc[:1], plan.ghr[:1])[0]
        )

    @pytest.mark.parametrize("core", FAST_CORES)
    def test_reports_first_diverging_branch(self, core):
        trace = get_workload("crc").trace(
            scale="tiny", hyperblocks=True
        )
        factory = PREDICTORS["gshare"]
        corrupted = factory()
        _, entry = self._first_read_entry(trace, corrupted, SimOptions())
        # Flip the prediction the very first branch will read.
        table = corrupted.counters.table
        table[entry] = 3 if table[entry] < 2 else 0
        report = differential_check(
            trace, factory, SimOptions(), core=core, prebuilt=corrupted
        )
        assert not report.matches
        assert report.first_divergence == 0
        assert report.predictor == factory().name
        assert str(report.first_divergence) in report.summary()
        assert core in report.summary()

    def test_clean_kernel_reports_agreement(self):
        trace = get_workload("crc").trace(
            scale="tiny", hyperblocks=True
        )
        factory = PREDICTORS["gshare"]
        report = differential_check(
            trace, factory, SimOptions(), core="fast"
        )
        assert report.matches
        assert report.first_divergence is None
        assert "agree" in report.summary()


# -- random-trace equivalence --------------------------------------------------


def random_trace(draw):
    """A structurally valid random trace: sorted dynamic indices,
    guard-define links consistent with the predicate-define stream."""
    n = draw(st.integers(min_value=1, max_value=60))
    last_def = {}
    branches = []
    pdefs = []
    idx = 0
    for _ in range(n):
        idx += draw(st.integers(min_value=1, max_value=5))
        if draw(st.booleans()):
            pred = draw(st.integers(min_value=1, max_value=3))
            pdefs.append(
                (
                    draw(st.integers(min_value=0, max_value=15)),
                    idx,
                    draw(st.integers(min_value=0, max_value=1)),
                    pred,
                )
            )
            last_def[pred] = idx
            idx += draw(st.integers(min_value=1, max_value=3))
        guard = draw(st.integers(min_value=0, max_value=3))
        kind = draw(
            st.sampled_from(
                [BranchKind.COND, BranchKind.LOOP, BranchKind.EXIT]
            )
        )
        branches.append(
            (
                draw(st.integers(min_value=0, max_value=15)),
                idx,
                draw(st.booleans()),
                guard,
                last_def.get(guard, -1) if guard else -1,
                kind,
                draw(st.booleans()),
                # -1: no target, as for returns
                draw(st.integers(min_value=-1, max_value=3)),
            )
        )
    return Trace.from_lists(
        b_pc=[b[0] for b in branches],
        b_idx=[b[1] for b in branches],
        b_taken=[b[2] for b in branches],
        b_guard=[b[3] for b in branches],
        b_guard_def=[b[4] for b in branches],
        b_kind=[int(b[5]) for b in branches],
        b_region=[b[6] for b in branches],
        b_target=[b[7] for b in branches],
        d_pc=[d[0] for d in pdefs],
        d_idx=[d[1] for d in pdefs],
        d_value=[d[2] for d in pdefs],
        d_pred=[d[3] for d in pdefs],
        meta=TraceMeta(workload="random", instructions=idx + 1),
    )


RANDOM_OPTIONS = [
    SimOptions(),
    SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    SimOptions(delayed_update=True, sfp=SFPConfig(update_pht=True)),
    SimOptions(distance=1, pgu=PGUConfig(delay=0)),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_trace_equivalence(data):
    trace = random_trace(data.draw)
    options = data.draw(st.sampled_from(RANDOM_OPTIONS))
    label = data.draw(st.sampled_from(sorted(PREDICTORS)))
    factory = PREDICTORS[label]
    ref, _ = oracle_simulate(trace, factory(), options)
    for core in CORES:
        got = simulate(trace, factory(), options, core=core)
        _assert_identical(ref, got, f"random/{label} on core {core}")


# -- BTB post-pass -------------------------------------------------------------

#: E12's geometries plus a small direct-mapped BTB that thrashes.
BTB_GEOMETRIES = ((64, 1), (256, 2), (1024, 2), (8, 1))

BTB_OPTIONS = {
    "plain": SimOptions(),
    "sfp+pgu": SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    "sfp-true": SimOptions(sfp=SFPConfig(squash_known_true=True)),
    "delayed+sfp+pgu": SimOptions(
        delayed_update=True, sfp=SFPConfig(), pgu=PGUConfig()
    ),
}


@pytest.mark.parametrize(
    "geometry", BTB_GEOMETRIES, ids=lambda g: f"{g[0]}x{g[1]}"
)
@pytest.mark.parametrize("workload", ["crc", "grep", "parser"])
def test_btb_post_pass(workload, geometry):
    """Misfetch counts and per-branch flags match the oracle's BTB.

    grep and parser take returns (``target == -1``), whose lookups
    touch the BTB with no insert after them."""
    trace = get_workload(workload).trace(scale="tiny", hyperblocks=True)
    btb = BTBConfig(sets=geometry[0], ways=geometry[1])
    for oname, base in BTB_OPTIONS.items():
        options = replace(base, btb=btb)
        for core in CORES:
            report = differential_check(
                trace, PREDICTORS["gshare"], options, core=core
            )
            assert report.matches, f"{oname}: {report.summary()}"


def test_btb_traces_take_returns():
    """The BTB differential covers taken branches without a target."""
    for workload in ("grep", "parser"):
        trace = get_workload(workload).trace(
            scale="tiny", hyperblocks=True
        )
        assert (trace.b_taken & (trace.b_target < 0)).any(), workload


def test_btb_state_follows_the_predictions():
    """pc 0 has a target only on its first instance; later instances
    (like returns) are looked up when predicted taken but never
    inserted.  Such a lookup moves pc 0's line to MRU, which decides
    what pc 2's insert evicts, so the BTB state depends on the
    predictions, not on the trace alone."""
    rounds = 6
    pcs = [0, 1, 0, 2, 1] * rounds
    targets = [5, 6, -1, 7, 6] * rounds
    n = len(pcs)
    trace = Trace.from_lists(
        b_pc=pcs, b_idx=list(range(0, 2 * n, 2)), b_taken=[True] * n,
        b_guard=[0] * n, b_guard_def=[-1] * n,
        b_kind=[int(BranchKind.COND)] * n, b_region=[False] * n,
        b_target=targets, d_pc=[], d_idx=[], d_value=[], d_pred=[],
        meta=TraceMeta(workload="btb-lru", instructions=2 * n),
    )
    options = SimOptions(
        btb=BTBConfig(sets=1, ways=2), record_flags=True
    )
    ref, _ = oracle_simulate(trace, BimodalPredictor(entries=4), options)
    for core in CORES:
        got = simulate(trace, BimodalPredictor(entries=4), options,
                       core=core)
        assert got.misfetches == ref.misfetches, core
        assert np.array_equal(got.flags.misfetch, ref.flags.misfetch)
    # Had the target-less instances been mispredicted (no lookup), the
    # same trace would misfetch a different number of times.
    plan = fastcore.build_plan(trace, SimOptions())
    mis = np.flatnonzero(~ref.flags.correct)
    without_lookups = fastcore.btb_misfetches(
        plan, np.union1d(mis, np.arange(2, n, 5)), trace.b_target,
        options.btb,
    )
    assert without_lookups.shape[0] != ref.misfetches


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_trace_btb_equivalence(data):
    trace = random_trace(data.draw)
    options = replace(
        data.draw(st.sampled_from(list(BTB_OPTIONS.values()))),
        btb=BTBConfig(
            sets=data.draw(st.sampled_from([1, 2, 4])),
            ways=data.draw(st.integers(min_value=1, max_value=3)),
        ),
    )
    for core in CORES:
        report = differential_check(
            trace, PREDICTORS["gshare"], options, core=core
        )
        assert report.matches, report.summary()


def test_empty_trace_all_cores():
    trace = Trace.from_lists(
        b_pc=[], b_idx=[], b_taken=[], b_guard=[], b_guard_def=[],
        b_kind=[], b_region=[], b_target=[],
        d_pc=[], d_idx=[], d_value=[], d_pred=[],
        meta=TraceMeta(workload="empty", instructions=0),
    )
    ref, _ = oracle_simulate(trace, PREDICTORS["gshare"](), SimOptions())
    for core in CORES:
        got = simulate(
            trace, PREDICTORS["gshare"](), SimOptions(), core=core
        )
        assert got.branches == ref.branches == 0
        assert got.mispredictions == ref.mispredictions == 0


# -- core knob plumbing --------------------------------------------------------


def test_unsupported_predictor_falls_back_to_object():
    """A predictor the fast cores do not take — static, or a
    tournament with a perceptron component — runs on the object core,
    counts the fallback and matches the oracle."""
    from repro import telemetry
    from repro.predictors import make_predictor

    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    options = SimOptions(sfp=SFPConfig(), pgu=PGUConfig())
    factories = {
        "static": lambda: make_predictor("static"),
        "tournament(perceptron|gshare)": lambda: TournamentPredictor(
            entries=256,
            component_a=PerceptronPredictor(entries=64, history_bits=12),
            component_b=GSharePredictor(entries=512),
        ),
    }
    for label, factory in factories.items():
        assert not fastcore.kernelizable(factory()), label
        ref, _ = oracle_simulate(trace, factory(), options)
        with telemetry.use_registry(
            telemetry.MetricsRegistry()
        ) as registry:
            got = simulate(trace, factory(), options, core="fast")
        _assert_identical(ref, got, label)
        counters = registry.snapshot()["counters"]
        assert counters["sim.core.object"] == 1, label
        assert counters["sim.fallback.predictor"] == 1, label
        assert "sim.core.fast" not in counters, label


def test_use_core_context_and_flags():
    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    opts = SimOptions(record_flags=True)
    ref, _ = oracle_simulate(trace, PREDICTORS["gshare"](), opts)
    with use_core("fast"):
        got = simulate(trace, PREDICTORS["gshare"](), opts)
    assert np.array_equal(got.flags.correct, ref.flags.correct)
    assert np.array_equal(got.flags.squashed, ref.flags.squashed)
    assert np.array_equal(got.flags.misfetch, ref.flags.misfetch)


def test_same_run_id_across_cores():
    """sim_core lives in the envelope, so records hash identically."""
    from repro import telemetry
    from repro.runstore import RunRecorder

    trace = get_workload("crc").trace(scale="tiny", hyperblocks=True)
    records = {}
    for core in ("object", "fast"):
        recorder = RunRecorder("simulate", "crc", scale="tiny")
        recorder.record.sim_core = core
        with telemetry.use_registry(
            telemetry.MetricsRegistry()
        ) as registry:
            result = simulate(
                trace, PREDICTORS["gshare"](), SimOptions(), core=core
            )
        recorder.add_sim_result(result, prefix="crc")
        records[core] = recorder.finish(registry)
    assert records["object"].run_id == records["fast"].run_id
    for core, record in records.items():
        assert record.to_dict()["sim_core"] == core
        assert "sim_core" not in record.payload()


#: The original SFP+PGU point, every E10 front-end variant (delayed
#: update and ``update_pht`` reach both terms of ``sim.updates``) and a
#: BTB geometry.
COUNTER_OPTIONS = {
    "sfp+pgu": SimOptions(sfp=SFPConfig(), pgu=PGUConfig()),
    **E10_VARIANTS,
    "btb-64x1+sfp+pgu": SimOptions(
        sfp=SFPConfig(), pgu=PGUConfig(), btb=BTBConfig(sets=64, ways=1)
    ),
}


def test_fastcore_telemetry_counters_match_object():
    from repro import telemetry

    trace = get_workload("grep").trace(scale="tiny", hyperblocks=True)
    for oname, options in COUNTER_OPTIONS.items():
        snapshots = {}
        for core in ("object", "fast", "numpy"):
            with telemetry.use_registry(
                telemetry.MetricsRegistry()
            ) as registry:
                simulate(trace, PREDICTORS["gshare"](), options, core=core)
            snapshots[core] = registry.snapshot()["counters"]
        assert snapshots["object"]["sim.core.object"] == 1, oname
        for core in FAST_CORES:
            assert snapshots[core][f"sim.core.{core}"] == 1, oname
            assert _outcome_counters(snapshots[core]) == _outcome_counters(
                snapshots["object"]
            ), f"{oname} on core {core}"


def test_families_and_btb_experiments_run_without_fallback():
    """E11-E13 points all replay on kernels under the fast core."""
    from repro import telemetry
    from repro.experiments import e11_families, e12_btb, e13_frontend

    with telemetry.use_registry(telemetry.MetricsRegistry()) as registry:
        with use_core("fast"):
            e11_families.run(scale="tiny", workloads=["crc"], workers=1)
            e12_btb.run(scale="tiny", workloads=["crc"])
            e13_frontend.run(scale="tiny", workloads=["crc"])
    counters = registry.snapshot()["counters"]
    assert counters["sim.core.fast"] == counters["sim.runs"]
    assert not [name for name in counters if name.startswith(
        ("sim.fallback.", "sim.core.object")
    )]
