"""Unit tests for the availability, history and cost models."""

import pytest

from repro.pipeline import (
    AvailabilityModel,
    BTBConfig,
    BranchTargetBuffer,
    CostModel,
    GlobalHistory,
)


class TestAvailability:
    def test_visibility_threshold(self):
        model = AvailabilityModel(distance=8)
        assert model.value_visible(produced_at=10, fetch_at=18)
        assert not model.value_visible(produced_at=10, fetch_at=17)
        assert not model.value_visible(produced_at=-1, fetch_at=100)

    def test_zero_distance_is_perfect_knowledge(self):
        model = AvailabilityModel(distance=0)
        assert model.value_visible(produced_at=10, fetch_at=10)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            AvailabilityModel(distance=-1)

    def test_coverage_keys(self):
        from tests.test_trace import sample_trace

        coverage = AvailabilityModel(4).coverage(sample_trace())
        assert set(coverage) == {
            "distance",
            "guard_known",
            "guard_known_false",
            "region_guard_known",
            "region_guard_known_false",
        }
        assert 0.0 <= coverage["guard_known_false"] <= 1.0


class TestGlobalHistory:
    def test_shift_and_mask(self):
        history = GlobalHistory(4)
        for bit in (True, False, True, True):
            history.shift(bit)
        assert history.value == 0b1011
        history.shift(True)
        assert history.value == 0b0111  # oldest bit fell off

    def test_snapshot_restore(self):
        history = GlobalHistory(8)
        history.shift(True)
        saved = history.snapshot()
        history.shift(False)
        history.restore(saved)
        assert history.value == saved

    def test_length_bounds(self):
        with pytest.raises(ValueError):
            GlobalHistory(0)
        with pytest.raises(ValueError):
            GlobalHistory(65)


class TestCostModel:
    def test_cycles_formula(self):
        model = CostModel(fetch_width=4, misprediction_penalty=10)
        assert model.cycles(100, 0) == 25
        assert model.cycles(100, 3) == 55
        assert model.cycles(101, 0) == 26  # ceil division

    def test_ipc_and_speedup(self):
        model = CostModel(fetch_width=4, misprediction_penalty=10)
        assert model.ipc(100, 0) == pytest.approx(4.0)
        # Fewer mispredictions on the same instruction count: speedup > 1.
        assert (
            model.speedup(100, 10, 100, 0) == pytest.approx(125 / 25)
        )

    def test_if_conversion_tradeoff(self):
        # More instructions but fewer mispredictions can still win.
        model = CostModel(fetch_width=6, misprediction_penalty=10)
        base = model.cycles(600, 30)  # 100 + 300 = 400
        hyper = model.cycles(900, 5)  # 150 + 50 = 200
        assert base / hyper == pytest.approx(2.0)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(BTBConfig(sets=4, ways=2))
        assert btb.lookup(100) is None
        btb.insert(100, 555)
        assert btb.lookup(100) == 555
        assert btb.hits == 1 and btb.misses == 1

    def test_update_existing_entry(self):
        btb = BranchTargetBuffer(BTBConfig(sets=4, ways=2))
        btb.insert(100, 1)
        btb.insert(100, 2)
        assert btb.lookup(100) == 2

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(BTBConfig(sets=1, ways=2))
        btb.insert(0, 10)
        btb.insert(1, 11)
        btb.lookup(0)        # 0 becomes MRU
        btb.insert(2, 12)    # evicts 1
        assert btb.lookup(0) == 10
        assert btb.lookup(1) is None
        assert btb.lookup(2) == 12

    def test_set_conflicts_only_within_set(self):
        btb = BranchTargetBuffer(BTBConfig(sets=2, ways=1))
        btb.insert(0, 10)   # set 0
        btb.insert(1, 11)   # set 1
        assert btb.lookup(0) == 10
        assert btb.lookup(1) == 11

    def test_rejects_bad_geometry(self):
        import pytest
        with pytest.raises(ValueError):
            BTBConfig(sets=3, ways=2)
        with pytest.raises(ValueError):
            BTBConfig(sets=4, ways=0)

    def test_misfetch_penalty_in_cost_model(self):
        model = CostModel(fetch_width=4, misprediction_penalty=10,
                          misfetch_penalty=2)
        assert model.cycles(100, 1, 3) == 25 + 10 + 6


class TestFetchSim:
    def _trace_and_flags(self, branches, instructions, correct=None):
        from repro.isa.opcodes import BranchKind
        from repro.sim.driver import BranchFlags
        from repro.trace.container import Trace, TraceMeta
        import numpy as np

        trace = Trace.from_lists(
            b_pc=[b[0] for b in branches],
            b_idx=[b[1] for b in branches],
            b_taken=[b[2] for b in branches],
            b_guard=[0] * len(branches),
            b_guard_def=[-1] * len(branches),
            b_kind=[int(BranchKind.COND)] * len(branches),
            b_region=[False] * len(branches),
            b_target=[0] * len(branches),
            d_pc=[], d_idx=[], d_value=[], d_pred=[],
            meta=TraceMeta(instructions=instructions),
        )
        n = len(branches)
        correct = [True] * n if correct is None else correct
        flags = BranchFlags(
            correct=np.asarray(correct, dtype=bool),
            squashed=np.zeros(n, dtype=bool),
            misfetch=np.zeros(n, dtype=bool),
        )
        return trace, flags

    def test_straight_line_counts_fetch_cycles_only(self):
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend

        trace, flags = self._trace_and_flags([], instructions=60)
        result = simulate_frontend(trace, flags, FetchModel(width=6))
        assert result.cycles == 10
        assert result.ipc == 6.0

    def test_taken_branch_fragments_fetch(self):
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend

        # 1 taken branch at idx 2 splits 12 instructions into 3 + 9:
        # ceil(3/6) + ceil(9/6) = 1 + 2, plus one redirect bubble.
        trace, flags = self._trace_and_flags(
            [(1, 2, True)], instructions=12
        )
        result = simulate_frontend(trace, flags, FetchModel(width=6))
        assert result.fetch_cycles == 3
        assert result.bubble_cycles == 1

    def test_not_taken_correct_does_not_fragment(self):
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend

        trace, flags = self._trace_and_flags(
            [(1, 2, False)], instructions=12
        )
        result = simulate_frontend(trace, flags, FetchModel(width=6))
        assert result.fetch_cycles == 2
        assert result.bubble_cycles == 0

    def test_mispredict_charges_penalty(self):
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend

        trace, flags = self._trace_and_flags(
            [(1, 2, False)], instructions=12, correct=[False]
        )
        result = simulate_frontend(trace, flags, FetchModel(width=6))
        assert result.mispredict_cycles == 10

    def test_flags_length_mismatch_rejected(self):
        import pytest
        from repro.pipeline.fetchsim import FetchModel, simulate_frontend

        trace, _ = self._trace_and_flags([(1, 2, True)], instructions=12)
        _, empty_flags = self._trace_and_flags([], instructions=12)
        with pytest.raises(ValueError):
            simulate_frontend(trace, empty_flags, FetchModel())

    def test_bad_width_rejected(self):
        import pytest
        from repro.pipeline.fetchsim import FetchModel

        with pytest.raises(ValueError):
            FetchModel(width=0)

    def test_bad_penalty_rejected(self):
        import pytest
        from repro.pipeline.fetchsim import FetchModel

        for field in ("mispredict_penalty", "misfetch_penalty",
                      "taken_bubble"):
            for value in (-1, 1.5, 2.0, "2"):
                with pytest.raises(ValueError):
                    FetchModel(**{field: value})
            assert getattr(FetchModel(**{field: 0}), field) == 0
