"""Unit tests for every predictor and the counter primitive."""

import pytest

from repro.predictors import (
    BimodalPredictor,
    GSelectPredictor,
    GSharePredictor,
    LocalPredictor,
    PGUConfig,
    PerceptronPredictor,
    PerfectPredictor,
    SFPConfig,
    SaturatingCounters,
    StaticPredictor,
    TournamentPredictor,
    available_predictors,
    make_predictor,
)


class TestSaturatingCounters:
    def test_init_weakly_not_taken(self):
        counters = SaturatingCounters(16)
        assert not counters.predict(0)

    def test_training_and_saturation(self):
        counters = SaturatingCounters(16)
        counters.update(3, True)
        assert counters.predict(3)  # 1 -> 2: weakly taken
        for _ in range(10):
            counters.update(3, True)
        counters.update(3, False)
        assert counters.predict(3)  # saturated at 3, one miss keeps taken
        counters.update(3, False)
        assert not counters.predict(3)

    def test_index_masking(self):
        counters = SaturatingCounters(8)
        counters.update(8, True)  # aliases to index 0
        counters.update(8, True)
        assert counters.predict(0)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SaturatingCounters(10)
        with pytest.raises(ValueError):
            SaturatingCounters(0)
        with pytest.raises(ValueError):
            SaturatingCounters(8, init=5)

    def test_storage_bits(self):
        assert SaturatingCounters(1024).storage_bits == 2048


class TestStatic:
    def test_policies(self):
        taken = StaticPredictor("taken")
        assert taken.predict(10, 0)
        not_taken = StaticPredictor("not_taken")
        assert not not_taken.predict(10, 0)
        btfn = StaticPredictor("btfn")
        btfn.set_target(5)
        assert btfn.predict(10, 0)  # backward: predict taken
        btfn.set_target(20)
        assert not btfn.predict(10, 0)  # forward: not taken

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            StaticPredictor("coin-flip")


class TestBimodal:
    def test_learns_per_pc_bias(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(7, 0, True)
            predictor.update(9, 0, False)
        assert predictor.predict(7, 0)
        assert not predictor.predict(9, 0)

    def test_ignores_history(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(7, 0, True)
        assert predictor.predict(7, 12345) == predictor.predict(7, 0)

    def test_reset(self):
        predictor = BimodalPredictor(entries=64)
        for _ in range(4):
            predictor.update(7, 0, True)
        predictor.reset()
        assert not predictor.predict(7, 0)


class TestGShare:
    def test_learns_history_correlation(self):
        predictor = GSharePredictor(entries=256)
        # Outcome = parity of history bit 0; bimodal cannot learn this,
        # gshare can (different history -> different counter).
        for _ in range(50):
            predictor.update(5, 0b0, True)
            predictor.update(5, 0b1, False)
        assert predictor.predict(5, 0b0)
        assert not predictor.predict(5, 0b1)

    def test_history_mask(self):
        predictor = GSharePredictor(entries=16, history_bits=2)
        assert predictor._index(0, 0b1111) == predictor._index(0, 0b0011)

    def test_storage_accounting(self):
        assert GSharePredictor(entries=4096).storage_bits == 8192


class TestGSelect:
    def test_concatenated_index(self):
        predictor = GSelectPredictor(entries=256, history_bits=4)
        index = predictor._index(pc=0b1111, history=0b1010)
        assert index == (0b1111 << 4) | 0b1010

    def test_rejects_oversized_history(self):
        with pytest.raises(ValueError):
            GSelectPredictor(entries=16, history_bits=10)


class TestLocal:
    def test_learns_short_period_pattern(self):
        # Period-2 pattern T,N,T,N per branch: local history nails it.
        predictor = LocalPredictor(entries=1024, local_entries=64,
                                   history_bits=8)
        outcome = True
        for _ in range(100):
            predictor.update(33, 0, outcome)
            outcome = not outcome
        # After training, prediction should continue the alternation.
        hits = 0
        for _ in range(10):
            predicted = predictor.predict(33, 0)
            if predicted == outcome:
                hits += 1
            predictor.update(33, 0, outcome)
            outcome = not outcome
        assert hits >= 9

    def test_rejects_bad_local_entries(self):
        with pytest.raises(ValueError):
            LocalPredictor(local_entries=100)


class TestTournament:
    def test_chooser_picks_better_component(self):
        predictor = TournamentPredictor(entries=256)
        # Alternating global pattern: gshare (component b) learns it,
        # and the chooser should migrate toward b for this pc.
        history = 0
        outcome = True
        for _ in range(200):
            predictor.update(11, history, outcome)
            history = ((history << 1) | outcome) & 0xFFFFFFFF
            outcome = not outcome
        hits = 0
        for _ in range(20):
            predicted = predictor.predict(11, history)
            hits += predicted == outcome
            predictor.update(11, history, outcome)
            history = ((history << 1) | outcome) & 0xFFFFFFFF
            outcome = not outcome
        assert hits >= 18

    def test_storage_sums_components(self):
        predictor = TournamentPredictor(entries=64)
        assert predictor.storage_bits > 2 * 64


class TestPerceptron:
    def test_learns_single_bit_correlation(self):
        predictor = PerceptronPredictor(entries=64, history_bits=8)
        for _ in range(64):
            predictor.update(3, 0b1, True)
            predictor.update(3, 0b0, False)
        assert predictor.predict(3, 0b1)
        assert not predictor.predict(3, 0b0)

    def test_weights_saturate(self):
        predictor = PerceptronPredictor(entries=4, history_bits=4,
                                        weight_bits=4)
        for _ in range(100):
            predictor.update(0, 0b1111, True)
        limit = predictor.weight_limit
        assert all(abs(w) <= limit for w in predictor.weights[0])

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            PerceptronPredictor(entries=3)


class TestPerfect:
    def test_always_right(self):
        predictor = PerfectPredictor()
        for outcome in (True, False, True, True):
            predictor.set_outcome(outcome)
            assert predictor.predict(0, 0) == outcome


class TestRegistry:
    def test_all_names_construct(self):
        for name in available_predictors():
            predictor = make_predictor(name)
            assert predictor.name

    def test_kwargs_forwarded(self):
        predictor = make_predictor("gshare", entries=128)
        assert predictor.entries == 128

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_predictor("oracle-9000")

    def test_every_name_accepts_entries(self):
        for name in available_predictors():
            assert make_predictor(name, entries=256).name

    def test_tage_entries_size_base_and_tagged_tables(self):
        predictor = make_predictor("tage", entries=1024)
        assert predictor.base_entries == 1024
        assert predictor.table_entries == 256
        assert make_predictor("tage", entries=128).table_entries == 64
        # Explicit sizes win over the entries mapping.
        assert make_predictor(
            "tage", entries=1024, table_entries=128
        ).table_entries == 128


class TestMechanismConfigs:
    def test_sfp_describe(self):
        assert "filter-pht" in SFPConfig().describe()
        assert "train-pht" in SFPConfig(update_pht=True).describe()

    def test_pgu_validation(self):
        with pytest.raises(ValueError):
            PGUConfig(which="everything")
        assert "guards_only" in PGUConfig(which="guards_only").describe()
        assert "delay=D" in PGUConfig().describe()
        assert "delay=0" in PGUConfig(delay=0).describe()


class TestTage:
    def make(self):
        from repro.predictors.tage import TagePredictor
        return TagePredictor(base_entries=256, table_entries=64,
                             num_tables=3, min_history=2, max_history=16)

    def test_geometric_history_lengths(self):
        predictor = self.make()
        lengths = predictor.history_lengths
        assert lengths == sorted(lengths)
        assert lengths[0] < lengths[-1]

    def test_base_predictor_without_allocations(self):
        predictor = self.make()
        for _ in range(4):
            predictor.update(5, 0, True)
        assert predictor.predict(5, 0)

    def test_allocates_on_history_correlation(self):
        predictor = self.make()
        # Outcome = bit 0 of history; the base predictor cannot learn
        # this, tagged components can.
        for _ in range(300):
            predictor.update(9, 0b0, False)
            predictor.update(9, 0b1, True)
        assert predictor.predict(9, 0b1)
        assert not predictor.predict(9, 0b0)

    def test_long_history_pattern(self):
        predictor = self.make()
        # Outcome depends on a bit 8 back: needs the longer tables.
        for _ in range(400):
            predictor.update(3, 0b100000000, True)
            predictor.update(3, 0b000000000, False)
        assert predictor.predict(3, 0b100000000)
        assert not predictor.predict(3, 0b000000000)

    def test_reset_restores_fresh_state(self):
        predictor = self.make()
        for _ in range(50):
            predictor.update(7, 0b1, True)
        predictor.reset()
        assert predictor.storage_bits > 0

    def test_fold_utility(self):
        from repro.predictors.tage import _fold
        assert _fold(0, 8) == 0
        assert _fold(0b1111, 2) in range(4)
        assert _fold(123456789, 8) == _fold(123456789, 8)
