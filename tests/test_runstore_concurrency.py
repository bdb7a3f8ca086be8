"""Concurrent-writer safety for the run-history store.

The daemon turns the store into a shared result cache: several
processes (pool workers of one daemon, or several daemons pointed at
one store) can finish the *same* memoized job at the same moment and
publish records with the same run id.  ``RunStore.add`` must make that
race benign:

* ``if_exists="skip"`` — first writer wins, exactly one file, and
  the writers share one ``.lock`` file in the store root;
* ``if_exists="append"`` — the historical default keeps every copy.
"""

import multiprocessing

import pytest

from repro.runstore import IF_EXISTS, RunRecord, RunStore, utc_timestamp


def make_record(epoch=1000.0, mpki=1.5):
    record = RunRecord(
        kind="simulate", label="crc", scale="tiny",
        metrics={"crc.mpki": mpki},
    )
    record.timestamp = utc_timestamp(epoch)
    record.git = {"sha": "f" * 40, "dirty": False}
    return record.seal()


def _race_writer(root, policy, barrier, epoch):
    """Child-process body: publish one record, synchronized start."""
    record = make_record(epoch=epoch)
    store = RunStore(root)
    barrier.wait()
    for _ in range(20):
        store.add(record, if_exists=policy)


class TestPolicies:
    def test_append_keeps_every_copy(self, tmp_path):
        store = RunStore(tmp_path)
        a, b = make_record(epoch=1000.0), make_record(epoch=2000.0)
        assert a.run_id == b.run_id
        store.add(a)
        store.add(b)
        assert len(store.paths_for(a.run_id)) == 2

    def test_skip_is_first_writer_wins(self, tmp_path):
        store = RunStore(tmp_path)
        first = make_record(epoch=1000.0)
        later = make_record(epoch=2000.0)
        path = store.add(first, if_exists="skip")
        again = store.add(later, if_exists="skip")
        assert again == path  # the existing file, nothing written
        assert len(store.paths_for(first.run_id)) == 1
        assert store.find(first.run_id).timestamp == first.timestamp

    def test_policies_only_collapse_identical_content(self, tmp_path):
        store = RunStore(tmp_path)
        a = make_record(mpki=1.5)
        b = make_record(mpki=1.6)
        assert a.run_id != b.run_id
        store.add(a, if_exists="skip")
        store.add(b, if_exists="skip")
        assert len(store.paths()) == 2

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="if_exists"):
            RunStore(tmp_path).add(make_record(), if_exists="upsert")
        with pytest.raises(ValueError, match="if_exists"):
            RunStore(tmp_path).add(make_record(), if_exists="replace")
        assert set(IF_EXISTS) == {"append", "skip"}

    def test_lookup_helpers(self, tmp_path):
        store = RunStore(tmp_path)
        record = make_record()
        assert not store.contains(record.run_id)
        assert store.find(record.run_id) is None
        store.add(record)
        assert store.contains(record.run_id)
        assert store.find(record.run_id).run_id == record.run_id


class TestTwoProcessRace:
    """The satellite's acceptance test: two real processes racing."""

    @pytest.mark.parametrize("policy", ["skip"])
    def test_racing_writers_leave_exactly_one_record(
        self, tmp_path, policy
    ):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_race_writer,
                args=(str(tmp_path), policy, barrier, epoch),
            )
            for epoch in (1000.0, 2000.0)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120.0)
            assert process.exitcode == 0
        store = RunStore(tmp_path)
        run_id = make_record().run_id
        paths = store.paths_for(run_id)
        assert len(paths) == 1
        # The surviving file is valid and complete (no torn writes).
        assert store.find(run_id).metrics == {"crc.mpki": 1.5}
        # One shared lock file, no per-run-id leftovers.
        assert [p.name for p in tmp_path.iterdir()
                if p.name.startswith(".")] == [".lock"]

    def test_racing_append_writers_keep_both(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        writers = [
            context.Process(
                target=_race_writer,
                args=(str(tmp_path), "append", barrier, epoch),
            )
            for epoch in (1000.0, 2000.0)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120.0)
            assert process.exitcode == 0
        store = RunStore(tmp_path)
        # 20 adds per writer, two distinct timestamps -> two files
        # (same-name appends atomically overwrite identical content).
        assert len(store.paths_for(make_record().run_id)) == 2
        for record in store.records():
            assert record.metrics == {"crc.mpki": 1.5}
