"""Unit tests for trace containers, masks, and the disk cache."""

import numpy as np
import pytest

from repro.isa.opcodes import BranchKind
from repro.trace import Trace, TraceCache, TraceMeta, TraceRecorder
from repro.trace.container import BranchClass


def sample_trace():
    recorder = TraceRecorder()
    recorder.record_branch(10, 100, True, 1, 90, int(BranchKind.COND),
                           False, 50)
    recorder.record_branch(20, 200, False, 2, 150, int(BranchKind.EXIT),
                           True, 60)
    recorder.record_branch(30, 300, True, 0, -1, int(BranchKind.LOOP),
                           False, 5)
    recorder.record_pdef(5, 90, True, 1)
    recorder.record_pdef(6, 150, False, 2)
    return recorder.finish(
        TraceMeta(workload="demo", scale="tiny", instructions=400,
                  return_value=7)
    )


class TestContainer:
    def test_counts(self):
        trace = sample_trace()
        assert trace.num_branches == 3
        assert trace.num_pdefs == 2
        assert trace.taken_rate() == pytest.approx(2 / 3)

    def test_branch_classes(self):
        classes = sample_trace().branch_classes()
        assert list(classes) == [
            BranchClass.NORMAL, BranchClass.REGION, BranchClass.LOOP
        ]

    def test_guard_known_false_requires_all_conditions(self):
        trace = sample_trace()
        mask = trace.guard_known_false(10)
        # Branch 0: taken -> no. Branch 1: NT, guard!=p0, distance 50 -> yes.
        # Branch 2: guard p0 -> no.
        assert list(mask) == [False, True, False]

    def test_distance_threshold(self):
        trace = sample_trace()
        assert list(trace.guard_known(10)) == [True, True, False]
        assert list(trace.guard_known(51)) == [False, False, False]

    def test_summary_fields(self):
        summary = sample_trace().summary()
        assert summary["branches"] == 3
        assert summary["region_fraction"] == pytest.approx(1 / 3)
        assert summary["pdefs_per_100_instrs"] == pytest.approx(0.5)

    def test_empty_trace(self):
        trace = TraceRecorder().finish(TraceMeta())
        assert trace.num_branches == 0
        assert trace.taken_rate() == 0.0
        assert trace.summary()["region_fraction"] == 0.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.meta.workload == "demo"
        assert loaded.meta.instructions == 400
        assert loaded.meta.return_value == 7
        np.testing.assert_array_equal(loaded.b_pc, trace.b_pc)
        np.testing.assert_array_equal(loaded.b_taken, trace.b_taken)
        np.testing.assert_array_equal(loaded.d_idx, trace.d_idx)


TRACE_FIELDS = (
    "b_pc", "b_idx", "b_taken", "b_guard", "b_guard_def", "b_kind",
    "b_region", "b_target", "d_pc", "d_idx", "d_value", "d_pred",
)


def assert_same_trace(a, b):
    for name in TRACE_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert a.meta.workload == b.meta.workload
    assert a.meta.scale == b.meta.scale
    assert a.meta.compile_config == b.meta.compile_config
    assert a.meta.instructions == b.meta.instructions
    assert a.meta.return_value == b.meta.return_value


def savez_level6(trace, path):
    """A trace file as earlier versions wrote it."""
    np.savez_compressed(
        path,
        **{name: getattr(trace, name) for name in TRACE_FIELDS},
        meta_workload=np.array(trace.meta.workload),
        meta_scale=np.array(trace.meta.scale),
        meta_config=np.array(trace.meta.compile_config),
        meta_instructions=np.array(trace.meta.instructions),
        meta_return=np.array(trace.meta.return_value),
    )


@pytest.fixture(scope="module")
def workload_trace():
    from repro.workloads import get_workload

    return get_workload("crc").trace(scale="tiny", use_cache=False)


class TestTraceFiles:
    def test_level1_roundtrip(self, tmp_path, workload_trace):
        path = tmp_path / "t.npz"
        workload_trace.save(path)
        assert_same_trace(Trace.load(path), workload_trace)

    def test_level1_members_are_deflated_npy(self, tmp_path):
        import zipfile

        path = tmp_path / "t.npz"
        sample_trace().save(path)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert {i.filename for i in infos} >= {
            f"{name}.npy" for name in TRACE_FIELDS
        }
        assert {i.compress_type for i in infos} == {zipfile.ZIP_DEFLATED}
        with np.load(path) as data:  # plain numpy reads it too
            np.testing.assert_array_equal(data["b_pc"], [10, 20, 30])

    def test_savez_compressed_file_still_loads(self, tmp_path,
                                               workload_trace):
        path = tmp_path / "old.npz"
        savez_level6(workload_trace, path)
        assert_same_trace(Trace.load(path), workload_trace)

    def test_members_decode_like_numpy(self, tmp_path, workload_trace):
        import io
        import zipfile

        from repro.trace.container import _read_npy

        for save in (savez_level6, Trace.save):
            path = tmp_path / "t.npz"
            save(workload_trace, path)
            with np.load(path) as expected, zipfile.ZipFile(path) as archive:
                for name in expected.files:
                    got = _read_npy(archive.read(f"{name}.npy"))
                    want = expected[name]
                    assert (got.dtype, got.shape) == (want.dtype, want.shape)
                    np.testing.assert_array_equal(got, want)
                    assert got.flags.writeable
        # A header outside the matched form goes through numpy's reader.
        for array in (np.arange(6).reshape(2, 3), np.array([None, 1])):
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, array)
            if array.dtype == object:
                with pytest.raises(ValueError):
                    _read_npy(buffer.getvalue())
            else:
                np.testing.assert_array_equal(
                    _read_npy(buffer.getvalue()), array
                )

    def test_level1_size_within_bound(self, tmp_path, workload_trace):
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        savez_level6(workload_trace, old)
        workload_trace.save(new)
        assert new.stat().st_size <= 1.2 * old.stat().st_size

    def test_truncated_level1_file_is_a_miss(self, tmp_path,
                                             workload_trace):
        cache = TraceCache(tmp_path)
        cache.put("key", workload_trace)
        path = cache.key_path("key")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get("key") is None
        assert not path.exists()
        assert cache.misses == 1


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = TraceCache(tmp_path)
        assert cache.get("key1") is None
        built = []

        def builder():
            built.append(1)
            return sample_trace()

        first = cache.get_or_build("key1", builder)
        second = cache.get_or_build("key1", builder)
        assert built == [1]  # second call hit the cache
        assert second.num_branches == first.num_branches

    def test_keys_are_isolated(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("a", sample_trace())
        assert cache.get("b") is None

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache.key_path("bad")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz")
        assert cache.get("bad") is None
        assert not path.exists()  # cleaned up

    def test_clear(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.put("a", sample_trace())
        cache.put("b", sample_trace())
        assert cache.clear() == 2
        assert cache.get("a") is None
