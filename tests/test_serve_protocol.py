"""Protocol layer: canonicalization, validation, the memoization key.

The contract under test: a request key is a pure function of the
*logical* request — field order, explicitly-spelled defaults, duplicated
or re-ordered sweep axes all collapse to the same key — and the stub it
hashes is shaped exactly like the payload a ``--record``-ed CLI run
writes, minus metrics, so daemon and serial runs share run ids.
"""

import pytest

from repro.predictors import (
    PGUConfig,
    SFPConfig,
    available_predictors,
    make_predictor,
)
from repro.profiler.spec import ProfileSpec
from repro.runstore.record import SCHEMA_VERSION, RunRecord, request_key
from repro.serve.protocol import (
    MAX_SWEEP_POINTS,
    ProtocolError,
    RequestControls,
    canonicalize,
    job_response,
    parse_controls,
    predictor_description,
)
from repro.sim.driver import SimOptions


def canon(op="simulate", **body):
    return canonicalize(op, body)


class TestSimulateCanonicalization:
    def test_defaults_and_explicit_defaults_share_a_key(self):
        implicit = canon(workload="crc")
        explicit = canon(
            workload="crc", predictor="gshare", entries=4096,
            scale="small", distance=4, sfp=False, pgu=False,
            baseline=False,
        )
        assert implicit.request_key == explicit.request_key
        assert implicit.stub == explicit.stub

    def test_controls_never_change_the_key(self):
        plain = canon(workload="crc")
        steered = canon(workload="crc", priority=0, client="alice",
                        wait=False, timeout=5)
        assert plain.request_key == steered.request_key

    def test_distinct_requests_get_distinct_keys(self):
        base = canon(workload="crc")
        assert canon(workload="qsort").request_key != base.request_key
        assert canon(workload="crc", entries=8192).request_key \
            != base.request_key
        assert canon(workload="crc", sfp=True).request_key \
            != base.request_key
        assert canon(workload="crc", scale="tiny").request_key \
            != base.request_key

    def test_stub_matches_record_payload_minus_metrics(self):
        """The stub must be byte-compatible with RunRecord.payload()."""
        spec = canon(workload="crc", scale="tiny")
        record = RunRecord(
            kind=spec.kind, label=spec.label,
            scale=spec.stub["scale"],
            compile_config=spec.stub["compile_config"],
            matrix=spec.stub["matrix"],
            metrics={"crc.mpki": 1.0},
        )
        payload = record.payload()
        payload.pop("metrics")
        assert payload == spec.stub
        assert record.request_key() == spec.request_key

    def test_matrix_mirrors_the_cli_shape(self):
        spec = canon(workload="crc", sfp=True, pgu=True, distance=8)
        matrix = spec.stub["matrix"]
        assert matrix["workload"] == "crc"
        assert "gshare" in matrix["predictor"]
        assert set(matrix) == {"workload", "predictor", "frontend"}

    def test_baseline_switches_compile_config(self):
        assert canon(workload="crc").stub["compile_config"] \
            == "hyperblock"
        assert canon(workload="crc", baseline=True) \
            .stub["compile_config"] == "baseline"


class TestProfileCanonicalization:
    def test_profile_key_differs_from_simulate(self):
        sim = canon("simulate", workload="crc")
        prof = canon("profile", workload="crc")
        assert sim.request_key != prof.request_key
        assert prof.kind == "profile"
        assert "profile" in prof.stub["matrix"]

    def test_rate_and_seed_are_part_of_the_key(self):
        a = canon("profile", workload="crc", rate=1, seed=0)
        b = canon("profile", workload="crc", rate=2, seed=0)
        c = canon("profile", workload="crc", rate=1, seed=7)
        assert len({a.request_key, b.request_key, c.request_key}) == 3


class TestSweepCanonicalization:
    def test_axis_order_and_duplicates_collapse(self):
        a = canon("sweep", workloads=["qsort", "crc"],
                  predictors=["gshare", "bimodal"])
        b = canon("sweep", workloads=["crc", "qsort", "crc"],
                  predictors=["bimodal", "gshare", "bimodal"])
        assert a.request_key == b.request_key
        assert a.spec == b.spec

    def test_string_and_dict_predictors_are_equivalent(self):
        a = canon("sweep", workloads=["crc"], predictors=["gshare"])
        b = canon("sweep", workloads=["crc"],
                  predictors=[{"name": "gshare", "entries": 4096}])
        assert a.request_key == b.request_key

    def test_grid_cap(self):
        workloads = ["crc", "qsort", "grep", "life"]
        predictors = [
            {"name": "gshare", "entries": 1 << n} for n in range(4, 9)
        ]
        options = [{"distance": d} for d in range(4)]
        assert len(workloads) * len(predictors) * len(options) \
            > MAX_SWEEP_POINTS
        with pytest.raises(ProtocolError) as err:
            canon("sweep", workloads=workloads, predictors=predictors,
                  options=options)
        assert err.value.status == 413
        assert err.value.code == "grid_too_large"

    def test_missing_workloads_rejected(self):
        with pytest.raises(ProtocolError) as err:
            canon("sweep", predictors=["gshare"])
        assert err.value.code == "bad_type"


class TestValidation:
    def test_unknown_workload_is_404(self):
        with pytest.raises(ProtocolError) as err:
            canon(workload="no-such-workload")
        assert err.value.status == 404
        assert err.value.code == "unknown_workload"

    def test_unknown_predictor_is_404(self):
        with pytest.raises(ProtocolError) as err:
            canon(workload="crc", predictor="oracle")
        assert err.value.status == 404
        assert err.value.code == "unknown_predictor"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as err:
            canon(workload="crc", wrokload="crc")
        assert err.value.code == "unknown_field"
        assert "wrokload" in str(err.value)

    def test_bad_types_rejected(self):
        for body in (
            {"workload": 7},
            {"workload": "crc", "entries": "many"},
            {"workload": "crc", "entries": True},
            {"workload": "crc", "sfp": "yes"},
        ):
            with pytest.raises(ProtocolError):
                canonicalize("simulate", body)

    def test_out_of_range_rejected(self):
        with pytest.raises(ProtocolError) as err:
            canon(workload="crc", entries=0)
        assert err.value.code == "out_of_range"

    def test_non_object_body_rejected(self):
        with pytest.raises(ProtocolError):
            canonicalize("simulate", ["crc"])

    def test_unknown_operation_is_404(self):
        with pytest.raises(ProtocolError) as err:
            canonicalize("train", {"workload": "crc"})
        assert err.value.status == 404
        assert err.value.code == "unknown_operation"


class TestControls:
    def test_defaults(self):
        assert parse_controls({}) == RequestControls()

    def test_parsing(self):
        controls = parse_controls(
            {"priority": 1, "client": "ci", "wait": False,
             "timeout": 2.5}
        )
        assert controls == RequestControls(
            priority=1, client="ci", wait=False, timeout=2.5
        )

    def test_priority_range_enforced(self):
        with pytest.raises(ProtocolError):
            parse_controls({"priority": 10})
        with pytest.raises(ProtocolError):
            parse_controls({"priority": -1})

    def test_client_length_capped(self):
        with pytest.raises(ProtocolError):
            parse_controls({"client": "x" * 65})


class TestJobResponse:
    def test_cached_is_the_only_difference(self):
        spec = canon(workload="crc", scale="tiny")
        metrics = {"crc.mpki": 1.25}
        fresh = job_response(spec.stub, metrics, "abc123", cached=False,
                             sim_core="object")
        hit = job_response(spec.stub, metrics, "abc123", cached=True,
                           sim_core="object")
        assert fresh.pop("cached") is False
        assert hit.pop("cached") is True
        assert fresh == hit

    def test_request_key_rides_in_the_body(self):
        spec = canon(workload="crc")
        body = job_response(spec.stub, {}, "abc", cached=False)
        assert body["request_key"] == spec.request_key
        assert body["request_key"] == request_key(spec.stub)


class TestRunIdsCannotMove:
    """The memoized predictor description is exactly a fresh build's, so
    request keys (and hence run ids) are what they were when every
    request built its predictor."""

    # perceptron at MAX_ENTRIES would allocate 4M weight rows.
    @pytest.mark.parametrize("entries", [64, 4096, 65536])
    @pytest.mark.parametrize("name", available_predictors())
    def test_description_matches_a_fresh_build(self, name, entries):
        fresh = make_predictor(name, entries=entries).describe()
        assert predictor_description(name, entries) == fresh
        assert predictor_description(name, entries) == fresh  # memoized

    @staticmethod
    def reference_stub(kind, label, matrix, scale="tiny"):
        return {
            "schema": SCHEMA_VERSION, "kind": kind, "label": label,
            "scale": scale, "compile_config": "hyperblock",
            "matrix": matrix,
        }

    def test_simulate_key(self):
        body = {"workload": "crc", "predictor": "perceptron",
                "entries": 256, "scale": "tiny", "distance": 2,
                "sfp": True}
        matrix = {
            "workload": "crc",
            "predictor": make_predictor(
                "perceptron", entries=256).describe(),
            "frontend": SimOptions(
                distance=2, sfp=SFPConfig()).describe(),
        }
        assert canon(**body).request_key == request_key(
            self.reference_stub("simulate", "crc", matrix)
        )

    def test_profile_key(self):
        body = {"workload": "qsort", "predictor": "tage",
                "entries": 1024, "scale": "tiny", "pgu": True,
                "rate": 4, "seed": 7}
        matrix = {
            "workload": "qsort",
            "predictor": make_predictor("tage", entries=1024).describe(),
            "frontend": SimOptions(
                distance=4, pgu=PGUConfig()).describe(),
            "profile": ProfileSpec(rate=4, seed=7).describe(),
        }
        assert canon("profile", **body).request_key == request_key(
            self.reference_stub("profile", "qsort", matrix)
        )

    def test_sweep_key(self):
        body = {
            "workloads": ["qsort", "crc"],
            "predictors": ["gshare", {"name": "tournament",
                                      "entries": 1024}],
            "options": [{"sfp": True}, {"distance": 8, "pgu": True}],
            "scale": "tiny",
        }
        matrix = {
            "workloads": ["crc", "qsort"],
            "predictors": [
                make_predictor("gshare", entries=4096).describe(),
                make_predictor("tournament", entries=1024).describe(),
            ],
            "frontend": [
                SimOptions(distance=4, sfp=SFPConfig()).describe(),
                SimOptions(distance=8, pgu=PGUConfig()).describe(),
            ],
        }
        assert canon("sweep", **body).request_key == request_key(
            self.reference_stub("sweep", "sweep", matrix)
        )
