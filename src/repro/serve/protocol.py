"""Request canonicalization: JSON bodies -> deterministic job specs.

The memoization contract of the service lives here.  An incoming
``POST /v1/simulate|sweep|profile`` body is validated and normalised
into a :class:`JobSpec` whose canonical ``spec`` dict is a pure function
of the *logical* request — field order, omitted defaults, duplicate or
re-ordered grid axes all collapse to the same spec.  From the spec the
protocol derives exactly the payload layer a ``--record``-ed CLI run
would write into the run-history store (same kind/label/scale/compile
config/matrix), so:

* ``request_key`` — the hash of that payload *minus metrics* — is
  identical between the daemon and the serial CLI for the same logical
  request, and an identical request short-circuits to a
  :class:`~repro.runstore.RunStore` lookup;
* the record a daemon miss eventually publishes is byte-identical
  (payload and hence ``run_id``) to the record ``repro simulate
  --record`` would have produced for the same request.

Validation failures raise :class:`ProtocolError` carrying the HTTP
status and a stable machine-readable ``code``; the server maps these
onto structured 4xx JSON bodies.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from repro.predictors import (
    PGUConfig,
    SFPConfig,
    available_predictors,
    make_predictor,
)
from repro.profiler.spec import ProfileSpec
from repro.runstore.record import SCHEMA_VERSION, request_key
from repro.sim.driver import SimOptions
from repro.workloads import workload_names
from repro.workloads.base import SCALES

#: Operations the service exposes as ``POST /v1/<op>``.
OPS = ("simulate", "sweep", "profile")

#: Priority range: 0 is most urgent, 9 least; default mid-range.
PRIORITY_MIN, PRIORITY_MAX, PRIORITY_DEFAULT = 0, 9, 5

#: Upper bounds keeping a single request's work (and the canonical
#: matrix documents) small enough for an interactive service.
MAX_ENTRIES = 1 << 22
MAX_DISTANCE = 256
MAX_SWEEP_POINTS = 64
MAX_CLIENT_CHARS = 64


class ProtocolError(ValueError):
    """A request failed validation; carries the HTTP mapping."""

    def __init__(self, message: str, status: int = 400,
                 code: str = "bad_request"):
        super().__init__(message)
        self.status = status
        self.code = code

    def to_dict(self) -> dict:
        return {
            "error": {"code": self.code, "message": str(self)},
            "status": self.status,
        }


@dataclass(frozen=True)
class JobSpec:
    """One canonicalized request, ready to queue, execute and memoize."""

    op: str  #: "simulate" / "sweep" / "profile"
    spec: dict  #: canonical, JSON-plain, deterministic job description
    #: payload layer minus metrics — what the finished record's payload
    #: will be once the executor fills metrics in
    stub: dict
    request_key: str  #: hash of ``stub``; the memoization key
    kind: str  #: RunRecord kind the result is stored under
    label: str


# -- field extraction ---------------------------------------------------------


def _require_object(body, what="request body") -> dict:
    if not isinstance(body, dict):
        raise ProtocolError(
            f"{what} must be a JSON object, got "
            f"{type(body).__name__}"
        )
    return body


def _unknown_fields(body: dict, allowed) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ProtocolError(
            f"unknown field(s): {', '.join(unknown)}",
            code="unknown_field",
        )


def _string(body, name, default=None, choices=None, required=False):
    if name not in body:
        if required:
            raise ProtocolError(f"missing required field {name!r}",
                                code="missing_field")
        return default
    value = body[name]
    if not isinstance(value, str):
        raise ProtocolError(
            f"field {name!r} must be a string, got "
            f"{type(value).__name__}", code="bad_type",
        )
    if choices is not None and value not in choices:
        raise ProtocolError(
            f"field {name!r}: unknown value {value!r}; choose from "
            f"{', '.join(sorted(choices))}", code="unknown_value",
        )
    return value


def _int(body, name, default, low, high):
    if name not in body:
        return default
    value = body[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            f"field {name!r} must be an integer, got "
            f"{type(value).__name__}", code="bad_type",
        )
    if not low <= value <= high:
        raise ProtocolError(
            f"field {name!r} must be in [{low}, {high}], got {value}",
            code="out_of_range",
        )
    return value


def _bool(body, name, default=False):
    if name not in body:
        return default
    value = body[name]
    if not isinstance(value, bool):
        raise ProtocolError(
            f"field {name!r} must be a boolean, got "
            f"{type(value).__name__}", code="bad_type",
        )
    return value


def _number(body, name, default, low, high):
    if name not in body:
        return default
    value = body[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            f"field {name!r} must be a number, got "
            f"{type(value).__name__}", code="bad_type",
        )
    if not low <= value <= high:
        raise ProtocolError(
            f"field {name!r} must be in [{low}, {high}], got {value}",
            code="out_of_range",
        )
    return float(value)


def _workload(body, name="workload") -> str:
    value = _string(body, name, required=True)
    if value not in workload_names():
        raise ProtocolError(
            f"unknown workload {value!r}", status=404,
            code="unknown_workload",
        )
    return value


def _predictor_name(value: str) -> str:
    if value not in available_predictors():
        raise ProtocolError(
            f"unknown predictor {value!r}; available: "
            f"{', '.join(available_predictors())}", status=404,
            code="unknown_predictor",
        )
    return value


# -- queue/transport controls (shared by all ops) -----------------------------

#: Fields that steer queueing and response delivery, not job identity.
#: ``traceparent`` is a control, not an axis: two requests differing
#: only in trace context are the same logical request and must share a
#: request_key (and hence a memo entry / coalesced job).
CONTROL_FIELDS = ("priority", "client", "wait", "timeout",
                  "traceparent")


@dataclass(frozen=True)
class RequestControls:
    """Per-request queue/transport knobs (never part of the job key)."""

    priority: int = PRIORITY_DEFAULT
    client: str = ""
    wait: bool = True
    timeout: Optional[float] = None  #: max seconds to block with wait
    traceparent: str = ""  #: W3C trace context to link spans under


def parse_controls(body: dict) -> RequestControls:
    client = _string(body, "client", default="")
    if len(client) > MAX_CLIENT_CHARS:
        raise ProtocolError(
            f"field 'client' longer than {MAX_CLIENT_CHARS} chars",
            code="out_of_range",
        )
    traceparent = _string(body, "traceparent", default="")
    if traceparent:
        from repro.telemetry.tracing import from_traceparent

        try:
            from_traceparent(traceparent)
        except ValueError as exc:
            raise ProtocolError(str(exc), code="bad_traceparent") from None
    return RequestControls(
        priority=_int(body, "priority", PRIORITY_DEFAULT,
                      PRIORITY_MIN, PRIORITY_MAX),
        client=client,
        wait=_bool(body, "wait", True),
        timeout=_number(body, "timeout", None, 0.001, 3600.0),
        traceparent=traceparent,
    )


# -- canonical simulate/profile axes ------------------------------------------


def _sim_fields(body: dict) -> dict:
    """The (workload, predictor, frontend) axes shared by simulate and
    profile requests, canonicalized to plain JSON values."""
    return {
        "workload": _workload(body),
        "predictor": _predictor_name(
            _string(body, "predictor", default="gshare")
        ),
        "entries": _int(body, "entries", 4096, 1, MAX_ENTRIES),
        "scale": _string(body, "scale", default="small", choices=SCALES),
        "distance": _int(body, "distance", 4, 0, MAX_DISTANCE),
        "sfp": _bool(body, "sfp"),
        "pgu": _bool(body, "pgu"),
        "baseline": _bool(body, "baseline"),
    }


def build_options(spec: dict) -> SimOptions:
    """The :class:`SimOptions` a canonical simulate/profile spec names."""
    return SimOptions(
        distance=spec["distance"],
        sfp=SFPConfig() if spec["sfp"] else None,
        pgu=PGUConfig() if spec["pgu"] else None,
    )


def build_predictor(spec: dict):
    """A fresh predictor instance for a canonical spec."""
    return make_predictor(spec["predictor"], entries=spec["entries"])


#: Distinct (predictor, entries) descriptions kept by
#: :func:`predictor_description`; far more than one grid names.
DESCRIPTIONS_KEPT = 256


@lru_cache(maxsize=DESCRIPTIONS_KEPT)
def predictor_description(name: str, entries: int) -> str:
    """``make_predictor(name, entries=entries).describe()``, memoized.

    The description is the matrix's predictor string and so part of
    every request key.  Building a predictor allocates no table (a
    perceptron makes each weight row on first touch), but it is still
    one construction per request, which a memoized hit need not pay.
    The predictor is built once per key, so the string is exactly the
    one a fresh build describes.
    """
    return make_predictor(name, entries=entries).describe()


def _compile_config(spec: dict) -> str:
    return "baseline" if spec["baseline"] else "hyperblock"


def _stub(kind: str, label: str, spec: dict, matrix: dict) -> dict:
    """Payload-minus-metrics, shaped exactly like
    :meth:`repro.runstore.RunRecord.payload`."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "label": label,
        "scale": spec["scale"],
        "compile_config": _compile_config(spec),
        "matrix": matrix,
    }


# -- per-op canonicalizers ----------------------------------------------------


def canonicalize_simulate(body: dict) -> JobSpec:
    """Mirror of the CLI's ``repro simulate <workload> --record``.

    The matrix (workload name + ``predictor.describe()`` +
    ``options.describe()``) is byte-identical to what
    ``cli._cmd_simulate`` records, which is what makes daemon and serial
    runs share run ids.
    """
    body = _require_object(body)
    _unknown_fields(
        body,
        ("workload", "predictor", "entries", "scale", "distance",
         "sfp", "pgu", "baseline") + CONTROL_FIELDS,
    )
    spec = dict(_sim_fields(body), op="simulate")
    matrix = {
        "workload": spec["workload"],
        "predictor": predictor_description(
            spec["predictor"], spec["entries"]
        ),
        "frontend": build_options(spec).describe(),
    }
    stub = _stub("simulate", spec["workload"], spec, matrix)
    return JobSpec(
        op="simulate", spec=spec, stub=stub,
        request_key=request_key(stub),
        kind="simulate", label=spec["workload"],
    )


def canonicalize_profile(body: dict) -> JobSpec:
    """Simulate plus deterministic misprediction attribution."""
    body = _require_object(body)
    _unknown_fields(
        body,
        ("workload", "predictor", "entries", "scale", "distance",
         "sfp", "pgu", "baseline", "rate", "seed") + CONTROL_FIELDS,
    )
    spec = dict(
        _sim_fields(body),
        op="profile",
        rate=_int(body, "rate", 1, 1, 1 << 20),
        seed=_int(body, "seed", 0, 0, 1 << 30),
    )
    matrix = {
        "workload": spec["workload"],
        "predictor": predictor_description(
            spec["predictor"], spec["entries"]
        ),
        "frontend": build_options(spec).describe(),
        "profile": ProfileSpec(
            rate=spec["rate"], seed=spec["seed"]
        ).describe(),
    }
    stub = _stub("profile", spec["workload"], spec, matrix)
    return JobSpec(
        op="profile", spec=spec, stub=stub,
        request_key=request_key(stub),
        kind="profile", label=spec["workload"],
    )


def _predictor_axis(body: dict) -> List[dict]:
    raw = body.get("predictors", [{"name": "gshare"}])
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "field 'predictors' must be a non-empty list",
            code="bad_type",
        )
    axis = []
    for item in raw:
        if isinstance(item, str):
            item = {"name": item}
        item = _require_object(item, "predictor entry")
        _unknown_fields(item, ("name", "entries"))
        axis.append({
            "name": _predictor_name(
                _string(item, "name", required=True)
            ),
            "entries": _int(item, "entries", 4096, 1, MAX_ENTRIES),
        })
    # Canonical order + dedup: re-ordered or repeated axes are the same
    # logical request, so they must hash identically.
    unique = {(p["name"], p["entries"]): p for p in axis}
    return [unique[key] for key in sorted(unique)]


def _options_axis(body: dict) -> List[dict]:
    raw = body.get("options", [{}])
    if not isinstance(raw, list) or not raw:
        raise ProtocolError(
            "field 'options' must be a non-empty list", code="bad_type",
        )
    axis = []
    for item in raw:
        item = _require_object(item, "options entry")
        _unknown_fields(item, ("distance", "sfp", "pgu"))
        axis.append({
            "distance": _int(item, "distance", 4, 0, MAX_DISTANCE),
            "sfp": _bool(item, "sfp"),
            "pgu": _bool(item, "pgu"),
        })
    unique = {
        (o["distance"], o["sfp"], o["pgu"]): o for o in axis
    }
    return [unique[key] for key in sorted(unique)]


def canonicalize_sweep(body: dict) -> JobSpec:
    """A (workloads x predictors x options) grid, run as one job."""
    body = _require_object(body)
    _unknown_fields(
        body,
        ("workloads", "predictors", "options", "scale", "baseline")
        + CONTROL_FIELDS,
    )
    raw_workloads = body.get("workloads")
    if not isinstance(raw_workloads, list) or not raw_workloads:
        raise ProtocolError(
            "field 'workloads' must be a non-empty list of workload "
            "names", code="bad_type",
        )
    workloads = []
    for name in raw_workloads:
        if not isinstance(name, str):
            raise ProtocolError(
                "field 'workloads' entries must be strings",
                code="bad_type",
            )
        if name not in workload_names():
            raise ProtocolError(
                f"unknown workload {name!r}", status=404,
                code="unknown_workload",
            )
        workloads.append(name)
    workloads = sorted(set(workloads))
    predictors = _predictor_axis(body)
    options = _options_axis(body)
    points = len(workloads) * len(predictors) * len(options)
    if points > MAX_SWEEP_POINTS:
        raise ProtocolError(
            f"sweep grid has {points} points; the service caps requests "
            f"at {MAX_SWEEP_POINTS} (split the grid across requests)",
            status=413, code="grid_too_large",
        )
    spec = {
        "op": "sweep",
        "workloads": workloads,
        "predictors": predictors,
        "options": options,
        "scale": _string(body, "scale", default="small",
                         choices=SCALES),
        "baseline": _bool(body, "baseline"),
    }
    matrix = {
        "workloads": workloads,
        "predictors": [
            predictor_description(p["name"], p["entries"])
            for p in predictors
        ],
        "frontend": [
            SimOptions(
                distance=o["distance"],
                sfp=SFPConfig() if o["sfp"] else None,
                pgu=PGUConfig() if o["pgu"] else None,
            ).describe()
            for o in options
        ],
    }
    stub = _stub("sweep", "sweep", spec, matrix)
    return JobSpec(
        op="sweep", spec=spec, stub=stub,
        request_key=request_key(stub), kind="sweep", label="sweep",
    )


_CANONICALIZERS = {
    "simulate": canonicalize_simulate,
    "sweep": canonicalize_sweep,
    "profile": canonicalize_profile,
}


def canonicalize(op: str, body: dict) -> JobSpec:
    """Validate and canonicalize one request body for ``op``."""
    try:
        handler = _CANONICALIZERS[op]
    except KeyError:
        raise ProtocolError(
            f"unknown operation {op!r}; choose from {', '.join(OPS)}",
            status=404, code="unknown_operation",
        ) from None
    return handler(body)


def job_response(stub: dict, metrics: Dict[str, float], run_id: str,
                 cached: bool, sim_core: str = "") -> dict:
    """The deterministic result body for a finished or memoized job.

    Built from the record's payload layer only — no timestamps or wall
    times — so the body for a fresh run and for a later cache hit of the
    same request differ in exactly one field: ``cached``.
    """
    return {
        "status": "done",
        "cached": cached,
        "run_id": run_id,
        "request_key": request_key(stub),
        "kind": stub["kind"],
        "label": stub["label"],
        "scale": stub["scale"],
        "compile_config": stub["compile_config"],
        "matrix": stub["matrix"],
        "metrics": metrics,
        "sim_core": sim_core,
    }
