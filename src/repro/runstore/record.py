"""RunRecord: one JSON document per measured harness invocation.

A record has two layers with different determinism guarantees:

* the **payload** — kind, label, scale, compile config, the
  predictor/workload matrix and the flat ``metrics`` dict of headline
  numbers.  Everything in the payload is a pure function of the code and
  the invocation, so recording the same sweep serially or over N worker
  processes produces *byte-identical* canonical payloads (the
  determinism the sweep engine already guarantees for its results).
  :meth:`RunRecord.content_hash` hashes exactly this layer, and the
  run id is that hash — the store is content-addressed.
* the **envelope** — run id, UTC timestamp, git SHA + dirty flag,
  harness version, wall-time, sweep throughput and the telemetry
  registry snapshot.  These vary run to run (timings, machine, tree
  state) and are explicitly excluded from the hash; the comparison
  engine never gates on them.

``repro history`` and the CI regression gate consume these records; see
``docs/run-history.md`` for the schema and the baseline workflow.
"""

import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Bump when the record layout changes; the checker and loader enforce it.
SCHEMA_VERSION = 1

#: Record kinds the harness emits today.
KINDS = ("experiment", "simulate", "sweep", "benchmark", "profile")


def canonical_json(payload: dict) -> str:
    """The byte-stable serialisation content hashes are computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def payload_hash(payload: dict) -> str:
    """sha256 (hex) of the canonical payload serialisation."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def request_payload(payload: dict) -> dict:
    """The *request* layer of a payload: identity minus measured numbers.

    A run's ``run_id`` covers the full payload including ``metrics``, so
    it cannot be computed before the run executes.  Everything else in
    the payload — kind, label, scale, compile config, matrix — is a pure
    function of the *request*, and because simulation is deterministic,
    equal request layers imply equal metrics and hence equal run ids.
    ``repro.serve`` memoizes on exactly this layer: canonicalize the
    incoming request into the payload the run *would* record, hash it
    without metrics, and an identical request becomes a store lookup.
    """
    return {key: value for key, value in payload.items()
            if key != "metrics"}


def request_key(payload: dict) -> str:
    """sha256 prefix (16 hex chars) of the request layer of ``payload``.

    Accepts either a full payload (metrics are excluded before hashing)
    or an already-stripped request payload; both hash identically.
    """
    return payload_hash(request_payload(payload))[:16]


#: Fields and JSON types of the ``git`` envelope :func:`git_state` writes.
GIT_FIELDS = {"sha": str, "dirty": bool}


def git_state(cwd=None) -> dict:
    """``{"sha": ..., "dirty": ...}`` of the enclosing git tree.

    Degrades to ``{"sha": "", "dirty": False}`` outside a repository or
    without a git binary — records must be writable anywhere.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": "", "dirty": False}
    if not sha or " " in sha:
        return {"sha": "", "dirty": False}
    return {"sha": sha, "dirty": bool(status)}


def utc_timestamp(epoch: Optional[float] = None) -> str:
    """Compact sortable UTC stamp (``YYYYmmddTHHMMSS.ffffffZ``)."""
    epoch = time.time() if epoch is None else epoch
    base = time.strftime("%Y%m%dT%H%M%S", time.gmtime(epoch))
    return f"{base}.{int((epoch % 1) * 1e6):06d}Z"


@dataclass
class RunRecord:
    """One measured invocation, ready to serialise into the store."""

    kind: str
    label: str
    scale: str = ""
    compile_config: str = "hyperblock"
    #: predictor/workload/option matrix (identity of what was measured)
    matrix: dict = field(default_factory=dict)
    #: flat ``name -> number`` headline metrics; the diffable surface
    metrics: Dict[str, float] = field(default_factory=dict)
    # -- envelope (excluded from the content hash) ------------------------
    run_id: str = ""
    timestamp: str = ""
    git: dict = field(default_factory=dict)
    version: str = ""
    command: str = ""
    wall_seconds: float = 0.0
    #: sweep grid points per second, 0.0 when no sweep ran
    throughput: float = 0.0
    #: simulation core the run used ("object"/"fast"/"numpy", "" =
    #: unrecorded).  Envelope, not payload: the cores are bit-identical
    #: by contract, so the same measurement gets the same run id
    #: whichever core produced it.
    sim_core: str = ""
    telemetry: dict = field(default_factory=dict)

    def payload(self) -> dict:
        """The deterministic layer (what the content hash covers)."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "label": self.label,
            "scale": self.scale,
            "compile_config": self.compile_config,
            "matrix": self.matrix,
            "metrics": self.metrics,
        }

    def content_hash(self) -> str:
        return payload_hash(self.payload())

    def request_key(self) -> str:
        """Memoization key: hash of the payload minus ``metrics``."""
        return request_key(self.payload())

    def seal(self, *, epoch: Optional[float] = None,
             cwd=None) -> "RunRecord":
        """Stamp the envelope: run id, timestamp, git state, version.

        Idempotent for the run id (always recomputed from the payload);
        timestamp/git/version are only filled when still empty, so tests
        can pin them before sealing.
        """
        from repro import repro_version

        self.run_id = self.content_hash()[:12]
        if not self.timestamp:
            self.timestamp = utc_timestamp(epoch)
        if not self.git:
            self.git = git_state(cwd)
        if not self.version:
            self.version = repro_version()
        return self

    def to_dict(self) -> dict:
        document = self.payload()
        document.update({
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git": self.git,
            "version": self.version,
            "command": self.command,
            "wall_seconds": self.wall_seconds,
            "throughput": self.throughput,
            "sim_core": self.sim_core,
            "telemetry": self.telemetry,
        })
        return document

    @classmethod
    def from_dict(cls, document: dict) -> "RunRecord":
        schema = document.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"run record schema {schema!r} not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        return cls(
            kind=document["kind"],
            label=document["label"],
            scale=document.get("scale", ""),
            compile_config=document.get("compile_config", "hyperblock"),
            matrix=document.get("matrix", {}),
            metrics=document.get("metrics", {}),
            run_id=document.get("run_id", ""),
            timestamp=document.get("timestamp", ""),
            git=document.get("git", {}),
            version=document.get("version", ""),
            command=document.get("command", ""),
            wall_seconds=document.get("wall_seconds", 0.0),
            throughput=document.get("throughput", 0.0),
            sim_core=document.get("sim_core", ""),
            telemetry=document.get("telemetry", {}),
        )


# -- headline-metric extraction ------------------------------------------------


def _round(value: float) -> float:
    """Clamp float noise: metric payloads compare across processes.

    The simulation counters are integers and their derived rates are
    exact IEEE quotients, so 12 significant-digit rounding changes
    nothing today — it exists so a future metric computed through an
    accumulation order that *can* vary cannot silently break the
    byte-identical payload guarantee.
    """
    return float(f"{value:.12g}")


def metrics_from_sim_result(result, prefix: str = "") -> Dict[str, float]:
    """One :class:`~repro.sim.driver.SimResult`, prefixed and rounded."""
    head = f"{prefix}." if prefix else ""
    return {
        f"{head}{name}": _round(value)
        for name, value in result.headline_metrics().items()
    }


def metrics_from_experiment(result) -> Dict[str, float]:
    """An ``ExperimentResult`` flattened to ``<id>.<row>.<column>``."""
    exp_id = result.spec.id
    return {
        f"{exp_id}.{name}": _round(value)
        for name, value in result.numeric_metrics().items()
    }


def sweep_throughput(telemetry_snapshot: dict,
                     wall_seconds: float) -> float:
    """Grid points per second, from the merged counter snapshot."""
    points = telemetry_snapshot.get("counters", {}).get(
        "sweep.points_completed", 0
    )
    if not points or wall_seconds <= 0.0:
        return 0.0
    return points / wall_seconds


class RunRecorder:
    """Accumulates one invocation's numbers into a sealed RunRecord.

    Usage (what the CLI's ``--record`` flag does)::

        recorder = RunRecorder("experiment", "E2", scale="small")
        with recorder.timed():
            result = run_experiment(...)
        recorder.add_experiment(result)
        record = recorder.finish(registry)   # sealed, ready to store
    """

    def __init__(self, kind: str, label: str, scale: str = "",
                 compile_config: str = "hyperblock",
                 command: str = "", matrix: Optional[dict] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown record kind {kind!r}")
        self.record = RunRecord(
            kind=kind, label=label, scale=scale,
            compile_config=compile_config, command=command,
            matrix=dict(matrix or {}),
        )
        self._started: Optional[float] = None

    def timed(self):
        return _RecorderTimer(self)

    def add_metrics(self, metrics: Dict[str, float]) -> None:
        self.record.metrics.update(metrics)

    def add_experiment(self, result) -> None:
        self.add_metrics(metrics_from_experiment(result))
        labels: List[str] = self.record.matrix.setdefault(
            "experiments", []
        )
        if result.spec.id not in labels:
            labels.append(result.spec.id)

    def add_sim_result(self, result, prefix: str = "") -> None:
        self.add_metrics(metrics_from_sim_result(result, prefix=prefix))

    def finish(self, registry=None) -> RunRecord:
        """Seal the record, snapshotting ``registry`` into the envelope."""
        if registry is not None:
            self.record.telemetry = registry.snapshot()
        self.record.throughput = _round(sweep_throughput(
            self.record.telemetry, self.record.wall_seconds
        ))
        return self.record.seal()


class _RecorderTimer:
    def __init__(self, recorder: RunRecorder):
        self._recorder = recorder

    def __enter__(self):
        self._start = time.perf_counter()
        return self._recorder

    def __exit__(self, *exc):
        self._recorder.record.wall_seconds += (
            time.perf_counter() - self._start
        )
        return False
