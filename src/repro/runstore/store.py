"""The on-disk run-history store.

Layout: one JSON document per run under the store root (default
``.repro/runs/``, overridable with ``$REPRO_RUNSTORE`` or the CLI's
``--store``), named ``<timestamp>-<run_id>.json`` — the timestamp prefix
makes a plain directory listing chronological, the run-id suffix is the
content hash of the record's deterministic payload (see
:mod:`repro.runstore.record`).

The store is append-only: records are written once, atomically (unique
temp file + ``os.replace`` in the same directory, the same publish
pattern the trace cache uses), and never mutated.  ``gc`` is the only
deletion path and only ever drops whole records, oldest first.
"""

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from repro.runstore.record import RunRecord

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Environment variable overriding the default store root.
STORE_ENV = "REPRO_RUNSTORE"

#: Accepted ``RunStore.add`` collision policies.
IF_EXISTS = ("append", "skip")

#: Default store root, relative to the working directory.
DEFAULT_ROOT = ".repro/runs"


def resolve_root(root=None) -> Path:
    """Store root: argument > ``$REPRO_RUNSTORE`` > ``.repro/runs``."""
    if root is not None:
        return Path(root)
    env = os.environ.get(STORE_ENV, "").strip()
    return Path(env) if env else Path(DEFAULT_ROOT)


class RunStore:
    """Append-only, content-addressed collection of RunRecords.

    Run-id lookups (:meth:`paths_for`, :meth:`contains`, :meth:`find`,
    and the ``skip`` collision check in :meth:`add`) read
    file names only: a record's run id is the suffix of its name, so
    nothing is parsed or loaded until a match is found.  A caller that
    looks up the same runs repeatedly (the ``repro serve`` daemon) keeps
    its own index of record paths and reads the store only on a miss.
    """

    def __init__(self, root=None):
        self.root = resolve_root(root)

    # -- writing ----------------------------------------------------------

    def add(self, record: RunRecord, if_exists: str = "append") -> Path:
        """Atomically publish a sealed record; returns its path.

        ``if_exists`` decides what happens when the store already holds
        a record with the same ``run_id`` (same content, earlier
        timestamp — e.g. two daemon workers finishing the same memoized
        job, or a re-recorded identical run):

        * ``"append"`` — the historical behaviour: every invocation gets
          its own timestamped file, duplicates included.  Right for the
          run-*history* reading of the store.
        * ``"skip"`` — first writer wins: if any record with this run id
          exists, nothing is written and the existing (newest) path is
          returned.  Right for the result-*cache* reading: N racing
          writers of identical content perform exactly one write.

        The ``skip`` path serialises racing writers with one advisory
        file lock, ``.lock`` in the store root (the ``flock`` pattern
        the trace cache uses); the publish itself stays the atomic
        temp-file + ``os.replace`` it always was, so readers never
        observe a partial record under either policy.
        """
        if if_exists not in IF_EXISTS:
            raise ValueError(
                f"if_exists must be one of {IF_EXISTS}, got {if_exists!r}"
            )
        if not record.run_id or not record.timestamp:
            record.seal()
        self.root.mkdir(parents=True, exist_ok=True)
        if if_exists == "append":
            return self._publish(record)
        with self._lock():
            existing = self.paths_for(record.run_id)
            if existing:
                return existing[-1]
            return self._publish(record)

    def _publish(self, record: RunRecord) -> Path:
        path = self.root / f"{record.timestamp}-{record.run_id}.json"
        document = json.dumps(record.to_dict(), indent=2, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(document + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    @contextmanager
    def _lock(self):
        """Exclusive store-wide advisory lock (no-op where unsupported).

        One ``.lock`` file for the whole store: the critical section is
        a name scan plus at most one publish, and a file per run id
        would leave one dot-file behind for every record written.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.root / ".lock"
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- reading ----------------------------------------------------------

    def paths(self) -> List[Path]:
        """Record files, oldest first (filenames sort chronologically)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.suffix == ".json" and not p.name.startswith(".")
        )

    def paths_for(self, run_id: str) -> List[Path]:
        """Record files holding ``run_id`` exactly, oldest first.

        Matches on file names alone, in one directory scan, and builds a
        :class:`Path` only for the matches — the cost of a lookup is one
        listing, not one ``Path`` per stored record.  Dot-files (the
        ``.tmp-*`` publish temporaries, the ``.lock`` writer
        lock) never match; a missing root holds nothing.
        """
        suffix = f"-{run_id}.json"
        try:
            with os.scandir(self.root) as entries:
                names = [
                    entry.name for entry in entries
                    if entry.name.endswith(suffix)
                    and not entry.name.startswith(".")
                ]
        except (FileNotFoundError, NotADirectoryError):
            return []
        return [self.root / name for name in sorted(names)]

    def contains(self, run_id: str) -> bool:
        """Whether any stored record has exactly this run id."""
        return bool(self.paths_for(run_id))

    def find(self, run_id: str) -> Optional[RunRecord]:
        """The newest stored record with exactly this run id, if any
        (one name-only directory scan plus one file read)."""
        paths = self.paths_for(run_id)
        return load_record(paths[-1]) if paths else None

    def records(self, kind: Optional[str] = None,
                label: Optional[str] = None) -> List[RunRecord]:
        """Load records, oldest first, optionally filtered."""
        out = []
        for path in self.paths():
            record = load_record(path)
            if kind is not None and record.kind != kind:
                continue
            if label is not None and record.label != label:
                continue
            out.append(record)
        return out

    def resolve(self, selector: str, kind: Optional[str] = None,
                label: Optional[str] = None) -> RunRecord:
        """Resolve a run selector to one record.

        Accepted forms, tried in order:

        * a path to a record JSON file (e.g. a committed baseline);
        * ``HEAD`` / ``HEAD~N`` — the latest / N-th-latest stored run
          (after the kind/label filter);
        * a run-id prefix — the latest stored run whose id matches.
        """
        candidate = Path(selector)
        if candidate.is_file():
            return load_record(candidate)
        records = self.records(kind=kind, label=label)
        if selector.upper() == "HEAD" or selector.upper().startswith(
            "HEAD~"
        ):
            back = 0
            if "~" in selector:
                tail = selector.split("~", 1)[1]
                try:
                    back = int(tail)
                except ValueError:
                    raise KeyError(
                        f"bad HEAD offset in selector {selector!r}"
                    ) from None
            if back >= len(records):
                raise KeyError(
                    f"selector {selector!r}: only {len(records)} "
                    "matching run(s) in the store"
                )
            return records[-1 - back]
        matches = [r for r in records if r.run_id.startswith(selector)]
        if not matches:
            raise KeyError(
                f"no stored run matches {selector!r} "
                f"(store: {self.root})"
            )
        return matches[-1]  # newest run with that content

    # -- retention --------------------------------------------------------

    def gc(self, keep: int = 50, dry_run: bool = False) -> List[Path]:
        """Drop the oldest records beyond ``keep``; returns their paths."""
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        paths = self.paths()
        victims = paths[: max(0, len(paths) - keep)]
        if not dry_run:
            for path in victims:
                path.unlink()
        return victims


def load_record(path) -> RunRecord:
    """Load and validate one record file."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    record = RunRecord.from_dict(document)
    expected = record.content_hash()[:12]
    if record.run_id and record.run_id != expected:
        raise ValueError(
            f"{path}: run_id {record.run_id} does not match the payload "
            f"content hash {expected} — record corrupted or hand-edited"
        )
    return record
