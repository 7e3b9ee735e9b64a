"""JSON-lines artifact store for campaign results.

One line per finished job, keyed by the job's content hash.  Append-only:
re-running a job appends a fresh record and the *last* record for a job ID
wins on load, so a crashed or interrupted campaign leaves a valid store
behind — that is what makes campaigns resumable.  The format is deliberately
plain (one JSON object per line, no framing) so stores can be inspected,
concatenated, grepped and diffed with standard tools.

Durability and corruption handling (schema 2):

* every record carries a CRC-32 over its canonical encoding, so silent
  bit-rot is detected, not silently aggregated (schema-1 records, which
  predate the checksum, are still read);
* a truncated *trailing* line (crash mid-append) is silently recovered;
  a corrupt line anywhere *earlier* is moved to a ``<store>.quarantine``
  sidecar and skipped — pass ``strict=True`` to get the old hard failure;
* appends hold an advisory ``flock`` (a ``<store>.lock`` sidecar), so two
  campaigns cannot interleave half-lines into one store;
* ``put`` and ``compact`` fsync the parent directory after creating or
  replacing the file, so a crash immediately afterwards cannot lose the
  rename on journalling filesystems.
"""

from __future__ import annotations

import json
import os
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

try:  # POSIX advisory locking; campaigns on other platforms run unlocked.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms only
    fcntl = None  # type: ignore[assignment]

from ..sim.errors import ConfigurationError
from .jobs import JobResult

__all__ = ["ArtifactStore"]

#: Bump when the record layout changes incompatibly.
#: v1: plain records.  v2: adds a per-record ``crc`` checksum (v1 readable).
SCHEMA_VERSION = 2

#: The oldest schema this reader still accepts.
MIN_SCHEMA_VERSION = 1


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a just-created/renamed entry survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. directories not openable (win)
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem without dir fsync
        pass
    finally:
        os.close(fd)


def _encode_record(record: Mapping[str, object]) -> str:
    """The canonical encoding the CRC is computed over (and written as).

    Only the top level is sorted: nested payloads keep their insertion order
    (it can be meaningful, e.g. table column order).  The reader re-encodes
    the parsed record the same way, so writer and verifier agree bit-for-bit.
    """
    return json.dumps({key: record[key] for key in sorted(record)})


class ArtifactStore:
    """Persistent per-job results, keyed by content-hash job ID.

    ``strict=True`` restores hard failure on any non-trailing corruption;
    the default quarantines corrupt lines into :attr:`quarantine_path` and
    carries on, because at campaign scale one rotten record must not cost
    the other 99.9% of the samples.
    """

    def __init__(self, path: str | os.PathLike[str], strict: bool = False) -> None:
        self.path = Path(path)
        self.strict = strict
        #: Corrupt lines moved to the sidecar by the most recent load().
        self.quarantined_lines = 0
        self._index: dict[str, JobResult] = {}
        self._loaded = False
        self._lock_handle = None
        self._lock_count = 0
        #: Append handle kept open across puts while an *outer* lock is held
        #: (a campaign run), so streaming job results pay one open() per
        #: campaign instead of one per record.
        self._append_handle = None

    @property
    def quarantine_path(self) -> Path:
        """Sidecar file receiving corrupt lines (one JSON record per line)."""
        return self.path.with_suffix(self.path.suffix + ".quarantine")

    @property
    def lock_path(self) -> Path:
        """Sidecar file carrying the advisory append lock."""
        return self.path.with_suffix(self.path.suffix + ".lock")

    # ------------------------------------------------------------------
    # Locking
    # ------------------------------------------------------------------
    def acquire_lock(self) -> None:
        """Take the advisory store lock (re-entrant within this instance).

        Raises :class:`ConfigurationError` immediately when another process
        (or another store instance) holds it — interleaved appends from two
        campaigns are a corruption source, not something to wait out silently.
        """
        if self._lock_count == 0 and fcntl is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = self.lock_path.open("a+")
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                raise ConfigurationError(
                    f"{self.path}: another campaign holds the store lock "
                    f"({self.lock_path}); refusing to interleave appends"
                ) from None
            self._lock_handle = handle
        self._lock_count += 1

    def release_lock(self) -> None:
        """Release one acquisition of the advisory lock."""
        if self._lock_count == 0:
            return
        self._lock_count -= 1
        if self._lock_count == 0:
            self._close_append_handle()
            if self._lock_handle is not None:
                try:
                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
                finally:
                    self._lock_handle.close()
                    self._lock_handle = None

    def _close_append_handle(self) -> None:
        if self._append_handle is not None:
            try:
                self._append_handle.close()
            finally:
                self._append_handle = None

    @contextmanager
    def locked(self) -> Iterator["ArtifactStore"]:
        """Hold the advisory lock for a block (used per-append and per-campaign)."""
        self.acquire_lock()
        try:
            yield self
        finally:
            self.release_lock()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self) -> dict[str, JobResult]:
        """Read the store into memory (idempotent) and return the index."""
        if self._loaded:
            return self._index
        self._index = {}
        self.quarantined_lines = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                for line_number, line in enumerate(handle, start=1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        # A partially written trailing line (crash mid-append)
                        # is expected and silently recovered; anything earlier
                        # is corruption.
                        remaining = handle.read().strip()
                        if remaining:
                            self._reject(line, line_number, "invalid JSON")
                            # Re-scan what we read ahead: the lines after the
                            # corruption are intact records that must not be
                            # lost (and the very last may itself be a
                            # tolerated trailing truncation).
                            rest_lines = [text.strip() for text in remaining.splitlines()]
                            for offset, rest in enumerate(rest_lines):
                                if not rest:
                                    continue
                                number = line_number + 1 + offset
                                try:
                                    rest_record = json.loads(rest)
                                except json.JSONDecodeError:
                                    if offset == len(rest_lines) - 1:
                                        break  # trailing truncation: recover
                                    self._reject(rest, number, "invalid JSON")
                                    continue
                                self._load_line_record(rest_record, rest, number)
                        break
                    self._load_line_record(record, line, line_number)
        self._loaded = True
        return self._index

    def _load_line_record(
        self, record: Mapping[str, object], line: str, line_number: int
    ) -> None:
        """Verify and index one parsed record; quarantine what fails."""
        if not isinstance(record, dict):
            self._reject(line, line_number, "record is not a JSON object")
            return
        crc = record.pop("crc", None)
        if crc is not None:
            expected = zlib.crc32(_encode_record(record).encode("utf-8"))
            if crc != expected:
                self._reject(
                    line, line_number, f"CRC mismatch (stored {crc}, computed {expected})"
                )
                return
        try:
            self._apply(record, line_number)
        except ConfigurationError:
            raise  # schema/version problems are configuration, not corruption
        except (KeyError, TypeError, ValueError) as error:
            self._reject(line, line_number, f"malformed record: {error}")

    def _reject(self, line: str, line_number: int, reason: str) -> None:
        """Strict mode: raise.  Default: quarantine the line and carry on."""
        if self.strict:
            raise ConfigurationError(
                f"{self.path}: corrupt record on line {line_number} ({reason})"
            )
        entry = {"line_number": line_number, "reason": reason, "line": line}
        self.quarantine_path.parent.mkdir(parents=True, exist_ok=True)
        with self.quarantine_path.open("a", encoding="utf-8") as handle:
            handle.write(_encode_record(entry) + "\n")
        self.quarantined_lines += 1

    def _apply(self, record: Mapping[str, object], line_number: int) -> None:
        raw_schema = record.get("schema", SCHEMA_VERSION)
        try:
            schema = int(raw_schema)
        except (TypeError, ValueError):
            raise ConfigurationError(
                f"{self.path}: line {line_number} has a non-integer schema "
                f"field ({raw_schema!r})"
            ) from None
        if schema > SCHEMA_VERSION:
            raise ConfigurationError(
                f"{self.path}: line {line_number} uses schema {schema}, "
                f"newer than this reader ({SCHEMA_VERSION})"
            )
        if schema < MIN_SCHEMA_VERSION:
            raise ConfigurationError(
                f"{self.path}: line {line_number} uses schema {schema}, "
                f"older than this reader supports ({MIN_SCHEMA_VERSION})"
            )
        result = JobResult.from_dict(record)
        self._index[result.job_id] = result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, job_id: str) -> bool:
        return job_id in self.load()

    def __len__(self) -> int:
        return len(self.load())

    def get(self, job_id: str) -> JobResult | None:
        return self.load().get(job_id)

    def results(self) -> Iterator[JobResult]:
        """Iterate over the stored results (last record per job ID)."""
        return iter(self.load().values())

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    @staticmethod
    def _record_line(result: JobResult) -> str:
        """One checksummed schema-2 line (without the trailing newline)."""
        record = {"schema": SCHEMA_VERSION, **result.to_dict()}
        record["crc"] = zlib.crc32(_encode_record(record).encode("utf-8"))
        return _encode_record(record)

    def put(self, result: JobResult) -> None:
        """Append ``result`` and update the in-memory index.

        Each record is written with a single flushed ``write`` call so that
        concurrent readers never observe a torn line and an interrupted
        campaign loses at most the job that was being written.  The append
        happens under the advisory store lock, and creating the store file
        is followed by an fsync of the parent directory.  When the caller
        already holds the lock across puts (a campaign run does, for its
        whole duration), the append handle is kept open between records —
        the per-record flush+fsync durability contract is unchanged, only
        the open/close churn goes away.
        """
        self.load()
        line = self._record_line(result) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        with self.locked():
            handle = self._append_handle
            if handle is None or handle.closed:
                handle = self.path.open("a", encoding="utf-8")
                if self._lock_count > 1:  # outer lock outlives this put
                    self._append_handle = handle
            try:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())
            finally:
                if handle is not self._append_handle:
                    handle.close()
            if created:
                _fsync_dir(self.path.parent)
        self._index[result.job_id] = result

    def compact(self) -> int:
        """Rewrite the store keeping only the winning record per job ID.

        Returns the number of dropped (superseded or quarantined) records.
        Useful after many interrupted/re-run campaigns have accumulated
        duplicates.  Records are rewritten at the current schema (so a v1
        store upgrades to checksummed v2 lines), the temporary file is
        fsynced before the atomic rename, and the parent directory is
        fsynced afterwards so the rename itself is durable.
        """
        index = dict(self.load())
        dropped = 0
        if self.path.exists():
            with self.path.open("r", encoding="utf-8") as handle:
                total = sum(1 for line in handle if line.strip())
            dropped = total - len(index)
        tmp_path = self.path.with_suffix(self.path.suffix + ".tmp")
        with self.locked():
            # A cached append handle points at the inode the rename below
            # replaces; drop it so later puts reopen the fresh file.
            self._close_append_handle()
            with tmp_path.open("w", encoding="utf-8") as handle:
                for result in index.values():
                    handle.write(self._record_line(result) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            tmp_path.replace(self.path)
            _fsync_dir(self.path.parent)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.path)!r}, entries={len(self.load())})"
