"""Artifact-store persistence."""

from __future__ import annotations

import json
import multiprocessing
from contextlib import contextmanager

import pytest

from repro.campaign.jobs import JobResult
from repro.campaign.store import ArtifactStore
from repro.sim.errors import ConfigurationError


def _result(job_id: str, samples=(1.0, 2.0), **overrides) -> JobResult:
    fields = dict(
        job_id=job_id,
        label="tiny/RP-CON",
        scenario="max_contention",
        run_start=0,
        num_runs=len(samples),
        samples=tuple(samples),
        metrics=tuple({"total_cycles": s * 10} for s in samples),
        truncated_runs=0,
        payloads=(None,) * len(samples),
        elapsed_seconds=0.25,
    )
    fields.update(overrides)
    return JobResult(**fields)


def test_round_trip_preserves_every_field(tmp_path):
    path = tmp_path / "store.jsonl"
    original = _result("abc123", payloads=({"rows": [1, 2]}, None))
    ArtifactStore(path).put(original)

    reloaded = ArtifactStore(path).get("abc123")
    assert reloaded == original


def test_get_unknown_id_returns_none(tmp_path):
    store = ArtifactStore(tmp_path / "store.jsonl")
    assert store.get("missing") is None
    assert "missing" not in store


def test_last_record_wins_on_duplicate_ids(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc", samples=(1.0,)))
    store.put(_result("abc", samples=(9.0,)))

    reloaded = ArtifactStore(path)
    assert len(reloaded) == 1
    assert reloaded.get("abc").samples == (9.0,)


def test_partially_written_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc"))
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"job_id": "def", "samples": [1.0')  # crash mid-append

    reloaded = ArtifactStore(path)
    assert len(reloaded) == 1
    assert reloaded.get("abc") is not None


def test_corruption_before_the_end_is_quarantined_by_default(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc"))
    record = path.read_text()
    path.write_text("not json at all\n" + record)

    reloaded = ArtifactStore(path)
    assert reloaded.get("abc") is not None
    assert reloaded.quarantined_lines == 1
    entries = [
        json.loads(line) for line in reloaded.quarantine_path.read_text().splitlines()
    ]
    assert entries == [
        {"line_number": 1, "reason": "invalid JSON", "line": "not json at all"}
    ]


def test_corruption_before_the_end_raises_in_strict_mode(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc"))
    record = path.read_text()
    path.write_text("not json at all\n" + record)

    with pytest.raises(ConfigurationError, match="corrupt"):
        ArtifactStore(path, strict=True).load()
    assert not ArtifactStore(path, strict=True).quarantine_path.exists()


@pytest.mark.parametrize("strict", [False, True])
def test_trailing_truncation_is_recovered_in_both_strict_modes(tmp_path, strict):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc"))
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"job_id": "def", "samples": [1.0')  # crash mid-append

    reloaded = ArtifactStore(path, strict=strict)
    assert len(reloaded) == 1
    assert reloaded.quarantined_lines == 0
    assert not reloaded.quarantine_path.exists()


def test_trailing_truncation_after_earlier_corruption_is_recovered(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc"))
    store.put(_result("def"))
    lines = path.read_text().splitlines()
    path.write_text(
        "\n".join(["garbage line", *lines]) + "\n" + '{"job_id": "ghi", "sam'
    )

    reloaded = ArtifactStore(path)
    assert set(reloaded.load()) == {"abc", "def"}
    assert reloaded.quarantined_lines == 1  # only the garbage, not the tail


def test_crc_mismatch_is_quarantined_and_strict_raises(tmp_path):
    path = tmp_path / "store.jsonl"
    ArtifactStore(path).put(_result("abc", samples=(1.0, 2.0)))
    # Flip a sample value without recomputing the checksum.
    tampered = path.read_text().replace("1.0", "7.0")
    assert tampered != path.read_text()
    path.write_text(tampered)

    reloaded = ArtifactStore(path)
    assert reloaded.get("abc") is None
    assert reloaded.quarantined_lines == 1
    entry = json.loads(reloaded.quarantine_path.read_text())
    assert "CRC mismatch" in entry["reason"]

    with pytest.raises(ConfigurationError, match="CRC mismatch"):
        ArtifactStore(path, strict=True).load()


def test_v1_record_without_checksum_is_still_readable(tmp_path):
    path = tmp_path / "store.jsonl"
    original = _result("abc", payloads=({"rows": [1, 2]}, None))
    record = {"schema": 1, **original.to_dict()}
    path.write_text(json.dumps(record) + "\n")

    reloaded = ArtifactStore(path)
    assert reloaded.get("abc") == original
    assert reloaded.quarantined_lines == 0


def test_records_are_written_at_schema_2_with_crc(tmp_path):
    import zlib

    path = tmp_path / "store.jsonl"
    ArtifactStore(path).put(_result("abc"))

    record = json.loads(path.read_text())
    assert record["schema"] == 2
    crc = record.pop("crc")
    canonical = json.dumps({key: record[key] for key in sorted(record)})
    assert crc == zlib.crc32(canonical.encode("utf-8"))


def test_newer_schema_is_rejected(tmp_path):
    path = tmp_path / "store.jsonl"
    record = {"schema": 999, **_result("abc").to_dict()}
    path.write_text(json.dumps(record) + "\n")

    with pytest.raises(ConfigurationError, match="schema"):
        ArtifactStore(path).load()


def test_non_integer_schema_is_a_configuration_error(tmp_path):
    path = tmp_path / "store.jsonl"
    record = {**_result("abc").to_dict(), "schema": "two"}
    path.write_text(json.dumps(record) + "\n")

    with pytest.raises(ConfigurationError, match="non-integer schema"):
        ArtifactStore(path).load()


def test_lock_conflict_is_a_configuration_error(tmp_path):
    pytest.importorskip("fcntl")
    path = tmp_path / "store.jsonl"
    first = ArtifactStore(path)
    second = ArtifactStore(path)
    first.acquire_lock()
    try:
        with pytest.raises(ConfigurationError, match="store lock"):
            second.acquire_lock()
    finally:
        first.release_lock()
    # Released: the second instance can now take (and release) it.
    with second.locked():
        pass


def test_lock_is_reentrant_within_one_instance(tmp_path):
    pytest.importorskip("fcntl")
    store = ArtifactStore(tmp_path / "store.jsonl")
    with store.locked():
        store.put(_result("abc"))  # put() re-acquires the held lock
    assert ArtifactStore(store.path).get("abc") is not None


@contextmanager
def _hold_then_release(store):
    store.acquire_lock()
    yield
    store.release_lock()


@contextmanager
def _put_under_lock(store):
    with store.locked():
        store.put(_result("abc"))
        yield


@pytest.mark.parametrize("holder", [_hold_then_release, _put_under_lock])
def test_release_frees_the_lock_while_a_forked_worker_lives(tmp_path, holder):
    """A worker forked while the lock is held inherits its descriptor, so
    closing the handle alone would keep the next campaign out."""
    pytest.importorskip("fcntl")
    path = tmp_path / "store.jsonl"
    context = multiprocessing.get_context("fork")
    done = context.Event()
    worker = None
    try:
        with holder(ArtifactStore(path)):
            worker = context.Process(target=done.wait, args=(60,))
            worker.start()
        with ArtifactStore(path).locked():
            pass
    finally:
        done.set()
        if worker is not None:
            worker.join(60)


def test_compact_drops_superseded_records(tmp_path):
    path = tmp_path / "store.jsonl"
    store = ArtifactStore(path)
    store.put(_result("abc", samples=(1.0,)))
    store.put(_result("abc", samples=(2.0,)))
    store.put(_result("def", samples=(3.0,)))

    dropped = ArtifactStore(path).compact()
    assert dropped == 1
    reloaded = ArtifactStore(path)
    assert len(reloaded) == 2
    assert reloaded.get("abc").samples == (2.0,)


def test_compact_upgrades_v1_records_to_checksummed_v2(tmp_path):
    path = tmp_path / "store.jsonl"
    original = _result("abc")
    path.write_text(json.dumps({"schema": 1, **original.to_dict()}) + "\n")

    ArtifactStore(path).compact()
    record = json.loads(path.read_text())
    assert record["schema"] == 2
    assert "crc" in record
    assert ArtifactStore(path).get("abc") == original
