"""Durability audit of :mod:`repro.sealed` and every format built on it.

All six sealed kinds (checkpoints, column stores, metrics documents,
time-series histories, the service journal and trace logs) write
through one implementation, so crash consistency is proven once, by
fault injection against it.  :class:`RecordingOs` replaces
:mod:`repro.sealed`'s ``os`` with a recording double that can reject
the directory open/fsync, fail the file fsync with ``ENOSPC`` or fail
the rename, and the matrix below runs every case against every kind.
Committed files written by the previous per-format writers must still
load (:class:`TestLegacyFixtures`).
"""

import errno
import json
import os
from pathlib import Path

import numpy as np
import pytest

import repro.sealed as sealed
from repro.colstore import read_columns, write_columns
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    JournalCorruptError,
    JournalError,
    ObservabilityError,
    TimeSeriesCorruptError,
    TraceCorruptError,
)
from repro.obs import MetricsRegistry
from repro.obs.timeseries import Tier, TimeSeriesStore
from repro.obs.tracing import JsonlTraceSink, read_trace, read_trace_segments
from repro.resilience.checkpoint import read_checkpoint, write_checkpoint
from repro.service.journal import JournalWriter, ReplayReport, replay_journal

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "sealed"


class RecordingOs:
    """Pass-through ``os`` double that logs the durability-relevant
    calls and can inject faults at each of them."""

    def __init__(
        self, fail_dir_open=False, fail_dir_fsync=False,
        fail_file_fsync=False, fail_replace=False,
    ):
        self.calls = []
        self.fail_dir_open = fail_dir_open
        self.fail_dir_fsync = fail_dir_fsync
        self.fail_file_fsync = fail_file_fsync
        self.fail_replace = fail_replace
        self._dir_fds = set()

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        if self.fail_replace:
            raise OSError("injected: crash before the rename")
        self.calls.append(("replace", str(dst)))
        return os.replace(src, dst)

    def open(self, path, flags, *args, **kwargs):
        if flags & getattr(os, "O_DIRECTORY", 0):
            if self.fail_dir_open:
                raise OSError("injected: cannot open directory")
            fd = os.open(path, flags, *args, **kwargs)
            self._dir_fds.add(fd)
            self.calls.append(("dir_open", str(path)))
            return fd
        return os.open(path, flags, *args, **kwargs)

    def fsync(self, fd):
        if fd in self._dir_fds:
            if self.fail_dir_fsync:
                raise OSError("injected: directory fsync rejected")
            self.calls.append(("dir_fsync", fd))
        else:
            if self.fail_file_fsync:
                raise OSError(errno.ENOSPC, "injected: no space left")
            self.calls.append(("file_fsync", fd))
        return os.fsync(fd)

    def close(self, fd):
        self._dir_fds.discard(fd)
        return os.close(fd)


@pytest.fixture()
def shim(monkeypatch):
    double = RecordingOs()
    monkeypatch.setattr(sealed, "os", double)
    return double


def _assert_rename_then_dir_sync(shim, dst):
    kinds = [kind for kind, _ in shim.calls]
    assert ("replace", str(dst)) in shim.calls
    assert "dir_fsync" in kinds, "parent directory was never fsynced"
    assert kinds.index("dir_fsync") > kinds.index("replace"), (
        "directory fsync must follow the rename it makes durable"
    )


class TestHelper:
    def test_replace_then_parent_fsync_ordering(self, tmp_path, shim):
        dst = tmp_path / "artifact"
        sealed.atomic_write(dst, lambda handle: handle.write(b"payload"))
        assert dst.read_text() == "payload"
        _assert_rename_then_dir_sync(shim, dst)
        kinds = [kind for kind, _ in shim.calls]
        assert kinds.index("file_fsync") < kinds.index("replace")
        synced_dir = shim.calls[kinds.index("dir_open")][1]
        assert synced_dir == str(tmp_path)

    def test_unopenable_directory_degrades_gracefully(
        self, tmp_path, monkeypatch
    ):
        double = RecordingOs(fail_dir_open=True)
        monkeypatch.setattr(sealed, "os", double)
        assert sealed.fsync_directory(tmp_path) is False
        dst = tmp_path / "a"
        sealed.atomic_write(dst, lambda handle: handle.write(b"x"))
        assert dst.read_text() == "x"

    def test_rejected_directory_fsync_degrades_gracefully(
        self, tmp_path, monkeypatch
    ):
        double = RecordingOs(fail_dir_fsync=True)
        monkeypatch.setattr(sealed, "os", double)
        assert sealed.fsync_directory(tmp_path) is False
        # The fd is still closed on the failure path.
        assert not double._dir_fds

    def test_non_posix_platform_skips(self, tmp_path, monkeypatch):
        double = RecordingOs()
        double.name = "nt"
        monkeypatch.setattr(sealed, "os", double)
        assert sealed.fsync_directory(tmp_path) is False
        assert double.calls == []


class TestWriters:
    """Every durable-artifact writer routes through the audited helper."""

    def test_checkpoint_writer(self, tmp_path, shim):
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, {"cursor": 7})
        assert read_checkpoint(path)["cursor"] == 7
        _assert_rename_then_dir_sync(shim, path)
        assert [kind for kind, _ in shim.calls].count("file_fsync") == 1

    def test_metrics_snapshot(self, tmp_path, shim):
        registry = MetricsRegistry()
        registry.counter("demo_total", "demo").labels().inc()
        path = tmp_path / "metrics.prom"
        registry.save(path)
        _assert_rename_then_dir_sync(shim, path)

    def test_colstore_manifest(self, tmp_path, shim):
        write_columns(
            tmp_path / "frame", {"xs": np.arange(4, dtype=np.int64)}
        )
        _assert_rename_then_dir_sync(shim, tmp_path / "frame" / "xs.npy")
        _assert_rename_then_dir_sync(
            shim, tmp_path / "frame" / "manifest.json"
        )

    def test_journal_segment_creation_syncs_directory(
        self, tmp_path, shim
    ):
        with JournalWriter(tmp_path / "journal") as journal:
            journal.append("submit", job="a")
            journal.append("submit", job="b")
        kinds = [kind for kind, _ in shim.calls]
        assert "dir_fsync" in kinds, (
            "new journal segment's directory entry was never made durable"
        )
        # Header, one per append, one on close; the directory once.
        assert kinds.count("file_fsync") == 4
        assert kinds.count("dir_fsync") == 1

    def test_trace_sink_fsyncs_only_on_close(self, tmp_path, shim):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        for i in range(5):
            sink.emit({"kind": "event", "name": f"e{i}"})
        assert shim.calls == []
        sink.close()
        assert [kind for kind, _ in shim.calls] == ["file_fsync"]


# -- the fault-injection matrix ----------------------------------------------


class _Document:
    """A sealed-document kind: ``write(root, v)`` stores version ``v``,
    ``read(root)`` returns the stored version."""

    log = False

    def __init__(self, name, file, write, read, write_error, corrupt):
        self.name = name
        self.file = file
        self.write = write
        self.read = read
        self.write_error = write_error
        self.corrupt = corrupt


def _checkpoint_write(root, v):
    write_checkpoint(root / "campaign-000001.ckpt", {"v": v, "pad": 12345})


def _checkpoint_read(root):
    return read_checkpoint(root / "campaign-000001.ckpt")["v"]


def _colstore_write(root, v):
    columns = {"xs": np.arange(4, dtype=np.int64) + v}
    write_columns(root / "store", columns, meta={"v": v})


def _colstore_read(root):
    columns, meta = read_columns(root / "store", verify=True)
    assert columns["xs"].tolist() == [meta["v"] + i for i in range(4)]
    return meta["v"]


def _metrics_write(root, v):
    registry = MetricsRegistry()
    registry.gauge("repro_v").labels().set(float(v))
    registry.save(root / "metrics.json")


def _metrics_read(root):
    text = (root / "metrics.json").read_text()
    return int(MetricsRegistry.from_json(text).value("repro_v"))


def _timeseries_write(root, v):
    store = TimeSeriesStore((Tier("raw", 0.0, 8),))
    store.record("repro_v", float(v), 1.0)
    store.save(root / "timeseries.json")


def _timeseries_read(root):
    return int(TimeSeriesStore.load(root / "timeseries.json").latest(
        "repro_v"
    )[1])


DOCUMENTS = [
    _Document(
        "checkpoint", "campaign-000001.ckpt", _checkpoint_write,
        _checkpoint_read, CheckpointError, CheckpointCorruptError,
    ),
    _Document(
        "colstore", "store/manifest.json", _colstore_write, _colstore_read,
        CheckpointError, CheckpointCorruptError,
    ),
    _Document(
        "metrics", "metrics.json", _metrics_write, _metrics_read,
        ObservabilityError, ObservabilityError,
    ),
    _Document(
        "timeseries", "timeseries.json", _timeseries_write,
        _timeseries_read, ObservabilityError, TimeSeriesCorruptError,
    ),
]


class _Log:
    """A sealed-log kind: ``write(root, n)`` appends ``n`` records in one
    incarnation, ``read(root, ...)`` returns the surviving record ids."""

    log = True

    def __init__(self, name, file, next_file, write, read, corrupt):
        self.name = name
        self.file = file
        self.next_file = next_file
        self.write = write
        self.read = read
        self.corrupt = corrupt


def _journal_write(root, n):
    with JournalWriter(root / "journal") as journal:
        for i in range(n):
            journal.append("submit", job=f"job-{i}")


def _journal_read(root, strict=False, salvage=False, problems=None):
    # The journal has no strict mode: a torn tail is never acknowledged.
    report = ReplayReport()
    entries = replay_journal(root / "journal", salvage=salvage, report=report)
    if problems is not None:
        problems.extend(report.problems)
    return [entry.job for entry in entries]


def _trace_write(root, n):
    sink = JsonlTraceSink(root / "trace.jsonl", max_bytes=1 << 20)
    for i in range(n):
        sink.emit({"kind": "event", "name": f"job-{i}", "ts": 0.5 * i})
    sink.close()


def _trace_read(root, strict=False, salvage=False, problems=None):
    # Traces have no salvage mode.
    records = read_trace_segments(root / "trace.jsonl", strict=strict)
    return [record["name"] for record in records]


LOGS = [
    _Log(
        "journal", "journal/journal-000001.wal",
        "journal/journal-000002.wal", _journal_write, _journal_read,
        JournalCorruptError,
    ),
    _Log(
        "trace", "trace-000001.jsonl", "trace-000002.jsonl",
        _trace_write, _trace_read, TraceCorruptError,
    ),
]

KINDS = DOCUMENTS + LOGS
JOBS = ["job-0", "job-1", "job-2"]


def _flip_last_digit(data: bytes, end: int) -> bytes:
    """Flip the low bit of the last ASCII digit before ``end``: the
    result is still a digit, so only the seal can catch it."""
    index = max(data.rfind(bytes([d]), 0, end) for d in b"0123456789")
    return data[:index] + bytes([data[index] ^ 0x01]) + data[index + 1:]


@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: kind.name)
class TestFaultMatrix:
    def test_torn_tail(self, tmp_path, kind):
        if kind.log:
            kind.write(tmp_path, 3)
            path = tmp_path / kind.file
            path.write_bytes(path.read_bytes()[:-7])
            problems = []
            assert kind.read(tmp_path, problems=problems) == JOBS[:2]
            if kind.name == "journal":
                assert any("torn tail" in p for p in problems)
            else:
                with pytest.raises(kind.corrupt):
                    kind.read(tmp_path, strict=True)
        else:
            kind.write(tmp_path, 1)
            path = tmp_path / kind.file
            path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
            with pytest.raises(kind.corrupt, match="torn"):
                kind.read(tmp_path)

    def test_mid_file_bit_flip(self, tmp_path, kind):
        path = tmp_path / kind.file
        if kind.log:
            kind.write(tmp_path, 3)
            data = path.read_bytes()
            second_record_end = data.index(
                b"\n", data.index(b"\n", data.index(b"\n") + 1) + 1
            )
            path.write_bytes(_flip_last_digit(data, second_record_end))
            with pytest.raises(kind.corrupt, match="CRC"):
                kind.read(tmp_path)
            if kind.name == "journal":
                problems = []
                survivors = kind.read(
                    tmp_path, salvage=True, problems=problems
                )
                assert survivors == JOBS[:1]
                assert any("truncated" in p for p in problems)
        else:
            kind.write(tmp_path, 1)
            data = path.read_bytes()
            path.write_bytes(_flip_last_digit(data, len(data)))
            with pytest.raises(kind.corrupt, match="CRC"):
                kind.read(tmp_path)

    @pytest.mark.parametrize("fault", ["fail_dir_open", "fail_dir_fsync"])
    def test_missing_directory_fsync_still_writes(
        self, tmp_path, monkeypatch, kind, fault
    ):
        monkeypatch.setattr(sealed, "os", RecordingOs(**{fault: True}))
        if kind.log:
            kind.write(tmp_path, 3)
            assert kind.read(tmp_path) == JOBS
        else:
            kind.write(tmp_path, 1)
            assert kind.read(tmp_path) == 1

    def test_enospc_keeps_previous_state(self, tmp_path, monkeypatch, kind):
        kind.write(tmp_path, 1)
        enospc = RecordingOs(fail_file_fsync=True)
        if kind.name == "journal":
            with JournalWriter(tmp_path / "journal", start_seq=2) as journal:
                assert journal.append("submit", job="job-1") == 2
                monkeypatch.setattr(sealed, "os", enospc)
                with pytest.raises(JournalError):
                    journal.append("submit", job="lost")
                with pytest.raises(JournalError):
                    JournalWriter(tmp_path / "journal").append("submit")
                monkeypatch.undo()
                assert journal.append("submit", job="job-2") == 3
            problems = []
            assert kind.read(tmp_path, problems=problems) == JOBS
            # The failed append was truncated away and the segment
            # whose header never synced was removed.
            assert problems == []
        elif kind.name == "trace":
            monkeypatch.setattr(sealed, "os", enospc)
            with pytest.raises(ObservabilityError, match="cannot sync"):
                kind.write(tmp_path, 2)
            monkeypatch.undo()
            # Buffered records reached the file; the sink reported the
            # failed fsync and the log reads back undamaged.
            assert kind.read(tmp_path, strict=True) == JOBS[:1] + JOBS[:2]
        else:
            monkeypatch.setattr(sealed, "os", enospc)
            _assert_failed_write_keeps_previous(tmp_path, monkeypatch, kind)

    def test_crash_at_creation(self, tmp_path, kind):
        """Documents: a crash after the temp write, before the rename.
        Logs: a crash after creating a segment, before its header."""
        kind.write(tmp_path, 1)
        if kind.log:
            (tmp_path / kind.next_file).write_bytes(b"")
            problems = []
            assert kind.read(tmp_path, problems=problems) == JOBS[:1]
            if kind.name == "journal":
                assert problems == ["journal-000002.wal: empty segment"]
            else:
                with pytest.raises(kind.corrupt, match="empty"):
                    kind.read(tmp_path, strict=True)
        else:
            path = tmp_path / kind.file
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(b'{"format": "half a new vers')
            assert kind.read(tmp_path) == 1
            kind.write(tmp_path, 2)
            assert kind.read(tmp_path) == 2


def _assert_failed_write_keeps_previous(tmp_path, monkeypatch, kind):
    with pytest.raises(kind.write_error, match="cannot write"):
        kind.write(tmp_path, 2)
    monkeypatch.undo()
    assert kind.read(tmp_path) == 1
    assert not list(tmp_path.rglob("*.tmp")), "temp-file debris"


@pytest.mark.parametrize("kind", DOCUMENTS, ids=lambda kind: kind.name)
def test_rename_crash_keeps_previous_document(tmp_path, monkeypatch, kind):
    kind.write(tmp_path, 1)
    monkeypatch.setattr(sealed, "os", RecordingOs(fail_replace=True))
    _assert_failed_write_keeps_previous(tmp_path, monkeypatch, kind)


class TestJournalAppendFailure:
    def test_failed_append_never_replays_and_seq_is_reused(
        self, tmp_path, monkeypatch
    ):
        real_fsync = os.fsync
        failing = []

        def fsync(fd):
            if failing:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        with JournalWriter(tmp_path) as journal:
            assert journal.append("submit", job="a") == 1
            failing.append(True)
            with pytest.raises(JournalError):
                journal.append("submit", job="b")
            failing.clear()
            assert journal.append("submit", job="c") == 2
        entries = replay_journal(tmp_path)
        assert [(e.seq, e.job) for e in entries] == [(1, "a"), (2, "c")]


# -- files written by the previous per-format writers -----------------------


class TestLegacyFixtures:
    """Files under ``tests/fixtures/sealed`` were written by the
    per-format writers that predate :mod:`repro.sealed`."""

    def test_checkpoint(self):
        assert read_checkpoint(FIXTURES / "campaign-000001.ckpt") == {
            "cursor": 7, "day": 0.1, "detections": [[3, 12.5]],
            "name": "fixture",
        }

    def test_colstore(self):
        columns, meta = read_columns(FIXTURES / "colstore", verify=True)
        assert meta == {"rows": 4}
        assert columns["xs"].dtype == np.int64
        assert columns["xs"].tolist() == [0, 1, 2, 3]

    def test_metrics(self):
        text = (FIXTURES / "metrics.json").read_text()
        snapshot = MetricsRegistry.from_json(text).snapshot()
        assert snapshot["families"] == [
            {"help": "fixture gauge", "kind": "gauge", "labelnames": [],
             "name": "repro_fixture_gauge",
             "series": [{"labels": [], "value": 1.5}]},
            {"help": "fixture counter", "kind": "counter",
             "labelnames": ["kind"], "name": "repro_fixture_total",
             "series": [{"labels": ["a"], "value": 3.0}]},
        ]

    def test_timeseries(self):
        store = TimeSeriesStore.load(FIXTURES / "timeseries.json")
        assert store.tiers == (Tier("raw", 0.0, 4), Tier("1s", 1.0, 2))
        assert store._payload()["series"] == {"repro_fixture_total": {
            "raw": [[100.0, 1.0, 1.0, 1.0], [100.5, 2.0, 2.0, 2.0],
                    [101.25, 4.0, 4.0, 4.0]],
            "1s": [[100.0, 2.0, 1.0, 2.0], [101.0, 4.0, 4.0, 4.0]],
        }}

    def test_journal(self):
        entries = replay_journal(FIXTURES / "journal")
        assert [(e.seq, e.kind, e.job, e.data) for e in entries] == [
            (1, "submit", "job-000001", {"spec": {"fleet": 10}}),
            (2, "start", "job-000001", {}),
            (3, "finish", "job-000001", {"digest": "abc"}),
        ]

    def _events(self, n):
        return [
            {"kind": "event", "name": f"e{i}", "pid": 4242, "tid": 0,
             "ts": 0.5 * i}
            for i in range(n)
        ]

    def test_plain_trace(self):
        path = FIXTURES / "trace.jsonl"
        assert read_trace(path, strict=True) == self._events(3)

    def test_rotated_trace(self):
        records = read_trace_segments(
            FIXTURES / "rotated" / "trace.jsonl", strict=True
        )
        assert records == self._events(2)

    def test_documents_keep_their_layout(self, tmp_path):
        """New documents keep the header fields in the same order."""
        write_checkpoint(tmp_path / "c.ckpt", {"cursor": 7})
        legacy = json.loads((FIXTURES / "campaign-000001.ckpt").read_text())
        assert list(json.loads((tmp_path / "c.ckpt").read_text())) == list(
            legacy
        )
