"""One sealed-file substrate for every durable artifact.

Checkpoints, column stores, metrics and time-series snapshots are
*sealed documents*; trace files and the service journal are *sealed
logs*.  Both use one encoding, one seal and one write order, stated in
the "Durability contract" section of ``docs/architecture.md``.  Each
owner describes its files with a :class:`Format` and gets its own error
classes back from the shared readers.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "Format",
    "canonical",
    "fsync_directory",
    "atomic_write",
    "file_crc32",
    "encode_document",
    "decode_document",
    "write_document",
    "read_document",
    "SealedLog",
    "read_log",
    "segment_path",
    "segment_paths",
    "next_segment_index",
]

_CRC_CHUNK = 1 << 20


@dataclass(frozen=True)
class Format:
    """What one sealed file format is called and how it fails.

    ``label`` names one file in messages ("checkpoint", "trace file").
    ``error`` wraps I/O failures, ``corrupt`` seal and structure
    failures, ``version_error`` (default ``corrupt``) a header from
    another format version.
    """

    name: str
    version: int
    label: str
    error: type
    corrupt: type
    version_error: Optional[type] = None

    def header_problem(self, document: object, source: str) -> Optional[str]:
        """None if ``document`` carries this format's header; raises on
        a foreign version; otherwise describes what is wrong."""
        if not isinstance(document, dict) or document.get("format") != self.name:
            return f"lacks the {self.name!r} header"
        version = document.get("version")
        if version != self.version:
            raise (self.version_error or self.corrupt)(
                f"{source} has format version {version!r}; this build "
                f"reads version {self.version}"
            )
        return None


def canonical(obj: object) -> bytes:
    """Canonical JSON bytes: the CRC domain of every seal.

    Sorted keys and tight separators make the bytes independent of dict
    order; JSON's shortest-repr floats round-trip exactly.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def fsync_directory(path: os.PathLike) -> bool:
    """Fsync the directory at ``path``; returns whether it succeeded.

    A rename or a new file is only durable once its directory entry is.
    Platforms that cannot open or fsync a directory get ``False``, not
    an exception: the file contents were already synced.
    """
    if os.name != "posix":
        return False
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return False
    try:
        os.fsync(fd)
    except OSError:
        return False
    finally:
        os.close(fd)
    return True


def atomic_write(
    path: os.PathLike,
    write: Callable[[BinaryIO], object],
    fmt: Optional[Format] = None,
) -> int:
    """Replace ``path`` with what ``write`` streams into a binary handle.

    Order: ``<path>.tmp``, write, flush, fsync, ``os.replace``, then
    fsync the directory.  On failure the temp file is removed, the old
    file is untouched, and the ``OSError`` is raised as ``fmt.error``
    (or as is without a format).  Returns the bytes written.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
            size = handle.tell()
        os.replace(tmp, path)
    except OSError as error:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        if fmt is None:
            raise
        raise fmt.error(f"cannot write {fmt.label} {path}: {error}") from error
    fsync_directory(path.parent)
    return size


def file_crc32(path: os.PathLike) -> int:
    """CRC-32 of a file, streamed in chunks (never loads it whole)."""
    crc = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_CRC_CHUNK)
            if not block:
                return crc
            crc = zlib.crc32(block, crc)


# -- sealed documents ---------------------------------------------------------


def _document_parts(fmt: Format, payload: Dict[str, object]) -> Tuple[bytes, bytes]:
    body = canonical(payload)
    head = (
        f'{{"format": {json.dumps(fmt.name)}, "version": {fmt.version}, '
        f'"crc32": {zlib.crc32(body)}, "payload": '
    ).encode("utf-8")
    return head, body


def encode_document(fmt: Format, payload: Dict[str, object]) -> bytes:
    """The sealed document for ``payload``; it is encoded exactly once."""
    head, body = _document_parts(fmt, payload)
    return head + body + b"}"


def decode_document(
    raw: Union[bytes, str], fmt: Format, source: Optional[str] = None
) -> Dict[str, object]:
    """Verify a sealed document and return its payload.

    Raises ``fmt.corrupt`` for anything that is not an intact document
    of this format and ``fmt.version_error`` for another version.
    """
    source = source or fmt.label
    try:
        document = json.loads(raw)
    except ValueError as error:
        # UnicodeDecodeError is a ValueError: bit rot can break the
        # encoding itself, and that is corruption too.
        raise fmt.corrupt(
            f"{source} is not valid JSON (torn write?): {error}"
        ) from error
    problem = fmt.header_problem(document, source)
    if problem is not None:
        raise fmt.corrupt(f"{source} {problem}")
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise fmt.corrupt(f"{source} has no payload object")
    crc = zlib.crc32(canonical(payload))
    if crc != document.get("crc32"):
        raise fmt.corrupt(
            f"{source} failed its CRC-32 self-check "
            f"(stored {document.get('crc32')!r}, computed {crc})"
        )
    return payload


def write_document(
    path: os.PathLike, fmt: Format, payload: Dict[str, object]
) -> int:
    """Atomically write ``payload`` as a sealed document; returns bytes."""
    head, body = _document_parts(fmt, payload)
    return atomic_write(path, lambda h: h.writelines((head, body, b"}\n")), fmt)


def read_document(path: os.PathLike, fmt: Format) -> Dict[str, object]:
    """Read and verify one sealed document, returning its payload."""
    try:
        raw = Path(path).read_bytes()
    except OSError as error:
        raise fmt.error(f"cannot read {fmt.label} {path}: {error}") from error
    return decode_document(raw, fmt, f"{fmt.label} {path}")


# -- sealed logs --------------------------------------------------------------


class SealedLog:
    """Appends sealed records to one log file after a header line.

    ``durable`` logs (the service journal) fsync the new file and its
    directory on creation and every record before :meth:`append`
    returns; a failed append is truncated away so it can never replay.
    Other logs (traces) buffer appends and fsync only in :meth:`sync`
    and :meth:`close`.  ``exclusive`` refuses to reuse an existing file.
    """

    def __init__(
        self,
        path: os.PathLike,
        fmt: Format,
        *,
        durable: bool = False,
        exclusive: bool = False,
    ):
        self.path = Path(path)
        self.fmt = fmt
        self.durable = durable
        try:
            # Unbuffered when durable: a failed write leaves nothing in
            # a buffer that a later flush could still land.
            self._handle = open(
                self.path, "xb" if exclusive else "wb",
                buffering=0 if durable else -1,
            )
        except OSError as error:
            raise fmt.error(
                f"cannot create {fmt.label} {self.path}: {error}"
            ) from error
        header = canonical({"format": fmt.name, "version": fmt.version})
        if not durable:
            self._handle.write(header + b"\n")
            return
        try:
            self._write_all(header + b"\n")
            os.fsync(self._handle.fileno())
        except OSError as error:
            self._handle.close()
            self.path.unlink(missing_ok=True)
            raise fmt.error(
                f"cannot create {fmt.label} {self.path}: {error}"
            ) from error
        fsync_directory(self.path.parent)

    def _write_all(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[self._handle.write(view):]

    def append(self, record: Dict[str, object]) -> None:
        """Seal and append ``record``; durable logs fsync it first."""
        if self._handle is None:
            raise self.fmt.error(f"{self.fmt.label} {self.path} is closed")
        sealed = dict(record)
        sealed["crc32"] = zlib.crc32(canonical(record))
        line = canonical(sealed) + b"\n"
        if not self.durable:
            self._handle.write(line)
            return
        offset = self._handle.tell()
        try:
            self._write_all(line)
            os.fsync(self._handle.fileno())
        except OSError as error:
            try:
                self._handle.seek(offset)
                self._handle.truncate()
            except OSError:
                # The unacknowledged bytes may still be there; refuse
                # to append after them.
                self._handle.close()
                self._handle = None
            raise self.fmt.error(
                f"cannot append to {self.fmt.label} {self.path}: {error}"
            ) from error

    def tell(self) -> int:
        return self._handle.tell()

    def sync(self) -> None:
        """Flush and fsync everything appended so far."""
        try:
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as error:
            raise self.fmt.error(
                f"cannot sync {self.fmt.label} {self.path}: {error}"
            ) from error

    def close(self) -> None:
        if self._handle is None:
            return
        try:
            self.sync()
        finally:
            self._handle.close()
            self._handle = None


def _unseal(
    record: object, parse: Optional[Callable[[Dict[str, object]], object]]
) -> Tuple[Optional[str], object]:
    if not isinstance(record, dict) or "crc32" not in record:
        return "lacks a crc32 seal", None
    claimed = record.pop("crc32")
    if zlib.crc32(canonical(record)) != claimed:
        return "failed its CRC-32 self-check", None
    if parse is None:
        return None, record
    try:
        return None, parse(record)
    except (KeyError, TypeError, ValueError):
        return "has a malformed body", None


def read_log(
    path: os.PathLike,
    fmt: Format,
    *,
    strict: bool = False,
    salvage: bool = False,
    parse: Optional[Callable[[Dict[str, object]], object]] = None,
    problems: Optional[List[str]] = None,
) -> list:
    """Verified records of one sealed log file, in file order.

    The one damage policy: an empty file or a final line that is not
    valid JSON is a torn tail (the append in flight at a crash, never
    acknowledged), dropped and noted in ``problems``.  Every other
    damage raises ``fmt.corrupt``, or under ``salvage`` ends the read
    there and is noted.  ``strict`` raises on torn tails too.  A header
    of another version always raises.  ``parse`` maps each verified
    record; if it fails the line counts as damaged.
    """
    path = Path(path)
    try:
        lines = path.read_bytes().splitlines()
    except OSError as error:
        raise fmt.error(f"cannot read {fmt.label} {path}: {error}") from error
    records: list = []

    def note(message: str) -> None:
        if problems is not None:
            problems.append(f"{path.name}: {message}")

    if not lines:
        if strict:
            raise fmt.corrupt(f"{fmt.label} {path} is empty")
        note("empty segment")
        return records
    last = len(lines) - 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if index == last and not strict:
                note("torn tail dropped")
                return records
            damage = "is not valid JSON"
        else:
            if index == 0:
                damage = fmt.header_problem(record, f"{fmt.label} {path}")
            else:
                damage, record = _unseal(record, parse)
                if damage is None:
                    records.append(record)
        if damage is None:
            continue
        if salvage:
            note(f"line {index + 1} {damage}; segment truncated there")
            return records
        raise fmt.corrupt(f"{fmt.label} {path} line {index + 1} {damage}")
    return records


def segment_path(base: os.PathLike, index: int) -> Path:
    """Numbered segment ``index`` of ``base``: ``trace.jsonl`` →
    ``trace-000001.jsonl``."""
    base = Path(base)
    return base.with_name(f"{base.stem}-{index:06d}{base.suffix}")


def _numbered(base: Path) -> List[Tuple[int, Path]]:
    pattern = re.compile(
        re.escape(base.stem) + r"-(\d{6,})" + re.escape(base.suffix) + r"$"
    )
    return sorted(
        (int(match.group(1)), candidate)
        for candidate in base.parent.glob(f"{base.stem}-*{base.suffix}")
        if (match := pattern.match(candidate.name)) and candidate.is_file()
    )


def segment_paths(base: os.PathLike) -> List[Path]:
    """``base`` itself (if present), then its numbered segments, oldest
    first."""
    base = Path(base)
    paths = [base] if base.is_file() else []
    return paths + [path for _, path in _numbered(base)]


def next_segment_index(base: os.PathLike) -> int:
    """One past the highest numbered segment of ``base`` on disk."""
    numbered = _numbered(Path(base))
    return numbered[-1][0] + 1 if numbered else 1
