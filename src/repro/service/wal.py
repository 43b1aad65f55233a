"""The one write-ahead log format, shared by fuzz checkpoints and the
serve journal.

A log is an append-only JSONL file: an optional header record, then one
JSON object per line, each flushed to the OS as it is written, so a
``kill -9`` can tear only the record being written -- the file's last
line.  Reading applies one rule to damage:

* the last non-empty line is forgiven when it does not parse, with or
  without its newline: it is dropped and ``torn_tail`` is set;
* any earlier line that does not parse -- or a header that does not,
  wherever it sits -- raises :class:`WALError`.

Nothing a crash can leave is ever an error, and no damage a crash cannot
leave is ever silently dropped.  A NUL byte is never valid JSON, so even
byte-level damage is caught without a checksum.

Reopening after a crash keeps the log's intact prefix: a writer resumed
from a :class:`WALContents` starts from the bytes through the last
intact record, newline-terminated, so a new record can never
concatenate with a torn one.  Both a fresh and a reopened log are put in
place atomically (temporary file, then rename).

Clients add only their record kinds: ``verify/fuzz.py`` a campaign
header and one entry per finished program, ``service/journal.py`` its
request and completion records.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


class WALError(Exception):
    """A log that cannot be read, or is damaged before its last line."""


@dataclass
class WALContents:
    """Everything :func:`read_wal` recovers from a log."""

    #: the header record (logs read with ``header=True`` only)
    header: dict | None = None
    #: (line number, record) of every intact record after the header
    records: list[tuple[int, dict]] = field(default_factory=list)
    #: True when a damaged last line was dropped
    torn_tail: bool = False
    #: the log's bytes through its last intact record, newline-terminated
    #: -- where a reopened writer starts
    intact: bytes = b""


def _record(blob: bytes) -> dict:
    doc = json.loads(blob)
    if not isinstance(doc, dict):
        raise ValueError("not a JSON object")
    return doc


def read_wal(path: str, what: str = "log", *,
             header: bool = False) -> WALContents:
    """Read a log back under the damage rule above.  ``what`` names the
    log in errors ("checkpoint", "journal"); with ``header`` the first
    non-empty line is the header record."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise WALError(f"cannot read {what} {path}: {exc}") from exc
    contents = WALContents()
    lines = raw.split(b"\n")
    offset = end = 0
    for i, blob in enumerate(lines):
        start, offset = offset, offset + len(blob) + 1
        if not blob.strip():
            continue
        want_header = header and contents.header is None
        try:
            doc = _record(blob)
        except ValueError as exc:
            if not want_header and not any(
                    rest.strip() for rest in lines[i + 1:]):
                contents.torn_tail = True
                break
            reason = getattr(exc, "msg", None) or str(exc)
            raise WALError(f"corrupt {what} {path}: line {i + 1}: "
                           f"{reason}") from exc
        if want_header:
            contents.header = doc
        else:
            contents.records.append((i + 1, doc))
        end = start + len(blob)
    if header and contents.header is None:
        raise WALError(f"corrupt {what} {path}: no header record")
    contents.intact = raw[:end] + b"\n" if end else b""
    return contents


class WALWriter:
    """The append half: a fresh log (with an optional ``header``) or one
    reopened from the :class:`WALContents` a crash left (``resume``),
    then one flushed line per :meth:`append`."""

    def __init__(self, path: str, *, header: dict | None = None,
                 resume: WALContents | None = None):
        if resume is not None:
            start = resume.intact
        elif header is not None:
            start = (json.dumps(header, separators=(",", ":"))
                     + "\n").encode("utf-8")
        else:
            start = b""
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(start)
        os.replace(tmp, path)
        self._fh = open(path, "a", encoding="utf-8")
        #: records appended through this writer
        self.records = 0

    def append(self, record: dict) -> None:
        self._fh.write(json.dumps(record, separators=(",", ":")))
        self._fh.write("\n")
        self._fh.flush()
        self.records += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
