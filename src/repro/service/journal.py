"""Write-ahead journal: the daemon's crash-recovery memory.

``repro serve --journal PATH`` records every accepted request *before*
it is served and every completion *after* its response has been written,
as records of the write-ahead log (:mod:`repro.service.wal`, no header):

* ``{"j": "req",  "seq": N, "line": <raw request line>}``
* ``{"j": "done", "seq": N, "id": ..., "status": ...,
     "key": <cache key>|null, "artifact": {...}|null}``

The ``done`` record carries the full artifact for ``ok`` compiles, so a
replay can seed the content-addressed cache and serve the recorded
bytes instead of guessing.  On restart, ``--resume-journal`` loads the
journal under the log's damage rule (a damaged last line is the one
record a ``kill -9`` can tear, and is dropped; damage before it raises
:class:`JournalError`), reopens it from its intact prefix, seeds the
cache from the recorded artifacts, and replays every request with no
``done`` record through the normal batch path.  Because a compile is a
pure function of its payload and replayed requests ride the same
cache-key dedupe, the response set after crash + resume is
byte-identical to an uninterrupted run -- the property
``tests/service/test_journal.py`` checks for every pool width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .wal import WALContents, WALError, WALWriter, read_wal

#: a damaged or alien journal raises the log's own error
JournalError = WALError

#: top-level keys of each record kind, for structural validation
_REQ_KEYS = {"j", "seq", "line"}
_DONE_KEYS = {"j", "seq", "id", "status", "key", "artifact"}


@dataclass
class JournalState:
    """Everything :func:`load_journal` recovers from a journal file."""

    #: seq -> raw request line, for every recorded request
    requests: dict[int, str] = field(default_factory=dict)
    #: seqs with a completion record
    done: set[int] = field(default_factory=set)
    #: (cache key, artifact doc) pairs recorded with ``ok`` completions,
    #: in journal order -- replays seed the cache from these
    artifacts: list[tuple[str, dict]] = field(default_factory=list)
    #: highest seq seen (the resumed daemon numbers onward from here)
    max_seq: int = -1
    #: True when a torn (truncated) final line was discarded
    torn_tail: bool = False
    #: the log as read; a resumed :class:`Journal` reopens from it
    log: WALContents = field(default_factory=WALContents)

    def incomplete(self) -> list[tuple[int, str]]:
        """Requests accepted but never answered, in accept order."""
        return sorted((seq, line) for seq, line in self.requests.items()
                      if seq not in self.done)


def _check_record(doc: dict, lineno: int) -> None:
    kind = doc.get("j")
    if kind == "req":
        missing = _REQ_KEYS - doc.keys()
    elif kind == "done":
        missing = _DONE_KEYS - doc.keys()
    else:
        raise JournalError(
            f"journal line {lineno}: unknown record kind {kind!r}")
    if missing:
        raise JournalError(
            f"journal line {lineno}: {kind!r} record is missing "
            f"{sorted(missing)}")
    if not isinstance(doc["seq"], int):
        raise JournalError(f"journal line {lineno}: 'seq' must be an int")


def load_journal(path: str) -> JournalState:
    """Read a journal back: its two record kinds on top of the log."""
    log = read_wal(path, "journal")
    state = JournalState(torn_tail=log.torn_tail, log=log)
    for lineno, doc in log.records:
        _check_record(doc, lineno)
        if doc["j"] == "req":
            state.requests[doc["seq"]] = doc["line"]
        else:
            state.done.add(doc["seq"])
            if doc["status"] == "ok" and doc["key"] and doc["artifact"]:
                state.artifacts.append((doc["key"], doc["artifact"]))
        state.max_seq = max(state.max_seq, doc["seq"])
    return state


class Journal:
    """Append-only writer half of the journal: opened fresh, or reopened
    from a loaded state's intact prefix.  Every record is flushed before
    the call returns, so a ``kill -9`` can cost at most the one record
    being written -- the torn tail the loader forgives."""

    def __init__(self, path: str, *, resume_from: JournalState | None = None):
        self.path = path
        self._log = WALWriter(
            path, resume=resume_from.log if resume_from is not None else None)

    @property
    def records(self) -> int:
        return self._log.records

    def record_request(self, seq: int, line: str) -> None:
        self._log.append({"j": "req", "seq": seq, "line": line.rstrip("\n")})

    def record_done(self, seq: int, response_id, status: str,
                    key: str | None = None,
                    artifact: dict | None = None) -> None:
        self._log.append({"j": "done", "seq": seq, "id": response_id,
                          "status": status, "key": key, "artifact": artifact})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
