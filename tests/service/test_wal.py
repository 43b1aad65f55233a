"""The one write-ahead log under exhaustive damage, for both of its users.

A crash can tear a log only at its end, so the last two records of a
4-program fuzz checkpoint and of a 6-request serve journal are damaged
in two ways: the file is cut at every byte offset, and every byte is
overwritten with NUL (never valid JSON, so no checksum is needed to see
it).  Reading must give one of three results:

* a cut at a record boundary gives exactly the records before it (a
  record that lost only its newline is still whole);
* damage that leaves only the last line unparsable gives every record
  before that line, with the torn flag set;
* damage anywhere earlier gives the one typed error.

Never a traceback, and never a changed record.  At a handful of those
offsets the damaged log is resumed end to end -- the serve client
resending any request the journal lacks, as the kill -9 tests do -- and
the fuzz report and the serve response set equal the undamaged run's
byte for byte.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json

import pytest

from repro.resilience import CheckpointError
from repro.service import Daemon, ServeConfig
from repro.service.journal import JournalError, load_journal
from repro.service.wal import read_wal
from repro.verify import fuzz

fuzz_module = importlib.import_module("repro.verify.fuzz")

FUZZ_N = 4
FUZZ_SEED = 1991
MACHINES = ("rs6k",)
REQUESTS = [json.dumps({"id": i, "source":
                        f"int g{i}(int x) {{ return x * {i + 2} + {i}; }}"})
            for i in range(6)]


def _campaign(**kwargs):
    return fuzz(FUZZ_N, FUZZ_SEED, shrink=False, machines=MACHINES, **kwargs)


def _report_bytes(report) -> str:
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


def _serve(config: ServeConfig, lines: list[str], *, resume: bool = False):
    out = io.StringIO()
    with Daemon(config) as daemon:
        if resume:
            daemon.resume_from_journal(out)
        else:
            daemon.start_journal()
        daemon.serve_stream(io.StringIO("".join(l + "\n" for l in lines)),
                            out)
    return out.getvalue().splitlines()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The undamaged campaign: its report and its checkpoint bytes."""
    path = tmp_path_factory.mktemp("wal") / "campaign.ckpt"
    report = _campaign(checkpoint_path=str(path))
    return report, path.read_bytes()


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    """The undamaged serve run: its responses and its journal bytes."""
    path = tmp_path_factory.mktemp("wal") / "serve.wal"
    responses = _serve(ServeConfig(jobs=1, journal_path=str(path),
                                   batch_size=2), REQUESTS)
    return responses, path.read_bytes()


def _lines(raw: bytes) -> list[tuple[int, int]]:
    """(start, end) of each line's content; its newline sits at end."""
    spans, start = [], 0
    for line in raw.split(b"\n")[:-1]:
        spans.append((start, start + len(line)))
        start += len(line) + 1
    return spans


def _cuts(raw: bytes):
    """(damaged bytes, intact lines, torn) for a cut at every offset of
    the last two records."""
    spans = _lines(raw)
    for k in range(spans[-2][0], len(raw) + 1):
        kept = sum(1 for _start, end in spans if end <= k)
        torn = any(start < k < end for start, end in spans)
        yield raw[:k], kept, torn


def _nuls(raw: bytes):
    """(damaged bytes, intact lines | None for the typed error, torn)
    for a NUL over every byte of the last two records."""
    spans = _lines(raw)
    (_, second_end), (last_start, _) = spans[-2], spans[-1]
    for k in range(spans[-2][0], len(raw)):
        damaged = raw[:k] + b"\x00" + raw[k + 1:]
        if k < second_end:          # inside the second-to-last record
            yield damaged, None, False
        elif k < last_start:        # its newline: merged into the last line
            yield damaged, len(spans) - 2, True
        else:                       # the last record or its newline
            yield damaged, len(spans) - 1, True


def _check_every_damage(raw, tmp_path, load, error):
    """Apply every cut and every NUL; ``load(path)`` returns the lines it
    kept (header included) and the torn flag."""
    docs = [json.loads(line) for line in raw.split(b"\n")[:-1]]
    path = tmp_path / "damaged.log"
    checked = 0
    for variants in (_cuts(raw), _nuls(raw)):
        for damaged, kept, torn in variants:
            path.write_bytes(damaged)
            if kept is None:
                with pytest.raises(error):
                    load(path)
            else:
                assert load(path) == (docs[:kept], torn)
            checked += 1
    return checked


def test_checkpoint_damage_reads_one_of_three_ways(checkpoint, tmp_path):
    _report, raw = checkpoint
    header = json.loads(raw.split(b"\n")[0])

    def load(path):
        log = fuzz_module._load_checkpoint(str(path), header)
        assert log.intact == raw[:len(log.intact) - 1] + b"\n"
        return [log.header] + [doc for _, doc in log.records], log.torn_tail

    assert _check_every_damage(raw, tmp_path, load, CheckpointError) \
        > 2 * len(raw.split(b"\n")[-2])


def test_journal_damage_reads_one_of_three_ways(journal, tmp_path):
    _responses, raw = journal

    def load(path):
        state = load_journal(str(path))
        assert state.log.intact in (b"", raw[:len(state.log.intact) - 1]
                                    + b"\n")
        assert [n for n, _ in state.log.records] \
            == list(range(1, len(state.log.records) + 1))
        return [doc for _, doc in state.log.records], state.torn_tail

    assert _check_every_damage(raw, tmp_path, load, JournalError) \
        > 2 * len(raw.split(b"\n")[-2])


def _handful(raw: bytes) -> dict[str, bytes]:
    """A few damaged variants of ``raw`` worth resuming end to end."""
    spans = _lines(raw)
    (second_start, second_end), (last_start, last_end) = spans[-2:]
    mid = (last_start + last_end) // 2

    def nul(k):
        return raw[:k] + b"\x00" + raw[k + 1:]

    return {"cut at the last record": raw[:last_start],
            "cut inside the last record": raw[:mid],
            "cut before the last newline": raw[:last_end],
            "cut inside the second-to-last record":
                raw[:(second_start + second_end) // 2],
            "NUL on the second-to-last newline": nul(second_end),
            "NUL inside the last record": nul(mid)}


def _nul_before_the_tail(raw: bytes) -> bytes:
    """A NUL inside the second-to-last record: the typed error."""
    k = _lines(raw)[-2][0] + 1
    return raw[:k] + b"\x00" + raw[k + 1:]


def test_damaged_checkpoint_resumes_to_the_undamaged_report(checkpoint,
                                                             tmp_path):
    straight, raw = checkpoint
    path = tmp_path / "campaign.ckpt"
    for label, damaged in _handful(raw).items():
        path.write_bytes(damaged)
        resumed = _campaign(checkpoint_path=str(path),
                            resume_path=str(path))
        assert _report_bytes(resumed) == _report_bytes(straight), label
        log = read_wal(str(path), header=True)
        assert not log.torn_tail
        assert sorted(doc["done"] for _, doc in log.records) \
            == list(range(FUZZ_N)), label
    path.write_bytes(_nul_before_the_tail(raw))
    with pytest.raises(CheckpointError, match="corrupt checkpoint"):
        _campaign(checkpoint_path=str(path), resume_path=str(path))


def test_damaged_journal_resumes_to_the_undamaged_responses(journal,
                                                             tmp_path):
    responses, raw = journal
    clean = {json.loads(line)["id"]: line for line in responses}
    path = tmp_path / "serve.wal"
    config = ServeConfig(jobs=1, journal_path=str(path), batch_size=2,
                         resume_journal=True)
    # a crash between the last batch's requests and its answers leaves
    # request records last: damaging those makes the client resend
    mid_batch = raw[:_lines(raw)[-3][1] + 1]
    variants = [*_handful(raw).items(),
                *((f"mid-batch, {label}", damaged)
                  for label, damaged in _handful(mid_batch).items())]
    for label, damaged in variants:
        path.write_bytes(damaged)
        state = load_journal(str(path))
        ids = {seq: json.loads(line)["id"]
               for seq, line in state.requests.items()}
        # answered before the crash: every request with a done record
        got = {ids[seq]: clean[ids[seq]] for seq in state.done}
        resent = [line for line in REQUESTS
                  if json.loads(line)["id"] not in ids.values()]
        for line in _serve(config, resent, resume=True):
            rid = json.loads(line)["id"]
            if rid in got:  # a replay must not drift
                assert got[rid] == line, label
            got[rid] = line
        assert got == clean, label
        after = load_journal(str(path))
        assert not after.incomplete() and not after.torn_tail, label
    path.write_bytes(_nul_before_the_tail(raw))
    with pytest.raises(JournalError, match="corrupt journal"):
        load_journal(str(path))
