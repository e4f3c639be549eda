"""The write-ahead journal: codec, backends, torn tails, compaction.

The durability layer's whole correctness story rests on two codec claims,
so both get hypothesis property tests:

* **round-trip** — any record sequence decodes back bit-identically;
* **torn-tail tolerance** — truncating the encoded stream at *any* byte
  boundary (and corrupting any single byte past the valid prefix) loses at
  most the record being written, never an earlier one, and never raises.

The backend tests cover :class:`MemoryJournal` / :class:`FileJournal`
durability semantics (reopen adoption, atomic compaction) and
:class:`repro.faults.TornWriter` producing exactly the torn tails the
decoder claims to tolerate.
"""

import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributed import SlotRequest
from repro.errors import InvalidParameterError, JournalCrashError
from repro.faults import TornWriter
from repro.service.journal import (
    FAULT_CRASH,
    FileJournal,
    JournalRecord,
    MemoryJournal,
    RecordType,
    ShardJournal,
    decode_records,
    encode_record,
    request_from_tuple,
    request_tuple,
)

# -- strategies --------------------------------------------------------------

_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

records_st = st.lists(
    st.builds(
        JournalRecord,
        type=st.sampled_from(list(RecordType)),
        tick=_I64,
        values=st.lists(_I64, max_size=6).map(tuple),
    ),
    max_size=12,
)


def encode_all(records):
    return b"".join(encode_record(r) for r in records)


# -- codec properties --------------------------------------------------------


class TestCodec:
    @given(records_st)
    def test_round_trip(self, records):
        decoded, consumed, torn = decode_records(encode_all(records))
        assert decoded == records
        assert consumed == len(encode_all(records))
        assert not torn

    @given(records_st, st.data())
    @settings(max_examples=200)
    def test_truncation_at_any_boundary_keeps_the_prefix(self, records, data):
        """Cutting the stream anywhere loses at most the torn record."""
        buf = encode_all(records)
        cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
        decoded, consumed, torn = decode_records(buf[:cut])
        # The decoded prefix is an exact prefix of the original sequence...
        assert decoded == records[: len(decoded)]
        assert consumed <= cut
        # ...and a clean cut between records is not reported as torn.
        boundaries = {0}
        off = 0
        for r in records:
            off += len(encode_record(r))
            boundaries.add(off)
        assert torn == (cut not in boundaries)
        # Everything before the cut record survived: the torn record is the
        # only loss.
        assert len(decoded) >= sum(1 for b in sorted(boundaries) if b <= cut) - 1

    @given(records_st, st.data())
    @settings(max_examples=200)
    def test_single_byte_corruption_never_raises(self, records, data):
        buf = bytearray(encode_all(records))
        if not buf:
            return
        pos = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        buf[pos] ^= flip
        decoded, _consumed, _torn = decode_records(bytes(buf))
        # Records fully before the corrupted byte decode unchanged; the CRC
        # stops the walk at (or before) the damaged record.
        intact = 0
        off = 0
        for r in records:
            end = off + len(encode_record(r))
            if end <= pos:
                intact += 1
                off = end
            else:
                break
        assert decoded[:intact] == records[:intact]

    def test_crc_rejects_a_flipped_body(self):
        good = encode_record(JournalRecord(RecordType.ADVANCE, 7))
        bad = bytearray(good)
        bad[-1] ^= 0xFF
        decoded, consumed, torn = decode_records(bytes(bad))
        assert decoded == [] and consumed == 0 and torn

    def test_absurd_length_header_is_torn_not_a_huge_alloc(self):
        buf = struct.pack("!II", 2**31, 0) + b"xx"
        decoded, consumed, torn = decode_records(buf)
        assert decoded == [] and consumed == 0 and torn

    def test_valid_crc_undecodable_body_is_torn(self):
        # A body claiming more values than its length carries.
        body = struct.pack("!BqH", int(RecordType.GRANT), 0, 40)
        buf = struct.pack("!II", len(body), zlib.crc32(body)) + body
        decoded, _consumed, torn = decode_records(buf)
        assert decoded == [] and torn

    def test_too_many_values_rejected_at_encode(self):
        with pytest.raises(InvalidParameterError):
            encode_record(
                JournalRecord(RecordType.FAULT, 0, (0,) * 70_000)
            )

    def test_request_tuple_round_trip(self):
        r = SlotRequest(2, 5, 1, duration=3, priority=4)
        assert request_from_tuple(request_tuple(r)) == r

    def test_request_tuple_carries_tenant(self):
        r = SlotRequest(2, 5, 1, duration=3, priority=4, tenant=7)
        t = request_tuple(r)
        assert len(t) == 6 and t[-1] == 7
        assert request_from_tuple(t) == r

    def test_request_from_pre_tenant_tuple_rejected(self):
        # One request-tuple form: five values are not widened to tenant 0.
        with pytest.raises(ValueError):
            request_from_tuple((2, 5, 1, 3, 4))


# -- backends ----------------------------------------------------------------


class TestBackends:
    def test_memory_journal_load_and_rewrite(self):
        b = MemoryJournal()
        b.append(b"abc")
        b.append(b"def")
        b.flush()
        assert b.load() == b"abcdef" and len(b) == 6
        b.rewrite(b"xy")
        assert b.load() == b"xy"

    def test_file_journal_persists_across_reopen(self, tmp_path):
        path = tmp_path / "shard.wal"
        b = FileJournal(path)
        b.append(b"hello")
        b.flush()
        b.close()
        b2 = FileJournal(path)
        assert b2.load() == b"hello"
        b2.append(b" world")
        assert b2.load() == b"hello world"
        b2.close()

    def test_file_journal_rewrite_is_atomic_rename(self, tmp_path):
        path = tmp_path / "shard.wal"
        b = FileJournal(path)
        b.append(b"old")
        b.rewrite(b"new")
        assert path.read_bytes() == b"new"
        assert not path.with_suffix(".wal.tmp").exists()
        b.append(b"+tail")
        assert b.load() == b"new+tail"
        b.close()


class TestShardJournal:
    def test_appenders_mirror_and_reload_agree(self):
        j = ShardJournal(MemoryJournal())
        j.accept(0, SlotRequest(1, 2, 0, duration=2))
        j.dequeue(1, 1)
        j.grant(1, 1, 2, 3, 2)
        j.advance(1)
        j.fault(2, FAULT_CRASH)
        j.snapshot_mark(4)
        reloaded, torn = j.reload()
        assert reloaded == list(j.records())
        assert not torn
        assert [r.type for r in reloaded] == [
            RecordType.ACCEPT,
            RecordType.DEQUEUE,
            RecordType.GRANT,
            RecordType.ADVANCE,
            RecordType.FAULT,
            RecordType.SNAPSHOT,
        ]

    def test_reopen_adopts_existing_bytes(self):
        backend = MemoryJournal()
        j = ShardJournal(backend)
        j.advance(0)
        j.advance(1)
        j2 = ShardJournal(backend)  # "restarted process" over the same bytes
        assert j2.records() == j.records()

    def test_compact_drops_only_pre_snapshot_records(self):
        j = ShardJournal(MemoryJournal())
        for t in range(6):
            j.advance(t)
        kept = j.compact(before_tick=4)
        assert kept == 2
        assert [r.tick for r in j.records()] == [4, 5]
        reloaded, torn = j.reload()
        assert [r.tick for r in reloaded] == [4, 5] and not torn

    def test_garbage_tail_on_disk_is_adopted_as_prefix(self, tmp_path):
        path = tmp_path / "shard.wal"
        j = ShardJournal(FileJournal(path))
        j.advance(0)
        j.close()
        with open(path, "ab") as fh:
            fh.write(b"\xde\xad\xbe\xef")  # torn write from a dead process
        j2 = ShardJournal(FileJournal(path))
        assert [r.type for r in j2.records()] == [RecordType.ADVANCE]
        records, torn = j2.reload()
        assert [r.type for r in records] == [RecordType.ADVANCE] and torn
        j2.close()


class TestTornWriter:
    @pytest.mark.parametrize("keep", [0, 1, 5, 10_000])
    def test_severed_append_loses_only_the_torn_record(self, keep):
        inner = MemoryJournal()
        j = ShardJournal(TornWriter(inner, crash_at_append=2, keep_bytes=keep))
        j.advance(0)
        j.advance(1)
        with pytest.raises(JournalCrashError):
            j.advance(2)
        # A fresh journal over the surviving bytes: the torn record is lost
        # unless the whole record reached the backend before the "power
        # loss" (keep >= record length), in which case it is durable.
        full = len(encode_record(JournalRecord(RecordType.ADVANCE, 2)))
        j2 = ShardJournal(inner)
        records, torn = j2.reload()
        expected = [0, 1, 2] if keep >= full else [0, 1]
        assert [r.tick for r in records] == expected
        assert torn == (0 < keep < full)

    def test_crashed_writer_stays_crashed(self):
        writer = TornWriter(MemoryJournal(), crash_at_append=0)
        with pytest.raises(JournalCrashError):
            writer.append(b"x")
        with pytest.raises(JournalCrashError):
            writer.append(b"y")
        with pytest.raises(JournalCrashError):
            writer.rewrite(b"z")
        assert writer.crashed
