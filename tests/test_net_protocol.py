"""The wire protocol codec (:mod:`repro.net.protocol`).

Mirrors the journal codec suite's discipline for the network payload
layer: every message round-trips bit-identically, and arbitrary bytes —
truncations at every boundary, single-byte corruption, pure garbage —
must surface as a typed :class:`~repro.errors.ProtocolError`, never an
unhandled exception (and, combined with the strict
:class:`~repro.util.framing.FrameDecoder`, never a hung reader).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.protocol import (
    MAX_MESSAGE,
    PROTOCOL_VERSION,
    Bye,
    ErrorMsg,
    Grant,
    Hello,
    Migrate,
    Migrated,
    MsgType,
    Outcomes,
    Ping,
    Pong,
    Reject,
    Submit,
    SubmitBatch,
    TickAdvance,
    TickDone,
    Welcome,
    decode_message,
    encode_message,
    encode_submit_row,
    outcome_batches,
    reject_reason_code,
    reject_reason_from_code,
    submit_batches,
)
from repro.service.server import RejectReason

_U16 = st.integers(min_value=0, max_value=0xFFFF)
_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_SEQ = st.integers(min_value=1, max_value=2**64 - 1)
_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

_TEXT = st.text(max_size=64)
#: Request ids up to the 256-byte limit (64 characters of up to 4 UTF-8
#: bytes each, or up to 256 ASCII characters).
_REQUEST_ID = st.text(max_size=64) | st.text(
    alphabet=st.characters(max_codepoint=127), max_size=256
)

submit_rows_st = st.builds(
    Submit,
    seq=_SEQ,
    input_fiber=_U32,
    wavelength=_U32,
    output_fiber=_U32,
    duration=_U32,
    priority=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    timeout_ticks=_I64,
    request_id=_REQUEST_ID,
    tenant=_U32,
)
outcome_rows_st = st.one_of(
    st.builds(Grant, seq=_SEQ, channel=_U32, slot=_I64),
    st.builds(
        Reject,
        seq=_SEQ,
        reason=st.sampled_from(list(RejectReason)),
        slot=_I64,
    ),
)
_ROWS = dict(min_size=1, max_size=16)

messages_st = st.one_of(
    st.builds(
        Hello,
        versions=st.lists(_U16, min_size=1, max_size=8).map(tuple),
    ),
    st.builds(Welcome, version=_U16, n_fibers=_U32, k=_U32),
    st.builds(
        ErrorMsg,
        seq=st.integers(min_value=0, max_value=2**64 - 1),
        code=_U16,
        message=_TEXT,
    ),
    st.builds(Bye),
    st.lists(submit_rows_st, **_ROWS).map(lambda rows: SubmitBatch(tuple(rows))),
    st.lists(outcome_rows_st, **_ROWS).map(lambda rows: Outcomes(tuple(rows))),
    st.builds(TickAdvance, count=st.integers(min_value=1, max_value=0xFFFFFFFF)),
    st.builds(TickDone, slot=_I64, granted=_U32),
    st.builds(Migrate, seq=_SEQ, shard=_U32, destination=_U32),
    st.builds(
        Migrated,
        seq=_SEQ,
        shard=_U32,
        source=_U32,
        destination=_U32,
        next_tick=st.integers(min_value=0, max_value=2**64 - 1),
        payload_bytes=st.integers(min_value=0, max_value=2**64 - 1),
        journal_records=st.integers(min_value=0, max_value=2**64 - 1),
        resumed=st.booleans(),
    ),
    st.builds(Ping, token=st.integers(min_value=0, max_value=2**64 - 1)),
    st.builds(
        Pong,
        token=st.integers(min_value=0, max_value=2**64 - 1),
        slot=_I64,
    ),
)


class TestRoundTrip:
    @given(messages_st)
    def test_round_trip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_every_message_type_is_covered(self):
        # The strategy must not silently skip a tag.
        sampled = {
            MsgType.HELLO,
            MsgType.WELCOME,
            MsgType.ERROR,
            MsgType.BYE,
            MsgType.SUBMIT_BATCH,
            MsgType.OUTCOMES,
            MsgType.TICK_ADVANCE,
            MsgType.TICK_DONE,
            MsgType.MIGRATE,
            MsgType.MIGRATED,
            MsgType.PING,
            MsgType.PONG,
        }
        assert sampled == set(MsgType)

    def test_reason_codes_round_trip_and_are_stable(self):
        for reason in RejectReason:
            assert reject_reason_from_code(reject_reason_code(reason)) is reason
        # Pinned values: the wire contract, not the enum definition order.
        assert reject_reason_code(RejectReason.CONTENTION) == 1
        assert reject_reason_code(RejectReason.DUPLICATE) == 9
        assert reject_reason_code(RejectReason.RATE_LIMITED) == 11

    def test_unknown_reason_code_is_typed(self):
        with pytest.raises(ProtocolError):
            reject_reason_from_code(200)

    def test_every_reject_reason_round_trips_in_outcomes(self):
        rows = tuple(
            Reject(i + 1, reason, slot=i) for i, reason in enumerate(RejectReason)
        ) + (Grant(99, 2, 7),)
        assert decode_message(encode_message(Outcomes(rows))) == Outcomes(rows)


class TestHostileBytes:
    @given(messages_st, st.data())
    @settings(max_examples=200)
    def test_truncation_at_every_boundary_is_typed(self, msg, data):
        buf = encode_message(msg)
        cut = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        try:
            decode_message(buf[:cut])
        except ProtocolError:
            pass
        # Decoding a truncated ERROR/HELLO prefix may still succeed when
        # the cut lands on a self-consistent prefix; what is banned is any
        # *other* exception, which would escape the pytest.raises-free try.

    @given(messages_st, st.data())
    @settings(max_examples=200)
    def test_single_byte_corruption_is_typed(self, msg, data):
        buf = bytearray(encode_message(msg))
        pos = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
        buf[pos] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            decode_message(bytes(buf))
        except ProtocolError:
            pass

    @given(st.binary(max_size=128))
    @settings(max_examples=300)
    def test_garbage_is_typed(self, junk):
        try:
            decode_message(junk)
        except ProtocolError:
            pass

    def test_empty_payload(self):
        with pytest.raises(ProtocolError):
            decode_message(b"")

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xfe")

    @pytest.mark.parametrize(
        "tag, body",
        [
            # The retired per-request SUBMIT, GRANT and REJECT layouts.
            (0x05, struct.pack("!QIIIIiIqH", 1, 0, 0, 0, 1, 0, 0, -1, 0)),
            (0x06, struct.pack("!QIq", 1, 0, 0)),
            (0x07, struct.pack("!QBq", 1, 1, 0)),
        ],
    )
    def test_retired_tags_0x05_to_0x07_are_unknown(self, tag, body):
        with pytest.raises(ProtocolError, match=f"unknown message tag 0x0{tag}"):
            decode_message(bytes([tag]) + body)

    def test_retired_tag_0x0a_is_unknown(self):
        # 0x0A once carried a tenant-only submit; a well-formed body of
        # that layout must not decode into anything.
        body = struct.pack("!QIIIIiIqH", 1, 0, 0, 0, 1, 0, 5, -1, 0)
        with pytest.raises(ProtocolError, match="unknown message tag 0x0a"):
            decode_message(b"\x0a" + body)

    def test_trailing_garbage_rejected(self):
        buf = encode_message(Bye()) + b"x"
        with pytest.raises(ProtocolError):
            decode_message(buf)

    def test_zero_seq_submit_rejected(self):
        # The second row of a SUBMIT_BATCH (tag, u16 count, 42-byte rows).
        buf = bytearray(
            encode_message(SubmitBatch((Submit(1, 0, 0, 0), Submit(2, 0, 0, 0))))
        )
        buf[3 + 42 : 3 + 42 + 8] = b"\x00" * 8  # overwrite seq with 0
        with pytest.raises(ProtocolError, match="seq must be > 0"):
            decode_message(bytes(buf))

    def test_zero_seq_outcome_rejected(self):
        buf = bytearray(encode_message(Outcomes((Grant(1, 0, 0),))))
        buf[3:11] = b"\x00" * 8
        with pytest.raises(ProtocolError, match="seq must be > 0"):
            decode_message(bytes(buf))

    def test_empty_batches_rejected(self):
        for msg, tag in ((SubmitBatch(()), MsgType.SUBMIT_BATCH),
                         (Outcomes(()), MsgType.OUTCOMES)):
            with pytest.raises(ProtocolError, match="1..65535 rows"):
                encode_message(msg)
            with pytest.raises(ProtocolError, match="carries no rows"):
                decode_message(bytes([tag]) + struct.pack("!H", 0))

    def test_row_cut_mid_body_rejected(self):
        rows = (Submit(1, 0, 0, 0, request_id="abc"), Submit(2, 1, 1, 1))
        buf = encode_message(SubmitBatch(rows))
        # Cut inside the second row's fixed part, then inside the first
        # row's request_id (the count still promises two rows).
        for cut in (len(buf) - 5, 3 + 42 + 1):
            with pytest.raises(ProtocolError, match="cut mid-body"):
                decode_message(buf[:cut])
        grants = encode_message(Outcomes((Grant(1, 0, 0), Grant(2, 0, 0))))
        with pytest.raises(ProtocolError, match="OUTCOMES body"):
            decode_message(grants[:-5])

    def test_outcome_with_unknown_reason_code_rejected(self):
        buf = bytearray(encode_message(Outcomes((Reject(1, RejectReason.DROPPED),))))
        buf[11] = 200  # the row's code byte (after tag, count and seq)
        with pytest.raises(ProtocolError, match="unknown reject-reason code 200"):
            decode_message(bytes(buf))

    def test_reject_row_with_a_channel_rejected(self):
        buf = bytearray(encode_message(Outcomes((Reject(1, RejectReason.DROPPED),))))
        buf[15] = 1  # low byte of the channel field
        with pytest.raises(ProtocolError, match="carries a channel"):
            decode_message(bytes(buf))

    def test_zero_count_tick_rejected(self):
        buf = bytearray(encode_message(TickAdvance(1)))
        buf[-4:] = b"\x00" * 4
        with pytest.raises(ProtocolError):
            decode_message(bytes(buf))

    def test_oversized_request_id_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(
                SubmitBatch((Submit(1, 0, 0, 0, request_id="x" * 300),))
            )

    def test_oversized_batch_rejected_at_encode(self):
        rows = tuple(Submit(i, 0, 0, 0) for i in range(1, 2000))
        with pytest.raises(ProtocolError, match="split it first"):
            encode_message(SubmitBatch(rows))

    def test_empty_hello_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(Hello(versions=()))


def _packed(row: Submit) -> bytes:
    return encode_submit_row(row.seq, row, row.timeout_ticks, row.request_id)


class TestSplitting:
    """A slot's rows are split into messages that each fit
    :data:`MAX_MESSAGE`, conserving every row in order."""

    @given(st.lists(submit_rows_st, min_size=1, max_size=400))
    @settings(max_examples=30)
    def test_submit_batches_fit_and_conserve(self, rows):
        batches = submit_batches([_packed(r) for r in rows])
        decoded = [decode_message(encode_message(b)) for b in batches]
        assert [r for b in decoded for r in b.rows] == rows
        for b in batches:
            assert 0 < len(encode_message(b)) <= MAX_MESSAGE

    @given(st.lists(submit_rows_st, min_size=1, max_size=16))
    @settings(max_examples=30)
    def test_packed_rows_encode_like_submit_rows(self, rows):
        packed = SubmitBatch(tuple(_packed(r) for r in rows))
        assert encode_message(packed) == encode_message(SubmitBatch(tuple(rows)))

    def test_a_perf_d_slot_is_one_batch_and_a_huge_one_splits(self):
        slot = [_packed(Submit(i, 0, 0, 0)) for i in range(1, 231)]
        assert len(submit_batches(slot)) == 1
        huge = [
            _packed(Submit(i, 0, 0, 0, request_id="r" * 256)) for i in range(1, 600)
        ]
        batches = submit_batches(huge)
        assert len(batches) > 2
        assert all(len(encode_message(b)) <= MAX_MESSAGE for b in batches)
        assert [r for b in batches for r in b.rows] == huge

    def test_unencodable_row_is_typed(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            _packed(Submit(1, 0, 0, 0, request_id="x" * 300))
        with pytest.raises(ProtocolError, match="cannot encode"):
            _packed(Submit(1, -1, 0, 0))

    def test_outcome_batches_fit_and_conserve(self):
        rows = [Grant(i, 1, 2) for i in range(1, 7001)]
        batches = outcome_batches(rows)
        assert len(batches) == 3
        assert [r for b in batches for r in b.rows] == rows
        assert all(len(encode_message(b)) <= MAX_MESSAGE for b in batches)
        assert outcome_batches([]) == []


class TestHandshake:
    def test_hello_offers_the_one_version(self):
        assert PROTOCOL_VERSION == 6
        assert Hello().versions == (PROTOCOL_VERSION,)

    def test_submit_converts_to_slot_request(self):
        s = Submit(5, input_fiber=2, wavelength=3, output_fiber=1, duration=4)
        r = s.to_request()
        assert (r.input_fiber, r.wavelength, r.output_fiber, r.duration) == (
            2,
            3,
            1,
            4,
        )
