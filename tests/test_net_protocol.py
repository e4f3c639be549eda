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
    PROTOCOL_VERSION,
    Bye,
    ErrorMsg,
    Grant,
    Hello,
    Migrate,
    Migrated,
    MsgType,
    Ping,
    Pong,
    Reject,
    Submit,
    TickAdvance,
    TickDone,
    Welcome,
    decode_message,
    encode_message,
    reject_reason_code,
    reject_reason_from_code,
)
from repro.service.server import RejectReason

_U16 = st.integers(min_value=0, max_value=0xFFFF)
_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_SEQ = st.integers(min_value=1, max_value=2**64 - 1)
_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)

_TEXT = st.text(max_size=64)

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
    st.builds(
        Submit,
        seq=_SEQ,
        input_fiber=_U32,
        wavelength=_U32,
        output_fiber=_U32,
        duration=_U32,
        priority=st.integers(min_value=-(2**31), max_value=2**31 - 1),
        timeout_ticks=_I64,
        request_id=st.text(max_size=32),
        tenant=_U32,
    ),
    st.builds(Grant, seq=_SEQ, channel=_U32, slot=_I64),
    st.builds(
        Reject,
        seq=_SEQ,
        reason=st.sampled_from(list(RejectReason)),
        slot=_I64,
    ),
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
            MsgType.SUBMIT,
            MsgType.GRANT,
            MsgType.REJECT,
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
        buf = bytearray(encode_message(Submit(1, 0, 0, 0)))
        buf[1:9] = b"\x00" * 8  # overwrite seq with 0
        with pytest.raises(ProtocolError):
            decode_message(bytes(buf))

    def test_zero_count_tick_rejected(self):
        buf = bytearray(encode_message(TickAdvance(1)))
        buf[-4:] = b"\x00" * 4
        with pytest.raises(ProtocolError):
            decode_message(bytes(buf))

    def test_oversized_request_id_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(Submit(1, 0, 0, 0, request_id="x" * 300))

    def test_empty_hello_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message(Hello(versions=()))


class TestHandshake:
    def test_hello_offers_the_one_version(self):
        assert PROTOCOL_VERSION == 5
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
