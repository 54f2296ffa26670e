"""Frame codec and payload primitive tests, including the decode fuzz
totality requirement."""

from __future__ import annotations

import io
import random
import socket
import struct
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import peak_allocated
from csg import wire
from csg.wire import (
    FrameError,
    FrameTooLarge,
    MalformedPayload,
    MessageType,
    PayloadReader,
    StreamEnded,
    TruncatedFrame,
    UnknownType,
    decode_frame,
    encode_frame,
    encode_mpint,
    encode_str,
)


def decode_bytes(raw: bytes):
    return decode_frame(io.BytesIO(raw))


# --- encoding ---------------------------------------------------------------

def test_encode_disconnect_forced_bytes():
    assert encode_frame(MessageType.DISCONNECT, b"") == bytes.fromhex("000000010e")


def test_encode_with_payload_forced_bytes():
    raw = encode_frame(MessageType.CLIENT_HELLO, b"\x41\x42")
    assert raw == bytes.fromhex("00000003014142")


def test_encode_rejects_oversized_payload():
    assert len(encode_frame(MessageType.PUT, bytes(wire.MAX_PAYLOAD_LEN))) == wire.MAX_FRAME_LEN + 4
    with pytest.raises(FrameTooLarge):
        encode_frame(MessageType.PUT, bytes(wire.MAX_PAYLOAD_LEN + 1))


def test_message_type_codes_are_the_assigned_ones():
    assert [int(t) for t in MessageType] == list(range(0x01, 0x10))


# --- decoding ---------------------------------------------------------------

def test_decode_disconnect():
    assert decode_bytes(bytes.fromhex("000000010e")) == (MessageType.DISCONNECT, b"")


def test_decode_unknown_type():
    with pytest.raises(UnknownType):
        decode_bytes(bytes.fromhex("00000002ff00"))


def test_decode_truncations():
    with pytest.raises(TruncatedFrame):
        decode_bytes(b"")
    with pytest.raises(TruncatedFrame):
        decode_bytes(b"\x00\x00\x00")  # length itself cut short
    with pytest.raises(TruncatedFrame):
        decode_bytes(b"\x00\x00\x00\x05\x01\x41")  # body cut short
    with pytest.raises(TruncatedFrame):
        decode_bytes(b"\x00\x00\x00\x00")  # zero length leaves no type byte
    with pytest.raises(TruncatedFrame):
        # cut short after the payload's first reads
        decode_bytes(encode_frame(MessageType.PUT, bytes(300_000))[:-1])


def test_only_an_end_before_the_frame_is_stream_ended():
    with pytest.raises(StreamEnded):
        decode_bytes(b"")
    for cut in (b"\x00", b"\x00\x00\x00\x05\x01"):
        with pytest.raises(TruncatedFrame) as info:
            decode_bytes(cut)
        assert type(info.value) is TruncatedFrame


def test_decode_rejects_over_cap_before_reading_body():
    header = struct.pack(">I", wire.MAX_FRAME_LEN + 1)
    with pytest.raises(FrameTooLarge):
        decode_bytes(header)


def test_decode_leaves_stream_at_next_frame():
    # the middle payload takes several reads
    raw = b"".join(
        encode_frame(msg_type, payload)
        for msg_type, payload in (
            (MessageType.LIST, b""),
            (MessageType.PUT, bytes(200_000)),
            (MessageType.DISCONNECT, b""),
        )
    )
    stream = io.BytesIO(raw)
    assert decode_frame(stream)[0] is MessageType.LIST
    assert decode_frame(stream) == (MessageType.PUT, bytes(200_000))
    assert decode_frame(stream)[0] is MessageType.DISCONNECT


def test_decode_memory_follows_the_bytes_that_arrive():
    # a peer declares the largest frame, sends 5 payload bytes and stops
    sender, receiver = socket.socketpair()
    with sender, receiver, receiver.makefile("rb") as stream:
        sender.sendall(struct.pack(">IB", wire.MAX_FRAME_LEN, MessageType.PUT) + bytes(5))
        sender.shutdown(socket.SHUT_WR)

        def decode_truncated():
            with pytest.raises(TruncatedFrame):
                decode_frame(stream)

        _, peak = peak_allocated(decode_truncated)
    assert peak < 1 << 20


def test_decode_peak_over_a_socket_is_the_payload_and_one_read():
    # reads of at most 64 KiB: the payload buffer with its growth margin,
    # plus one read, and no read the size of what has already arrived
    payload = random.Random(5).randbytes(1 << 20)
    raw = encode_frame(MessageType.PUT, payload)
    sender, receiver = socket.socketpair()
    with sender, receiver, receiver.makefile("rb") as stream:
        feeder = threading.Thread(target=sender.sendall, args=(raw,))
        feeder.start()
        try:
            decoded, peak = peak_allocated(lambda: decode_frame(stream))
        finally:
            feeder.join(timeout=10)
    assert decoded == (MessageType.PUT, payload)
    assert peak <= 1.25 * len(payload)


@given(
    st.sampled_from(list(MessageType)),
    st.binary(max_size=2048),
)
def test_codec_round_trip(msg_type, payload):
    assert decode_bytes(encode_frame(msg_type, payload)) == (msg_type, payload)


def test_codec_round_trip_one_mib():
    payload = random.Random(2).randbytes(1024 * 1024)
    assert decode_bytes(encode_frame(MessageType.PUT, payload)) == (
        MessageType.PUT,
        payload,
    )


def test_decode_fuzz_is_total():
    rng = random.Random(0xF55)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(10_000):
        blob = rng.randbytes(rng.randrange(0, 40))
        try:
            decode_bytes(blob)
            outcomes["ok"] += 1
        except FrameError:
            outcomes["error"] += 1
        # anything else propagates and fails the test
    assert outcomes["error"] > 0


# --- payload primitives -----------------------------------------------------

def test_string_round_trip():
    for s in ["", "a", "héllo wörld", "x" * 65535]:
        r = PayloadReader(encode_str(s))
        assert r.string() == s
        r.expect_end()


def test_string_too_long():
    with pytest.raises(ValueError):
        encode_str("x" * 65536)


def test_string_invalid_utf8():
    with pytest.raises(MalformedPayload):
        PayloadReader(b"\x00\x02\xff\xfe").string()


def test_mpint_round_trip():
    for n in [0, 1, 8, 19, 255, 256, 2**2047 + 12345]:
        r = PayloadReader(encode_mpint(n))
        assert r.mpint() == n
        r.expect_end()


def test_mpint_has_no_leading_zero_bytes():
    raw = encode_mpint(8)
    assert raw == b"\x00\x01\x08"
    raw = encode_mpint(256)
    assert raw == b"\x00\x02\x01\x00"


def test_reader_guards():
    r = PayloadReader(b"\x01\x02")
    with pytest.raises(MalformedPayload):
        r.take(3)
    assert r.u8() == 1
    with pytest.raises(MalformedPayload):
        r.expect_end()
    assert r.u8() == 2
    r.expect_end()
    with pytest.raises(MalformedPayload):
        PayloadReader(b"\x00").u16()
