"""Length-prefixed binary framing and payload primitives.

Frame layout, all integers big-endian:

    length   u32   counts the type byte plus the payload, capped at 16 MiB
    type     u8    one of MessageType
    payload  bytes

Payload primitives: strings are a u16 length followed by UTF-8 bytes; DH
public values are a u16 length followed by the big-endian magnitude with no
leading zero bytes.
"""

from __future__ import annotations

import enum
import struct
from typing import BinaryIO, NamedTuple

MAX_FRAME_LEN = 16 * 1024 * 1024  # type byte + payload
MAX_PAYLOAD_LEN = MAX_FRAME_LEN - 1
_READ_BYTES = 64 * 1024  # the largest read of a payload


class FrameError(Exception):
    """Base for framing failures; all of them terminate the session."""


class FrameTooLarge(FrameError):
    pass


class TruncatedFrame(FrameError):
    pass


class StreamEnded(TruncatedFrame):
    """The stream ended cleanly at a frame boundary, before any byte of the
    next frame."""


class UnknownType(FrameError):
    pass


class MalformedPayload(FrameError):
    """Payload bytes do not match the declared layout."""


class FieldTooLong(ValueError):
    """A value to encode does not fit its u16 length prefix."""


class MessageType(enum.IntEnum):
    CLIENT_HELLO = 0x01
    SERVER_HELLO = 0x02
    PHASE1_AUTH = 0x03
    PHASE1_RESULT = 0x04
    SERVICE_REQUEST = 0x05
    PHASE2_AUTH = 0x06
    PHASE2_RESULT = 0x07
    PUT = 0x08
    PUT_RESULT = 0x09
    GET = 0x0A
    GET_RESULT = 0x0B
    LIST = 0x0C
    LIST_RESULT = 0x0D
    DISCONNECT = 0x0E
    ERROR = 0x0F


class Frame(NamedTuple):
    msg_type: MessageType
    payload: bytes

    def encode(self) -> bytes:
        return encode_frame(self.msg_type, self.payload)


def encode_frame(msg_type: MessageType, payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD_LEN:
        raise FrameTooLarge(f"payload of {len(payload)} bytes exceeds the frame cap")
    return struct.pack(">IB", 1 + len(payload), int(msg_type)) + payload


def decode_frame(stream: BinaryIO) -> tuple[MessageType, bytearray]:
    """Read exactly one frame, leaving the stream at the next one. The
    payload is returned in the one buffer it was read into, a bytearray
    that the caller may decrypt in place.

    `stream` is buffered (`socket.makefile("rb")`, `io.BytesIO`): its
    `read(n)` returns fewer than n bytes only at the end of the stream.
    Raises TruncatedFrame (StreamEnded when no byte of the frame arrives),
    UnknownType or FrameTooLarge; never anything else, whatever the input
    bytes.
    """
    head = stream.read(5)
    if not head:
        raise StreamEnded("stream ended while reading frame header")
    # the declared length alone is enough to refuse an oversized frame
    if len(head) >= 4 and struct.unpack(">I", head[:4])[0] > MAX_FRAME_LEN:
        raise FrameTooLarge("declared frame length exceeds the cap")
    if len(head) < 5:
        raise TruncatedFrame("stream ended while reading frame header")
    length, type_code = struct.unpack(">IB", head)
    if length < 1:
        raise TruncatedFrame("declared frame length leaves no room for the type byte")
    # a read allocates all it asks for before any byte arrives, so no read
    # asks for more than _READ_BYTES: a peer that declares a large frame and
    # stops holds a buffer sized by what it sent
    payload = bytearray()
    while len(payload) < length - 1:
        piece = stream.read(min(length - 1 - len(payload), _READ_BYTES))
        if not piece:
            raise TruncatedFrame("stream ended while reading frame payload")
        payload += piece
    try:
        msg_type = MessageType(type_code)
    except ValueError:
        raise UnknownType(f"unassigned message type 0x{type_code:02x}") from None
    return msg_type, payload


def encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FieldTooLong("string exceeds the u16 length prefix")
    return struct.pack(">H", len(raw)) + raw


def encode_mpint(n: int) -> bytes:
    if n < 0:
        raise ValueError("mpint values are non-negative")
    raw = n.to_bytes(max(1, (n.bit_length() + 7) // 8), "big")
    if len(raw) > 0xFFFF:
        raise FieldTooLong("mpint exceeds the u16 length prefix")
    return struct.pack(">H", len(raw)) + raw


class PayloadReader:
    """Cursor over a payload; every misstep raises MalformedPayload.

    `take` returns slices of the payload, so over a memoryview a field is a
    view and nothing is copied; a field kept past the payload's life is
    copied by its reader."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise MalformedPayload(
                f"payload too short: wanted {n} bytes at offset {self._pos}"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def string(self) -> str:
        raw = self.take(self.u16())
        try:
            return str(raw, "utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedPayload(f"invalid UTF-8 in string field: {exc}") from None

    def mpint(self) -> int:
        return int.from_bytes(self.take(self.u16()), "big")

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise MalformedPayload(f"{self.remaining()} unexpected trailing bytes")
