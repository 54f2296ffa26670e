"""Client failure paths: whatever a broken or hostile server sends during the
handshake surfaces as ProtocolFailure, and an oversized put is refused
before any encryption while the session stays usable."""

from __future__ import annotations

import os
import socket
import threading

import pytest

from csg import aes
from csg import protocol as P
from csg.client import ClientSession, CommandRefused, ProtocolFailure
from csg.keyx import TEST_SMALL, dh_generate
from csg.wire import MAX_PAYLOAD_LEN, Frame, MessageType, decode_frame

from conftest import open_session, provision_customer


def _error_with_malformed_reason(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.ERROR, b"\x00").encode())


def _wrong_message_type(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.PUT_RESULT, b"").encode())


def _truncated_frame(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.SERVER_HELLO, bytes(40)).encode()[:20])


def _garbage_phase1_result(conn, stream):
    state = P.SessionState()
    _, hello = decode_frame(stream)
    reply = P.server_hello(state, hello, dh_generate(TEST_SMALL), os.urandom(16), TEST_SMALL)
    conn.sendall(reply.encode())
    decode_frame(stream)  # the Phase1Auth
    # an IV equal to the block's decryption makes the plaintext all zeros,
    # and a padding byte of 0x00 is never valid
    block = os.urandom(16)
    iv = aes.decrypt_block(block, state.schedules.phase1)
    conn.sendall(Frame(MessageType.PHASE1_RESULT, iv + block).encode())


@pytest.mark.parametrize(
    "serve",
    [
        _error_with_malformed_reason,
        _wrong_message_type,
        _truncated_frame,
        _garbage_phase1_result,
    ],
)
def test_connect_tunnel_failures_raise_protocol_failure(serve):
    listener = socket.create_server(("127.0.0.1", 0))

    def server():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            serve(conn, stream)

    thread = threading.Thread(target=server)
    thread.start()
    try:
        with ClientSession(*listener.getsockname(), group=TEST_SMALL) as session:
            with pytest.raises(ProtocolFailure):
                session.connect_tunnel("user", "pass")
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def test_oversized_put_refused_before_encryption(gateway_factory, monkeypatch):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    encrypted: list[int] = []
    real_cbc_encrypt = aes.cbc_encrypt

    def counting_cbc_encrypt(plaintext, schedule, iv):
        encrypted.append(len(plaintext))
        if len(plaintext) > MAX_PAYLOAD_LEN // 2:
            raise AssertionError("the oversized put was encrypted")
        return real_cbc_encrypt(plaintext, schedule, iv)

    with open_session(handle, acme) as session:
        monkeypatch.setattr(aes, "cbc_encrypt", counting_cbc_encrypt)
        with pytest.raises(CommandRefused, match="too large for one frame"):
            session.put("big", bytes(MAX_PAYLOAD_LEN))
        assert encrypted == []
        session.put("small", b"still works")
        assert session.get("small") == b"still works"


@pytest.mark.parametrize("command", ["put", "get"])
def test_overlong_name_refused_before_encryption(gateway_factory, monkeypatch, command):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    name = "\u00e9" * 32768  # 65,536 UTF-8 bytes: one more than a u16 prefix counts
    encrypted: list[int] = []
    real_cbc_encrypt = aes.cbc_encrypt

    def counting_cbc_encrypt(plaintext, schedule, iv):
        encrypted.append(len(plaintext))
        return real_cbc_encrypt(plaintext, schedule, iv)

    with open_session(handle, acme) as session:
        monkeypatch.setattr(aes, "cbc_encrypt", counting_cbc_encrypt)
        with pytest.raises(CommandRefused, match="object name longer than 65535"):
            if command == "put":
                session.put(name, b"data")
            else:
                session.get(name)
        assert encrypted == []
        session.put("small", b"still works")
        assert session.get("small") == b"still works"
