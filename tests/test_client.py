"""Client failure paths: whatever a broken or hostile server sends during the
handshake surfaces as ProtocolFailure, and a command the wire cannot carry
or the gateway would refuse is refused before any encryption while the
session stays usable."""

from __future__ import annotations

import io
import os
import socket
import threading

import pytest

from csg import aes
from csg import protocol as P
from csg.client import ClientSession, CommandRefused, ProtocolFailure
from csg.keyx import TEST_SMALL
from csg.wire import MAX_PAYLOAD_LEN, Frame, MessageType, decode_frame, encode_str

from conftest import audit_events, open_session, provision_customer


def _error_with_malformed_reason(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.ERROR, b"\x00").encode())


def _error_with_readable_reason(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.ERROR, encode_str("version mismatch")).encode())


def _wrong_message_type(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.PUT_RESULT, b"").encode())


def _truncated_frame(conn, stream):
    decode_frame(stream)
    conn.sendall(Frame(MessageType.SERVER_HELLO, bytes(40)).encode()[:20])


def _garbage_phase1_result(conn, stream):
    state = P.SessionState()
    _, hello = decode_frame(stream)
    reply = P.server_hello(state, hello, TEST_SMALL)
    conn.sendall(reply.encode())
    P.server_derive_keys(state, TEST_SMALL)
    decode_frame(stream)  # the Phase1Auth
    # an IV equal to the block's decryption makes the plaintext all zeros,
    # and a padding byte of 0x00 is never valid
    block = os.urandom(16)
    iv = aes.decrypt_block(block, state.schedules["k_phase1"])
    conn.sendall(Frame(MessageType.PHASE1_RESULT, iv + block).encode())


@pytest.mark.parametrize(
    "serve",
    [
        _error_with_malformed_reason,
        _wrong_message_type,
        _truncated_frame,
        _garbage_phase1_result,
        _error_with_readable_reason,
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
            with pytest.raises(ProtocolFailure) as failure:
                session.connect_tunnel("user", "pass")
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    if serve is _error_with_readable_reason:
        assert str(failure.value) == "server error: version mismatch"


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


def test_put_name_the_gateway_refuses_is_refused_before_encryption(
    gateway_factory, monkeypatch
):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    encrypted: list[int] = []
    real_cbc_encrypt = aes.cbc_encrypt

    def counting_cbc_encrypt(plaintext, schedule, iv):
        encrypted.append(len(plaintext))
        return real_cbc_encrypt(plaintext, schedule, iv)

    with open_session(handle, acme) as session:
        monkeypatch.setattr(aes, "cbc_encrypt", counting_cbc_encrypt)
        with pytest.raises(CommandRefused, match="^invalid name$"):
            session.put("n" * 300, bytes(1024))  # the store's limit is 255 bytes
        assert encrypted == []
        session.put("small", b"still works")
        assert session.get("small") == b"still works"


def test_overlong_tunnel_user_refused_before_the_hello(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    with ClientSession(handle.host, handle.port, group=TEST_SMALL, capture=capture) as session:
        with pytest.raises(CommandRefused, match="user longer than 65535"):
            session.connect_tunnel("u" * 70000, acme.tunnel_pass)
        assert capture == []
        assert session.state.phase is P.Phase.INIT
        session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)


@pytest.mark.parametrize("field", ["user", "password"])
def test_non_utf8_tunnel_field_refused_before_the_hello(gateway_factory, field):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    fields = {"user": acme.tunnel_user, "password": acme.tunnel_pass}
    capture: list[bytes] = []
    with ClientSession(handle.host, handle.port, group=TEST_SMALL, capture=capture) as session:
        with pytest.raises(CommandRefused, match=f"^{field} is not valid UTF-8$"):
            # what the byte 0xff in argv, the environment or stdin decodes to
            session.connect_tunnel(*{**fields, field: fields[field] + "\udcff"}.values())
        assert capture == []
        assert session.state.phase is P.Phase.INIT
        session.connect_tunnel(*fields.values())


def test_close_sends_nothing_when_nothing_was_sent(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    session = ClientSession(handle.host, handle.port, group=TEST_SMALL, capture=capture)
    with pytest.raises(CommandRefused):
        session.connect_tunnel("u" * 70000, acme.tunnel_pass)
    session.close()
    assert capture == []
    # the gateway sees the connection end before any frame, not a Disconnect
    assert audit_events(handle, 1) == ["connection closed"]


def test_close_after_an_unanswered_hello_sends_disconnect():
    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def server():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as stream:
            received.append(decode_frame(stream)[0])  # the ClientHello, never answered
            received.append(decode_frame(stream)[0])

    thread = threading.Thread(target=server)
    thread.start()
    try:
        session = ClientSession(*listener.getsockname(), group=TEST_SMALL, timeout=0.2)
        with pytest.raises(ProtocolFailure):
            session.connect_tunnel("user", "pass")
        session.close()
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert received == [MessageType.CLIENT_HELLO, MessageType.DISCONNECT]


@pytest.mark.parametrize("field", ["path", "user", "password"])
def test_overlong_login_field_refused_before_the_phase_moves(gateway_factory, field):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    login = {"path": acme.space_path, "user": acme.service_user, "password": acme.service_pass}
    with open_session(handle, acme, login=False) as session:
        with pytest.raises(CommandRefused, match=f"^{field} longer than 65535"):
            session.login(*{**login, field: "x" * 70000}.values())
        assert session.state.phase is P.Phase.TUNNEL_ESTABLISHED
        session.login(*login.values())
        assert session.list_names() == []


def test_over_quota_put_is_refused_and_the_session_goes_on(gateway_factory):
    tiny = provision_customer("tiny", quota_bytes=1000)
    handle = gateway_factory([tiny])
    with open_session(handle, tiny) as session:
        with pytest.raises(CommandRefused, match="^quota exceeded$"):
            session.put("big", bytes(2000))
        session.put("small", b"fits")
        assert session.get("small") == b"fits"


def test_commands_on_a_closed_session_send_nothing(gateway_factory):
    # close() discards the session state, so each command is refused in
    # phase CLOSED before a frame is built
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    session = open_session(handle, acme, capture=capture)
    session.close()
    sent = len(capture)
    for command in (
        lambda: session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass),
        lambda: session.login(acme.space_path, acme.service_user, acme.service_pass),
        lambda: session.put("notes", b"data"),
        lambda: session.get("notes"),
        session.list_names,
    ):
        with pytest.raises(P.ProtocolOrderError, match="not allowed in phase CLOSED$"):
            command()
    assert len(capture) == sent
    session.close()  # a second close is a no-op


class _RecordingSocket:
    """A socket whose `sendall` calls are recorded; all else is passed on."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.writes: list[bytes] = []

    def sendall(self, data: bytes) -> None:
        self.writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_login_sends_its_two_frames_in_one_write(gateway_factory):
    # the ServiceRequest has no reply, so a Phase2Auth written after it
    # would wait in Nagle's buffer for the gateway's delayed ACK
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    with open_session(handle, acme, capture=capture, login=False) as session:
        sock = session._sock = _RecordingSocket(session._sock)
        del capture[:]
        session.login(acme.space_path, acme.service_user, acme.service_pass)
        assert session.state.phase is P.Phase.SESSION_ACTIVE
        (written,) = sock.writes
        # the capture still holds one entry per frame: both requests, then the reply
        assert [decode_frame(io.BytesIO(raw))[0] for raw in capture] == [
            MessageType.SERVICE_REQUEST, MessageType.PHASE2_AUTH, MessageType.PHASE2_RESULT,
        ]
        assert capture[0] + capture[1] == written
