"""Socket client for the gateway: tunnel setup, two-phase login, and the
private-space commands, wrapping the protocol state machine.

Every exchange with the gateway goes through `ClientSession._exchange`, the
one place where socket, framing and decryption errors become
ProtocolFailure. A command the gateway could not receive or would refuse
(a field that is not valid UTF-8 or is longer than the wire's u16 length
prefix, a put name the store rejects, an object too large for one frame)
is CommandRefused before anything is encrypted or sent."""

from __future__ import annotations

import functools
import socket
from typing import Any, Optional

from . import protocol
from .keyx import DhGroup, InvalidPublicKey, RFC3526_GROUP14, dh_generate
from .vault import InvalidName, validate_object_name
from .wire import (
    FieldTooLong, Frame, FrameError, FrameTooLarge, MessageType, PayloadReader, decode_frame,
    encode_str,
)


class ClientError(Exception):
    pass


class AuthRefused(ClientError):
    """Server rejected credentials or the certificate; message carries the
    server's reason verbatim."""


class ProtocolFailure(ClientError):
    """Connection died, framing broke, or the server sent something the
    client cannot act on."""


class CommandRefused(ClientError):
    """A command was refused, by the gateway's status or before sending."""


_STATUS_MESSAGES = {
    protocol.STATUS_NOT_FOUND: "no such object",
    protocol.STATUS_QUOTA_EXCEEDED: "quota exceeded",
    protocol.STATUS_INVALID_NAME: "invalid name",
    protocol.STATUS_ERROR: "server error",
}


def _refuse_overlong(fields: dict[str, str]) -> None:
    """Refuse a field the wire cannot carry, before any frame is built, so
    nothing is sent and the phase does not move: one that UTF-8 cannot
    encode (a lone surrogate, which is what a byte that is not UTF-8 in
    argv, the environment or stdin decodes to), or one longer than the u16
    length prefix counts."""
    for label, value in fields.items():
        try:
            encode_str(value)
        except UnicodeEncodeError:
            raise CommandRefused(f"{label} is not valid UTF-8") from None
        except FieldTooLong:
            raise CommandRefused(f"{label} longer than 65535 UTF-8 bytes") from None


class ClientSession:
    """One connection to the gateway, driven through its protocol phases.

    `capture`, when given, collects the raw bytes of every frame sent and
    received (used by the wire-secrecy tests).
    """

    def __init__(
        self,
        host: str,
        port: int,
        group: DhGroup = RFC3526_GROUP14,
        timeout: float = 30.0,
        capture: Optional[list[bytes]] = None,
    ):
        self._group = group
        self._capture = capture
        self._sent = False  # close() sends Disconnect only once a frame went out
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rb")
        self.state = protocol.SessionState()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(self, frames: list[Frame], parse=None) -> Any:
        """Send `frames` in one write; when the protocol answers the last of
        them, read that reply and return `parse(state, payload)`. The one
        place where socket, framing and decryption failures, an Error frame
        and a reply of the wrong type become ProtocolFailure. Callers build
        the frames, so an out-of-order command, any command after close()
        among them, raises ProtocolOrderError before any is sent."""
        expected = protocol.reply_to(frames[-1].msg_type)
        try:
            raws = [frame.encode() for frame in frames]
            if self._capture is not None:
                self._capture.extend(raws)
            # one write: a frame sent after an unanswered one (Phase2Auth
            # after the ServiceRequest) would wait in Nagle's buffer for the
            # peer's delayed ACK
            self._sock.sendall(b"".join(raws))
            self._sent = True
            if expected is None:
                return None
            msg_type, payload = decode_frame(self._stream)
            if self._capture is not None:
                self._capture.append(Frame(msg_type, payload).encode())
            if msg_type is MessageType.ERROR:
                reason = PayloadReader(payload).string()
                raise ProtocolFailure(f"server error: {reason}")
            if msg_type is not expected:
                raise ProtocolFailure(f"expected {expected.name}, got {msg_type.name}")
            return parse(self.state, payload)
        except (FrameError, InvalidPublicKey, OSError) as exc:
            raise ProtocolFailure(str(exc)) from exc

    def connect_tunnel(self, tunnel_user: str, tunnel_pass: str) -> None:
        """Hello exchange plus phase-1 authentication."""
        _refuse_overlong({"user": tunnel_user, "password": tunnel_pass})
        keypair = dh_generate(self._group)
        self._exchange(
            [protocol.client_connect(self.state, keypair)],
            functools.partial(protocol.client_handle_server_hello, group=self._group),
        )
        ok, reason = self._exchange(
            [protocol.auth(self.state, tunnel_user, tunnel_pass)], protocol.handle_auth_result
        )
        if not ok:
            raise AuthRefused(reason or protocol.REASON_AUTH_FAILED)

    def login(self, url_path: str, service_user: str, service_pass: str) -> None:
        """Service request plus phase-2 authentication."""
        _refuse_overlong({"path": url_path, "user": service_user, "password": service_pass})
        ok, reason = self._exchange(
            [
                protocol.service_request(self.state, url_path),
                protocol.auth(self.state, service_user, service_pass),
            ],
            protocol.handle_auth_result,
        )
        if not ok:
            raise AuthRefused(reason or protocol.REASON_AUTH_FAILED)

    def put(self, name: str, data: bytes) -> None:
        _refuse_overlong({"object name": name})
        try:
            validate_object_name(name)
            frame = protocol.build_put(self.state, name, data)
        except InvalidName:
            raise CommandRefused(_STATUS_MESSAGES[protocol.STATUS_INVALID_NAME]) from None
        except FrameTooLarge:
            raise CommandRefused("object too large for one frame") from None
        status = self._exchange([frame], protocol.parse_put_result)
        if status != protocol.STATUS_OK:
            raise CommandRefused(_STATUS_MESSAGES.get(status, f"status {status}"))

    def get(self, name: str) -> memoryview:
        """The object, as a view of the one buffer it was received and
        decrypted in."""
        # an invalid name is left to the gateway, which answers "no such object"
        _refuse_overlong({"object name": name})
        status, data = self._exchange(
            [protocol.build_get(self.state, name)], protocol.parse_get_result
        )
        if status != protocol.STATUS_OK:
            raise CommandRefused(_STATUS_MESSAGES.get(status, f"status {status}"))
        return data

    def list_names(self) -> list[str]:
        return self._exchange([protocol.build_list(self.state)], protocol.parse_list_result)

    def close(self) -> None:
        """Send Disconnect if a frame went out and the session is still
        open, then drop the socket; keys are discarded either way."""
        if self._sock is None:
            return
        try:
            if self._sent and self.state.phase is not protocol.Phase.CLOSED:
                self._exchange([protocol.disconnect(self.state)])
        except ClientError:
            pass
        finally:
            self.state.close()
            try:
                self._stream.close()
                self._sock.close()
            except OSError:
                pass
            self._sock = None
