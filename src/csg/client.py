"""Socket client for the gateway: tunnel setup, two-phase login, and the
private-space commands, wrapping the protocol state machine.

Every exchange with the gateway goes through `ClientSession._exchange`, the
one place where socket, framing and decryption errors become
ProtocolFailure."""

from __future__ import annotations

import functools
import socket
from typing import Any, Optional

from . import protocol
from .aes import LengthError, PaddingError
from .keyx import DhGroup, InvalidPublicKey, RFC3526_GROUP14, dh_generate
from .wire import (
    FieldTooLong, Frame, FrameError, FrameTooLarge, MessageType, PayloadReader, decode_frame
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
    """A put/get/list was answered with a non-ok status."""


_STATUS_MESSAGES = {
    protocol.STATUS_NOT_FOUND: "no such object",
    protocol.STATUS_QUOTA_EXCEEDED: "quota exceeded",
    protocol.STATUS_INVALID_NAME: "invalid name",
    protocol.STATUS_ERROR: "server error",
}


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
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = self._sock.makefile("rb")
        self.state = protocol.SessionState()

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(
        self, frames: list[Frame], expected: Optional[MessageType] = None, parse=None
    ) -> Any:
        """Send `frames`; when `expected` is given, read one reply of that
        type and return `parse(state, payload)`. The one place where socket,
        framing and decryption failures, and an Error frame, become
        ProtocolFailure. Callers build the frames, so an out-of-order command
        raises ProtocolOrderError before any is sent."""
        if self._sock is None:
            raise ProtocolFailure("session is closed")
        try:
            for frame in frames:
                raw = frame.encode()
                if self._capture is not None:
                    self._capture.append(raw)
                self._sock.sendall(raw)
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
        except (FrameError, PaddingError, LengthError, InvalidPublicKey, OSError) as exc:
            raise ProtocolFailure(str(exc)) from exc

    def connect_tunnel(self, tunnel_user: str, tunnel_pass: str) -> None:
        """Hello exchange plus phase-1 authentication."""
        keypair = dh_generate(self._group)
        self._exchange(
            [protocol.client_connect(self.state, keypair)],
            MessageType.SERVER_HELLO,
            functools.partial(protocol.client_handle_server_hello, group=self._group),
        )
        ok, reason = self._exchange(
            [protocol.phase1_auth(self.state, tunnel_user, tunnel_pass)],
            MessageType.PHASE1_RESULT,
            protocol.client_handle_phase1_result,
        )
        if not ok:
            raise AuthRefused(reason or protocol.REASON_AUTH_FAILED)

    def login(self, url_path: str, service_user: str, service_pass: str) -> None:
        """Service request plus phase-2 authentication."""
        ok, reason = self._exchange(
            [
                protocol.service_request(self.state, url_path),
                protocol.phase2_auth(self.state, service_user, service_pass),
            ],
            MessageType.PHASE2_RESULT,
            protocol.client_handle_phase2_result,
        )
        if not ok:
            raise AuthRefused(reason or protocol.REASON_AUTH_FAILED)

    def _build(self, build, *args) -> Frame:
        """Build a put or get frame; a name or object the wire cannot carry
        is refused before anything is encrypted."""
        try:
            return build(self.state, *args)
        except FieldTooLong:
            raise CommandRefused("object name longer than 65535 UTF-8 bytes") from None
        except FrameTooLarge:
            raise CommandRefused("object too large for one frame") from None

    def put(self, name: str, data: bytes) -> None:
        frame = self._build(protocol.build_put, name, data)
        status = self._exchange([frame], MessageType.PUT_RESULT, protocol.parse_put_result)
        if status != protocol.STATUS_OK:
            raise CommandRefused(_STATUS_MESSAGES.get(status, f"status {status}"))

    def get(self, name: str) -> bytes:
        status, data = self._exchange(
            [self._build(protocol.build_get, name)],
            MessageType.GET_RESULT,
            protocol.parse_get_result,
        )
        if status != protocol.STATUS_OK:
            raise CommandRefused(_STATUS_MESSAGES.get(status, f"status {status}"))
        return data

    def list_names(self) -> list[str]:
        return self._exchange(
            [protocol.build_list(self.state)],
            MessageType.LIST_RESULT,
            protocol.parse_list_result,
        )

    def close(self) -> None:
        """Send Disconnect if the session is still open, then drop the
        socket; keys are discarded either way."""
        if self._sock is None:
            return
        try:
            if self.state.phase is not protocol.Phase.CLOSED:
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
