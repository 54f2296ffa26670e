"""Client and server state machines for the two-phase authenticated tunnel.

Message flow (client to server unless marked):

    ClientHello     version byte 0x01, client DH public
    ServerHello  <  server DH public, 16-byte server nonce
    Phase1Auth      IV + CBC(tunnel user, tunnel password, nonce; k_phase1)
    Phase1Result <  IV + CBC(status byte [, reason]; k_phase1)
    ServiceRequest  IV + CBC(path; k_data)               no direct response
    Phase2Auth      IV + CBC(service user, service password, nonce; k_phase2)
    Phase2Result <  IV + CBC(status byte [, reason]; k_phase2)
    Put/Get/List    IV + CBC(inner; k_data), both directions
    Disconnect      empty payload, either side
    Error        <  plain reason string; closes the session

The server nonce folded into both credential blobs binds them to this
handshake: a ciphertext captured in one session never verifies in another.

The client side is a set of public functions, each checking its own phase.
The server side has one entry point, `server_handle_frame`, and one
transition table, `_TRANSITIONS`, mapping each legal (phase, incoming type)
pair to the handler that serves it. Every other pair, and every handler
failure, becomes an Error frame that closes the session. A check or timer
that must see every frame before any handler runs belongs in that function.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import aes
from .keyx import (
    DhGroup,
    DhKeyPair,
    SessionKeys,
    InvalidPublicKey,
    derive_keys,
    dh_generate,
    dh_shared,
)
from .vault import (
    AuthFailed,
    CertVerdict,
    InvalidName,
    NoSuchObject,
    CorruptObject,
    ObjectStore,
    QuotaExceeded,
    Registry,
    check_certificate,
)
from .wire import (
    MAX_PAYLOAD_LEN,
    Frame,
    FrameTooLarge,
    MalformedPayload,
    MessageType,
    PayloadReader,
    encode_mpint,
    encode_str,
)

PROTOCOL_VERSION = 0x01

STATUS_OK = 0x01
STATUS_NOT_FOUND = 0x02
STATUS_QUOTA_EXCEEDED = 0x03
STATUS_INVALID_NAME = 0x04
STATUS_ERROR = 0x00

REASON_AUTH_FAILED = "auth failed"
REASON_UNKNOWN_PATH = "unknown service path"
_CERT_REASONS = {
    CertVerdict.EXPIRED: "certificate expired",
    CertVerdict.REVOKED: "certificate revoked",
    CertVerdict.RIGHTS_MISSING: "rights missing",
}


class Phase(enum.Enum):
    INIT = "init"
    HELLO_EXCHANGED = "hello-exchanged"
    TUNNEL_ESTABLISHED = "tunnel-established"
    SERVICE_REQUESTED = "service-requested"
    SESSION_ACTIVE = "session-active"
    CLOSED = "closed"


class ProtocolOrderError(Exception):
    """Operation invoked outside its legal phase."""


class ReplayDetected(Exception):
    """Embedded nonce does not match this session's nonce."""


class VersionMismatch(Exception):
    pass


@dataclass(frozen=True)
class SessionSchedules:
    """The three session sub-keys, expanded once for the whole session."""

    phase1: aes.KeySchedule
    phase2: aes.KeySchedule
    data: aes.KeySchedule


@dataclass
class SessionState:
    phase: Phase = Phase.INIT
    keys: Optional[SessionKeys] = None
    schedules: Optional[SessionSchedules] = None
    server_nonce: Optional[bytes] = None
    customer_id: Optional[str] = None
    # client side: own ephemeral keypair until the hello completes
    dh_keypair: Optional[DhKeyPair] = None
    # client: path it asked for; server: path the client asked for
    space_path: Optional[str] = None
    # server side, audit only: identity proven by the tunnel credentials
    tunnel_customer_id: Optional[str] = None

    def close(self) -> None:
        """Drop to CLOSED and discard all key material."""
        self.phase = Phase.CLOSED
        self.keys = None
        self.schedules = None
        self.server_nonce = None
        self.customer_id = None
        self.dh_keypair = None

    def set_keys(self, keys: SessionKeys) -> None:
        """Hold the derived sub-keys and their round keys for the session."""
        self.keys = keys
        self.schedules = SessionSchedules(
            phase1=aes.key_expansion(keys.k_phase1),
            phase2=aes.key_expansion(keys.k_phase2),
            data=aes.key_expansion(keys.k_data),
        )


def _require(state: SessionState, phase: Phase, op: str) -> None:
    if state.phase is not phase:
        raise ProtocolOrderError(f"{op} requires phase {phase.name}, not {state.phase.name}")


def _encrypt_payload(schedule: aes.KeySchedule, inner: bytes) -> bytes:
    iv = os.urandom(16)
    return iv + aes.cbc_encrypt(inner, schedule, iv)


def _decrypt_payload(schedule: aes.KeySchedule, payload: bytes) -> bytes:
    if len(payload) < 32:
        raise MalformedPayload("encrypted payload shorter than IV plus one block")
    return aes.cbc_decrypt(payload[16:], schedule, payload[:16])


def _result_frame(
    msg_type: MessageType, schedule: aes.KeySchedule, ok: bool, reason: str = ""
) -> Frame:
    inner = bytes([STATUS_OK]) if ok else bytes([STATUS_ERROR]) + encode_str(reason)
    return Frame(msg_type, _encrypt_payload(schedule, inner))


def _parse_result(inner: bytes) -> tuple[bool, str]:
    r = PayloadReader(inner)
    status = r.u8()
    reason = "" if status == STATUS_OK else r.string()
    r.expect_end()
    return status == STATUS_OK, reason


def _noop_audit(event: str, customer_id: Optional[str] = None) -> None:
    pass


# --------------------------------------------------------------------------
# client side
# --------------------------------------------------------------------------

def client_connect(state: SessionState, keypair: DhKeyPair) -> Frame:
    """Open the handshake: version byte then the client DH public value.

    The phase stays INIT until the ServerHello arrives.
    """
    _require(state, Phase.INIT, "client_connect")
    state.dh_keypair = keypair
    payload = bytes([PROTOCOL_VERSION]) + encode_mpint(keypair.public)
    return Frame(MessageType.CLIENT_HELLO, payload)


def client_handle_server_hello(
    state: SessionState, payload: bytes, group: DhGroup
) -> None:
    """Derive the session keys from the ServerHello and record the nonce."""
    _require(state, Phase.INIT, "client_handle_server_hello")
    if state.dh_keypair is None:
        raise ProtocolOrderError("ServerHello before ClientHello was sent")
    r = PayloadReader(payload)
    server_public = r.mpint()
    nonce = r.take(16)
    r.expect_end()
    shared = dh_shared(state.dh_keypair, server_public, group)
    state.set_keys(derive_keys(shared))
    state.server_nonce = nonce
    state.dh_keypair = None
    state.phase = Phase.HELLO_EXCHANGED


def phase1_auth(state: SessionState, tunnel_user: str, tunnel_pass: str) -> Frame:
    """Tunnel credentials plus the server nonce, encrypted under k_phase1."""
    _require(state, Phase.HELLO_EXCHANGED, "phase1_auth")
    inner = encode_str(tunnel_user) + encode_str(tunnel_pass) + state.server_nonce
    return Frame(
        MessageType.PHASE1_AUTH, _encrypt_payload(state.schedules.phase1, inner)
    )


def client_handle_phase1_result(
    state: SessionState, payload: bytes
) -> tuple[bool, str]:
    _require(state, Phase.HELLO_EXCHANGED, "client_handle_phase1_result")
    ok, reason = _parse_result(_decrypt_payload(state.schedules.phase1, payload))
    if ok:
        state.phase = Phase.TUNNEL_ESTABLISHED
    else:
        state.close()
    return ok, reason


def service_request(state: SessionState, url_path: str) -> Frame:
    """Name the provisioned space path, encrypted under k_data."""
    _require(state, Phase.TUNNEL_ESTABLISHED, "service_request")
    frame = Frame(
        MessageType.SERVICE_REQUEST,
        _encrypt_payload(state.schedules.data, encode_str(url_path)),
    )
    state.space_path = url_path
    state.phase = Phase.SERVICE_REQUESTED
    return frame


def phase2_auth(state: SessionState, service_user: str, service_pass: str) -> Frame:
    """Service credentials plus the server nonce, encrypted under k_phase2."""
    _require(state, Phase.SERVICE_REQUESTED, "phase2_auth")
    inner = encode_str(service_user) + encode_str(service_pass) + state.server_nonce
    return Frame(
        MessageType.PHASE2_AUTH, _encrypt_payload(state.schedules.phase2, inner)
    )


def client_handle_phase2_result(
    state: SessionState, payload: bytes
) -> tuple[bool, str]:
    _require(state, Phase.SERVICE_REQUESTED, "client_handle_phase2_result")
    ok, reason = _parse_result(_decrypt_payload(state.schedules.phase2, payload))
    if ok:
        state.phase = Phase.SESSION_ACTIVE
    else:
        state.close()
    return ok, reason


def build_put(state: SessionState, name: str, data: bytes) -> Frame:
    """Raises FrameTooLarge, before any encryption, when the encrypted
    payload would not fit in one frame."""
    _require(state, Phase.SESSION_ACTIVE, "build_put")
    inner = encode_str(name) + struct.pack(">I", len(data)) + data
    payload_len = 16 + len(inner) - len(inner) % 16 + 16  # IV + padded ciphertext
    if payload_len > MAX_PAYLOAD_LEN:
        raise FrameTooLarge(f"put payload of {payload_len} bytes exceeds the frame cap")
    return Frame(MessageType.PUT, _encrypt_payload(state.schedules.data, inner))


def parse_put_result(state: SessionState, payload: bytes) -> int:
    _require(state, Phase.SESSION_ACTIVE, "parse_put_result")
    r = PayloadReader(_decrypt_payload(state.schedules.data, payload))
    status = r.u8()
    r.expect_end()
    return status


def build_get(state: SessionState, name: str) -> Frame:
    _require(state, Phase.SESSION_ACTIVE, "build_get")
    return Frame(
        MessageType.GET, _encrypt_payload(state.schedules.data, encode_str(name))
    )


def parse_get_result(state: SessionState, payload: bytes) -> tuple[int, bytes]:
    _require(state, Phase.SESSION_ACTIVE, "parse_get_result")
    r = PayloadReader(_decrypt_payload(state.schedules.data, payload))
    status = r.u8()
    data = r.take(r.u32())
    r.expect_end()
    return status, data


def build_list(state: SessionState) -> Frame:
    _require(state, Phase.SESSION_ACTIVE, "build_list")
    return Frame(MessageType.LIST, _encrypt_payload(state.schedules.data, b""))


def parse_list_result(state: SessionState, payload: bytes) -> list[str]:
    _require(state, Phase.SESSION_ACTIVE, "parse_list_result")
    r = PayloadReader(_decrypt_payload(state.schedules.data, payload))
    names = [r.string() for _ in range(r.u16())]
    r.expect_end()
    return names


def disconnect(state: SessionState) -> Frame:
    """Allowed in any phase; discards the session keys."""
    frame = Frame(MessageType.DISCONNECT, b"")
    state.close()
    return frame


# --------------------------------------------------------------------------
# server side
# --------------------------------------------------------------------------

@dataclass
class ServerContext:
    """Everything one server session needs besides its SessionState."""

    registry: Registry
    store: ObjectStore
    master_key: bytes
    group: DhGroup
    now: Callable[[], float] = time.time
    audit: Callable[[str, Optional[str]], None] = _noop_audit
    rand: Callable[[int], bytes] = os.urandom


def server_hello(
    state: SessionState,
    client_payload: bytes,
    keypair: DhKeyPair,
    nonce: bytes,
    group: DhGroup,
) -> Frame:
    """Answer a ClientHello: validate version and client public, derive the
    session keys, emit the server public and nonce."""
    _require(state, Phase.INIT, "server_hello")
    if len(nonce) != 16:
        raise ValueError("server nonce must be exactly 16 bytes")
    r = PayloadReader(client_payload)
    version = r.u8()
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(f"unsupported protocol version 0x{version:02x}")
    client_public = r.mpint()
    r.expect_end()
    shared = dh_shared(keypair, client_public, group)
    state.set_keys(derive_keys(shared))
    state.server_nonce = nonce
    state.phase = Phase.HELLO_EXCHANGED
    return Frame(MessageType.SERVER_HELLO, encode_mpint(keypair.public) + nonce)


def _open_credentials(
    state: SessionState, schedule: aes.KeySchedule, payload: bytes
) -> tuple[str, str]:
    """Decrypt a credential blob and enforce the nonce binding."""
    r = PayloadReader(_decrypt_payload(schedule, payload))
    user = r.string()
    password = r.string()
    nonce = r.take(16)
    r.expect_end()
    if nonce != state.server_nonce:
        raise ReplayDetected("credential blob bound to a different handshake")
    return user, password


_CREDENTIAL_FAILURES = (
    aes.PaddingError,
    aes.LengthError,
    MalformedPayload,
    ReplayDetected,
    AuthFailed,
)


def _serve_hello(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    frame = server_hello(state, payload, dh_generate(ctx.group), ctx.rand(16), ctx.group)
    ctx.audit("hello", None)
    return [frame]


def _serve_phase1(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    """Check the tunnel credentials; all failures (bad decrypt, replay,
    unknown user, bad password) get the same generic result."""
    schedule = state.schedules.phase1
    try:
        user, password = _open_credentials(state, schedule, payload)
        customer_id = ctx.registry.check_credentials("tunnel", user, password)
    except _CREDENTIAL_FAILURES:
        frame = _result_frame(MessageType.PHASE1_RESULT, schedule, False, REASON_AUTH_FAILED)
        ctx.audit("phase1 fail", None)
        state.close()
        return [frame]
    state.tunnel_customer_id = customer_id
    state.phase = Phase.TUNNEL_ESTABLISHED
    ctx.audit("phase1 ok", customer_id)
    return [_result_frame(MessageType.PHASE1_RESULT, schedule, True)]


def _serve_service_request(
    state: SessionState, payload: bytes, ctx: ServerContext
) -> list[Frame]:
    """Record the requested path; it is checked once phase 2 proves who is
    asking. There is no direct response."""
    r = PayloadReader(_decrypt_payload(state.schedules.data, payload))
    path = r.string()
    r.expect_end()
    state.space_path = path
    state.phase = Phase.SERVICE_REQUESTED
    return []


def _serve_phase2(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    """Check service credentials, then the requested path, then the
    contract. Credential failures stay generic; certificate verdicts are
    reported specifically so the customer learns their contract lapsed."""
    schedule = state.schedules.phase2

    def reject(reason: str, event: str) -> list[Frame]:
        frame = _result_frame(MessageType.PHASE2_RESULT, schedule, False, reason)
        ctx.audit(event, None)
        state.close()
        return [frame]

    try:
        user, password = _open_credentials(state, schedule, payload)
        customer_id = ctx.registry.check_credentials("service", user, password)
    except _CREDENTIAL_FAILURES:
        return reject(REASON_AUTH_FAILED, "phase2 fail")
    record = ctx.registry.get(customer_id)
    if state.space_path != record.space_path:
        return reject(REASON_UNKNOWN_PATH, "phase2 fail path")
    verdict = check_certificate(record.certificate, int(ctx.now()))
    if verdict is not CertVerdict.VALID:
        return reject(_CERT_REASONS[verdict], f"phase2 fail cert={verdict.value}")
    state.customer_id = customer_id
    state.phase = Phase.SESSION_ACTIVE
    ctx.audit("phase2 ok cert=valid", customer_id)
    return [_result_frame(MessageType.PHASE2_RESULT, schedule, True)]


def _serve_put(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    schedule, customer_id = state.schedules.data, state.customer_id
    r = PayloadReader(_decrypt_payload(schedule, payload))
    name = r.string()
    data = r.take(r.u32())
    r.expect_end()
    quota = ctx.registry.get(customer_id).quota_bytes
    try:
        ctx.store.put_object(customer_id, name, data, ctx.master_key, quota)
        status = STATUS_OK
    except InvalidName:
        status = STATUS_INVALID_NAME
    except QuotaExceeded:
        status = STATUS_QUOTA_EXCEEDED
    except OSError:
        status = STATUS_ERROR
    ctx.audit(f"put name={name!r} bytes={len(data)} status={status}", customer_id)
    return [Frame(MessageType.PUT_RESULT, _encrypt_payload(schedule, bytes([status])))]


def _serve_get(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    schedule, customer_id = state.schedules.data, state.customer_id
    r = PayloadReader(_decrypt_payload(schedule, payload))
    name = r.string()
    r.expect_end()
    try:
        data = ctx.store.get_object(customer_id, name, ctx.master_key)
        status = STATUS_OK
    except (NoSuchObject, InvalidName):
        data, status = b"", STATUS_NOT_FOUND
    except (CorruptObject, OSError):
        data, status = b"", STATUS_ERROR
    ctx.audit(f"get name={name!r} status={status}", customer_id)
    inner = bytes([status]) + struct.pack(">I", len(data)) + data
    return [Frame(MessageType.GET_RESULT, _encrypt_payload(schedule, inner))]


def _serve_list(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    schedule, customer_id = state.schedules.data, state.customer_id
    PayloadReader(_decrypt_payload(schedule, payload)).expect_end()
    names = ctx.store.list_objects(customer_id)
    if len(names) > 0xFFFF:
        raise MalformedPayload("object count exceeds the u16 listing limit")
    inner = struct.pack(">H", len(names)) + b"".join(encode_str(n) for n in names)
    ctx.audit(f"list count={len(names)}", customer_id)
    return [Frame(MessageType.LIST_RESULT, _encrypt_payload(schedule, inner))]


_Handler = Callable[[SessionState, bytes, ServerContext], list[Frame]]

# The server state machine: each legal (phase, incoming type) pair and the
# handler that serves it. Disconnect is legal in every phase and handled
# before the lookup; any other pair is answered with an Error frame.
_TRANSITIONS: dict[tuple[Phase, MessageType], _Handler] = {
    (Phase.INIT, MessageType.CLIENT_HELLO): _serve_hello,
    (Phase.HELLO_EXCHANGED, MessageType.PHASE1_AUTH): _serve_phase1,
    (Phase.TUNNEL_ESTABLISHED, MessageType.SERVICE_REQUEST): _serve_service_request,
    (Phase.SERVICE_REQUESTED, MessageType.PHASE2_AUTH): _serve_phase2,
    (Phase.SESSION_ACTIVE, MessageType.PUT): _serve_put,
    (Phase.SESSION_ACTIVE, MessageType.GET): _serve_get,
    (Phase.SESSION_ACTIVE, MessageType.LIST): _serve_list,
}


def server_handle_frame(
    state: SessionState,
    msg_type: MessageType,
    payload: bytes,
    ctx: ServerContext,
) -> list[Frame]:
    """Drive the server state machine for one incoming frame.

    Returns the frames to send back (possibly none). Any illegal
    (phase, type) pair or malformed payload yields a single Error frame and
    a closed session; frames arriving after close are dropped silently.
    """
    if state.phase is Phase.CLOSED:
        return []
    if msg_type is MessageType.DISCONNECT:
        ctx.audit("disconnect", state.customer_id)
        state.close()
        return []
    handler = _TRANSITIONS.get((state.phase, msg_type))
    if handler is None:
        reason = f"unexpected {msg_type.name} in phase {state.phase.name}"
    else:
        try:
            return handler(state, payload, ctx)
        except VersionMismatch:
            reason = "version mismatch"
        except InvalidPublicKey:
            reason = "invalid public key"
        except (MalformedPayload, aes.PaddingError, aes.LengthError):
            reason = "malformed payload"
        except OSError:
            # LIST_RESULT has no status byte, so a failing store ends the session
            reason = "storage error"
    ctx.audit(f"error {reason}", state.customer_id)
    state.close()
    return [Frame(MessageType.ERROR, encode_str(reason))]
