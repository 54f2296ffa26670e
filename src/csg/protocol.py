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

`_STEPS`, at the end of the module, is the protocol as one table: for each
client request, its legal phase, the sub-key sealing it and its reply, the
reply type, the next phase and the server handler. `_seal`/`_open` are the
only code that encrypts or decrypts a payload, under the schedule of its
row's sub-key; they refuse a type outside its row's phase. `_open`
decrypts the received payload in place, and makes one that does not
decrypt a MalformedPayload. `auth` and `handle_auth_result` serve both
credential steps, picked by phase from the auth rows. The server side has
one entry point, `server_handle_frame`, which serves a request only in its
row's phase; every other (phase, type) pair, and every handler failure,
becomes an Error frame that closes the session. A check or timer that must
see every frame before any handler runs belongs in that function.

The server answers a ClientHello before it derives the session keys.
`server_hello` checks the version and the client public, draws the server
keypair together with its nonce and returns the ServerHello; the keypair and
the client public wait on the SessionState until `server_derive_keys` runs
the server's DH `pow`. The gateway calls it right after sending the
ServerHello, so that `pow` runs while the client computes its own;
`server_handle_frame` calls it first, so an in-process caller finds the keys
on the next frame. A refused hello costs no DH work.
"""

from __future__ import annotations

import enum
import os
import struct
import time
from typing import Callable, NamedTuple, Optional

from . import aes
from .keyx import (
    DhGroup,
    DhKeyPair,
    SessionKeys,
    InvalidPublicKey,
    check_public,
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


class VersionMismatch(Exception):
    pass


class SessionState:
    """What one side of a session knows; `close` discards all of it."""

    def __init__(self) -> None:
        self.phase = Phase.INIT
        self.keys: Optional[SessionKeys] = None
        # each sub-key expanded once, by its SessionKeys field name
        self.schedules: Optional[dict[str, aes.KeySchedule]] = None
        self.server_nonce: Optional[bytes] = None
        self.customer_id: Optional[str] = None
        # own ephemeral keypair: the client's until the ServerHello arrives,
        # the server's from the ClientHello until `server_derive_keys`
        self.dh_keypair: Optional[DhKeyPair] = None
        # server side: the checked client DH public, from the ClientHello
        # until `server_derive_keys`; set means a key derivation is pending
        self.client_public: Optional[int] = None
        # server side: the path the client asked for, checked in phase 2
        self.space_path: Optional[str] = None

    def close(self) -> None:
        """Drop to CLOSED and discard everything the session learned."""
        for name in vars(self):
            setattr(self, name, None)
        self.phase = Phase.CLOSED

    def set_keys(self, keys: SessionKeys) -> None:
        """Hold the derived sub-keys, each expanded once for the session."""
        self.keys = keys
        self.schedules = {name: aes.key_expansion(key) for name, key in keys._asdict().items()}


def _step(state: SessionState, msg_type: MessageType) -> _Step:
    """The row of `msg_type`, as request or reply; refused outside its phase."""
    step = _STEP_OF[msg_type]
    if state.phase is not step.phase:
        raise ProtocolOrderError(f"{msg_type.name} is not allowed in phase {state.phase.name}")
    return step


def _seal(state: SessionState, msg_type: MessageType, *parts: bytes) -> Frame:
    """Encrypt the concatenated `parts` under the sub-key of `msg_type`,
    behind a fresh IV. The payload is one buffer: the IV, the parts and the
    padding are written into it and the parts are encrypted there in place,
    so each part is copied once and none is written. Raises FrameTooLarge,
    before any encryption, when the payload would not fit in one frame."""
    schedule = state.schedules[_step(state, msg_type).key]
    inner_len = sum(map(len, parts))
    payload_len = aes.BLOCK_SIZE + aes.padded_len(inner_len)  # IV + ciphertext
    if payload_len > MAX_PAYLOAD_LEN:
        raise FrameTooLarge(f"payload of {payload_len} bytes exceeds the frame cap")
    iv = os.urandom(16)
    payload = bytearray(payload_len)
    # through a view: a slice of the bytearray itself would first copy each
    # part into a temporary bytearray
    view = memoryview(payload)
    view[:16] = iv
    pos = 16
    for part in parts:
        view[pos : pos + len(part)] = part
        pos += len(part)
    view[pos:] = aes.padding(inner_len)
    aes.cbc_encrypt(view[16:], schedule, iv)
    return Frame(msg_type, payload)


def _open(state: SessionState, msg_type: MessageType, payload: bytearray) -> PayloadReader:
    """Decrypt a payload sealed by `_seal` for `msg_type` in place, or raise
    MalformedPayload. The payload is a writable buffer, as `decode_frame`
    returns it; the reader runs over a view of the plaintext decrypted
    there, and its fields are views of that buffer."""
    schedule = state.schedules[_step(state, msg_type).key]
    if len(payload) < 32:
        raise MalformedPayload("encrypted payload shorter than IV plus one block")
    view = memoryview(payload)
    try:
        inner = aes.cbc_decrypt(view[16:], schedule, view[:16])
    except aes.PaddingError as exc:
        raise MalformedPayload(f"payload does not decrypt: {exc}") from None
    return PayloadReader(inner)


def _noop_audit(event: str, customer_id: Optional[str] = None) -> None:
    pass


# --------------------------------------------------------------------------
# client side
# --------------------------------------------------------------------------

def client_connect(state: SessionState, keypair: DhKeyPair) -> Frame:
    """Open the handshake: version byte then the client DH public value.

    The phase stays put until the ServerHello arrives.
    """
    _step(state, MessageType.CLIENT_HELLO)
    state.dh_keypair = keypair
    payload = bytes([PROTOCOL_VERSION]) + encode_mpint(keypair.public)
    return Frame(MessageType.CLIENT_HELLO, payload)


def client_handle_server_hello(
    state: SessionState, payload: bytes, group: DhGroup
) -> None:
    """Derive the session keys from the ServerHello and record the nonce."""
    step = _step(state, MessageType.SERVER_HELLO)
    if state.dh_keypair is None:
        raise ProtocolOrderError("ServerHello before ClientHello was sent")
    r = PayloadReader(payload)
    server_public = r.mpint()
    nonce = bytes(r.take(16))
    r.expect_end()
    shared = dh_shared(state.dh_keypair, server_public, group)
    state.set_keys(derive_keys(shared))
    state.server_nonce = nonce
    state.dh_keypair = None
    state.phase = step.next_phase


def _auth_type(state: SessionState, op: str) -> MessageType:
    """The credential message of the auth row legal in this phase."""
    for auth_type in (MessageType.PHASE1_AUTH, MessageType.PHASE2_AUTH):
        if _STEPS[auth_type].phase is state.phase:
            return auth_type
    raise ProtocolOrderError(f"{op} is not allowed in phase {state.phase.name}")


def auth(state: SessionState, user: str, password: str) -> Frame:
    """Credentials plus the server nonce: the tunnel pair after the hello
    (phase 1), the service pair after the service request (phase 2)."""
    auth_type = _auth_type(state, "auth")
    return _seal(state, auth_type, encode_str(user), encode_str(password), state.server_nonce)


def handle_auth_result(state: SessionState, payload: bytearray) -> tuple[bool, str]:
    """Read the server's verdict on `auth`; anything but ok closes the session."""
    step = _STEPS[_auth_type(state, "handle_auth_result")]
    r = _open(state, step.reply, payload)
    ok = r.u8() == STATUS_OK
    reason = "" if ok else r.string()
    r.expect_end()
    if ok:
        state.phase = step.next_phase
    else:
        state.close()
    return ok, reason


def service_request(state: SessionState, url_path: str) -> Frame:
    """Name the provisioned space path."""
    frame = _seal(state, MessageType.SERVICE_REQUEST, encode_str(url_path))
    state.phase = _STEPS[MessageType.SERVICE_REQUEST].next_phase
    return frame


def build_put(state: SessionState, name: str, data: bytes) -> Frame:
    """Raises FrameTooLarge, before any encryption, when the encrypted
    payload would not fit in one frame."""
    return _seal(state, MessageType.PUT, encode_str(name), struct.pack(">I", len(data)), data)


def parse_put_result(state: SessionState, payload: bytearray) -> int:
    r = _open(state, MessageType.PUT_RESULT, payload)
    status = r.u8()
    r.expect_end()
    return status


def build_get(state: SessionState, name: str) -> Frame:
    return _seal(state, MessageType.GET, encode_str(name))


def parse_get_result(state: SessionState, payload: bytearray) -> tuple[int, memoryview]:
    """The status and the object, a view of the payload it was decrypted in."""
    r = _open(state, MessageType.GET_RESULT, payload)
    status = r.u8()
    data = r.take(r.u32())
    r.expect_end()
    return status, data


def build_list(state: SessionState) -> Frame:
    return _seal(state, MessageType.LIST)


def parse_list_result(state: SessionState, payload: bytearray) -> list[str]:
    r = _open(state, MessageType.LIST_RESULT, payload)
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

class ServerContext:
    """Everything one server session needs besides its SessionState."""

    def __init__(
        self,
        registry: Registry,
        store: ObjectStore,
        master_key: bytes,
        group: DhGroup,
        now: Callable[[], float] = time.time,
        audit: Callable[[str, Optional[str]], None] = _noop_audit,
    ) -> None:
        self.registry = registry
        self.store = store
        self.master_key = master_key
        self.group = group
        self.now = now
        self.audit = audit


def server_hello(state: SessionState, client_payload: bytes, group: DhGroup) -> Frame:
    """Answer a ClientHello: check the version and the client public, then
    draw the server keypair and a fresh 16-byte nonce and emit the public
    and the nonce. The keypair and the client public are kept for
    `server_derive_keys`."""
    step = _step(state, MessageType.CLIENT_HELLO)
    r = PayloadReader(client_payload)
    version = r.u8()
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(f"unsupported protocol version 0x{version:02x}")
    client_public = r.mpint()
    r.expect_end()
    check_public(client_public, group)
    state.dh_keypair, nonce = dh_generate(group), os.urandom(16)
    state.client_public = client_public
    state.server_nonce = nonce
    state.phase = step.next_phase
    return Frame(MessageType.SERVER_HELLO, encode_mpint(state.dh_keypair.public) + nonce)


def server_derive_keys(state: SessionState, group: DhGroup) -> None:
    """Derive the session keys of a hello that `server_hello` answered, then
    drop the keypair and the client public; does nothing when no derivation
    is pending."""
    if state.client_public is None:
        return
    state.set_keys(derive_keys(dh_shared(state.dh_keypair, state.client_public, group)))
    state.dh_keypair = None
    state.client_public = None


def _credential_owner(
    state: SessionState, msg_type: MessageType, kind: str, payload: bytearray,
    ctx: ServerContext,
) -> Optional[str]:
    """The customer whose `kind` credentials the blob holds, or None for
    every failure: a blob that does not open, a nonce from another
    handshake (checked before any password is hashed), an unknown user or
    a wrong password."""
    try:
        r = _open(state, msg_type, payload)
        user = r.string()
        password = r.string()
        nonce = r.take(16)
        r.expect_end()
        if nonce != state.server_nonce:
            return None
        return ctx.registry.check_credentials(kind, user, password)
    except (MalformedPayload, AuthFailed):
        return None


def _answer_auth(
    state: SessionState, ctx: ServerContext, event: str,
    customer_id: Optional[str] = None, reason: Optional[str] = None,
) -> list[Frame]:
    """Seal and audit the verdict on an auth step: ok moves the session to
    the step's next phase, a refusal `reason` closes it."""
    step = _STEPS[_auth_type(state, "_answer_auth")]
    if reason is None:
        frame = _seal(state, step.reply, bytes([STATUS_OK]))
        state.phase = step.next_phase
    else:
        frame = _seal(state, step.reply, bytes([STATUS_ERROR]), encode_str(reason))
        state.close()
    ctx.audit(event, customer_id)
    return [frame]


def _serve_hello(state: SessionState, payload: bytes, ctx: ServerContext) -> list[Frame]:
    frame = server_hello(state, payload, ctx.group)
    ctx.audit("hello", None)
    return [frame]


def _serve_phase1(state: SessionState, payload: bytearray, ctx: ServerContext) -> list[Frame]:
    """Check the tunnel credentials; all failures (bad decrypt, replay,
    unknown user, bad password) get the same generic result."""
    customer_id = _credential_owner(state, MessageType.PHASE1_AUTH, "tunnel", payload, ctx)
    if customer_id is None:
        return _answer_auth(state, ctx, "phase1 fail", reason=REASON_AUTH_FAILED)
    return _answer_auth(state, ctx, "phase1 ok", customer_id)


def _serve_service_request(
    state: SessionState, payload: bytearray, ctx: ServerContext
) -> list[Frame]:
    """Record the requested path; it is checked once phase 2 proves who is
    asking. There is no direct response."""
    r = _open(state, MessageType.SERVICE_REQUEST, payload)
    path = r.string()
    r.expect_end()
    state.space_path = path
    state.phase = _STEPS[MessageType.SERVICE_REQUEST].next_phase
    return []


def _serve_phase2(state: SessionState, payload: bytearray, ctx: ServerContext) -> list[Frame]:
    """Check service credentials, then the requested path, then the
    contract. Credential failures stay generic; certificate verdicts are
    reported specifically so the customer learns their contract lapsed."""
    customer_id = _credential_owner(state, MessageType.PHASE2_AUTH, "service", payload, ctx)
    if customer_id is None:
        return _answer_auth(state, ctx, "phase2 fail", reason=REASON_AUTH_FAILED)
    record = ctx.registry.get(customer_id)
    if state.space_path != record.space_path:
        return _answer_auth(state, ctx, "phase2 fail path", reason=REASON_UNKNOWN_PATH)
    verdict = check_certificate(record.certificate, int(ctx.now()))
    if verdict is not CertVerdict.VALID:
        event = f"phase2 fail cert={verdict.value}"
        return _answer_auth(state, ctx, event, reason=_CERT_REASONS[verdict])
    state.customer_id = customer_id
    return _answer_auth(state, ctx, "phase2 ok cert=valid", customer_id)


def _serve_put(state: SessionState, payload: bytearray, ctx: ServerContext) -> list[Frame]:
    r = _open(state, MessageType.PUT, payload)
    name = r.string()
    data = r.take(r.u32())
    r.expect_end()
    quota = ctx.registry.get(state.customer_id).quota_bytes
    try:
        ctx.store.put_object(state.customer_id, name, data, ctx.master_key, quota)
        status = STATUS_OK
    except InvalidName:
        status = STATUS_INVALID_NAME
    except QuotaExceeded:
        status = STATUS_QUOTA_EXCEEDED
    except OSError:
        status = STATUS_ERROR
    ctx.audit(f"put name={name!r} bytes={len(data)} status={status}", state.customer_id)
    return [_seal(state, MessageType.PUT_RESULT, bytes([status]))]


def _serve_get(state: SessionState, payload: bytearray, ctx: ServerContext) -> list[Frame]:
    r = _open(state, MessageType.GET, payload)
    name = r.string()
    r.expect_end()
    try:
        data = ctx.store.get_object(state.customer_id, name, ctx.master_key)
        status = STATUS_OK
    except (NoSuchObject, InvalidName):
        data, status = b"", STATUS_NOT_FOUND
    except (CorruptObject, OSError):
        data, status = b"", STATUS_ERROR
    ctx.audit(f"get name={name!r} status={status}", state.customer_id)
    return [
        _seal(state, MessageType.GET_RESULT, bytes([status]), struct.pack(">I", len(data)), data)
    ]


def _serve_list(state: SessionState, payload: bytearray, ctx: ServerContext) -> list[Frame]:
    _open(state, MessageType.LIST, payload).expect_end()
    names = ctx.store.list_objects(state.customer_id)
    ctx.audit(f"list count={len(names)}", state.customer_id)
    if len(names) > 0xFFFF:
        raise FrameTooLarge(f"{len(names)} objects exceed the u16 listing count")
    encoded = b"".join(encode_str(n) for n in names)
    return [_seal(state, MessageType.LIST_RESULT, struct.pack(">H", len(names)), encoded)]


_Handler = Callable[[SessionState, bytearray, ServerContext], list[Frame]]


class _Step(NamedTuple):
    phase: Phase                  # the one phase the request is legal in
    key: Optional[str]            # SessionKeys field sealing request and reply
    reply: Optional[MessageType]  # the server's answer, if it sends one
    next_phase: Phase             # the phase once the request is accepted
    serve: _Handler               # the server's handler


# The protocol, one row per client request: the README's protocol sketch
# written as code. Disconnect is legal in every phase and has no row; any
# type outside its row's phase is refused on both sides.
_STEPS: dict[MessageType, _Step] = {
    MessageType.CLIENT_HELLO: _Step(
        Phase.INIT, None, MessageType.SERVER_HELLO, Phase.HELLO_EXCHANGED, _serve_hello
    ),
    MessageType.PHASE1_AUTH: _Step(
        Phase.HELLO_EXCHANGED, "k_phase1", MessageType.PHASE1_RESULT,
        Phase.TUNNEL_ESTABLISHED, _serve_phase1,
    ),
    MessageType.SERVICE_REQUEST: _Step(
        Phase.TUNNEL_ESTABLISHED, "k_data", None, Phase.SERVICE_REQUESTED,
        _serve_service_request,
    ),
    MessageType.PHASE2_AUTH: _Step(
        Phase.SERVICE_REQUESTED, "k_phase2", MessageType.PHASE2_RESULT,
        Phase.SESSION_ACTIVE, _serve_phase2,
    ),
    MessageType.PUT: _Step(
        Phase.SESSION_ACTIVE, "k_data", MessageType.PUT_RESULT, Phase.SESSION_ACTIVE, _serve_put
    ),
    MessageType.GET: _Step(
        Phase.SESSION_ACTIVE, "k_data", MessageType.GET_RESULT, Phase.SESSION_ACTIVE, _serve_get
    ),
    MessageType.LIST: _Step(
        Phase.SESSION_ACTIVE, "k_data", MessageType.LIST_RESULT, Phase.SESSION_ACTIVE,
        _serve_list,
    ),
}

# every type that appears in a row, as request or as reply, to that row
_STEP_OF: dict[MessageType, _Step] = {
    t: step for request, step in _STEPS.items() for t in (request, step.reply) if t is not None
}


def reply_to(msg_type: MessageType) -> Optional[MessageType]:
    """The type the server answers `msg_type` with, or None if it sends none."""
    step = _STEPS.get(msg_type)
    return None if step is None else step.reply


def server_handle_frame(
    state: SessionState,
    msg_type: MessageType,
    payload: bytearray,
    ctx: ServerContext,
) -> list[Frame]:
    """Drive the server state machine for one incoming frame.

    The payload is a writable buffer, as `decode_frame` returns it, and a
    sealed one is decrypted there in place. Returns the frames to send back
    (possibly none). Any illegal (phase, type) pair, malformed payload or
    reply too large for one frame yields a single Error frame and a closed
    session; frames arriving after close are dropped silently.
    """
    server_derive_keys(state, ctx.group)
    if state.phase is Phase.CLOSED:
        return []
    if msg_type is MessageType.DISCONNECT:
        ctx.audit("disconnect", state.customer_id)
        state.close()
        return []
    step = _STEPS.get(msg_type)
    if step is None or step.phase is not state.phase:
        reason = f"unexpected {msg_type.name} in phase {state.phase.name}"
    else:
        try:
            return step.serve(state, payload, ctx)
        except VersionMismatch:
            reason = "version mismatch"
        except InvalidPublicKey:
            reason = "invalid public key"
        except MalformedPayload:
            reason = "malformed payload"
        except FrameTooLarge:
            # a listing over the u16 count or the frame cap: the request was fine
            reason = "reply too large"
        except OSError:
            # LIST_RESULT has no status byte, so a failing store ends the session
            reason = "storage error"
    ctx.audit(f"error {reason}", state.customer_id)
    state.close()
    return [Frame(MessageType.ERROR, encode_str(reason))]
