"""State machine tests for both protocol sides, run in memory (no sockets):
handshake key agreement, nonce/replay binding, order enforcement over the
full phase x type grid, and the data-session framing."""

from __future__ import annotations

import copy
import os
import random
import shutil
import struct

import pytest

from csg import protocol as P
from csg.keyx import TEST_SMALL, DhKeyPair, derive_keys, dh_generate
from csg.vault import AuthFailed, ObjectStore, Registry
from csg.wire import (
    Frame, MalformedPayload, MessageType, PayloadReader, encode_mpint, encode_str,
)

from conftest import (
    ENGINE_CHUNKS,
    make_certificate,
    peak_allocated,
    provision_customer,
    sealed_without_encryption,
    write_cbc_object,
)


@pytest.fixture
def acme():
    return provision_customer("acme")


@pytest.fixture
def ctx(tmp_path, acme):
    return P.ServerContext(
        registry=Registry([acme.record]),
        store=ObjectStore(tmp_path / "objects"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
    )


class Wire:
    """Client state + server state joined by server_handle_frame."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.client = P.SessionState()
        self.server = P.SessionState()

    def send(self, frame: Frame) -> list[Frame]:
        # a fresh copy, as a socket delivers one: the server decrypts in
        # place, and a test may send one frame twice
        payload = bytearray(frame.payload)
        return P.server_handle_frame(self.server, frame.msg_type, payload, self.ctx)

    def handshake(self, customer, *, tunnel_pass=None) -> tuple[bool, str]:
        reply = self.send(P.client_connect(self.client, dh_generate(self.ctx.group)))
        P.client_handle_server_hello(self.client, reply[0].payload, self.ctx.group)
        password = tunnel_pass if tunnel_pass is not None else customer.tunnel_pass
        reply = self.send(P.auth(self.client, customer.tunnel_user, password))
        return P.handle_auth_result(self.client, reply[0].payload)

    def login(self, customer, *, path=None, service_pass=None) -> tuple[bool, str]:
        self.send(P.service_request(self.client, path or customer.space_path))
        password = service_pass if service_pass is not None else customer.service_pass
        reply = self.send(P.auth(self.client, customer.service_user, password))
        return P.handle_auth_result(self.client, reply[0].payload)


@pytest.fixture
def wire(ctx):
    return Wire(ctx)


# --- hello ------------------------------------------------------------------

def test_client_hello_layout():
    state = P.SessionState()
    keypair = DhKeyPair(6, 8)  # 5^6 mod 23 = 8 in the test group
    frame = P.client_connect(state, keypair)
    assert frame.msg_type is MessageType.CLIENT_HELLO
    r = PayloadReader(frame.payload)
    assert r.u8() == 0x01  # version byte first
    assert r.mpint() == 8
    r.expect_end()
    assert state.phase is P.Phase.INIT  # unchanged until ServerHello


def test_client_connect_out_of_order():
    state = P.SessionState()
    state.phase = P.Phase.SESSION_ACTIVE
    with pytest.raises(P.ProtocolOrderError):
        P.client_connect(state, dh_generate(TEST_SMALL))


def test_hello_exchange_agrees_on_keys(wire, acme):
    ok, _ = wire.handshake(acme)
    assert ok
    assert wire.client.keys is not None
    # the server's keys survive into the established phase
    assert wire.server.keys == wire.client.keys


def test_both_sides_derive_identical_keys(ctx):
    client, server = P.SessionState(), P.SessionState()
    hello = P.client_connect(client, dh_generate(TEST_SMALL))
    reply = P.server_handle_frame(server, hello.msg_type, hello.payload, ctx)
    P.client_handle_server_hello(client, reply[0].payload, TEST_SMALL)
    P.server_derive_keys(server, TEST_SMALL)
    assert client.keys == server.keys
    assert client.server_nonce == server.server_nonce


def test_server_hello_version_mismatch(ctx):
    server = P.SessionState()
    payload = bytes([0x02]) + b"\x00\x01\x08"
    with pytest.raises(P.VersionMismatch):
        P.server_hello(server, payload, TEST_SMALL)


def test_server_hello_rejects_degenerate_public(ctx):
    server = P.SessionState()
    from csg.keyx import InvalidPublicKey

    payload = bytes([0x01]) + b"\x00\x01\x01"  # client public = 1
    with pytest.raises(InvalidPublicKey):
        P.server_hello(server, payload, TEST_SMALL)


@pytest.mark.parametrize(
    "payload, reason",
    [(bytes([0x02]) + encode_mpint(8), "version mismatch")]
    + [
        (bytes([0x01]) + encode_mpint(public), "invalid public key")
        for public in (0, 1, TEST_SMALL.p - 1, TEST_SMALL.p)
    ],
    ids=["version-0x02", "public-0", "public-1", "public-p-minus-1", "public-p"],
)
def test_refused_hello_costs_no_dh_work(ctx, monkeypatch, payload, reason):
    calls = []
    for name in ("dh_generate", "dh_shared"):
        real = getattr(P, name)
        monkeypatch.setattr(
            P, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw)
        )
    server = P.SessionState()
    frames = P.server_handle_frame(server, MessageType.CLIENT_HELLO, payload, ctx)
    assert [f.msg_type for f in frames] == [MessageType.ERROR]
    assert PayloadReader(frames[0].payload).string() == reason
    assert calls == []


def test_close_drops_everything_the_session_learned(wire, acme):
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    state = wire.server
    for name, value in vars(state).items():
        if value is None:  # a field this flow leaves unset
            setattr(state, name, object())
    state.close()
    assert state.phase is P.Phase.CLOSED
    left = dict(vars(state))
    del left["phase"]
    assert left == dict.fromkeys(left)


def test_dispatcher_turns_bad_hello_into_error_frame(ctx):
    server = P.SessionState()
    payload = bytes([0x02]) + b"\x00\x01\x08"
    frames = P.server_handle_frame(server, MessageType.CLIENT_HELLO, payload, ctx)
    assert [f.msg_type for f in frames] == [MessageType.ERROR]
    assert server.phase is P.Phase.CLOSED
    assert PayloadReader(frames[0].payload).string() == "version mismatch"


# --- phase 1 ----------------------------------------------------------------

def test_phase1_success(wire, acme):
    events = []
    wire.ctx.audit = lambda event, customer_id: events.append((event, customer_id))
    ok, reason = wire.handshake(acme)
    assert (ok, reason) == (True, "")
    assert wire.server.phase is P.Phase.TUNNEL_ESTABLISHED
    assert wire.client.phase is P.Phase.TUNNEL_ESTABLISHED
    assert ("phase1 ok", "acme") in events  # written as "phase1 ok customer=acme"


def test_phase1_wrong_password(wire, acme):
    ok, reason = wire.handshake(acme, tunnel_pass="wrong")
    assert (ok, reason) == (False, "auth failed")
    assert wire.server.phase is P.Phase.CLOSED
    assert wire.client.phase is P.Phase.CLOSED


def test_phase1_unknown_user_same_reason(wire, acme):
    reply = wire.send(P.client_connect(wire.client, dh_generate(TEST_SMALL)))
    P.client_handle_server_hello(wire.client, reply[0].payload, TEST_SMALL)
    reply = wire.send(P.auth(wire.client, "nobody", "pw"))
    ok, reason = P.handle_auth_result(wire.client, reply[0].payload)
    assert (ok, reason) == (False, "auth failed")


class _RecordingRegistry:
    """A registry stand-in that records each check and answers `owner`, or
    raises AuthFailed when `owner` is None."""

    def __init__(self, owner):
        self.owner = owner
        self.calls = []

    def check_credentials(self, kind, user, password):
        self.calls.append((kind, user, password))
        if self.owner is None:
            raise AuthFailed("auth failed")
        return self.owner


def test_phase1_server_recovers_exact_credentials(ctx):
    # white-box: the server decrypts the exact pair and asks the registry once
    client, server = P.SessionState(), P.SessionState()
    hello = P.client_connect(client, dh_generate(TEST_SMALL))
    frame = P.server_hello(server, hello.payload, TEST_SMALL)
    P.client_handle_server_hello(client, frame.payload, TEST_SMALL)
    P.server_derive_keys(server, TEST_SMALL)
    auth = P.auth(client, "usér", "pässword")

    def owner(answer, nonce=server.server_nonce, payload=auth.payload):
        registry = _RecordingRegistry(answer)
        state, stub_ctx = copy.copy(server), copy.copy(ctx)
        state.server_nonce, stub_ctx.registry = nonce, registry
        found = P._credential_owner(
            state, MessageType.PHASE1_AUTH, "tunnel", bytearray(payload), stub_ctx
        )
        return found, registry.calls

    asked = [("tunnel", "usér", "pässword")]
    assert owner("acme") == ("acme", asked)
    assert owner(None) == (None, asked)  # unknown user or wrong password
    # a nonce from another handshake fails before any password is hashed
    assert owner("acme", nonce=os.urandom(16)) == (None, [])
    # a blob that does not open
    assert owner("acme", payload=auth.payload[:-16]) == (None, [])


def test_phase1_stale_nonce_rejected(wire, acme):
    reply = wire.send(P.client_connect(wire.client, dh_generate(TEST_SMALL)))
    P.client_handle_server_hello(wire.client, reply[0].payload, TEST_SMALL)
    wire.client.server_nonce = os.urandom(16)  # stale/foreign nonce
    reply = wire.send(P.auth(wire.client, acme.tunnel_user, acme.tunnel_pass))
    ok, reason = P.handle_auth_result(wire.client, reply[0].payload)
    assert (ok, reason) == (False, "auth failed")
    assert wire.server.phase is P.Phase.CLOSED


def test_phase1_replay_into_new_session(ctx, acme):
    # session A completes phase 1; its Phase1Auth frame replayed into B fails
    a = Wire(ctx)
    captured = {}
    reply = a.send(P.client_connect(a.client, dh_generate(TEST_SMALL)))
    P.client_handle_server_hello(a.client, reply[0].payload, TEST_SMALL)
    frame = P.auth(a.client, acme.tunnel_user, acme.tunnel_pass)
    captured["phase1"] = frame
    a.send(frame)

    b = Wire(ctx)
    reply = b.send(P.client_connect(b.client, dh_generate(TEST_SMALL)))
    P.client_handle_server_hello(b.client, reply[0].payload, TEST_SMALL)
    result = b.send(captured["phase1"])
    assert result[0].msg_type is MessageType.PHASE1_RESULT
    ok, reason = P.handle_auth_result(b.client, result[0].payload)
    assert not ok
    assert b.server.phase is P.Phase.CLOSED


def test_password_bytes_not_on_the_wire(ctx, acme):
    for _ in range(10):
        wire = Wire(ctx)
        password = os.urandom(16).hex()  # 32 chars >= 16 bytes
        reply = wire.send(P.client_connect(wire.client, dh_generate(TEST_SMALL)))
        P.client_handle_server_hello(wire.client, reply[0].payload, TEST_SMALL)
        frame = P.auth(wire.client, acme.tunnel_user, password)
        assert password.encode() not in frame.encode()


# --- service request and phase 2 --------------------------------------------

def test_full_login(wire, acme):
    assert wire.handshake(acme)[0]
    ok, reason = wire.login(acme)
    assert (ok, reason) == (True, "")
    assert wire.server.phase is P.Phase.SESSION_ACTIVE
    assert wire.server.customer_id == "acme"


def test_service_request_requires_tunnel():
    state = P.SessionState()
    with pytest.raises(P.ProtocolOrderError):
        P.service_request(state, "/space/x")


def test_unknown_service_path(wire, acme):
    assert wire.handshake(acme)[0]
    ok, reason = wire.login(acme, path="/space/other")
    assert (ok, reason) == (False, "unknown service path")
    assert wire.server.phase is P.Phase.CLOSED


def test_phase2_wrong_password(wire, acme):
    assert wire.handshake(acme)[0]
    ok, reason = wire.login(acme, service_pass="wrong")
    assert (ok, reason) == (False, "auth failed")


def test_phase2_distinct_credentials_from_phase1(wire, acme):
    # the two pairs are unrelated by design; both correct pairs succeed
    assert acme.tunnel_user != acme.service_user
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]


def test_certificate_expired_reason(tmp_path):
    expired = provision_customer(
        "late", certificate=make_certificate("late", expires_in=-10)
    )
    ctx = P.ServerContext(
        registry=Registry([expired.record]),
        store=ObjectStore(tmp_path / "objects"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
    )
    wire = Wire(ctx)
    assert wire.handshake(expired)[0]
    ok, reason = wire.login(expired)
    assert (ok, reason) == (False, "certificate expired")


def test_certificate_revoked_reason(tmp_path):
    revoked = provision_customer(
        "gone", certificate=make_certificate("gone", revoked=True)
    )
    ctx = P.ServerContext(
        registry=Registry([revoked.record]),
        store=ObjectStore(tmp_path / "objects"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
    )
    wire = Wire(ctx)
    assert wire.handshake(revoked)[0]
    ok, reason = wire.login(revoked)
    assert (ok, reason) == (False, "certificate revoked")


def test_certificate_rights_missing_reason(tmp_path):
    limited = provision_customer(
        "ltd", certificate=make_certificate("ltd", rights=("billing",))
    )
    ctx = P.ServerContext(
        registry=Registry([limited.record]),
        store=ObjectStore(tmp_path / "objects"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
    )
    wire = Wire(ctx)
    assert wire.handshake(limited)[0]
    ok, reason = wire.login(limited)
    assert (ok, reason) == (False, "rights missing")


def test_certificate_checked_against_injected_clock(ctx, acme):
    ctx.now = lambda: acme.record.certificate.expiry_date  # exactly at expiry
    wire = Wire(ctx)
    assert wire.handshake(acme)[0]
    ok, reason = wire.login(acme)
    assert (ok, reason) == (False, "certificate expired")


def test_phase2_replay_into_new_session(ctx, acme):
    a = Wire(ctx)
    assert a.handshake(acme)[0]
    a.send(P.service_request(a.client, acme.space_path))
    phase2 = P.auth(a.client, acme.service_user, acme.service_pass)
    a.send(phase2)

    b = Wire(ctx)
    assert b.handshake(acme)[0]
    b.send(P.service_request(b.client, acme.space_path))
    result = b.send(phase2)  # A's ciphertext into B's session
    ok, _ = P.handle_auth_result(b.client, result[0].payload)
    assert not ok
    assert b.server.phase is P.Phase.CLOSED


# --- data session -----------------------------------------------------------

def test_put_get_list_round_trip(wire, acme):
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    data = os.urandom(4096)
    reply = wire.send(P.build_put(wire.client, "report.txt", data))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
    reply = wire.send(P.build_get(wire.client, "report.txt"))
    assert P.parse_get_result(wire.client, reply[0].payload) == (P.STATUS_OK, data)
    reply = wire.send(P.build_put(wire.client, "a", b"x"))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
    reply = wire.send(P.build_list(wire.client))
    assert P.parse_list_result(wire.client, reply[0].payload) == ["a", "report.txt"]


def test_each_key_expanded_once(wire, acme, monkeypatch):
    # three sub-keys per side per session, then only the storage key, once
    # for each put or get; frames and list replies expand nothing
    calls = []
    expand = P.aes.key_expansion

    def counting_expand(key):
        calls.append(key)
        return expand(key)

    monkeypatch.setattr(P.aes, "key_expansion", counting_expand)
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    assert len(calls) == 6
    for name in ("a", "b"):
        reply = wire.send(P.build_put(wire.client, name, b"x" * 100))
        assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
        reply = wire.send(P.build_get(wire.client, name))
        assert P.parse_get_result(wire.client, reply[0].payload) == (P.STATUS_OK, b"x" * 100)
    reply = wire.send(P.build_list(wire.client))
    assert P.parse_list_result(wire.client, reply[0].payload) == ["a", "b"]
    assert len(calls) == 6 + 4
    assert len(set(calls[6:])) == 1  # the one storage key
    P.disconnect(wire.client)
    assert wire.client.schedules is None


def test_get_missing_status(wire, acme):
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    reply = wire.send(P.build_get(wire.client, "missing"))
    status, data = P.parse_get_result(wire.client, reply[0].payload)
    assert (status, data) == (P.STATUS_NOT_FOUND, b"")


def test_put_statuses(tmp_path):
    tiny = provision_customer("tiny", quota_bytes=1000)
    ctx = P.ServerContext(
        registry=Registry([tiny.record]),
        store=ObjectStore(tmp_path / "objects-tiny"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
    )
    wire = Wire(ctx)
    assert wire.handshake(tiny)[0]
    assert wire.login(tiny)[0]
    reply = wire.send(P.build_put(wire.client, "../etc", b"x"))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_INVALID_NAME
    reply = wire.send(P.build_put(wire.client, "big", bytes(1001)))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_QUOTA_EXCEEDED


def test_put_storage_failure_is_a_status_not_an_error_frame(ctx, wire, acme, tmp_path):
    events: list[str] = []
    ctx.audit = lambda event, _customer_id: events.append(event)
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    (tmp_path / "objects" / "acme").write_bytes(b"")  # where the customer's directory goes
    reply = wire.send(P.build_put(wire.client, "a", b"x"))
    assert [f.msg_type for f in reply] == [MessageType.PUT_RESULT]
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_ERROR
    assert events[-1] == "put name='a' bytes=1 status=0"
    assert wire.server.phase is P.Phase.SESSION_ACTIVE
    reply = wire.send(P.build_list(wire.client))
    assert P.parse_list_result(wire.client, reply[0].payload) == []


@pytest.mark.parametrize("damage", ["planted-v2", "flipped-v3"])
def test_get_of_a_corrupt_object_is_a_status_not_an_error_frame(
    ctx, wire, acme, tmp_path, damage
):
    events: list[str] = []
    ctx.audit = lambda event, _customer_id: events.append(event)
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    reply = wire.send(P.build_put(wire.client, "kept", b"kept"))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
    path = tmp_path / "objects" / "acme" / "bad"
    secret = b"never returned"
    if damage == "planted-v2":
        write_cbc_object(path, 0x02, secret, ctx.master_key, "acme")
        listed = ["kept"]
    else:
        reply = wire.send(P.build_put(wire.client, "bad", secret))
        assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0x01  # a ciphertext byte
        path.write_bytes(bytes(blob))
        listed = ["bad", "kept"]
    reply = wire.send(P.build_get(wire.client, "bad"))
    assert [f.msg_type for f in reply] == [MessageType.GET_RESULT]
    assert P.parse_get_result(wire.client, reply[0].payload) == (P.STATUS_ERROR, b"")
    assert events[-1] == "get name='bad' status=0"
    assert [e for e in events if e.startswith("get ")] == [events[-1]]
    assert wire.server.phase is P.Phase.SESSION_ACTIVE
    reply = wire.send(P.build_list(wire.client))
    assert P.parse_list_result(wire.client, reply[0].payload) == listed


def test_list_storage_failure_sends_error_frame(tmp_path, acme):
    events: list[str] = []
    ctx = P.ServerContext(
        registry=Registry([acme.record]),
        store=ObjectStore(tmp_path / "objects"),
        master_key=os.urandom(16),
        group=TEST_SMALL,
        audit=lambda event, _customer_id: events.append(event),
    )
    wire = Wire(ctx)
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    reply = wire.send(P.build_put(wire.client, "a", b"x"))
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
    shutil.rmtree(tmp_path / "objects")
    reply = wire.send(P.build_list(wire.client))
    assert [f.msg_type for f in reply] == [MessageType.ERROR]
    assert PayloadReader(reply[0].payload).string() == "storage error"
    assert events[-1] == "error storage error"
    assert wire.server.phase is P.Phase.CLOSED


@pytest.mark.parametrize(
    "names",
    [
        # the store's listing is stubbed: 65,300 names of 255 bytes make a
        # 16,782,128-byte listing, past the frame cap
        pytest.param(lambda: [f"{i:0255d}" for i in range(65_300)], id="frame-cap"),
        pytest.param(lambda: [str(i) for i in range(0x10000)], id="u16-count"),
    ],
)
def test_list_too_large_for_one_frame_sends_error_frame(ctx, acme, monkeypatch, names):
    events: list[str] = []
    ctx.audit = lambda event, _customer_id: events.append(event)
    wire = Wire(ctx)
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    listed = names()
    monkeypatch.setattr(ctx.store, "list_objects", lambda _customer_id: listed)
    reply = wire.send(P.build_list(wire.client))
    assert [f.msg_type for f in reply] == [MessageType.ERROR]
    assert PayloadReader(reply[0].payload).string() == "reply too large"
    assert events[-2:] == [f"list count={len(listed)}", "error reply too large"]
    assert wire.server.phase is P.Phase.CLOSED


# --- the unauthenticated tunnel (README "Non-goals") -------------------------

@pytest.mark.xfail(
    strict=True,
    reason="tunnel frames carry no MAC, so an IV flip passes; ROADMAP item 2 unmarks this",
)
def test_flipped_iv_byte_of_a_put_is_refused(wire, acme):
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    frame = P.build_put(wire.client, "notes", b"x")
    # the inner plaintext opens with the u16 name length, so byte 3 of the
    # first block is the 'o' of "notes", and CBC XORs the IV into it
    payload = bytearray(frame.payload)
    payload[3] ^= ord("o") ^ ord("p")
    reply = wire.send(Frame(MessageType.PUT, bytes(payload)))
    assert wire.ctx.store.list_objects("acme") == []
    assert [f.msg_type for f in reply] == [MessageType.ERROR]


@pytest.mark.xfail(
    strict=True,
    reason="tunnel frames carry no sequence number, so a replay passes; "
    "ROADMAP item 2 unmarks this",
)
def test_replayed_put_frame_is_refused(wire, acme):
    assert wire.handshake(acme)[0]
    assert wire.login(acme)[0]
    frame = P.build_put(wire.client, "notes", b"x")
    reply = wire.send(frame)
    assert P.parse_put_result(wire.client, reply[0].payload) == P.STATUS_OK
    for _ in range(2):
        assert MessageType.PUT_RESULT not in [f.msg_type for f in wire.send(frame)]
    assert wire.server.phase is P.Phase.CLOSED


def test_data_frames_rejected_outside_active_session(wire, acme):
    assert wire.handshake(acme)[0]
    with pytest.raises(P.ProtocolOrderError):
        P.build_put(wire.client, "x", b"y")  # client side refuses too
    fake = P.SessionState()
    fake.phase = P.Phase.SESSION_ACTIVE
    fake.set_keys(wire.client.keys)
    frames = wire.send(P.build_put(fake, "x", b"y"))
    assert [f.msg_type for f in frames] == [MessageType.ERROR]
    assert wire.server.phase is P.Phase.CLOSED


# --- disconnect and ordering -------------------------------------------------

def test_disconnect_from_any_phase(wire, acme):
    assert wire.handshake(acme)[0]
    frame = P.disconnect(wire.client)
    assert frame.msg_type is MessageType.DISCONNECT
    assert wire.client.phase is P.Phase.CLOSED
    assert wire.client.keys is None  # keys discarded
    assert wire.send(frame) == []
    assert wire.server.phase is P.Phase.CLOSED


def test_disconnect_from_init():
    state = P.SessionState()
    P.disconnect(state)
    assert state.phase is P.Phase.CLOSED


def test_frames_after_disconnect_dropped(wire, acme):
    assert wire.handshake(acme)[0]
    wire.send(P.disconnect(wire.client))
    followup = Frame(MessageType.LIST, b"junk")
    assert wire.send(followup) == []  # dropped silently


def _state_in(phase: P.Phase, keys, nonce) -> P.SessionState:
    state = P.SessionState()
    state.phase = phase
    if phase not in (P.Phase.INIT, P.Phase.CLOSED):
        state.set_keys(keys)
        state.server_nonce = nonce
    if phase is P.Phase.SESSION_ACTIVE:
        state.customer_id = "acme"
        state.space_path = "/space/acme"
    return state


def test_order_enforcement_full_grid(ctx):
    """Every (phase, type) pair outside the legal table must produce an
    Error frame (and a closed session) or be dropped; nothing may crash."""
    legal = {
        (P.Phase.INIT, MessageType.CLIENT_HELLO),
        (P.Phase.HELLO_EXCHANGED, MessageType.PHASE1_AUTH),
        (P.Phase.TUNNEL_ESTABLISHED, MessageType.SERVICE_REQUEST),
        (P.Phase.SERVICE_REQUESTED, MessageType.PHASE2_AUTH),
        (P.Phase.SESSION_ACTIVE, MessageType.PUT),
        (P.Phase.SESSION_ACTIVE, MessageType.GET),
        (P.Phase.SESSION_ACTIVE, MessageType.LIST),
    }
    keys = derive_keys(os.urandom(32))
    nonce = os.urandom(16)
    rng = random.Random(88)
    checked = 0
    for phase in P.Phase:
        for msg_type in MessageType:
            state = _state_in(phase, keys, nonce)
            payload = bytearray(rng.randbytes(rng.randrange(0, 48)))
            frames = P.server_handle_frame(state, msg_type, payload, ctx)
            checked += 1
            if phase is P.Phase.CLOSED:
                assert frames == []
                continue
            if msg_type is MessageType.DISCONNECT:
                assert frames == [] and state.phase is P.Phase.CLOSED
                continue
            if (phase, msg_type) in legal:
                continue  # behaviour covered by the flow tests
            assert [f.msg_type for f in frames] == [MessageType.ERROR], (phase, msg_type)
            assert state.phase is P.Phase.CLOSED
    assert checked == 6 * 15


def test_client_order_enforcement_full_grid(monkeypatch):
    """Every client builder and parser raises ProtocolOrderError outside the
    phases it may run in, before anything is encrypted or decrypted and
    without moving the phase."""
    active = {P.Phase.SESSION_ACTIVE}
    auth_phases = {P.Phase.HELLO_EXCHANGED, P.Phase.SERVICE_REQUESTED}
    keys = derive_keys(os.urandom(32))
    nonce = os.urandom(16)
    keypair = dh_generate(TEST_SMALL)
    server_hello = encode_mpint(dh_generate(TEST_SMALL).public) + nonce
    sealed = random.Random(89).randbytes(48)  # IV plus two blocks
    ops = {
        "client_connect": ({P.Phase.INIT}, lambda s: P.client_connect(s, keypair)),
        "client_handle_server_hello": (
            {P.Phase.INIT}, lambda s: P.client_handle_server_hello(s, server_hello, TEST_SMALL)
        ),
        "auth": (auth_phases, lambda s: P.auth(s, "user", "password")),
        "handle_auth_result": (
            auth_phases, lambda s: P.handle_auth_result(s, bytearray(sealed))
        ),
        "service_request": (
            {P.Phase.TUNNEL_ESTABLISHED}, lambda s: P.service_request(s, "/space/acme")
        ),
        "build_put": (active, lambda s: P.build_put(s, "a", b"x")),
        "build_get": (active, lambda s: P.build_get(s, "a")),
        "build_list": (active, P.build_list),
        "parse_put_result": (active, lambda s: P.parse_put_result(s, bytearray(sealed))),
        "parse_get_result": (active, lambda s: P.parse_get_result(s, bytearray(sealed))),
        "parse_list_result": (active, lambda s: P.parse_list_result(s, bytearray(sealed))),
    }
    cipher_calls = []
    for name in ("cbc_encrypt", "cbc_decrypt"):
        real = getattr(P.aes, name)
        monkeypatch.setattr(
            P.aes, name, lambda *a, _real=real, _name=name: cipher_calls.append(_name) or _real(*a)
        )
    refused = 0
    for name, (legal, op) in ops.items():
        for phase in P.Phase:
            state = _state_in(phase, keys, nonce)
            state.dh_keypair = keypair  # as if the ClientHello had been sent
            if phase in legal:
                try:
                    op(state)
                except MalformedPayload:
                    pass  # random ciphertext; the phase check passed
                continue
            cipher_calls.clear()
            with pytest.raises(P.ProtocolOrderError):
                op(state)
            assert cipher_calls == [], (name, phase)
            assert state.phase is phase, (name, phase)
            refused += 1
    assert refused == 11 * 6 - 13


@pytest.mark.parametrize(
    "phase, msg_type, payload, reason",
    [
        (P.Phase.HELLO_EXCHANGED, MessageType.PUT, b"",
         "unexpected PUT in phase HELLO_EXCHANGED"),
        # ClientHello whose public value is 1
        (P.Phase.INIT, MessageType.CLIENT_HELLO, bytes([0x01]) + b"\x00\x01\x01",
         "invalid public key"),
        (P.Phase.TUNNEL_ESTABLISHED, MessageType.SERVICE_REQUEST, b"too short",
         "malformed payload"),
    ],
    ids=["illegal-pair", "degenerate-public", "short-service-request"],
)
def test_dispatch_error_reason_and_audit(ctx, phase, msg_type, payload, reason):
    events: list[str] = []
    ctx.audit = lambda event, _customer_id: events.append(event)
    state = _state_in(phase, derive_keys(os.urandom(32)), os.urandom(16))
    frames = P.server_handle_frame(state, msg_type, payload, ctx)
    assert [f.msg_type for f in frames] == [MessageType.ERROR]
    assert PayloadReader(frames[0].payload).string() == reason
    assert events == [f"error {reason}"]
    assert state.phase is P.Phase.CLOSED


def test_open_reports_a_payload_that_does_not_decrypt_as_malformed():
    state = _state_in(P.Phase.SESSION_ACTIVE, derive_keys(os.urandom(32)), os.urandom(16))
    block = os.urandom(16)
    # an IV equal to the block's decryption makes the plaintext all zeros,
    # and a padding byte of 0x00 is never valid
    iv = P.aes.decrypt_block(block, state.schedules["k_data"])
    for payload in (iv + block, iv + block + b"x"):  # bad padding, bad length
        with pytest.raises(MalformedPayload, match="^payload does not decrypt: "):
            P._open(state, MessageType.PUT, bytearray(payload))


def test_open_peak_memory_is_bounded():
    state = _state_in(P.Phase.SESSION_ACTIVE, derive_keys(os.urandom(32)), os.urandom(16))
    schedule = state.schedules["k_data"]
    payload = sealed_without_encryption(schedule, bytes(16), 1 << 20, random.Random(37))
    reader, peak = peak_allocated(lambda: P._open(state, MessageType.PUT, payload))
    assert len(reader.take(len(payload) - 32)) == len(payload) - 32
    reader.expect_end()
    # decrypted in place: the engine's chunk-sized scratch, and nothing the
    # size of the payload
    assert peak <= ENGINE_CHUNKS * P.aes._CHUNK_BYTES


def test_get_result_of_one_mib_is_returned_where_it_was_decrypted():
    """The client decrypts a GET_RESULT in place and returns the object as a
    view of that payload: beyond the payload, only the engine's scratch."""
    state = _state_in(P.Phase.SESSION_ACTIVE, derive_keys(os.urandom(32)), os.urandom(16))
    size = 1 << 20
    data_len = size - 16 - 1 - 4  # less the padding block and the fields
    first_block = bytes([P.STATUS_OK]) + struct.pack(">I", data_len)
    first_block += bytes(16 - len(first_block))
    schedule = state.schedules["k_data"]
    payload = sealed_without_encryption(schedule, first_block, size, random.Random(59))
    (status, data), peak = peak_allocated(lambda: P.parse_get_result(state, payload))
    assert (status, len(data)) == (P.STATUS_OK, data_len)
    assert peak <= ENGINE_CHUNKS * P.aes._CHUNK_BYTES


def test_put_of_one_mib_peaks_under_six_tenths_of_the_object(wire, acme):
    """A PUT decrypts the payload that arrived in place and streams the
    object to its file through one slice, so beyond the payload it
    allocates only cipher scratch and that slice: no copy of the object."""
    assert wire.handshake(acme)[0] and wire.login(acme)[0]
    name = "big"
    size = 1 << 20
    data_len = size - 16 - 2 - len(name) - 4  # less the padding block and the fields
    first_block = encode_str(name) + struct.pack(">I", data_len)
    first_block += bytes(16 - len(first_block))
    schedule = wire.client.schedules["k_data"]
    payload = sealed_without_encryption(schedule, first_block, size, random.Random(53))

    def serve():
        frames = P.server_handle_frame(wire.server, MessageType.PUT, payload, wire.ctx)
        return [frame.encode() for frame in frames], frames

    (_, frames), peak = peak_allocated(serve)
    assert P.parse_put_result(wire.client, frames[0].payload) == P.STATUS_OK
    assert wire.ctx.store.list_objects("acme") == [name]
    assert peak <= 0.6 * data_len


def test_seal_peak_is_its_payload():
    """_seal writes IV, parts and padding into one buffer and encrypts it in
    place: a 16 KiB reply costs its payload and a few blocks."""
    state = _state_in(P.Phase.SESSION_ACTIVE, derive_keys(os.urandom(32)), os.urandom(16))
    data = os.urandom(16 * 1024)
    parts = (bytes([P.STATUS_OK]), struct.pack(">I", len(data)), data)
    frame, peak = peak_allocated(lambda: P._seal(state, MessageType.GET_RESULT, *parts))
    assert P.parse_get_result(state, frame.payload) == (P.STATUS_OK, data)
    assert peak <= len(frame.payload) + 2 * P.aes._CHUNK_BYTES


def test_malformed_encrypted_payload_closes_session(wire, acme):
    assert wire.handshake(acme)[0]
    frames = wire.send(Frame(MessageType.SERVICE_REQUEST, b"too short"))
    assert [f.msg_type for f in frames] == [MessageType.ERROR]
    assert wire.server.phase is P.Phase.CLOSED


def test_dispatcher_fuzz_never_raises(ctx):
    """2,000 random (phase, type, payload) triples: the dispatcher always
    returns frames or closes, never raises."""
    rng = random.Random(0xD15)
    keys = derive_keys(os.urandom(32))
    nonce = os.urandom(16)
    for _ in range(2_000):
        phase = rng.choice(list(P.Phase))
        state = _state_in(phase, keys, nonce)
        msg_type = rng.choice(list(MessageType))
        shape = rng.random()
        if shape < 0.5:
            payload = rng.randbytes(rng.randrange(0, 64))
        elif shape < 0.8:
            # plausible encrypted shape: IV plus whole blocks of garbage
            payload = rng.randbytes(16) + rng.randbytes(16 * rng.randrange(1, 4))
        else:
            payload = bytes([0x01]) + rng.randbytes(rng.randrange(0, 20))
        frames = P.server_handle_frame(state, msg_type, bytearray(payload), ctx)
        assert isinstance(frames, list)
        for frame in frames:
            assert isinstance(frame, Frame)
