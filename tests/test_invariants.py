"""Cross-module invariants observed on live traffic and the store: wire
format discipline, IV/nonce freshness, persistence across restarts, and
store concurrency."""

from __future__ import annotations

import os
import random
import struct
import threading

import pytest

from csg import aes, protocol
from csg.client import ClientSession, CommandRefused
from csg.gateway import Gateway, GatewayConfig
from csg.vault import ObjectStore, Registry, save_registry
from csg.wire import MessageType, encode_str

from conftest import open_session, provision_customer

PLAIN_TYPES = {
    MessageType.CLIENT_HELLO,
    MessageType.SERVER_HELLO,
    MessageType.DISCONNECT,
    MessageType.ERROR,
}


def test_every_post_hello_payload_is_iv_plus_ciphertext(gateway_factory):
    """Apart from the hello pair, Disconnect and Error, every frame's
    payload must be a 16-byte IV followed by whole ciphertext blocks."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    session = open_session(handle, acme, capture=capture)
    session.put("obj", os.urandom(100))
    session.get("obj")
    session.list_names()
    session.close()

    seen_encrypted = 0
    for raw in capture:
        msg_type = MessageType(raw[4])
        payload = raw[5:]
        if msg_type in PLAIN_TYPES:
            continue
        assert len(payload) >= 32, msg_type
        assert (len(payload) - 16) % 16 == 0, msg_type
        seen_encrypted += 1
    # both auth phases, both results, service request, three data exchanges
    assert seen_encrypted >= 9


def test_result_frames_are_not_plaintext_status_bytes(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    session = open_session(handle, acme, capture=capture)
    session.close()
    results = [raw for raw in capture if raw[4] in
               (int(MessageType.PHASE1_RESULT), int(MessageType.PHASE2_RESULT))]
    assert len(results) == 2
    for raw in results:
        assert raw[5:] != b"\x01"
        assert len(raw[5:]) >= 32


# README "Protocol sketch": the session sub-key that seals each encrypted type
README_SEALING_KEYS = {
    MessageType.PHASE1_AUTH: "k_phase1",
    MessageType.PHASE1_RESULT: "k_phase1",
    MessageType.SERVICE_REQUEST: "k_data",
    MessageType.PHASE2_AUTH: "k_phase2",
    MessageType.PHASE2_RESULT: "k_phase2",
    MessageType.PUT: "k_data",
    MessageType.PUT_RESULT: "k_data",
    MessageType.GET: "k_data",
    MessageType.GET_RESULT: "k_data",
    MessageType.LIST: "k_data",
    MessageType.LIST_RESULT: "k_data",
}


def test_each_sealed_type_opens_only_under_its_readme_key(gateway_factory):
    """Client and server agreeing on a wrong sub-key would pass every round
    trip; decrypting each captured payload under all three sub-keys pins
    each message type to the key the README names."""
    assert set(README_SEALING_KEYS) == set(MessageType) - PLAIN_TYPES
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    capture: list[bytes] = []
    session = open_session(handle, acme, capture=capture)
    data = os.urandom(100)
    session.put("obj", data)
    assert session.get("obj") == data
    assert session.list_names() == ["obj"]
    keys, nonce = session.state.keys, session.state.server_nonce
    session.close()

    def credentials(user: str, password: str) -> bytes:
        return encode_str(user) + encode_str(password) + nonce

    ok = bytes([protocol.STATUS_OK])
    expected = {
        MessageType.PHASE1_AUTH: credentials(acme.tunnel_user, acme.tunnel_pass),
        MessageType.PHASE1_RESULT: ok,
        MessageType.SERVICE_REQUEST: encode_str(acme.space_path),
        MessageType.PHASE2_AUTH: credentials(acme.service_user, acme.service_pass),
        MessageType.PHASE2_RESULT: ok,
        MessageType.PUT: encode_str("obj") + struct.pack(">I", len(data)) + data,
        MessageType.PUT_RESULT: ok,
        MessageType.GET: encode_str("obj"),
        MessageType.GET_RESULT: ok + struct.pack(">I", len(data)) + data,
        MessageType.LIST: b"",
        MessageType.LIST_RESULT: struct.pack(">H", 1) + encode_str("obj"),
    }
    payloads = {MessageType(raw[4]): raw[5:] for raw in capture}
    for msg_type, readme_key in README_SEALING_KEYS.items():
        payload = payloads[msg_type]
        opened_by = []
        for key_name in ("k_phase1", "k_phase2", "k_data"):
            schedule = aes.key_expansion(getattr(keys, key_name))
            try:
                inner = aes.cbc_decrypt(bytearray(payload[16:]), schedule, payload[:16])
            except aes.PaddingError:
                continue
            if inner == expected[msg_type]:
                opened_by.append(key_name)
        assert opened_by == [readme_key], msg_type.name


def test_ivs_are_fresh_per_message(gateway_factory):
    """No IV (first 16 payload bytes of an encrypted frame) ever repeats."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    ivs: list[bytes] = []
    for _ in range(10):
        capture: list[bytes] = []
        session = open_session(handle, acme, capture=capture)
        session.put("x", b"same bytes every time")
        session.get("x")
        session.close()
        for raw in capture:
            if MessageType(raw[4]) not in PLAIN_TYPES:
                ivs.append(raw[5:21])
    assert len(ivs) == len(set(ivs)), "an IV repeated"


def test_identical_puts_produce_different_wire_bytes(gateway_factory):
    """CBC with fresh IVs hides repeated plaintext: the same put twice must
    not serialize to the same ciphertext."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    captures = []
    for _ in range(2):
        capture: list[bytes] = []
        session = open_session(handle, acme, capture=capture)
        session.put("same-name", b"identical plaintext payload")
        session.close()
        put_raw = next(raw for raw in capture if raw[4] == int(MessageType.PUT))
        captures.append(put_raw)
    assert captures[0] != captures[1]


def test_server_nonces_unique_across_sessions(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    nonces = set()
    for _ in range(50):
        session = ClientSession(handle.host, handle.port)
        session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)
        nonces.add(session.state.server_nonce)
        session.close()
    assert len(nonces) == 50


def test_corrupt_object_surfaces_as_server_error_status(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    session = open_session(handle, acme)
    session.put("fragile", b"will be damaged")
    path = handle.objects_dir / "acme" / "fragile"
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF  # break the magic
    path.write_bytes(bytes(blob))
    with pytest.raises(CommandRefused, match="server error"):
        session.get("fragile")
    # session survives the refused command
    session.put("other", b"fine")
    assert session.get("other") == b"fine"
    session.close()


def test_objects_survive_gateway_restart(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    first = gateway_factory([acme])
    session = open_session(first, acme)
    payload = os.urandom(2048)
    session.put("durable", payload)
    session.close()
    first.gateway.shutdown(drain_seconds=1.0)

    registry_path = tmp_path / "restart-registry.jsonl"
    save_registry(Registry([acme.record]), registry_path)
    config = GatewayConfig(
        listen_addr="127.0.0.1:0",
        registry_path=str(registry_path),
        objects_dir=str(first.objects_dir),
        master_key_hex=first.master_key.hex(),
        audit_log=str(tmp_path / "restart-audit.log"),
    )
    second = Gateway(config)
    host, port = second.start()
    try:
        session = ClientSession(host, port)
        session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)
        session.login(acme.space_path, acme.service_user, acme.service_pass)
        assert session.get("durable") == payload
        assert session.list_names() == ["durable"]
        session.close()
    finally:
        second.shutdown(drain_seconds=1.0)


def test_store_concurrent_writers_and_readers(tmp_path):
    store = ObjectStore(tmp_path / "objects")
    master = os.urandom(16)
    quota = 32 * 1024 * 1024
    errors: list[str] = []

    def worker(idx: int) -> None:
        rng = random.Random(idx)
        customer = f"cust-{idx % 3}"
        try:
            for i in range(20):
                data = rng.randbytes(rng.randrange(0, 2000))
                store.put_object(customer, f"obj-{idx}-{i}", data, master, quota)
                assert store.get_object(customer, f"obj-{idx}-{i}", master) == data
                store.list_objects(customer)
        except Exception as exc:  # noqa: BLE001 - surfaced via the assert below
            errors.append(f"worker {idx}: {exc!r}")

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    for idx in range(3):
        names = store.list_objects(f"cust-{idx}")
        assert len(names) == 40  # two workers x 20 objects each


def test_registry_duplicate_customer_id_rejected():
    from csg.vault import DuplicateUser

    a = provision_customer("acme").record
    b = provision_customer("bravo").record._replace(customer_id="acme")
    with pytest.raises(DuplicateUser):
        Registry([a, b])


def test_client_rejects_degenerate_server_public(tmp_path):
    """A malicious or broken server offering a degenerate DH public must be
    refused by the client before any secret is derived."""
    import socket
    import threading as th
    from csg.wire import Frame, decode_frame, encode_mpint

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    host, port = listener.getsockname()

    def evil_server():
        conn, _ = listener.accept()
        stream = conn.makefile("rb")
        decode_frame(stream)  # swallow the ClientHello
        payload = encode_mpint(1) + os.urandom(16)  # public = 1
        conn.sendall(Frame(MessageType.SERVER_HELLO, payload).encode())
        conn.close()

    thread = th.Thread(target=evil_server)
    thread.start()
    from csg.client import ProtocolFailure

    session = ClientSession(host, port)
    with pytest.raises(ProtocolFailure, match="degenerate"):
        session.connect_tunnel("user", "pass")
    session.close()
    thread.join(timeout=10)
    listener.close()
    assert session.state.keys is None  # nothing was derived
