"""Acceptance criteria, one test per criterion, each at its stated
tolerance. The conftest terminal summary prints one PASS/FAIL line per
criterion at the end of the run."""

from __future__ import annotations

import os
import random
import socket
import threading
import time

import pytest

from csg import aes, protocol
from csg.client import AuthRefused, ClientSession
from csg.keyx import (
    InvalidPublicKey,
    RFC3526_GROUP14,
    TEST_SMALL,
    dh_generate,
    dh_shared,
)
from csg.vault import NoSuchObject, ObjectStore
from csg.wire import MessageType, encode_frame

from conftest import (
    ScriptedClient,
    make_certificate,
    open_session,
    parse_audit_line,
    provision_customer,
)
from test_aes import load_vectors, oracle_expand_words, schedule_words


def test_criterion_1_aes_known_answer_and_round_trips():
    """Both standard vectors byte-exact; 10,000 random round trips; < 5 s."""
    started = time.perf_counter()
    vectors = load_vectors()
    hexes = {(k.hex(), p.hex(), c.hex()) for k, p, c in vectors}
    assert (
        "000102030405060708090a0b0c0d0e0f",
        "00112233445566778899aabbccddeeff",
        "69c4e0d86a7b0430d8cdb78070b4c55a",
    ) in hexes
    assert (
        "2b7e151628aed2a6abf7158809cf4f3c",
        "3243f6a8885a308d313198a2e0370734",
        "3925841d02dc09fbdc118597196a0b32",
    ) in hexes
    for key, plaintext, ciphertext in vectors:
        schedule = aes.key_expansion(key)
        assert aes.encrypt_block(plaintext, schedule) == ciphertext
        assert aes.decrypt_block(ciphertext, schedule) == plaintext

    rng = random.Random(0xACCE97)
    for _ in range(10_000):
        key, block = rng.randbytes(16), rng.randbytes(16)
        schedule = aes.key_expansion(key)
        assert aes.decrypt_block(aes.encrypt_block(block, schedule), schedule) == block
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"AES acceptance took {elapsed:.2f}s (budget 5s)"


def test_criterion_2_key_schedule_recurrence_1000_keys():
    """All 40 derived words satisfy the word recurrence for 1,000 keys."""
    rng = random.Random(0x5CED)
    for _ in range(1_000):
        key = rng.randbytes(16)
        words = schedule_words(aes.key_expansion(key))
        assert len(words) == 44
        assert words == oracle_expand_words(key)


def test_criterion_3_dh_agreement_1000_pairs():
    """1,000 random keypair pairs agree byte-exactly; degenerate publics
    are rejected."""
    for _ in range(1_000):
        a = dh_generate(TEST_SMALL)
        b = dh_generate(TEST_SMALL)
        shared_a = dh_shared(a, b.public, TEST_SMALL)
        shared_b = dh_shared(b, a.public, TEST_SMALL)
        assert shared_a == shared_b
        assert len(shared_a) == TEST_SMALL.byte_len
    own = dh_generate(TEST_SMALL)
    for bad in (0, 1, TEST_SMALL.p - 1):
        with pytest.raises(InvalidPublicKey):
            dh_shared(own, bad, TEST_SMALL)


def test_criterion_4_handshake_under_one_second(gateway_factory):
    """Full two-phase handshake over loopback with the 2048-bit group in
    < 1 s, ending in SessionActive."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme], group=RFC3526_GROUP14)
    started = time.perf_counter()
    session = ClientSession(handle.host, handle.port, group=RFC3526_GROUP14)
    session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)
    session.login(acme.space_path, acme.service_user, acme.service_pass)
    elapsed = time.perf_counter() - started
    assert session.state.phase is protocol.Phase.SESSION_ACTIVE
    assert elapsed < 1.0, f"handshake took {elapsed:.3f}s (budget 1s)"
    session.close()


def test_criterion_5_accept_reject_truth_table(gateway_factory):
    """SessionActive exactly when phase-1, phase-2, certificate and path
    are all good; every false case closes with its contracted reason."""
    valid = provision_customer("valid")
    lapsed = provision_customer(
        "lapsed", certificate=make_certificate("lapsed", expires_in=-10)
    )
    handle = gateway_factory([valid, lapsed])

    for mask in range(16):
        p1_ok = bool(mask & 8)
        p2_ok = bool(mask & 4)
        cert_ok = bool(mask & 2)
        path_ok = bool(mask & 1)
        target = valid if cert_ok else lapsed

        session = ClientSession(handle.host, handle.port, group=TEST_SMALL)
        tunnel_pass = valid.tunnel_pass if p1_ok else "wrong-tunnel"
        try:
            session.connect_tunnel(valid.tunnel_user, tunnel_pass)
        except AuthRefused as exc:
            assert not p1_ok, f"combo {mask:04b}: phase 1 unexpectedly refused"
            assert str(exc) == "auth failed"
            session.close()
            continue
        assert p1_ok, f"combo {mask:04b}: phase 1 unexpectedly passed"

        path = target.space_path if path_ok else "/space/nowhere"
        service_pass = target.service_pass if p2_ok else "wrong-service"
        try:
            session.login(path, target.service_user, service_pass)
        except AuthRefused as exc:
            expected_active = p1_ok and p2_ok and cert_ok and path_ok
            assert not expected_active, f"combo {mask:04b}: unexpectedly refused"
            if not p2_ok:
                expected_reason = "auth failed"
            elif not path_ok:
                expected_reason = "unknown service path"
            else:
                expected_reason = "certificate expired"
            assert str(exc) == expected_reason, f"combo {mask:04b}"
            session.close()
            continue
        assert p1_ok and p2_ok and cert_ok and path_ok, (
            f"combo {mask:04b}: unexpectedly reached SessionActive"
        )
        # prove the session really is active
        session.put("probe", b"alive")
        assert session.get("probe") == b"alive"
        session.close()


def test_criterion_6_wire_secrecy_and_replay_100_sessions(gateway_factory):
    """100 sessions with >= 16-byte random passwords: no captured frame
    contains either password; every captured phase-1/phase-2 ciphertext
    replayed into a fresh session is rejected."""
    tunnel_pass = os.urandom(16).hex()
    service_pass = os.urandom(16).hex()
    acme = provision_customer("acme", tunnel_pass=tunnel_pass, service_pass=service_pass)
    handle = gateway_factory([acme])

    tunnel_bytes = tunnel_pass.encode()
    service_bytes = service_pass.encode()
    phase1_frames: list[bytes] = []
    phase2_frames: list[bytes] = []

    for i in range(100):
        capture: list[bytes] = []
        session = open_session(handle, acme, capture=capture)
        session.put("ping", b"pong")
        session.close()
        for raw in capture:
            assert tunnel_bytes not in raw, f"session {i}: tunnel password on the wire"
            assert service_bytes not in raw, f"session {i}: service password on the wire"
        by_type = {raw[4]: raw for raw in capture}
        phase1_frames.append(by_type[int(MessageType.PHASE1_AUTH)])
        phase2_frames.append(by_type[int(MessageType.PHASE2_AUTH)])

    rejected = 0
    for i in range(100):
        fresh = ScriptedClient(handle.host, handle.port, group=TEST_SMALL)
        try:
            fresh.hello()
            if i % 2 == 0:
                fresh.send_raw(phase1_frames[i])
                msg_type, payload = fresh.recv()
                assert msg_type is MessageType.PHASE1_RESULT
                ok, _ = protocol.handle_auth_result(fresh.state, payload)
            else:
                ok1, _ = fresh.phase1(acme.tunnel_user, tunnel_pass)
                assert ok1
                fresh.send(protocol.service_request(fresh.state, acme.space_path))
                fresh.send_raw(phase2_frames[i])
                msg_type, payload = fresh.recv()
                assert msg_type is MessageType.PHASE2_RESULT
                ok, _ = protocol.handle_auth_result(fresh.state, payload)
            if not ok:
                rejected += 1
        finally:
            fresh.close()
    assert rejected == 100, f"only {rejected}/100 replays rejected"


def test_criterion_7_storage_round_trips_and_isolation(tmp_path):
    """put/get byte-identical for the stated sizes; a 32-byte plaintext
    marker never reaches disk; cross-customer access always fails."""
    store = ObjectStore(tmp_path / "objects")
    master = os.urandom(16)
    quota = 16 * 1024 * 1024
    rng = random.Random(0x5702A6E)

    for size in (0, 1, 15, 16, 17, 1024 * 1024, 4 * 1024 * 1024):
        data = rng.randbytes(size)
        name = f"blob-{size}"
        store.put_object("acme", name, data, master, quota)
        assert store.get_object("acme", name, master) == data, f"size {size}"

    marker = os.urandom(32)
    store.put_object("acme", "marked", b"A" * 100 + marker + b"B" * 100, master, quota)
    for path in (tmp_path / "objects").rglob("*"):
        if path.is_file():
            assert marker not in path.read_bytes(), path

    store.put_object("intruder", "marked", b"own data", master, quota)
    with pytest.raises(NoSuchObject):
        store.get_object("intruder", "blob-16", master)
    assert store.list_objects("intruder") == ["marked"]
    assert store.get_object("intruder", "marked", master) == b"own data"
    names = store.list_objects("acme")
    assert "marked" in names and "blob-16" in names
    with pytest.raises(NoSuchObject):
        store.get_object("nobody", "marked", master)


def test_criterion_8_fuzz_robustness_with_honest_sessions(gateway_factory):
    """10,000 fuzz frames against the live gateway: no crash, and 5
    concurrent honest sessions all succeed."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])

    FRAMES_TOTAL = 10_000
    WORKERS = 10
    sent = [0] * WORKERS
    honest_results: list[bool] = []
    errors: list[str] = []

    def fuzz_blob(r: random.Random) -> bytes:
        roll = r.random()
        if roll < 0.45:  # raw garbage
            return r.randbytes(r.randrange(1, 80))
        if roll < 0.85:  # well-framed nonsense
            return encode_frame(
                MessageType(r.choice(list(MessageType))), r.randbytes(r.randrange(0, 120))
            )
        # evil length prefixes: over-cap, zero, truncated bodies
        import struct

        length = r.choice([0, 1, 17 * 1024 * 1024, 0xFFFFFFFF, r.randrange(2, 300)])
        return struct.pack(">I", length) + r.randbytes(r.randrange(0, 40))

    def fuzzer(idx: int) -> None:
        r = random.Random(0xBAD5EED + idx)
        budget = FRAMES_TOTAL // WORKERS
        while sent[idx] < budget:
            try:
                with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
                    for _ in range(r.randrange(1, 20)):
                        if sent[idx] >= budget:
                            break
                        sock.sendall(fuzz_blob(r))
                        sent[idx] += 1
            except OSError:
                continue

    def honest(idx: int) -> None:
        try:
            for _ in range(3):
                session = open_session(handle, acme)
                payload = os.urandom(4096)
                session.put(f"honest-{idx}", payload)
                assert session.get(f"honest-{idx}") == payload
                session.close()
            honest_results.append(True)
        except Exception as exc:  # noqa: BLE001 - report, don't die silently
            errors.append(f"honest client {idx}: {exc!r}")
            honest_results.append(False)

    threads = [threading.Thread(target=fuzzer, args=(i,)) for i in range(WORKERS)]
    threads += [threading.Thread(target=honest, args=(i,)) for i in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=240)
    assert sum(sent) >= FRAMES_TOTAL
    assert honest_results == [True] * 5, errors

    # gateway survived: a fresh session still works, and no session handler
    # hit an unexpected exception
    survivor = open_session(handle, acme)
    survivor.put("after-storm", b"still standing")
    assert survivor.get("after-storm") == b"still standing"
    survivor.close()
    audit = handle.audit_path.read_text()
    assert "internal error" not in audit


def test_criterion_9_audit_redaction(gateway_factory):
    """After a full session (both phases, put/get/list, failures,
    disconnect), the audit log carries no password, key, nonce, or object
    plaintext."""
    tunnel_pass = "tunnel-" + os.urandom(12).hex()
    service_pass = "service-" + os.urandom(12).hex()
    acme = provision_customer("acme", tunnel_pass=tunnel_pass, service_pass=service_pass)
    handle = gateway_factory([acme])

    marker = os.urandom(32)
    capture: list[bytes] = []
    session = open_session(handle, acme, capture=capture)
    keys = session.state.keys
    nonce = session.state.server_nonce
    secrets_hex = [
        keys.k_phase1.hex(),
        keys.k_phase2.hex(),
        keys.k_data.hex(),
        nonce.hex(),
        handle.master_key.hex(),
        marker.hex(),
    ]
    session.put("secret-object", marker + b"trailing plaintext")
    session.get("secret-object")
    session.list_names()
    try:
        session.get("does-not-exist")
    except Exception:
        pass
    session.close()

    # one failed login too, so failure paths are in the log
    failed = ClientSession(handle.host, handle.port, group=TEST_SMALL)
    with pytest.raises(AuthRefused):
        failed.connect_tunnel(acme.tunnel_user, "bad-" + tunnel_pass)
    failed.close()

    audit_text = handle.audit_path.read_text()
    audit_bytes = audit_text.encode()
    assert "phase2 ok cert=valid" in audit_text
    assert "phase1 fail" in audit_text
    for line in audit_text.splitlines():  # every line parses back to a triple
        stamp, session_id, event = parse_audit_line(line)
        assert stamp.endswith("Z") and session_id >= 1 and event
    for secret in (tunnel_pass, service_pass, "bad-" + tunnel_pass):
        assert secret not in audit_text
        assert secret.encode().hex() not in audit_text
    for hex_secret in secrets_hex:
        assert hex_secret not in audit_text
        assert hex_secret.upper() not in audit_text
    assert marker not in audit_bytes
    assert repr(marker)[2:-1] not in audit_text
