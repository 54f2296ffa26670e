"""Registry, certificate-check, and object-store tests."""

from __future__ import annotations

import errno
import hashlib
import hmac
import json
import os
import random
import shutil
import signal
import stat
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from csg import aes, vault
from csg.vault import (
    AuthFailed,
    Certificate,
    CertVerdict,
    CorruptObject,
    DuplicateUser,
    InvalidName,
    NoSuchObject,
    ObjectStore,
    ParseError,
    QuotaExceeded,
    Registry,
    check_certificate,
    load_registry,
    save_registry,
    storage_key,
    storage_mac_key,
)

from conftest import (
    ENGINE_CHUNKS,
    ctr_crypt_copy,
    make_certificate,
    peak_allocated,
    provision_customer,
    write_cbc_object,
)


# --- registry ---------------------------------------------------------------

def test_empty_file_gives_empty_registry(tmp_path):
    path = tmp_path / "registry.jsonl"
    path.write_text("")
    assert list(load_registry(path)) == []


def test_registry_round_trip(tmp_path):
    a = provision_customer("acme").record
    b = provision_customer("bravo").record
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([a, b]), path)
    loaded = load_registry(path)
    assert sorted(r.customer_id for r in loaded) == ["acme", "bravo"]
    assert loaded.get("acme") == a
    assert loaded.get("bravo") == b


@pytest.mark.parametrize("gap", ["\n", "   \n", "\t \n\n \n"], ids=["blank", "spaces", "several"])
def test_blank_lines_between_records_are_skipped(tmp_path, gap):
    a = provision_customer("acme").record
    b = provision_customer("bravo").record
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([a]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(gap + json.dumps(vault._record_to_json(b)) + "\n" + gap)
    loaded = load_registry(path)
    assert [r.customer_id for r in loaded] == ["acme", "bravo"]
    assert loaded.get("bravo") == b


def test_registry_line_is_pinned(tmp_path):
    cert = Certificate("acme", 100, 200, 300, ("storage", "audit"), revoked=False)
    record = vault.CustomerRecord(
        customer_id="acme",
        tunnel_user="acme-tunnel",
        tunnel_salt=bytes(range(16)),
        tunnel_hash=bytes(range(32)),
        service_user="acme-svc",
        service_salt=bytes(range(16, 32)),
        service_hash=bytes(range(32, 64)),
        space_path="/space/acme",
        certificate=cert,
        quota_bytes=4096,
    )
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([record]), path)
    assert path.read_bytes() == (
        b'{"certificate": {"customer_id": "acme", "expiry_date": 300, '
        b'"issued_at": 100, "last_update": 200, "revoked": false, '
        b'"rights": ["storage", "audit"]}, "customer_id": "acme", '
        b'"kdf": "pbkdf2-hmac-sha256/10000", "quota_bytes": 4096, '
        b'"service_hash": '
        b'"202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f", '
        b'"service_salt": "101112131415161718191a1b1c1d1e1f", '
        b'"service_user": "acme-svc", "space_path": "/space/acme", '
        b'"tunnel_hash": '
        b'"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f", '
        b'"tunnel_salt": "000102030405060708090a0b0c0d0e0f", '
        b'"tunnel_user": "acme-tunnel"}\n'
    )
    assert load_registry(path).get("acme") == record


def test_duplicate_tunnel_user_rejected(tmp_path):
    a = provision_customer("acme").record
    clash = provision_customer("bravo").record._replace(tunnel_user=a.tunnel_user)
    with pytest.raises(DuplicateUser):
        Registry([a, clash])
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([a]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(vault._record_to_json(clash)) + "\n")
    with pytest.raises(DuplicateUser, match="line 2"):
        load_registry(path)


def test_duplicate_service_user_rejected():
    a = provision_customer("acme").record
    clash = provision_customer("bravo").record._replace(service_user=a.service_user)
    with pytest.raises(DuplicateUser):
        Registry([a, clash])


def test_parse_error_names_the_line(tmp_path):
    a = provision_customer("acme").record
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([a]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(ParseError, match="line 2"):
        load_registry(path)


def test_parse_error_on_missing_field(tmp_path):
    path = tmp_path / "registry.jsonl"
    path.write_text('{"customer_id": "x"}\n')
    with pytest.raises(ParseError, match="line 1"):
        load_registry(path)


_MISSING = object()


@pytest.mark.parametrize(
    "field, value",
    [
        ("customer_id", 7),
        ("tunnel_user", None),
        ("tunnel_salt", "00" * 15),  # hash_password needs exactly 16 bytes
        ("tunnel_hash", "00" * 31),
        ("service_user", ["acme-service"]),
        ("service_salt", "00" * 17),
        ("service_hash", "00" * 33),
        ("space_path", 1.5),
        ("quota_bytes", True),  # a bool is not an int here
        ("certificate", ["acme"]),
        ("certificate.customer_id", 1),
        ("certificate.issued_at", "0"),
        ("certificate.last_update", 1.0),
        ("certificate.expiry_date", False),
        ("certificate.rights", "storage"),
        ("certificate.rights", ["storage", 1]),
        ("certificate.revoked", "false"),  # bool("false") would read as revoked
        ("kdf", _MISSING),  # a registry written before PBKDF2
        ("kdf", None),
        ("kdf", "pbkdf2-hmac-sha256/20000"),
        ("kdf", "sha256-iterated/10000"),
    ],
)
def test_bad_registry_field_is_a_parse_error(tmp_path, field, value):
    obj = vault._record_to_json(provision_customer("bravo").record)
    *parents, key = field.split(".")
    target = obj
    for parent in parents:
        target = target[parent]
    if value is _MISSING:
        del target[key]
    else:
        target[key] = value
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([provision_customer("acme").record]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match=f"line 2: {key} must be"):
        load_registry(path)


def test_certificate_of_another_customer_is_a_parse_error(tmp_path):
    # acme's certificate on bravo's line would serve bravo on acme's contract
    obj = vault._record_to_json(provision_customer("bravo").record)
    obj["certificate"]["customer_id"] = "acme"
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([provision_customer("acme").record]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match="line 2: certificate customer_id"):
        load_registry(path)


@pytest.mark.parametrize(
    "customer_id, message",
    [
        ("a/b", "invalid customer id"),
        ("..", "invalid customer id"),
        ("", "invalid customer id"),
        ("x" * 201, "customer id too long"),
    ],
    ids=["slash", "dot-dot", "empty", "201-bytes"],
)
def test_customer_id_the_store_refuses_is_a_parse_error(tmp_path, customer_id, message):
    # the store would refuse this customer's first put and end the session
    obj = vault._record_to_json(provision_customer("bravo").record)
    obj["customer_id"] = obj["certificate"]["customer_id"] = customer_id
    path = tmp_path / "registry.jsonl"
    save_registry(Registry([provision_customer("acme").record]), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(obj) + "\n")
    with pytest.raises(ParseError, match=f"line 2: {message}"):
        load_registry(path)


def test_check_credentials_success_and_failure():
    p = provision_customer("acme")
    registry = Registry([p.record])
    assert registry.check_credentials("tunnel", p.tunnel_user, p.tunnel_pass) == "acme"
    assert (
        registry.check_credentials("service", p.service_user, p.service_pass) == "acme"
    )
    with pytest.raises(AuthFailed):
        registry.check_credentials("tunnel", p.tunnel_user, "wrong")
    with pytest.raises(AuthFailed):
        registry.check_credentials("tunnel", "nobody", p.tunnel_pass)
    with pytest.raises(AuthFailed):
        registry.check_credentials("service", p.tunnel_user, p.tunnel_pass)
    with pytest.raises(ValueError):
        registry.check_credentials("other", "x", "y")


@pytest.mark.parametrize("kind", ["tunnel", "service"])
@pytest.mark.parametrize("case", ["unknown-user", "wrong-password", "right-password"])
def test_check_credentials_hashes_once_whoever_asks(monkeypatch, kind, case):
    # an unknown user costs one full hash, as a known one does, so timing
    # does not tell them apart
    p = provision_customer("acme")
    registry = Registry([p.record])
    user = p.tunnel_user if kind == "tunnel" else p.service_user
    password = p.tunnel_pass if kind == "tunnel" else p.service_pass
    if case == "unknown-user":
        user = "nobody"
    elif case == "wrong-password":
        password += "x"
    calls = []
    real = vault.hash_password

    def counting(password, salt):
        calls.append(salt)
        return real(password, salt)

    monkeypatch.setattr(vault, "hash_password", counting)
    if case == "right-password":
        assert registry.check_credentials(kind, user, password) == "acme"
    else:
        with pytest.raises(AuthFailed):
            registry.check_credentials(kind, user, password)
    assert len(calls) == 1


def test_salts_are_independent():
    p = provision_customer("acme")
    q = provision_customer("bravo")
    salts = {p.record.tunnel_salt, p.record.service_salt,
             q.record.tunnel_salt, q.record.service_salt}
    assert len(salts) == 4


# --- certificates -----------------------------------------------------------

def test_certificate_boundaries():
    cert = make_certificate("acme", now=1000, expires_in=500)
    assert check_certificate(cert, 1499) is CertVerdict.VALID
    assert check_certificate(cert, 1500) is CertVerdict.EXPIRED  # inclusive expiry
    assert check_certificate(cert, 1501) is CertVerdict.EXPIRED


def test_certificate_issued_in_the_future_is_not_yet_valid():
    # RFC 5280 4.1.2.5: valid from notBefore, inclusive
    cert = make_certificate("acme", now=1000, expires_in=500)  # issued at 800
    assert check_certificate(cert, 799) is CertVerdict.NOT_YET_VALID
    assert check_certificate(cert, 800) is CertVerdict.VALID
    # revocation still comes first; the start comes before expiry and rights
    assert check_certificate(cert._replace(revoked=True), 0) is CertVerdict.REVOKED
    assert check_certificate(cert._replace(expiry_date=700), 799) is CertVerdict.NOT_YET_VALID
    assert check_certificate(cert._replace(rights=()), 799) is CertVerdict.NOT_YET_VALID


def test_revocation_precedes_expiry():
    cert = make_certificate("acme", now=1000, expires_in=500, revoked=True)
    assert check_certificate(cert, 1000) is CertVerdict.REVOKED
    assert check_certificate(cert, 9999) is CertVerdict.REVOKED


def test_rights_missing():
    cert = make_certificate("acme", now=1000, expires_in=500, rights=("billing",))
    assert check_certificate(cert, 1000) is CertVerdict.RIGHTS_MISSING


def test_certificate_precedence_exhaustive():
    # revoked x four time positions x rights: all 16 combinations
    expiry = 1500
    times = {"well-before": 1000, "just-before": 1499, "at": 1500, "after": 2000}
    for revoked in (False, True):
        for label, now in times.items():
            for has_right in (False, True):
                cert = Certificate(
                    "acme", 900, 950, expiry,
                    ("storage",) if has_right else ("other",), revoked,
                )
                verdict = check_certificate(cert, now)
                if revoked:
                    expected = CertVerdict.REVOKED
                elif now >= expiry:
                    expected = CertVerdict.EXPIRED
                elif not has_right:
                    expected = CertVerdict.RIGHTS_MISSING
                else:
                    expected = CertVerdict.VALID
                assert verdict is expected, (revoked, label, has_right)
                assert check_certificate(cert, now) is verdict  # deterministic


# --- object store -----------------------------------------------------------

MASTER = bytes.fromhex("77" * 16)
QUOTA = 64 * 1024 * 1024
# what an object file holds beyond its ciphertext, and the quota charges
OVERHEAD = vault.OBJECT_HEADER_LEN + vault.OBJECT_TAG_LEN


@pytest.fixture
def store(tmp_path):
    return ObjectStore(tmp_path / "objects")


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 1024, 65536])
def test_put_get_round_trip(store, size):
    data = random.Random(size).randbytes(size)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    assert store.get_object("acme", "blob", MASTER) == data


def test_on_disk_layout(store, tmp_path):
    data = os.urandom(1024)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    blob = path.read_bytes()
    assert blob[:4] == b"CSG1"
    assert blob[4] == 0x03
    counter = blob[5:21]
    (length,) = struct.unpack(">Q", blob[21:29])
    assert length == len(data)
    assert len(blob) == 29 + len(data) + 32
    ciphertext = blob[29:-32]
    schedule = aes.key_expansion(storage_key(MASTER, "acme"))
    assert ciphertext == ctr_crypt_copy(data, schedule, counter)
    expected_tag = hmac.new(
        storage_mac_key(MASTER, "acme"),
        b"\x00\x04acme" + b"\x00\x04blob" + blob[:29] + ciphertext,
        hashlib.sha256,
    ).digest()
    assert blob[-32:] == expected_tag


CHUNK = aes._CHUNK_BYTES


@pytest.mark.parametrize(
    "size",
    [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1, 200 * 1024 + 5],
)
@pytest.mark.parametrize(
    "counter",
    # random; wrapping past 2^128 inside the first cipher chunk; and at its end
    [None, (1 << 128) - 3, (1 << 128) - CHUNK // 16],
    ids=["random", "wrap-3", "wrap-at-chunk"],
)
def test_streamed_put_matches_an_independent_computation(
    store, tmp_path, monkeypatch, size, counter
):
    """Each file, put chunk by chunk, against AES-CTR over the whole body by
    the `cryptography` package and an HMAC over the fields by `hmac`."""
    pytest.importorskip("cryptography.hazmat.primitives.ciphers", exc_type=ImportError)
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    if counter is not None:
        drawn = counter.to_bytes(16, "big")
        real_urandom = os.urandom
        monkeypatch.setattr(
            vault.os, "urandom", lambda n: drawn if n == 16 else real_urandom(n)
        )
    data = random.Random(size).randbytes(size)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    monkeypatch.undo()
    blob = (tmp_path / "objects" / "acme" / "blob").read_bytes()
    header, ciphertext, tag = blob[:29], blob[29:-32], blob[-32:]
    counter_bytes = header[5:21]
    if counter is not None:
        assert counter_bytes == drawn
    assert header == b"CSG1\x03" + counter_bytes + struct.pack(">Q", size)
    encryptor = Cipher(
        algorithms.AES(storage_key(MASTER, "acme")), modes.CTR(counter_bytes)
    ).encryptor()
    assert ciphertext == encryptor.update(data) + encryptor.finalize()
    fields = b"\x00\x04acme" + b"\x00\x04blob" + header + ciphertext
    assert tag == hmac.new(storage_mac_key(MASTER, "acme"), fields, hashlib.sha256).digest()
    assert store.get_object("acme", "blob", MASTER) == data


def test_storage_mac_key_is_its_own_key():
    mac_key = storage_mac_key(MASTER, "acme")
    assert len(mac_key) == 32
    assert mac_key == hashlib.sha256(MASTER + b"acme" + b"storage-mac").digest()
    assert mac_key[:16] != storage_key(MASTER, "acme")
    assert mac_key != storage_mac_key(MASTER, "bravo")


def test_storage_keys_frozen_value():
    # every stored object is sealed under these bytes: a changed derivation
    # would leave each existing store unreadable
    assert storage_key(MASTER, "acme") == bytes.fromhex("6e6bfe95ee8b0045ecb6e1311ee6745e")
    assert storage_key(MASTER, "acme") == hashlib.sha256(
        MASTER + b"acme" + b"storage"
    ).digest()[:16]
    assert storage_mac_key(MASTER, "acme") == bytes.fromhex(
        "d938e12083897e200c2d4a90e137a30a92f0d8fc811af3351d743b3634931573"
    )
    assert storage_mac_key(MASTER, "acme") == hashlib.sha256(
        MASTER + b"acme" + b"storage-mac"
    ).digest()


def test_plaintext_absent_from_disk(store, tmp_path):
    marker = os.urandom(32)
    store.put_object("acme", "secret", b"prefix" + marker + b"suffix", MASTER, QUOTA)
    blob = (tmp_path / "objects" / "acme" / "secret").read_bytes()
    assert marker not in blob


def test_overwrite_replaces_content(store):
    store.put_object("acme", "blob", b"old", MASTER, QUOTA)
    store.put_object("acme", "blob", b"new content", MASTER, QUOTA)
    assert store.get_object("acme", "blob", MASTER) == b"new content"
    assert store.list_objects("acme") == ["blob"]


@pytest.mark.parametrize(
    "name", ["../etc", "a/b", "a\\b", "", ".", "..", "x" * 256, "nul\x00l", ".tmp-x"]
)
def test_invalid_names(store, name):
    with pytest.raises(InvalidName):
        store.put_object("acme", name, b"x", MASTER, QUOTA)


def _component_ok(value: str, max_bytes: int) -> bool:
    """The store's rule for one path component under its root, stated
    apart from the code that enforces it."""
    return (
        value not in ("", ".", "..")
        and not {"/", "\\", "\x00"} & set(value)
        and len(value.encode("utf-8")) <= max_bytes
    )


# 1-, 2-, 3- and 4-byte UTF-8 characters, and every character the rule names
_NAME_ALPHABET = "a-t.\u00e9\u20ac\U0001d11e/\\\x00"


@st.composite
def _near_a_cap(draw) -> str:
    """A run of one character whose UTF-8 size lands within a few bytes of
    the customer-id cap (200) or the object-name cap (255), behind a drawn
    prefix and before a few drawn characters."""
    filler = draw(st.sampled_from("a\u00e9\u20ac\U0001d11e"))
    size = draw(st.sampled_from([200, 255])) + draw(st.integers(-8, 8))
    prefix = draw(st.sampled_from(["", ".", ".tmp-", "tmp-"]))
    run = filler * ((size - len(prefix)) // len(filler.encode("utf-8")))
    return prefix + run + draw(st.text(_NAME_ALPHABET, max_size=4))


@given(st.one_of(st.text(_NAME_ALPHABET, max_size=8), _near_a_cap()))
@example("")
@example("..")
@example(".tmp-")
@example("x" * 200)
@example("x" * 201)
@example("\u00e9" * 127 + "x")
@example("\u00e9" * 128)
def test_names_and_customer_ids_follow_one_component_rule(value):
    name_ok = _component_ok(value, 255) and not value.startswith(".tmp-")
    try:
        vault.validate_object_name(value)
        assert name_ok, value
    except InvalidName:
        assert not name_ok, value
    try:
        vault._validate_customer_id(value)
        assert _component_ok(value, 200), value
    except ValueError:
        assert not _component_ok(value, 200), value


def test_over_quota_put_is_refused_before_encryption(store, monkeypatch):
    encrypted: list[int] = []
    real_ctr_stream = aes.ctr_stream

    def counting_ctr_stream(data, schedule, counter):
        encrypted.append(len(data))
        return real_ctr_stream(data, schedule, counter)

    monkeypatch.setattr(aes, "ctr_stream", counting_ctr_stream)
    store.put_object("acme", "a", bytes(600), MASTER, 1000)
    assert encrypted == [600]
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "b", bytes(500), MASTER, 1000)
    assert encrypted == [600]
    assert store.list_objects("acme") == ["a"]


def test_object_file_shorter_than_its_size_is_corrupt(store, tmp_path):
    # the file lost bytes behind the store's back: the read falls short of
    # the size the table lists
    store.put_object("acme", "blob", b"data", MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CorruptObject, match="not the size the store listed"):
        store.get_object("acme", "blob", MASTER)


def test_object_file_longer_than_its_size_is_corrupt(store, tmp_path):
    # the one byte the read takes past the listed size shows the file grew
    store.put_object("acme", "blob", b"data", MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    path.write_bytes(path.read_bytes() + bytes(1 << 20))
    error, peak = peak_allocated(lambda: _get_error(store, "blob"))
    assert "not the size the store listed" in str(error)
    assert isinstance(error, CorruptObject)
    assert peak < 8 * 1024


def test_get_object_peak_is_one_object(store):
    # the file is read into one buffer and decrypted there in place: the
    # file image plus the cipher engine's scratch
    data = random.Random(59).randbytes(1 << 20)
    store.put_object("acme", "big", data, MASTER, QUOTA)
    got, peak = peak_allocated(lambda: store.get_object("acme", "big", MASTER))
    assert got == data
    assert peak <= len(data) + 61 + ENGINE_CHUNKS * aes._CHUNK_BYTES


@pytest.mark.parametrize("size", [4 * CHUNK + 1, 2 << 20])
def test_put_object_peak_is_cipher_scratch_whatever_the_size(store, size):
    # the ciphertext streams to the file a cipher chunk at a time: the
    # cipher engine's scratch, and nothing the size of the object
    data = random.Random(size).randbytes(size)
    _, peak = peak_allocated(lambda: store.put_object("acme", "big", data, MASTER, QUOTA))
    assert peak <= ENGINE_CHUNKS * CHUNK
    assert store.get_object("acme", "big", MASTER) == data


def test_a_held_write_holds_up_no_other_put_or_listing(store, monkeypatch):
    """The temp file is written outside the store lock: while one
    customer's put is stuck in its write, another customer's put and a
    listing still finish."""
    entered, release = threading.Event(), threading.Event()
    real_writev = os.writev

    def held_writev(fd, buffers):
        if threading.current_thread().name == "held-put":
            entered.set()
            release.wait(timeout=10)
        return real_writev(fd, buffers)

    monkeypatch.setattr(vault.os, "writev", held_writev)
    held = threading.Thread(
        target=store.put_object, args=("slow", "a", bytes(1000), MASTER, QUOTA), name="held-put"
    )
    served = threading.Event()

    def other_customer():
        store.put_object("fast", "b", b"data", MASTER, QUOTA)
        store.list_objects("slow")
        served.set()

    other = threading.Thread(target=other_customer)
    held.start()
    try:
        assert entered.wait(timeout=10)
        other.start()
        assert served.wait(timeout=10)
        assert store.list_objects("fast") == ["b"]
        assert store.list_objects("slow") == []  # not yet renamed into place
    finally:
        release.set()
        held.join(timeout=10)
        if other.ident is not None:  # started
            other.join(timeout=10)
    assert store.list_objects("slow") == ["a"]
    assert store.get_object("slow", "a", MASTER) == bytes(1000)


class _ReportingLock:
    """The store's lock, setting `blocked` when a thread has to wait for it."""

    def __init__(self, lock, blocked: threading.Event):
        self._lock, self._blocked = lock, blocked

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self._blocked.set()
            self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()


def test_a_get_racing_an_overwrite_of_another_size_serves_one_whole_object(
    store, monkeypatch
):
    """A get whose open lets a 2 KiB put of the same name go ahead serves
    the old 1 KiB object or the new one, never the new file against the
    old size: the put either lands before the get's open or waits for the
    lock the get holds across its size lookup and its open."""
    old, new = bytes(1024), b"\x01" * 2048
    store.put_object("acme", "n", old, MASTER, QUOTA)
    settled = threading.Event()  # the put landed, or waits for the store lock
    monkeypatch.setattr(store, "_lock", _ReportingLock(store._lock, settled))

    def overwrite():
        try:
            store.put_object("acme", "n", new, MASTER, QUOTA)
        finally:
            settled.set()

    put = threading.Thread(target=overwrite)
    real_open = os.open

    def open_after_the_put(path, flags, *args):
        if os.path.basename(path) == "n" and not put.ident:
            put.start()
            assert settled.wait(timeout=10)
        return real_open(path, flags, *args)

    monkeypatch.setattr(vault.os, "open", open_after_the_put)
    try:
        assert store.get_object("acme", "n", MASTER) in (old, new)
    finally:
        if put.ident:
            put.join(timeout=10)
    assert not put.is_alive()
    assert store.get_object("acme", "n", MASTER) == new


def test_quota_enforced(store):
    store.put_object("acme", "a", bytes(600), MASTER, 1000)
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "b", bytes(500), MASTER, 1000)
    # overwriting frees the old size first
    store.put_object("acme", "a", bytes(900), MASTER, 1000)
    assert store.used_bytes("acme") == 900 + OVERHEAD
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "a", bytes(1001), MASTER, 1000)


def test_get_missing(store):
    with pytest.raises(NoSuchObject):
        store.get_object("acme", "missing", MASTER)


def test_truncated_file_is_corrupt(store, tmp_path):
    store.put_object("acme", "blob", b"some data here", MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(CorruptObject):
        store.get_object("acme", "blob", MASTER)


def test_bad_magic_is_corrupt(store, tmp_path):
    store.put_object("acme", "blob", b"data", MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptObject):
        store.get_object("acme", "blob", MASTER)


def test_every_flipped_byte_is_corrupt(store, tmp_path):
    # header, ciphertext and tag: the tag covers all of it, and the scan's
    # size check catches a flip in the length field before any tag is read
    data = random.Random(8).randbytes(100)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    good = path.read_bytes()
    assert len(good) == 29 + 100 + 32
    for index in range(len(good)):
        blob = bytearray(good)
        blob[index] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptObject):
            store.get_object("acme", "blob", MASTER)
    path.write_bytes(good)
    assert store.get_object("acme", "blob", MASTER) == data


def test_swapped_object_files_are_corrupt(store, tmp_path):
    # same customer, same key, same size: only the name in the tag differs
    store.put_object("acme", "a", b"A" * 64, MASTER, QUOTA)
    store.put_object("acme", "b", b"B" * 64, MASTER, QUOTA)
    directory = tmp_path / "objects" / "acme"
    blob_a, blob_b = (directory / "a").read_bytes(), (directory / "b").read_bytes()
    (directory / "a").write_bytes(blob_b)
    (directory / "b").write_bytes(blob_a)
    for name in ("a", "b"):
        with pytest.raises(CorruptObject):
            store.get_object("acme", name, MASTER)


def test_object_copied_to_another_customer_is_corrupt(store, tmp_path):
    store.put_object("acme", "blob", b"acme data", MASTER, QUOTA)
    store.put_object("bravo", "blob", b"bravo's own", MASTER, QUOTA)
    root = tmp_path / "objects"
    shutil.copyfile(root / "acme" / "blob", root / "bravo" / "blob")
    with pytest.raises(CorruptObject):
        store.get_object("bravo", "blob", MASTER)


def test_flipped_ciphertext_never_crashes_or_matches(store, tmp_path):
    rng = random.Random(6)
    data = rng.randbytes(200)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    for _ in range(30):
        blob = bytearray(path.read_bytes())
        blob[29 + rng.randrange(len(blob) - 29)] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(blob))
        try:
            recovered = store.get_object("acme", "blob", MASTER)
        except CorruptObject:
            pass
        else:
            assert recovered != data
        store.put_object("acme", "blob", data, MASTER, QUOTA)  # restore


def test_list_ordering_and_fresh_customer(store):
    assert store.list_objects("fresh") == []
    store.put_object("acme", "b", b"2", MASTER, QUOTA)
    store.put_object("acme", "a", b"1", MASTER, QUOTA)
    assert store.list_objects("acme") == ["a", "b"]


def test_list_after_store_root_deleted(store, tmp_path):
    """A root removed by hand is like an object file deleted by hand: its
    objects stay listed and charged, a get of one is a NoSuchObject, and
    the next put makes the tree again."""
    store.put_object("acme", "a", b"1", MASTER, QUOTA)
    shutil.rmtree(tmp_path / "objects")
    assert store.list_objects("acme") == ["a"]
    assert store.list_objects("bravo") == []  # never stored anything
    with pytest.raises(NoSuchObject):
        store.get_object("acme", "a", MASTER)
    store.put_object("acme", "b", b"2", MASTER, QUOTA)
    assert store.list_objects("acme") == ["a", "b"]
    assert store.used_bytes("acme") == 2 + 2 * OVERHEAD
    assert bytes(store.get_object("acme", "b", MASTER)) == b"2"


class _NoOs:
    """Stands in for the os module: any use of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"list_objects used os.{name}")


def test_list_reads_no_directory(store, monkeypatch):
    for name in ("b", "a", "\u00e9", "Z"):
        store.put_object("acme", name, b"x", MASTER, QUOTA)
    monkeypatch.setattr(vault, "os", _NoOs())  # no system call at all
    assert store.list_objects("acme") == ["Z", "a", "b", "\u00e9"]
    assert store.list_objects("fresh") == []


def test_list_is_what_the_quota_charges_after_a_hand_deletion(store, tmp_path):
    store.put_object("acme", "kept", b"1", MASTER, QUOTA)
    store.put_object("acme", "gone", b"22", MASTER, QUOTA)
    (tmp_path / "objects" / "acme" / "gone").unlink()  # behind the store's back
    assert store.list_objects("acme") == ["gone", "kept"]
    assert store.used_bytes("acme") == 3 + 2 * OVERHEAD
    with pytest.raises(NoSuchObject):
        store.get_object("acme", "gone", MASTER)


def _get_error(store: ObjectStore, name: str) -> Exception:
    """What a get of acme's `name` raises; the test fails if it returns."""
    try:
        store.get_object("acme", name, MASTER)
    except Exception as exc:
        return exc
    pytest.fail(f"a get of {name!r} returned")


def test_a_file_placed_by_hand_is_served_only_after_a_restart(store, tmp_path):
    # a valid object file, written by another store under the same master key
    other = ObjectStore(tmp_path / "other")
    other.put_object("acme", "placed", b"placed by hand", MASTER, QUOTA)
    store.put_object("acme", "kept", b"kept", MASTER, QUOTA)
    root = tmp_path / "objects"
    shutil.copyfile(tmp_path / "other" / "acme" / "placed", root / "acme" / "placed")
    with pytest.raises(NoSuchObject):
        store.get_object("acme", "placed", MASTER)
    assert store.list_objects("acme") == ["kept"]
    assert store.used_bytes("acme") == 4 + OVERHEAD
    restarted = ObjectStore(root)
    assert restarted.get_object("acme", "placed", MASTER) == b"placed by hand"
    assert restarted.list_objects("acme") == ["kept", "placed"]


def test_a_linked_object_file_is_refused_without_a_buffer_of_its_size(store, tmp_path):
    # an object name linked to a 64 MiB sparse file: first a name the store
    # never wrote, then in place of a stored object
    sparse = tmp_path / "sparse"
    with open(sparse, "wb") as fh:
        fh.truncate(64 << 20)
    store.put_object("acme", "listed", b"x", MASTER, QUOTA)
    directory = tmp_path / "objects" / "acme"
    (directory / "unlisted").symlink_to(sparse)
    (directory / "listed").unlink()
    (directory / "listed").symlink_to(sparse)
    for name, expected in (("unlisted", NoSuchObject), ("listed", OSError)):
        error, peak = peak_allocated(lambda: _get_error(store, name))
        assert isinstance(error, expected), (name, error)
        assert peak < 8 * 1024, name
    assert _get_error(store, "listed").errno == errno.ELOOP  # opened without following


def test_a_fifo_in_place_of_an_object_is_corrupt_at_once(store, tmp_path):
    # a blocking open would wait for a writer for ever
    store.put_object("acme", "blob", b"data", MASTER, QUOTA)
    path = tmp_path / "objects" / "acme" / "blob"
    path.unlink()
    os.mkfifo(path)
    raised: list[Exception] = []

    def get():
        try:
            store.get_object("acme", "blob", MASTER)
        except CorruptObject as exc:
            raised.append(exc)

    thread = threading.Thread(target=get, daemon=True)
    thread.start()
    thread.join(timeout=10)
    if thread.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))  # lets the open return
        pytest.fail("the get blocked opening the FIFO")
    assert [str(exc) for exc in raised] == ["object file is not the size the store listed"]


def test_customer_isolation(store):
    store.put_object("acme", "private", b"acme data", MASTER, QUOTA)
    assert store.list_objects("bravo") == []
    with pytest.raises(NoSuchObject):
        store.get_object("bravo", "private", MASTER)


def test_storage_keys_differ_per_customer():
    keys = {storage_key(MASTER, f"customer-{i}") for i in range(100)}
    assert len(keys) == 100
    assert storage_key(MASTER, "x") == storage_key(MASTER, "x")
    assert storage_key(MASTER, "x") != storage_key(bytes(16), "x")


def test_index_rebuild_after_restart(tmp_path):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    data = os.urandom(500)
    first.put_object("acme", "kept", data, MASTER, QUOTA)

    second = ObjectStore(root)
    assert second.list_objects("acme") == ["kept"]
    assert second.get_object("acme", "kept", MASTER) == data
    assert second.used_bytes("acme") == 500 + OVERHEAD  # size checked against the header


def test_quota_enforced_after_rebuild(tmp_path):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "a", bytes(600), MASTER, 1000)
    second = ObjectStore(root)
    with pytest.raises(QuotaExceeded):
        second.put_object("acme", "b", bytes(500), MASTER, 1000)


def test_zero_quota_refuses_an_empty_put(store, tmp_path):
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "empty", b"", MASTER, 0)
    store.put_object("acme", "empty", b"", MASTER, OVERHEAD)  # exactly fits
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "second", b"", MASTER, OVERHEAD)
    assert store.used_bytes("acme") == OVERHEAD
    assert os.listdir(tmp_path / "objects" / "acme") == ["empty"]


def test_stray_tmp_files_ignored_on_scan(tmp_path):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "real", b"data", MASTER, QUOTA)
    (root / "acme" / ".tmp-leftover").write_bytes(b"partial write")
    second = ObjectStore(root)
    assert second.list_objects("acme") == ["real"]


def test_scan_counts_skipped_files_and_removes_temp_files(tmp_path):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "real", b"data", MASTER, QUOTA)
    assert (first.scan_skipped, first.scan_removed) == (0, 0)
    write_cbc_object(root / "acme" / "old", 0x02, b"v2 data", MASTER, "acme")
    (root / "acme" / ".tmp-x").write_bytes(b"partial write")
    second = ObjectStore(root)
    assert (second.scan_skipped, second.scan_removed) == (1, 1)
    assert sorted(os.listdir(root / "acme")) == ["old", "real"]
    assert second.list_objects("acme") == ["real"]
    assert second.used_bytes("acme") == 4 + OVERHEAD
    third = ObjectStore(root)  # the temp file is gone, the v2 file is not
    assert (third.scan_skipped, third.scan_removed) == (1, 0)


def test_scan_skips_and_counts_an_unreadable_customer_directory(tmp_path, monkeypatch):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "a", b"acme data", MASTER, QUOTA)
    first.put_object("bravo", "b", b"bravo data", MASTER, QUOTA)
    real_scandir = vault.os.scandir
    # mode bits cannot stand in: the tests may run as root, who reads anything
    unreadable = {str(root / "bravo")}

    def scandir(path):
        if os.fspath(path) in unreadable:
            raise PermissionError(13, "Permission denied", path)
        return real_scandir(path)

    monkeypatch.setattr(vault.os, "scandir", scandir)
    restarted = ObjectStore(root)
    assert restarted.scan_skipped == 1
    assert restarted.list_objects("acme") == ["a"]
    assert restarted.list_objects("bravo") == []
    assert restarted.used_bytes("bravo") == 0
    unreadable.add(str(root))
    with pytest.raises(PermissionError):  # an unreadable root still fails start-up
        ObjectStore(root)


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 1024])
def test_exact_used_bytes_after_restart(tmp_path, size):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "a", bytes(size), MASTER, QUOTA)
    first.put_object("acme", "b", bytes(7), MASTER, QUOTA)
    for index in root.glob("*.index.json"):  # as written by older versions
        index.unlink()
    second = ObjectStore(root)
    on_disk = sum(path.stat().st_size for path in (root / "acme").iterdir())
    assert second.used_bytes("acme") == on_disk == size + 7 + 2 * OVERHEAD
    assert second.get_object("acme", "a", MASTER) == bytes(size)


def test_failed_write_cannot_exceed_quota_after_restart(tmp_path, monkeypatch):
    root = tmp_path / "objects"
    first = ObjectStore(root)
    first.put_object("acme", "a", bytes(100), MASTER, 1000)
    # a failure reported after the object was renamed into place
    real_replace = os.replace

    def replace_then_fail(src, dst):
        real_replace(src, dst)
        raise OSError("disk error after rename")

    monkeypatch.setattr(vault.os, "replace", replace_then_fail)
    with pytest.raises(OSError):
        first.put_object("acme", "a", bytes(900), MASTER, 1000)
    monkeypatch.undo()
    # a size index left by an older version still claims the old size
    (root / "acme.index.json").write_text(json.dumps({"a": 100}))

    second = ObjectStore(root)
    assert second.used_bytes("acme") == 900 + OVERHEAD
    with pytest.raises(QuotaExceeded):
        second.put_object("acme", "b", bytes(750), MASTER, 1000)
    assert (root / "acme.index.json").read_text() == json.dumps({"a": 100})


# Run in a child so the file-size limit binds only there: with SIGXFSZ
# ignored, a write past the limit is cut short, then fails with EFBIG.
_PUT_PAST_FILE_SIZE_LIMIT = """
import json, os, resource, signal, sys
sys.path.insert(0, sys.argv[1])
from csg.vault import ObjectStore
store = ObjectStore(sys.argv[2])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
try:
    store.put_object("acme", "big", os.urandom(10_000), bytes(16), 1 << 20)
    raised = None
except OSError as exc:
    raised = type(exc).__name__
print(json.dumps({"raised": raised, "used": store.used_bytes("acme"),
                  "listed": store.list_objects("acme")}))
"""


@pytest.mark.skipif(
    not hasattr(signal, "SIGXFSZ") or not hasattr(resource, "RLIMIT_FSIZE"),
    reason="needs RLIMIT_FSIZE and SIGXFSZ",
)
def test_put_cut_short_by_file_size_limit_fails_and_leaves_nothing(tmp_path):
    root = tmp_path / "objects"
    src = Path(vault.__file__).parents[1]
    child = subprocess.run(
        [sys.executable, "-c", _PUT_PAST_FILE_SIZE_LIMIT, str(src), str(root)],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    outcome = json.loads(child.stdout)
    assert outcome["raised"] is not None
    assert outcome["used"] == 0 and outcome["listed"] == []
    assert list((root / "acme").iterdir()) == []  # no object, no .tmp-*


def test_failed_rename_leaves_no_temp_file(store, tmp_path, monkeypatch):
    store.put_object("acme", "kept", b"old", MASTER, QUOTA)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(vault.os, "replace", refuse)
    with pytest.raises(OSError):
        store.put_object("acme", "kept", b"new content", MASTER, QUOTA)
    monkeypatch.undo()
    assert os.listdir(tmp_path / "objects" / "acme") == ["kept"]
    assert store.get_object("acme", "kept", MASTER) == b"old"
    assert store.used_bytes("acme") == 3 + OVERHEAD


# --- system calls and descriptors --------------------------------------------

_FILE_CALLS = (
    "open", "close", "read", "readv", "write", "writev", "fstat", "stat",
    "mkdir", "makedirs", "replace", "unlink",
)


def _spy_on_file_calls(monkeypatch) -> list[str]:
    """The names of the `os` file calls vault makes from now on, in order;
    builtin `open` fails the test."""
    calls: list[str] = []
    for name in _FILE_CALLS:
        def spy(*args, _real=getattr(os, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(vault.os, name, spy)

    def no_builtin_open(*_args, **_kwargs):
        raise AssertionError("vault opened a file through io")

    monkeypatch.setattr(vault, "open", no_builtin_open, raising=False)
    return calls


def test_small_put_and_get_make_one_call_each_way(store, monkeypatch):
    """A 1 KiB put for a customer with a directory opens its temp file,
    writes header, ciphertext and tag in one writev, closes and renames;
    a get, sized from the store's table, opens and reads in one readv."""
    store.put_object("acme", "first", b"x", MASTER, QUOTA)
    data = random.Random(1024).randbytes(1024)
    calls = _spy_on_file_calls(monkeypatch)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    assert calls == ["open", "writev", "close", "replace"]
    calls.clear()
    assert store.get_object("acme", "blob", MASTER) == data
    assert calls == ["open", "readv", "close"]


def test_put_remakes_a_customer_directory_removed_by_hand(store, tmp_path, monkeypatch):
    store.put_object("acme", "gone", b"old", MASTER, QUOTA)
    shutil.rmtree(tmp_path / "objects" / "acme")  # behind the store's back
    calls = _spy_on_file_calls(monkeypatch)
    store.put_object("acme", "new", b"new content", MASTER, QUOTA)
    assert calls.count("open") == 2 and calls.count("mkdir") == 1
    monkeypatch.undo()
    assert os.listdir(tmp_path / "objects" / "acme") == ["new"]
    assert store.get_object("acme", "new", MASTER) == b"new content"


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK + 1, 4 * CHUNK + 1])
def test_short_writes_still_write_the_whole_file(store, tmp_path, monkeypatch, size):
    """A writev that takes at most 7 bytes a call: each put resumes where
    the kernel stopped, and the file is what an independent computation
    gives."""
    pytest.importorskip("cryptography.hazmat.primitives.ciphers", exc_type=ImportError)
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    real_write = os.write
    calls = []

    def writev_seven(fd, buffers):
        calls.append(fd)
        taken = bytearray()
        for buffer in buffers:
            taken += memoryview(buffer)[: 7 - len(taken)]
        return real_write(fd, taken)

    monkeypatch.setattr(vault.os, "writev", writev_seven)
    data = random.Random(size).randbytes(size)
    store.put_object("acme", "blob", data, MASTER, QUOTA)
    monkeypatch.undo()
    blob = (tmp_path / "objects" / "acme" / "blob").read_bytes()
    assert len(calls) >= len(blob) / 7  # every call took 7 bytes or fewer
    header, ciphertext, tag = blob[:29], blob[29:-32], blob[-32:]
    assert header[:5] == b"CSG1\x03" and header[21:] == struct.pack(">Q", size)
    encryptor = Cipher(
        algorithms.AES(storage_key(MASTER, "acme")), modes.CTR(header[5:21])
    ).encryptor()
    assert ciphertext == encryptor.update(data) + encryptor.finalize()
    fields = b"\x00\x04acme" + b"\x00\x04blob" + header + ciphertext
    assert tag == hmac.new(storage_mac_key(MASTER, "acme"), fields, hashlib.sha256).digest()
    assert store.get_object("acme", "blob", MASTER) == data


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_descriptor_outlives_a_put_get_or_scan(tmp_path, monkeypatch):
    root = tmp_path / "objects"
    store = ObjectStore(root)
    before = _open_descriptors()
    store.put_object("acme", "a", bytes(100), MASTER, 1000)
    store.put_object("acme", "big", bytes(4 * CHUNK + 1), MASTER, QUOTA)
    assert store.get_object("acme", "a", MASTER) == bytes(100)
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "b", bytes(900), MASTER, 1000)
    with pytest.raises(NoSuchObject):
        store.get_object("acme", "missing", MASTER)
    assert _open_descriptors() == before

    # a refused rename, then a write that fails
    for call, code in (("replace", errno.EXDEV), ("writev", errno.ENOSPC)):
        def fail(*_args, code=code):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(vault.os, call, fail)
        with pytest.raises(OSError) as failed:
            store.put_object("acme", "a", b"new", MASTER, QUOTA)
        assert failed.value.errno == code
        monkeypatch.undo()
    def fail_read(*_args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(vault.os, "readv", fail_read)
    with pytest.raises(OSError) as failed:
        store.get_object("acme", "a", MASTER)
    assert failed.value.errno == errno.EIO
    monkeypatch.undo()
    assert _open_descriptors() == before
    assert sorted(os.listdir(root / "acme")) == ["a", "big"]  # no .tmp-* left

    (root / "acme" / "bad").write_bytes(b"CSG1\x03 and then too short")
    restarted = ObjectStore(root)
    assert restarted.scan_skipped == 1
    assert _open_descriptors() == before


@pytest.mark.parametrize("umask", [0o022, 0o000], ids=["umask-022", "umask-000"])
def test_object_files_are_private_to_the_owner(tmp_path, umask):
    old = os.umask(umask)
    try:
        store = ObjectStore(tmp_path / "objects")
        store.put_object("acme", "fresh", b"first put", MASTER, QUOTA)
        store.put_object("acme", "next", b"second put", MASTER, QUOTA)
    finally:
        os.umask(old)
    for name in ("fresh", "next"):
        mode = (tmp_path / "objects" / "acme" / name).stat().st_mode
        assert stat.S_IMODE(mode) == 0o600, name


@pytest.mark.parametrize("version", [0x01, 0x02], ids=["v1", "v2"])
def test_pre_v3_object_is_never_returned(tmp_path, version):
    root = tmp_path / "objects"
    data = os.urandom(100)
    write_cbc_object(root / "acme" / "old", version, data, MASTER, "acme")
    # the same file copied under a second name of the same customer
    shutil.copyfile(root / "acme" / "old", root / "acme" / "copy")
    store = ObjectStore(root)
    store.put_object("acme", "kept", b"kept", MASTER, QUOTA)
    for name in ("old", "copy"):  # skipped by the scan, so not in the size table
        with pytest.raises(NoSuchObject):
            store.get_object("acme", name, MASTER)
    assert store.list_objects("acme") == ["kept"]
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 4 + OVERHEAD
    store.put_object("acme", "old", data, MASTER, QUOTA)  # rewritten as v3
    assert (root / "acme" / "old").read_bytes()[4] == 0x03
    assert store.get_object("acme", "old", MASTER) == data
    assert store.list_objects("acme") == ["kept", "old"]
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 104 + 2 * OVERHEAD
    # an older file as long as a listed object's, in its place
    store.put_object("acme", "listed", bytes(96), MASTER, QUOTA)
    path = root / "acme" / "listed"
    size = path.stat().st_size
    write_cbc_object(path, version, bytes(112), MASTER, "acme")
    assert path.stat().st_size == size
    with pytest.raises(CorruptObject, match="unsupported object version"):
        store.get_object("acme", "listed", MASTER)


@pytest.mark.parametrize(
    "new_length",
    [pytest.param(99, id="v3-99-False"), pytest.param(101, id="v3-101-False")],
)
def test_altered_length_field_is_corrupt(tmp_path, new_length):
    root = tmp_path / "objects"
    store = ObjectStore(root)
    store.put_object("acme", "blob", bytes(100), MASTER, QUOTA)
    store.put_object("acme", "other", b"x", MASTER, QUOTA)
    path = root / "acme" / "blob"
    blob = bytearray(path.read_bytes())
    blob[21:29] = struct.pack(">Q", new_length)
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptObject):
        store.get_object("acme", "blob", MASTER)
    # the scan reads headers only, and a v3 file's size fixes its length
    rescanned = ObjectStore(root)
    assert rescanned.list_objects("acme") == ["other"]
    assert rescanned.used_bytes("acme") == 1 + OVERHEAD


def _listed_bytes(store: ObjectStore, customer_id: str) -> int:
    """The file sizes of the listed objects, each read back whole."""
    return sum(
        len(store.get_object(customer_id, name, MASTER)) + OVERHEAD
        for name in store.list_objects(customer_id)
    )


def test_used_bytes_is_the_sum_of_listed_sizes(tmp_path, monkeypatch):
    root = tmp_path / "objects"
    store = ObjectStore(root)
    store.put_object("acme", "a", bytes(300), MASTER, 1000)
    store.put_object("acme", "b", bytes(200), MASTER, 1000)
    store.put_object("bravo", "a", bytes(7), MASTER, 1000)
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 500 + 2 * OVERHEAD
    store.put_object("acme", "a", bytes(100), MASTER, 1000)  # overwrite
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 300 + 2 * OVERHEAD
    with pytest.raises(QuotaExceeded):
        store.put_object("acme", "c", bytes(701), MASTER, 1000)
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 300 + 2 * OVERHEAD

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(vault.os, "replace", refuse)
    with pytest.raises(OSError):
        store.put_object("acme", "b", bytes(600), MASTER, 1000)
    monkeypatch.undo()
    assert store.used_bytes("acme") == _listed_bytes(store, "acme") == 300 + 2 * OVERHEAD
    restarted = ObjectStore(root)
    assert restarted.used_bytes("acme") == _listed_bytes(restarted, "acme") == 300 + 2 * OVERHEAD
    assert restarted.used_bytes("bravo") == _listed_bytes(restarted, "bravo") == 7 + OVERHEAD


def test_store_root_holds_only_customer_directories(tmp_path):
    root = tmp_path / "objects"
    store = ObjectStore(root)
    for i in range(5):
        store.put_object("acme", f"o{i}", bytes(i * 10), MASTER, QUOTA)
        store.put_object("bravo", "same", bytes(i), MASTER, QUOTA)
    assert sorted(p.name for p in root.iterdir()) == ["acme", "bravo"]
    assert all(p.is_dir() for p in root.iterdir())


def test_scan_follows_no_link(tmp_path):
    # a customer directory linked to another store's, and an object file
    # linked to one beside it
    outside = ObjectStore(tmp_path / "outside")
    outside.put_object("acme", "n", b"outside data", MASTER, QUOTA)
    root = tmp_path / "objects"
    ObjectStore(root).put_object("bravo", "own", b"own", MASTER, QUOTA)
    (root / "acme").symlink_to(tmp_path / "outside" / "acme", target_is_directory=True)
    (root / "bravo" / "linked").symlink_to(root / "bravo" / "own")
    restarted = ObjectStore(root)
    assert restarted.scan_skipped == 2
    assert restarted.list_objects("acme") == []
    assert restarted.used_bytes("acme") == 0
    assert restarted.list_objects("bravo") == ["own"]
    assert restarted.used_bytes("bravo") == 3 + OVERHEAD
    with pytest.raises(NoSuchObject):
        restarted.get_object("acme", "n", MASTER)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the store reaches a customer directory by its path, so a put writes "
    "through a link; ROADMAP item 20's directory-descriptor half unmarks this",
)
def test_put_writes_nothing_through_a_linked_customer_directory(tmp_path):
    outside = tmp_path / "outside"
    outside.mkdir()
    root = tmp_path / "objects"
    store = ObjectStore(root)
    (root / "acme").symlink_to(outside, target_is_directory=True)
    try:
        store.put_object("acme", "n", b"data", MASTER, QUOTA)
    except OSError:
        pass  # a refused put writes nothing
    assert list(outside.iterdir()) == []
