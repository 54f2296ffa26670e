"""Shared fixtures: customer provisioning, a loopback gateway factory, a
frame recorder at the client's socket, a scripted low-level client, an
audit-line parser, pre-v3 object files, copying forms of the in-place
ciphers, sealed payloads built without encryption, a tracemalloc peak, and
the acceptance pass/fail summary."""

from __future__ import annotations

import os
import random
import socket
import struct
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from csg import aes, protocol
from csg.client import ClientSession
from csg.gateway import Gateway, GatewayConfig
from csg.keyx import dh_generate
from csg.vault import (
    Certificate,
    CustomerRecord,
    Registry,
    make_customer_record,
    save_registry,
    storage_key,
)
from csg.wire import Frame, MessageType, decode_frame

VECTORS_DIR = Path(__file__).parent / "vectors"


def make_certificate(
    customer_id: str,
    *,
    expires_in: int = 3600,
    rights: tuple[str, ...] = ("storage",),
    revoked: bool = False,
    now: int | None = None,
) -> Certificate:
    now = int(time.time()) if now is None else now
    return Certificate(
        customer_id=customer_id,
        issued_at=now - 200,
        last_update=now - 100,
        expiry_date=now + expires_in,
        rights=rights,
        revoked=revoked,
    )


@dataclass
class Provisioned:
    """One customer the tests know the secrets for."""

    record: CustomerRecord
    customer_id: str
    tunnel_user: str
    tunnel_pass: str
    service_user: str
    service_pass: str
    space_path: str


def provision_customer(
    customer_id: str = "acme",
    *,
    tunnel_pass: str | None = None,
    service_pass: str | None = None,
    space_path: str | None = None,
    quota_bytes: int = 64 * 1024 * 1024,
    certificate: Certificate | None = None,
) -> Provisioned:
    tunnel_pass = tunnel_pass if tunnel_pass is not None else f"{customer_id}-tunnel-pw"
    service_pass = service_pass if service_pass is not None else f"{customer_id}-service-pw"
    space_path = space_path if space_path is not None else f"/space/{customer_id}"
    certificate = certificate or make_certificate(customer_id)
    record = make_customer_record(
        customer_id=customer_id,
        tunnel_user=f"{customer_id}-tunnel",
        tunnel_password=tunnel_pass,
        service_user=f"{customer_id}-service",
        service_password=service_pass,
        space_path=space_path,
        certificate=certificate,
        quota_bytes=quota_bytes,
    )
    return Provisioned(
        record=record,
        customer_id=customer_id,
        tunnel_user=record.tunnel_user,
        tunnel_pass=tunnel_pass,
        service_user=record.service_user,
        service_pass=service_pass,
        space_path=space_path,
    )


# The whole-buffer cipher's working set, in chunks of aes._CHUNK_BYTES and
# whatever the message length: 11 round keys widened to a chunk, plus the
# state, counter and translated-state temporaries of one chunk, about 25
# chunks in all.
ENGINE_CHUNKS = 28


def padded(data: bytes) -> bytearray:
    """data and its PKCS#7 padding in a new buffer, ready for aes.cbc_encrypt."""
    return bytearray(data) + aes.padding(len(data))


def cbc_encrypt_copy(plaintext: bytes, schedule: aes.KeySchedule, iv: bytes) -> bytes:
    """The CBC ciphertext of plaintext and its padding, as new bytes."""
    buf = padded(plaintext)
    aes.cbc_encrypt(buf, schedule, iv)
    return bytes(buf)


def ctr_crypt_copy(data: bytes, schedule: aes.KeySchedule, counter: bytes) -> bytes:
    """aes.ctr_crypt over a copy of data, as new bytes; data is untouched."""
    buf = bytearray(data)
    aes.ctr_crypt(buf, schedule, counter)
    return bytes(buf)


def sealed_without_encryption(
    schedule: aes.KeySchedule, first_block: bytes, size: int, rng: random.Random
) -> bytearray:
    """An IV and `size` bytes of CBC ciphertext that open to first_block,
    random blocks, then a full padding block, in one new buffer as
    decode_frame returns a payload. Built from two block decryptions: the IV
    is chosen as D(c[0]) ^ first_block, and c[n-2] as D(c[n-1]) ^ pad.
    Serial CBC encryption of a large payload is slow, and far slower under
    tracemalloc."""
    ciphertext = bytearray(rng.randbytes(size))
    last = bytes(ciphertext[-16:])
    ciphertext[-32:-16] = bytes(a ^ 16 for a in aes.decrypt_block(last, schedule))
    first = aes.decrypt_block(bytes(ciphertext[:16]), schedule)
    iv = bytes(a ^ b for a, b in zip(first, first_block))
    return bytearray(iv) + ciphertext


def peak_allocated(fn):
    """(fn(), the peak of the bytes tracemalloc saw allocated while it ran).
    Only allocations made during the call count."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def write_cbc_object(
    path: Path, version: int, data: bytes, master_key: bytes, customer_id: str
) -> None:
    """An object file as versions 0x01 and 0x02 wrote it, which the store no
    longer reads: CBC under the customer's storage key, no tag; the u64 holds
    the ciphertext length in 0x01 and the plaintext length in 0x02."""
    iv = os.urandom(16)
    schedule = aes.key_expansion(storage_key(master_key, customer_id))
    ciphertext = cbc_encrypt_copy(data, schedule, iv)
    length = len(ciphertext) if version == 0x01 else len(data)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(b"CSG1" + bytes([version]) + iv + struct.pack(">Q", length) + ciphertext)


@pytest.fixture
def gateway_factory(tmp_path):
    """Start loopback gateways on ephemeral ports; they are shut down when
    the test ends."""
    started: list[Gateway] = []

    def start(
        customers: list[Provisioned],
        *,
        max_sessions: int = 256,
        master_key: bytes | None = None,
        listen_addr: str = "127.0.0.1:0",
    ) -> SimpleNamespace:
        base = tmp_path / f"gw{len(started)}"
        base.mkdir(parents=True, exist_ok=True)
        registry_path = base / "registry.jsonl"
        save_registry(Registry(c.record for c in customers), registry_path)
        config = GatewayConfig(
            listen_addr=listen_addr,
            registry_path=str(registry_path),
            objects_dir=str(base / "objects"),
            master_key_hex=(master_key or os.urandom(16)).hex(),
            max_sessions=max_sessions,
            audit_log=str(base / "audit.log"),
        )
        gateway = Gateway(config)
        host, port = gateway.start()
        started.append(gateway)
        return SimpleNamespace(
            gateway=gateway,
            host=host,
            port=port,
            audit_path=Path(config.audit_log),
            objects_dir=Path(config.objects_dir),
            master_key=gateway.master_key,
        )

    yield start
    for gateway in started:
        gateway.shutdown(drain_seconds=2.0)


class RecordingSocket:
    """Stands in for a ClientSession's socket or its read stream: passes
    every call on, and records what crosses `sendall` or `read`. Each
    `sendall` is kept whole in `writes`; each frame, split by its length
    prefix, is appended whole to `frames`, in the order it crossed."""

    def __init__(self, inner, frames: list[bytes]):
        self._inner = inner
        self._frames = frames
        self._partial = bytearray()  # the start of a frame not yet whole
        self.writes: list[bytes] = []

    def sendall(self, data) -> None:
        self._inner.sendall(data)
        self.writes.append(bytes(data))
        self._record(data)

    def read(self, size: int = -1) -> bytes:
        data = self._inner.read(size)
        self._record(data)
        return data

    def _record(self, data) -> None:
        self._partial += data
        while len(self._partial) >= 4:
            end = 4 + struct.unpack_from(">I", self._partial)[0]
            if len(self._partial) < end:
                break
            self._frames.append(bytes(self._partial[:end]))
            del self._partial[:end]

    def __getattr__(self, name):
        return getattr(self._inner, name)


def record_frames(session: ClientSession, frames: list[bytes]) -> RecordingSocket:
    """Record every frame `session` sends and receives, as it crosses the
    socket, into `frames`; returns the recording socket."""
    session._stream = RecordingSocket(session._stream, frames)
    session._sock = RecordingSocket(session._sock, frames)
    return session._sock


def open_session(handle, customer: Provisioned, *, capture=None, login=True) -> ClientSession:
    """Happy-path session against a gateway started by gateway_factory.
    `capture`, when given, collects every frame sent and received, whole,
    as it crossed the socket."""
    session = ClientSession(handle.host, handle.port)
    if capture is not None:
        record_frames(session, capture)
    try:
        session.connect_tunnel(customer.tunnel_user, customer.tunnel_pass)
        if login:
            session.login(customer.space_path, customer.service_user, customer.service_pass)
    except BaseException:
        session.close()  # a refused handshake must not leak the socket
        raise
    return session


def parse_audit_line(line: str) -> tuple[str, int, str]:
    """Split an audit line back into (timestamp, session id, event text)."""
    stamp, session_id, event = line.rstrip("\n").split(" ", 2)
    return stamp, int(session_id), event


def audit_events(handle, at_least: int, timeout: float = 5.0) -> list[str]:
    """The event texts in the gateway's audit log, once it holds `at_least`
    lines or `timeout` has passed: a session thread writes its last line
    after the client has gone."""
    deadline = time.monotonic() + timeout
    while True:
        lines = handle.audit_path.read_text().splitlines()
        if len(lines) >= at_least or time.monotonic() > deadline:
            return [parse_audit_line(line)[2] for line in lines]
        time.sleep(0.02)


class ScriptedClient:
    """Low-level client for protocol tests: drives the state machine by
    hand and can inject raw bytes (replays, fuzz)."""

    def __init__(self, host: str, port: int, capture=None):
        self.capture = capture
        self.state = protocol.SessionState()
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.stream = self.sock.makefile("rb")

    def send(self, frame: Frame) -> None:
        raw = frame.encode()
        if self.capture is not None:
            self.capture.append(raw)
        self.sock.sendall(raw)

    def send_raw(self, raw: bytes) -> None:
        self.sock.sendall(raw)

    def recv(self) -> tuple[MessageType, bytes]:
        return decode_frame(self.stream)

    def hello(self, keypair=None, on_server_hello=None) -> None:
        """`on_server_hello` is called once the ServerHello has been read,
        before this side derives its keys."""
        keypair = keypair or dh_generate()
        self.send(protocol.client_connect(self.state, keypair))
        msg_type, payload = self.recv()
        assert msg_type is MessageType.SERVER_HELLO, msg_type
        if on_server_hello is not None:
            on_server_hello()
        protocol.client_handle_server_hello(self.state, payload)

    def phase1(self, user: str, password: str) -> tuple[bool, str]:
        self.send(protocol.auth(self.state, user, password))
        msg_type, payload = self.recv()
        assert msg_type is MessageType.PHASE1_RESULT, msg_type
        return protocol.handle_auth_result(self.state, payload)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


# --- acceptance criteria summary -------------------------------------------

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance_results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        outcome = _acceptance_results[name]
        label = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{label}  {name}")
