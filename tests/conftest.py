"""Shared fixtures: customer provisioning, a loopback gateway factory, a
scripted low-level client, and the acceptance pass/fail summary."""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest

from csg import protocol
from csg.client import ClientSession
from csg.gateway import Gateway, GatewayConfig
from csg.keyx import GROUPS, TEST_SMALL
from csg.vault import Certificate, CustomerRecord, Registry, make_customer_record, save_registry
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


@pytest.fixture
def gateway_factory(tmp_path):
    """Start loopback gateways on ephemeral ports; they are shut down when
    the test ends."""
    started: list[Gateway] = []

    def start(
        customers: list[Provisioned],
        *,
        group: str = "test-small",
        max_sessions: int = 256,
        master_key: bytes | None = None,
    ) -> SimpleNamespace:
        base = tmp_path / f"gw{len(started)}"
        base.mkdir(parents=True, exist_ok=True)
        registry_path = base / "registry.jsonl"
        save_registry(Registry(c.record for c in customers), registry_path)
        config = GatewayConfig(
            listen_addr="127.0.0.1:0",
            registry_path=str(registry_path),
            objects_dir=str(base / "objects"),
            master_key_hex=(master_key or os.urandom(16)).hex(),
            dh_group=group,
            max_sessions=max_sessions,
            audit_log=str(base / "audit.log"),
            allow_insecure_group=True,
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


def open_session(handle, customer: Provisioned, *, capture=None, login=True) -> ClientSession:
    """Happy-path session against a gateway started by gateway_factory."""
    session = ClientSession(
        handle.host, handle.port, group=GROUPS[handle.gateway.config.dh_group],
        capture=capture,
    )
    try:
        session.connect_tunnel(customer.tunnel_user, customer.tunnel_pass)
        if login:
            session.login(customer.space_path, customer.service_user, customer.service_pass)
    except BaseException:
        session.close()  # a refused handshake must not leak the socket
        raise
    return session


class ScriptedClient:
    """Low-level client for protocol tests: drives the state machine by
    hand and can inject raw bytes (replays, fuzz)."""

    def __init__(self, host: str, port: int, group=TEST_SMALL, capture=None):
        self.group = group
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

    def hello(self, keypair=None) -> None:
        from csg.keyx import dh_generate

        keypair = keypair or dh_generate(self.group)
        self.send(protocol.client_connect(self.state, keypair))
        msg_type, payload = self.recv()
        assert msg_type is MessageType.SERVER_HELLO, msg_type
        protocol.client_handle_server_hello(self.state, payload, self.group)

    def phase1(self, user: str, password: str) -> tuple[bool, str]:
        self.send(protocol.phase1_auth(self.state, user, password))
        msg_type, payload = self.recv()
        assert msg_type is MessageType.PHASE1_RESULT, msg_type
        return protocol.client_handle_phase1_result(self.state, payload)

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
