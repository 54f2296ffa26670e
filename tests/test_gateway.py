"""Gateway tests: configuration precedence and validation, the audit log,
and the live loopback server (concurrency, capacity, fuzz isolation,
shutdown, CLI startup)."""

from __future__ import annotations

import errno
import gc
import json
import os
import random
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

from csg import gateway, keyx, protocol
from csg.client import ClientSession, ProtocolFailure
from csg.gateway import AuditLog, ConfigError, GatewayConfig, load_config
from csg.vault import Registry, save_registry
from csg.wire import MAX_FRAME_LEN, Frame, MessageType, decode_frame, encode_frame, encode_str

from conftest import (
    ScriptedClient,
    audit_events,
    open_session,
    parse_audit_line,
    provision_customer,
    sealed_without_encryption,
    write_cbc_object,
)


# --- configuration ----------------------------------------------------------

def write_config(tmp_path, **overrides):
    values = {
        "listen_addr": "127.0.0.1:0",
        "registry_path": str(tmp_path / "registry.jsonl"),
        "objects_dir": str(tmp_path / "objects"),
        "master_key_hex": "00" * 16,
    }
    values.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    return path


def test_config_file_alone(tmp_path):
    path = write_config(tmp_path)
    config = load_config(["--config", str(path)], env={})
    assert config.listen_addr == "127.0.0.1:0"
    assert config.dh_group == "rfc3526-14"
    assert config.max_sessions == 256
    assert config.audit_log == "gateway-audit.log"
    # ASCII digits load from the file as they do from the environment
    path = write_config(tmp_path, max_sessions="8")
    assert load_config(["--config", str(path)], env={}).max_sessions == 8


def test_flag_overrides_env_overrides_file(tmp_path):
    path = write_config(tmp_path, listen_addr="127.0.0.1:1111")
    env = {"CSG_LISTEN_ADDR": "127.0.0.1:2222"}
    config = load_config(["--config", str(path)], env=env)
    assert config.listen_addr == "127.0.0.1:2222"
    config = load_config(
        ["--config", str(path), "--listen", "127.0.0.1:3333"], env=env
    )
    assert config.listen_addr == "127.0.0.1:3333"


def test_missing_registry_path_names_the_key(tmp_path):
    with pytest.raises(ConfigError, match="registry_path"):
        load_config(
            ["--listen", "127.0.0.1:0", "--objects", str(tmp_path)],
            env={"CSG_MASTER_KEY_HEX": "00" * 16},
        )


def test_malformed_master_key_names_the_field(tmp_path):
    path = write_config(tmp_path, master_key_hex="zz")
    with pytest.raises(ConfigError, match="master_key_hex"):
        load_config(["--config", str(path)], env={})
    path = write_config(tmp_path, master_key_hex="00" * 15)
    with pytest.raises(ConfigError, match="master_key_hex"):
        load_config(["--config", str(path)], env={})


def test_listen_addr_has_a_default(tmp_path):
    config = load_config(
        ["--registry", str(tmp_path / "r.jsonl"), "--objects", str(tmp_path)],
        env={"CSG_MASTER_KEY_HEX": "00" * 16},
    )
    assert config.listen_addr == "127.0.0.1:9443"


def test_unknown_group_rejected(tmp_path):
    path = write_config(tmp_path, dh_group="rfc9999")
    with pytest.raises(ConfigError, match="dh_group"):
        load_config(["--config", str(path)], env={})


def test_unknown_file_key_rejected(tmp_path):
    path = write_config(tmp_path, mystery_knob=4)
    with pytest.raises(ConfigError, match="mystery_knob"):
        load_config(["--config", str(path)], env={})


def test_bad_listen_addr(tmp_path):
    path = write_config(tmp_path, listen_addr="nope")
    with pytest.raises(ConfigError, match="listen_addr"):
        load_config(["--config", str(path)], env={})


def test_bad_max_sessions(tmp_path):
    path = write_config(tmp_path, max_sessions=0)
    with pytest.raises(ConfigError, match="max_sessions"):
        load_config(["--config", str(path)], env={})


# the required keys
PRECEDENCE_BASE = {
    "registry_path": "r.jsonl",
    "objects_dir": "objects",
    "master_key_hex": "00" * 16,
}

# key, (file value, parsed), (env value, parsed), (flag argv, parsed) or None;
# each source's value differs from the next source's and from the default,
# except for dh_group
PRECEDENCE = [
    ("registry_path", ("f.jsonl", "f.jsonl"), ("e.jsonl", "e.jsonl"),
     (["--registry", "g.jsonl"], "g.jsonl")),
    ("objects_dir", ("f-dir", "f-dir"), ("e-dir", "e-dir"), (["--objects", "g-dir"], "g-dir")),
    ("master_key_hex", ("11" * 16, "11" * 16), ("2A" * 16, "2A" * 16), None),
    ("listen_addr", ("127.0.0.1:1111", "127.0.0.1:1111"), ("127.0.0.1:2222", "127.0.0.1:2222"),
     (["--listen", "127.0.0.1:3333"], "127.0.0.1:3333")),
    # its one legal value, also the default: the other rows cover precedence
    ("dh_group", ("rfc3526-14", "rfc3526-14"), ("rfc3526-14", "rfc3526-14"), None),
    ("max_sessions", (7, 7), ("8", 8), None),
    ("audit_log", ("f.log", "f.log"), ("e.log", "e.log"), (["--audit-log", "g.log"], "g.log")),
]


def test_precedence_table_covers_every_key():
    assert [row[0] for row in PRECEDENCE] == list(GatewayConfig._fields)


def load_key(tmp_path, key, file_values, env, argv=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(file_values))
    return getattr(load_config(["--config", str(path), *argv], env=env), key)


@pytest.mark.parametrize("key, file, env, flag", PRECEDENCE, ids=[r[0] for r in PRECEDENCE])
def test_flag_beats_env_beats_file_beats_default(tmp_path, key, file, env, flag):
    env_name = "CSG_" + key.upper()
    others = {k: v for k, v in PRECEDENCE_BASE.items() if k != key}
    if key not in GatewayConfig._field_defaults:
        with pytest.raises(ConfigError, match=rf"^{key}: missing"):
            load_key(tmp_path, key, others, {})
    else:
        assert load_key(tmp_path, key, others, {}) == GatewayConfig._field_defaults[key]
    with_file = {**others, key: file[0]}
    assert load_key(tmp_path, key, with_file, {}) == file[1]
    assert load_key(tmp_path, key, with_file, {env_name: env[0]}) == env[1]
    if flag is not None:
        assert load_key(tmp_path, key, with_file, {env_name: env[0]}, flag[0]) == flag[1]


@pytest.mark.parametrize(
    "key, source, bad",
    [
        ("registry_path", "config file", None),
        ("objects_dir", "config file", None),
        ("audit_log", "config file", None),
        ("registry_path", "config file", 5),
        ("registry_path", "config file", "r\x00.jsonl"),
        ("objects_dir", "config file", "obj\x00x"),
        ("audit_log", "config file", "audit\x00.log"),
        ("listen_addr", "config file", "127.0.0.1\x00:0"),
        ("objects_dir", "env", ""),
        ("objects_dir", "flag", ""),
        ("master_key_hex", "env", "00" * 15),
        ("listen_addr", "config file", "127.0.0.1:\u00b2"),
        ("listen_addr", "env", "127.0.0.1:\u00b2"),
        ("listen_addr", "flag", "127.0.0.1:\u00b2"),
        ("dh_group", "env", "rfc9999"),
        # names of groups the gateway does not run
        ("dh_group", "env", "test-small"),
        ("dh_group", "config file", "test-small"),
        ("max_sessions", "config file", 2.9),
        ("max_sessions", "config file", True),
        ("max_sessions", "env", "2.9"),
        # a surrogate-escaped byte is a legal path, any other lone surrogate
        # is not; a host must encode as the socket layer encodes it
        ("objects_dir", "config file", "obj\ud800"),
        ("registry_path", "env", "r\udfff.jsonl"),
        ("listen_addr", "config file", "\udc80:0"),
        ("listen_addr", "env", "h\udc80st:0"),
    ],
)
def test_bad_value_names_key_and_winning_source(tmp_path, key, source, bad):
    """Only the winning source's value is parsed, and the error names it;
    every source below it holds a good value."""
    _, file, env, flag = next(row for row in PRECEDENCE if row[0] == key)
    env_name = "CSG_" + key.upper()
    file_values = {**PRECEDENCE_BASE, key: bad if source == "config file" else file[0]}
    env_values = {} if source == "config file" else {env_name: bad if source == "env" else env[0]}
    argv = [flag[0][0], bad] if source == "flag" else []
    label = f"env {env_name}" if source == "env" else source
    with pytest.raises(ConfigError, match=rf"^{key} \(from {label}\): "):
        load_key(tmp_path, key, file_values, env_values, argv)


# --- audit log ----------------------------------------------------------------

def test_audit_lines_parse_back(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.append(1, "hello")
    log.append(2, "phase1 ok", customer_id="acme")
    log.append(3, "weird\nevent")
    log.close()
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert len(lines) == 3
    stamp, session, event = parse_audit_line(lines[0])
    assert session == 1 and event == "hello"
    assert "T" in stamp and stamp.endswith("Z")
    assert parse_audit_line(lines[1])[2] == "phase1 ok customer=acme"
    assert "\n" not in parse_audit_line(lines[2])[2]


def test_audit_customer_field_cannot_forge_a_line(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.append(3, "phase2 ok cert=valid", "acme\n2026-01-01T00:00:00Z 7 forged")
    log.close()
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert len(lines) == 1
    _, session, event = parse_audit_line(lines[0])
    assert (session, event) == (
        3, "phase2 ok cert=valid customer=acme\\n2026-01-01T00:00:00Z 7 forged"
    )


def test_audit_failures_counted_not_raised(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.close()
    log.append(1, "after close")  # file handle gone
    assert log.dropped == 1


def test_audit_drops_from_concurrent_sessions_are_all_counted(tmp_path, capsys):
    log = AuditLog(tmp_path / "audit.log")
    log.close()
    threads = [
        threading.Thread(target=lambda: [log.append(i, "event") for i in range(500)])
        for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert log.dropped == 8 * 500
    assert len(capsys.readouterr().err.splitlines()) == 1


# --- live gateway -------------------------------------------------------------

def test_readiness_line_and_round_trip(gateway_factory, capsys):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    captured = capsys.readouterr()
    assert f"gateway listening on {handle.host}:{handle.port}" in captured.out

    session = open_session(handle, acme)
    session.put("hello.txt", b"hello gateway")
    assert session.get("hello.txt") == b"hello gateway"
    assert session.list_names() == ["hello.txt"]
    session.close()


def _ipv6_loopback_bindable() -> bool:
    try:
        socket.create_server(("::1", 0), family=socket.AF_INET6).close()
    except OSError:
        return False
    return True


@pytest.mark.skipif(not _ipv6_loopback_bindable(), reason="::1 cannot be bound here")
@pytest.mark.parametrize("listen_addr", ["::1:0", "[::1]:0"], ids=["bare", "bracketed"])
def test_gateway_listens_on_ipv6(gateway_factory, listen_addr):
    acme = provision_customer("acme")
    handle = gateway_factory([acme], listen_addr=listen_addr)
    assert handle.host == "::1"
    session = open_session(handle, acme)
    session.put("v6", b"over ipv6")
    assert session.get("v6") == b"over ipv6"
    assert session.list_names() == ["v6"]
    session.close()


def test_two_customers_have_independent_spaces(gateway_factory):
    acme = provision_customer("acme")
    bravo = provision_customer("bravo")
    handle = gateway_factory([acme, bravo])

    results = {}

    def run(customer, payload):
        session = open_session(handle, customer)
        session.put("data", payload)
        time.sleep(0.05)  # overlap the sessions
        results[customer.customer_id] = session.get("data")
        results[customer.customer_id + "-ls"] = session.list_names()
        session.close()

    t1 = threading.Thread(target=run, args=(acme, b"acme bytes"))
    t2 = threading.Thread(target=run, args=(bravo, b"bravo bytes"))
    t1.start(); t2.start(); t1.join(); t2.join()

    assert results["acme"] == b"acme bytes"
    assert results["bravo"] == b"bravo bytes"
    assert results["acme-ls"] == ["data"]
    assert results["bravo-ls"] == ["data"]
    # cross-customer get must miss: bravo has no "data" under acme's name
    on_disk = sorted(p.name for p in handle.objects_dir.iterdir() if p.is_dir())
    assert on_disk == ["acme", "bravo"]


def test_session_cap_immediate_reject(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme], max_sessions=1)

    first = open_session(handle, acme, login=False)
    # the second connection is accepted at TCP level, then closed at once
    second = socket.create_connection((handle.host, handle.port), timeout=5)
    second.settimeout(5)
    assert second.recv(1) == b""  # EOF without any frame
    second.close()
    first.close()
    events = [
        parse_audit_line(line)[2]
        for line in handle.audit_path.read_text().splitlines()
    ]
    assert events.count("refused at capacity") == 1

    # slot freed: a new session works again
    deadline = time.time() + 5
    while True:
        try:
            third = open_session(handle, acme, login=False)
            break
        except (ProtocolFailure, OSError):
            if time.time() > deadline:
                raise
            time.sleep(0.05)
    third.close()


def test_failed_session_thread_start_is_refused_and_audited(gateway_factory, monkeypatch):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    start = threading.Thread.start
    failed: list[str] = []

    def start_or_fail_once(thread):
        if thread.name.startswith("gateway-session-") and not failed:
            failed.append(thread.name)
            raise RuntimeError("can't start new thread")
        return start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_fail_once)
    with socket.create_connection((handle.host, handle.port), timeout=5) as refused:
        refused.settimeout(5)
        assert refused.recv(1) == b""  # closed without any frame
    assert failed == ["gateway-session-1"]
    assert 1 not in handle.gateway._sessions  # the slot is free again
    # the accept loop goes on: the next client is served and audited
    session = open_session(handle, acme)
    session.put("after", b"refusal")
    assert session.get("after") == b"refusal"
    session.close()
    events = audit_events(handle, 7)
    assert events[0] == "refused thread start"
    assert events[1:3] == ["hello", "phase1 ok customer=acme"]
    assert events[-1] == "disconnect customer=acme"


class _ListenerFailingFirstAccept:
    """A listener whose first `failures` accepts fail as they do when the
    process is out of descriptors; all else is passed on."""

    def __init__(self, sock: socket.socket, failures: int = 1):
        self._sock = sock
        self.failures = failures
        self.failed = 0

    def accept(self):
        if self.failed < self.failures:
            self.failed += 1
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_failed_accept_is_audited_and_accepting_goes_on(gateway_factory, monkeypatch):
    acme = provision_customer("acme")
    create_server = socket.create_server
    monkeypatch.setattr(
        gateway.socket, "create_server",
        lambda *args, **kwargs: _ListenerFailingFirstAccept(create_server(*args, **kwargs)),
    )
    handle = gateway_factory([acme])
    assert audit_events(handle, 1) == ["accept failed OSError"]
    assert handle.gateway._accept_thread.is_alive()
    session = open_session(handle, acme)
    session.put("after", b"emfile")
    assert session.get("after") == b"emfile"
    session.close()
    events = audit_events(handle, 7)
    assert events[0] == "accept failed OSError"
    assert events[1:3] == ["hello", "phase1 ok customer=acme"]
    assert events[-1] == "disconnect customer=acme"


def _fail_accepts(monkeypatch, failures: int) -> list:
    """Make the next gateway's listener fail its first `failures` accepts;
    the returned list receives that listener."""
    listeners = []
    create_server = socket.create_server

    def failing(*args, **kwargs):
        listeners.append(_ListenerFailingFirstAccept(create_server(*args, **kwargs), failures))
        return listeners[-1]

    monkeypatch.setattr(gateway.socket, "create_server", failing)
    return listeners


def test_repeated_accept_failures_are_audited_as_one_count(gateway_factory, monkeypatch):
    acme = provision_customer("acme")
    listeners = _fail_accepts(monkeypatch, 5)
    handle = gateway_factory([acme])
    session = open_session(handle, acme)
    session.close()
    assert listeners[0].failed == 5
    events = audit_events(handle, 6)
    assert events[:3] == [
        "accept failed OSError",
        "accept failed OSError repeated 4",
        "hello",
    ]
    assert sum(event.startswith("accept failed") for event in events) == 2


def test_accept_failures_still_failing_are_counted_at_shutdown(gateway_factory, monkeypatch):
    listeners = _fail_accepts(monkeypatch, 10**9)
    handle = gateway_factory([provision_customer("acme")])
    deadline = time.monotonic() + 5.0
    while listeners[0].failed < 5 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert audit_events(handle, 1) == ["accept failed OSError"]
    handle.gateway.shutdown(drain_seconds=0.0)
    events = audit_events(handle, 2)
    assert events[0] == "accept failed OSError"
    first, _, repeats = events[1].rpartition(" repeated ")
    assert first == "accept failed OSError"
    assert int(repeats) >= 3  # the fifth failure may race the stop
    assert len(events) == 2


def test_chaos_50_fuzz_clients_do_not_disturb_5_honest_clients(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    honest_ok: list[bool] = []
    failures: list[str] = []

    def fuzz(seed):
        r = random.Random(seed)
        kinds = [
            lambda: r.randbytes(r.randrange(1, 80)),
            lambda: encode_frame(
                MessageType(r.choice(list(MessageType))), r.randbytes(r.randrange(0, 60))
            ),
            lambda: struct.pack(">I", r.choice([0, 0xFFFFFFFF, 64])) + r.randbytes(8),
        ]
        try:
            with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
                for _ in range(r.randrange(1, 6)):
                    sock.sendall(r.choice(kinds)())
                if r.random() < 0.5:
                    sock.shutdown(socket.SHUT_RDWR)  # abrupt disconnect
        except OSError:
            pass

    def honest(idx):
        try:
            session = open_session(handle, acme)
            payload = random.Random(idx).randbytes(2048)
            session.put(f"victim-{idx}", payload)
            assert session.get(f"victim-{idx}") == payload
            session.close()
            honest_ok.append(True)
        except Exception as exc:  # noqa: BLE001 - collected for the assert below
            failures.append(repr(exc))
            honest_ok.append(False)

    threads = [threading.Thread(target=fuzz, args=(seed,)) for seed in range(50)]
    threads += [threading.Thread(target=honest, args=(idx,)) for idx in range(5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert honest_ok == [True] * 5, failures
    assert "internal error" not in handle.audit_path.read_text()


def test_per_session_failure_isolated(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    healthy = open_session(handle, acme)
    # a client that sends a valid frame out of order gets an Error and close
    broken = socket.create_connection((handle.host, handle.port), timeout=5)
    broken.sendall(encode_frame(MessageType.PUT, b"x" * 40))
    broken.settimeout(5)
    response = broken.recv(1024)
    assert response[4] == MessageType.ERROR
    broken.close()
    # the healthy session is unaffected
    healthy.put("still", b"alive")
    assert healthy.get("still") == b"alive"
    healthy.close()


def test_internal_error_ends_only_its_session(gateway_factory, monkeypatch):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    real = gateway.server_handle_frame
    failed = []

    def fail_once(*args):
        if not failed:
            failed.append(True)
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(gateway, "server_handle_frame", fail_once)
    with pytest.raises(ProtocolFailure):
        open_session(handle, acme)
    # the class name only: the exception's text is not audited
    assert audit_events(handle, 1)[0] == "internal error RuntimeError"
    session = open_session(handle, acme)
    session.put("after", b"served")
    assert session.get("after") == b"served"
    session.close()


def test_shutdown_drains_and_stops_accepting(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    session = open_session(handle, acme)
    session.put("pre", b"shutdown")
    handle.gateway.shutdown(drain_seconds=1.0)
    with pytest.raises(OSError):
        socket.create_connection((handle.host, handle.port), timeout=1)
    session.close()


def test_shutdown_reports_dropped_audit_lines_as_a_count(gateway_factory, capsys):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    audit = handle.gateway.audit
    audit._fh.close()  # every later append fails and is counted
    session = open_session(handle, acme)
    session.put("f", b"x")
    session.close()
    capsys.readouterr()
    handle.gateway.shutdown(drain_seconds=2.0)
    assert audit.dropped >= 4  # hello, phase1, phase2, put at least
    assert capsys.readouterr().err.splitlines() == [
        f"gateway: audit log dropped {audit.dropped} lines"
    ]


def test_first_dropped_audit_line_is_reported_when_it_happens(gateway_factory, capsys):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    audit = handle.gateway.audit
    capsys.readouterr()
    audit._fh.close()  # every later append fails and is counted
    session = open_session(handle, acme)
    session.put("f", b"x")
    session.close()
    assert audit.dropped >= 4  # hello, phase1, phase2, put at least
    assert capsys.readouterr().err.splitlines() == [
        "gateway: audit log write failed (ValueError); later lines are dropped and counted"
    ]
    handle.gateway.shutdown(drain_seconds=2.0)
    assert capsys.readouterr().err.splitlines() == [
        f"gateway: audit log dropped {audit.dropped} lines"
    ]


def test_audit_redaction_on_failed_phase1(gateway_factory):
    acme = provision_customer("acme", tunnel_pass="sup3r-secret-tunnel-pw")
    handle = gateway_factory([acme])
    session = ClientSession(handle.host, handle.port)
    from csg.client import AuthRefused

    with pytest.raises(AuthRefused):
        session.connect_tunnel(acme.tunnel_user, "wrong-password-123")
    session.close()
    audit = handle.audit_path.read_text()
    assert "phase1 fail" in audit
    assert "wrong-password-123" not in audit
    assert "sup3r-secret-tunnel-pw" not in audit


def test_audit_event_sequence(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    session = open_session(handle, acme)
    session.put("f", b"x")
    session.get("f")
    session.list_names()
    session.close()
    time.sleep(0.1)
    events = [
        parse_audit_line(line)[2]
        for line in handle.audit_path.read_text().splitlines()
    ]
    assert "hello" in events
    assert "phase1 ok customer=acme" in events
    assert "phase2 ok cert=valid customer=acme" in events
    assert any(e.startswith("put name='f'") for e in events)
    assert any(e.startswith("get name='f'") for e in events)
    assert any(e.startswith("list count=") for e in events)
    assert "disconnect customer=acme" in events


def test_gateway_derives_its_keys_after_sending_the_server_hello(gateway_factory, monkeypatch):
    """Each side's DH `pow` can run while the other computes its own: the
    gateway's `dh_shared` is held until the client has read the ServerHello,
    and the session still completes login, put and get."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    hello_read = threading.Event()
    waits = []
    real_dh_shared = protocol.dh_shared

    def held_dh_shared(*args):
        waits.append(hello_read.wait(timeout=5.0))  # False: the wait timed out
        return real_dh_shared(*args)

    monkeypatch.setattr(protocol, "dh_shared", held_dh_shared)
    client = ScriptedClient(handle.host, handle.port)
    try:
        client.hello(on_server_hello=hello_read.set)
        assert client.phase1(acme.tunnel_user, acme.tunnel_pass) == (True, "")
        client.send(protocol.service_request(client.state, acme.space_path))
        client.send(protocol.auth(client.state, acme.service_user, acme.service_pass))
        msg_type, payload = client.recv()
        assert msg_type is MessageType.PHASE2_RESULT
        assert protocol.handle_auth_result(client.state, payload) == (True, "")
        client.send(protocol.build_put(client.state, "f", b"overlap"))
        msg_type, payload = client.recv()
        assert protocol.parse_put_result(client.state, payload) == protocol.STATUS_OK
        client.send(protocol.build_get(client.state, "f"))
        msg_type, payload = client.recv()
        assert protocol.parse_get_result(client.state, payload) == (
            protocol.STATUS_OK, b"overlap"
        )
    finally:
        client.close()
    assert waits == [True, True]  # one call on each side, neither timed out


def test_startup_scan_counts_are_audited(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    master_key = os.urandom(16)
    objects = tmp_path / "gw0" / "objects"  # where the factory's first gateway keeps them
    write_cbc_object(objects / "acme" / "private-plans.txt", 0x02, b"v2", master_key, "acme")
    (objects / "acme" / ".tmp-x").write_bytes(b"partial write")
    handle = gateway_factory([acme], master_key=master_key)
    assert handle.objects_dir == objects
    assert (handle.gateway.store.scan_skipped, handle.gateway.store.scan_removed) == (1, 1)
    assert not (objects / "acme" / ".tmp-x").exists()
    lines = handle.audit_path.read_text().splitlines()
    # counts only, never a file name
    assert [parse_audit_line(line)[1:] for line in lines] == [
        (0, "store scan skipped=1 removed_temps=1")
    ]


def test_idle_session_holds_no_frame(gateway_factory):
    """Once a reply is sent, a session waiting for its next frame holds
    neither the request nor the reply. The object is small because serial
    CBC encryption runs about 30 times slower under tracemalloc."""
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    data = random.Random(61).randbytes(32 * 1024)
    with open_session(handle, acme) as session:
        # the session's lazily built key tables are not a frame
        session.put("obj", b"warm")
        session.get("obj")
        for op in (lambda: session.put("obj", data), lambda: session.get("obj")):
            tracemalloc.start()
            try:
                op()  # the client keeps nothing of it
                # the reply is out before its session thread is back in decode_frame
                deadline = time.monotonic() + 2.0
                while True:
                    held, _ = tracemalloc.get_traced_memory()
                    if held < 0.1 * len(data) or time.monotonic() > deadline:
                        break
                    time.sleep(0.01)
            finally:
                tracemalloc.stop()
            assert held < 0.1 * len(data)


def test_connection_reset_leaves_an_audit_line(gateway_factory):
    handle = gateway_factory([provision_customer("acme")])
    sock = socket.create_connection((handle.host, handle.port), timeout=5)
    sock.sendall(b"\x00\x00")  # half a frame length
    # linger 0: close() resets the connection instead of ending it
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()
    # the class name only: an OSError's text may carry an address
    assert audit_events(handle, 1) == ["connection lost ConnectionResetError"]


@pytest.mark.parametrize(
    "sent, event",
    [
        (b"", "connection closed"),  # a port probe: no byte of any frame
        (b"\x00\x00", "frame error truncated"),  # half a frame length
        (encode_frame(MessageType.CLIENT_HELLO, bytes(40))[:-3], "frame error truncated"),
    ],
)
def test_clean_end_is_told_apart_from_a_cut_frame(gateway_factory, sent, event):
    handle = gateway_factory([provision_customer("acme")])
    with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
        sock.sendall(sent)
    assert audit_events(handle, 1) == [event]


@pytest.mark.parametrize(
    "sent, event",
    [
        # the declared length alone is refused; no payload byte is sent
        (struct.pack(">IB", MAX_FRAME_LEN + 1, MessageType.PUT), "frame error FrameTooLarge"),
        (struct.pack(">IB", 1, 0xEE), "frame error UnknownType"),  # an unassigned type byte
        # a complete header whose length leaves no room for its type byte
        (struct.pack(">IB", 0, MessageType.PUT), "frame error FrameTooShort"),
    ],
    ids=["too-large", "unknown-type", "zero-length"],
)
def test_undecodable_frame_is_answered_bad_frame(gateway_factory, sent, event):
    handle = gateway_factory([provision_customer("acme")])
    with socket.create_connection((handle.host, handle.port), timeout=5) as sock:
        sock.sendall(sent)
        with sock.makefile("rb") as stream:
            assert decode_frame(stream) == (MessageType.ERROR, encode_str("bad frame"))
            assert stream.read() == b""  # then the gateway closes the connection
    assert audit_events(handle, 1) == [event]


# --- the executable ----------------------------------------------------------

def test_cli_startup_and_sigterm(tmp_path):
    acme = provision_customer("acme")
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([acme.record]), registry_path)
    config_path = write_config(
        tmp_path, registry_path=str(registry_path), audit_log=str(tmp_path / "audit.log")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("gateway listening on 127.0.0.1:")
        port = int(line.rsplit(":", 1)[1])
        session = ClientSession("127.0.0.1", port)
        session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)
        session.login(acme.space_path, acme.service_user, acme.service_pass)
        session.put("via-cli", b"payload")
        assert session.get("via-cli") == b"payload"
        session.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def _peak_rss(pid: int) -> int:
    """The peak resident set size (VmHWM) of process pid, in bytes."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) * 1024
    raise AssertionError("no VmHWM line")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM under /proc")
def test_gateway_process_serves_a_4_mib_put_in_under_twice_its_size(tmp_path):
    """A real gateway process, on group 14, serves one 4 MiB PUT while its
    peak resident set rises by at most twice the object: the payload it
    received, decrypted there in place, plus cipher scratch. The payload is
    sealed without encryption, so no time goes on serial CBC."""
    acme = provision_customer("acme")
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([acme.record]), registry_path)
    config_path = write_config(
        tmp_path, registry_path=str(registry_path), audit_log=str(tmp_path / "audit.log")
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        port = int(proc.stdout.readline().rsplit(":", 1)[1])
        with ClientSession("127.0.0.1", port) as session:
            session.connect_tunnel(acme.tunnel_user, acme.tunnel_pass)
            session.login(acme.space_path, acme.service_user, acme.service_pass)
            name, size = "big", 4 << 20
            data_len = size - 16 - 2 - len(name) - 4  # less the padding block and the fields
            first_block = encode_str(name) + struct.pack(">I", data_len)
            first_block += bytes(16 - len(first_block))
            payload = sealed_without_encryption(
                session.state.schedules["k_data"], first_block, size, random.Random(71)
            )
            before = _peak_rss(proc.pid)
            status = session._exchange(
                [Frame(MessageType.PUT, payload)], protocol.parse_put_result
            )
            rise = _peak_rss(proc.pid) - before
        assert status == protocol.STATUS_OK
        assert rise <= 2 * data_len, f"peak RSS rose {rise / data_len:.2f}x the object"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_gateway_process_sets_the_switch_interval(tmp_path, monkeypatch):
    built = []

    class NotServing:  # stands in for Gateway: the entry stops before it serves
        def __init__(self, config):
            built.append(config)

        def start(self):
            raise OSError("not serving")

        def shutdown(self, drain_seconds):
            pass

    monkeypatch.setattr(gateway, "Gateway", NotServing)
    before = sys.getswitchinterval()
    try:
        assert gateway.main(["--config", str(write_config(tmp_path))]) == 1
        assert sys.getswitchinterval() == gateway.SWITCH_INTERVAL_SECONDS
    finally:
        sys.setswitchinterval(before)
    assert [config.listen_addr for config in built] == ["127.0.0.1:0"]


def test_failed_start_leaks_no_socket(tmp_path):
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([]), registry_path)
    # a listening socket holds the port: no other socket can bind it
    held = socket.create_server(("127.0.0.1", 0))
    with held, warnings.catch_warnings(record=True) as caught:
        # recorded, not raised: the plain tier-1 run sees a leak too
        warnings.simplefilter("always")
        gw = gateway.Gateway(
            GatewayConfig(
                listen_addr=f"127.0.0.1:{held.getsockname()[1]}",
                registry_path=str(registry_path),
                objects_dir=str(tmp_path / "objects"),
                master_key_hex="00" * 16,
                audit_log=str(tmp_path / "audit.log"),
            )
        )
        with pytest.raises(OSError):
            gw.start()
        gw.shutdown(0)
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_cli_failed_bind_exits_1_with_one_line(tmp_path):
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([]), registry_path)
    with socket.create_server(("127.0.0.1", 0)) as held:
        config_path = write_config(
            tmp_path,
            listen_addr=f"127.0.0.1:{held.getsockname()[1]}",
            registry_path=str(registry_path),
            audit_log=str(tmp_path / "audit.log"),
        )
        # -X dev: an unclosed socket or audit log adds a ResourceWarning line
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-m", "csg.gateway", "--config", str(config_path)],
            capture_output=True,
            text=True,
            timeout=30,
        )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("gateway: cannot listen on "), proc.stderr


def test_gateway_in_process_leaves_the_switch_interval(gateway_factory):
    # the setting belongs to the gateway process, not to an embedder's
    before = sys.getswitchinterval()
    acme = provision_customer("acme")
    session = open_session(gateway_factory([acme]), acme)
    session.put("a", b"x")
    session.close()
    assert sys.getswitchinterval() == before


def test_cli_bad_master_key_exits_nonzero(tmp_path):
    config_path = write_config(tmp_path, master_key_hex="not-hex")
    proc = subprocess.run(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode != 0
    assert "master_key_hex" in proc.stderr


def test_cli_unreadable_registry_exits_nonzero(tmp_path):
    config_path = write_config(tmp_path, registry_path=str(tmp_path / "missing.jsonl"))
    proc = subprocess.run(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode != 0
    assert "startup failed" in proc.stderr


def test_cli_registry_without_kdf_tag_exits_1_with_one_line(tmp_path):
    # a registry written before PBKDF2 would fail every login; refuse it
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([provision_customer("acme").record]), registry_path)
    obj = json.loads(registry_path.read_text())
    assert obj.pop("kdf") == keyx.PASSWORD_KDF == "pbkdf2-hmac-sha256/10000"
    registry_path.write_text(json.dumps(obj) + "\n")
    config_path = write_config(tmp_path, registry_path=str(registry_path))
    proc = subprocess.run(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("gateway: startup failed: line 1: kdf must be "), proc.stderr
    assert "re-provision" in lines[0]


@pytest.mark.parametrize(
    "argv, file_values, env_values, message",
    [
        (["--listen", "127.0.0.1:\u00b2"], {}, {}, "listen_addr (from flag)"),
        ([], {"listen_addr": "127.0.0.1\x00:0"}, {}, "listen_addr (from config file)"),
        ([], {"objects_dir": None}, {}, "objects_dir (from config file)"),
        ([], {"max_sessions": 2.9}, {}, "max_sessions (from config file)"),
        # the removed opt-in to a small test group is refused in any form
        ([], {}, {"CSG_DH_GROUP": "test-small", "CSG_ALLOW_INSECURE_GROUP": "1"},
         "dh_group (from env CSG_DH_GROUP)"),
        ([], {"allow_insecure_group": True}, {}, "allow_insecure_group (from config file)"),
        ([], {"objects_dir": "obj\ud800"}, {}, "objects_dir (from config file)"),
        # the environment carries the byte 0x80, which decodes to "\udc80"
        ([], {}, {"CSG_LISTEN_ADDR": "\udc80:0"}, "listen_addr (from env CSG_LISTEN_ADDR)"),
        # the last --config wins
        (["--config", "."], {}, {}, "config (from flag --config)"),
        # a str is the config file's whole text
        ([], "{not json", {}, "config file {config}"),
        ([], '["listen_addr"]', {}, "config file {config}"),
    ],
    ids=["non-ascii-port-digit", "nul-in-listen-addr", "null-path", "float-max-sessions",
         "test-group-from-env", "removed-insecure-group-key", "surrogate-path-from-file",
         "surrogate-host-from-env", "unreadable-config", "config-not-json",
         "config-json-array"],
)
def test_cli_config_error_exits_2_with_one_line(
    tmp_path, argv, file_values, env_values, message
):
    if isinstance(file_values, str):
        config_path = tmp_path / "config.json"
        config_path.write_text(file_values)
    else:
        config_path = write_config(tmp_path, **file_values)
    message = message.format(config=config_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSG_")}
    env.update(env_values)
    proc = subprocess.run(
        [sys.executable, "-m", "csg.gateway", "--config", str(config_path), *argv],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"gateway: {message}: "), proc.stderr
