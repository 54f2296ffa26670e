"""Gateway tests: configuration precedence and validation, the audit log,
and the live loopback server (concurrency, capacity, fuzz isolation,
shutdown, CLI startup)."""

from __future__ import annotations

import dataclasses
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

import pytest

from csg.client import ClientSession, ProtocolFailure
from csg.gateway import AuditLog, ConfigError, GatewayConfig, load_config, parse_audit_line
from csg.keyx import TEST_SMALL
from csg.vault import Registry, save_registry
from csg.wire import MessageType, encode_frame

from conftest import open_session, provision_customer


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


def test_insecure_group_needs_explicit_flag(tmp_path):
    path = write_config(tmp_path)
    env = {"CSG_DH_GROUP": "test-small"}
    with pytest.raises(ConfigError, match="test-small"):
        load_config(["--config", str(path)], env=env)
    config = load_config(
        ["--config", str(path), "--allow-insecure-group"], env=env
    )
    assert config.dh_group == "test-small"
    # the message names where the group came from, not the flag's default
    with pytest.raises(ConfigError, match=r"dh_group \(from env CSG_DH_GROUP\)"):
        load_config(["--config", str(path)], env=env)
    path = write_config(tmp_path, dh_group="test-small")
    with pytest.raises(ConfigError, match=r"dh_group \(from config file\)"):
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


# the required keys, and test-small allowed so that dh_group may name it
PRECEDENCE_BASE = {
    "registry_path": "r.jsonl",
    "objects_dir": "objects",
    "master_key_hex": "00" * 16,
    "allow_insecure_group": True,
}

# key, (file value, parsed), (env value, parsed), (flag argv, parsed) or None;
# each source's value differs from the next source's and from the default
PRECEDENCE = [
    ("registry_path", ("f.jsonl", "f.jsonl"), ("e.jsonl", "e.jsonl"),
     (["--registry", "g.jsonl"], "g.jsonl")),
    ("objects_dir", ("f-dir", "f-dir"), ("e-dir", "e-dir"), (["--objects", "g-dir"], "g-dir")),
    ("master_key_hex", ("11" * 16, "11" * 16), ("2A" * 16, "2A" * 16), None),
    ("listen_addr", ("127.0.0.1:1111", "127.0.0.1:1111"), ("127.0.0.1:2222", "127.0.0.1:2222"),
     (["--listen", "127.0.0.1:3333"], "127.0.0.1:3333")),
    ("dh_group", ("test-small", "test-small"), ("rfc3526-14", "rfc3526-14"), None),
    ("max_sessions", (7, 7), ("8", 8), None),
    ("audit_log", ("f.log", "f.log"), ("e.log", "e.log"), (["--audit-log", "g.log"], "g.log")),
    ("allow_insecure_group", (True, True), ("off", False), (["--allow-insecure-group"], True)),
]


def test_precedence_table_covers_every_key():
    assert [row[0] for row in PRECEDENCE] == [f.name for f in dataclasses.fields(GatewayConfig)]


def load_key(tmp_path, key, file_values, env, argv=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(file_values))
    return getattr(load_config(["--config", str(path), *argv], env=env), key)


@pytest.mark.parametrize("key, file, env, flag", PRECEDENCE, ids=[r[0] for r in PRECEDENCE])
def test_flag_beats_env_beats_file_beats_default(tmp_path, key, file, env, flag):
    env_name = "CSG_" + key.upper()
    others = {k: v for k, v in PRECEDENCE_BASE.items() if k != key}
    default = GatewayConfig.__dataclass_fields__[key].default
    if default is dataclasses.MISSING:
        with pytest.raises(ConfigError, match=rf"^{key}: missing"):
            load_key(tmp_path, key, others, {})
    else:
        assert load_key(tmp_path, key, others, {}) == default
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
        ("objects_dir", "env", ""),
        ("objects_dir", "flag", ""),
        ("master_key_hex", "env", "00" * 15),
        ("listen_addr", "config file", "127.0.0.1:\u00b2"),
        ("listen_addr", "env", "127.0.0.1:\u00b2"),
        ("listen_addr", "flag", "127.0.0.1:\u00b2"),
        ("dh_group", "env", "rfc9999"),
        ("max_sessions", "config file", 2.9),
        ("max_sessions", "config file", True),
        ("max_sessions", "env", "2.9"),
        ("allow_insecure_group", "env", "maybe"),
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


def test_audit_failures_counted_not_raised(tmp_path):
    log = AuditLog(tmp_path / "audit.log")
    log.close()
    log.append(1, "after close")  # file handle gone
    assert log.dropped == 1


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


def test_shutdown_drains_and_stops_accepting(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    session = open_session(handle, acme)
    session.put("pre", b"shutdown")
    handle.gateway.shutdown(drain_seconds=1.0)
    with pytest.raises(OSError):
        socket.create_connection((handle.host, handle.port), timeout=1)
    session.close()


def test_audit_redaction_on_failed_phase1(gateway_factory):
    acme = provision_customer("acme", tunnel_pass="sup3r-secret-tunnel-pw")
    handle = gateway_factory([acme])
    session = ClientSession(handle.host, handle.port, group=TEST_SMALL)
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


# --- the executable ----------------------------------------------------------

def test_cli_startup_and_sigterm(tmp_path):
    acme = provision_customer("acme")
    registry_path = tmp_path / "registry.jsonl"
    save_registry(Registry([acme.record]), registry_path)
    config_path = write_config(
        tmp_path,
        registry_path=str(registry_path),
        dh_group="test-small",
        allow_insecure_group=True,
        audit_log=str(tmp_path / "audit.log"),
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
        session = ClientSession("127.0.0.1", port, group=TEST_SMALL)
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


@pytest.mark.parametrize(
    "argv, file_values, message",
    [
        (["--listen", "127.0.0.1:\u00b2"], {}, "listen_addr (from flag)"),
        ([], {"objects_dir": None}, "objects_dir (from config file)"),
        ([], {"max_sessions": 2.9}, "max_sessions (from config file)"),
    ],
    ids=["non-ascii-port-digit", "null-path", "float-max-sessions"],
)
def test_cli_config_error_exits_2_with_one_line(tmp_path, argv, file_values, message):
    config_path = write_config(tmp_path, **file_values)
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSG_")}
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
