"""The service-provider executable: configuration, audit log, and the TCP
server driving one protocol session per connection.

Configuration precedence: command-line flags > CSG_* environment variables >
JSON config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Mapping, Optional

from .keyx import GROUPS, INSECURE_GROUPS
from .protocol import Phase, ServerContext, SessionState, server_handle_frame
from .vault import DuplicateUser, ObjectStore, ParseError, load_registry
from .wire import (
    FrameError,
    Frame,
    MessageType,
    TruncatedFrame,
    decode_frame,
    encode_str,
)

_ENV_PREFIX = "CSG_"
DRAIN_SECONDS = 5.0


class ConfigError(Exception):
    """Invalid or missing configuration; message names the key and where
    the value came from."""


@dataclasses.dataclass
class GatewayConfig:
    registry_path: str
    objects_dir: str
    master_key_hex: str
    listen_addr: str = "127.0.0.1:9443"
    dh_group: str = "rfc3526-14"
    max_sessions: int = 256
    audit_log: str = "gateway-audit.log"
    allow_insecure_group: bool = False

    def master_key(self) -> bytes:
        return bytes.fromhex(self.master_key_hex)

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen_addr.rpartition(":")
        return host, int(port)


# every config key and its built-in default; None marks a required key
DEFAULTS = {
    f.name: None if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(GatewayConfig)
}


def _parse_bool(value, key: str, source: str) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("1", "true", "yes", "on"):
        return True
    if isinstance(value, str) and value.lower() in ("0", "false", "no", "off", ""):
        return False
    raise ConfigError(f"{key} (from {source}): not a boolean: {value!r}")


def load_config(
    argv: Optional[list[str]] = None, env: Optional[Mapping[str, str]] = None
) -> GatewayConfig:
    """Merge flags, environment, config file and defaults into a validated
    GatewayConfig."""
    env = os.environ if env is None else env
    parser = argparse.ArgumentParser(prog="gateway", description=__doc__)
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--listen", metavar="ADDR", help="host:port to listen on")
    parser.add_argument("--registry", metavar="PATH", help="customer registry file")
    parser.add_argument("--objects", metavar="DIR", help="object store directory")
    parser.add_argument(
        "--audit-log", metavar="PATH", help="audit log file (default gateway-audit.log)"
    )
    parser.add_argument(
        "--allow-insecure-group",
        action="store_true",
        help="permit the test-only DH group",
    )
    args = parser.parse_args(argv)

    # (value, source) pairs; later lookups only fill keys still unset
    merged: dict[str, tuple[object, str]] = {}

    flag_map = {
        "listen_addr": args.listen,
        "registry_path": args.registry,
        "objects_dir": args.objects,
        "audit_log": args.audit_log,
        "allow_insecure_group": args.allow_insecure_group or None,
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = (value, "flag")

    for key in DEFAULTS:
        env_name = _ENV_PREFIX + key.upper()
        if key not in merged and env_name in env:
            merged[key] = (env[env_name], f"env {env_name}")

    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config (from flag --config): {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"config file {args.config}: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        for key, value in file_values.items():
            if key not in DEFAULTS:
                raise ConfigError(f"{key} (from config file): unknown key")
            if key not in merged:
                merged[key] = (value, "config file")

    for key, value in DEFAULTS.items():
        if key not in merged and value is not None:
            merged[key] = (value, "default")

    def get(key: str) -> tuple[object, str]:
        if key not in merged:
            env_name = _ENV_PREFIX + key.upper()
            raise ConfigError(
                f"{key}: missing (no flag, {env_name} variable, or config file value)"
            )
        return merged[key]

    listen_addr, source = get("listen_addr")
    host, sep, port = str(listen_addr).rpartition(":")
    if not sep or not host or not port.isdigit() or not 0 <= int(port) <= 65535:
        raise ConfigError(f"listen_addr (from {source}): not host:port: {listen_addr!r}")

    registry_path = str(get("registry_path")[0])
    objects_dir = str(get("objects_dir")[0])

    master_key_hex, source = get("master_key_hex")
    master_key_hex = str(master_key_hex)
    try:
        key_bytes = bytes.fromhex(master_key_hex)
    except ValueError:
        key_bytes = b""
    if len(master_key_hex) != 32 or len(key_bytes) != 16:
        raise ConfigError(
            f"master_key_hex (from {source}): must be exactly 32 hex characters"
        )

    dh_group, group_source = get("dh_group")
    dh_group = str(dh_group)
    if dh_group not in GROUPS:
        raise ConfigError(
            f"dh_group (from {group_source}): unknown group {dh_group!r}, "
            f"expected one of {sorted(GROUPS)}"
        )

    value, source = get("allow_insecure_group")
    allow_insecure = _parse_bool(value, "allow_insecure_group", source)
    if dh_group in INSECURE_GROUPS and not allow_insecure:
        raise ConfigError(
            f"dh_group (from {group_source}): {dh_group!r} is test-only; "
            "pass --allow-insecure-group to use it"
        )

    value, source = get("max_sessions")
    try:
        max_sessions = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"max_sessions (from {source}): not an integer: {value!r}")
    if max_sessions < 1:
        raise ConfigError(f"max_sessions (from {source}): must be >= 1")

    return GatewayConfig(
        listen_addr=str(listen_addr),
        registry_path=registry_path,
        objects_dir=objects_dir,
        master_key_hex=master_key_hex,
        dh_group=dh_group,
        max_sessions=max_sessions,
        audit_log=str(get("audit_log")[0]),
        allow_insecure_group=allow_insecure,
    )


class AuditLog:
    """Append-only security event log: one line per event, formatted as
    `<utc-timestamp> <session-id> <event> [customer=<id>]`.

    Never receives passwords, keys, nonces, or object plaintext; callers
    only hand it event labels. Write failures are counted, never raised.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.dropped = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, session_id: int, event: str, customer_id: Optional[str] = None) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        event = event.replace("\n", "\\n").replace("\r", "\\r")
        line = f"{stamp} {session_id} {event}"
        if customer_id is not None:
            line += f" customer={customer_id}"
        try:
            with self._lock:
                self._fh.write(line + "\n")
                self._fh.flush()
        except (OSError, ValueError):
            self.dropped += 1

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                self.dropped += 1


def parse_audit_line(line: str) -> tuple[str, int, str]:
    """Split an audit line back into (timestamp, session id, event text)."""
    stamp, session_id, event = line.rstrip("\n").split(" ", 2)
    return stamp, int(session_id), event


class Gateway:
    """Accepts connections and runs one server-side protocol session per
    connection; sessions share only the registry, the store, and the audit
    appender."""

    def __init__(self, config: GatewayConfig):
        if config.dh_group in INSECURE_GROUPS and not config.allow_insecure_group:
            raise ConfigError(
                f"dh_group: {config.dh_group!r} is test-only; "
                "set allow_insecure_group to use it"
            )
        self.config = config
        self.registry = load_registry(config.registry_path)
        self.store = ObjectStore(config.objects_dir)
        self.master_key = config.master_key()
        self.group = GROUPS[config.dh_group]
        self.audit = AuditLog(config.audit_log)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._sessions: dict[int, tuple[threading.Thread, socket.socket]] = {}
        self._sessions_lock = threading.Lock()
        self._next_session_id = 0
        self.bound_addr: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        """Bind, print the readiness line, and start accepting."""
        host, port = self.config.host_port()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        self._listener = listener
        self.bound_addr = listener.getsockname()[:2]
        print(f"gateway listening on {self.bound_addr[0]}:{self.bound_addr[1]}", flush=True)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        return self.bound_addr

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed during shutdown
            with self._sessions_lock:
                self._next_session_id += 1
                session_id = self._next_session_id
                full = len(self._sessions) >= self.config.max_sessions
                if not full:
                    thread = threading.Thread(
                        target=self._run_session,
                        args=(session_id, conn),
                        name=f"gateway-session-{session_id}",
                        daemon=True,
                    )
                    self._sessions[session_id] = (thread, conn)
            if full:
                # at capacity: immediate reject, no queueing
                self.audit.append(session_id, "refused at capacity")
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            thread.start()

    def _run_session(self, session_id: int, conn: socket.socket) -> None:
        state = SessionState()
        ctx = ServerContext(
            registry=self.registry,
            store=self.store,
            master_key=self.master_key,
            group=self.group,
            audit=lambda event, customer_id: self.audit.append(
                session_id, event, customer_id
            ),
        )
        stream = conn.makefile("rb")
        try:
            while state.phase is not Phase.CLOSED:
                try:
                    msg_type, payload = decode_frame(stream)
                except TruncatedFrame:
                    self.audit.append(session_id, "frame error truncated")
                    break
                except FrameError as exc:
                    self.audit.append(session_id, f"frame error {type(exc).__name__}")
                    self._try_send(conn, Frame(MessageType.ERROR, encode_str("bad frame")))
                    break
                for frame in server_handle_frame(state, msg_type, payload, ctx):
                    conn.sendall(frame.encode())
        except OSError:
            pass  # peer vanished or socket shut down during drain
        except Exception as exc:  # a session must never take the process down
            self.audit.append(session_id, f"internal error {type(exc).__name__}")
        finally:
            state.close()
            try:
                stream.close()
                conn.close()
            except OSError:
                pass
            with self._sessions_lock:
                self._sessions.pop(session_id, None)

    @staticmethod
    def _try_send(conn: socket.socket, frame: Frame) -> None:
        try:
            conn.sendall(frame.encode())
        except OSError:
            pass

    def shutdown(self, drain_seconds: float = DRAIN_SECONDS) -> None:
        """Stop accepting, give active sessions `drain_seconds` to finish,
        then force-close the stragglers."""
        if self._listener is not None:
            # shutdown() unblocks a thread sitting in accept() and tears the
            # listen queue down; close() alone leaves both in place
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        deadline = time.monotonic() + drain_seconds
        with self._sessions_lock:
            active = list(self._sessions.values())
        for thread, _conn in active:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._sessions_lock:
            remaining = list(self._sessions.values())
        for _thread, conn in remaining:
            try:
                conn.shutdown(socket.SHUT_RDWR)
                conn.close()
            except OSError:
                pass
        for thread, _conn in remaining:
            thread.join(timeout=1.0)
        self.audit.close()


def run(config: GatewayConfig) -> int:
    """Run the gateway until SIGINT/SIGTERM; returns the process exit code."""
    try:
        gateway = Gateway(config)
    except (ConfigError, ParseError, DuplicateUser, OSError, ValueError) as exc:
        print(f"gateway: startup failed: {exc}", file=sys.stderr)
        return 1
    try:
        gateway.start()
    except OSError as exc:
        print(f"gateway: cannot listen on {config.listen_addr}: {exc}", file=sys.stderr)
        return 1
    stop = threading.Event()

    def handle_signal(_signum, _frame):
        stop.set()

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    stop.wait()
    gateway.shutdown(DRAIN_SECONDS)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        config = load_config(argv)
    except ConfigError as exc:
        print(f"gateway: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
