"""The service-provider executable: configuration, audit log, and the TCP
server driving one protocol session per connection.

Each config key takes its value from its flag, else CSG_<KEY>, else the
JSON config file, else its default, and `_PARSERS` checks it. Exit codes: 0
after SIGINT/SIGTERM, 1 for a startup failure (registry, store, audit log,
bind), 2 for a config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import socket
import string
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Mapping, Optional

from .keyx import select_group
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


def _text(value: object) -> str:
    if not isinstance(value, str) or not value:  # Path("") would be the cwd
        raise ValueError(f"not a non-empty string: {value!r}")
    return value


def _listen_addr(value: object) -> str:
    host, sep, port = _text(value).rpartition(":")
    # isdigit alone passes digits such as "²" that int() rejects
    if not (sep and host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"not host:port: {value!r}")
    return value


def _master_key_hex(value: object) -> str:
    key = _text(value)
    if len(key) != 32 or not set(key) <= set(string.hexdigits):
        raise ValueError("must be exactly 32 hex characters")
    return key


def _max_sessions(value: object) -> int:
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)
    if type(value) is not int or value < 1:  # type(): a bool is an int
        raise ValueError(f"not an integer >= 1: {value!r}")
    return value


def _parse_bool(value: object) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("1", "true", "yes", "on"):
        return True
    if isinstance(value, str) and value.lower() in ("0", "false", "no", "off", ""):
        return False
    raise ValueError(f"not a boolean: {value!r}")


# one parser per GatewayConfig key: returns the value or raises ValueError
_PARSERS: dict[str, Callable[[object], object]] = {
    "registry_path": _text,
    "objects_dir": _text,
    "master_key_hex": _master_key_hex,
    "listen_addr": _listen_addr,
    "dh_group": _text,  # keyx.select_group judges it with allow_insecure_group
    "max_sessions": _max_sessions,
    "audit_log": _text,
    "allow_insecure_group": _parse_bool,
}


def _read_config_file(path: str) -> dict:
    """The JSON object in `path`, which may set only GatewayConfig keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config (from flag --config): {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path}: expected a JSON object")
    for key in values:
        if key not in _PARSERS:
            raise ConfigError(f"{key} (from config file): unknown key")
    return values


def load_config(
    argv: Optional[list[str]] = None, env: Optional[Mapping[str, str]] = None
) -> GatewayConfig:
    """Take each GatewayConfig key from its first source and parse it."""
    env = os.environ if env is None else env
    parser = argparse.ArgumentParser(prog="gateway", description=__doc__)
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    # each flag's dest is the GatewayConfig key it sets
    parser.add_argument("--listen", dest="listen_addr", help="host:port to listen on")
    parser.add_argument("--registry", dest="registry_path", help="customer registry file")
    parser.add_argument("--objects", dest="objects_dir", help="object store directory")
    parser.add_argument("--audit-log", help="audit log file (default gateway-audit.log)")
    # default None: an absent flag sets nothing, so env and file still count
    parser.add_argument("--allow-insecure-group", action="store_true", default=None,
                        help="permit the test-only DH group")
    args = parser.parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    absent = dataclasses.MISSING
    values, sources = {}, {}
    for field in dataclasses.fields(GatewayConfig):
        key = field.name
        env_name = _ENV_PREFIX + key.upper()
        flag = getattr(args, key, None)
        for source, raw in (
            ("flag", absent if flag is None else flag),
            (f"env {env_name}", env.get(env_name, absent)),
            ("config file", file_values.get(key, absent)),
            ("default", field.default),
        ):
            if raw is not absent:
                break
        else:
            raise ConfigError(f"{key}: missing (no flag, {env_name} or config file value)")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key} (from {source}): {exc}") from None
        sources[key] = source

    try:
        select_group(values["dh_group"], values["allow_insecure_group"])
    except ValueError as exc:
        raise ConfigError(f"dh_group (from {sources['dh_group']}): {exc}") from None
    return GatewayConfig(**values)


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
        self.group = select_group(config.dh_group, config.allow_insecure_group)
        self.config = config
        self.registry = load_registry(config.registry_path)
        self.store = ObjectStore(config.objects_dir)
        self.master_key = config.master_key()
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
    except (ParseError, DuplicateUser, OSError, ValueError) as exc:
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
