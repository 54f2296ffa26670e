"""The service-provider executable: configuration, audit log, and the TCP
server driving one protocol session per connection.

Each config key takes its value from its flag, else CSG_<KEY>, else the
JSON config file, else its default, and `_PARSERS` checks it. Exit codes: 0
after SIGINT/SIGTERM, 1 for a startup failure (registry, store, audit log,
bind), 2 for a config error. A built gateway exits through `shutdown`,
failed bind included, which closes the audit log and reports dropped lines.

Session threads share one interpreter lock. The gateway process (`run`, not
the `Gateway` class, which leaves it to an embedder) hands it over every
0.5 ms, so a small request is not held behind another session's cipher, at
some cost to that session's throughput. Every system call on a session
thread (a recv, a sendall, each file call of the object store) can still
cost one switch interval: the thread waits that long for the lock on its
return while another session's cipher holds it. The store keeps its calls
per small request few for that reason.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import string
import sys
import threading
import time
from pathlib import Path
from typing import BinaryIO, Callable, Mapping, NamedTuple, Optional

from .keyx import RFC3526_GROUP14
from .protocol import (
    Phase,
    ServerContext,
    SessionState,
    server_derive_keys,
    server_handle_frame,
)
from .vault import ObjectStore, load_registry
from .wire import (
    FrameError,
    Frame,
    MessageType,
    StreamEnded,
    TruncatedFrame,
    decode_frame,
    encode_str,
)

_ENV_PREFIX = "CSG_"
DRAIN_SECONDS = 5.0
# A thread back from a blocking call (recv, a file write, sendall) waits for
# the interpreter lock until the thread holding it, say one running another
# session's pure-Python cipher, has held it for the switch interval: the GIL
# "convoy effect" (bpo-7946). CPython's default is 5 ms.
SWITCH_INTERVAL_SECONDS = 0.0005
# Pause after a failed accept() (EMFILE, ENOBUFS, ...) before the next try,
# so a lasting failure does not spin. Its first failure is audited at once,
# the rest as one count when an accept next succeeds or the gateway stops.
ACCEPT_RETRY_SECONDS = 0.1


class ConfigError(Exception):
    """Invalid or missing configuration; message names the key and where
    the value came from."""


class GatewayConfig(NamedTuple):
    registry_path: str
    objects_dir: str
    master_key_hex: str
    listen_addr: str = "127.0.0.1:9443"
    dh_group: str = "rfc3526-14"
    max_sessions: int = 256
    audit_log: str = "gateway-audit.log"

    def master_key(self) -> bytes:
        return bytes.fromhex(self.master_key_hex)

    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen_addr.rpartition(":")
        return host, int(port)


def _text(value: object) -> str:
    # Path("") would be the cwd; open() and bind() refuse a NUL, and bind()
    # with a TypeError that no startup handler expects. A path must encode as
    # the OS will take it (os.fsencode): a surrogate-escaped byte is legal,
    # any other lone surrogate is not
    if not isinstance(value, str) or not value or "\x00" in value:
        raise ValueError(f"not a non-empty string without NUL: {value!r}")
    try:
        os.fsencode(value)
    except UnicodeEncodeError:
        raise ValueError(f"not a string the OS can encode: {value!r}") from None
    return value


def _listen_addr(value: object) -> str:
    host, sep, port = _text(value).rpartition(":")
    # isdigit alone passes digits such as "²" that int() rejects
    if not (sep and host and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise ValueError(f"not host:port: {value!r}")
    # the socket layer takes an ASCII host as it is and encodes any other
    # with idna, which imports re, stringprep and unicodedata: so only a
    # host that is not ASCII is encoded here
    if not host.isascii():
        try:
            host.encode("idna")
        except UnicodeError:
            raise ValueError(f"host the socket layer cannot encode: {value!r}") from None
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


def _dh_group(value: object) -> str:
    # selects nothing (the gateway runs RFC3526_GROUP14); the key stays so
    # that config files naming it still load
    default = GatewayConfig._field_defaults["dh_group"]
    if value != default:
        raise ValueError(f"only {default!r} is supported, not {value!r}")
    return value


# one parser per GatewayConfig key: returns the value or raises ValueError
_PARSERS: dict[str, Callable[[object], object]] = {
    "registry_path": _text,
    "objects_dir": _text,
    "master_key_hex": _master_key_hex,
    "listen_addr": _listen_addr,
    "dh_group": _dh_group,
    "max_sessions": _max_sessions,
    "audit_log": _text,
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
    args = parser.parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    absent = object()
    defaults = GatewayConfig._field_defaults
    values = {}
    for key in GatewayConfig._fields:
        env_name = _ENV_PREFIX + key.upper()
        flag = getattr(args, key, None)
        for source, raw in (
            ("flag", absent if flag is None else flag),
            (f"env {env_name}", env.get(env_name, absent)),
            ("config file", file_values.get(key, absent)),
            ("default", defaults.get(key, absent)),
        ):
            if raw is not absent:
                break
        else:
            raise ConfigError(f"{key}: missing (no flag, {env_name} or config file value)")
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{key} (from {source}): {exc}") from None
    return GatewayConfig(**values)


class AuditLog:
    """Append-only security event log: one line per event, formatted as
    `<utc-timestamp> <session-id> <event> [customer=<id>]`, CR/LF escaped.

    Never receives passwords, keys, nonces, or object plaintext; callers
    only hand it event labels. Write failures are counted, never raised;
    the first one is reported on stderr when it happens.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.dropped = 0
        self._lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, session_id: int, event: str, customer_id: Optional[str] = None) -> None:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        line = f"{stamp} {session_id} {event}"
        if customer_id is not None:
            line += f" customer={customer_id}"
        line = line.replace("\n", "\\n").replace("\r", "\\r")
        failure = None
        with self._lock:
            try:
                self._fh.write(line + "\n")
                self._fh.flush()
            except (OSError, ValueError) as exc:
                self.dropped += 1
                if self.dropped == 1:
                    failure = type(exc).__name__
        if failure:
            # the class name only, outside the lock: a stalled stderr must not
            # hold up every session's audit line
            print(
                f"gateway: audit log write failed ({failure}); "
                "later lines are dropped and counted",
                file=sys.stderr,
            )

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                self.dropped += 1


class Gateway:
    """Accepts connections and runs one server-side protocol session per
    connection; sessions share only the registry, the store, and the audit
    appender."""

    def __init__(self, config: GatewayConfig):
        self.group = RFC3526_GROUP14
        self.config = config
        self.registry = load_registry(config.registry_path)
        self.store = ObjectStore(config.objects_dir)
        self.master_key = config.master_key()
        self.audit = AuditLog(config.audit_log)
        if self.store.scan_skipped or self.store.scan_removed:
            # counts only: a file name can be an object name
            self.audit.append(
                0,
                f"store scan skipped={self.store.scan_skipped} "
                f"removed_temps={self.store.scan_removed}",
            )
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._sessions: dict[int, tuple[threading.Thread, socket.socket]] = {}
        self._sessions_lock = threading.Lock()
        self._next_session_id = 0
        self.bound_addr: Optional[tuple[str, int]] = None

    def start(self) -> tuple[str, int]:
        """Bind, print the readiness line, and start accepting."""
        self._listener = socket.create_server(self.config.host_port(), backlog=64)
        self.bound_addr = self._listener.getsockname()[:2]
        print(f"gateway listening on {self.bound_addr[0]}:{self.bound_addr[1]}", flush=True)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="gateway-accept", daemon=True
        )
        self._accept_thread.start()
        return self.bound_addr

    def _accept_loop(self) -> None:
        failing, repeats = None, 0  # the failure being counted, if any
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError as exc:
                if self._stopping.is_set():
                    break  # listener closed by shutdown()
                name = type(exc).__name__
                if name == failing:
                    repeats += 1
                else:
                    self._audit_repeats(failing, repeats)
                    self.audit.append(0, f"accept failed {name}")
                    failing, repeats = name, 0
                self._stopping.wait(ACCEPT_RETRY_SECONDS)
                continue
            self._audit_repeats(failing, repeats)
            failing, repeats = None, 0
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
                event = "refused at capacity"  # immediate reject, no queueing
            else:
                try:
                    thread.start()
                    continue
                except RuntimeError:  # the process cannot start another thread
                    with self._sessions_lock:
                        self._sessions.pop(session_id, None)
                    event = "refused thread start"
            self.audit.append(session_id, event)
            try:
                conn.close()
            except OSError:
                pass
        self._audit_repeats(failing, repeats)

    def _audit_repeats(self, failing: Optional[str], repeats: int) -> None:
        if repeats:
            self.audit.append(0, f"accept failed {failing} repeated {repeats}")

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
            while state.phase is not Phase.CLOSED and self._serve_frame(
                session_id, conn, stream, state, ctx
            ):
                # once the ServerHello is out, this pow runs beside the client's
                server_derive_keys(state, ctx.group)
        except OSError as exc:  # peer reset, or socket shut down during drain
            self.audit.append(session_id, f"connection lost {type(exc).__name__}")
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

    def _serve_frame(
        self, session_id: int, conn: socket.socket, stream: BinaryIO,
        state: SessionState, ctx: ServerContext,
    ) -> bool:
        """Read one frame and send the replies; False once the stream ends or
        breaks. The request and its replies die with this call, so a session
        waiting for its next frame holds neither."""
        try:
            msg_type, payload = decode_frame(stream)
        except StreamEnded:
            self.audit.append(session_id, "connection closed")
            return False
        except TruncatedFrame:
            self.audit.append(session_id, "frame error truncated")
            return False
        except FrameError as exc:
            self.audit.append(session_id, f"frame error {type(exc).__name__}")
            self._try_send(conn, Frame(MessageType.ERROR, encode_str("bad frame")))
            return False
        for frame in server_handle_frame(state, msg_type, payload, ctx):
            conn.sendall(frame.encode())
        return True

    @staticmethod
    def _try_send(conn: socket.socket, frame: Frame) -> None:
        try:
            conn.sendall(frame.encode())
        except OSError:
            pass

    def shutdown(self, drain_seconds: float = DRAIN_SECONDS) -> None:
        """Stop accepting, give active sessions `drain_seconds` to finish,
        then force-close the stragglers. Reports the count of audit lines
        that could not be written, if any, on stderr."""
        self._stopping.set()
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
        if self.audit.dropped:
            print(f"gateway: audit log dropped {self.audit.dropped} lines", file=sys.stderr)


def run(config: GatewayConfig) -> int:
    """Run the gateway until SIGINT/SIGTERM; returns the process exit code."""
    sys.setswitchinterval(SWITCH_INTERVAL_SECONDS)
    try:
        gateway = Gateway(config)
    except (OSError, ValueError) as exc:  # ParseError, DuplicateUser included
        print(f"gateway: startup failed: {exc}", file=sys.stderr)
        return 1
    try:
        gateway.start()
    except OSError as exc:
        print(f"gateway: cannot listen on {config.listen_addr}: {exc}", file=sys.stderr)
        gateway.shutdown(0)
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
