"""Customer CLI: connect the encrypted tunnel, log into the service, and
work the private space.

Interactive flow (passwords prompted, never taken from argv):

    vpnc connect --host HOST --port PORT --user TUNNEL_USER
    vpnc> login --path /space/X --user SERVICE_USER
    vpnc> put LOCAL_FILE NAME
    vpnc> get NAME LOCAL_FILE
    vpnc> ls
    vpnc> quit

Script mode for CI runs the same commands from a file; there, and only
there, passwords come from CSG_TUNNEL_PASS / CSG_SERVICE_PASS:

    vpnc run --script FILE

Exit codes: 0 success, 2 authentication/certificate rejection, 3
protocol or network failure, 4 usage error.
"""

from __future__ import annotations

import argparse
import getpass
import os
import shlex
import sys
from typing import Callable, Optional, TextIO

from .client import AuthRefused, ClientSession, CommandRefused, ProtocolFailure
from .keyx import GROUPS, INSECURE_GROUPS
from .protocol import ProtocolOrderError

EXIT_OK = 0
EXIT_AUTH = 2
EXIT_PROTOCOL = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


def _parse_kv_args(words: list[str], known: dict[str, bool], command: str) -> dict[str, str]:
    """Parse `--key value` pairs; `known` maps key name to required-ness."""
    values: dict[str, str] = {}
    i = 0
    while i < len(words):
        word = words[i]
        if not word.startswith("--") or word[2:] not in known:
            raise _UsageError(f"{command}: unexpected argument {word!r}")
        if i + 1 >= len(words):
            raise _UsageError(f"{command}: {word} needs a value")
        values[word[2:]] = words[i + 1]
        i += 2
    for key, required in known.items():
        if required and key not in values:
            raise _UsageError(f"{command}: --{key} is required")
    return values


class _Console:
    """Command loop shared by the interactive REPL and script mode."""

    def __init__(
        self,
        group_name: str,
        read_secret: Callable[[str, str], str],
        out: TextIO = sys.stdout,
    ):
        self.group = GROUPS[group_name]
        self.read_secret = read_secret
        self.out = out
        self.session: Optional[ClientSession] = None

    def say(self, text: str) -> None:
        print(text, file=self.out, flush=True)

    def connect(self, host: str, port: int, user: str) -> Optional[int]:
        password = self.read_secret("tunnel", "tunnel password: ")
        try:
            session = ClientSession(host, port, group=self.group)
        except OSError as exc:
            self.say(f"cannot connect to {host}:{port}: {exc}")
            return EXIT_PROTOCOL
        try:
            session.connect_tunnel(user, password)
        except AuthRefused as exc:
            self.say(str(exc))
            session.close()
            return EXIT_AUTH
        except (ProtocolFailure, OSError) as exc:
            self.say(f"handshake failed: {exc}")
            session.close()
            return EXIT_PROTOCOL
        self.session = session
        self.say("tunnel established")
        return None

    def execute(self, words: list[str]) -> Optional[int]:
        """Run one command; returns an exit code to stop with, or None to
        keep going."""
        try:
            return self._execute(words)
        except ProtocolOrderError:
            # e.g. login twice, or put before login: report and keep the
            # session alive
            self.say(f"{words[0]}: not allowed in this session state")
            return None

    def _execute(self, words: list[str]) -> Optional[int]:
        command, args = words[0], words[1:]
        if command == "quit":
            if self.session is not None:
                self.session.close()
            return EXIT_OK
        if command == "connect":
            if self.session is not None:
                raise _UsageError("connect: already connected")
            kv = _parse_kv_args(
                args, {"host": True, "port": True, "user": True}, "connect"
            )
            if not kv["port"].isdigit():
                raise _UsageError(f"connect: bad port {kv['port']!r}")
            return self.connect(kv["host"], int(kv["port"]), kv["user"])
        if self.session is None:
            raise _UsageError(f"{command}: no tunnel (run connect first)")
        if command == "login":
            kv = _parse_kv_args(args, {"path": True, "user": True}, "login")
            password = self.read_secret("service", "service password: ")
            try:
                self.session.login(kv["path"], kv["user"], password)
            except AuthRefused as exc:
                self.say(str(exc))  # the server's specific reason, verbatim
                return EXIT_AUTH
            except (ProtocolFailure, OSError) as exc:
                self.say(f"login failed: {exc}")
                return EXIT_PROTOCOL
            self.say("access granted")
            return None
        if command == "put":
            if len(args) != 2:
                raise _UsageError("put: usage: put <local-file> <name>")
            local, name = args
            try:
                with open(local, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                self.say(f"cannot read {local}: {exc}")
                return None  # local trouble does not end the session
            return self._space_op(lambda: self.session.put(name, data), f"stored {name}")
        if command == "get":
            if len(args) != 2:
                raise _UsageError("get: usage: get <name> <local-file>")
            name, local = args
            try:
                data = self.session.get(name)
            except CommandRefused as exc:
                self.say(str(exc))
                return None
            except (ProtocolFailure, OSError) as exc:
                self.say(f"get failed: {exc}")
                return EXIT_PROTOCOL
            try:
                with open(local, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                self.say(f"cannot write {local}: {exc}")
                return None
            self.say(f"retrieved {name} ({len(data)} bytes)")
            return None
        if command == "ls":
            if args:
                raise _UsageError("ls: takes no arguments")
            try:
                for name in self.session.list_names():
                    self.say(name)
            except (ProtocolFailure, OSError) as exc:
                self.say(f"ls failed: {exc}")
                return EXIT_PROTOCOL
            return None
        raise _UsageError(f"unknown command {command!r}")

    def _space_op(self, op: Callable[[], None], success: str) -> Optional[int]:
        try:
            op()
        except CommandRefused as exc:
            self.say(str(exc))
            return None
        except (ProtocolFailure, OSError) as exc:
            self.say(f"command failed: {exc}")
            return EXIT_PROTOCOL
        self.say(success)
        return None

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def _prompt_secret(kind: str, prompt: str) -> str:
    try:
        return getpass.getpass(prompt)
    except EOFError:  # Ctrl-D at the prompt
        raise _UsageError(f"no {kind} password given") from None


def _env_secret(env: dict) -> Callable[[str, str], str]:
    names = {"tunnel": "CSG_TUNNEL_PASS", "service": "CSG_SERVICE_PASS"}

    def read(kind: str, _prompt: str) -> str:
        name = names[kind]
        if name not in env:
            raise _UsageError(f"script mode needs {name} in the environment")
        return env[name]

    return read


def _check_group(name: str, allow_insecure: bool) -> None:
    if name not in GROUPS:
        raise _UsageError(f"unknown DH group {name!r}, expected one of {sorted(GROUPS)}")
    if name in INSECURE_GROUPS and not allow_insecure:
        raise _UsageError(f"group {name!r} is test-only; pass --allow-insecure-group")


def _run_interactive(args, stdin: TextIO) -> int:
    console = _Console(args.group, _prompt_secret)
    try:
        code = console.connect(args.host, args.port, args.user)
    except _UsageError as exc:
        print(f"vpnc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if code is not None:
        return code
    try:
        while True:
            if stdin.isatty():
                print("vpnc> ", end="", flush=True)
            line = stdin.readline()
            if not line:  # EOF behaves like quit
                console.close()
                return EXIT_OK
            words = shlex.split(line, comments=True)
            if not words:
                continue
            try:
                code = console.execute(words)
            except _UsageError as exc:
                console.say(f"usage: {exc}")
                continue
            if code is not None:
                return code
    finally:
        console.close()


def _run_script(args, env: dict) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"vpnc: cannot read script: {exc}", file=sys.stderr)
        return EXIT_USAGE
    console = _Console(args.group, _env_secret(env))
    try:
        for line in lines:
            words = shlex.split(line, comments=True)
            if not words:
                continue
            try:
                code = console.execute(words)
            except _UsageError as exc:
                print(f"vpnc: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if code is not None:
                return code
        return EXIT_OK
    finally:
        console.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="vpnc", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    connect = sub.add_parser("connect", help="open a tunnel, then an interactive session")
    connect.add_argument("--host", required=True)
    connect.add_argument("--port", required=True, type=int)
    connect.add_argument("--user", required=True, help="tunnel user name")
    connect.add_argument("--group", default="rfc3526-14")
    connect.add_argument("--allow-insecure-group", action="store_true")

    run_parser = sub.add_parser("run", help="execute a command script (for CI)")
    run_parser.add_argument("--script", required=True)
    run_parser.add_argument("--group", default="rfc3526-14")
    run_parser.add_argument("--allow-insecure-group", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        _check_group(args.group, args.allow_insecure_group)
    except _UsageError as exc:
        print(f"vpnc: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.mode == "connect":
        return _run_interactive(args, sys.stdin)
    return _run_script(args, dict(os.environ))


if __name__ == "__main__":
    sys.exit(main())
