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
protocol or network failure, 4 usage error. `_Console.execute` is the one
place that maps client errors to these outcomes; a refused command or one
sent in the wrong session state is reported and the session goes on.
"""

from __future__ import annotations

import argparse
import getpass
import os
import shlex
import sys
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .client import AuthRefused, ClientError, ClientSession, CommandRefused, ProtocolFailure
from .protocol import ProtocolOrderError
from .wire import MAX_FRAME_LEN

EXIT_OK = 0
EXIT_AUTH = 2
EXIT_PROTOCOL = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    pass


def _parse_kv_args(words: list[str], keys: tuple[str, ...], command: str) -> dict[str, str]:
    """Parse `--key value` pairs; each of `keys` is required."""
    values: dict[str, str] = {}
    i = 0
    while i < len(words):
        word = words[i]
        if not word.startswith("--") or word[2:] not in keys:
            raise _UsageError(f"{command}: unexpected argument {word!r}")
        if i + 1 >= len(words):
            raise _UsageError(f"{command}: {word} needs a value")
        values[word[2:]] = words[i + 1]
        i += 2
    for key in keys:
        if key not in values:
            raise _UsageError(f"{command}: --{key} is required")
    return values


def _split(line: str) -> list[str]:
    try:
        return shlex.split(line, comments=True)
    except ValueError as exc:  # an unclosed quote or a trailing backslash
        raise _UsageError(f"cannot parse line: {exc}") from None


class _Console:
    """Runs commands for both the interactive REPL and script mode.

    Each handler in `_COMMANDS` holds only its happy path and its local-file
    errors; `execute` is the one place that maps client errors to outcomes,
    and `run` the one loop that splits lines.
    """

    def __init__(self, read_secret: Callable[[str, str], str]):
        self.read_secret = read_secret
        self.session: Optional[ClientSession] = None

    def say(self, text: str) -> None:
        print(text, flush=True)

    def run(self, lines: Iterable[str], stop_on_usage: bool) -> int:
        """Execute each line; a usage error exits 4 when `stop_on_usage`,
        else it is reported and the loop goes on. The end of the lines
        behaves like quit."""
        for line in lines:
            try:
                words = _split(line)
                code = self.execute(words) if words else None
            except _UsageError as exc:
                if stop_on_usage:
                    print(f"vpnc: {exc}", file=sys.stderr)
                    return EXIT_USAGE
                self.say(f"usage: {exc}")
                continue
            if code is not None:
                return code
        return EXIT_OK

    def execute(self, words: list[str]) -> Optional[int]:
        """Run one command; returns an exit code to stop with, or None to
        keep going."""
        command, args = words[0], words[1:]
        handler = _COMMANDS.get(command)
        if handler is None:
            raise _UsageError(f"unknown command {command!r}")
        if self.session is None and command not in ("connect", "quit"):
            raise _UsageError(f"{command}: no tunnel (run connect first)")
        try:
            return handler(self, args)
        except ProtocolOrderError:
            # e.g. login twice, or put before login: the session stays up
            self.say(f"{command}: not allowed in this session state")
        except CommandRefused as exc:
            self.say(str(exc))
        except AuthRefused as exc:
            self.say(str(exc))  # the server's specific reason, verbatim
            return EXIT_AUTH
        except (ProtocolFailure, OSError) as exc:
            self.say(f"{command} failed: {exc}")
            return EXIT_PROTOCOL
        return None

    def _connect(self, args: list[str]) -> Optional[int]:
        if self.session is not None:
            raise _UsageError("connect: already connected")
        kv = _parse_kv_args(args, ("host", "port", "user"), "connect")
        host, port = kv["host"], kv["port"]
        if not port.isdecimal() or not 1 <= int(port) <= 65535:
            raise _UsageError(f"connect: bad port {port!r} (expected 1-65535)")
        password = self.read_secret("tunnel", "tunnel password: ")
        try:
            self.session = ClientSession(host, int(port))
        except OSError as exc:
            self.say(f"cannot connect to {host}:{port}: {exc}")
            return EXIT_PROTOCOL
        try:
            self.session.connect_tunnel(kv["user"], password)
        except ClientError:
            self.close()  # a failed connect leaves no half-open session behind
            raise
        self.say("tunnel established")
        return None

    def _login(self, args: list[str]) -> None:
        kv = _parse_kv_args(args, ("path", "user"), "login")
        password = self.read_secret("service", "service password: ")
        self.session.login(kv["path"], kv["user"], password)
        self.say("access granted")

    def _put(self, args: list[str]) -> None:
        if len(args) != 2:
            raise _UsageError("put: usage: put <local-file> <name>")
        local, name = args
        try:
            # one byte more than a frame holds is enough for the put to be
            # refused, and bounds the read of an endless file (/dev/zero)
            with open(local, "rb") as fh:
                data = fh.read(MAX_FRAME_LEN + 1)
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            self.say(f"cannot read {local}: {exc}")
            return  # local trouble does not end the session
        self.session.put(name, data)
        self.say(f"stored {name}")

    def _get(self, args: list[str]) -> None:
        if len(args) != 2:
            raise _UsageError("get: usage: get <name> <local-file>")
        name, local = args
        data = self.session.get(name)
        try:
            with open(local, "wb") as fh:
                fh.write(data)
        except (OSError, ValueError) as exc:
            self.say(f"cannot write {local}: {exc}")
            return
        self.say(f"retrieved {name} ({len(data)} bytes)")

    def _ls(self, args: list[str]) -> None:
        if args:
            raise _UsageError("ls: takes no arguments")
        for name in self.session.list_names():
            self.say(name)

    def _quit(self, args: list[str]) -> int:
        self.close()
        return EXIT_OK

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


_COMMANDS: dict[str, Callable[[_Console, list[str]], Optional[int]]] = {
    "connect": _Console._connect,
    "login": _Console._login,
    "put": _Console._put,
    "get": _Console._get,
    "ls": _Console._ls,
    "quit": _Console._quit,
}


def _prompt_secret(kind: str, prompt: str) -> str:
    try:
        return getpass.getpass(prompt)
    except EOFError:  # Ctrl-D at the prompt
        raise _UsageError(f"no {kind} password given") from None
    except UnicodeDecodeError as exc:  # the terminal is read in the locale's codec, strictly
        raise _UsageError(f"{kind} password cannot be decoded as {exc.encoding}") from None


def _env_secret(env: dict) -> Callable[[str, str], str]:
    names = {"tunnel": "CSG_TUNNEL_PASS", "service": "CSG_SERVICE_PASS"}

    def read(kind: str, _prompt: str) -> str:
        name = names[kind]
        if name not in env:
            raise _UsageError(f"script mode needs {name} in the environment")
        return env[name]

    return read


def _prompted_lines(stdin: TextIO) -> Iterator[str]:
    while True:
        if stdin.isatty():
            print("vpnc> ", end="", flush=True)
        line = stdin.readline()
        if not line:
            return
        yield line


def _run_interactive(args, stdin: TextIO) -> int:
    # a byte that is not UTF-8 becomes a lone surrogate, as in argv and the
    # environment, and the client refuses the field; in a UTF-8 locale
    # stdin would otherwise decode strictly and readline would raise
    stdin.reconfigure(errors="surrogateescape")
    console = _Console(_prompt_secret)
    connect = ["connect", "--host", args.host, "--port", args.port, "--user", args.user]
    try:
        code = console.run([shlex.join(connect)], stop_on_usage=True)
        if code == EXIT_OK:
            code = console.run(_prompted_lines(stdin), stop_on_usage=False)
        return code
    finally:
        console.close()


def _run_script(args, env: dict) -> int:
    try:
        with open(args.script, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"vpnc: cannot read script: {exc}", file=sys.stderr)
        return EXIT_USAGE
    console = _Console(_env_secret(env))
    try:
        return console.run(lines, stop_on_usage=True)
    finally:
        console.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="vpnc", description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)

    connect = sub.add_parser("connect", help="open a tunnel, then an interactive session")
    connect.add_argument("--host", required=True)
    connect.add_argument("--port", required=True, help="TCP port, 1-65535")
    connect.add_argument("--user", required=True, help="tunnel user name")

    run_parser = sub.add_parser("run", help="execute a command script (for CI)")
    run_parser.add_argument("--script", required=True)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    if args.mode == "connect":
        return _run_interactive(args, sys.stdin)
    return _run_script(args, dict(os.environ))


if __name__ == "__main__":
    sys.exit(main())
