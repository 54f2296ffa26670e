"""Customer CLI tests: script mode end to end over a live gateway, exit
codes, and the pseudo-terminal check that passwords are prompted un-echoed
and never reach any output stream."""

from __future__ import annotations

import os
import pty
import select
import socket
import subprocess
import sys
import threading
import time

import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from conftest import make_certificate, provision_customer

VPNC = [sys.executable, "-m", "csg.vpnc"]


def run_script(
    tmp_path, handle, customer, lines, *, env_extra=None, name="script", command=VPNC
):
    script = tmp_path / f"{name}.txt"
    script.write_text("\n".join(lines) + "\n")
    env = dict(os.environ)
    env["CSG_TUNNEL_PASS"] = customer.tunnel_pass
    env["CSG_SERVICE_PASS"] = customer.service_pass
    env.update(env_extra or {})
    return subprocess.run(
        command + ["run", "--script", str(script)],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def connect_line(handle, customer) -> str:
    return f"connect --host {handle.host} --port {handle.port} --user {customer.tunnel_user}"


def login_line(customer) -> str:
    return f"login --path {customer.space_path} --user {customer.service_user}"


# --- script mode -------------------------------------------------------------

def test_script_full_session(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    source = tmp_path / "notes.txt"
    payload = os.urandom(3000)
    source.write_bytes(payload)
    out_file = tmp_path / "out.bin"
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            login_line(acme),
            f"put {source} notes",
            "ls",
            f"get notes {out_file}",
            "quit",
        ],
    )
    assert result.returncode == 0, result.stderr
    assert "tunnel established" in result.stdout
    assert "access granted" in result.stdout
    assert "notes" in result.stdout
    assert out_file.read_bytes() == payload


def test_script_wrong_tunnel_password_exits_2(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(
        tmp_path,
        handle,
        acme,
        [connect_line(handle, acme), "quit"],
        env_extra={"CSG_TUNNEL_PASS": "not-the-password"},
    )
    assert result.returncode == 2
    assert "auth failed" in result.stdout


def test_script_expired_certificate_exits_2_with_reason(gateway_factory, tmp_path):
    late = provision_customer(
        "late", certificate=make_certificate("late", expires_in=-5)
    )
    handle = gateway_factory([late])
    result = run_script(
        tmp_path, handle, late, [connect_line(handle, late), login_line(late), "quit"]
    )
    assert result.returncode == 2
    assert "certificate expired" in result.stdout


def test_script_unreachable_host_exits_3(tmp_path, gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    # port 1: nobody listens there
    result = run_script(
        tmp_path,
        handle,
        acme,
        [f"connect --host 127.0.0.1 --port 1 --user {acme.tunnel_user}", "quit"],
    )
    assert result.returncode == 3
    assert "cannot connect" in result.stdout


def test_script_peer_that_closes_at_once_exits_3(tmp_path):
    acme = provision_customer("acme")
    listener = socket.create_server(("127.0.0.1", 0))

    def close_at_once():
        conn, _ = listener.accept()
        conn.close()

    thread = threading.Thread(target=close_at_once)
    thread.start()
    host, port = listener.getsockname()
    try:
        result = run_script(
            tmp_path,
            None,
            acme,
            [f"connect --host {host} --port {port} --user {acme.tunnel_user}", "quit"],
        )
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout.startswith("connect failed: ")
    assert "Traceback" not in result.stderr + result.stdout


def test_script_login_before_connect_is_usage_error(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(tmp_path, handle, acme, [login_line(acme), "quit"])
    assert result.returncode == 4
    assert "no tunnel" in result.stderr


def test_script_get_missing_continues(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            login_line(acme),
            f"get missing {tmp_path / 'x'}",
            "ls",
            "quit",
        ],
    )
    assert result.returncode == 0
    assert "no such object" in result.stdout


def test_script_local_file_trouble_is_reported_and_session_goes_on(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    source = tmp_path / "f.txt"
    source.write_bytes(b"data")
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            login_line(acme),
            f"put {tmp_path / 'absent'} a",
            f"put {tmp_path}/nul\x00path b",  # open() raises ValueError, not OSError
            f"put {source} notes",
            f"get notes {tmp_path}/nul\x00path",
            "ls",
            "quit",
        ],
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[2].startswith(f"cannot read {tmp_path / 'absent'}: ")
    assert lines[3].startswith(f"cannot read {tmp_path}/nul\x00path: ")
    assert lines[4] == "stored notes"
    assert lines[5].startswith(f"cannot write {tmp_path}/nul\x00path: ")
    assert lines[6:] == ["notes"]
    assert result.stderr == ""


def test_script_put_before_login_reports_and_continues(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    source = tmp_path / "f.txt"
    source.write_bytes(b"data")
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            f"put {source} early",  # before login: refused, session stays up
            login_line(acme),
            f"put {source} ontime",
            "quit",
        ],
    )
    assert result.returncode == 0, result.stderr
    assert "put: not allowed in this session state" in result.stdout
    assert "stored ontime" in result.stdout


def test_script_over_quota_put_is_refused_and_session_goes_on(gateway_factory, tmp_path):
    tiny = provision_customer("tiny", quota_bytes=1000)
    handle = gateway_factory([tiny])
    big, small = tmp_path / "big.bin", tmp_path / "small.txt"
    big.write_bytes(bytes(2000))
    small.write_bytes(b"fits")
    result = run_script(
        tmp_path,
        handle,
        tiny,
        [
            connect_line(handle, tiny),
            login_line(tiny),
            f"put {big} big",
            f"put {small} small",
            f"get small {tmp_path / 'out.txt'}",
            "quit",
        ],
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2:] == [
        "quota exceeded", "stored small", "retrieved small (4 bytes)",
    ]
    assert (tmp_path / "out.txt").read_bytes() == b"fits"


@pytest.mark.skipif(
    resource is None or not os.path.exists("/dev/zero"), reason="needs RLIMIT_AS and /dev/zero"
)
def test_script_put_of_an_endless_file_is_refused_and_session_goes_on(gateway_factory, tmp_path):
    # put reads one byte more than a frame holds, then refuses the object;
    # read whole, /dev/zero would exhaust the address-space cap, which is
    # set in the vpnc process alone, before csg loads
    capped_vpnc = [
        sys.executable,
        "-c",
        "import resource, runpy\n"
        "resource.setrlimit(resource.RLIMIT_AS, (400_000_000, 400_000_000))\n"
        "runpy.run_module('csg.vpnc', run_name='__main__', alter_sys=True)",
    ]
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    source = tmp_path / "notes.txt"
    source.write_bytes(b"notes")
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            login_line(acme),
            f"put {source} notes",
            "put /dev/zero big",
            "ls",
        ],
        command=capped_vpnc,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[2:] == [
        "stored notes", "object too large for one frame", "notes",
    ]
    assert "Traceback" not in result.stderr + result.stdout


def test_script_overlong_name_is_refused_and_session_goes_on(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    source = tmp_path / "notes.txt"
    source.write_bytes(b"notes")
    result = run_script(
        tmp_path,
        handle,
        acme,
        [
            connect_line(handle, acme),
            login_line(acme),
            f"put {source} {'n' * 65536}",
            f"put {source} short",
            "quit",
        ],
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("object name longer than 65535 UTF-8 bytes") == 1
    assert "stored short" in result.stdout
    assert "Traceback" not in result.stderr + result.stdout


@pytest.mark.parametrize("flag", ["--path", "--user"])
def test_script_overlong_login_field_is_refused_and_login_goes_on(
    gateway_factory, tmp_path, flag
):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    values = {"--path": acme.space_path, "--user": acme.service_user, flag: "p" * 70000}
    overlong_login = "login " + " ".join(f"{k} {v}" for k, v in values.items())
    result = run_script(
        tmp_path,
        handle,
        acme,
        [connect_line(handle, acme), overlong_login, login_line(acme), "ls", "quit"],
    )
    assert result.returncode == 0, result.stderr
    assert f"{flag[2:]} longer than 65535 UTF-8 bytes" in result.stdout
    assert "access granted" in result.stdout
    assert "Traceback" not in result.stderr + result.stdout


def test_script_overlong_connect_user_is_refused_and_connect_goes_on(
    gateway_factory, tmp_path
):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    overlong_connect = f"connect --host {handle.host} --port {handle.port} --user {'u' * 70000}"
    result = run_script(
        tmp_path,
        handle,
        acme,
        # a half-open session left by the refusal would make the second
        # connect a usage error ("already connected")
        [overlong_connect, connect_line(handle, acme), login_line(acme), "quit"],
    )
    assert result.returncode == 0, result.stderr
    assert "user longer than 65535 UTF-8 bytes" in result.stdout
    assert "tunnel established" in result.stdout
    assert "access granted" in result.stdout
    assert "Traceback" not in result.stderr + result.stdout


@pytest.mark.parametrize(
    "password, refusal",
    [
        ("p" * 70000, "password longer than 65535 UTF-8 bytes"),
        # the byte 0xff in the environment decodes to "\udcff"
        ("pass\udcff", "password is not valid UTF-8"),
    ],
    ids=["overlong", "not-utf8"],
)
def test_script_unsendable_tunnel_password_is_refused_before_the_hello(
    gateway_factory, tmp_path, password, refusal
):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(
        tmp_path,
        handle,
        acme,
        [connect_line(handle, acme), login_line(acme), "quit"],
        env_extra={"CSG_TUNNEL_PASS": password},
    )
    # the refused connect leaves no session, so the login has no tunnel
    assert result.returncode == 4, result.stderr
    assert result.stdout.splitlines() == [refusal]
    assert result.stderr == "vpnc: login: no tunnel (run connect first)\n"
    assert "Traceback" not in result.stderr + result.stdout


def test_script_double_login_reports_and_continues(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(
        tmp_path,
        handle,
        acme,
        [connect_line(handle, acme), login_line(acme), login_line(acme), "ls", "quit"],
    )
    assert result.returncode == 0, result.stderr
    assert "login: not allowed in this session state" in result.stdout


def test_script_missing_password_env_is_usage_error(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    script = tmp_path / "script.txt"
    script.write_text(connect_line(handle, acme) + "\nquit\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("CSG_")}
    result = subprocess.run(
        VPNC + ["run", "--script", str(script)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 4
    assert "CSG_TUNNEL_PASS" in result.stderr


def test_group_flags_are_usage_errors(tmp_path):
    # vpnc has no way to pick a DH group: the gateway runs only one
    script = tmp_path / "script.txt"
    script.write_text("quit\n")
    result = subprocess.run(
        VPNC + ["run", "--script", str(script), "--group", "test-small",
                "--allow-insecure-group"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4
    assert "unrecognized arguments: --group test-small --allow-insecure-group" in result.stderr
    assert "Traceback" not in result.stderr + result.stdout


def test_usage_error_on_bad_argv():
    result = subprocess.run(
        VPNC + ["connect", "--host-only-nonsense"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4


def test_script_that_is_not_utf8_is_a_usage_error(tmp_path):
    script = tmp_path / "script.txt"
    script.write_bytes(b"quit\xff\n")
    result = subprocess.run(
        VPNC + ["run", "--script", str(script)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("vpnc: cannot read script: ")
    assert "0xff" in line


def test_script_unclosed_quote_is_usage_error(gateway_factory, tmp_path):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    result = run_script(
        tmp_path,
        handle,
        acme,
        [connect_line(handle, acme), login_line(acme), 'put "unclosed', "quit"],
    )
    assert result.returncode == 4, result.stderr
    assert "vpnc:" in result.stderr
    assert "Traceback" not in result.stderr + result.stdout


def test_interactive_unclosed_quote_reports_and_continues(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    # without a controlling terminal getpass reads the password from stdin
    result = subprocess.run(
        VPNC + ["connect", "--host", handle.host, "--port", str(handle.port),
                "--user", acme.tunnel_user],
        input=f'{acme.tunnel_pass}\nput "unclosed\nquit\n',
        capture_output=True, text=True, timeout=60, start_new_session=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "usage: cannot parse" in result.stdout
    assert "Traceback" not in result.stderr + result.stdout


@pytest.mark.parametrize(
    "connected, line, message",
    [
        (False, "connect --host 127.0.0.1 --port 1 --user u --mode x",
         "connect: unexpected argument '--mode'"),
        (False, "connect --host 127.0.0.1 --port 1 --user", "connect: --user needs a value"),
        (False, "connect --host 127.0.0.1 --port 1", "connect: --user is required"),
        (False, "mount /space", "unknown command 'mount'"),
        (True, "{connect}", "connect: already connected"),
        (True, "put notes", "put: usage: put <local-file> <name>"),
        (True, "get notes", "get: usage: get <name> <local-file>"),
        (True, "ls x", "ls: takes no arguments"),
    ],
    ids=["unknown-flag", "flag-without-value", "missing-flag", "unknown-command",
         "connect-while-connected", "put-one-argument", "get-one-argument", "ls-argument"],
)
def test_script_bad_command_is_usage_error(gateway_factory, tmp_path, connected, line, message):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    connect = connect_line(handle, acme)
    lines = ([connect] if connected else []) + [line.format(connect=connect), "quit"]
    result = run_script(tmp_path, handle, acme, lines)
    assert result.returncode == 4, result.stdout + result.stderr
    assert result.stderr == f"vpnc: {message}\n"
    assert "Traceback" not in result.stdout


@pytest.mark.parametrize("port", ["70000", "0"])
def test_script_port_out_of_range_is_usage_error(tmp_path, port):
    acme = provision_customer("acme")
    result = run_script(
        tmp_path,
        None,
        acme,
        [f"connect --host 127.0.0.1 --port {port} --user {acme.tunnel_user}", "quit"],
    )
    assert result.returncode == 4, result.stdout
    assert f"bad port '{port}'" in result.stderr


@pytest.mark.parametrize("port", ["70000", "0"])
def test_argv_port_out_of_range_is_usage_error(port):
    result = subprocess.run(
        VPNC + ["connect", "--host", "127.0.0.1", "--port", port, "--user", "u"],
        input="password\n",
        capture_output=True, text=True, timeout=60, start_new_session=True,
    )
    assert result.returncode == 4, result.stdout + result.stderr
    assert f"bad port '{port}'" in result.stderr


# --- interactive mode over a pseudo-terminal ----------------------------------

def _pty_session(argv: list[str], steps: list[tuple[bytes, bytes]], timeout=30.0, env=None):
    """Spawn argv on a fresh pty, with `env` added to the environment; for
    each (wait_for, to_send) step, read until the marker appears, then
    write. Returns (all output, exit code)."""
    child_env = {**os.environ, **(env or {})}
    pid, master = pty.fork()
    if pid == 0:  # child
        os.execve(sys.executable, argv, child_env)
    output = b""
    try:
        for marker, to_send in steps:
            deadline = time.time() + timeout
            while marker not in output:
                remaining = deadline - time.time()
                assert remaining > 0, f"timed out waiting for {marker!r}; got {output!r}"
                ready, _, _ = select.select([master], [], [], remaining)
                if not ready:
                    continue
                try:
                    chunk = os.read(master, 4096)
                except OSError:
                    break
                if not chunk:
                    break
                output += chunk
            if to_send:
                os.write(master, to_send)
        # drain until EOF
        deadline = time.time() + timeout
        while time.time() < deadline:
            ready, _, _ = select.select([master], [], [], 0.2)
            if not ready:
                if os.waitpid(pid, os.WNOHANG) != (0, 0):
                    break
                continue
            try:
                chunk = os.read(master, 4096)
            except OSError:
                break
            if not chunk:
                break
            output += chunk
    finally:
        os.close(master)
        _, status = os.waitpid(pid, 0)
    return output, os.waitstatus_to_exitcode(status)


@pytest.mark.skipif(not hasattr(pty, "fork"), reason="needs a pty")
def test_interactive_passwords_never_echoed(gateway_factory, tmp_path):
    tunnel_pw = "tunnel-PW-3f9c1b7a2d"
    service_pw = "service-PW-8e4d0c6b5f"
    acme = provision_customer("acme", tunnel_pass=tunnel_pw, service_pass=service_pw)
    handle = gateway_factory([acme])
    argv = [
        sys.executable, "-m", "csg.vpnc", "connect",
        "--host", handle.host, "--port", str(handle.port),
        "--user", acme.tunnel_user,
    ]
    steps = [
        (b"tunnel password:", tunnel_pw.encode() + b"\n"),
        (b"tunnel established", f"login --path {acme.space_path} --user {acme.service_user}\n".encode()),
        (b"service password:", service_pw.encode() + b"\n"),
        (b"access granted", b"ls\n"),
        (b"vpnc>", b"quit\n"),
    ]
    output, exit_code = _pty_session(argv, steps)
    assert exit_code == 0, output
    text = output.decode(errors="replace")
    assert "tunnel established" in text
    assert "access granted" in text
    # the tty echoes commands we typed, but getpass suppressed both secrets
    assert tunnel_pw not in text
    assert service_pw not in text


@pytest.mark.skipif(not hasattr(pty, "fork"), reason="needs a pty")
def test_interactive_wrong_password_exit_2(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    argv = [
        sys.executable, "-m", "csg.vpnc", "connect",
        "--host", handle.host, "--port", str(handle.port),
        "--user", acme.tunnel_user,
    ]
    output, exit_code = _pty_session(argv, [(b"tunnel password:", b"wrong\n")])
    assert exit_code == 2
    assert b"auth failed" in output


# a UTF-8 locale in which stdin decodes strictly, as a user's terminal often
# does: there a byte that is not UTF-8 makes readline and getpass raise
_STRICT_UTF8 = {"LANG": "C.UTF-8", "LC_ALL": "C.UTF-8", "PYTHONIOENCODING": "utf-8:strict"}


@pytest.mark.skipif(not hasattr(pty, "fork"), reason="needs a pty")
def test_interactive_non_utf8_command_is_refused_and_session_goes_on(gateway_factory):
    acme = provision_customer("acme")
    handle = gateway_factory([acme])
    argv = [
        sys.executable, "-m", "csg.vpnc", "connect",
        "--host", handle.host, "--port", str(handle.port),
        "--user", acme.tunnel_user,
    ]
    steps = [
        (b"tunnel password:", acme.tunnel_pass.encode() + b"\n"),
        (b"tunnel established", b"get \xff out\n"),
        (b"object name is not valid UTF-8", b"ls\n"),
        (b"ls: not allowed", b"quit\n"),
    ]
    output, exit_code = _pty_session(argv, steps, env=_STRICT_UTF8)
    assert exit_code == 0, output
    assert b"Traceback" not in output


@pytest.mark.skipif(not hasattr(pty, "fork"), reason="needs a pty")
def test_interactive_non_utf8_password_is_a_usage_error():
    argv = [sys.executable, "-m", "csg.vpnc", "connect", "--host", "127.0.0.1",
            "--port", "9", "--user", "u"]
    output, exit_code = _pty_session(argv, [(b"tunnel password:", b"t\xffpw\n")], env=_STRICT_UTF8)
    text = output.decode(errors="replace")
    assert exit_code == 4, text
    assert "Traceback" not in text
    assert text.strip().splitlines() == [
        "tunnel password: vpnc: tunnel password cannot be decoded as utf-8"
    ]


@pytest.mark.skipif(not hasattr(pty, "openpty"), reason="needs a pty")
def test_interactive_eof_at_password_prompt_exit_4():
    # a new session has no controlling terminal, so getpass prompts on the
    # pty given as stdin/stderr instead of on the terminal running the tests
    master, slave = pty.openpty()
    proc = subprocess.Popen(
        VPNC + ["connect", "--host", "127.0.0.1", "--port", "9", "--user", "u"],
        stdin=slave, stdout=slave, stderr=slave, start_new_session=True,
    )
    os.close(slave)
    output = b""
    try:
        deadline = time.time() + 30
        sent = False
        while time.time() < deadline:
            ready, _, _ = select.select([master], [], [], 0.2)
            if ready:
                try:
                    chunk = os.read(master, 4096)
                except OSError:
                    break  # the child exited and closed the pty
                if not chunk:
                    break
                output += chunk
            if not sent and b"tunnel password:" in output:
                os.write(master, b"\x04")  # Ctrl-D on an empty line
                sent = True
        exit_code = proc.wait(timeout=30)
    finally:
        os.close(master)
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    text = output.decode(errors="replace")
    assert exit_code == 4, text
    assert "Traceback" not in text
    assert text.strip().splitlines() == ["tunnel password: vpnc: no tunnel password given"]
