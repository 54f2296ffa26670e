"""Customer CLI tests: script mode end to end over a live gateway, exit
codes, and the pseudo-terminal check that passwords are prompted un-echoed
and never reach any output stream."""

from __future__ import annotations

import os
import pty
import select
import subprocess
import sys
import time

import pytest

from conftest import make_certificate, provision_customer

VPNC = [sys.executable, "-m", "csg.vpnc"]


def run_script(tmp_path, handle, customer, lines, *, env_extra=None, name="script"):
    script = tmp_path / f"{name}.txt"
    script.write_text("\n".join(lines) + "\n")
    env = dict(os.environ)
    env["CSG_TUNNEL_PASS"] = customer.tunnel_pass
    env["CSG_SERVICE_PASS"] = customer.service_pass
    env.update(env_extra or {})
    return subprocess.run(
        VPNC + ["run", "--script", str(script), "--group", "test-small",
                "--allow-insecure-group"],
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
        VPNC + ["run", "--script", str(script), "--group", "test-small",
                "--allow-insecure-group"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 4
    assert "CSG_TUNNEL_PASS" in result.stderr


def test_insecure_group_needs_flag(tmp_path):
    script = tmp_path / "script.txt"
    script.write_text("quit\n")
    result = subprocess.run(
        VPNC + ["run", "--script", str(script), "--group", "test-small"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4
    assert "test-only" in result.stderr


def test_usage_error_on_bad_argv():
    result = subprocess.run(
        VPNC + ["connect", "--host-only-nonsense"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 4


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
                "--user", acme.tunnel_user, "--group", "test-small",
                "--allow-insecure-group"],
        input=f'{acme.tunnel_pass}\nput "unclosed\nquit\n',
        capture_output=True, text=True, timeout=60, start_new_session=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "usage: cannot parse" in result.stdout
    assert "Traceback" not in result.stderr + result.stdout


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
        VPNC + ["connect", "--host", "127.0.0.1", "--port", port, "--user", "u",
                "--group", "test-small", "--allow-insecure-group"],
        input="password\n",
        capture_output=True, text=True, timeout=60, start_new_session=True,
    )
    assert result.returncode == 4, result.stdout + result.stderr
    assert f"bad port '{port}'" in result.stderr


# --- interactive mode over a pseudo-terminal ----------------------------------

def _pty_session(argv: list[str], steps: list[tuple[bytes, bytes]], timeout=30.0):
    """Spawn argv on a fresh pty; for each (wait_for, to_send) step, read
    until the marker appears, then write. Returns (all output, exit code)."""
    pid, master = pty.fork()
    if pid == 0:  # child
        os.execv(sys.executable, argv)
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
        "--group", "test-small", "--allow-insecure-group",
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
        "--group", "test-small", "--allow-insecure-group",
    ]
    output, exit_code = _pty_session(argv, [(b"tunnel password:", b"wrong\n")])
    assert exit_code == 2
    assert b"auth failed" in output


@pytest.mark.skipif(not hasattr(pty, "openpty"), reason="needs a pty")
def test_interactive_eof_at_password_prompt_exit_4():
    # a new session has no controlling terminal, so getpass prompts on the
    # pty given as stdin/stderr instead of on the terminal running the tests
    master, slave = pty.openpty()
    proc = subprocess.Popen(
        VPNC + ["connect", "--host", "127.0.0.1", "--port", "9", "--user", "u",
                "--group", "test-small", "--allow-insecure-group"],
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
