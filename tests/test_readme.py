"""The README's provisioning example and `gateway.json`, run as written: a
registry they produce serves a session on group 14."""

from __future__ import annotations

import re
from pathlib import Path

from csg.client import ClientSession
from csg.gateway import Gateway, load_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(after: str, language: str) -> str:
    """The first fenced block of `language` that follows the text `after`."""
    match = re.search(re.escape(after) + rf".*?```{language}\n(.*?)```", README, re.DOTALL)
    assert match, f"no ```{language} block after {after!r} in README.md"
    return match.group(1)


def test_readme_registry_and_config_serve_a_session(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    provisioning = _block("`save_registry` produce the registry:", "python")
    exec(compile(provisioning, "README.md", "exec"), {})
    config_path = tmp_path / "gateway.json"
    config_path.write_text(_block("`gateway.json`:", "json"), encoding="utf-8")
    config = load_config(["--config", str(config_path), "--listen", "127.0.0.1:0"], env={})
    gateway = Gateway(config)
    try:
        host, port = gateway.start()
        with ClientSession(host, port) as session:
            session.connect_tunnel("alice", "tunnel-pw")
            session.login("/space/acme", "alice-svc", "service-pw")
            session.put("notes", b"quarterly notes")
            assert session.get("notes") == b"quarterly notes"
            assert session.list_names() == ["notes"]
    finally:
        gateway.shutdown(drain_seconds=2.0)
