"""The README's provisioning example and `gateway.json`, run as written: a
registry they produce serves a session on group 14. The README's config
table names each key with the flag, variable and default the code gives it."""

from __future__ import annotations

import re
from pathlib import Path

from csg.client import ClientSession
from csg.gateway import Gateway, GatewayConfig, load_config

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


def _config_table() -> list[list[str]]:
    """The rows of README's gateway config table, each cell without its
    backquotes."""
    header = "| key | flag | environment variable | default | accepted values |"
    lines = README.split(header + "\n", 1)[1].split("\n\n", 1)[0].splitlines()
    return [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines[1:]]


# a legal value of each key that has a flag: not its default, nor its value
# in the environment below
_FLAG_VALUES = {
    "registry_path": "registry.jsonl",
    "objects_dir": "objects",
    "listen_addr": "127.0.0.2:9444",
    "audit_log": "audit.log",
}


def test_readme_config_table_matches_the_code():
    rows = _config_table()
    assert [row[0] for row in rows] == list(GatewayConfig._fields)
    # the keys without a default
    env = {"CSG_REGISTRY_PATH": "env.jsonl", "CSG_OBJECTS_DIR": "env-objects",
           "CSG_MASTER_KEY_HEX": "ff" * 16}
    for key, flag, env_name, default, _accepted in rows:
        assert env_name == "CSG_" + key.upper(), key
        assert default == str(GatewayConfig._field_defaults.get(key, "none")), key
        if flag != "—":
            config = load_config([flag, _FLAG_VALUES[key]], env=env)
            assert getattr(config, key) == _FLAG_VALUES[key], key
