"""The gateway under test, run as its own process on loopback."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
READY_PREFIX = "gateway listening on "
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def write_config(
    path: Path, registry: Path, objects: Path, audit_log: Path, master_key_hex: str
) -> None:
    config = {
        "listen_addr": "127.0.0.1:0",
        "registry_path": str(registry),
        "objects_dir": str(objects),
        "master_key_hex": master_key_hex,
        "dh_group": "rfc3526-14",
        "audit_log": str(audit_log),
    }
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")


class GatewayProcess:
    """One gateway process. `spans_out` selects the traced launcher, which
    writes its spans there on shutdown."""

    def __init__(self, root: Path, config: Path, log: Path, spans_out: Optional[Path] = None):
        if spans_out is None:
            argv = [sys.executable, "-m", "csg.gateway", "--config", str(config)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "gw_traced.py"), str(spans_out),
                    "--config", str(config)]
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._log, cwd=config.parent, env=env
        )
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_ready(self) -> tuple[str, int]:
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline().decode("utf-8", "replace") if ready else ""
        if not line.startswith(READY_PREFIX):
            raise RuntimeError(f"gateway did not start (first output line: {line!r})")
        host, _, port = line[len(READY_PREFIX):].strip().rpartition(":")
        return host, int(port)

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mib(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """utime + stime of the gateway so far."""
        stat = self._proc_file("stat")
        fields = stat[stat.rindex(")") + 2:].split()
        return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS

    def stop(self) -> int:
        """SIGTERM, then wait for the gateway's drain; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode
