"""The benchmark's metrics: their declarations and how each is computed.

End-to-end metrics come from an untraced run and are reported on every
workload. Per-layer metrics come from a traced run; each names the
end-to-end metric, and the workload, it is expected to move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional

from spans import SpanStats
from stats import tail
from workloads import MIB, OpLog, Workload


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str


END_TO_END = (
    # spawn to the readiness line, median of the run's launches
    EndToEnd("setup_s", "s", "lower", 0.25),
    # VmHWM of the gateway process at the end of the run
    EndToEnd("gateway_peak_rss_MiB", "MiB", "lower", 0.15),
    # median latency of each foreground op kind, weighted by its share of the mix
    EndToEnd("ms_per_op", "ms", "lower", 0.25),
)

HANDLE_FRAME_TYPES = (
    "CLIENT_HELLO", "PHASE1_AUTH", "SERVICE_REQUEST", "PHASE2_AUTH",
    "PUT", "GET", "LIST", "DISCONNECT",
)

# bulk is not in BENCHMARK.json (too few operations per run to be steady), so
# per-byte cost is read on the gated workloads that move bytes
_BULK = "ms_per_op on small_ops and mixed; put/get_MiBps on bulk"
_SMALL = "ms_per_op on small_ops"
_HANDSHAKE = "ms_per_op on handshake"

PER_LAYER = (
    PerLayer("gw.aes.cbc_encrypt.MiBps", "MiB/s", "higher", _BULK),
    PerLayer("gw.aes.cbc_decrypt.MiBps", "MiB/s", "higher", _BULK),
    PerLayer("cl.aes.cbc_encrypt.MiBps", "MiB/s", "higher", _BULK),
    PerLayer("cl.aes.cbc_decrypt.MiBps", "MiB/s", "higher", _BULK),
    PerLayer("aes.key_expansion.calls_per_op", "count", "lower", _SMALL),
    PerLayer("aes.key_expansion.us", "us", "lower", _SMALL),
    PerLayer("gw.aes.self_share", "share", "lower", _BULK),
    PerLayer("keyx.dh_generate.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("keyx.dh_shared.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("keyx.hash_password.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("keyx.hash_password.calls_per_session", "count", "lower", _HANDSHAKE),
    PerLayer("wire.bytes_per_payload_byte", "B/B", "lower", _BULK),
    PerLayer("wire.encode_frame.us", "us", "lower", _BULK),
    PerLayer("gw.wire.decode_frame.wait_ms", "ms", "lower", "ms_per_op on mixed"),
    PerLayer("cl.wire.decode_frame.wait_ms", "ms", "lower", "ms_per_op on mixed"),
    *(
        PerLayer(f"gw.protocol.server_handle_frame.self_ms.{t}", "ms", "lower", _SMALL)
        for t in HANDLE_FRAME_TYPES
    ),
    PerLayer("vault.put_object.self_ms", "ms", "lower", _SMALL),
    PerLayer("vault.get_object.self_ms", "ms", "lower", _SMALL),
    PerLayer("vault.list_objects.ms", "ms", "lower", _SMALL),
    PerLayer("vault.check_credentials.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("vault.store_init_s", "s", "lower", "setup_s on small_ops"),
    PerLayer("vault.disk_bytes_per_live_byte", "B/B", "lower", "small_ops (disk use)"),
    PerLayer("gw.cpu_ms_per_op", "ms", "lower", "ms_per_op on every workload"),
    PerLayer("gw.busy_frac", "share", "lower", "ms_per_op on mixed"),
    PerLayer("gateway.audit_append.us", "us", "lower", _SMALL),
    PerLayer("gateway.audit_lines_per_op", "count", "lower", _SMALL),
    PerLayer("gateway.refused", "count", "lower", "failed operations on every workload"),
    PerLayer("cl.cpu_ms_per_op", "ms", "lower", "ms_per_op on every workload"),
    PerLayer("client.connect_tunnel.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("client.login.ms", "ms", "lower", _HANDSHAKE),
    PerLayer("trace.overhead_frac", "share", "lower", "none: traced over untraced ms_per_op, minus 1"),
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


@dataclass
class Phase:
    """One gateway lifetime: its closed loop, then the closing check."""

    loop: OpLog
    check: OpLog
    loop_s: float
    gw_cpu_loop_s: float
    cl_cpu_loop_s: float
    gw_cpu_s: float
    peak_rss_mib: float
    setups_s: list[float]
    audit_lines: int
    disk_bytes: int
    live_bytes: int
    model: dict[str, bytes]
    # sha256 of every get/ls output, per connection, then the closing check
    digests: list[str]

    @property
    def attempted(self) -> int:
        return self.loop.attempted + self.check.attempted

    @property
    def failed(self) -> int:
        return self.loop.failed + self.check.failed

    @property
    def loop_ops(self) -> int:
        return sum(len(v) for v in self.loop.latency.values())


def ms_per_op(workload: Workload, log: OpLog) -> Optional[float]:
    """Mix-weighted median latency: the sum over the workload's foreground
    op kinds of (share of the mix x the kind's median latency). Medians per
    kind keep one slow stretch of a shared machine, or a mix of op kinds
    with different costs, from moving the figure the way a mean would.
    Kinds without samples are left out and the weights renormalised."""
    present = [(k, w) for k, w in workload.foreground if log.latency.get(k)]
    if not present:
        return None
    total = sum(w for _, w in present)
    return sum(w * statistics.median(log.latency[k]) for k, w in present) * 1e3 / total


def end_to_end(workload: Workload, phase: Phase) -> dict[str, float]:
    return {
        "setup_s": statistics.median(phase.setups_s),
        "gateway_peak_rss_MiB": phase.peak_rss_mib,
        "ms_per_op": ms_per_op(workload, phase.loop) or 0.0,
    }


def named_report(workload: Workload, phase: Phase) -> list[tuple[str, float, str, str]]:
    """The per-operation user metrics that apply to this workload:
    (name, value, unit, note)."""
    lat = phase.loop.latency
    rows = [
        ("failed_frac", phase.failed / max(1, phase.attempted), "share",
         f"{phase.failed}/{phase.attempted} operations"),
        ("setup_s", statistics.median(phase.setups_s), "s",
         f"median of {len(phase.setups_s)} launches"),
        ("gateway_peak_rss_MiB", phase.peak_rss_mib, "MiB", "VmHWM"),
    ]

    def latency_rows(prefix: str, kind: str, with_tail: bool = True) -> None:
        samples = [s * 1e3 for s in lat.get(kind, ())]
        if not samples:
            return
        rows.append((f"{prefix}_ms_p50", statistics.median(samples), "ms", f"n={len(samples)}"))
        if with_tail:
            t = tail(samples)
            if t is None:
                rows.append((f"{prefix}_ms_tail", float("nan"), "ms",
                             f"n={len(samples)}: too few samples for a tail"))
            else:
                rows.append((f"{prefix}_ms_tail", t[1], "ms", f"p{t[0]:g}, n={len(samples)}"))

    latency_rows("handshake", "session")
    for op in ("put", "get"):
        kinds = [k for k in lat if k.startswith(f"bulk_{op}.")]
        if kinds:
            seconds = sum(sum(lat[k]) for k in kinds)
            count = sum(len(lat[k]) for k in kinds)
            rows.append((f"{op}_MiBps", sum(phase.loop.nbytes[k] for k in kinds) / MIB / seconds,
                         "MiB/s", f"n={count}"))
    latency_rows("put", "put")
    latency_rows("get", "get")
    latency_rows("ls", "ls", with_tail=False)
    value = ms_per_op(workload, phase.loop)
    if value is not None:
        mix = ", ".join(f"{w:.3g} {k}" for k, w in workload.foreground)
        rows.append(("ms_per_op", value, "ms", f"weighted medians: {mix}"))
    return rows


class _Both:
    """Gateway and client span totals side by side."""

    def __init__(self, gw: SpanStats, cl: SpanStats):
        self.gw, self.cl = gw, cl

    def calls(self, name: str) -> int:
        return self.gw.calls.get(name, 0) + self.cl.calls.get(name, 0)

    def mean_wall(self, name: str, unit_ns: float) -> Optional[float]:
        calls = self.calls(name)
        if not calls:
            return None
        return (self.gw.wall_ns.get(name, 0) + self.cl.wall_ns.get(name, 0)) / calls / unit_ns

    def nbytes(self, name: str) -> int:
        return self.gw.nbytes.get(name, 0) + self.cl.nbytes.get(name, 0)


def per_layer(workload: Workload, plain: Phase, traced: Phase,
              gw: SpanStats, cl: SpanStats, refused: int) -> dict[str, Optional[float]]:
    """Per-layer metrics. CPU shares and costs come from the untraced phase;
    span-derived figures from the traced one. None marks a figure with no
    samples in this run."""
    both = _Both(gw, cl)
    ops = traced.attempted
    sessions = traced.loop.sessions() + traced.check.sessions()
    payload = sum(n for log in (traced.loop, traced.check) for n in log.nbytes.values())
    aes_ns = gw.wall_ns.get("aes.cbc_encrypt", 0) + gw.wall_ns.get("aes.cbc_decrypt", 0)
    plain_ms = ms_per_op(workload, plain.loop)
    traced_ms = ms_per_op(workload, traced.loop)
    m: dict[str, Optional[float]] = {
        "gw.aes.cbc_encrypt.MiBps": gw.mib_per_s("aes.cbc_encrypt"),
        "gw.aes.cbc_decrypt.MiBps": gw.mib_per_s("aes.cbc_decrypt"),
        "cl.aes.cbc_encrypt.MiBps": cl.mib_per_s("aes.cbc_encrypt"),
        "cl.aes.cbc_decrypt.MiBps": cl.mib_per_s("aes.cbc_decrypt"),
        "aes.key_expansion.calls_per_op": both.calls("aes.key_expansion") / ops,
        "aes.key_expansion.us": both.mean_wall("aes.key_expansion", 1e3),
        "gw.aes.self_share": aes_ns / 1e9 / traced.gw_cpu_s if traced.gw_cpu_s else None,
        "keyx.dh_generate.ms": both.mean_wall("keyx.dh_generate", 1e6),
        "keyx.dh_shared.ms": both.mean_wall("keyx.dh_shared", 1e6),
        "keyx.hash_password.ms": gw.mean_wall("keyx.hash_password", 1e6),
        "keyx.hash_password.calls_per_session":
            gw.calls.get("keyx.hash_password", 0) / sessions if sessions else None,
        "wire.bytes_per_payload_byte":
            both.nbytes("wire.encode_frame") / payload if payload else None,
        "wire.encode_frame.us": both.mean_wall("wire.encode_frame", 1e3),
        "gw.wire.decode_frame.wait_ms": gw.mean_wall("wire.decode_frame", 1e6),
        "cl.wire.decode_frame.wait_ms": cl.mean_wall("wire.decode_frame", 1e6),
    }
    for t in HANDLE_FRAME_TYPES:
        m[f"gw.protocol.server_handle_frame.self_ms.{t}"] = gw.mean_self(
            f"protocol.server_handle_frame.{t}", 1e6)
    loop_ops = plain.loop_ops
    m.update({
        "vault.put_object.self_ms": gw.mean_self("vault.put_object", 1e6),
        "vault.get_object.self_ms": gw.mean_self("vault.get_object", 1e6),
        "vault.list_objects.ms": gw.mean_wall("vault.list_objects", 1e6),
        "vault.check_credentials.ms": gw.mean_wall("vault.check_credentials", 1e6),
        "vault.store_init_s": gw.mean_wall("vault.store_init", 1e9),
        "vault.disk_bytes_per_live_byte":
            traced.disk_bytes / traced.live_bytes if traced.live_bytes else None,
        "gw.cpu_ms_per_op": plain.gw_cpu_loop_s * 1e3 / loop_ops if loop_ops else None,
        "gw.busy_frac": plain.gw_cpu_loop_s / plain.loop_s,
        "gateway.audit_append.us": gw.mean_wall("gateway.audit_append", 1e3),
        "gateway.audit_lines_per_op": traced.audit_lines / ops,
        "gateway.refused": float(refused),
        "cl.cpu_ms_per_op": plain.cl_cpu_loop_s * 1e3 / loop_ops if loop_ops else None,
        "client.connect_tunnel.ms": cl.mean_wall("client.connect_tunnel", 1e6),
        "client.login.ms": cl.mean_wall("client.login", 1e6),
        "trace.overhead_frac": traced_ms / plain_ms - 1 if plain_ms and traced_ms else None,
    })
    return m


def baseline_rows(gw: SpanStats, cl: SpanStats, plain: Phase, workload: Workload) -> list[str]:
    """The ROADMAP baseline table's rows, reproduced from a traced run."""
    both = _Both(gw, cl)

    def fmt(value: Optional[float], spec: str) -> str:
        return "n/a" if value is None else format(value, spec)

    rows = [
        f"| `key_expansion` | {fmt(both.mean_wall('aes.key_expansion', 1e3), '.1f')} us |",
        f"| `cbc_encrypt` / `cbc_decrypt` (gateway) | "
        f"{fmt(gw.mib_per_s('aes.cbc_encrypt'), '.3f')} / "
        f"{fmt(gw.mib_per_s('aes.cbc_decrypt'), '.3f')} MiB/s |",
        f"| `dh_generate` / `dh_shared` (group 14) | "
        f"{fmt(both.mean_wall('keyx.dh_generate', 1e6), '.1f')} ms / "
        f"{fmt(both.mean_wall('keyx.dh_shared', 1e6), '.1f')} ms |",
        f"| `hash_password` (10k iterations) | "
        f"{fmt(gw.mean_wall('keyx.hash_password', 1e6), '.2f')} ms |",
        f"| handshake over loopback (tunnel + login) | "
        f"{fmt(cl.mean_wall('client.connect_tunnel', 1e6), '.1f')} + "
        f"{fmt(cl.mean_wall('client.login', 1e6), '.1f')} ms |",
    ]
    for name, value, unit, note in named_report(workload, plain):
        if name.startswith(("put_", "get_")) and "tail" not in name:
            rows.append(f"| {name} ({workload.name}, untraced) | {value:.3f} {unit} ({note}) |")
    return rows
