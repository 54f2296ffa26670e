"""Loopback benchmark for csg.

    python3 bench/run.py --workload {handshake,bulk,small_ops,mixed,all}
                         --seed N --seconds S --trace {0,1}

Starts the real gateway (`python -m csg.gateway`, DH group rfc3526-14) as its
own process on 127.0.0.1 and drives it through `csg.client.ClientSession`
from this one process, closed loop, with at most two connections. The
registry, store preload and request stream are generated from the seed.

--trace 0 measures the end-to-end metrics. --trace 1 splits the time into
an untraced half and a traced half (gateway started through
bench/gw_traced.py, client wrappers installed here) and reports the
per-layer metrics, the tracing overhead and the ROADMAP baseline rows.

Every get is compared with what was put and every ls with the expected
names; the audit log, the report and the span files are searched for the
run's passwords, master key and object bytes. The last stdout line is a
JSON object {"correct", "attempted", "failed", "metrics"}; the exit code is
non-zero when any output is wrong or a secret leaked.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
# launches per run for setup_s, half before and half after the measured loop
SETUP_LAUNCHES = 20
WORKLOAD_NAMES = ("handshake", "bulk", "small_ops", "mixed")


def _environment() -> str:
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"python={platform.python_version()} nproc={os.cpu_count()} "
            f"loadavg_at_start=[{load}] transport=loopback dh_group=rfc3526-14")


def _count_lines(path: Path) -> int:
    if not path.exists():
        return 0
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Run:
    """One invocation for one workload and seed: its work directory, the
    preload template built once, and the gateway phases run against
    copies of it."""

    def __init__(self, workload, seed: int, work: Path):
        from workloads import Inputs

        self.workload = workload
        self.inputs = Inputs(seed, workload)
        self.work = work
        self.registry = work / "registry.jsonl"
        self.template = work / "template"
        self.inputs.write_registry(self.registry)
        self.inputs.build_store(self.template)
        self.problems: list[str] = []
        self.trace_files: list[Path] = []
        self.audit_files: list[Path] = []

    def setup_launches(self, count: int) -> list[float]:
        """Launch-to-ready times of `count` gateways on the untouched
        preload; each is stopped as soon as it is ready."""
        from gatewayproc import GatewayProcess, write_config

        config = self.work / "gateway-setup.json"
        write_config(config, self.registry, self.template, self.work / "audit-setup.log",
                     self.inputs.master_key_hex)
        times = []
        for _ in range(count):
            gw = GatewayProcess(ROOT, config, self.work / "gateway-stderr.log")
            times.append(gw.setup_s)
            gw.stop()
        return times

    def phase(self, tag: str, seconds: float, launches: int, traced: bool,
              max_iterations=None):
        from gatewayproc import GatewayProcess, write_config
        from metrics import Phase
        from spans import Tracer
        from workloads import Budget, OpLog, closing_check, run_loop

        objects = self.work / f"objects-{tag}"
        shutil.copytree(self.template, objects)
        audit = self.work / f"audit-{tag}.log"
        config = self.work / f"gateway-{tag}.json"
        write_config(config, self.registry, objects, audit, self.inputs.master_key_hex)
        gw_spans = self.work / f"spans-gw-{tag}.jsonl" if traced else None
        log = self.work / "gateway-stderr.log"
        self.audit_files.append(audit)

        setups = self.setup_launches(launches // 2)
        gw = GatewayProcess(ROOT, config, log, gw_spans)
        setups.append(gw.setup_s)
        tracer = Tracer() if traced else None
        try:
            if tracer is not None:
                tracer.install()
            connections = self.workload.connections
            models = [dict(self.inputs.preload)] + [{} for _ in range(connections - 1)]
            logs = [OpLog() for _ in range(connections)]
            cl0, gw0, t0 = time.process_time(), gw.cpu_s(), time.perf_counter()
            run_loop(self.workload, self.inputs, gw.host, gw.port,
                     Budget(seconds, max_iterations), models, logs)
            loop_s = time.perf_counter() - t0
            gw_loop, cl_loop = gw.cpu_s() - gw0, time.process_time() - cl0
            loop = OpLog()
            for item in logs:
                loop.merge(item)
            model = {k: v for m in models for k, v in m.items()}
            check = OpLog()
            if not loop.failed:
                closing_check(self.inputs, gw.host, gw.port, model, check)
            gw_cpu = gw.cpu_s() - gw0
            rss = gw.peak_rss_mib()
        finally:
            if tracer is not None:
                tracer.uninstall()
            code = gw.stop()
        setups += self.setup_launches(launches - len(setups))
        if code != 0:
            self.problems.append(f"{tag}: gateway exited with code {code}")
        self.problems.extend(f"{tag}: {p}" for p in loop.problems + check.problems)
        if tracer is not None:
            cl_spans = self.work / f"spans-cl-{tag}.jsonl"
            tracer.write(str(cl_spans))
            self.trace_files += [gw_spans, cl_spans]
        phase = Phase(
            loop=loop, check=check, loop_s=loop_s, gw_cpu_loop_s=gw_loop,
            cl_cpu_loop_s=cl_loop, gw_cpu_s=gw_cpu, peak_rss_mib=rss, setups_s=setups,
            audit_lines=_count_lines(audit), disk_bytes=_tree_bytes(objects),
            live_bytes=sum(len(v) for v in model.values()), model=model,
            digests=[item.digest.hexdigest() for item in logs + [check]],
        )
        return phase

    def redaction_leaks(self, texts: list[str], model: dict[str, bytes]) -> list[str]:
        """What secret material appears in the report, the audit logs or the
        span files; returns labels, never the secrets themselves."""
        c = self.inputs.creds
        needles = {
            "tunnel password": c.tunnel_pass.encode(),
            "service password": c.service_pass.encode(),
            "master key": self.inputs.master_key_hex.encode(),
        }
        for name in sorted(model)[:4]:
            chunk = model[name][100:132]
            needles[f"bytes of object {name}"] = chunk
            needles[f"hex bytes of object {name}"] = chunk.hex().encode()
        haystacks = {"report": "\n".join(texts).encode()}
        for path in self.audit_files + self.trace_files:
            if path is not None and path.exists():
                haystacks[path.name] = path.read_bytes()
        return [f"{label} in {where}" for label, needle in needles.items()
                for where, hay in haystacks.items() if needle and needle in hay]


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "n/a"
    return f"{value:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[str], dict]:
    """Run one workload; returns the report lines and the result object."""
    from metrics import END_TO_END, PER_LAYER, UNITS, baseline_rows, end_to_end, named_report, per_layer
    from spans import SpanStats, read_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    lines = [f"# workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}",
             f"# environment {_environment()}",
             f"# load: {workload.load}; connections: {workload.connections}"]
    work = WORK_DIR / f"{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        if not trace:
            plain = run.phase("plain", seconds, SETUP_LAUNCHES, traced=False)
            phases = [plain]
            metrics = end_to_end(workload, plain)
            lines.append("# end-to-end metrics (untraced)")
            for row_name, value, unit, note in named_report(workload, plain):
                lines.append(f"{row_name:<24} {_fmt(value):>12} {unit:<6} {note}")
            declared = [m.name for m in END_TO_END]
        else:
            plain = run.phase("plain", seconds / 2, 1, traced=False)
            traced = run.phase("traced", seconds / 2, 1, traced=True)
            phases = [plain, traced]
            gw = SpanStats(read_spans(str(run.trace_files[0])))
            cl = SpanStats(read_spans(str(run.trace_files[1])))
            refused = plain.loop.refused + plain.check.refused + traced.loop.refused + traced.check.refused
            raw = per_layer(workload, plain, traced, gw, cl, refused)
            lines.append("# per-layer metrics (traced half; CPU figures from the untraced half)")
            for spec in PER_LAYER:
                note = "" if raw[spec.name] is not None else " (no samples in this run)"
                lines.append(f"{spec.name:<56} {_fmt(raw[spec.name]):>12} {spec.unit:<6} "
                             f"-> {spec.moves}{note}")
            lines.append("# ROADMAP baseline rows, reproduced")
            lines.append("| layer | number |")
            lines.append("| --- | --- |")
            lines.extend(baseline_rows(gw, cl, plain, workload))
            metrics = {k: (0.0 if v is None else v) for k, v in raw.items()}
            declared = [m.name for m in PER_LAYER]
        model = phases[-1].model
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        leaks = run.redaction_leaks(lines, model)
        problems = run.problems + [f"redaction: {leak}" for leak in leaks]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        lines.append(f"# PROBLEM {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in declared},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "csg" / "__init__.py").is_file():
        print(f"bench: csg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import csg

    if Path(csg.__file__).resolve().parent != ROOT / "src" / "csg":
        print(f"bench: imported csg from {csg.__file__}, not this checkout", file=sys.stderr)
        return 2

    # SIGTERM unwinds through the finally blocks that stop the gateway
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        lines, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        if len(names) == 1:
            combined = result
            break
        print(json.dumps(result), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
