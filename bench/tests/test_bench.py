"""Tests of the benchmark itself: statistics, metric names, wrapper
installation, traced/untraced output identity, redaction, and refusal to
run without the program's sources."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import csg.aes
import csg.client
import csg.gateway
import csg.protocol
import csg.vault
import csg.wire
import metrics
import run
import spans
from stats import percentile, tail, valid_metric_name
from workloads import WORKLOADS, Client, Credentials, OpLog

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent


# --- the _tail rule ---

@pytest.mark.parametrize(
    "n, expected_p",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected_p):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    result = tail(samples)
    if expected_p is None:
        assert result is None
        return
    p, value = result
    assert p == expected_p
    assert value == percentile(samples, p)
    assert sum(1 for s in samples if s > value) >= 10


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 1) == 1.0


# --- metric names ---

@pytest.mark.parametrize("name", ["a", "setup_s", "gw.aes.cbc_encrypt.MiBps", "x-1", "0.a", "a" * 64])
def test_metric_name_regex_accepts(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "-a", ".a", "_a", "a b", "a/b", "put:ms", "a" * 65, "µs"])
def test_metric_name_regex_rejects(name):
    assert not valid_metric_name(name)


def test_declared_metrics_have_valid_unique_names():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(valid_metric_name(n) for n in names)


def test_benchmark_json_matches_the_declarations():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])


# --- wrapper installation ---

# every place the code binds a traced name with `from ... import`, plus the
# module-attribute call targets
REQUIRED_SITES = [
    (csg.protocol, "dh_generate"),
    (csg.client, "dh_generate"),
    (csg.protocol, "dh_shared"),
    (csg.vault, "hash_password"),
    (csg.gateway, "decode_frame"),
    (csg.client, "decode_frame"),
    (csg.gateway, "server_handle_frame"),
    (csg.aes, "cbc_encrypt"),
    (csg.aes, "cbc_decrypt"),
    (csg.aes, "key_expansion"),
    (csg.wire, "encode_frame"),
]


def test_wrappers_cover_every_binding_site_and_uninstall_restores():
    originals = {(m.__name__, a): getattr(m, a) for m, a in REQUIRED_SITES}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in REQUIRED_SITES:
            assert hasattr(getattr(module, attr), "bench_span_name"), f"{module.__name__}.{attr}"
        # no csg module still holds an unwrapped target
        targets = {id(f) for f in originals.values()}
        for name, module in list(sys.modules.items()):
            if name.startswith("csg"):
                for key, value in vars(module).items():
                    assert id(value) not in targets, f"{name}.{key} left unwrapped"
        assert not hasattr(csg.aes.encrypt_block, "bench_span_name")
        assert not hasattr(csg.aes.decrypt_block, "bench_span_name")
        assert hasattr(csg.vault.ObjectStore.put_object, "bench_span_name")
        assert hasattr(csg.client.ClientSession.login, "bench_span_name")
    finally:
        tracer.uninstall()
    for (module_name, attr), fn in originals.items():
        assert getattr(sys.modules[module_name], attr) is fn


def test_self_time_subtracts_direct_children_only():
    span_list = [
        # id, parent, name, start, end, detail
        (2, 1, "child", 10, 30, None),
        (3, 2, "grandchild", 12, 20, None),
        (1, 0, "top", 0, 100, "PUT"),
        (4, 1, "child", 40, 50, 64),
    ]
    st = spans.SpanStats(span_list)
    assert st.self_ns["top.PUT"] == 100 - 20 - 10
    assert st.self_ns["child"] == (20 - 8) + 10
    assert st.nbytes["child"] == 64


# --- output checks ---

class _WrongSession:
    """Answers every get and ls with something the run never stored."""

    def get(self, name):
        return b"not what was put"

    def list_names(self):
        return ["unexpected"]


def test_client_reports_get_and_ls_mismatches():
    creds = Credentials("c", "t", "tp", "s", "sp", "/space/c")
    log = OpLog()
    client = Client("127.0.0.1", 1, creds, log, {"a": b"stored bytes"})
    client.session = _WrongSession()
    client.get("get", "a")
    client.ls("ls")
    assert log.failed == 0 and log.attempted == 2
    assert len(log.problems) == 2
    assert "get 'a'" in log.problems[0]
    assert "ls returned 1 names" in log.problems[1]


# --- end to end against a real gateway ---

@pytest.fixture
def small_run(tmp_path):
    workload = replace(WORKLOADS["small_ops"], preload_objects=40)
    return run.Run(workload, seed=7, work=tmp_path)


def test_traced_and_untraced_runs_return_identical_outputs(small_run):
    plain = small_run.phase("plain", 60, 1, traced=False, max_iterations=60)
    traced = small_run.phase("traced", 60, 1, traced=True, max_iterations=60)
    assert plain.failed == traced.failed == 0
    assert not small_run.problems
    assert plain.loop_ops == traced.loop_ops == 61  # connect + 60 operations
    assert plain.digests == traced.digests
    assert plain.model == traced.model
    assert small_run.redaction_leaks(["report"], traced.model) == []


def test_redaction_check_finds_planted_secrets(small_run, tmp_path):
    leaked = tmp_path / "leaky.log"
    leaked.write_text(f"user logged in with {small_run.inputs.creds.tunnel_pass}\n")
    small_run.audit_files.append(leaked)
    model = dict(small_run.inputs.preload)
    name = sorted(model)[0]
    report = [f"value {model[name][100:132].hex()}"]
    leaks = small_run.redaction_leaks(report, model)
    assert "tunnel password in leaky.log" in leaks
    assert f"hex bytes of object {name} in report" in leaks


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "handshake", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
