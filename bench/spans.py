"""Span recording for the traced benchmark run.

A `Tracer` replaces selected csg functions and methods with timing wrappers.
Each call records one span: (id, parent id, name, start ns, end ns, detail).
Spans stay in memory and are written as JSON lines when the run ends.

Wrappers are installed from outside the program, at every place a name is
bound: `from .keyx import dh_generate` copies the function into the
importing module, so patching `csg.keyx` alone would miss the calls made
through `csg.protocol` and `csg.client`. `install` therefore replaces every
binding of each target found in the loaded csg modules, by identity.

The per-block AES functions are deliberately not wrapped: at ~65k calls
per MiB the wrapper cost would swamp what it measures.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Callable, Optional

CSG_MODULES = (
    "csg.aes",
    "csg.keyx",
    "csg.wire",
    "csg.vault",
    "csg.protocol",
    "csg.gateway",
    "csg.client",
    "csg.vpnc",
)


def _nbytes_arg0(args, _result) -> int:
    return len(args[0])


def _nbytes_result(_args, result) -> Optional[int]:
    return None if result is None else len(result)


def _msg_type_arg1(args, _result) -> str:
    return args[1].name


# (defining module, function name, span name, detail extractor)
FUNCTION_TARGETS = (
    ("csg.aes", "cbc_encrypt", "aes.cbc_encrypt", _nbytes_arg0),
    ("csg.aes", "cbc_decrypt", "aes.cbc_decrypt", _nbytes_arg0),
    ("csg.aes", "key_expansion", "aes.key_expansion", None),
    ("csg.keyx", "dh_generate", "keyx.dh_generate", None),
    ("csg.keyx", "dh_shared", "keyx.dh_shared", None),
    ("csg.keyx", "hash_password", "keyx.hash_password", None),
    ("csg.wire", "encode_frame", "wire.encode_frame", _nbytes_result),
    ("csg.wire", "decode_frame", "wire.decode_frame", None),
    ("csg.protocol", "server_handle_frame", "protocol.server_handle_frame", _msg_type_arg1),
)

# (module, class, method, span name)
METHOD_TARGETS = (
    ("csg.vault", "ObjectStore", "__init__", "vault.store_init"),
    ("csg.vault", "ObjectStore", "put_object", "vault.put_object"),
    ("csg.vault", "ObjectStore", "get_object", "vault.get_object"),
    ("csg.vault", "ObjectStore", "list_objects", "vault.list_objects"),
    ("csg.vault", "Registry", "check_credentials", "vault.check_credentials"),
    ("csg.gateway", "AuditLog", "append", "gateway.audit_append"),
    ("csg.client", "ClientSession", "connect_tunnel", "client.connect_tunnel"),
    ("csg.client", "ClientSession", "login", "client.login"),
)


class Tracer:
    """Records the spans of one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, detail: Optional[Callable] = None) -> Callable:
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                info = detail(args, result) if detail is not None else None
                spans.append((span_id, parent, name, start, end, info))

        traced.bench_span_name = name
        return traced

    def install(self) -> None:
        """Wrap every binding of every target in the loaded csg modules."""
        for name in CSG_MODULES:
            importlib.import_module(name)
        loaded = [m for name, m in sys.modules.items() if name.startswith("csg.")]
        for module_name, attr, span_name, detail in FUNCTION_TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, span_name, detail)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, method, span_name in METHOD_TARGETS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self.wrap(getattr(cls, method), span_name))

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


class SpanStats:
    """Per-name totals over a list of spans: call count, wall time, self
    time (wall minus the direct children's wall time) and summed detail
    values, plus the same split by string detail (message type)."""

    def __init__(self, spans: list[tuple]):
        child_ns: dict[int, int] = {}
        for _sid, parent, _name, start, end, _info in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self.calls: dict[str, int] = {}
        self.wall_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.nbytes: dict[str, int] = {}
        for sid, _parent, name, start, end, info in spans:
            if isinstance(info, str):
                name = f"{name}.{info}"
            wall = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.wall_ns[name] = self.wall_ns.get(name, 0) + wall
            self.self_ns[name] = self.self_ns.get(name, 0) + wall - child_ns.get(sid, 0)
            if isinstance(info, int):
                self.nbytes[name] = self.nbytes.get(name, 0) + info

    def mean_wall(self, name: str, unit_ns: float) -> Optional[float]:
        calls = self.calls.get(name, 0)
        return self.wall_ns[name] / calls / unit_ns if calls else None

    def mean_self(self, name: str, unit_ns: float) -> Optional[float]:
        calls = self.calls.get(name, 0)
        return self.self_ns[name] / calls / unit_ns if calls else None

    def mib_per_s(self, name: str) -> Optional[float]:
        """Bytes divided by self time."""
        self_ns = self.self_ns.get(name, 0)
        if not self_ns:
            return None
        return self.nbytes.get(name, 0) / (1 << 20) / (self_ns / 1e9)
