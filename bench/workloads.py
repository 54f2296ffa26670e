"""Seeded inputs and the closed-loop clients of the four workloads.

Every client waits for each reply before it sends the next request, as a
`vpnc` user does. Every `get` is compared byte for byte with what the run
put, and every `ls` with the expected name list.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from csg.client import ClientError, ClientSession
from csg.keyx import hash_password
from csg.protocol import Phase
from csg.vault import Certificate, CustomerRecord, ObjectStore, Registry, save_registry

KIB = 1024
MIB = 1024 * KIB
SMALL_SIZE = 1 * KIB
BULK_CYCLE = (256 * KIB, 1 * MIB)
MIXED_BULK_SIZE = 256 * KIB
QUOTA_BYTES = 1 << 30
CLIENT_TIMEOUT_S = 60.0
CHECK_SAMPLE = 16
# fixed contract times keep the registry a pure function of the seed
CERT_ISSUED_AT = 1_700_000_000
CERT_EXPIRES_AT = 4_000_000_000


@dataclass(frozen=True)
class Workload:
    """One traffic mix. Why each exists is recorded in BENCHMARK.json."""

    name: str
    connections: int
    preload_objects: int
    load: str
    # (op kind, share of the fixed mix) of the operations ms_per_op weighs
    foreground: tuple[tuple[str, float], ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("handshake", 1, 0,
                 "repeated connect_tunnel + login + disconnect",
                 (("session", 1.0),)),
        Workload("bulk", 1, 0,
                 "one session puts, gets and verifies 256 KiB and 1 MiB objects in a "
                 "fixed cycle",
                 tuple((f"bulk_{op}.{size // KIB}k", 0.25)
                       for size in BULK_CYCLE for op in ("put", "get"))),
        Workload("small_ops", 1, 2000,
                 "one session on 2,000 preloaded 1 KiB objects: 50% get, 48% same-size "
                 "overwrite put, 2% ls, names uniform",
                 (("get", 0.50), ("put", 0.48), ("ls", 0.02))),
        Workload("mixed", 2, 300,
                 "one connection loops 256 KiB put+get; the other runs the 1 KiB put/get "
                 "mix on 300 preloaded objects",
                 (("get", 50 / 98), ("put", 48 / 98))),
    )
}


@dataclass(frozen=True)
class Credentials:
    customer_id: str
    tunnel_user: str
    tunnel_pass: str
    service_user: str
    service_pass: str
    space_path: str


class Inputs:
    """Everything the gateway sees, generated from the seed alone."""

    def __init__(self, seed: int, workload: Workload):
        self.seed = seed
        rng = random.Random(f"csg-bench/{seed}")
        self.master_key_hex = rng.randbytes(16).hex()
        tag = rng.randbytes(4).hex()
        self.creds = Credentials(
            customer_id=f"cust-{tag}",
            tunnel_user=f"tun-{tag}",
            tunnel_pass=rng.randbytes(12).hex(),
            service_user=f"svc-{tag}",
            service_pass=rng.randbytes(12).hex(),
            space_path=f"/space/{tag}",
        )
        self._salts = (rng.randbytes(16), rng.randbytes(16))
        self.preload = {
            f"obj-{i:04d}": rng.randbytes(SMALL_SIZE)
            for i in range(workload.preload_objects)
        }

    def rng(self, stream: str) -> random.Random:
        """An independent deterministic stream per connection or purpose."""
        return random.Random(f"csg-bench/{self.seed}/{stream}")

    def write_registry(self, path: Path) -> None:
        c = self.creds
        record = CustomerRecord(
            customer_id=c.customer_id,
            tunnel_user=c.tunnel_user,
            tunnel_salt=self._salts[0],
            tunnel_hash=hash_password(c.tunnel_pass, self._salts[0]),
            service_user=c.service_user,
            service_salt=self._salts[1],
            service_hash=hash_password(c.service_pass, self._salts[1]),
            space_path=c.space_path,
            certificate=Certificate(
                c.customer_id, CERT_ISSUED_AT, CERT_ISSUED_AT, CERT_EXPIRES_AT,
                ("storage",), False,
            ),
            quota_bytes=QUOTA_BYTES,
        )
        save_registry(Registry([record]), path)

    def build_store(self, root: Path) -> None:
        """The preload, written through the store's own put path."""
        store = ObjectStore(root)
        master_key = bytes.fromhex(self.master_key_hex)
        for name, data in self.preload.items():
            store.put_object(self.creds.customer_id, name, data, master_key, QUOTA_BYTES)


@dataclass
class OpLog:
    """What one connection did: latencies and payload bytes per op kind,
    attempts, failures, problems (failures and output mismatches) and a
    digest of every output."""

    latency: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    nbytes: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    attempted: int = 0
    failed: int = 0
    refused: int = 0
    problems: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def problem(self, text: str) -> None:
        if len(self.problems) < 10:
            self.problems.append(text)

    def merge(self, other: "OpLog") -> None:
        for kind, values in other.latency.items():
            self.latency[kind].extend(values)
        for kind, n in other.nbytes.items():
            self.nbytes[kind] += n
        self.attempted += other.attempted
        self.failed += other.failed
        self.refused += other.refused
        self.problems.extend(other.problems[: 10 - len(self.problems)])

    def sessions(self) -> int:
        return sum(len(v) for k, v in self.latency.items() if k in SESSION_KINDS)


SESSION_KINDS = ("session", "connect", "check_session")


class Stop(Exception):
    """An operation failed; the loop ends and the failure is reported."""


class Client:
    """One closed-loop client connection and the object state it expects."""

    def __init__(self, host: str, port: int, creds: Credentials, log: OpLog,
                 model: dict[str, bytes]):
        self.host, self.port = host, port
        self.creds = creds
        self.log = log
        self.model = model
        self.session: Optional[ClientSession] = None

    def connect(self, kind: str) -> None:
        log = self.log
        log.attempted += 1
        start = time.perf_counter()
        try:
            session = ClientSession(self.host, self.port, timeout=CLIENT_TIMEOUT_S)
        except OSError as exc:
            log.failed += 1
            log.refused += 1
            log.problem(f"{kind}: connect failed: {type(exc).__name__}")
            raise Stop from exc
        c = self.creds
        try:
            session.connect_tunnel(c.tunnel_user, c.tunnel_pass)
            session.login(c.space_path, c.service_user, c.service_pass)
        except (ClientError, OSError) as exc:
            if session.state.phase is Phase.INIT:
                log.refused += 1
            session.close()
            log.failed += 1
            log.problem(f"{kind}: {type(exc).__name__}")
            raise Stop from exc
        log.latency[kind].append(time.perf_counter() - start)
        self.session = session

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def _call(self, kind: str, nbytes: int, fn, *args):
        log = self.log
        log.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (ClientError, OSError) as exc:
            log.failed += 1
            log.problem(f"{kind}: {type(exc).__name__}")
            raise Stop from exc
        log.latency[kind].append(time.perf_counter() - start)
        log.nbytes[kind] += nbytes
        return result

    def put(self, kind: str, name: str, data: bytes) -> None:
        self._call(kind, len(data), self.session.put, name, data)
        self.model[name] = data

    def get(self, kind: str, name: str) -> None:
        expected = self.model[name]
        got = self._call(kind, len(expected), self.session.get, name)
        self.log.digest.update(b"get\0" + name.encode() + b"\0" + got)
        if got != expected:
            self.log.problem(f"{kind}: get {name!r} returned {len(got)} bytes that differ "
                             f"from the {len(expected)} bytes put")

    def ls(self, kind: str) -> None:
        names = self._call(kind, 0, self.session.list_names)
        self.log.digest.update(b"ls\0" + "\0".join(names).encode())
        if names != sorted(self.model):
            self.log.problem(f"{kind}: ls returned {len(names)} names, expected "
                             f"{len(self.model)} in sorted order")


class Budget:
    """Closed-loop stopping rule: a wall-clock deadline, or (for tests) a
    fixed number of iterations."""

    def __init__(self, seconds: float, max_iterations: Optional[int] = None):
        self.deadline = time.perf_counter() + seconds
        self.max_iterations = max_iterations
        self.iterations = 0

    def allows(self, estimate_s: float = 0.0) -> bool:
        """Whether another iteration, expected to take `estimate_s`, fits."""
        if self.max_iterations is not None:
            ok = self.iterations < self.max_iterations
        else:
            ok = self.iterations == 0 or time.perf_counter() + estimate_s <= self.deadline
        self.iterations += ok
        return ok


def _small_mix_step(client: Client, rng: random.Random, names: list[str],
                    p_get: float, p_put: float) -> None:
    r = rng.random()
    if r < p_get:
        client.get("get", rng.choice(names))
    elif r < p_get + p_put:
        client.put("put", rng.choice(names), rng.randbytes(SMALL_SIZE))
    else:
        client.ls("ls")


def run_loop(workload: Workload, inputs: Inputs, host: str, port: int,
             budget: Budget, models: list[dict[str, bytes]], logs: list[OpLog]) -> None:
    """Drive the workload's closed loop until the budget runs out. `models`
    and `logs` hold one entry per connection; a failure stops the loop."""
    creds = inputs.creds
    if workload.name == "handshake":
        while budget.allows():
            client = Client(host, port, creds, logs[0], models[0])
            try:
                client.connect("session")
            except Stop:
                return
            client.close()
        return

    if workload.name == "bulk":
        rng = inputs.rng("bulk")
        client = Client(host, port, creds, logs[0], models[0])
        try:
            client.connect("connect")
            step = 0
            pair_s: dict[int, float] = {}
            # a put+get pair starts only if it is expected to end in time
            while budget.allows(pair_s.get(BULK_CYCLE[step % len(BULK_CYCLE)], 0.0)):
                size = BULK_CYCLE[step % len(BULK_CYCLE)]
                name = f"bulk-{size // KIB}k"
                start = time.perf_counter()
                client.put(f"bulk_put.{size // KIB}k", name, rng.randbytes(size))
                client.get(f"bulk_get.{size // KIB}k", name)
                pair_s[size] = time.perf_counter() - start
                step += 1
        except Stop:
            pass
        finally:
            client.close()
        return

    if workload.name == "small_ops":
        rng = inputs.rng("small")
        names = sorted(models[0])
        client = Client(host, port, creds, logs[0], models[0])
        try:
            client.connect("connect")
            while budget.allows():
                _small_mix_step(client, rng, names, 0.50, 0.48)
        except Stop:
            pass
        finally:
            client.close()
        return

    if workload.name == "mixed":
        small = Client(host, port, creds, logs[0], models[0])
        bulk = Client(host, port, creds, logs[1], models[1])
        done = threading.Event()

        def small_loop() -> None:
            rng = inputs.rng("mixed-small")
            names = sorted(small.model)
            try:
                while not done.is_set() and budget.allows():
                    _small_mix_step(small, rng, names, 50 / 98, 48 / 98)
            except Stop:
                pass
            finally:
                done.set()

        def bulk_loop() -> None:
            rng = inputs.rng("mixed-bulk")
            try:
                while not done.is_set():
                    bulk.put(f"bulk_put.{MIXED_BULK_SIZE // KIB}k", "bulk-mixed",
                             rng.randbytes(MIXED_BULK_SIZE))
                    bulk.get(f"bulk_get.{MIXED_BULK_SIZE // KIB}k", "bulk-mixed")
            except Stop:
                done.set()

        try:
            small.connect("connect")
            bulk.connect("connect")
            threads = [threading.Thread(target=f, name=f.__name__) for f in (bulk_loop, small_loop)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        except Stop:
            pass
        finally:
            small.close()
            bulk.close()
        return

    raise ValueError(f"unknown workload {workload.name!r}")


def closing_check(inputs: Inputs, host: str, port: int, model: dict[str, bytes],
                  log: OpLog) -> None:
    """A final session that touches every store operation on every
    workload: put and read back a check object, compare the full listing,
    and read back a sample of the objects."""
    rng = inputs.rng("check")
    client = Client(host, port, inputs.creds, log, model)
    try:
        client.connect("check_session")
        client.put("check_put", "check-object", rng.randbytes(SMALL_SIZE))
        client.get("check_get", "check-object")
        client.ls("check_ls")
        for name in rng.sample(sorted(model), min(CHECK_SAMPLE, len(model))):
            client.get("check_get", name)
    except Stop:
        pass
    finally:
        client.close()
