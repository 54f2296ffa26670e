"""The object store against a dict model while a hostile storage backend
rewrites its files between operations and restarts.

Honest rules put (under a quota small enough that some puts are refused),
get and restart the store; the listing is checked after every step.
Backend rules flip a bit in a file's header, ciphertext or tag, truncate or
extend it, swap two names' files, copy a file into the other customer's
directory, delete one, or leave a stray `.tmp-*` file or an object file of
an older version. A `get` returns the model's value, or raises
CorruptObject or NoSuchObject for a file the backend touched; it never
returns other bytes. The store's listing and quota totals follow its own
puts, and after a restart they are the listed files' sizes on disk, with no
`.tmp-*` file left.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from csg.vault import (
    OBJECT_HEADER_LEN,
    OBJECT_TAG_LEN,
    CorruptObject,
    NoSuchObject,
    ObjectStore,
    QuotaExceeded,
)

from conftest import write_cbc_object

MASTER = bytes.fromhex("5a" * 16)
CUSTOMERS = ("acme", "bravo")
NAMES = ("a", "b", "c")
OVERHEAD = OBJECT_HEADER_LEN + OBJECT_TAG_LEN
QUOTA = 2048  # bytes of object files per customer: one 2 KiB put does not fit

customers = st.sampled_from(CUSTOMERS)
names = st.sampled_from(NAMES)


class HostileBackend(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="csg-store-model-"))
        self.store = ObjectStore(self.root)
        self.model: dict[tuple[str, str], bytes] = {}  # the value last put
        self.touched: set[tuple[str, str]] = set()  # files the backend changed since
        # what the store charges: the file size of each put it took, or after
        # a restart of each file it listed
        self.charged: dict[str, dict[str, int]] = {c: {} for c in CUSTOMERS}

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _files(self) -> list[Path]:
        return sorted(
            path for path in self.root.glob("*/*") if not path.name.startswith(".tmp-")
        )

    def _touch(self, path: Path) -> None:
        self.touched.add((path.parent.name, path.name))

    # --- honest rules ---

    @rule(customer=customers, name=names, size=st.integers(0, QUOTA), seed=st.integers(0, 7))
    def put(self, customer, name, size, seed):
        data = random.Random(seed).randbytes(size)
        charged = self.charged[customer]
        refused = sum(charged.values()) - charged.get(name, 0) + OVERHEAD + len(data) > QUOTA
        try:
            self.store.put_object(customer, name, data, MASTER, QUOTA)
        except QuotaExceeded:
            assert refused
            return
        assert not refused
        self.model[customer, name] = data
        self.touched.discard((customer, name))
        charged[name] = OVERHEAD + len(data)

    @rule(customer=customers, name=names)
    def get(self, customer, name):
        key = (customer, name)
        try:
            got = self.store.get_object(customer, name, MASTER)
        except NoSuchObject:
            assert key in self.touched or key not in self.model
            return
        except CorruptObject:
            assert key in self.touched
            return
        assert key in self.model and got == self.model[key]

    @rule()
    def restart(self):
        self.store = ObjectStore(self.root)
        assert not list(self.root.glob("*/.tmp-*"))
        for customer in CUSTOMERS:
            listed = self.store.list_objects(customer)
            sizes = {name: (self.root / customer / name).stat().st_size for name in listed}
            assert self.store.used_bytes(customer) == sum(sizes.values())
            self.charged[customer] = sizes

    @invariant()
    def listing_and_totals_follow_the_charges(self):
        for customer in CUSTOMERS:
            charged = self.charged[customer]
            assert self.store.list_objects(customer) == sorted(charged)
            assert self.store.used_bytes(customer) == sum(charged.values())
            # an object whose file the backend left alone stays listed
            for (owner, name) in self.model.keys() - self.touched:
                assert owner != customer or name in charged

    # --- backend rules ---

    @precondition(lambda self: self._files())
    @rule(data=st.data(), region=st.sampled_from(["header", "ciphertext", "tag"]))
    def flip_a_bit(self, data, region):
        path = data.draw(st.sampled_from(self._files()))
        blob = bytearray(path.read_bytes())
        n = len(blob)
        if not n:
            return
        lo, hi = {
            "header": (0, min(OBJECT_HEADER_LEN, n)),
            "ciphertext": (OBJECT_HEADER_LEN, n - OBJECT_TAG_LEN),
            "tag": (max(n - OBJECT_TAG_LEN, 0), n),
        }[region]
        if lo >= hi:  # no such region in this file: anywhere in it
            lo, hi = 0, n
        blob[data.draw(st.integers(lo, hi - 1))] ^= 1 << data.draw(st.integers(0, 7))
        path.write_bytes(blob)
        self._touch(path)

    @precondition(lambda self: self._files())
    @rule(data=st.data())
    def truncate(self, data):
        path = data.draw(st.sampled_from(self._files()))
        blob = path.read_bytes()
        if blob:
            path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
            self._touch(path)

    @precondition(lambda self: self._files())
    @rule(data=st.data(), extra=st.binary(min_size=1, max_size=64))
    def extend(self, data, extra):
        path = data.draw(st.sampled_from(self._files()))
        path.write_bytes(path.read_bytes() + extra)
        self._touch(path)

    @precondition(lambda self: len(self._files()) >= 2)
    @rule(data=st.data())
    def swap_two_files(self, data):
        files = self._files()
        first = data.draw(st.sampled_from(files))
        others = [f for f in files if f.parent == first.parent and f != first]
        if not others:
            return
        second = data.draw(st.sampled_from(others))
        one, two = first.read_bytes(), second.read_bytes()
        first.write_bytes(two)
        second.write_bytes(one)
        self._touch(first)
        self._touch(second)

    @precondition(lambda self: self._files())
    @rule(data=st.data())
    def copy_to_the_other_customer(self, data):
        path = data.draw(st.sampled_from(self._files()))
        (other,) = set(CUSTOMERS) - {path.parent.name}
        target = self.root / other / path.name
        target.parent.mkdir(exist_ok=True)
        shutil.copyfile(path, target)
        self._touch(target)

    @precondition(lambda self: self._files())
    @rule(data=st.data())
    def delete(self, data):
        path = data.draw(st.sampled_from(self._files()))
        path.unlink()
        self._touch(path)

    @rule(customer=customers, contents=st.binary(max_size=64))
    def leave_a_stray_temp_file(self, customer, contents):
        directory = self.root / customer
        directory.mkdir(exist_ok=True)
        (directory / ".tmp-stray").write_bytes(contents)

    @rule(
        customer=customers,
        name=names,
        version=st.sampled_from([0x01, 0x02]),
        data=st.binary(max_size=64),
    )
    def leave_an_older_version_file(self, customer, name, version, data):
        path = self.root / customer / name
        write_cbc_object(path, version, data, MASTER, customer)
        self._touch(path)


HostileBackend.TestCase.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)
TestHostileBackend = HostileBackend.TestCase


@pytest.mark.xfail(
    strict=True,
    raises=pytest.fail.Exception,
    reason="an older file of the same object verifies: README 'Object files' "
    "puts rollback out of scope; ROADMAP item 4 unmarks this",
)
def test_rolled_back_object_file_is_refused(tmp_path):
    store = ObjectStore(tmp_path)
    store.put_object("acme", "ledger", b"balance=100", MASTER, QUOTA)
    path = tmp_path / "acme" / "ledger"
    older = path.read_bytes()
    store.put_object("acme", "ledger", b"balance=5", MASTER, QUOTA)
    path.write_bytes(older)
    # live, and after a restart
    for store in (store, ObjectStore(tmp_path)):
        with pytest.raises(CorruptObject):
            store.get_object("acme", "ledger", MASTER)
