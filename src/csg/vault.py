"""Server-side registry of customers, contracts and credentials, plus the
encrypted per-customer object store.

Registry file: UTF-8, one JSON object per line, binary fields hex-encoded
lowercase. Object file layout (version 0x02): magic "CSG1", version byte,
16-byte IV, u64 big-endian plaintext length, CBC ciphertext. The ciphertext
length follows from the plaintext length (PKCS#7 always adds 1 to 16 bytes)
and must match the file size. Version 0x01 files, whose u64 holds the
ciphertext length instead, are still read but never written.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import json
import os
import struct
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from . import aes
from .keyx import PASSWORD_HASH_ITERATIONS, hash_password

STORAGE_RIGHT = "storage"

OBJECT_MAGIC = b"CSG1"
OBJECT_VERSION = 0x02
OBJECT_VERSION_V1 = 0x01  # read-only; its u64 is the ciphertext length
OBJECT_HEADER_LEN = 29  # magic(4) + version(1) + iv(16) + length(8)

_TMP_PREFIX = ".tmp-"  # reserved for atomic writes; not a legal object name


class ParseError(ValueError):
    """Registry file line does not parse; message names the line number."""


class DuplicateUser(ValueError):
    pass


class AuthFailed(Exception):
    """Unknown user or bad password, deliberately indistinguishable."""


class InvalidName(ValueError):
    pass


class QuotaExceeded(Exception):
    pass


class NoSuchObject(Exception):
    pass


class CorruptObject(Exception):
    """Bad magic or version, a length that disagrees with the file or the
    decrypted plaintext, or a padding failure on decrypt."""


class CertVerdict(enum.Enum):
    VALID = "valid"
    EXPIRED = "expired"
    REVOKED = "revoked"
    RIGHTS_MISSING = "rights-missing"


@dataclass(frozen=True)
class Certificate:
    customer_id: str
    issued_at: int
    last_update: int
    expiry_date: int
    rights: tuple[str, ...]
    revoked: bool = False


@dataclass(frozen=True)
class CustomerRecord:
    customer_id: str
    tunnel_user: str
    tunnel_salt: bytes
    tunnel_hash: bytes
    service_user: str
    service_salt: bytes
    service_hash: bytes
    space_path: str
    certificate: Certificate
    quota_bytes: int


def check_certificate(cert: Certificate, now: int) -> CertVerdict:
    """Revocation beats expiry beats missing rights; expiry is inclusive
    (now >= expiry_date is already expired)."""
    if cert.revoked:
        return CertVerdict.REVOKED
    if now >= cert.expiry_date:
        return CertVerdict.EXPIRED
    if STORAGE_RIGHT not in cert.rights:
        return CertVerdict.RIGHTS_MISSING
    return CertVerdict.VALID


def make_customer_record(
    customer_id: str,
    tunnel_user: str,
    tunnel_password: str,
    service_user: str,
    service_password: str,
    space_path: str,
    certificate: Certificate,
    quota_bytes: int,
) -> CustomerRecord:
    """Provisioning helper: draws fresh independent salts and hashes the
    two passwords for storage."""
    tunnel_salt = os.urandom(16)
    service_salt = os.urandom(16)
    return CustomerRecord(
        customer_id=customer_id,
        tunnel_user=tunnel_user,
        tunnel_salt=tunnel_salt,
        tunnel_hash=hash_password(tunnel_password, tunnel_salt),
        service_user=service_user,
        service_salt=service_salt,
        service_hash=hash_password(service_password, service_salt),
        space_path=space_path,
        certificate=certificate,
        quota_bytes=quota_bytes,
    )


class Registry:
    """Read-mostly customer registry; immutable once loaded."""

    def __init__(self, records: Iterable[CustomerRecord] = ()):
        self._by_id: dict[str, CustomerRecord] = {}
        self._by_tunnel_user: dict[str, CustomerRecord] = {}
        self._by_service_user: dict[str, CustomerRecord] = {}
        # dummy credentials keep the unknown-user path the same shape as the
        # known-user path (hash + compare always run)
        self._dummy_salt = bytes(16)
        self._dummy_hash = bytes(32)
        for record in records:
            self.add(record)

    def add(self, record: CustomerRecord) -> None:
        if record.customer_id in self._by_id:
            raise DuplicateUser(f"duplicate customer_id {record.customer_id!r}")
        if record.tunnel_user in self._by_tunnel_user:
            raise DuplicateUser(f"duplicate tunnel_user {record.tunnel_user!r}")
        if record.service_user in self._by_service_user:
            raise DuplicateUser(f"duplicate service_user {record.service_user!r}")
        self._by_id[record.customer_id] = record
        self._by_tunnel_user[record.tunnel_user] = record
        self._by_service_user[record.service_user] = record

    def get(self, customer_id: str) -> CustomerRecord:
        return self._by_id[customer_id]

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[CustomerRecord]:
        return iter(self._by_id.values())

    def check_credentials(self, kind: str, user: str, password: str) -> str:
        """Verify one credential pair; returns the customer_id.

        Unknown user and wrong password raise the same AuthFailed, and both
        paths hash and compare against a same-shape target so timing does
        not reveal whether the user exists.
        """
        if kind == "tunnel":
            record = self._by_tunnel_user.get(user)
            salt = record.tunnel_salt if record else self._dummy_salt
            expected = record.tunnel_hash if record else self._dummy_hash
        elif kind == "service":
            record = self._by_service_user.get(user)
            salt = record.service_salt if record else self._dummy_salt
            expected = record.service_hash if record else self._dummy_hash
        else:
            raise ValueError(f"unknown credential kind {kind!r}")
        digest = hash_password(password, salt, PASSWORD_HASH_ITERATIONS)
        ok = hmac.compare_digest(digest, expected)
        if record is None or not ok:
            raise AuthFailed("auth failed")
        return record.customer_id


def _cert_to_json(cert: Certificate) -> dict:
    return {
        "customer_id": cert.customer_id,
        "issued_at": cert.issued_at,
        "last_update": cert.last_update,
        "expiry_date": cert.expiry_date,
        "rights": list(cert.rights),
        "revoked": cert.revoked,
    }


def _record_to_json(record: CustomerRecord) -> dict:
    return {
        "customer_id": record.customer_id,
        "tunnel_user": record.tunnel_user,
        "tunnel_salt": record.tunnel_salt.hex(),
        "tunnel_hash": record.tunnel_hash.hex(),
        "service_user": record.service_user,
        "service_salt": record.service_salt.hex(),
        "service_hash": record.service_hash.hex(),
        "space_path": record.space_path,
        "certificate": _cert_to_json(record.certificate),
        "quota_bytes": record.quota_bytes,
    }


def _record_from_json(obj: dict) -> CustomerRecord:
    cert = obj["certificate"]
    return CustomerRecord(
        customer_id=str(obj["customer_id"]),
        tunnel_user=str(obj["tunnel_user"]),
        tunnel_salt=bytes.fromhex(obj["tunnel_salt"]),
        tunnel_hash=bytes.fromhex(obj["tunnel_hash"]),
        service_user=str(obj["service_user"]),
        service_salt=bytes.fromhex(obj["service_salt"]),
        service_hash=bytes.fromhex(obj["service_hash"]),
        space_path=str(obj["space_path"]),
        certificate=Certificate(
            customer_id=str(cert["customer_id"]),
            issued_at=int(cert["issued_at"]),
            last_update=int(cert["last_update"]),
            expiry_date=int(cert["expiry_date"]),
            rights=tuple(str(r) for r in cert["rights"]),
            revoked=bool(cert["revoked"]),
        ),
        quota_bytes=int(obj["quota_bytes"]),
    )


def load_registry(path: str | Path) -> Registry:
    registry = Registry()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                record = _record_from_json(obj)
            except (ValueError, KeyError, TypeError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            registry.add(record)
    return registry


def save_registry(registry: Registry, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in registry:
            fh.write(json.dumps(_record_to_json(record), sort_keys=True) + "\n")


def storage_key(master_key: bytes, customer_id: str) -> bytes:
    """Per-customer at-rest key: first 16 bytes of
    SHA-256(master_key || customer_id || "storage")."""
    return hashlib.sha256(
        master_key + customer_id.encode("utf-8") + b"storage"
    ).digest()[:16]


def _validate_object_name(name: str) -> None:
    if not name or name in (".", ".."):
        raise InvalidName(f"object name {name!r} is reserved or empty")
    if "/" in name or "\\" in name or "\x00" in name:
        raise InvalidName(f"object name {name!r} contains forbidden characters")
    if len(name.encode("utf-8")) > 255:
        raise InvalidName("object name exceeds 255 UTF-8 bytes")
    if name.startswith(_TMP_PREFIX):
        raise InvalidName(f"object name prefix {_TMP_PREFIX!r} is reserved")


def _parse_header(header: bytes, file_size: int) -> tuple[bytes, int, bool]:
    """Check an object header against the size of its file.

    Returns (iv, size, exact). For version 0x02 the size is the exact
    plaintext length, which the decrypted object must match. For version
    0x01 it is the ciphertext length, a conservative estimate, and exact is
    False. Raises CorruptObject.
    """
    if len(header) < OBJECT_HEADER_LEN:
        raise CorruptObject("object file shorter than its header")
    if header[:4] != OBJECT_MAGIC:
        raise CorruptObject("bad magic")
    version = header[4]
    (size,) = struct.unpack(">Q", header[21:29])
    if version == OBJECT_VERSION:
        ct_len = aes.padded_len(size)
    elif version == OBJECT_VERSION_V1:
        if size == 0 or size % aes.BLOCK_SIZE != 0:
            raise CorruptObject("v1 ciphertext length is not a positive multiple of 16")
        ct_len = size
    else:
        raise CorruptObject(f"unsupported object version 0x{version:02x}")
    if file_size != OBJECT_HEADER_LEN + ct_len:
        raise CorruptObject("ciphertext length does not match the header")
    return header[5:21], size, version == OBJECT_VERSION


def _validate_customer_id(customer_id: str) -> None:
    if not customer_id or customer_id in (".", ".."):
        raise ValueError(f"invalid customer id {customer_id!r}")
    if "/" in customer_id or "\\" in customer_id or "\x00" in customer_id:
        raise ValueError(f"invalid customer id {customer_id!r}")
    if len(customer_id.encode("utf-8")) > 200:
        raise ValueError("customer id too long")


class ObjectStore:
    """Encrypted blob store under root/<customer_id>/<name>.

    Every blob is independently CBC-encrypted under the customer's derived
    storage key with a fresh IV. Each file's header carries the exact
    plaintext length, so the object file is the only record of its size:
    there is no index beside it, and quota totals are rebuilt from the
    headers at startup. Version 0x01 files are read but never written; they
    count at their ciphertext length.

    Writes go through a temp file + atomic rename, which commits content and
    size together, and are serialized by one coarse store-wide lock.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._sizes: dict[str, dict[str, int]] = {}
        self._scan()

    # --- startup scan ---

    def _dir(self, customer_id: str) -> Path:
        return self.root / customer_id

    def _scan(self) -> None:
        """Rebuild the size table from object headers; unreadable or corrupt
        files are skipped."""
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir():
                continue
            sizes: dict[str, int] = {}
            for f in sorted(entry.iterdir()):
                if not f.is_file() or f.name.startswith(_TMP_PREFIX):
                    continue
                try:
                    with open(f, "rb") as fh:
                        header = fh.read(OBJECT_HEADER_LEN)
                        file_size = os.fstat(fh.fileno()).st_size
                    sizes[f.name] = _parse_header(header, file_size)[1]
                except (OSError, CorruptObject):
                    continue
            if sizes:
                self._sizes[entry.name] = sizes

    # --- operations ---

    def put_object(
        self,
        customer_id: str,
        name: str,
        plaintext: bytes,
        master_key: bytes,
        quota_bytes: int,
    ) -> None:
        """Encrypt and store one object atomically; overwrites a same-named
        object; refuses when cumulative plaintext would exceed the quota."""
        _validate_customer_id(customer_id)
        _validate_object_name(name)
        schedule = aes.key_expansion(storage_key(master_key, customer_id))
        iv = os.urandom(16)
        ciphertext = aes.cbc_encrypt(plaintext, schedule, iv)
        blob = (
            OBJECT_MAGIC
            + bytes([OBJECT_VERSION])
            + iv
            + struct.pack(">Q", len(plaintext))
            + ciphertext
        )
        with self._lock:
            sizes = self._sizes.setdefault(customer_id, {})
            used = sum(sizes.values()) - sizes.get(name, 0)
            if used + len(plaintext) > quota_bytes:
                if not sizes:
                    del self._sizes[customer_id]
                raise QuotaExceeded(
                    f"storing {len(plaintext)} bytes would exceed the "
                    f"{quota_bytes}-byte quota"
                )
            directory = self._dir(customer_id)
            directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=_TMP_PREFIX, dir=directory)
            try:
                os.write(fd, blob)
            finally:
                os.close(fd)
            os.replace(tmp, directory / name)
            sizes[name] = len(plaintext)

    def get_object(self, customer_id: str, name: str, master_key: bytes) -> bytes:
        """Read, verify and decrypt one object; byte-exact inverse of
        put_object."""
        _validate_customer_id(customer_id)
        _validate_object_name(name)
        path = self._dir(customer_id) / name
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            raise NoSuchObject(f"no object named {name!r}") from None
        iv, size, exact = _parse_header(blob[:OBJECT_HEADER_LEN], len(blob))
        schedule = aes.key_expansion(storage_key(master_key, customer_id))
        try:
            plaintext = aes.cbc_decrypt(blob[OBJECT_HEADER_LEN:], schedule, iv)
        except (aes.LengthError, aes.PaddingError) as exc:
            raise CorruptObject(f"decryption failed: {exc}") from None
        if exact and len(plaintext) != size:
            raise CorruptObject("plaintext length does not match the header")
        return plaintext

    def list_objects(self, customer_id: str) -> list[str]:
        """Object names in lexicographic byte order; empty for a customer
        that has never stored anything."""
        _validate_customer_id(customer_id)
        with self._lock:
            known = self._sizes.get(customer_id)
            if not known:
                if not self.root.is_dir():
                    raise FileNotFoundError(f"object store root missing: {self.root}")
                return []
            on_disk = os.listdir(self._dir(customer_id))  # OSError if deleted
            return sorted(name for name in on_disk if name in known)

    def used_bytes(self, customer_id: str) -> int:
        with self._lock:
            return sum(self._sizes.get(customer_id, {}).values())
