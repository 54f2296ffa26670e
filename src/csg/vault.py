"""Server-side registry of customers, contracts and credentials, plus the
encrypted per-customer object store.

Registry file: UTF-8, one JSON object per line, binary fields hex-encoded
lowercase, each line tagged `"kdf": keyx.PASSWORD_KDF`.

Object file layout (version 0x03): magic "CSG1", version byte, 16-byte
random initial counter, u64 big-endian plaintext length, the AES-128-CTR
ciphertext (as long as the plaintext; only csg.aes advances the counter),
then a 32-byte HMAC-SHA256 tag. The tag covers the customer id, the object
name, the header and the ciphertext (encrypt-then-MAC), so a file that was
altered, renamed, or moved to another customer does not verify; it is
checked before anything is decrypted. The file size must be 29 + length +
32. No other version is read: a file of version 0x02 or 0x01 (CBC, no
tag), or of any other version, is a CorruptObject, and the startup scan
skips it.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import json
import os
import struct
import threading
from typing import Iterable, Iterator, NamedTuple

from . import aes
from .keyx import HASH_LEN, PASSWORD_KDF, SALT_LEN, hash_password, sub_key

STORAGE_RIGHT = "storage"

OBJECT_MAGIC = b"CSG1"
OBJECT_VERSION = 0x03
# magic, version byte, 16-byte initial counter, u64 plaintext length
_OBJECT_HEADER = struct.Struct(">4sB16sQ")
OBJECT_HEADER_LEN = _OBJECT_HEADER.size
OBJECT_TAG_LEN = 32  # HMAC-SHA256, after the ciphertext

_TMP_PREFIX = ".tmp-"  # reserved for atomic writes; not a legal object name
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL

# the registry's binary fields, hex on a line, and their sizes in bytes
_HEX_FIELDS = {
    "tunnel_salt": SALT_LEN,
    "tunnel_hash": HASH_LEN,
    "service_salt": SALT_LEN,
    "service_hash": HASH_LEN,
}


class ParseError(ValueError):
    """Registry file line does not parse; message names the line number."""


class DuplicateUser(ValueError):
    pass


class AuthFailed(Exception):
    """Unknown user or bad password, deliberately indistinguishable."""


class InvalidName(ValueError):
    pass


class QuotaExceeded(Exception):
    """A put would take the customer's object files past its quota, which
    bounds their bytes on disk: header, ciphertext and tag."""


class NoSuchObject(Exception):
    pass


class CorruptObject(Exception):
    """Bad magic, a version other than 0x03, a length that disagrees with
    the file size, or a tag that does not verify: the file was altered, or
    holds another object or another customer's object."""


class CertVerdict(enum.Enum):
    VALID = "valid"
    NOT_YET_VALID = "not-yet-valid"
    EXPIRED = "expired"
    REVOKED = "revoked"
    RIGHTS_MISSING = "rights-missing"


class Certificate(NamedTuple):
    customer_id: str
    issued_at: int
    last_update: int
    expiry_date: int
    rights: tuple[str, ...]
    revoked: bool = False


class CustomerRecord(NamedTuple):
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
    """Revocation beats a start in the future, which beats expiry, which
    beats missing rights. Validity runs from issued_at, inclusive, to
    expiry_date, exclusive (now >= expiry_date is already expired), as
    notBefore and notAfter bound it in RFC 5280 4.1.2.5."""
    if cert.revoked:
        return CertVerdict.REVOKED
    if now < cert.issued_at:
        return CertVerdict.NOT_YET_VALID
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
    tunnel_salt = os.urandom(SALT_LEN)
    service_salt = os.urandom(SALT_LEN)
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


# the login an unknown user is checked against: a hash and a compare run as
# for a known user, so timing does not reveal whether the user exists
_NO_LOGIN = (None, bytes(SALT_LEN), bytes(HASH_LEN))


class Registry:
    """Read-mostly customer registry; immutable once loaded. Both logins
    live in one table, kind ("tunnel" or "service") -> user -> (customer
    id, salt, hash)."""

    def __init__(self, records: Iterable[CustomerRecord] = ()):
        self._by_id: dict[str, CustomerRecord] = {}
        self._logins: dict[str, dict[str, tuple[str, bytes, bytes]]] = {"tunnel": {}, "service": {}}
        for record in records:
            self.add(record)

    def add(self, record: CustomerRecord) -> None:
        entries = {
            "tunnel": (record.tunnel_user, record.tunnel_salt, record.tunnel_hash),
            "service": (record.service_user, record.service_salt, record.service_hash),
        }
        if record.customer_id in self._by_id:
            raise DuplicateUser(f"duplicate customer_id {record.customer_id!r}")
        for kind, (user, _salt, _hash) in entries.items():
            if user in self._logins[kind]:
                raise DuplicateUser(f"duplicate {kind}_user {user!r}")
        self._by_id[record.customer_id] = record
        for kind, (user, salt, digest) in entries.items():
            self._logins[kind][user] = (record.customer_id, salt, digest)

    def get(self, customer_id: str) -> CustomerRecord:
        return self._by_id[customer_id]

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[CustomerRecord]:
        return iter(self._by_id.values())

    def check_credentials(self, kind: str, user: str, password: str) -> str:
        """Verify one credential pair; returns the customer_id.

        Unknown user and wrong password raise the same AuthFailed, and both
        paths hash once and compare once, so timing does not reveal whether
        the user exists. An unknown kind is a ValueError, before any hash.
        """
        logins = self._logins.get(kind)
        if logins is None:
            raise ValueError(f"unknown credential kind {kind!r}")
        customer_id, salt, expected = logins.get(user, _NO_LOGIN)
        ok = hmac.compare_digest(hash_password(password, salt), expected)
        if customer_id is None or not ok:
            raise AuthFailed("auth failed")
        return customer_id


def _record_to_json(record: CustomerRecord) -> dict:
    obj = record._asdict()
    obj["certificate"] = record.certificate._asdict()
    for key in _HEX_FIELDS:
        obj[key] = obj[key].hex()
    obj["kdf"] = PASSWORD_KDF
    return obj


def _typed(obj: dict, key: str, kind: type):
    """obj[key], which must have parsed from JSON as exactly `kind` (so an
    int field never takes a bool, and a bool field never takes a string)."""
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _hex_bytes(obj: dict, key: str, size: int) -> bytes:
    raw = bytes.fromhex(_typed(obj, key, str))
    if len(raw) != size:
        raise ValueError(f"{key} must be {size} bytes, not {len(raw)}")
    return raw


def _record_from_json(obj: dict) -> CustomerRecord:
    """Raises ValueError, KeyError or TypeError on a missing, mistyped or
    wrongly sized field, a customer id the store refuses, a certificate
    issued to another customer, or a `kdf` tag other than PASSWORD_KDF."""
    customer_id = _typed(obj, "customer_id", str)
    _validate_customer_id(customer_id)
    if obj.get("kdf") != PASSWORD_KDF:
        found = repr(obj["kdf"]) if "kdf" in obj else "missing"
        raise ValueError(
            f"kdf must be {PASSWORD_KDF!r}, not {found}: the password hashes"
            " were made another way; re-provision this customer"
        )
    cert = _typed(obj, "certificate", dict)
    if _typed(cert, "customer_id", str) != customer_id:
        raise ValueError(f"certificate customer_id is not {customer_id!r}")
    rights = _typed(cert, "rights", list)
    if not all(type(right) is str for right in rights):
        raise ValueError("rights must be a list of strings")
    return CustomerRecord(
        customer_id=customer_id,
        tunnel_user=_typed(obj, "tunnel_user", str),
        service_user=_typed(obj, "service_user", str),
        **{key: _hex_bytes(obj, key, size) for key, size in _HEX_FIELDS.items()},
        space_path=_typed(obj, "space_path", str),
        certificate=Certificate(
            customer_id=customer_id,
            issued_at=_typed(cert, "issued_at", int),
            last_update=_typed(cert, "last_update", int),
            expiry_date=_typed(cert, "expiry_date", int),
            rights=tuple(rights),
            revoked=_typed(cert, "revoked", bool),
        ),
        quota_bytes=_typed(obj, "quota_bytes", int),
    )


def load_registry(path: str | os.PathLike[str]) -> Registry:
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


def save_registry(registry: Registry, path: str | os.PathLike[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in registry:
            fh.write(json.dumps(_record_to_json(record), sort_keys=True) + "\n")


def storage_key(master_key: bytes, customer_id: str) -> bytes:
    """Per-customer at-rest key: first 16 bytes of
    SHA-256(master_key || customer_id || "storage")."""
    return sub_key(master_key + customer_id.encode("utf-8"), b"storage")


def storage_mac_key(master_key: bytes, customer_id: str) -> bytes:
    """Per-customer key of the object tag: SHA-256(master_key || customer_id
    || "storage-mac"). Its label ends in another byte than storage_key's, so
    the two hash inputs never coincide."""
    return sub_key(master_key + customer_id.encode("utf-8"), b"storage-mac", 32)


def _object_mac(master_key: bytes, customer_id: str, name: str, header: bytes) -> hmac.HMAC:
    """The object tag's HMAC-SHA256 under storage_mac_key, fed the customer
    id and the object name, each UTF-8 with a u16 length prefix, then the
    fixed-length header. The caller feeds it the ciphertext, whose length
    the header gives, and its digest is the tag."""
    mac = hmac.new(storage_mac_key(master_key, customer_id), digestmod=hashlib.sha256)
    for field in (customer_id, name):
        raw = field.encode("utf-8")
        mac.update(struct.pack(">H", len(raw)) + raw)
    mac.update(header)
    return mac


def _check_component(value: str, what: str, max_bytes: int, error: type[ValueError]) -> None:
    """Raise `error` unless `value` can be one path component under the
    store's root: not empty, "." or "..", no "/", "\\" or NUL, and at most
    `max_bytes` in UTF-8."""
    if value in ("", ".", "..") or "/" in value or "\\" in value or "\x00" in value:
        raise error(f"invalid {what} {value!r}")
    if len(value.encode("utf-8")) > max_bytes:
        raise error(f"{what} too long: over {max_bytes} UTF-8 bytes")


def validate_object_name(name: str) -> None:
    """Raise InvalidName for a name the store refuses; the client checks a
    put name with it before encrypting the object."""
    _check_component(name, "object name", 255, InvalidName)
    if name.startswith(_TMP_PREFIX):
        raise InvalidName(f"object name prefix {_TMP_PREFIX!r} is reserved")


def _parse_header(header: bytes, file_size: int) -> bytes:
    """Check an object header against the size of its file.

    Returns the initial counter. Raises CorruptObject.
    """
    if len(header) < OBJECT_HEADER_LEN:
        raise CorruptObject("object file shorter than its header")
    magic, version, counter, size = _OBJECT_HEADER.unpack_from(header)
    if magic != OBJECT_MAGIC:
        raise CorruptObject("bad magic")
    if version != OBJECT_VERSION:
        raise CorruptObject(f"unsupported object version 0x{version:02x}")
    if file_size != OBJECT_HEADER_LEN + size + OBJECT_TAG_LEN:
        raise CorruptObject("ciphertext length does not match the header")
    return counter


def _write_all(fd: int, buffers: list) -> None:
    """Write every byte of `buffers` to fd in order, with one os.writev
    when the kernel takes them all; a short write resumes where it
    stopped. It leaves `buffers` empty."""
    while buffers:
        done = os.writev(fd, buffers)
        while buffers and done >= len(buffers[0]):
            done -= len(buffers.pop(0))
        if buffers:
            buffers[0] = memoryview(buffers[0])[done:]


def _validate_customer_id(customer_id: str) -> None:
    _check_component(customer_id, "customer id", 200, ValueError)


class ObjectStore:
    """Encrypted blob store under root/<customer_id>/<name>.

    Every blob is independently CTR-encrypted under the customer's derived
    storage key from a fresh random counter, and tagged with HMAC-SHA256
    under a second derived key. Each file's header carries the exact
    plaintext length, so the object file is the only record of its size:
    there is no index beside it. The quota charges each object its file
    size, header and tag included, and its totals are rebuilt from the
    checked headers at startup, which reads no tag. Only version 0x03 is
    read: a file of any other version is a CorruptObject, and the scan skips
    it, so it is neither listed nor counted toward the quota; `scan_skipped`
    counts such files.

    Writes go through a temp file + atomic rename, which commits content and
    size together. The temp file, `.tmp-<counter hex>` beside the object,
    is named by the put's fresh counter and made with O_EXCL and mode 0600;
    the customer's directory is made only when that open finds it missing.
    The temp file is written outside the store-wide lock, which covers only
    the quota checks, the rename and the totals, so a slow write holds up
    no other put or listing. A failed write or rename removes its temp file
    and counts nothing to the quota; one left by a crash is removed by the
    next startup scan (`scan_removed`). No write is synced to disk (`fsync`).

    The root, kept as given, is reached through `os` calls alone. Object
    files are reached through bare descriptors (os.open, os.writev,
    os.readv), not through `io` file objects, since each system call on a
    gateway session thread can wait out a GIL switch interval on its return:
    a 1 KiB put opens, writes, closes and renames, and a get opens, sizes,
    reads and closes.

    The store is the only writer of its directories, so the size table is
    also the listing: `list_objects` reads no directory. A file deleted by
    hand while the store runs stays listed and charged until the next
    startup scan; a get of it is a NoSuchObject. A customer directory
    removed by hand is made again by the customer's next put.

    A put allocates no buffer of its own: it streams the ciphertext to its
    file with one os.writev per cipher chunk, as aes.ctr_stream yields it,
    the header going out with the first chunk and the tag with the last; a
    short write resumes where it stopped. A get holds one object-sized
    buffer, the file image: it reads the file into it with one os.readv and
    returns a view of the plaintext decrypted there in place. Neither
    writes a buffer it was handed.
    """

    def __init__(self, root: str | os.PathLike[str]):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.Lock()
        self._sizes: dict[str, dict[str, int]] = {}  # object file sizes
        self._used: dict[str, int] = {}  # per customer, the sum of its sizes
        self.scan_skipped = 0  # object files the startup scan could not read
        self.scan_removed = 0  # temp files of cut-off writes it removed
        self._scan()

    # --- startup scan ---

    def _dir(self, customer_id: str) -> str:
        return os.path.join(self.root, customer_id)

    def _scan(self) -> None:
        """Rebuild the file-size table from checked object headers.
        Unreadable or corrupt files are skipped, and `.tmp-*` files, left by
        a write cut off before its rename, are removed; both are counted."""
        with os.scandir(self.root) as entries:
            customers = [entry for entry in entries if entry.is_dir()]
        for customer in customers:
            with os.scandir(customer.path) as entries:
                files = [entry for entry in entries if entry.is_file()]
            sizes: dict[str, int] = {}
            for f in files:
                try:
                    if f.name.startswith(_TMP_PREFIX):
                        os.unlink(f.path)
                        self.scan_removed += 1
                        continue
                    fd = os.open(f.path, os.O_RDONLY)
                    try:
                        header = os.read(fd, OBJECT_HEADER_LEN)
                        file_size = os.fstat(fd).st_size
                    finally:
                        os.close(fd)
                    _parse_header(header, file_size)
                    sizes[f.name] = file_size
                except (OSError, CorruptObject):
                    self.scan_skipped += 1
            if sizes:
                self._sizes[customer.name] = sizes
                self._used[customer.name] = sum(sizes.values())

    # --- operations ---

    def _check_quota(self, customer_id: str, name: str, file_size: int, quota_bytes: int) -> int:
        """The customer's bytes on disk without `name`'s file; raises
        QuotaExceeded when a `file_size`-byte file in its place would exceed
        `quota_bytes`. The caller holds the lock."""
        used = self._used.get(customer_id, 0) - self._sizes.get(customer_id, {}).get(name, 0)
        if used + file_size > quota_bytes:
            raise QuotaExceeded(
                f"storing a {file_size}-byte object file would exceed the "
                f"{quota_bytes}-byte quota"
            )
        return used

    def put_object(
        self,
        customer_id: str,
        name: str,
        plaintext: bytes,
        master_key: bytes,
        quota_bytes: int,
    ) -> None:
        """Encrypt and store one object atomically; overwrites a same-named
        object. Raises QuotaExceeded when the customer's object files,
        counted at their size on disk, would exceed `quota_bytes`: an empty
        object still costs its 61-byte header and tag. A put the quota
        refuses at its start costs no encryption; the check under the lock,
        before the rename, is the one that holds.

        The object streams to its temp file, header first and tag last,
        outside the lock: each piece aes.ctr_stream yields is fed to the tag
        and written. `plaintext` is only read."""
        _validate_customer_id(customer_id)
        validate_object_name(name)
        size = len(plaintext)
        file_size = OBJECT_HEADER_LEN + size + OBJECT_TAG_LEN
        with self._lock:
            self._check_quota(customer_id, name, file_size, quota_bytes)
        schedule = aes.key_expansion(storage_key(master_key, customer_id))
        counter = os.urandom(aes.BLOCK_SIZE)
        header = _OBJECT_HEADER.pack(OBJECT_MAGIC, OBJECT_VERSION, counter, size)
        mac = _object_mac(master_key, customer_id, name, header)
        directory = self._dir(customer_id)
        # the counter is fresh for every put, so it names the temp file too
        tmp = os.path.join(directory, _TMP_PREFIX + counter.hex())
        try:
            fd = os.open(tmp, _CREATE_FLAGS, 0o600)
        except FileNotFoundError:  # the customer's first put, or its directory was removed
            os.makedirs(directory, exist_ok=True)
            fd = os.open(tmp, _CREATE_FLAGS, 0o600)
        try:
            try:
                # the header goes out with the first piece, the tag with the
                # last: an object of one cipher chunk is one write
                buffers = [header]
                written = 0
                for piece in aes.ctr_stream(plaintext, schedule, counter):
                    mac.update(piece)
                    buffers.append(piece)
                    written += len(piece)
                    if written < size:
                        _write_all(fd, buffers)  # and empties it
                buffers.append(mac.digest())
                _write_all(fd, buffers)
            finally:
                os.close(fd)
            with self._lock:
                used = self._check_quota(customer_id, name, file_size, quota_bytes)
                os.replace(tmp, os.path.join(directory, name))
                self._sizes.setdefault(customer_id, {})[name] = file_size
                self._used[customer_id] = used + file_size
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    def get_object(self, customer_id: str, name: str, master_key: bytes) -> memoryview:
        """Read, verify and decrypt one object; byte-exact inverse of
        put_object. The tag is checked before anything is decrypted.

        The file is read into one buffer and decrypted there in place; the
        result is a memoryview of the plaintext in that buffer."""
        _validate_customer_id(customer_id)
        validate_object_name(name)
        try:
            fd = os.open(os.path.join(self._dir(customer_id), name), os.O_RDONLY)
        except FileNotFoundError:
            raise NoSuchObject(f"no object named {name!r}") from None
        try:
            blob = memoryview(bytearray(os.fstat(fd).st_size))
            if os.readv(fd, [blob]) != len(blob):
                raise CorruptObject("object file shorter than its size")
        finally:
            os.close(fd)
        header = blob[:OBJECT_HEADER_LEN]
        counter = _parse_header(header, len(blob))
        body = blob[OBJECT_HEADER_LEN:-OBJECT_TAG_LEN]
        mac = _object_mac(master_key, customer_id, name, header)
        mac.update(body)
        if not hmac.compare_digest(mac.digest(), blob[-OBJECT_TAG_LEN:]):
            raise CorruptObject("object tag does not verify")
        schedule = aes.key_expansion(storage_key(master_key, customer_id))
        aes.ctr_crypt(body, schedule, counter)
        return body

    def list_objects(self, customer_id: str) -> list[str]:
        """Object names in lexicographic byte order, read from the size
        table; empty for a customer that has never stored anything."""
        _validate_customer_id(customer_id)
        if not os.path.isdir(self.root):
            raise FileNotFoundError(f"object store root missing: {self.root}")
        with self._lock:
            return sorted(self._sizes.get(customer_id, ()))

    def used_bytes(self, customer_id: str) -> int:
        with self._lock:
            return self._used.get(customer_id, 0)
