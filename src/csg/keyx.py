"""Establishment of the symmetric session keys and credential hashing.

Finite-field Diffie-Hellman produces a shared secret; the three session
sub-keys (phase-1 auth, phase-2 auth, data) are derived from it by
`sub_key`, domain-separated SHA-256, which also makes the vault's storage
keys. A generated public value comes from a fixed-base table per group,
built on the first draw. Stored passwords use PBKDF2-HMAC-SHA256 (RFC 8018
section 5.2) at PASSWORD_HASH_ITERATIONS.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass
from typing import Callable, Optional

PASSWORD_HASH_ITERATIONS = 10_000
# The registry tag of the stored password hashes: a record without this exact
# tag was hashed some other way and cannot be checked.
PASSWORD_KDF = f"pbkdf2-hmac-sha256/{PASSWORD_HASH_ITERATIONS}"

# Size of a generated private exponent. RFC 3526 section 8 gives group 14 an
# exponent of 220-320 bits, and NIST SP 800-56A Rev. 3 allows 2s = 224 bits
# for its s = 112; the group is a safe-prime group, so a short exponent does
# not open the van Oorschot-Wiener attacks. Each side picks its own, so peers
# that draw full-size exponents still agree with this one.
_PRIVATE_BITS = 256

# Digit width of the fixed-base table: 4-bit digits, 16 entries per row.
_WINDOW_BITS = 4
_DIGIT_MASK = (1 << _WINDOW_BITS) - 1


class EntropyError(Exception):
    """The random source failed or kept producing unusable values."""


class InvalidPublicKey(ValueError):
    """Peer public value outside (1, p-1): 0, 1 and p-1 force a known secret."""


@dataclass(frozen=True)
class DhGroup:
    p: int
    g: int

    def __post_init__(self) -> None:
        if self.p <= 3 or self.p % 2 == 0:
            raise ValueError("modulus must be an odd prime > 3")
        if not 1 < self.g < self.p:
            raise ValueError("generator must satisfy 1 < g < p")

    @property
    def byte_len(self) -> int:
        return (self.p.bit_length() + 7) // 8


# RFC 3526 group 14: 2048-bit MODP safe prime, generator 2.
_MODP14_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF"
)
RFC3526_GROUP14 = DhGroup(p=int(_MODP14_HEX, 16), g=2)

# Tiny group for tests only. It is in no table that a config key, variable
# or flag reads, so a test can only reach it by passing this object.
TEST_SMALL = DhGroup(p=23, g=5)

GROUPS = {"rfc3526-14": RFC3526_GROUP14}


def select_group(name: str) -> DhGroup:
    """The group called `name`; raises ValueError for any other name."""
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}, expected one of {sorted(GROUPS)}")
    return GROUPS[name]


@dataclass(frozen=True)
class DhKeyPair:
    private: int
    public: int


def dh_generate(
    group: DhGroup, *, randbelow: Optional[Callable[[int], int]] = None
) -> DhKeyPair:
    """Generate a keypair with private uniform in [2, min(p-2, 2^256 + 1)]:
    a 256-bit exponent on group 14, and all of [2, p-2] on a smaller group.
    The public value comes from the group's fixed-base table
    (`_fixed_base_pow`), built on the first draw and then cached.

    Privates whose public value is degenerate (1 or p-1) are resampled so
    that peers applying the degenerate-public rejection always interoperate.
    `randbelow` replaces `secrets.randbelow` as the random source.
    """
    draw = randbelow if randbelow is not None else secrets.randbelow
    bound = min(group.p - 3, 1 << _PRIVATE_BITS)
    for _ in range(128):
        try:
            priv = 2 + draw(bound)
        except Exception as exc:
            raise EntropyError(f"random source failed: {exc}") from exc
        if not 2 <= priv <= bound + 1:
            raise EntropyError("random source returned an out-of-range value")
        pub = _fixed_base_pow(group, priv)
        if 1 < pub < group.p - 1:
            return DhKeyPair(priv, pub)
    raise EntropyError("random source kept producing degenerate key pairs")


@functools.cache
def _fixed_base_table(group: DhGroup) -> tuple[tuple[int, ...], ...]:
    """Row i holds g^(d * 16^i) mod p for d = 0..15, with enough rows for
    every private `dh_generate` draws: 65 rows (about 290 KiB) on group 14.
    Fixed-base windowing, Brickell, Gordon, McCurley and Wilson, EUROCRYPT
    '92; HAC Algorithm 14.109."""
    top = min(group.p - 2, (1 << _PRIVATE_BITS) + 1)
    rows = []
    base = group.g  # g^(16^i)
    for _ in range(-(-top.bit_length() // _WINDOW_BITS)):
        row = [1]
        for _ in range(_DIGIT_MASK):
            row.append(row[-1] * base % group.p)
        rows.append(tuple(row))
        base = row[-1] * base % group.p
    return tuple(rows)


def _fixed_base_pow(group: DhGroup, exponent: int) -> int:
    """g^exponent mod p as one table product per 4-bit digit of the
    exponent; equals pow(g, exponent, p) for 0 <= exponent < 16^rows."""
    result = 1
    for row in _fixed_base_table(group):
        result = result * row[exponent & _DIGIT_MASK] % group.p
        exponent >>= _WINDOW_BITS
    if exponent:
        raise ValueError("exponent exceeds the fixed-base table")
    return result


def check_public(peer_public: int, group: DhGroup) -> None:
    """Raise InvalidPublicKey unless 1 < peer_public < p-1."""
    if not 1 < peer_public < group.p - 1:
        raise InvalidPublicKey(f"peer public value {peer_public} is degenerate")


def dh_shared(own: DhKeyPair, peer_public: int, group: DhGroup) -> bytes:
    """Shared secret peer_public^private mod p, big-endian, zero-padded to
    the modulus length."""
    check_public(peer_public, group)
    shared = pow(peer_public, own.private, group.p)
    return shared.to_bytes(group.byte_len, "big")


@dataclass(frozen=True)
class SessionKeys:
    k_phase1: bytes
    k_phase2: bytes
    k_data: bytes


def sub_key(secret: bytes, label: bytes, size: int = 16) -> bytes:
    """The first `size` bytes of SHA-256(secret || label)."""
    return hashlib.sha256(secret + label).digest()[:size]


def derive_keys(shared: bytes) -> SessionKeys:
    """Derive the three pairwise-distinct 16-byte sub-keys from the shared
    secret: sub_key(shared, context) for each context."""
    if not shared:
        raise ValueError("shared secret must be non-empty")
    return SessionKeys(
        k_phase1=sub_key(shared, b"phase1"),
        k_phase2=sub_key(shared, b"phase2"),
        k_data=sub_key(shared, b"data"),
    )


def hash_password(password: str, salt: bytes) -> bytes:
    """PBKDF2-HMAC-SHA256 (RFC 8018 section 5.2) of the UTF-8 password
    under a 16-byte salt for stored credentials; returns 32 bytes. It runs
    PASSWORD_HASH_ITERATIONS, the count the registry's PASSWORD_KDF tag
    names. Each iteration costs two SHA-256 compressions, in OpenSSL's loop.
    """
    if len(salt) != 16:
        raise ValueError("salt must be exactly 16 bytes")
    return hashlib.pbkdf2_hmac(
        "sha256", password.encode("utf-8"), salt, PASSWORD_HASH_ITERATIONS
    )
