"""Establishment of the symmetric session keys and credential hashing.

Finite-field Diffie-Hellman over RFC 3526 group 14 (`RFC3526_GROUP14`, the
one group outside tests) produces a shared secret; the three session
sub-keys (phase-1 auth, phase-2 auth, data) are derived from it by
`sub_key`, domain-separated SHA-256, which also makes the vault's storage
keys. A generated public value comes from one fixed-base comb table per
group (Lim-Lee), built on the first draw. Stored passwords use
PBKDF2-HMAC-SHA256 (RFC 8018 section 5.2) at PASSWORD_HASH_ITERATIONS.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from typing import Callable, NamedTuple, Optional

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

# Rows of the fixed-base comb: an exponent is read as 8 rows of w bits, and
# the one table holds 2^8 entries.
_COMB_ROWS = 8


class EntropyError(Exception):
    """The random source failed or kept producing unusable values."""


class InvalidPublicKey(ValueError):
    """Peer public value outside (1, p-1): 0, 1 and p-1 force a known secret."""


class DhGroup:
    """A prime modulus p and a generator g. The only groups are the module's
    two objects, so the fixed-base table cache keys a group by identity."""

    def __init__(self, p: int, g: int) -> None:
        if p <= 3 or p % 2 == 0:
            raise ValueError("modulus must be an odd prime > 3")
        if not 1 < g < p:
            raise ValueError("generator must satisfy 1 < g < p")
        self.p = p
        self.g = g

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

# Tiny group for tests only. No config key, variable or flag reaches it,
# so a test can only use it by passing this object.
TEST_SMALL = DhGroup(p=23, g=5)


class DhKeyPair(NamedTuple):
    private: int
    public: int


def dh_generate(
    group: DhGroup, *, randbelow: Optional[Callable[[int], int]] = None
) -> DhKeyPair:
    """Generate a keypair with private uniform in [2, min(p-2, 2^256 + 1)]:
    a 256-bit exponent on group 14, and all of [2, p-2] on a smaller group.
    The public value comes from the group's fixed-base comb
    (`_fixed_base_pow`): one 256-entry table, built on the first draw and
    then cached, and w squarings and w table products per draw (w = 33 on
    group 14).

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
def _fixed_base_table(group: DhGroup) -> tuple[int, tuple[int, ...]]:
    """The comb width w and the comb's 256 entries: entry j is the product
    of g^(2^(w*i)) mod p over the set bits i of j, where w = ceil(b/8) for
    the b bits of the largest private `dh_generate` draws. On group 14 that
    is w = 33 and about 77 KiB. Fixed-base comb, Lim and Lee, CRYPTO '94;
    HAC Algorithm 14.117."""
    top = min(group.p - 2, (1 << _PRIVATE_BITS) + 1)
    width = -(-top.bit_length() // _COMB_ROWS)
    bases = [group.g]  # row i's base g^(2^(w*i))
    while len(bases) < _COMB_ROWS:
        bases.append(pow(bases[-1], 1 << width, group.p))
    table = [1]
    for base in bases:
        table += [entry * base % group.p for entry in table]
    return width, tuple(table)


def _fixed_base_pow(group: DhGroup, exponent: int) -> int:
    """g^exponent mod p as one squaring and one table product per column of
    the comb, highest column first; equals pow(g, exponent, p) for
    0 <= exponent < 2^(8w)."""
    width, table = _fixed_base_table(group)
    if exponent >> (_COMB_ROWS * width):
        raise ValueError("exponent exceeds the fixed-base table")
    mask = (1 << width) - 1
    ones = int.from_bytes(b"\x01" * width, "big")
    # the bytes of `spread` are the columns' table indices, highest column
    # first; bit i of an index is the column's bit of row i. A row's binary
    # digits are the ASCII codes 0x30 and 0x31, which end in the bit they
    # stand for, so `& ones` keeps one bit per column
    spread = 0
    for i in range(_COMB_ROWS):
        row = format(exponent >> (width * i) & mask, f"0{width}b").encode()
        spread |= (int.from_bytes(row, "big") & ones) << i
    p = group.p
    result = 1
    for index in spread.to_bytes(width, "big"):
        result = result * result % p * table[index] % p
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


class SessionKeys(NamedTuple):
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
