"""Establishment of the symmetric session keys and credential hashing.

Finite-field Diffie-Hellman modulo `P`, the 2048-bit MODP safe prime of RFC
3526 section 3, with generator `G` produces a shared secret; the three
session sub-keys (phase-1 auth, phase-2 auth, data) are derived from it by
`sub_key`, domain-separated SHA-256, which also makes the vault's storage
keys. A generated public value comes from one fixed-base comb table
(Lim-Lee), built on the first draw. Stored passwords use
PBKDF2-HMAC-SHA256 (RFC 8018 section 5.2) at PASSWORD_HASH_ITERATIONS.
"""

from __future__ import annotations

import functools
import hashlib
import os
from typing import Callable, NamedTuple, Optional

PASSWORD_HASH_ITERATIONS = 10_000
# The registry tag of the stored password hashes: a record without this exact
# tag was hashed some other way and cannot be checked.
PASSWORD_KDF = f"pbkdf2-hmac-sha256/{PASSWORD_HASH_ITERATIONS}"
SALT_LEN = 16  # bytes of a stored password's salt
HASH_LEN = 32  # bytes of a stored password hash: one PBKDF2 block of HMAC-SHA256

# Size of a generated private exponent. RFC 3526 section 8 gives this modulus
# an exponent of 220-320 bits, and NIST SP 800-56A Rev. 3 allows 2s = 224
# bits for its s = 112; P is a safe prime, so a short exponent does not open
# the van Oorschot-Wiener attacks. Each side picks its own, so peers that
# draw full-size exponents still agree with this one.
_PRIVATE_BITS = 256

# Rows of the fixed-base comb: an exponent is read as 8 rows of w bits, and
# the one table holds 2^8 entries.
_COMB_ROWS = 8


class EntropyError(Exception):
    """The random source failed or returned an out-of-range value."""


class InvalidPublicKey(ValueError):
    """Peer public value outside (1, P-1): 0, 1 and P-1 force a known secret."""


# RFC 3526 section 3: the 2048-bit MODP safe prime P and the generator G = 2.
# P is 7 mod 8, so 2 is a quadratic residue and generates the subgroup of
# prime order (P-1)/2: a private key in [2, 2^256 + 1] never gives a public
# value of 1 or P-1.
P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
G = 2
P_BYTES = 256  # bytes of P, and of every shared secret


class DhKeyPair(NamedTuple):
    private: int
    public: int


def dh_generate(*, randbelow: Optional[Callable[[int], int]] = None) -> DhKeyPair:
    """Generate a keypair with private uniform in [2, 2^256 + 1]. The public
    value comes from the fixed-base comb (`_fixed_base_pow`): one 256-entry
    table, built on the first draw and then cached, and 33 squarings and 33
    table products per draw. The draw is 32 bytes of `os.urandom` read as
    an integer: the bound is exactly 2^256, so it is uniform below it, as
    `secrets.randbelow(2**256)` is. A given `randbelow(bound)` replaces it
    as the random source.
    """
    bound = 1 << _PRIVATE_BITS
    try:
        if randbelow is None:
            priv = 2 + int.from_bytes(os.urandom(_PRIVATE_BITS // 8), "big")
        else:
            priv = 2 + randbelow(bound)
    except Exception as exc:
        raise EntropyError(f"random source failed: {exc}") from exc
    if not 2 <= priv <= bound + 1:
        raise EntropyError("random source returned an out-of-range value")
    return DhKeyPair(priv, _fixed_base_pow(priv))


@functools.cache
def _fixed_base_table() -> tuple[int, tuple[int, ...]]:
    """The comb width w and the comb's 256 entries: entry j is the product
    of G^(2^(w*i)) mod P over the set bits i of j, where w = ceil(b/8) for
    the b bits of the largest private `dh_generate` draws. That is w = 33
    and about 77 KiB. Fixed-base comb, Lim and Lee, CRYPTO '94; HAC
    Algorithm 14.117."""
    top = (1 << _PRIVATE_BITS) + 1
    width = -(-top.bit_length() // _COMB_ROWS)
    bases = [G]  # row i's base G^(2^(w*i))
    while len(bases) < _COMB_ROWS:
        bases.append(pow(bases[-1], 1 << width, P))
    table = [1]
    for base in bases:
        table += [entry * base % P for entry in table]
    return width, tuple(table)


def _fixed_base_pow(exponent: int) -> int:
    """G^exponent mod P as one squaring and one table product per column of
    the comb, highest column first; equals pow(G, exponent, P) for
    0 <= exponent < 2^(8w)."""
    width, table = _fixed_base_table()
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
    result = 1
    for index in spread.to_bytes(width, "big"):
        result = result * result % P * table[index] % P
    return result


def check_public(peer_public: int) -> None:
    """Raise InvalidPublicKey unless 1 < peer_public < P-1."""
    if not 1 < peer_public < P - 1:
        raise InvalidPublicKey(f"peer public value {peer_public} is degenerate")


def dh_shared(own: DhKeyPair, peer_public: int) -> bytes:
    """Shared secret peer_public^private mod P, big-endian, zero-padded to
    P_BYTES."""
    check_public(peer_public)
    return pow(peer_public, own.private, P).to_bytes(P_BYTES, "big")


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
    under a SALT_LEN-byte salt for stored credentials; returns HASH_LEN
    bytes. It runs PASSWORD_HASH_ITERATIONS, the count the registry's
    PASSWORD_KDF tag names. Each iteration costs two SHA-256 compressions,
    in OpenSSL's loop.
    """
    if len(salt) != SALT_LEN:
        raise ValueError(f"salt must be exactly {SALT_LEN} bytes")
    return hashlib.pbkdf2_hmac(
        "sha256", password.encode("utf-8"), salt, PASSWORD_HASH_ITERATIONS, HASH_LEN
    )
