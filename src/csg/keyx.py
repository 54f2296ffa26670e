"""Establishment of the symmetric session keys and credential hashing.

Finite-field Diffie-Hellman produces a shared secret; the three session
sub-keys (phase-1 auth, phase-2 auth, data) are derived from it with
domain-separated SHA-256. Stored passwords use salted iterated SHA-256.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass
from typing import Callable, Optional

PASSWORD_HASH_ITERATIONS = 10_000


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

# Tiny group for tests only; must never be offered in a real deployment.
TEST_SMALL = DhGroup(p=23, g=5)

GROUPS = {"rfc3526-14": RFC3526_GROUP14, "test-small": TEST_SMALL}
INSECURE_GROUPS = frozenset({"test-small"})


def select_group(name: str, allow_insecure: bool) -> DhGroup:
    """The group called `name`, if a caller with this `allow_insecure`
    may use it; raises ValueError otherwise. The one place that decides
    which groups may be used."""
    if name not in GROUPS:
        raise ValueError(f"unknown group {name!r}, expected one of {sorted(GROUPS)}")
    if name in INSECURE_GROUPS and not allow_insecure:
        raise ValueError(f"{name!r} is test-only; pass --allow-insecure-group to use it")
    return GROUPS[name]


@dataclass(frozen=True)
class DhKeyPair:
    private: int
    public: int


def dh_generate(
    group: DhGroup,
    *,
    private: Optional[int] = None,
    randbelow: Optional[Callable[[int], int]] = None,
) -> DhKeyPair:
    """Generate a keypair with private uniform in [2, p-2].

    Privates whose public value is degenerate (1 or p-1) are resampled so
    that peers applying the degenerate-public rejection always interoperate.
    `private` is a test hook that skips sampling (and resampling).
    """
    if private is not None:
        if not 2 <= private <= group.p - 2:
            raise ValueError("private key must lie in [2, p-2]")
        return DhKeyPair(private, pow(group.g, private, group.p))
    draw = randbelow if randbelow is not None else secrets.randbelow
    for _ in range(128):
        try:
            priv = 2 + draw(group.p - 3)
        except Exception as exc:
            raise EntropyError(f"random source failed: {exc}") from exc
        if not 2 <= priv <= group.p - 2:
            raise EntropyError("random source returned an out-of-range value")
        pub = pow(group.g, priv, group.p)
        if 1 < pub < group.p - 1:
            return DhKeyPair(priv, pub)
    raise EntropyError("random source kept producing degenerate key pairs")


def dh_shared(own: DhKeyPair, peer_public: int, group: DhGroup) -> bytes:
    """Shared secret peer_public^private mod p, big-endian, zero-padded to
    the modulus length."""
    if not 1 < peer_public < group.p - 1:
        raise InvalidPublicKey(f"peer public value {peer_public} is degenerate")
    shared = pow(peer_public, own.private, group.p)
    return shared.to_bytes(group.byte_len, "big")


@dataclass(frozen=True)
class SessionKeys:
    k_phase1: bytes
    k_phase2: bytes
    k_data: bytes


def derive_keys(shared: bytes) -> SessionKeys:
    """Derive the three pairwise-distinct 16-byte sub-keys from the shared
    secret: first 16 bytes of SHA-256(shared || context)."""
    if not shared:
        raise ValueError("shared secret must be non-empty")

    def sub_key(context: bytes) -> bytes:
        return hashlib.sha256(shared + context).digest()[:16]

    return SessionKeys(
        k_phase1=sub_key(b"phase1"),
        k_phase2=sub_key(b"phase2"),
        k_data=sub_key(b"data"),
    )


def hash_password(
    password: str, salt: bytes, iterations: int = PASSWORD_HASH_ITERATIONS
) -> bytes:
    """Salted iterated SHA-256 for stored credentials.

    h_1 = SHA-256(salt || password), h_i = SHA-256(h_{i-1}); returns
    h_iterations (32 bytes).
    """
    if len(salt) != 16:
        raise ValueError("salt must be exactly 16 bytes")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    digest = hashlib.sha256(salt + password.encode("utf-8")).digest()
    for _ in range(iterations - 1):
        digest = hashlib.sha256(digest).digest()
    return digest
