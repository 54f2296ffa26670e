"""Key exchange, KDF and password hashing tests."""

from __future__ import annotations

import hashlib
import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csg import keyx
from csg.keyx import (
    DhKeyPair,
    EntropyError,
    InvalidPublicKey,
    RFC3526_GROUP14,
    TEST_SMALL,
    derive_keys,
    dh_generate,
    dh_shared,
    hash_password,
)

# Frozen oracle values (hashlib / pow, computed before the build; the hash
# also matches the `cryptography` package's PBKDF2HMAC).
K_PHASE1_OF_ZERO_BYTE = bytes.fromhex("8d3fd2dedf6d201735b2ebf7bf84342c")
HASH_A_ZERO_SALT_10K = bytes.fromhex(
    "1419db54907184fac37f9e1cfb78b0e12509fb49c90ab0e7ee6bed13012d756b"
)


# --- groups -----------------------------------------------------------------

def test_group14_constants():
    p = RFC3526_GROUP14.p
    assert p.bit_length() == 2048
    assert p % 2 == 1
    assert RFC3526_GROUP14.g == 2
    assert RFC3526_GROUP14.byte_len == 256


def test_group14_matches_pi_derivation():
    # RFC 3526: p = 2^2048 - 2^1984 - 1 + 2^64 * (floor(2^1918 * pi) + 124476)
    import mpmath

    mpmath.mp.prec = 2200
    pi_part = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** 1918))
    assert RFC3526_GROUP14.p == 2**2048 - 2**1984 - 1 + 2**64 * (pi_part + 124476)


def test_group14_is_safe_prime():
    import sympy

    assert sympy.isprime(RFC3526_GROUP14.p)
    assert sympy.isprime((RFC3526_GROUP14.p - 1) // 2)


def test_group_invariants_enforced():
    with pytest.raises(ValueError):
        keyx.DhGroup(p=4, g=2)
    with pytest.raises(ValueError):
        keyx.DhGroup(p=23, g=1)
    with pytest.raises(ValueError):
        keyx.DhGroup(p=23, g=23)


# --- key generation ---------------------------------------------------------

def test_generated_public_in_range():
    for _ in range(200):
        pair = dh_generate(TEST_SMALL)
        assert 1 < pair.public < TEST_SMALL.p
        assert 2 <= pair.private <= TEST_SMALL.p - 2


def test_generated_public_never_degenerate():
    # p-1 is reachable in the tiny group (5^11 mod 23 = 22); generation
    # must resample past it so peers never reject an honest public
    for _ in range(500):
        pair = dh_generate(TEST_SMALL)
        assert pair.public not in (0, 1, TEST_SMALL.p - 1)


def test_entropy_failure_is_typed():
    def broken(_n):
        raise OSError("no entropy")

    with pytest.raises(EntropyError):
        dh_generate(TEST_SMALL, randbelow=broken)

    def out_of_range(n):
        return n + 5

    with pytest.raises(EntropyError):
        dh_generate(TEST_SMALL, randbelow=out_of_range)


def test_group14_privates_are_256_bit():
    # 2 + randbelow(2^256) reaches 2^256 + 1, which takes 257 bits
    p = RFC3526_GROUP14.p
    for _ in range(64):
        pair = dh_generate(RFC3526_GROUP14)
        assert pair.private.bit_length() <= 257
        assert pair.public == pow(2, pair.private, p)


# --- fixed-base table -------------------------------------------------------

def test_fixed_base_table_shape():
    # 257-bit privates take 65 four-bit digits
    table = keyx._fixed_base_table(RFC3526_GROUP14)
    assert len(table) == 65
    assert all(len(row) == 16 for row in table)
    assert len(keyx._fixed_base_table(TEST_SMALL)) == 2  # 21 has 5 bits


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**257 + 1))
@example(0)
@example(1)
@example(2**256)
@example(2**256 + 1)
@example(2**256 - 1)  # every digit 0xF
@example(2**260 - 1)  # every digit 0xF in every row of the table
def test_fixed_base_pow_matches_pow(exponent):
    p = RFC3526_GROUP14.p
    assert keyx._fixed_base_pow(RFC3526_GROUP14, exponent) == pow(2, exponent, p)


def test_fixed_base_pow_covers_the_small_group():
    for exponent in range(TEST_SMALL.p - 1):
        assert keyx._fixed_base_pow(TEST_SMALL, exponent) == pow(
            TEST_SMALL.g, exponent, TEST_SMALL.p
        )


def test_fixed_base_pow_refuses_an_exponent_past_the_table():
    with pytest.raises(ValueError):
        keyx._fixed_base_pow(RFC3526_GROUP14, 2**260)


def test_concurrent_first_draws_agree_with_pow():
    # four threads race to build the table on a cleared cache
    keyx._fixed_base_table.cache_clear()
    pairs = []
    start = threading.Barrier(4)

    def draw():
        start.wait(timeout=10)
        for _ in range(8):
            pairs.append(dh_generate(RFC3526_GROUP14))

    threads = [threading.Thread(target=draw) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(pairs) == 32
    p = RFC3526_GROUP14.p
    assert all(pair.public == pow(2, pair.private, p) for pair in pairs)


@pytest.mark.parametrize(
    "group, bound",
    [(RFC3526_GROUP14, 1 << 256), (TEST_SMALL, TEST_SMALL.p - 3)],
    ids=["group14", "test-small"],
)
def test_draw_bound(group, bound):
    asked = []

    def recording(n):
        asked.append(n)
        return n - 1

    pair = dh_generate(group, randbelow=recording)
    assert asked == [bound]
    assert pair.private == bound + 1
    with pytest.raises(EntropyError):  # a source returning its bound is broken
        dh_generate(group, randbelow=lambda n: n)


def test_full_size_private_still_accepted():
    # an older peer draws from all of [2, p-2]; its key must agree with ours
    p = RFC3526_GROUP14.p
    full_size = random.Random(3).randrange(2**2047, p - 1)
    short = dh_generate(RFC3526_GROUP14)
    for private in (p - 2, full_size):
        full = DhKeyPair(private, pow(2, private, p))
        assert dh_shared(full, short.public, RFC3526_GROUP14) == dh_shared(
            short, full.public, RFC3526_GROUP14
        )


# --- shared secret ----------------------------------------------------------

def test_shared_secret_examples():
    a = DhKeyPair(6, 8)  # 5^6 mod 23 = 8
    b = DhKeyPair(15, 19)  # 5^15 mod 23 = 19
    assert dh_shared(a, b.public, TEST_SMALL) == b"\x02"  # 19^6 mod 23 = 2
    assert dh_shared(b, a.public, TEST_SMALL) == b"\x02"  # 8^15 mod 23 = 2


def test_degenerate_peer_publics_rejected():
    own = DhKeyPair(6, 8)
    for bad in (0, 1, TEST_SMALL.p - 1, TEST_SMALL.p, -3):
        with pytest.raises(InvalidPublicKey):
            dh_shared(own, bad, TEST_SMALL)


def test_agreement_on_random_pairs():
    for _ in range(200):
        a = dh_generate(TEST_SMALL)
        b = dh_generate(TEST_SMALL)
        secret_a = dh_shared(a, b.public, TEST_SMALL)
        secret_b = dh_shared(b, a.public, TEST_SMALL)
        assert secret_a == secret_b
        assert len(secret_a) == TEST_SMALL.byte_len


def test_agreement_group14():
    a = dh_generate(RFC3526_GROUP14)
    b = dh_generate(RFC3526_GROUP14)
    assert dh_shared(a, b.public, RFC3526_GROUP14) == dh_shared(
        b, a.public, RFC3526_GROUP14
    )
    assert len(dh_shared(a, b.public, RFC3526_GROUP14)) == 256


# --- key derivation ---------------------------------------------------------

def test_derive_keys_frozen_value():
    keys = derive_keys(b"\x00")
    assert keys.k_phase1 == K_PHASE1_OF_ZERO_BYTE
    assert keys.k_phase1 == hashlib.sha256(b"\x00" + b"phase1").digest()[:16]


def test_derive_keys_deterministic_and_distinct():
    rng = random.Random(5)
    for _ in range(100):
        shared = rng.randbytes(32)
        keys = derive_keys(shared)
        assert keys == derive_keys(shared)
        assert len({keys.k_phase1, keys.k_phase2, keys.k_data}) == 3
        assert all(len(k) == 16 for k in (keys.k_phase1, keys.k_phase2, keys.k_data))


def test_derive_keys_rejects_empty():
    with pytest.raises(ValueError):
        derive_keys(b"")


# --- password hashing -------------------------------------------------------

def test_hash_password_frozen_value():
    assert hash_password("a", bytes(16)) == HASH_A_ZERO_SALT_10K


# the one count hash_password runs; the test id names it
@pytest.mark.parametrize("iterations", [keyx.PASSWORD_HASH_ITERATIONS])
def test_hash_password_matches_cryptography_pbkdf2(iterations):
    # the `cryptography` package (OpenSSL) is a test-only oracle
    pytest.importorskip("cryptography.hazmat.primitives.kdf.pbkdf2", exc_type=ImportError)
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.kdf.pbkdf2 import PBKDF2HMAC

    rng = random.Random(iterations)
    passwords = ["", "hunter2", "pässwörd", "\u5bc6\u7801\U0001f511"] + [
        "".join(chr(rng.randrange(32, 0x3000)) for _ in range(rng.randrange(1, 40)))
        for _ in range(4)
    ]
    for password in passwords:
        salt = rng.randbytes(16)
        oracle = PBKDF2HMAC(
            algorithm=hashes.SHA256(), length=32, salt=salt, iterations=iterations
        )
        assert hash_password(password, salt) == oracle.derive(
            password.encode("utf-8")
        )


def test_hash_password_deterministic():
    salt = b"s" * 16
    assert hash_password("hunter2", salt) == hash_password("hunter2", salt)


def test_hash_password_salt_sensitivity():
    assert hash_password("pw", b"a" * 16) != hash_password("pw", b"b" * 16)


def test_hash_password_one_bit_salt_change_flips_many_bits():
    rng = random.Random(9)
    for _ in range(100):
        salt = bytearray(rng.randbytes(16))
        password = rng.randbytes(12).hex()
        before = hash_password(password, bytes(salt))
        salt[rng.randrange(16)] ^= 1 << rng.randrange(8)
        after = hash_password(password, bytes(salt))
        differing = sum(
            bin(x ^ y).count("1") for x, y in zip(before, after)
        )
        assert differing >= 64
        assert before != password.encode()


def test_hash_password_validations():
    with pytest.raises(ValueError):
        hash_password("x", b"short")
