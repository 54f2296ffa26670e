"""Key exchange, KDF and password hashing tests."""

from __future__ import annotations

import hashlib
import random
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csg import keyx
from csg.keyx import (
    G,
    P,
    P_BYTES,
    DhKeyPair,
    EntropyError,
    InvalidPublicKey,
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


# --- group 14 ---------------------------------------------------------------

def test_group14_constants():
    assert P.bit_length() == 2048
    assert P % 2 == 1
    assert G == 2
    assert P_BYTES == 256


def test_group14_matches_pi_derivation():
    # RFC 3526: p = 2^2048 - 2^1984 - 1 + 2^64 * (floor(2^1918 * pi) + 124476)
    import mpmath

    mpmath.mp.prec = 2200
    pi_part = int(mpmath.floor(mpmath.pi * mpmath.mpf(2) ** 1918))
    assert P == 2**2048 - 2**1984 - 1 + 2**64 * (pi_part + 124476)


def test_group14_is_safe_prime():
    import sympy

    assert sympy.isprime(P)
    assert sympy.isprime((P - 1) // 2)


def test_no_private_key_gives_a_degenerate_public():
    # G lies in the subgroup of prime order q = (P-1)/2, and every private
    # dh_generate draws is below q, so G^x is never 1 or P-1
    assert pow(G, (P - 1) // 2, P) == 1
    assert (P - 1) // 2 > 2**256 + 1


# --- key generation ---------------------------------------------------------

def test_generated_public_in_range():
    for _ in range(200):
        pair = dh_generate()
        assert 1 < pair.public < P - 1
        assert 2 <= pair.private <= 2**256 + 1


def test_entropy_failure_is_typed():
    def broken(_n):
        raise OSError("no entropy")

    with pytest.raises(EntropyError):
        dh_generate(randbelow=broken)

    def out_of_range(n):
        return n + 5

    with pytest.raises(EntropyError):
        dh_generate(randbelow=out_of_range)


def test_group14_privates_are_256_bit():
    # 2 + randbelow(2^256) reaches 2^256 + 1, which takes 257 bits
    for _ in range(64):
        pair = dh_generate()
        assert pair.private.bit_length() <= 257
        assert pair.public == pow(2, pair.private, P)


# --- fixed-base comb --------------------------------------------------------

def test_fixed_base_table_shape():
    # 257-bit privates take 8 rows of 33 bits
    width, table = keyx._fixed_base_table()
    assert width == 33
    assert len(table) == 256


def test_fixed_base_table_stays_under_100_kib():
    # 256 entries of 2048 bits take about 77 KiB
    keyx._fixed_base_table.cache_clear()
    tracemalloc.start()
    try:
        keyx._fixed_base_table()
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 100 * 1024


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**257 + 1))
@example(0)
@example(1)
@example(2**33 - 1)  # every bit of the lowest row set
@example(2**256)
@example(2**256 + 1)
@example(2**256 - 1)
@example(2**264 - 1)  # every bit of every row of the comb set
def test_fixed_base_pow_matches_pow(exponent):
    assert keyx._fixed_base_pow(exponent) == pow(2, exponent, P)


def test_fixed_base_pow_refuses_an_exponent_past_the_table():
    with pytest.raises(ValueError):
        keyx._fixed_base_pow(2**264)  # 8 rows of 33 bits


def test_concurrent_first_draws_agree_with_pow():
    # four threads race to build the table on a cleared cache
    keyx._fixed_base_table.cache_clear()
    pairs = []
    start = threading.Barrier(4)

    def draw():
        start.wait(timeout=10)
        for _ in range(8):
            pairs.append(dh_generate())

    threads = [threading.Thread(target=draw) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(pairs) == 32
    assert all(pair.public == pow(2, pair.private, P) for pair in pairs)


def test_draw_bound():
    asked = []

    def recording(n):
        asked.append(n)
        return n - 1

    pair = dh_generate(randbelow=recording)
    assert asked == [1 << 256]
    assert pair.private == (1 << 256) + 1
    with pytest.raises(EntropyError):  # a source returning its bound is broken
        dh_generate(randbelow=lambda n: n)


def test_full_size_private_still_accepted():
    # an older peer draws from all of [2, p-2]; its key must agree with ours
    full_size = random.Random(3).randrange(2**2047, P - 1)
    short = dh_generate()
    for private in (P - 2, full_size):
        full = DhKeyPair(private, pow(2, private, P))
        assert dh_shared(full, short.public) == dh_shared(short, full.public)


# --- shared secret ----------------------------------------------------------

def test_shared_secret_examples():
    # 2^(6*15) is far below P, so its secret also shows the zero padding
    rng = random.Random(4)
    for x, y in [(6, 15), (rng.getrandbits(256), rng.getrandbits(256))]:
        a = DhKeyPair(x, pow(2, x, P))
        b = DhKeyPair(y, pow(2, y, P))
        expected = pow(2, x * y, P).to_bytes(256, "big")
        assert dh_shared(a, b.public) == expected
        assert dh_shared(b, a.public) == expected


def test_degenerate_peer_publics_rejected():
    own = DhKeyPair(6, pow(2, 6, P))
    for bad in (0, 1, P - 1, P, -3):
        with pytest.raises(InvalidPublicKey):
            dh_shared(own, bad)


def test_agreement_group14():
    a = dh_generate()
    b = dh_generate()
    assert dh_shared(a, b.public) == dh_shared(b, a.public)
    assert len(dh_shared(a, b.public)) == P_BYTES


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
