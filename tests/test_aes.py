"""AES core tests: fixture known-answer vectors, the key-schedule word
recurrence checked against an independently written oracle, inverse
properties, padding, CBC behaviour, and both directions of the whole-buffer
cipher against the single-block reference."""

from __future__ import annotations

import functools
import operator
import random
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import ENGINE_CHUNKS, cbc_encrypt_copy, ctr_crypt_copy, padded, peak_allocated
from csg import aes

VECTORS_DIR = Path(__file__).parent / "vectors"

# Frozen oracle values (computed before the build with OpenSSL via the
# `cryptography` package, plus hand-checked FIPS-197 appendix data).
ZERO_KEY_ROUND1 = bytes.fromhex("62636363" * 4)
W4_OF_SEQUENTIAL_KEY = bytes.fromhex("d6aa74fd")  # key 000102...0e0f
W4_OF_FIPS_EXAMPLE_KEY = bytes.fromhex("a0fafe17")  # key 2b7e15...4f3c
CBC_EMPTY_ZERO = bytes.fromhex("0143db63ee66b0cdff9f69917680151e")


def load_vectors():
    vectors = []
    for line in (VECTORS_DIR / "aes_kat.txt").read_text().splitlines():
        if not line.strip():
            continue
        key_hex, pt_hex, ct_hex = line.split(" ")
        vectors.append(
            (bytes.fromhex(key_hex), bytes.fromhex(pt_hex), bytes.fromhex(ct_hex))
        )
    return vectors


# --- independent key-schedule oracle ---------------------------------------
# Re-derives the FIPS-197 word recurrence from scratch: brute-force field
# inversion (not the package's log tables) and its own Rcon chain.

def _oracle_gf_mul(a, b):
    r = 0
    for _ in range(8):
        if b & 1:
            r ^= a
        hi = a & 0x80
        a = (a << 1) & 0xFF
        if hi:
            a ^= 0x1B
        b >>= 1
    return r


def _oracle_sbox():
    def inverse(x):
        if x == 0:
            return 0
        return next(y for y in range(256) if _oracle_gf_mul(x, y) == 1)

    def affine(x):
        out = 0
        for i in range(8):
            bit = (
                (x >> i)
                ^ (x >> ((i + 4) % 8))
                ^ (x >> ((i + 5) % 8))
                ^ (x >> ((i + 6) % 8))
                ^ (x >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            out |= bit << i
        return out

    return [affine(inverse(x)) for x in range(256)]


_ORACLE_SBOX = _oracle_sbox()
_ORACLE_RCON = [1]
while len(_ORACLE_RCON) < 10:
    _ORACLE_RCON.append(_oracle_gf_mul(_ORACLE_RCON[-1], 2))


def oracle_expand_words(key: bytes) -> list[bytes]:
    """All 44 schedule words per the recurrence w[i] = w[i-4] ^ g(w[i-1])."""
    words = [key[4 * i : 4 * i + 4] for i in range(4)]
    for i in range(4, 44):
        t = words[i - 1]
        if i % 4 == 0:
            rotated = t[1:] + t[:1]
            t = bytes(_ORACLE_SBOX[b] for b in rotated)
            t = bytes([t[0] ^ _ORACLE_RCON[i // 4 - 1]]) + t[1:]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], t)))
    return words


def schedule_words(schedule: aes.KeySchedule) -> list[bytes]:
    return [rk[j : j + 4] for rk in schedule.round_keys for j in (0, 4, 8, 12)]


# --- key expansion ----------------------------------------------------------

def test_round_key_zero_is_the_cipher_key():
    key = bytes(range(16))
    assert aes.key_expansion(key).round_keys[0] == key
    assert aes.key_expansion(bytes(16)).round_keys[0] == bytes(16)


def test_zero_key_round_one_frozen_value():
    assert aes.key_expansion(bytes(16)).round_keys[1] == ZERO_KEY_ROUND1


def test_w4_frozen_values():
    seq = aes.key_expansion(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    assert schedule_words(seq)[4] == W4_OF_SEQUENTIAL_KEY
    fips = aes.key_expansion(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    assert schedule_words(fips)[4] == W4_OF_FIPS_EXAMPLE_KEY


def test_key_schedule_matches_oracle_on_random_keys():
    rng = random.Random(0x5EED)
    for _ in range(50):
        key = rng.randbytes(16)
        assert schedule_words(aes.key_expansion(key)) == oracle_expand_words(key)


def test_key_schedule_recurrence_direct():
    # w[i] = w[i-4] ^ g(w[i-1]) checked on the produced schedule itself
    rng = random.Random(1)
    for _ in range(25):
        key = rng.randbytes(16)
        words = schedule_words(aes.key_expansion(key))
        for i in range(4, 44):
            t = words[i - 1]
            if i % 4 == 0:
                rotated = t[1:] + t[:1]
                t = bytes(_ORACLE_SBOX[b] for b in rotated)
                t = bytes([t[0] ^ _ORACLE_RCON[i // 4 - 1]]) + t[1:]
            assert words[i] == bytes(a ^ b for a, b in zip(words[i - 4], t)), f"w[{i}]"


def test_key_expansion_rejects_bad_lengths():
    with pytest.raises(ValueError):
        aes.key_expansion(b"short")
    with pytest.raises(ValueError):
        aes.key_expansion(bytes(17))


def test_schedule_shape():
    schedule = aes.key_expansion(bytes(16))
    assert len(schedule.round_keys) == 11
    assert all(len(rk) == 16 for rk in schedule.round_keys)


# --- block cipher -----------------------------------------------------------

@pytest.mark.parametrize("key,plaintext,ciphertext", load_vectors())
def test_known_answer_vectors(key, plaintext, ciphertext):
    schedule = aes.key_expansion(key)
    assert aes.encrypt_block(plaintext, schedule) == ciphertext
    assert aes.decrypt_block(ciphertext, schedule) == plaintext


def test_block_round_trip_random():
    rng = random.Random(42)
    for _ in range(500):
        key, block = rng.randbytes(16), rng.randbytes(16)
        schedule = aes.key_expansion(key)
        assert aes.decrypt_block(aes.encrypt_block(block, schedule), schedule) == block
        assert aes.encrypt_block(aes.decrypt_block(block, schedule), schedule) == block


def test_block_determinism():
    schedule = aes.key_expansion(b"k" * 16)
    block = b"p" * 16
    assert aes.encrypt_block(block, schedule) == aes.encrypt_block(block, schedule)
    ct = aes.encrypt_block(block, schedule)
    assert aes.decrypt_block(ct, schedule) == aes.decrypt_block(ct, schedule)


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_block_reference_is_independent_of_the_engine(monkeypatch, direction):
    # with the engine's ShiftRows broken in one direction, that direction's
    # single-block reference still meets every vector while the engine's
    # whole-buffer mode stops agreeing with it
    row = "_FORWARD" if direction == "forward" else "_INVERSE"
    engine = getattr(aes, row)
    monkeypatch.setattr(aes, row, engine._replace(shift_rows=engine.shift_rows[::-1]))
    schedule = aes.key_expansion(bytes(range(16)))
    if direction == "forward":
        for key, plaintext, ciphertext in load_vectors():
            assert aes.encrypt_block(plaintext, aes.key_expansion(key)) == ciphertext
        counter = bytes(range(16, 32))
        first = int.from_bytes(counter, "big")
        blocks = b"".join(
            aes.encrypt_block((first + i).to_bytes(16, "big"), schedule) for i in range(4)
        )
        assert ctr_crypt_copy(bytes(64), schedule, counter) != blocks
    else:
        for key, plaintext, ciphertext in load_vectors():
            assert aes.decrypt_block(ciphertext, aes.key_expansion(key)) == plaintext
        iv, plaintext = bytes(16), b"engine under test" * 4
        try:
            sealed = bytearray(cbc_encrypt_copy(plaintext, schedule, iv))
            opened = aes.cbc_decrypt(sealed, schedule, iv)
        except aes.PaddingError:
            opened = None
        assert opened != plaintext


def test_block_rejects_bad_lengths():
    schedule = aes.key_expansion(bytes(16))
    with pytest.raises(ValueError):
        aes.encrypt_block(b"short", schedule)
    with pytest.raises(ValueError):
        aes.decrypt_block(bytes(17), schedule)


# --- padding ----------------------------------------------------------------

def test_pad_forced_cases():
    assert aes.padding(0) == bytes([0x10]) * 16
    assert aes.padding(15) == b"\x01"
    assert aes.padding(16) == bytes([0x10]) * 16


def test_unpad_forced_cases():
    assert aes.unpad(bytes([0x10]) * 16) == b""
    with pytest.raises(aes.PaddingError):
        aes.unpad(b"x" * 15 + b"\x00")


def test_unpad_rejects_inconsistencies():
    with pytest.raises(aes.PaddingError):
        aes.unpad(b"x" * 15 + b"\x11")  # > 16
    with pytest.raises(aes.PaddingError):
        aes.unpad(b"x" * 14 + b"\x01\x02")  # bytes not all equal to n
    with pytest.raises(aes.PaddingError):
        aes.unpad(b"")
    with pytest.raises(aes.PaddingError):
        aes.unpad(b"x" * 15)  # not a block multiple


def test_pad_unpad_bijective_on_all_lengths():
    rng = random.Random(7)
    for n in range(1025):
        data = rng.randbytes(n)
        padded_data = padded(data)
        assert len(padded_data) % 16 == 0 and len(padded_data) > len(data)
        assert len(padded_data) == aes.padded_len(len(data))
        assert aes.unpad(padded_data) == data


@given(st.binary(max_size=300))
def test_pad_unpad_property(data):
    assert aes.unpad(padded(data)) == data


# --- CBC --------------------------------------------------------------------

def test_cbc_empty_plaintext_frozen_vector():
    assert cbc_encrypt_copy(b"", aes.key_expansion(bytes(16)), bytes(16)) == CBC_EMPTY_ZERO
    assert aes.cbc_decrypt(bytearray(CBC_EMPTY_ZERO), aes.key_expansion(bytes(16)), bytes(16)) == b""


def test_cbc_chaining_standard_vector():
    # NIST SP 800-38A F.2.1, re-verified against OpenSSL before freezing;
    # our output carries one extra padding block after the 4 data blocks
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172a"
        "ae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52ef"
        "f69f2445df4f9b17ad2b417be66c3710"
    )
    expected_blocks = bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7"
    )
    padded_tail = bytes.fromhex("8cb82807230e1321d3fae00d18cc2012")
    ciphertext = cbc_encrypt_copy(plaintext, aes.key_expansion(key), iv)
    assert ciphertext == expected_blocks + padded_tail
    assert aes.cbc_decrypt(bytearray(ciphertext), aes.key_expansion(key), iv) == plaintext


def test_cbc_empty_equals_block_of_padding():
    # pad("") is one full block of 0x10; a zero IV leaves it unchanged
    schedule = aes.key_expansion(bytes(16))
    assert cbc_encrypt_copy(b"", schedule, bytes(16)) == aes.encrypt_block(
        bytes([0x10]) * 16, schedule
    )


def test_cbc_output_lengths():
    key, iv = b"k" * 16, b"i" * 16
    assert len(cbc_encrypt_copy(b"x", aes.key_expansion(key), iv)) == 16
    assert len(cbc_encrypt_copy(b"x" * 16, aes.key_expansion(key), iv)) == 32
    assert len(cbc_encrypt_copy(b"x" * 17, aes.key_expansion(key), iv)) == 32


def test_padded_len_is_the_cbc_ciphertext_length():
    schedule, iv = aes.key_expansion(b"k" * 16), b"i" * 16
    for n in range(50):
        expected = 16 * (n // 16 + 1)
        assert aes.padded_len(n) == expected
        assert len(cbc_encrypt_copy(bytes(n), schedule, iv)) == expected


def test_cbc_round_trip_random_lengths():
    rng = random.Random(3)
    for n in [0, 1, 15, 16, 17, 31, 32, 33, 255, 1024] + [
        rng.randrange(4097) for _ in range(20)
    ]:
        data = rng.randbytes(n)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        schedule = aes.key_expansion(key)
        ciphertext = bytearray(cbc_encrypt_copy(data, schedule, iv))
        assert aes.cbc_decrypt(ciphertext, schedule, iv) == data
        # decrypted in place: the buffer now holds the plaintext and its padding
        assert ciphertext == padded(data)


def test_cbc_encrypt_rejects_unpadded_lengths():
    schedule, iv = aes.key_expansion(b"k" * 16), b"i" * 16
    for n in (0, 15, 17):
        with pytest.raises(ValueError):
            aes.cbc_encrypt(bytearray(n), schedule, iv)


@pytest.mark.parametrize("cipher", [aes.cbc_encrypt, aes.cbc_decrypt], ids=["encrypt", "decrypt"])
@pytest.mark.parametrize("n", [0, 15, 17])
def test_cbc_rejects_bad_iv_lengths(cipher, n):
    with pytest.raises(ValueError, match="iv must be exactly 16 bytes"):
        cipher(bytearray(32), aes.key_expansion(b"k" * 16), bytes(n))


def test_cbc_decrypt_rejects_bad_lengths():
    with pytest.raises(aes.PaddingError):
        aes.cbc_decrypt(b"x" * 15, aes.key_expansion(b"k" * 16), b"i" * 16)
    with pytest.raises(aes.PaddingError):
        aes.cbc_decrypt(b"", aes.key_expansion(b"k" * 16), b"i" * 16)


def test_cbc_tamper_never_returns_original():
    rng = random.Random(11)
    for _ in range(50):
        data = rng.randbytes(100)
        key, iv = rng.randbytes(16), rng.randbytes(16)
        ct = bytearray(cbc_encrypt_copy(data, aes.key_expansion(key), iv))
        ct[-1] ^= 0x01
        try:
            recovered = aes.cbc_decrypt(ct, aes.key_expansion(key), iv)
        except aes.PaddingError:
            continue
        assert recovered != data


def _buffers(max_blocks: int):
    """(blocks, text, chain) of n whole blocks, 1 <= n <= max_blocks: text
    is as long as the chunk or shorter, chain exactly as long."""
    return st.integers(1, max_blocks).flatmap(
        lambda n: st.tuples(
            st.binary(min_size=16 * n, max_size=16 * n),
            st.binary(max_size=16 * n),
            st.binary(min_size=16 * n, max_size=16 * n),
        )
    )


_RNG_300 = random.Random(29)
# 300 blocks, a text 11 bytes short of them, and a full chain
_BUFFERS_300 = (
    _RNG_300.randbytes(16 * 300), _RNG_300.randbytes(16 * 299 + 5), _RNG_300.randbytes(16 * 300)
)


@pytest.mark.parametrize(
    "direction, reference, keys",
    [
        (aes._FORWARD, aes.encrypt_block, lambda s: s.round_keys),
        (aes._INVERSE, aes.decrypt_block, lambda s: s.inverse_round_keys),
    ],
    ids=["forward", "inverse"],
)
@given(key=st.binary(min_size=16, max_size=16), buffers=_buffers(40))
@example(key=bytes(range(16)), buffers=_BUFFERS_300)
def test_chunk_cipher_matches_block_reference(direction, reference, keys, key, buffers):
    # the whole-buffer rounds against the FIPS-197 single-block reference,
    # in both directions
    blocks, text, chain = buffers
    schedule = aes.key_expansion(key)
    expected = b"".join(
        reference(blocks[i : i + 16], schedule) for i in range(0, len(blocks), 16)
    )
    cipher = aes._ChunkCipher(keys(schedule), direction, len(blocks))
    assert cipher(blocks, b"") == expected
    assert cipher(blocks, text) == bytes(
        a ^ b for a, b in zip(expected, text.ljust(len(blocks), b"\x00"))
    )
    assert cipher(blocks, chain) == bytes(a ^ b for a, b in zip(expected, chain))


_FORWARD_FACTORS = (2, 3, 1, 1)
_INVERSE_FACTORS = (14, 11, 13, 9)


def _mix_column_scalar(column: bytes, factors: tuple[int, ...]) -> bytes:
    # row j of the mixed column is the XOR of factors[k] * column[j + k]
    return bytes(
        functools.reduce(
            operator.xor, (aes._gf_mul(f, column[(j + k) % 4]) for k, f in enumerate(factors))
        )
        for j in range(4)
    )


def test_inverse_round_keys_are_cached_and_correct():
    rng = random.Random(37)
    for _ in range(20):
        schedule = aes.key_expansion(rng.randbytes(16))
        rks = schedule.round_keys
        mixed = tuple(
            b"".join(_mix_column_scalar(rk[c : c + 4], _INVERSE_FACTORS) for c in (0, 4, 8, 12))
            for rk in rks[9:0:-1]
        )
        assert schedule.inverse_round_keys == (rks[10], *mixed, rks[0])
        assert schedule.inverse_round_keys is schedule.inverse_round_keys


@pytest.mark.parametrize(
    "direction, factors",
    [(aes._FORWARD, _FORWARD_FACTORS), (aes._INVERSE, _INVERSE_FACTORS)],
    ids=["forward", "inverse"],
)
def test_mix_columns_matches_scalar_columns(direction, factors):
    # the lane rotations against one column at a time, for both factor rows,
    # at every state size the chunk-wide lane masks serve: a round key, short
    # chunks and a full chunk
    rng = random.Random(47)
    for blocks in (1, 2, 5, 65, aes._CHUNK_BLOCKS):
        state = rng.randbytes(16 * blocks)
        fresh = b"".join(
            _mix_column_scalar(state[c : c + 4], factors) for c in range(0, len(state), 4)
        )
        mixed = aes._mix_columns(state, direction.mix)
        assert mixed.to_bytes(len(state), "little") == fresh


def test_ctr_round_trip_and_lengths():
    rng = random.Random(41)
    for length in (0, 1, 15, 16, 17, 1000, aes._CHUNK_BYTES + 5):
        schedule, counter = aes.key_expansion(rng.randbytes(16)), rng.randbytes(16)
        data = rng.randbytes(length)
        ciphertext = ctr_crypt_copy(data, schedule, counter)
        assert len(ciphertext) == length
        assert ctr_crypt_copy(ciphertext, schedule, counter) == data
        # in place, through a view of part of a larger buffer
        buffer = bytearray(b"<" + ciphertext + b">")
        aes.ctr_crypt(memoryview(buffer)[1:-1], schedule, counter)
        assert buffer == b"<" + data + b">"


def test_ctr_rejects_bad_counter_lengths():
    schedule = aes.key_expansion(bytes(16))
    for n in (0, 15, 17):
        with pytest.raises(ValueError):
            aes.ctr_crypt(bytearray(b"data"), schedule, bytes(n))


def test_ctr_peak_memory_is_bounded():
    # in place: the scratch of one chunk, and nothing the size of the data
    rng = random.Random(43)
    schedule, counter = aes.key_expansion(rng.randbytes(16)), rng.randbytes(16)
    data = bytearray(rng.randbytes(1 << 20))
    _, peak = peak_allocated(lambda: aes.ctr_crypt(data, schedule, counter))
    assert peak <= ENGINE_CHUNKS * aes._CHUNK_BYTES


def test_cbc_decrypt_peak_memory_is_bounded():
    # 1 MiB of ciphertext whose last block decrypts to a full padding block:
    # c[n-2] is chosen as D(c[n-1]) ^ pad, so no slow encryption is needed
    rng = random.Random(31)
    schedule = aes.key_expansion(rng.randbytes(16))
    body, last = rng.randbytes((1 << 20) - 32), rng.randbytes(16)
    chain = bytes(a ^ 16 for a in aes.decrypt_block(last, schedule))
    ciphertext = bytearray(body + chain + last)
    iv = rng.randbytes(16)
    plaintext, peak = peak_allocated(lambda: aes.cbc_decrypt(ciphertext, schedule, iv))
    assert len(plaintext) == len(ciphertext) - 16
    # in place: the engine's scratch, and nothing the size of the data
    assert peak <= ENGINE_CHUNKS * aes._CHUNK_BYTES


def test_sbox_tables_are_mutual_inverses():
    assert len(aes._SBOX) == 256 and len(aes._INV_SBOX) == 256
    assert all(aes._INV_SBOX[aes._SBOX[x]] == x for x in range(256))
    assert all(aes._SBOX[aes._INV_SBOX[x]] == x for x in range(256))
