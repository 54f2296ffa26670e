"""CBC and CTR modes checked against an independent AES: the
`cryptography` package (OpenSSL). It is a test-only oracle; the tests skip
where it is not installed, and csg itself needs only the standard library."""

from __future__ import annotations

import random

import pytest

pytest.importorskip("cryptography.hazmat.primitives.ciphers", exc_type=ImportError)
from cryptography.hazmat.primitives import padding  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402

from conftest import cbc_encrypt_copy, ctr_crypt_copy  # noqa: E402
from csg import aes  # noqa: E402

CHUNK = aes._CHUNK_BYTES
# plaintext lengths; CHUNK + d - 1 pads to a ciphertext of CHUNK + d bytes,
# one block short of, exactly at, and one block past a chunk boundary
FIXED_LENGTHS = [0, 1, 15, 16, 17, 1029] + [CHUNK + d - 1 for d in (-16, 0, 16)]
RANDOM_LENGTHS = random.Random(47).sample(range(300 * 1024), 4)


def oracle_encrypt(plaintext: bytes, key: bytes, iv: bytes, pad: bool = True) -> bytes:
    if pad:
        padder = padding.PKCS7(128).padder()
        plaintext = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(algorithms.AES(key), modes.CBC(iv)).encryptor()
    return encryptor.update(plaintext) + encryptor.finalize()


@pytest.mark.parametrize("length", FIXED_LENGTHS + RANDOM_LENGTHS)
def test_cbc_matches_oracle(length):
    rng = random.Random(length)
    key, iv, plaintext = rng.randbytes(16), rng.randbytes(16), rng.randbytes(length)
    schedule = aes.key_expansion(key)
    ciphertext = oracle_encrypt(plaintext, key, iv)
    assert cbc_encrypt_copy(plaintext, schedule, iv) == ciphertext
    assert aes.cbc_decrypt(bytearray(ciphertext), schedule, iv) == plaintext


# the blocks of small_ops' status reply, of a 1 KiB object and of a
# 2,000-name listing
@pytest.mark.parametrize("blocks", [1, 65, 1251])
def test_cbc_encrypt_through_a_view_past_the_iv_matches_oracle(blocks):
    # protocol._seal's call: the padded plaintext sits behind the IV in one
    # payload buffer and is encrypted through the view at offset 16
    rng = random.Random(blocks)
    key, iv, plaintext = rng.randbytes(16), rng.randbytes(16), rng.randbytes(16 * blocks)
    payload = bytearray(iv + plaintext)
    aes.cbc_encrypt(memoryview(payload)[16:], aes.key_expansion(key), iv)
    assert payload == iv + oracle_encrypt(plaintext, key, iv, pad=False)


def test_encrypt_block_matches_oracle_ecb():
    rng = random.Random(61)
    for _ in range(100):
        key, block = rng.randbytes(16), rng.randbytes(16)
        encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        expected = encryptor.update(block) + encryptor.finalize()
        assert aes.encrypt_block(block, aes.key_expansion(key)) == expected


@pytest.mark.parametrize("length", [16, CHUNK, CHUNK + 16, 3 * CHUNK + 48])
def test_truncated_ciphertext_raises_padding_error(length):
    rng = random.Random(length)
    key, iv = rng.randbytes(16), rng.randbytes(16)
    ciphertext = oracle_encrypt(rng.randbytes(length - 1), key, iv)
    schedule = aes.key_expansion(key)
    for cut in (1, 8, 15):
        with pytest.raises(aes.PaddingError):
            aes.cbc_decrypt(ciphertext[:-cut], schedule, iv)


@pytest.mark.parametrize("length", [16, CHUNK, CHUNK + 16, 3 * CHUNK + 48])
@pytest.mark.parametrize("tail", [b"\x00", b"\x11", b"\x01\x02", b"\x03" * 2 + b"\x04\x03"])
def test_bad_padding_raises_padding_error(length, tail):
    # the oracle encrypts block-aligned data whose last bytes are not PKCS#7
    rng = random.Random(length)
    key, iv = rng.randbytes(16), rng.randbytes(16)
    ciphertext = oracle_encrypt(rng.randbytes(length - len(tail)) + tail, key, iv, pad=False)
    with pytest.raises(aes.PaddingError):
        aes.cbc_decrypt(bytearray(ciphertext), aes.key_expansion(key), iv)


# around the chunk boundary, and one length past several chunks
CTR_LENGTHS = [0, 1, 15, 16, 17, CHUNK - 1, CHUNK, CHUNK + 1, 100_003]
# the all-0xFF counter wraps after its first block; the others wrap inside
# the first and the second chunk of a 100,003-byte message
WRAPPING_COUNTERS = [b"\xff" * 16, ((1 << 128) - 5).to_bytes(16, "big"),
                     ((1 << 128) - 1030).to_bytes(16, "big")]


def oracle_ctr(data: bytes, key: bytes, counter: bytes) -> bytes:
    encryptor = Cipher(algorithms.AES(key), modes.CTR(counter)).encryptor()
    return encryptor.update(data) + encryptor.finalize()


@pytest.mark.parametrize("length", CTR_LENGTHS)
@pytest.mark.parametrize(
    "counter", [None] + WRAPPING_COUNTERS, ids=["random", "all-ff", "wrap-5", "wrap-1030"]
)
def test_ctr_matches_oracle(length, counter):
    rng = random.Random(length)
    key, data = rng.randbytes(16), rng.randbytes(length)
    counter = rng.randbytes(16) if counter is None else counter
    assert ctr_crypt_copy(data, aes.key_expansion(key), counter) == oracle_ctr(data, key, counter)
