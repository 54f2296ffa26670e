# AES-128 from scratch: key expansion, single-block encrypt/decrypt, CBC mode
# with PKCS#7 padding for variable-length messages, and CTR mode.
#
# Fixed parameters: 16-byte blocks, 16-byte keys, 10 rounds. The S-boxes and
# GF(2^8) multiplication tables are generated at import time from the field
# definition and cross-checked against each other.
#
# encrypt_block/decrypt_block are the single-block reference. CBC is the
# tunnel's cipher; its encryption is block-serial through encrypt_block,
# because each block chains on the previous ciphertext. encrypt_block runs
# the four-table round of the Rijndael proposal (Daemen and Rijmen, 1999,
# 5.2.1) on four 32-bit column words and reads none of the engine's tables,
# so it checks CTR mode. No production path calls decrypt_block: it is the
# plain InvCipher loop of FIPS-197 5.3, independent of the engine it checks.
# CBC decryption and CTR mode (the object store's cipher) have no chain, so
# they run each round over a whole chunk of blocks at once, in chunks of a
# fixed _CHUNK_BYTES that bound their scratch memory. One engine,
# _ChunkCipher, runs both directions; its _FORWARD and _INVERSE rows differ
# only in tables and a flag. The tests check these paths against the reference and
# against the `cryptography` package, which is a test-only oracle: this
# module needs only the standard library. A CBC ciphertext that does not
# open, by its length or its padding, raises the one PaddingError; only
# protocol._open names it. CTR has no failure of its own: the object store
# authenticates before it decrypts.
#
# Buffers: cbc_encrypt, cbc_decrypt and ctr_crypt write their result over
# their data argument, a writable buffer (a bytearray or a writable
# memoryview of one) that the caller allocates once per message:
# cbc_encrypt's with the padding already in it, cbc_decrypt's holding the
# ciphertext, whose plaintext it returns as a memoryview of that buffer.
# ctr_stream only reads its data; it yields the result a chunk at a time.
# No call writes a buffer it was handed to read: a key, an IV or a counter.

from __future__ import annotations

import struct
from functools import cached_property
from typing import Iterator, NamedTuple

BLOCK_SIZE = 16
NUM_ROUNDS = 10


class PaddingError(ValueError):
    """A CBC ciphertext does not open: its length is not a positive multiple
    of 16, or its padding is invalid (corrupt or wrongly keyed data)."""


# --------- GF(2^8) arithmetic, reduction polynomial x^8+x^4+x^3+x+1 ---------

def _gf_mul(a: int, b: int) -> int:
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


def _affine(x: int) -> int:
    # bit i of output = x[i] ^ x[i+4] ^ x[i+5] ^ x[i+6] ^ x[i+7] ^ c[i], c = 0x63
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


def _build_sboxes() -> tuple[bytes, bytes]:
    # exp/log tables over the multiplicative group (generator 0x03) give the
    # field inverse; the affine transform on top yields the forward S-box
    exp = [0] * 255
    x = 1
    for i in range(255):
        exp[i] = x
        x = _gf_mul(x, 0x03)
    log = [0] * 256
    for i, v in enumerate(exp):
        log[v] = i
    forward = bytearray(256)
    for v in range(256):
        inv = 0 if v == 0 else exp[(255 - log[v]) % 255]
        forward[v] = _affine(inv)
    inverse = bytearray(256)
    for v in range(256):
        inverse[forward[v]] = v
    if any(inverse[forward[v]] != v or forward[inverse[v]] != v for v in range(256)):
        raise AssertionError("generated S-box tables are not mutual inverses")
    return bytes(forward), bytes(inverse)


_SBOX, _INV_SBOX = _build_sboxes()

# round constants 0x01..0x36, by repeated doubling in the field
_RCON = [1]
while len(_RCON) < NUM_ROUNDS:
    _RCON.append(_gf_mul(_RCON[-1], 2))
_RCON = tuple(_RCON)


def _mul_table(c: int) -> bytes:
    return bytes(_gf_mul(c, x) for x in range(256))


_MUL2 = _mul_table(0x02)
_MUL3 = _mul_table(0x03)
_MUL9 = _mul_table(0x09)
_MUL11 = _mul_table(0x0B)
_MUL13 = _mul_table(0x0D)
_MUL14 = _mul_table(0x0E)


# --------- key expansion ---------

class KeySchedule:
    """The 11 expanded round keys; round_keys[0] is the cipher key itself."""

    def __init__(self, round_keys: tuple[bytes, ...]) -> None:
        if len(round_keys) != NUM_ROUNDS + 1 or any(len(rk) != BLOCK_SIZE for rk in round_keys):
            raise ValueError("schedule must hold 11 round keys of 16 bytes")
        self.round_keys = round_keys

    @cached_property
    def inverse_round_keys(self) -> tuple[bytes, ...]:
        """The 11 keys of the equivalent inverse cipher (FIPS-197 5.3.5), in
        the order decryption applies them: round key 10, round keys 9 down
        to 1 each through InvMixColumns, then round key 0. Computed on first
        use and kept with the schedule, so every decryption under one
        schedule shares them."""
        rks = self.round_keys
        return (
            rks[NUM_ROUNDS],
            *(
                _mix_columns(rk, True).to_bytes(BLOCK_SIZE, "little")
                for rk in rks[NUM_ROUNDS - 1 : 0 : -1]
            ),
            rks[0],
        )

    @cached_property
    def words(self) -> tuple[int, ...]:
        """The 44 round-key words as big-endian integers, row 0 in the top
        byte, 4 per round key: the form encrypt_block adds them in."""
        return struct.unpack(">44I", b"".join(self.round_keys))


def key_expansion(key: bytes) -> KeySchedule:
    """Expand a 16-byte cipher key into the 11 round keys.

    Word recurrence: w[i] = w[i-4] ^ g(w[i-1]), where g is
    SubWord(RotWord(.)) ^ Rcon for i % 4 == 0 and identity otherwise.
    """
    if len(key) != BLOCK_SIZE:
        raise ValueError("cipher key must be exactly 16 bytes")
    sbox = _SBOX
    words = [list(key[i : i + 4]) for i in (0, 4, 8, 12)]
    for i in range(4, 4 * (NUM_ROUNDS + 1)):
        t = words[i - 1]
        if i % 4 == 0:
            t = [sbox[t[1]] ^ _RCON[i // 4 - 1], sbox[t[2]], sbox[t[3]], sbox[t[0]]]
        prev = words[i - 4]
        words.append([prev[0] ^ t[0], prev[1] ^ t[1], prev[2] ^ t[2], prev[3] ^ t[3]])
    round_keys = tuple(
        bytes(b for w in words[4 * r : 4 * r + 4] for b in w)
        for r in range(NUM_ROUNDS + 1)
    )
    return KeySchedule(round_keys)


# --------- block encryption / decryption ---------
#
# decrypt_block keeps the state in flat input order: byte i sits at row
# i % 4, column i // 4, so each run of 4 bytes is one column. encrypt_block
# holds the same four columns as 32-bit big-endian words, row 0 in the top
# byte, and runs each full round as the four-table round of the Rijndael
# proposal (Daemen and Rijmen, 1999, 5.2.1): 16 table lookups and 4 key
# words per round, with no per-byte state. CBC encryption runs every tunnel
# payload through encrypt_block block by block, since each block chains on
# the ciphertext before it. decrypt_block, which only the tests call, is the
# plain round loop.

# _TE0[x] is the column SubBytes then MixColumns make of byte x in row 0,
# (2*S(x), S(x), S(x), 3*S(x)); _TE1, _TE2 and _TE3, for rows 1 to 3, are it
# rotated right by 8, 16 and 24 bits
_TE0 = tuple(_MUL2[s] << 24 | s << 16 | s << 8 | _MUL3[s] for s in _SBOX)
_TE1, _TE2, _TE3 = (
    tuple((t >> n | t << 32 - n) & 0xFFFFFFFF for t in _TE0) for n in (8, 16, 24)
)


def encrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt one 16-byte block: AddRoundKey, 9 full rounds of
    SubBytes/ShiftRows/MixColumns/AddRoundKey, then a final round without
    MixColumns."""
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be exactly 16 bytes")
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    w = schedule.words
    s0, s1, s2, s3 = struct.unpack(">4I", block)
    s0, s1, s2, s3 = s0 ^ w[0], s1 ^ w[1], s2 ^ w[2], s3 ^ w[3]
    for i in range(4, 4 * NUM_ROUNDS, 4):
        # ShiftRows: column c reads row r from column c + r
        s0, s1, s2, s3 = (
            te0[s0 >> 24] ^ te1[s1 >> 16 & 255] ^ te2[s2 >> 8 & 255] ^ te3[s3 & 255] ^ w[i],
            te0[s1 >> 24] ^ te1[s2 >> 16 & 255] ^ te2[s3 >> 8 & 255] ^ te3[s0 & 255] ^ w[i + 1],
            te0[s2 >> 24] ^ te1[s3 >> 16 & 255] ^ te2[s0 >> 8 & 255] ^ te3[s1 & 255] ^ w[i + 2],
            te0[s3 >> 24] ^ te1[s0 >> 16 & 255] ^ te2[s1 >> 8 & 255] ^ te3[s2 & 255] ^ w[i + 3],
        )
    # final round: ShiftRows on the words, SubBytes on their bytes (the two
    # commute), then AddRoundKey
    shifted = struct.pack(
        ">4I",
        s0 & 0xFF000000 | s1 & 0xFF0000 | s2 & 0xFF00 | s3 & 0xFF,
        s1 & 0xFF000000 | s2 & 0xFF0000 | s3 & 0xFF00 | s0 & 0xFF,
        s2 & 0xFF000000 | s3 & 0xFF0000 | s0 & 0xFF00 | s1 & 0xFF,
        s3 & 0xFF000000 | s0 & 0xFF0000 | s1 & 0xFF00 | s2 & 0xFF,
    ).translate(_SBOX)
    out = int.from_bytes(shifted, "big") ^ int.from_bytes(schedule.round_keys[NUM_ROUNDS], "big")
    return out.to_bytes(BLOCK_SIZE, "big")


def decrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Decrypt one 16-byte block by the FIPS-197 5.3 InvCipher loop:
    AddRoundKey with round key 10, then for each round 9 down to 0
    InvShiftRows, InvSubBytes and AddRoundKey, with InvMixColumns after
    all but the last. Round keys are used untransformed."""
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be exactly 16 bytes")
    rks = schedule.round_keys
    # InvShiftRows (5.3.1): row r of column c takes row r of column c - r
    inv_shift_rows = [row + 4 * ((col - row) % 4) for col in range(4) for row in range(4)]
    state = [b ^ k for b, k in zip(block, rks[NUM_ROUNDS])]
    for r in range(NUM_ROUNDS - 1, -1, -1):
        state = [_INV_SBOX[state[j]] ^ k for j, k in zip(inv_shift_rows, rks[r])]
        if r:
            # InvMixColumns (5.3.3): row j of a column a gets
            # 14*a[j] ^ 11*a[j+1] ^ 13*a[j+2] ^ 9*a[j+3], rows mod 4, so
            # each column is read twice over
            state = [
                _MUL14[a[j]] ^ _MUL11[a[j + 1]] ^ _MUL13[a[j + 2]] ^ _MUL9[a[j + 3]]
                for a in (state[c : c + 4] * 2 for c in range(0, BLOCK_SIZE, 4))
                for j in range(4)
            ]
    return bytes(state)


# --------- PKCS#7 padding ---------

def padded_len(plaintext_len: int) -> int:
    """Length of the padded plaintext, and so of its CBC ciphertext: the next
    multiple of 16, a full extra block when the input is already aligned."""
    return plaintext_len - plaintext_len % BLOCK_SIZE + BLOCK_SIZE


def padding(plaintext_len: int) -> bytes:
    """The PKCS#7 padding of a plaintext of that length: n copies of byte n,
    which take it to padded_len(plaintext_len)."""
    n = padded_len(plaintext_len) - plaintext_len
    return bytes([n]) * n


def unpad(data: bytes) -> bytes:
    """Strip PKCS#7 padding; raises PaddingError on any inconsistency."""
    if not data or len(data) % BLOCK_SIZE != 0:
        raise PaddingError("padded data must be a positive multiple of 16 bytes")
    n = data[-1]
    if n == 0 or n > BLOCK_SIZE:
        raise PaddingError(f"padding byte 0x{n:02x} out of range")
    if data[-n:] != bytes([n]) * n:
        raise PaddingError("padding bytes are inconsistent")
    return data[:-n]


# --------- whole-buffer encryption and decryption ---------
#
# encrypt_block's and decrypt_block's results, for every block of a buffer
# at once. Decryption here is not decrypt_block's InvCipher but the
# equivalent inverse cipher (FIPS-197 5.3.5): the same steps as encryption
# with other tables and transformed round keys, so one engine, _ChunkCipher,
# serves both, reading its tables from a _Direction row. The buffer is read
# as one little-endian integer, so the 4 bytes of a column form a 32-bit
# lane with row j in bits 8j..8j+7:
#   SubBytes      one bytes.translate with the row's S-box;
#   ShiftRows     16 strided slice copies (byte i of each block takes byte
#                 shift_rows[i] of the same block);
#   MixColumns    row j gets 2*a[j] ^ 3*a[j+1] ^ a[j+2] ^ a[j+3], that is
#                 2*u ^ a[j] ^ t for u = a[j] ^ a[j+1] and t the XOR of the
#                 column (Daemen and Rijmen, The Design of Rijndael, 4.1), on
#                 the whole integer: a[j+k] is a rotated k bytes inside each
#                 lane by shifts and lane masks, and 2*u shifts every byte
#                 left and adds 0x1B where its top bit fell out;
#   AddRoundKey   one integer XOR with the round key repeated per block.
# InvMixColumns is MixColumns after a[j] ^= 4*(a[j] ^ a[j+2]) (4.1.3), where
# 4*v adds 0x36 and 0x1B for the bits 7 and 6 that the shift by 2 drops.
# Since InvMixColumns is linear, AddRoundKey moves after it when the round key
# goes through InvMixColumns too (KeySchedule.inverse_round_keys).
#
# Per call, only the 11 round keys are widened to the chunk size, in at most
# two _ChunkCiphers. The tables, the CTR counter patterns and the seven masks
# are module constants. The masks are one chunk wide and serve every state
# _mix_columns sees, a full chunk, a short last chunk or a 16-byte round key,
# because each is a multiple of 4 bytes and at most one chunk long: an &
# with a wider mask keeps only the state's bytes, and the bits a left shift
# pushes past the state's top land on lane rows, or byte bits, that the
# masks clear.

_CHUNK_BYTES = 16 * 1024  # bounds the scratch buffers of one CBC or CTR call
_SHIFT_ROWS = (0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11)
_INV_SHIFT_ROWS = (0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)


class _Direction(NamedTuple):
    """The tables one direction of the whole-buffer cipher runs on."""

    sbox: bytes
    shift_rows: tuple[int, ...]
    mix: bool  # _mix_columns' inverse flag: InvMixColumns when true


_FORWARD = _Direction(_SBOX, _SHIFT_ROWS, False)
_INVERSE = _Direction(_INV_SBOX, _INV_SHIFT_ROWS, True)


def _widen(pattern: bytes, size: int) -> int:
    """pattern repeated to size bytes, read as a little-endian integer."""
    return int.from_bytes(pattern * (size // len(pattern)), "little")


# for lane rotations by 1 and 2 bytes, the mask of the bytes that move down a
# row and the mask of those that wrap to the top rows; for products by 2 and
# 4, the masks of each byte's top 7 and 6 bits after a left shift, and that
# of each byte's low bit
_DOWN1, _WRAP1, _DOWN2, _WRAP2, _HIGH7, _HIGH6, _LOW1 = (
    _widen(pattern, _CHUNK_BYTES)
    for pattern in (
        b"\xff\xff\xff\x00", b"\x00\x00\x00\xff",
        b"\xff\xff\x00\x00", b"\x00\x00\xff\xff",
        b"\xfe", b"\xfc", b"\x01",
    )
)


def _mix_columns(state: bytes, inverse: bool) -> int:
    """MixColumns of every column of state, InvMixColumns if inverse, as a
    little-endian integer."""
    a = int.from_bytes(state, "little")
    if inverse:
        v = a ^ ((a >> 16) & _DOWN2) ^ ((a << 16) & _WRAP2)  # a[j] ^ a[j+2]
        a ^= ((v << 2) & _HIGH6) ^ ((v >> 7) & _LOW1) * 0x36 ^ ((v >> 6) & _LOW1) * 0x1B
    u = a ^ ((a >> 8) & _DOWN1) ^ ((a << 24) & _WRAP1)  # a[j] ^ a[j+1]
    column = u ^ ((u >> 16) & _DOWN2) ^ ((u << 16) & _WRAP2)
    return ((u << 1) & _HIGH7) ^ ((u >> 7) & _LOW1) * 0x1B ^ a ^ column


class _ChunkCipher:
    """One direction of the cipher applied to every block of a size-byte
    buffer at once: encrypt_block with (schedule.round_keys, _FORWARD),
    decrypt_block with (schedule.inverse_round_keys, _INVERSE).

    Holds only the 11 keys, in the order they are applied, widened to size
    bytes, so one instance serves every chunk of that size. The lane masks
    are module constants, one chunk wide, that serve every size.
    """

    def __init__(self, keys: tuple[bytes, ...], direction: _Direction, size: int) -> None:
        self.size = size
        self._direction = direction
        self._first_key, *round_keys, self._last_key = (_widen(k, size) for k in keys)
        self._round_keys = tuple(round_keys)

    def __call__(self, blocks: bytes, text: bytes) -> bytes:
        """Run size bytes of whole blocks through the cipher and XOR the
        result with text, which may be shorter than size."""
        size = self.size
        sbox, shift_rows, inverse = self._direction
        state = (int.from_bytes(blocks, "little") ^ self._first_key).to_bytes(size, "little")
        shifted = bytearray(size)
        for rk in self._round_keys:
            for i, j in enumerate(shift_rows):
                shifted[i::BLOCK_SIZE] = state[j::BLOCK_SIZE]
            mixed = _mix_columns(shifted.translate(sbox), inverse)
            state = (mixed ^ rk).to_bytes(size, "little")
        for i, j in enumerate(shift_rows):
            shifted[i::BLOCK_SIZE] = state[j::BLOCK_SIZE]
        out = (
            int.from_bytes(shifted.translate(sbox), "little")
            ^ self._last_key
            ^ int.from_bytes(text, "little")
        )
        return out.to_bytes(size, "little")


def _chunk_ciphers(
    keys: tuple[bytes, ...], direction: _Direction, length: int
) -> Iterator[tuple[int, _ChunkCipher]]:
    """(start, cipher) for each chunk of a length-byte buffer of whole
    blocks. Every chunk but the last is _CHUNK_BYTES long, so a call builds
    at most two ciphers."""
    cipher = None
    for start in range(0, length, _CHUNK_BYTES):
        size = min(_CHUNK_BYTES, length - start)
        if cipher is None or cipher.size != size:
            cipher = _ChunkCipher(keys, direction, size)
        yield start, cipher


# --------- CBC mode ---------

def cbc_encrypt(data: bytearray | memoryview, schedule: KeySchedule, iv: bytes) -> None:
    """CBC-encrypt data in place: c[i] = E(p[i] ^ c[i-1]) with c[-1] = iv.

    data is a writable buffer that already holds the plaintext and its
    padding (padding(plaintext_len)), so its length is a positive multiple
    of 16. The IV must be 16 fresh random bytes from the caller; it is not
    written into data. Block-serial, since each block chains on the one
    before.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be exactly 16 bytes")
    view = memoryview(data)
    if not view or len(view) % BLOCK_SIZE != 0:
        raise ValueError("padded plaintext must be a positive multiple of 16 bytes")
    prev = iv
    for i in range(0, len(view), BLOCK_SIZE):
        x = int.from_bytes(view[i : i + BLOCK_SIZE], "big") ^ int.from_bytes(prev, "big")
        prev = encrypt_block(x.to_bytes(BLOCK_SIZE, "big"), schedule)
        view[i : i + BLOCK_SIZE] = prev


def cbc_decrypt(data: bytearray | memoryview, schedule: KeySchedule, iv: bytes) -> memoryview:
    """Invert cbc_encrypt in place and strip the padding.

    data is a writable buffer holding the ciphertext; it is decrypted where
    it lies, and the result is a memoryview of the plaintext in it.
    p[i] = D(c[i]) ^ c[i-1] needs no earlier plaintext, so whole chunks of
    _CHUNK_BYTES are decrypted at once; each chunk's last ciphertext block
    is kept before the chunk is overwritten, to chain the next one. Raises
    PaddingError when the ciphertext length is not a positive multiple of 16
    or the recovered padding is invalid (tampering or a wrong key).
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be exactly 16 bytes")
    view = memoryview(data)
    if not view or len(view) % BLOCK_SIZE != 0:
        raise PaddingError("ciphertext length must be a positive multiple of 16")
    prev = iv
    for start, cipher in _chunk_ciphers(schedule.inverse_round_keys, _INVERSE, len(view)):
        end = start + cipher.size
        chain = b"".join((prev, view[start : end - BLOCK_SIZE]))
        prev = bytes(view[end - BLOCK_SIZE : end])
        view[start:end] = cipher(view[start:end], chain)
    return unpad(view)


# --------- CTR mode ---------
#
# The counter blocks of a chunk are built as one big-endian integer, block k
# holding first + k: first times a 1 in every block, plus a ramp 0, 1, 2, ...
# Both are kept for a whole chunk; a shorter chunk takes their top blocks by
# a right shift.

_CHUNK_BLOCKS = _CHUNK_BYTES // BLOCK_SIZE
_COUNTER_MOD = 1 << 128
_ONES = int.from_bytes((1).to_bytes(BLOCK_SIZE, "big") * _CHUNK_BLOCKS, "big")
_RAMP = int.from_bytes(
    b"".join(k.to_bytes(BLOCK_SIZE, "big") for k in range(_CHUNK_BLOCKS)), "big"
)


def ctr_stream(
    data: bytes | memoryview, schedule: KeySchedule, counter: bytes
) -> Iterator[memoryview]:
    """The key stream E(counter), E(counter + 1), ... (NIST SP 800-38A 6.5)
    XORed into data, yielded one chunk of _CHUNK_BYTES at a time as a view
    of the engine's output; the same call encrypts and decrypts.

    The counter is the whole 16-byte block, a big-endian integer incremented
    mod 2^128. It must never repeat under one key: the caller draws 16 fresh
    random bytes per message. No padding: the pieces add up to data's
    length. data is only read.
    """
    if len(counter) != BLOCK_SIZE:
        raise ValueError("counter must be exactly 16 bytes")
    start = int.from_bytes(counter, "big")
    view = memoryview(data)
    length = len(view)
    for pos, cipher in _chunk_ciphers(schedule.round_keys, _FORWARD, length + -length % BLOCK_SIZE):
        size = cipher.size
        blocks = size // BLOCK_SIZE
        first = (start + pos // BLOCK_SIZE) % _COUNTER_MOD
        drop = 128 * (_CHUNK_BLOCKS - blocks)
        counters = first * (_ONES >> drop) + (_RAMP >> drop)
        wrapped = first + blocks - _COUNTER_MOD
        if wrapped > 0:
            # the last `wrapped` blocks passed 2^128: take 2^128 off each
            counters -= (_ONES >> (128 * (_CHUNK_BLOCKS - wrapped))) << 128
        end = min(pos + size, length)
        # the last chunk's key stream runs past the data to a whole block
        out = cipher(counters.to_bytes(size, "big"), view[pos:end])
        yield memoryview(out)[: end - pos]


def ctr_crypt(data: bytearray | memoryview, schedule: KeySchedule, counter: bytes) -> None:
    """ctr_stream written back over data, a writable buffer, in place: each
    chunk is read before its piece is written over it."""
    view = memoryview(data)
    pos = 0
    for piece in ctr_stream(view, schedule, counter):
        view[pos : pos + len(piece)] = piece
        pos += len(piece)
