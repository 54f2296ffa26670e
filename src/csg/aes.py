# AES-128 from scratch: key expansion, single-block encrypt/decrypt, and
# CBC mode with PKCS#7 padding for variable-length messages.
#
# Fixed parameters: 16-byte blocks, 16-byte keys, 10 rounds. The S-boxes and
# GF(2^8) multiplication tables are generated at import time from the field
# definition and cross-checked against each other.
#
# encrypt_block/decrypt_block are the FIPS-197 reference. CBC encryption is
# block-serial through encrypt_block, because each block chains on the
# previous ciphertext. CBC decryption has no such chain, so it runs each
# round over a whole chunk of blocks at once (_InverseCipher), in chunks of
# a fixed _CHUNK_BYTES that bound its scratch memory. The tests check both
# paths against the reference and against the `cryptography` package, which
# is a test-only oracle: this module needs only the standard library.

from __future__ import annotations

from dataclasses import dataclass

BLOCK_SIZE = 16
NUM_ROUNDS = 10


class PaddingError(ValueError):
    """Padding is absent or inconsistent (corrupt or wrongly keyed data)."""


class LengthError(ValueError):
    """Ciphertext length is not a positive multiple of the block size."""


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

@dataclass(frozen=True)
class KeySchedule:
    """The 11 expanded round keys; round_keys[0] is the cipher key itself."""

    round_keys: tuple[bytes, ...]

    def __post_init__(self) -> None:
        if len(self.round_keys) != NUM_ROUNDS + 1 or any(
            len(rk) != BLOCK_SIZE for rk in self.round_keys
        ):
            raise ValueError("schedule must hold 11 round keys of 16 bytes")


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
# State layout is flat input order: byte i sits at row i % 4, column i // 4,
# so each run of 4 bytes is one column. ShiftRows turns into a fixed index
# permutation; the 16 state bytes are kept in scalar locals for speed (pure
# Python pays heavily for per-byte list indexing in the round loop).

def encrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Encrypt one 16-byte block: AddRoundKey, 9 full rounds of
    SubBytes/ShiftRows/MixColumns/AddRoundKey, then a final round without
    MixColumns."""
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be exactly 16 bytes")
    sbox = _SBOX
    m2 = _MUL2
    m3 = _MUL3
    rks = schedule.round_keys
    rk = rks[0]
    s0 = block[0] ^ rk[0]
    s1 = block[1] ^ rk[1]
    s2 = block[2] ^ rk[2]
    s3 = block[3] ^ rk[3]
    s4 = block[4] ^ rk[4]
    s5 = block[5] ^ rk[5]
    s6 = block[6] ^ rk[6]
    s7 = block[7] ^ rk[7]
    s8 = block[8] ^ rk[8]
    s9 = block[9] ^ rk[9]
    s10 = block[10] ^ rk[10]
    s11 = block[11] ^ rk[11]
    s12 = block[12] ^ rk[12]
    s13 = block[13] ^ rk[13]
    s14 = block[14] ^ rk[14]
    s15 = block[15] ^ rk[15]
    for r in range(1, NUM_ROUNDS):
        rk = rks[r]
        # SubBytes + ShiftRows: column c of the shifted state reads rows
        # 0..3 from columns c, c+1, c+2, c+3 of the old state
        a0 = sbox[s0]
        a1 = sbox[s5]
        a2 = sbox[s10]
        a3 = sbox[s15]
        b0 = sbox[s4]
        b1 = sbox[s9]
        b2 = sbox[s14]
        b3 = sbox[s3]
        c0 = sbox[s8]
        c1 = sbox[s13]
        c2 = sbox[s2]
        c3 = sbox[s7]
        d0 = sbox[s12]
        d1 = sbox[s1]
        d2 = sbox[s6]
        d3 = sbox[s11]
        # MixColumns + AddRoundKey
        s0 = m2[a0] ^ m3[a1] ^ a2 ^ a3 ^ rk[0]
        s1 = a0 ^ m2[a1] ^ m3[a2] ^ a3 ^ rk[1]
        s2 = a0 ^ a1 ^ m2[a2] ^ m3[a3] ^ rk[2]
        s3 = m3[a0] ^ a1 ^ a2 ^ m2[a3] ^ rk[3]
        s4 = m2[b0] ^ m3[b1] ^ b2 ^ b3 ^ rk[4]
        s5 = b0 ^ m2[b1] ^ m3[b2] ^ b3 ^ rk[5]
        s6 = b0 ^ b1 ^ m2[b2] ^ m3[b3] ^ rk[6]
        s7 = m3[b0] ^ b1 ^ b2 ^ m2[b3] ^ rk[7]
        s8 = m2[c0] ^ m3[c1] ^ c2 ^ c3 ^ rk[8]
        s9 = c0 ^ m2[c1] ^ m3[c2] ^ c3 ^ rk[9]
        s10 = c0 ^ c1 ^ m2[c2] ^ m3[c3] ^ rk[10]
        s11 = m3[c0] ^ c1 ^ c2 ^ m2[c3] ^ rk[11]
        s12 = m2[d0] ^ m3[d1] ^ d2 ^ d3 ^ rk[12]
        s13 = d0 ^ m2[d1] ^ m3[d2] ^ d3 ^ rk[13]
        s14 = d0 ^ d1 ^ m2[d2] ^ m3[d3] ^ rk[14]
        s15 = m3[d0] ^ d1 ^ d2 ^ m2[d3] ^ rk[15]
    # final round: SubBytes, ShiftRows, AddRoundKey
    rk = rks[NUM_ROUNDS]
    return bytes(
        (
            sbox[s0] ^ rk[0],
            sbox[s5] ^ rk[1],
            sbox[s10] ^ rk[2],
            sbox[s15] ^ rk[3],
            sbox[s4] ^ rk[4],
            sbox[s9] ^ rk[5],
            sbox[s14] ^ rk[6],
            sbox[s3] ^ rk[7],
            sbox[s8] ^ rk[8],
            sbox[s13] ^ rk[9],
            sbox[s2] ^ rk[10],
            sbox[s7] ^ rk[11],
            sbox[s12] ^ rk[12],
            sbox[s1] ^ rk[13],
            sbox[s6] ^ rk[14],
            sbox[s11] ^ rk[15],
        )
    )


def decrypt_block(block: bytes, schedule: KeySchedule) -> bytes:
    """Decrypt one 16-byte block.

    Loop order: initial AddRoundKey with round key 10, then rounds 9..1
    applying InvShiftRows, InvSubBytes, AddRoundKey, InvMixColumns, and a
    final InvShiftRows/InvSubBytes/AddRoundKey with round key 0. Round keys
    are used untransformed.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError("block must be exactly 16 bytes")
    inv = _INV_SBOX
    m9 = _MUL9
    m11 = _MUL11
    m13 = _MUL13
    m14 = _MUL14
    rks = schedule.round_keys
    rk = rks[NUM_ROUNDS]
    s0 = block[0] ^ rk[0]
    s1 = block[1] ^ rk[1]
    s2 = block[2] ^ rk[2]
    s3 = block[3] ^ rk[3]
    s4 = block[4] ^ rk[4]
    s5 = block[5] ^ rk[5]
    s6 = block[6] ^ rk[6]
    s7 = block[7] ^ rk[7]
    s8 = block[8] ^ rk[8]
    s9 = block[9] ^ rk[9]
    s10 = block[10] ^ rk[10]
    s11 = block[11] ^ rk[11]
    s12 = block[12] ^ rk[12]
    s13 = block[13] ^ rk[13]
    s14 = block[14] ^ rk[14]
    s15 = block[15] ^ rk[15]
    for r in range(NUM_ROUNDS - 1, 0, -1):
        rk = rks[r]
        # InvShiftRows + InvSubBytes (per-byte, so they commute with the
        # permutation), then AddRoundKey folded into the column loads
        a0 = inv[s0] ^ rk[0]
        a1 = inv[s13] ^ rk[1]
        a2 = inv[s10] ^ rk[2]
        a3 = inv[s7] ^ rk[3]
        b0 = inv[s4] ^ rk[4]
        b1 = inv[s1] ^ rk[5]
        b2 = inv[s14] ^ rk[6]
        b3 = inv[s11] ^ rk[7]
        c0 = inv[s8] ^ rk[8]
        c1 = inv[s5] ^ rk[9]
        c2 = inv[s2] ^ rk[10]
        c3 = inv[s15] ^ rk[11]
        d0 = inv[s12] ^ rk[12]
        d1 = inv[s9] ^ rk[13]
        d2 = inv[s6] ^ rk[14]
        d3 = inv[s3] ^ rk[15]
        # InvMixColumns
        s0 = m14[a0] ^ m11[a1] ^ m13[a2] ^ m9[a3]
        s1 = m9[a0] ^ m14[a1] ^ m11[a2] ^ m13[a3]
        s2 = m13[a0] ^ m9[a1] ^ m14[a2] ^ m11[a3]
        s3 = m11[a0] ^ m13[a1] ^ m9[a2] ^ m14[a3]
        s4 = m14[b0] ^ m11[b1] ^ m13[b2] ^ m9[b3]
        s5 = m9[b0] ^ m14[b1] ^ m11[b2] ^ m13[b3]
        s6 = m13[b0] ^ m9[b1] ^ m14[b2] ^ m11[b3]
        s7 = m11[b0] ^ m13[b1] ^ m9[b2] ^ m14[b3]
        s8 = m14[c0] ^ m11[c1] ^ m13[c2] ^ m9[c3]
        s9 = m9[c0] ^ m14[c1] ^ m11[c2] ^ m13[c3]
        s10 = m13[c0] ^ m9[c1] ^ m14[c2] ^ m11[c3]
        s11 = m11[c0] ^ m13[c1] ^ m9[c2] ^ m14[c3]
        s12 = m14[d0] ^ m11[d1] ^ m13[d2] ^ m9[d3]
        s13 = m9[d0] ^ m14[d1] ^ m11[d2] ^ m13[d3]
        s14 = m13[d0] ^ m9[d1] ^ m14[d2] ^ m11[d3]
        s15 = m11[d0] ^ m13[d1] ^ m9[d2] ^ m14[d3]
    rk = rks[0]
    return bytes(
        (
            inv[s0] ^ rk[0],
            inv[s13] ^ rk[1],
            inv[s10] ^ rk[2],
            inv[s7] ^ rk[3],
            inv[s4] ^ rk[4],
            inv[s1] ^ rk[5],
            inv[s14] ^ rk[6],
            inv[s11] ^ rk[7],
            inv[s8] ^ rk[8],
            inv[s5] ^ rk[9],
            inv[s2] ^ rk[10],
            inv[s15] ^ rk[11],
            inv[s12] ^ rk[12],
            inv[s9] ^ rk[13],
            inv[s6] ^ rk[14],
            inv[s3] ^ rk[15],
        )
    )


# --------- PKCS#7 padding ---------

def padded_len(plaintext_len: int) -> int:
    """Length of the padded plaintext, and so of its CBC ciphertext: the next
    multiple of 16, a full extra block when the input is already aligned."""
    return plaintext_len - plaintext_len % BLOCK_SIZE + BLOCK_SIZE


def pad(data: bytes) -> bytes:
    """Append n copies of byte n so the length becomes padded_len(len(data))."""
    n = padded_len(len(data)) - len(data)
    return data + bytes([n]) * n


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


# --------- whole-buffer decryption ---------
#
# decrypt_block's rounds, run over every block of a buffer at once. The
# buffer is read as one little-endian integer, so the 4 bytes of a column
# form a 32-bit lane with row j in bits 8j..8j+7:
#   InvSubBytes     one bytes.translate with _INV_SBOX;
#   InvShiftRows    16 strided slice copies (byte i of each block takes
#                   byte _INV_SHIFT_ROWS[i] of the same block);
#   InvMixColumns   row j gets 14*a[j] ^ 11*a[j+1] ^ 13*a[j+2] ^ 9*a[j+3]:
#                   one translate per _MUL table, then the 11/13/9 terms
#                   rotated inside each lane by shifts and lane masks;
#   AddRoundKey     one integer XOR with the round key repeated per block.
# InvMixColumns is linear, so AddRoundKey moves after it when the round key
# goes through InvMixColumns too (FIPS-197 5.3.5, the equivalent inverse
# cipher); a round then converts bytes to integers once per table.

_CHUNK_BYTES = 16 * 1024  # bounds the scratch buffers of one decrypt call
_INV_SHIFT_ROWS = (0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3)


def _widen(pattern: bytes, size: int) -> int:
    """pattern repeated to size bytes, read as a little-endian integer."""
    return int.from_bytes(pattern * (size // len(pattern)), "little")


def _lane_masks(size: int) -> tuple[int, ...]:
    """For lane rotations by 1, 2 and 3 bytes: the mask of the bytes that
    move down a row and the mask of those that wrap to the top rows."""
    return tuple(
        _widen(pattern, size)
        for pattern in (
            b"\xff\xff\xff\x00", b"\x00\x00\x00\xff",
            b"\xff\xff\x00\x00", b"\x00\x00\xff\xff",
            b"\xff\x00\x00\x00", b"\x00\xff\xff\xff",
        )
    )


_BLOCK_MASKS = _lane_masks(BLOCK_SIZE)


def _inv_mix_columns(state: bytes, masks: tuple[int, ...]) -> int:
    """InvMixColumns of every column of state, as a little-endian integer."""
    down1, wrap1, down2, wrap2, down3, wrap3 = masks
    x11 = int.from_bytes(state.translate(_MUL11), "little")
    x13 = int.from_bytes(state.translate(_MUL13), "little")
    x9 = int.from_bytes(state.translate(_MUL9), "little")
    return (
        int.from_bytes(state.translate(_MUL14), "little")
        ^ ((x11 >> 8) & down1) ^ ((x11 << 24) & wrap1)
        ^ ((x13 >> 16) & down2) ^ ((x13 << 16) & wrap2)
        ^ ((x9 >> 24) & down3) ^ ((x9 << 8) & wrap3)
    )


class _InverseCipher:
    """decrypt_block applied to every block of a size-byte buffer at once.

    Holds the round keys and lane masks widened to size bytes, so one
    instance serves every chunk of that size.
    """

    def __init__(self, schedule: KeySchedule, size: int) -> None:
        rks = schedule.round_keys
        self.size = size
        self._masks = _lane_masks(size)
        self._first_key = _widen(rks[NUM_ROUNDS], size)
        self._round_keys = tuple(
            _widen(_inv_mix_columns(rk, _BLOCK_MASKS).to_bytes(BLOCK_SIZE, "little"), size)
            for rk in rks[NUM_ROUNDS - 1 : 0 : -1]
        )
        self._last_key = _widen(rks[0], size)

    def __call__(self, blocks: bytes, chain: bytes) -> bytes:
        """Decrypt size bytes of whole blocks and XOR the result with chain."""
        size = self.size
        masks = self._masks
        state = (int.from_bytes(blocks, "little") ^ self._first_key).to_bytes(size, "little")
        shifted = bytearray(size)
        for rk in self._round_keys:
            for i, j in enumerate(_INV_SHIFT_ROWS):
                shifted[i::BLOCK_SIZE] = state[j::BLOCK_SIZE]
            mixed = _inv_mix_columns(shifted.translate(_INV_SBOX), masks)
            state = (mixed ^ rk).to_bytes(size, "little")
        for i, j in enumerate(_INV_SHIFT_ROWS):
            shifted[i::BLOCK_SIZE] = state[j::BLOCK_SIZE]
        out = (
            int.from_bytes(shifted.translate(_INV_SBOX), "little")
            ^ self._last_key
            ^ int.from_bytes(chain, "little")
        )
        return out.to_bytes(size, "little")


# --------- CBC mode ---------

def cbc_encrypt(plaintext: bytes, schedule: KeySchedule, iv: bytes) -> bytes:
    """CBC-encrypt pad(plaintext): c[i] = E(p[i] ^ c[i-1]) with c[-1] = iv.

    The IV must be 16 fresh random bytes from the caller; it is not included
    in the returned ciphertext. Block-serial, since each block chains on the
    one before.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be exactly 16 bytes")
    padded = pad(plaintext)
    out = bytearray()
    prev = iv
    for i in range(0, len(padded), BLOCK_SIZE):
        x = int.from_bytes(padded[i : i + BLOCK_SIZE], "big") ^ int.from_bytes(prev, "big")
        prev = encrypt_block(x.to_bytes(BLOCK_SIZE, "big"), schedule)
        out += prev
    return bytes(out)


def cbc_decrypt(ciphertext: bytes, schedule: KeySchedule, iv: bytes) -> bytes:
    """Invert cbc_encrypt and strip the padding.

    p[i] = D(c[i]) ^ c[i-1] needs no earlier plaintext, so whole chunks of
    _CHUNK_BYTES are decrypted at once. Raises LengthError when the
    ciphertext length is not a positive multiple of 16, PaddingError when
    the recovered padding is invalid (tampering or a wrong key).
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("iv must be exactly 16 bytes")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE != 0:
        raise LengthError("ciphertext length must be a positive multiple of 16")
    out = bytearray(len(ciphertext))
    cipher = None
    for start in range(0, len(ciphertext), _CHUNK_BYTES):
        end = min(start + _CHUNK_BYTES, len(ciphertext))
        # only the last chunk can differ in size from the ones before it
        if cipher is None or cipher.size != end - start:
            cipher = _InverseCipher(schedule, end - start)
        if start:
            chain = ciphertext[start - BLOCK_SIZE : end - BLOCK_SIZE]
        else:
            chain = iv + ciphertext[: end - BLOCK_SIZE]
        out[start:end] = cipher(ciphertext[start:end], chain)
    # a view, so stripping the padding copies the plaintext only once
    return unpad(memoryview(out)).tobytes()
