"""96-bit modular arithmetic for ultralightweight RFID authentication.

Every protocol quantity (pseudonyms, keys, nonces, messages, the additive
constant) is an unsigned 96-bit word, matching the EPC convention of 96-bit
identifiers.  Words are plain Python ints in [0, 2**96); all arithmetic
wraps modulo 2**96 and never overflows or saturates.  The canonical text
form is exactly 24 lowercase hex digits, most significant nibble first.

``mixbits_original_lanes`` runs the shift MixBits of many independent word
pairs at once, each pair in its own lane of one big int (``to_lanes``,
``from_lanes``); its docstring says why no lane disturbs another.
``peel_rotations`` runs the peel rotr(rotr(w, t) - k, q) - c for all 96
rotations t at once, in lanes of the same 13 bytes, and reads each
result's residue mod 96 from one byte of its lane (the 3 | 2**96 - 1
congruence in its docstring); the modified Gossamer tag's 96-residue
search is two such calls.

``mixbits_original`` first looks its inputs up in one table of values that
a caller computed ahead and installed with ``use_mixbits_table`` (an
original-Gossamer campaign installs its block's ``gossamer.mixbits_table``
for the length of each session).  The table holds only exact values and
is replaced whole, never edited, so a miss costs time, never correctness:
every function returns the same value for the same inputs from any
number of threads, whatever table is installed.
"""

import struct
from itertools import repeat

WIDTH = 96
MASK = (1 << WIDTH) - 1

# First 24 hex digits of pi, kept as a literal per the protocol definition
# (never recomputed from the real number).
PI = 0x3243F6A8885A308D313198A2

MIXBITS_ROUNDS = 32

# Alias used in signatures package-wide; a word is just an int in range.
Word96 = int


def add(a: Word96, b: Word96) -> Word96:
    """(a + b) mod 2**96."""
    return (a + b) & MASK


def sub(a: Word96, b: Word96) -> Word96:
    """(a - b) mod 2**96; inverse of add."""
    return (a - b) & MASK


def rotl(x: Word96, y: Word96) -> Word96:
    """Circular left shift of x by (y mod 96) bit positions.

    The amount is reduced modulo 96 on the full value of y, so
    rotl(x, y) == rotl(x, y + 96k) for any k.  Bijective in x for fixed y.
    """
    return rotr(x, -y)


def rotr(x: Word96, y: Word96) -> Word96:
    """Circular right shift; rotr(rotl(x, y), y) == x."""
    n = y % WIDTH
    return ((x >> n) | (x << (WIDTH - n))) & MASK


def mixbits_original(x: Word96, y: Word96) -> Word96:
    """Shift-based MixBits: 32 rounds of Z <- (Z >> 1) + Z + Z + Y.

    Addition wraps mod 2**96 every round; >> is a logical one-bit shift.
    A round runs as Z <- (5Z >> 1) + Y: (z >> 1) + z + z is floor(z / 2)
    + 2z = floor(5z / 2), since 2z is whole.  An (x, y) in the installed
    table (``use_mixbits_table``) is answered from it, any other as the one
    lane of ``mixbits_original_lanes``, whose lane form of a word is the
    word itself and whose mask is then MASK.  Note mixbits_original(0, 0)
    == 0, the fixed point the zero-nonce attack rides on.
    """
    z = _table.get((x, y))
    return mixbits_original_lanes(x, y, 1) if z is None else z


# (x, y) -> mixbits_original(x, y), exact values only; see use_mixbits_table
_table: dict[tuple[Word96, Word96], Word96] = {}


def use_mixbits_table(table: dict[tuple[Word96, Word96], Word96]) -> None:
    """Install ``table``, {(x, y): mixbits_original(x, y)}, for
    mixbits_original to answer from, replacing the one installed; ``{}``
    clears it."""
    global _table
    _table = table


# A lane of the lane form: 13 bytes, 8 spare bits above each word.
_LANE_BYTES = 13
_LANE_BITS = 8 * _LANE_BYTES
_LANE_MASK_BYTES = MASK.to_bytes(_LANE_BYTES, "little")


def to_lanes(words: list[Word96]) -> int:
    """The lane form of ``words``: word i in bits 104i..104i+95 of one int
    (13 bytes a lane, little-endian), the spare bits above each word zero.
    A word outside [0, 2**96) raises OverflowError (12 bytes each, joined by
    the zero byte), so none reaches into its neighbour's lane."""
    return int.from_bytes(b"\0".join([x.to_bytes(12, "little") for x in words]), "little")


def from_lanes(z: int, n: int) -> list[Word96]:
    """The ``n`` words of the lane form ``z``; the inverse of ``to_lanes``.
    The bytes are cut into lanes by one ``struct.unpack`` and converted by
    one ``map``, with no Python-level loop."""
    return list(map(int.from_bytes,
                    struct.unpack("13s" * n, z.to_bytes(_LANE_BYTES * n, "little")),
                    repeat("little", n)))


def mixbits_original_lanes(z: int, y: int, n: int) -> int:
    """The lane form of mixbits_original(x, y) for each lane of the ``n``-lane
    forms ``z`` (of the x words) and ``y``, so that chained calls pack their
    inputs and unpack their results once.

    Each round runs once over every lane as mixbits_original's
    Z <- (5Z >> 1) + Y, masked to the low 96 bits of each lane.  That is
    exact: 5z < 2**99 stays inside its lane.  The only bit that crosses a
    lane boundary is the low bit of 5z in lane i + 1, which the shift moves
    to bit 103 of lane i; adding y < 2**96 to floor(5z / 2) < 2**98 never
    carries into it, and the mask clears it.  A round thus costs four
    big-int operations over the whole block instead of one loop per word.
    """
    mask = int.from_bytes(_LANE_MASK_BYTES * n, "little")
    for _ in range(MIXBITS_ROUNDS):
        z = ((z * 5 >> 1) + y) & mask
    return z


# a 1 in bit 0 of each of the WIDTH lanes peel_rotations works in
_LANE_ONES = int.from_bytes((b"\1" + bytes(_LANE_BYTES - 1)) * WIDTH, "little")


def _lane_bits(lo: int, hi: int) -> int:
    """Bits lo..hi-1 of each of peel_rotations' lanes set."""
    return (_LANE_ONES << hi) - (_LANE_ONES << lo)


# peel_rotations' masks: bits 1..96-t of lane t, for w >> t; bits 97-t..96
# of it, for w's low t bits; per j, bits 0..j-1 of every lane, for the two
# halves of a rotation; and bit 97 of every lane (the carry of the key
# subtraction) with bit 103 of the odd ones (which the key's template sets)
_SPREAD_LOW = int.from_bytes(b"".join([((1 << WIDTH + 1 - t) - 2).to_bytes(_LANE_BYTES, "little")
                                       for t in range(WIDTH)]), "little")
_SPREAD_HIGH = _SPREAD_LOW ^ _lane_bits(1, WIDTH + 1)
_LOW_BITS = [_lane_bits(0, j) for j in range(WIDTH + 1)]
_CARRY_AND_ODD = _lane_bits(WIDTH + 1, WIDTH + 2) | int.from_bytes(
    (bytes(2 * _LANE_BYTES - 1) + b"\x80") * (WIDTH // 2), "little")


def _residue_tables() -> dict[tuple[int, int, int], bytes]:
    """peel_rotations' 18 tables from a lane's byte 12 to V mod 96, one per
    (sigma * (w mod 3) mod 3, (sigma * K + C) mod 3, sigma).

    The byte holds v (bit 0), u (bit 1), m32 = V mod 32 (bits 2..6) and
    whether t is odd (bit 7); V mod 3 is m3 = (alpha * rho + beta - sigma *
    u - v) mod 3 with rho = 2 for odd t, else 1.  V mod 96 is the CRT of m32
    and m3 in closed form, m32 + 32 * ((2 * (m3 - m32)) mod 3): 32 = 2 and
    2 * 2 = 1 (mod 3).  A table is first built in the order m32 + 32 * (v +
    2u + 4 * odd), as 8 rows of 32 entries, then put in the byte's order by
    one translate.
    """
    rows = [bytes([m + 32 * (2 * (m3 - m) % 3) for m in range(32)]) for m3 in range(3)]
    order = bytes([(x >> 2 & 31) | (x & 3) << 5 | (x & 128) for x in range(256)])
    tables = {}
    for alpha in range(3):
        for beta in range(3):
            for sigma in (1, 2):
                tables[alpha, beta, sigma] = order.translate(b"".join(
                    [rows[(alpha * (1 + odd) + beta - sigma * u - v) % 3]
                     for odd in (0, 1) for u in (0, 1) for v in (0, 1)]))
    return tables


_RESIDUE_TABLES = _residue_tables()


def _every_lane_pair(x: int) -> int:
    """The two lanes ``x`` (bits 0..207) repeated in each pair of
    peel_rotations' lanes: four doubling shift-ors and one tripling."""
    x |= x << 208
    x |= x << 416
    x |= x << 832
    x |= x << 1664
    return x | x << 3328 | x << 6656


def peel_rotations(w: Word96, k: int, q: int, c: int) -> tuple[bytes, bytes]:
    """V_t = rotr(rotr(w, t) - k, q) - c (mod 2**96) for every t in 0..95,
    as ``(residues, lanes)``: ``residues[t]`` is V_t mod 96 and ``lanes``
    holds V_t in bytes 13t..13t+11 (``lane_word``).  ``w`` must be a word,
    in [0, 2**96); ``k``, ``q`` and ``c`` may be any ints (c up to 3 * 2**96,
    say), used mod 2**96, 96 and 2**96.

    Lane t of one big int (13 bytes, as ``to_lanes``) computes V_t:

    - Every rotation of w from one spread.  Five doubling shift-ors and
      one tripling place w << 1 at bit 103t for each t; the copies are 97
      bits wide, so none overlaps the next.  Copy t starts t bits below
      lane t's bit 1: masked to bits 1..96-t of lane t it is w >> t, and
      shifted up 96 and masked to bits 97-t..96 it is w's low t bits, so
      their OR is rotr(w, t) in bits 1..96 of lane t.  The masks drop
      every bit of another copy.
    - Adding -k (mod 2**96), spread to bits 1..96 of each lane, leaves
      X_t = rotr(w, t) - k in those bits and its carry u_t in bit 97; the
      sum is below 2**98, so it stays in its lane.
    - X_t rotated right by q: shifted down q + 1 and masked to bits
      0..95-q, which clears u_t and the bits that crossed from the lane
      above (they land at bit 103-q or higher); and masked to bits 0..q
      (bit 0 is clear, so these are X_t's low q bits) and shifted up
      95 - q, to bits 96-q..95, where nothing crosses a lane boundary.
    - Adding -c (mod 2**96) leaves V_t in bits 0..95 and its carry v_t in
      bit 96, again in the lane.

    Byte 12 of each lane then holds v_t, u_t, V_t mod 32 (copied from its
    low 5 bits to bits 98..102) and whether t is odd (bit 103, which the
    template of -k sets in odd lanes).  That byte is enough for V_t mod 3:
    rotr(x, t) = x * 2**(96 - t) (mod 2**96 - 1), and 3 divides 2**96 - 1,
    so mod 3, where 2**2 = 1, rotr(x, t) = x * 2**t and 2**96 = 1.  With
    rho_t = 2**t and sigma = 2**q (mod 3),

        V_t = sigma * (w * rho_t + (-k) - u_t) + (-c) - v_t  (mod 3),

    where w, -k and -c are per-call constants, and every carry and
    reduction mod 2**96 is accounted for by u_t and v_t, so it is exact.
    One translate through the table of (sigma * w, sigma * (-k) + (-c),
    sigma) mod 3 maps the 96 bytes ``lanes[12::13]`` to every V_t mod 96,
    with no Python-level loop and no lane decoded.
    """
    q %= WIDTH
    nk = -k & MASK
    nc = -c & MASK
    p = w << 1
    p |= p << 103
    p |= p << 206
    p |= p << 412
    p |= p << 824
    p |= p << 1648
    p |= p << 3296 | p << 6592
    # rotr(w, t) - k in bits 1..96 of lane t (carry in bit 97), bit 103 set in odd lanes
    x = ((p & _SPREAD_LOW) | (p << WIDTH & _SPREAD_HIGH)) \
        + _every_lane_pair(nk << 1 | (nk << 1 | 1 << 103) << _LANE_BITS)
    cc = _every_lane_pair(nc | nc << _LANE_BITS)
    z = ((x >> q + 1 & _LOW_BITS[WIDTH - q]) | (x & _LOW_BITS[q + 1]) << WIDTH - 1 - q) + cc \
        | x & _CARRY_AND_ODD
    lanes = (z | (z & _LOW_BITS[5]) << 98).to_bytes(_LANE_BYTES * WIDTH, "little")
    sigma = 1 + (q & 1)
    return (lanes[12::_LANE_BYTES].translate(
        _RESIDUE_TABLES[sigma * w % 3, (sigma * nk + nc) % 3, sigma]), lanes)


def lane_word(lanes: bytes, t: int) -> Word96:
    """Word t of ``peel_rotations``' lanes: bytes 13t..13t+11."""
    return int.from_bytes(lanes[_LANE_BYTES * t:_LANE_BYTES * t + 12], "little")


def mixbits_modified(x: Word96, y: Word96) -> Word96:
    """Counter-based MixBits: 32 rounds of Z <- (Z + i) + Z + Z + Y, i = 0..31.

    The round counter enters as a plain small integer, added mod 2**96.
    Unlike the shift-based variant, the all-zero input does not map to
    zero (nor to zero mod 96).

    Evaluated in closed form.  A round is the affine map Z <- 3Z + (i + Y)
    over the ring of integers mod 2**96, so unrolling R rounds gives

        Z_R = 3^R X + sum_{i<R} 3^(R-1-i) (i + Y)
            = 3^R X + Y (3^R - 1)/2 + sum_{i<R} i 3^(R-1-i)   (mod 2**96)

    with one multiply-add per input in place of R rounds; reducing once
    at the end equals reducing every round because reduction mod 2**96
    respects + and *.  The shift-based variant has no such form: the
    floor in Z >> 1 does not distribute over the wrapped sum, so its
    rounds are not affine mod 2**96.
    """
    return (_MIX_X * x + _MIX_Y * y + _MIX_C) & MASK


# The three constants of mixbits_modified's closed form for MIXBITS_ROUNDS.
_MIX_X = 3 ** MIXBITS_ROUNDS
_MIX_Y = (3 ** MIXBITS_ROUNDS - 1) // 2
_MIX_C = sum(i * 3 ** (MIXBITS_ROUNDS - 1 - i) for i in range(MIXBITS_ROUNDS))


def to_hex(x: Word96) -> str:
    """The canonical form of a word in [0, 2**96): 24 lowercase hex digits, as
    12 big-endian bytes (about 60% of the cost of ``"%024x" % x``, Python 3.11).
    Out of range raises OverflowError, so no other text is ever written."""
    return x.to_bytes(12, "big").hex()


def from_hex(text: str) -> Word96:
    """Parse the canonical 24-digit form; reject everything else.

    A str of 24 characters is canonical when stripping every lowercase hex
    digit from its ends leaves nothing.  A value that is not a str raises
    TypeError: ``str.strip`` is called unbound so that bytes and lists fail.
    """
    if len(text) != 24 or str.strip(text, "0123456789abcdef"):
        raise ValueError(f"not a canonical 96-bit hex word: {text!r}")
    return int(text, 16)
