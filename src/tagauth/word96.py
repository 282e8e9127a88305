"""96-bit modular arithmetic for ultralightweight RFID authentication.

Every protocol quantity (pseudonyms, keys, nonces, messages, the additive
constant) is an unsigned 96-bit word, matching the EPC convention of 96-bit
identifiers.  Words are plain Python ints in [0, 2**96); all arithmetic
wraps modulo 2**96 and never overflows or saturates.  The canonical text
form is exactly 24 lowercase hex digits, most significant nibble first.

``mixbits_original_lanes`` runs the shift MixBits of many independent word
pairs at once, each pair in its own lane of one big int (``to_lanes``,
``from_lanes``); its docstring says why no lane disturbs another.

``mixbits_original`` first looks its inputs up in one table of values that
a caller computed ahead and installed with ``use_mixbits_table`` (an
original-Gossamer campaign installs its block's ``gossamer.mixbits_table``
for the length of each session).  The table holds only exact values and
is replaced whole, never edited, so a miss costs time, never correctness:
every function returns the same value for the same inputs from any
number of threads, whatever table is installed.
"""

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
    n = y % WIDTH
    return ((x << n) | (x >> (WIDTH - n))) & MASK


def rotr(x: Word96, y: Word96) -> Word96:
    """Circular right shift; rotr(rotl(x, y), y) == x."""
    n = y % WIDTH
    return ((x >> n) | (x << (WIDTH - n))) & MASK


def mixbits_original(x: Word96, y: Word96) -> Word96:
    """Shift-based MixBits: 32 rounds of Z <- (Z >> 1) + Z + Z + Y.

    Addition wraps mod 2**96 every round; >> is a logical one-bit shift.
    A round runs as Z <- (5Z >> 1) + Y: (z >> 1) + z + z is floor(z / 2)
    + 2z = floor(5z / 2), since 2z is whole.  An (x, y) in the installed
    table (``use_mixbits_table``) is answered from it.  Note
    mixbits_original(0, 0) == 0, the fixed point the zero-nonce attack
    rides on.
    """
    z = _table.get((x, y))
    if z is None:
        z = x
        for _ in range(MIXBITS_ROUNDS):
            z = ((z * 5 >> 1) + y) & MASK
    return z


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
_LANE_MASK_BYTES = MASK.to_bytes(_LANE_BYTES, "little")


def to_lanes(words: list[Word96]) -> int:
    """The lane form of ``words``: word i in bits 104i..104i+95 of one int
    (13 bytes a lane, little-endian), the spare bits above each word zero."""
    return int.from_bytes(b"".join([x.to_bytes(_LANE_BYTES, "little") for x in words]),
                          "little")


def from_lanes(z: int, n: int) -> list[Word96]:
    """The ``n`` words of the lane form ``z``; the inverse of ``to_lanes``."""
    data = z.to_bytes(_LANE_BYTES * n, "little")
    return [int.from_bytes(data[i:i + _LANE_BYTES], "little")
            for i in range(0, _LANE_BYTES * n, _LANE_BYTES)]


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
