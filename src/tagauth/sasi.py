"""SASI mutual authentication (Chien 2007) as tag and reader phases.

Message and update forms, all over 96-bit words with Rot(x, y) a left
rotation by y mod 96:

    A        = IDS xor K1 xor n1
    B        = (IDS or K2) + n2
    K1'      = Rot(K1 xor n2, K1)
    K2'      = Rot(K2 xor n1, K2)
    C        = (K1 xor K2') + (K2 xor K1')
    D        = (K2' + ID) xor ((K1 xor K2) or K1')
    IDS_next = (IDS + ID) xor (n2 xor K1')

``_derive`` is the single definition site of all but A and B, which
``reader_begin`` builds and ``accept_sasi`` inverts.  Both phases answer in
the plain words ``tagstate`` describes: SASI has no n3, n1' or n2' (None),
and its session keys K1'/K2' are both K1*/K2* and the staged keys.  Unlike
Gossamer's, these equations OR and rotate by keys alone, so they are
written by hand rather than rendered from a table.

State objects are plain mutable values; a session touches only its own
tag, so concurrent sessions against distinct tags need no coordination.
"""

from .tagstate import DERIVED, TagState, respond
from .word96 import MASK, Word96, rotl


def _derive(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96,
            n2: Word96) -> tuple[Word96, Word96, tuple[Word96, Word96, Word96]]:
    """(C, D, staged (IDS_next, K1', K2')) of one (tuple, nonce pair)."""
    k1n = rotl(k1 ^ n2, k1)
    k2n = rotl(k2 ^ n1, k2)
    return (((k1 ^ k2n) + (k2 ^ k1n)) & MASK,                          # C
            ((k2n + id_) & MASK) ^ ((k1 ^ k2) | k1n),                  # D
            (((ids + id_) & MASK) ^ n2 ^ k1n, k1n, k2n))               # staged


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96,
                 n2: Word96) -> tuple[Word96, Word96, Word96, Word96, tuple, tuple]:
    """(A, B, C, D, staged, internals) of a session on the matched record."""
    c, d, staged = _derive(ids, k1, k2, id_, n1, n2)
    return (ids ^ k1 ^ n1, ((ids | k2) + n2) & MASK, c, d, staged,
            (n1, n2, None, None, None, staged[1], staged[2]))


def accept_sasi(ids: Word96, k1: Word96, k2: Word96, id_: Word96, a: Word96,
                b: Word96, c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The tag's answer to A||B||C: (D, staged), or None when the nonces
    peeled from A and B (exactly: XOR and addition invert) do not rebuild C.
    C, D and staged are the reader's ``DERIVED`` entry if it holds these inputs."""
    n1, n2 = a ^ ids ^ k1, (b - (ids | k2)) & MASK
    derived = DERIVED.get((ids, k1, k2, id_, n1, n2))
    rebuilt, d, staged = _derive(ids, k1, k2, id_, n1, n2) if derived is None else derived
    return (d, staged) if rebuilt == c else None


def tag_respond(tag: TagState, a: Word96, b: Word96, c: Word96) -> Word96 | None:
    """Authenticate the reader from A||B||C (``accept_sasi``); emit D and
    commit, or reject with the state untouched and return None."""
    return respond(tag, accept_sasi, a, b, c)
