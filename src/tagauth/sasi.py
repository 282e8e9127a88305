"""SASI mutual authentication (Chien 2007) as tag and reader state machines.

Message and update forms, all over 96-bit words with Rot(x, y) a left
rotation by y mod 96:

    A        = IDS xor K1 xor n1
    B        = (IDS or K2) + n2
    K1'      = Rot(K1 xor n2, K1)
    K2'      = Rot(K2 xor n1, K2)
    C        = (K1 xor K2') + (K2 xor K1')
    D        = (K2' + ID) xor ((K1 xor K2) or K1')
    IDS_next = (IDS + ID) xor (n2 xor K1')

``session_values`` below is the single definition site for all of these.
The session record, the two-tuple tag state and its announce/retry and
finish steps are shared with Gossamer (``tagstate``).

State objects are plain mutable values; a session touches only its own
tag, so concurrent sessions against distinct tags need no coordination.
"""

from .tagstate import SessionValues, TagState, rotate, tuple_of
from .word96 import MASK, Word96, rotl


def session_values(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                   n1: Word96, n2: Word96) -> SessionValues:
    """Evaluate the SASI session equations for one (tuple, nonce-pair);
    K1'/K2' are both the session keys and the staged keys."""
    k1n = rotl(k1 ^ n2, k1)
    k2n = rotl(k2 ^ n1, k2)
    return SessionValues(n1, n2, None, None, None, k1n, k2n,
                         ids ^ k1 ^ n1,                                # A
                         ((ids | k2) + n2) & MASK,                     # B
                         ((k1 ^ k2n) + (k2 ^ k1n)) & MASK,             # C
                         ((k2n + id_) & MASK) ^ ((k1 ^ k2) | k1n),     # D
                         ((ids + id_) & MASK) ^ n2 ^ k1n,              # IDS_next
                         k1n, k2n)


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                 n1: Word96, n2: Word96) -> tuple[Word96, Word96, Word96, SessionValues]:
    """Build A||B||C for the matched record and stage the update.

    Returns (a, b, c, pending); pending carries the expected D and the
    staged next tuple for reader_finish.
    """
    vals = session_values(ids, k1, k2, id_, n1, n2)
    return vals.a, vals.b, vals.c, vals


def tag_respond(tag: TagState, a: Word96, b: Word96, c: Word96) -> Word96 | None:
    """Authenticate the reader from A||B||C; emit D and commit, or reject.

    Nonces are recovered exactly by inverting A and B.  Returns None with
    the state untouched when the locally rebuilt C disagrees (wrong keys
    or a corrupted message).
    """
    ids, k1, k2 = tuple_of(tag, tag.last_announced)
    vals = session_values(ids, k1, k2, tag.id, a ^ ids ^ k1, (b - (ids | k2)) & MASK)
    if vals.c != c:
        return None
    rotate(tag, tag.last_announced, (vals.ids_next, vals.k1_next, vals.k2_next))
    return vals.d
