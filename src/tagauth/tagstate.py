"""Tag state shared by SASI and Gossamer: static id, next and old tuples,
and the one tag body (``respond``) every protocol answers through.

The tag keeps two (IDS, K1, K2) tuples, the potential-next one and the one
used last, so a lost D never strands it: when the backend does not
recognize the next pseudonym, the tag re-announces the old one.  The tag
commits its update the moment it emits D; the reader commits only after
verifying D.

Both sides, the tag's ``TagState`` and the reader's ``TagRecordRow`` (which
share the six tuple field names), follow one rule: a session runs on the
tuple the announced IDS matched (``tuple_of``), and its commit makes that
tuple the old one and the staged tuple the next one (``rotate``).  On an
old-side session the old tuple therefore stays, and the next is replaced.

Every protocol speaks in plain words.  Its reader phase, ``reader_begin``,
returns (A, B, C, D, staged, internals): the expected D, the staged
(IDS+, K1+, K2+), and the seven internals in ground truth's field order
(n1, n2, n3, n1', n2', K1*, K2*).  Its tag phase, ``accept_<protocol>``,
returns (D, staged) or None, and ``respond`` is the tag body around it.

``DERIVED`` holds the reader's derivation of the running session for the
tag to answer from.  The tag of an honest session recovers the very nonces
the reader drew, so its C, D and staged tuple would be the reader's, computed
again; its accept phase looks up the inputs it has recovered and, on a hit,
only compares C.  The entry is exact, keyed by all the derivation reads, so
a miss (a tampered message, other nonces, no reader) costs time, never
correctness.
"""

from dataclasses import dataclass

from .word96 import Word96

NEXT = "next"
OLD = "old"

# {arguments of reader_begin (the matched (IDS, K1, K2), ID, n1, n2 and, for
# Gossamer, the variant): (C, D, staged)}; simulator.run_session installs one
# entry for the length of the tag's phase
DERIVED: dict[tuple, tuple[Word96, Word96, tuple[Word96, Word96, Word96]]] = {}


@dataclass
class TagState:
    """Tag-side secrets: immutable id, next and old tuples, announce marker.

    The six rewritable words are exactly the 576 bits the tag keeps in
    mutable memory; id lives in ROM.
    """

    id: Word96
    ids: Word96
    k1: Word96
    k2: Word96
    ids_old: Word96
    k1_old: Word96
    k2_old: Word96
    last_announced: str = NEXT


def tag_announce(tag: TagState, retry: bool = False) -> Word96:
    """Answer an interrogation: next-tuple IDS first, old-tuple IDS on retry."""
    tag.last_announced = OLD if retry else NEXT
    return tag.ids_old if retry else tag.ids


def tuple_of(holder, side: str) -> tuple[Word96, Word96, Word96]:
    """The (ids, k1, k2) that ``side`` (NEXT or OLD) names in ``holder``."""
    if side == OLD:
        return holder.ids_old, holder.k1_old, holder.k2_old
    return holder.ids, holder.k1, holder.k2


def rotate(holder, side: str, staged: tuple[Word96, Word96, Word96]) -> None:
    """Commit a session run on the ``side`` tuple: it becomes old, ``staged`` next."""
    holder.ids_old, holder.k1_old, holder.k2_old = tuple_of(holder, side)
    holder.ids, holder.k1, holder.k2 = staged


def respond(tag: TagState, accept, a: Word96, b: Word96, c: Word96) -> Word96 | None:
    """Authenticate the reader from A||B||C with the protocol's ``accept``
    phase, called on the announced tuple and the id: emit D and commit on
    its answer (D, staged tuple), or return None with the state untouched."""
    answer = accept(*tuple_of(tag, tag.last_announced), tag.id, a, b, c)
    if answer is None:
        return None
    rotate(tag, tag.last_announced, answer[1])
    return answer[0]
