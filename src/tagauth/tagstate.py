"""Tag state shared by SASI and Gossamer: static id, next and old tuples.

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
"""

from dataclasses import dataclass

from .word96 import Word96

NEXT = "next"
OLD = "old"


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


def reader_finish(pending, d: Word96) -> bool:
    """True iff D proves the tag derived this session; the caller commits."""
    return d == pending.d
