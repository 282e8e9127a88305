"""Gossamer mutual authentication and its hardened variant, one engine.

Implements the three-phase flow (identification, mutual authentication,
updating) of Gossamer (Peris-Lopez et al. 2008) over 96-bit words, plus a
Modified variant that re-targets the outer rotation amounts and swaps in
the counter-based MixBits.  Both variants share every formula below; they
differ ONLY in the r_* column and in which MixBits they call.

    n3   = MixBits(n1, n2)
    A    = Rot(Rot(IDS + K1 + PI + n1, K2) + K1, r_a)
    B    = Rot(Rot(IDS + K2 + PI + n2, K1) + K2, r_b)
    K1*  = Rot(Rot(n2 + K1 + PI + n3, n2) + (K2 xor n3), r_k1s) xor n3
    K2*  = Rot(Rot(n1 + K2 + PI + n3, n1) + K1 + n3, r_k2s) + n3
    n1'  = MixBits(n3, n2)
    C    = Rot(Rot(n3 + K1* + PI + n1', n3) + (K2* xor n1'), r_c) xor n1'
    D    = Rot(Rot(n2 + K2* + ID + n1', n2) + K1* + n1', r_d) + n1'
    n2'  = MixBits(n1', n3)
    IDS+ = Rot(Rot(n1' + K1* + IDS + n2', n1') + (K2* xor n2'), r_ids) xor n2'
    K1+  = Rot(Rot(n3 + K2* + PI + n2', n3) + K1* + n2', r_k1n) + n2'
    K2+  = Rot(Rot(IDS+ + K2* + PI + K1+, IDS+) + K1* + K1+, r_k2n) + K1+

    amount    Original   Modified
    r_a       K1         n2
    r_b       K2         n1
    r_k1s     n1         K1
    r_k2s     n2         K2
    r_c       n2         K2*
    r_d       n3         K1*
    r_ids     n3         K1*
    r_k1n     n2         K1*
    r_k2n     n1'        K2*

In the Original column every amount outside A/B is nonce-derived and
vanishes when the nonces are multiples of 96, while A/B rotate by key-only
amounts that vanish when the keys are; those two collapses are exactly
what the passive attacks force.  The Modified column crosses keys into the
nonce-only sites and nonces into A/B, so no single all-nonce or all-key
forcing flattens a transcript.

A consequence of rotating A by an n2-derived amount and B by an n1-derived
one is that the Modified tag cannot invert either message directly.  It
recovers the pair by a bounded consistency search: for each of the 96
possible residues of n2 it peels A, uses the resulting n1 candidate to
peel B, keeps candidates whose n2 lands back on the assumed residue, and
accepts only if exactly one survivor reproduces the received C (rejecting
on none or several rather than guessing).

The two-tuple tag state, its announce/retry step, the update timing and
reader_finish are shared with SASI (``tagstate``).
"""

from dataclasses import dataclass
from enum import Enum

# reader_finish and tag_announce are re-exported
from .tagstate import TagState, active_tuple, reader_finish, tag_announce  # noqa: F401
from .word96 import (
    MASK,
    PI,
    WIDTH,
    Word96,
    mixbits_modified,
    mixbits_original,
    rotl,
    rotr,
    sub,
    xor,
)

GossamerTagState = TagState


class Variant(Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


@dataclass
class SessionValues:
    """All internal and public values of one session.

    Returned by reader_begin as the pending context: ``d`` is the expected
    final message and (ids_next, k1_next, k2_next) the staged update.  The
    update fields stay None until derive_update runs.
    """

    n1: Word96
    n2: Word96
    n3: Word96
    n1p: Word96
    k1s: Word96
    k2s: Word96
    a: Word96
    b: Word96
    c: Word96
    d: Word96
    n2p: Word96 | None = None
    ids_next: Word96 | None = None
    k1_next: Word96 | None = None
    k2_next: Word96 | None = None


def _mix(variant: Variant):
    return mixbits_original if variant is Variant.ORIGINAL else mixbits_modified


def _sum(*terms: Word96) -> Word96:
    return sum(terms) & MASK


def derive_auth(variant: Variant, ids: Word96, k1: Word96, k2: Word96,
                id_: Word96, n1: Word96, n2: Word96) -> SessionValues:
    """Evaluate the session equations through D (no update values yet)."""
    original = variant is Variant.ORIGINAL
    mix = _mix(variant)
    n3 = mix(n1, n2)
    n1p = mix(n3, n2)

    if original:
        r_a, r_b, r_k1s, r_k2s = k1, k2, n1, n2
    else:
        r_a, r_b, r_k1s, r_k2s = n2, n1, k1, k2
    a = rotl(_sum(rotl(_sum(ids, k1, PI, n1), k2), k1), r_a)
    b = rotl(_sum(rotl(_sum(ids, k2, PI, n2), k1), k2), r_b)
    k1s = xor(rotl(_sum(rotl(_sum(n2, k1, PI, n3), n2), xor(k2, n3)), r_k1s), n3)
    k2s = _sum(rotl(_sum(rotl(_sum(n1, k2, PI, n3), n1), k1, n3), r_k2s), n3)

    r_c = n2 if original else k2s
    r_d = n3 if original else k1s
    c = xor(rotl(_sum(rotl(_sum(n3, k1s, PI, n1p), n3), xor(k2s, n1p)), r_c), n1p)
    d = _sum(rotl(_sum(rotl(_sum(n2, k2s, id_, n1p), n2), k1s, n1p), r_d), n1p)
    return SessionValues(n1, n2, n3, n1p, k1s, k2s, a, b, c, d)


def derive_update(variant: Variant, ids: Word96, vals: SessionValues) -> SessionValues:
    """Fill in n2' and the staged (IDS, K1, K2) for the session's tuple."""
    original = variant is Variant.ORIGINAL
    n2p = _mix(variant)(vals.n1p, vals.n3)
    r_ids = vals.n3 if original else vals.k1s
    ids_next = xor(rotl(_sum(rotl(_sum(vals.n1p, vals.k1s, ids, n2p), vals.n1p),
                             xor(vals.k2s, n2p)), r_ids), n2p)
    r_k1n = vals.n2 if original else vals.k1s
    k1_next = _sum(rotl(_sum(rotl(_sum(vals.n3, vals.k2s, PI, n2p), vals.n3),
                             vals.k1s, n2p), r_k1n), n2p)
    r_k2n = vals.n1p if original else vals.k2s
    k2_next = _sum(rotl(_sum(rotl(_sum(ids_next, vals.k2s, PI, k1_next), ids_next),
                             vals.k1s, k1_next), r_k2n), k1_next)
    vals.n2p, vals.ids_next, vals.k1_next, vals.k2_next = n2p, ids_next, k1_next, k2_next
    return vals


def derive_session(variant: Variant, ids: Word96, k1: Word96, k2: Word96,
                   id_: Word96, n1: Word96, n2: Word96) -> SessionValues:
    """Full derivation: messages, internals and staged update."""
    return derive_update(variant, ids, derive_auth(variant, ids, k1, k2, id_, n1, n2))


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                 n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, SessionValues]:
    """Build A||B||C for the matched record; returns (a, b, c, pending)."""
    vals = derive_session(variant, ids, k1, k2, id_, n1, n2)
    return vals.a, vals.b, vals.c, vals


def _invert_a(a: Word96, ids: Word96, k1: Word96, k2: Word96, outer: Word96) -> Word96:
    """Peel A back to n1 given its outer rotation amount."""
    step = sub(rotr(a, outer), k1)
    return sub(sub(sub(rotr(step, k2), ids), k1), PI)


def _invert_b(b: Word96, ids: Word96, k1: Word96, k2: Word96, outer: Word96) -> Word96:
    """Peel B back to n2 given its outer rotation amount."""
    step = sub(rotr(b, outer), k2)
    return sub(sub(sub(rotr(step, k1), ids), k2), PI)


def _search_nonces(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                   a: Word96, b: Word96, c: Word96) -> SessionValues | None:
    """Modified-variant nonce recovery: 96-residue consistency search.

    At most 96 inversions and, for residue-consistent candidates only, a
    C recomputation.  Returns the unique candidate that reproduces C, or
    None when zero or several do.
    """
    match: SessionValues | None = None
    for residue in range(WIDTH):
        n1c = _invert_a(a, ids, k1, k2, residue)
        n2c = _invert_b(b, ids, k1, k2, n1c)
        if n2c % WIDTH != residue:
            continue
        vals = derive_auth(Variant.MODIFIED, ids, k1, k2, id_, n1c, n2c)
        if vals.c == c:
            if match is not None:
                return None
            match = vals
    return match


def tag_respond(tag: GossamerTagState, a: Word96, b: Word96, c: Word96,
                variant: Variant) -> Word96 | None:
    """Authenticate the reader from A||B||C; emit D and commit, or reject.

    Original: invert A then B directly (both outer amounts are the tag's
    own keys).  Modified: consistency search.  Either way the received C
    must match the locally rebuilt one; on mismatch the state is untouched
    and None is returned.
    """
    ids, k1, k2 = active_tuple(tag)
    if variant is Variant.ORIGINAL:
        n1 = _invert_a(a, ids, k1, k2, k1)
        n2 = _invert_b(b, ids, k1, k2, k2)
        vals = derive_auth(variant, ids, k1, k2, tag.id, n1, n2)
        if vals.c != c:
            return None
    else:
        found = _search_nonces(ids, k1, k2, tag.id, a, b, c)
        if found is None:
            return None
        vals = found
    derive_update(variant, ids, vals)
    tag.ids_old, tag.k1_old, tag.k2_old = ids, k1, k2
    tag.ids, tag.k1, tag.k2 = vals.ids_next, vals.k1_next, vals.k2_next
    return vals.d
