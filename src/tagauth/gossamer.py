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
one is that the Modified tag cannot invert either message directly.  Both
tags undo A and B with one peel (``recover_nonces``):

    n1 = rotr(rotr(A, r_a) - K1, K2) - (IDS + K1 + PI)
    n2 = rotr(rotr(B, r_b) - K2, K1) - (IDS + K2 + PI)

The Original tag knows r_a = K1 and r_b = K2 and peels once.  The Modified
tag runs a bounded consistency search: for each of the 96 possible
residues r of n2 it peels A with r_a = r, peels B with r_b = n1, and keeps
candidates whose n2 lands back on r.  Either tag accepts only if exactly
one survivor reproduces the received C (rejecting on none or several
rather than guessing).

The two-tuple tag state, its announce/retry step, the update timing and
reader_finish are shared with SASI (``tagstate``).
"""

from dataclasses import dataclass
from enum import Enum

from .tagstate import TagState, rotate, tuple_of
from .word96 import MASK, PI, WIDTH, Word96, mixbits_modified, mixbits_original, rotl


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


def derive_auth(variant: Variant, ids: Word96, k1: Word96, k2: Word96,
                id_: Word96, n1: Word96, n2: Word96,
                n3: Word96 | None = None, n1p: Word96 | None = None) -> SessionValues:
    """Evaluate the session equations through D (no update values yet).

    ``n3`` and ``n1p``, when given, are MixBits(n1, n2) and MixBits(n3, n2)
    already computed by the caller, as the zero-key attack does in lanes.
    """
    original = variant is Variant.ORIGINAL
    if n3 is None:
        mix = mixbits_original if original else mixbits_modified
        n3 = mix(n1, n2)
        n1p = mix(n3, n2)
    a = rotl((rotl((ids + k1 + PI + n1) & MASK, k2) + k1) & MASK, k1 if original else n2)
    b = rotl((rotl((ids + k2 + PI + n2) & MASK, k1) + k2) & MASK, k2 if original else n1)
    k1s = rotl((rotl((n2 + k1 + PI + n3) & MASK, n2) + (k2 ^ n3)) & MASK,
               n1 if original else k1) ^ n3
    k2s = (rotl((rotl((n1 + k2 + PI + n3) & MASK, n1) + k1 + n3) & MASK,
                n2 if original else k2) + n3) & MASK
    c = rotl((rotl((n3 + k1s + PI + n1p) & MASK, n3) + (k2s ^ n1p)) & MASK,
             n2 if original else k2s) ^ n1p
    d = (rotl((rotl((n2 + k2s + id_ + n1p) & MASK, n2) + k1s + n1p) & MASK,
              n3 if original else k1s) + n1p) & MASK
    return SessionValues(n1, n2, n3, n1p, k1s, k2s, a, b, c, d)


def derive_update(variant: Variant, ids: Word96, vals: SessionValues,
                  n2p: Word96 | None = None) -> SessionValues:
    """Fill in n2' and the staged (IDS, K1, K2) for the session's tuple.

    ``n2p``, when given, is MixBits(n1', n3) already computed by the caller.
    """
    original = variant is Variant.ORIGINAL
    n3, n1p, k1s, k2s = vals.n3, vals.n1p, vals.k1s, vals.k2s
    if n2p is None:
        n2p = (mixbits_original if original else mixbits_modified)(n1p, n3)
    ids_next = rotl((rotl((n1p + k1s + ids + n2p) & MASK, n1p) + (k2s ^ n2p)) & MASK,
                    n3 if original else k1s) ^ n2p
    k1_next = (rotl((rotl((n3 + k2s + PI + n2p) & MASK, n3) + k1s + n2p) & MASK,
                    vals.n2 if original else k1s) + n2p) & MASK
    k2_next = (rotl((rotl((ids_next + k2s + PI + k1_next) & MASK, ids_next)
                     + k1s + k1_next) & MASK, n1p if original else k2s) + k1_next) & MASK
    vals.n2p, vals.ids_next, vals.k1_next, vals.k2_next = n2p, ids_next, k1_next, k2_next
    return vals


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                 n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, SessionValues]:
    """Build A||B||C for the matched record and stage the update; returns
    (a, b, c, pending), pending holding every value of the session."""
    vals = derive_update(variant, ids, derive_auth(variant, ids, k1, k2, id_, n1, n2))
    return vals.a, vals.b, vals.c, vals


def recover_nonces(variant: Variant, ids: Word96, k1: Word96, k2: Word96,
                   id_: Word96, a: Word96, b: Word96, c: Word96) -> SessionValues | None:
    """The tag's nonces from A||B||C: the one peel above, for both variants.

    The original tag peels one candidate, with r_a = K1 and r_b = K2.  The
    modified tag tries each of the 96 residues r of n2 as r_a, with
    r_b = n1, and keeps r only when n2 = r (mod 96).  Everything but r and
    n1 is fixed for the call, so IDS + K1 + PI, IDS + K2 + PI, K1 and K2
    mod 96 and the doubled words A*2^96 + A and B*2^96 + B (whose shift
    right by s < 96, masked, is rotr by s) are taken once, and a candidate
    costs shifts, subtractions and masks with no calls.  Only survivors
    rebuild C via derive_auth.  Returns the unique survivor that
    reproduces C, or None when zero or several do.
    """
    original = variant is Variant.ORIGINAL
    c1 = ids + k1 + PI
    c2 = ids + k2 + PI
    aa = a << WIDTH | a
    bb = b << WIDTH | b
    rk1 = k1 % WIDTH
    rk2 = k2 % WIDTH
    match: SessionValues | None = None
    for r in (rk1,) if original else range(WIDTH):
        step = ((aa >> r) - k1) & MASK
        n1 = (((step << WIDTH | step) >> rk2) - c1) & MASK
        step = ((bb >> (rk2 if original else n1 % WIDTH)) - k2) & MASK
        n2 = (((step << WIDTH | step) >> rk1) - c2) & MASK
        if not original and n2 % WIDTH != r:
            continue
        vals = derive_auth(variant, ids, k1, k2, id_, n1, n2)
        if vals.c == c:
            if match is not None:
                return None
            match = vals
    return match


def tag_respond(tag: TagState, a: Word96, b: Word96, c: Word96,
                variant: Variant) -> Word96 | None:
    """Authenticate the reader from A||B||C; emit D and commit, or reject.

    Both variants recover the nonces with recover_nonces, which accepts
    only a pair whose locally rebuilt C matches the received one.  On
    rejection the state is untouched and None is returned.
    """
    ids, k1, k2 = tuple_of(tag, tag.last_announced)
    vals = recover_nonces(variant, ids, k1, k2, tag.id, a, b, c)
    if vals is None:
        return None
    derive_update(variant, ids, vals)
    rotate(tag, tag.last_announced, (vals.ids_next, vals.k1_next, vals.k2_next))
    return vals.d
