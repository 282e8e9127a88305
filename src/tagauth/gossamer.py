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

K1*, K2* and C read neither IDS nor ID; ``derive_keys`` is their one
definition.  ``derive_auth`` builds a session's values through it, and the
zero-key attack (``attacks.gossamer_attack2``) stops after it when C differs.
IDS+ has its own, ``next_ids``: ``derive_update`` stages it with K1+ and
K2+, and the zero-key attack computes it alone.

The session record, the two-tuple tag state, its announce/retry step, the
update timing and reader_finish are shared with SASI (``tagstate``).
"""

from enum import Enum

from .tagstate import SessionValues, TagState, rotate, tuple_of
from .word96 import (MASK, PI, WIDTH, Word96, from_lanes, mixbits_modified,
                     mixbits_original, mixbits_original_lanes, rotl, rotr, to_lanes)


class Variant(Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


_ORIGINAL = Variant.ORIGINAL  # bound once: a read through the enum class costs more


def derive_keys(variant: Variant, k1: Word96, k2: Word96, n1: Word96, n2: Word96,
                n3: Word96, n1p: Word96) -> tuple[Word96, Word96, Word96]:
    """(K1*, K2*, C), the session keys and the message that confirms them:
    the one definition of their equations above."""
    original = variant is Variant.ORIGINAL
    k1s = rotl((rotl((n2 + k1 + PI + n3) & MASK, n2) + (k2 ^ n3)) & MASK,
               n1 if original else k1) ^ n3
    k2s = (rotl((rotl((n1 + k2 + PI + n3) & MASK, n1) + k1 + n3) & MASK,
                n2 if original else k2) + n3) & MASK
    c = rotl((rotl((n3 + k1s + PI + n1p) & MASK, n3) + (k2s ^ n1p)) & MASK,
             n2 if original else k2s) ^ n1p
    return k1s, k2s, c


def derive_auth(variant: Variant, ids: Word96, k1: Word96, k2: Word96,
                id_: Word96, n1: Word96, n2: Word96) -> SessionValues:
    """Evaluate the session equations through D (no update values yet)."""
    original = variant is Variant.ORIGINAL
    mix = mixbits_original if original else mixbits_modified
    n3 = mix(n1, n2)
    n1p = mix(n3, n2)
    k1s, k2s, c = derive_keys(variant, k1, k2, n1, n2, n3, n1p)
    a = rotl((rotl((ids + k1 + PI + n1) & MASK, k2) + k1) & MASK, k1 if original else n2)
    b = rotl((rotl((ids + k2 + PI + n2) & MASK, k1) + k2) & MASK, k2 if original else n1)
    d = (rotl((rotl((n2 + k2s + id_ + n1p) & MASK, n2) + k1s + n1p) & MASK,
              n3 if original else k1s) + n1p) & MASK
    return SessionValues(n1, n2, n3, n1p, None, k1s, k2s, a, b, c, d)


def id_from_d(variant: Variant, vals, d: Word96) -> Word96:
    """The ID that D carries, given the session's other values: D inverted,
    with r_d = n3 (original) or K1* (modified).  Of ``vals`` (a SessionValues
    or RecoveredSecrets) it reads only n2, n3, n1p, k1_star and k2_star."""
    step = rotr((d - vals.n1p) & MASK, vals.n3 if variant is Variant.ORIGINAL else vals.k1_star)
    step = rotr((step - vals.k1_star - vals.n1p) & MASK, vals.n2)
    return (step - vals.n2 - vals.k2_star - vals.n1p) & MASK


def next_ids(variant: Variant, ids: Word96, n3: Word96, n1p: Word96, n2p: Word96,
             k1s: Word96, k2s: Word96) -> Word96:
    """IDS+, the next pseudonym: the one definition of its equation above."""
    return rotl((rotl((n1p + k1s + ids + n2p) & MASK, n1p) + (k2s ^ n2p)) & MASK,
                n3 if variant is _ORIGINAL else k1s) ^ n2p


def derive_update(variant: Variant, ids: Word96, vals: SessionValues) -> SessionValues:
    """Fill in n2' and the staged (IDS, K1, K2) for the session's tuple."""
    original = variant is Variant.ORIGINAL
    n3, n1p, k1s, k2s = vals.n3, vals.n1p, vals.k1_star, vals.k2_star
    n2p = (mixbits_original if original else mixbits_modified)(n1p, n3)
    ids_next = next_ids(variant, ids, n3, n1p, n2p, k1s, k2s)
    k1_next = (rotl((rotl((n3 + k2s + PI + n2p) & MASK, n3) + k1s + n2p) & MASK,
                    vals.n2 if original else k1s) + n2p) & MASK
    k2_next = (rotl((rotl((ids_next + k2s + PI + k1_next) & MASK, ids_next)
                     + k1s + k1_next) & MASK, n1p if original else k2s) + k1_next) & MASK
    vals.n2p, vals.ids_next, vals.k1_next, vals.k2_next = n2p, ids_next, k1_next, k2_next
    return vals


def mixbits_chains(n1s: list[Word96], n2s: list[Word96]) -> list[tuple]:
    """The original variant's chain (n1, n2, n3, n1', n2') of each nonce pair:
    the three MixBits calls above, for all pairs as three lane passes that
    keep n2, n3 and n1' in the lane form between them."""
    n = len(n1s)
    if len(n2s) != n:
        raise ValueError(f"{n} n1 words but {len(n2s)} n2 words")
    n2_lanes = to_lanes(n2s)
    n3_lanes = mixbits_original_lanes(to_lanes(n1s), n2_lanes, n)
    n1p_lanes = mixbits_original_lanes(n3_lanes, n2_lanes, n)
    n2p_lanes = mixbits_original_lanes(n1p_lanes, n3_lanes, n)
    return list(zip(n1s, n2s, from_lanes(n3_lanes, n), from_lanes(n1p_lanes, n),
                    from_lanes(n2p_lanes, n)))


def mixbits_table(chains) -> dict[tuple[Word96, Word96], Word96]:
    """The ``word96.use_mixbits_table`` table of every MixBits call the sessions
    with these chains make: {(n1, n2): n3, (n3, n2): n1', (n1', n3): n2'}."""
    table = {}
    for n1, n2, n3, n1p, n2p in chains:
        table[n1, n2], table[n3, n2], table[n1p, n3] = n3, n1p, n2p
    return table


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
