"""Gossamer mutual authentication and its hardened variant, one engine.

Implements the three-phase flow (identification, mutual authentication,
updating) of Gossamer (Peris-Lopez et al. 2008) over 96-bit words, plus a
Modified variant that re-targets the outer rotation amounts and swaps in
the counter-based MixBits; the variants differ in nothing else.

``EQUATIONS`` (with ``MIXBITS``) is the one source of the session
equations, each Rot(Rot(P + Q + R + S, inner) + (T op V), outer) op V with
its outer amount per variant.  ``render`` turns it into the straight-line
phases between the rendered-code markers, each from the column of the
variant that calls it: ``reader_begin`` (every value of a session in one
pass, either variant, as the reader serves both), the two tags' phases,
``derive_auth`` (one modified search candidate: C rebuilt and checked,
then D and the staged tuple) and ``accept_original`` (n1 and n2 peeled
from the ``a`` and ``b`` rows inverted, as ``PEELS`` names them, then the
same), and the zero-key attack's ``derive_keys`` (K1*, K2* and C) and
``next_ids`` (IDS+) of the original variant.  Edit the table, then
re-render with ``PYTHONPATH=src python -m tagauth.gossamer``; a test fails
while the two disagree.  A phase looks ``mixbits_original`` or
``mixbits_modified`` up in this module's globals when it runs.

In the Original column every amount outside A/B is nonce-derived and
vanishes when the nonces are multiples of 96, while A/B rotate by key-only
amounts that vanish when the keys are; those two collapses are exactly
what the passive attacks force.  The Modified column crosses keys into the
nonce-only sites and nonces into A/B, so no single all-nonce or all-key
forcing flattens a transcript.

So the Modified tag cannot invert A or B directly.  Both tags undo them
with one peel, r_a and r_b being their outer amounts:

    n1 = rotr(rotr(A, r_a) - K1, K2) - (IDS + K1 + PI)
    n2 = rotr(rotr(B, r_b) - K2, K1) - (IDS + K2 + PI)

The Original tag knows r_a = K1 and r_b = K2 and peels once, in its one
phase.  The Modified tag keeps each residue r of n2 for which the peels
with r_a = r and r_b = n1 give n2 = r (mod 96), trying all 96 at once as
lanes (``_residue_survivors``), and ``accept_modified`` hands each
candidate to ``derive_auth``.  Either tag accepts only if exactly one
candidate reproduces the received C, and answers (D, staged tuple).

The session record, the two-tuple tag state, its announce/retry step, the
update timing and reader_finish are shared with SASI (``tagstate``).
"""

from collections import Counter
from enum import Enum

from .tagstate import SessionValues, TagState, rotate, tuple_of
from .word96 import (MASK, PI, WIDTH, Word96, from_lanes, lane_word, mixbits_modified,
                     mixbits_original, mixbits_original_lanes, peel_rotations, rotr, to_lanes)


class Variant(Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


_ORIGINAL = Variant.ORIGINAL  # bound once: a read through the enum class costs more


# The session equations in the code's names (k1s is K1*, n1p is n1', idsn is IDS+,
# k1n is K1+): target = Rot(Rot(P + Q + R + S, inner) + (T op V), outer) op V, the
# outer amount per variant; A and B have no V: Rot(Rot(P + Q + R + S, inner) + T, outer).
EQUATIONS = (
    # target P, Q, R, S                      inner   T      op   outer: orig., mod.  V
    ("a",    ("ids", "k1", "PI", "n1"),      "k2",   "k1",  "+", ("k1", "n2"),       None),
    ("b",    ("ids", "k2", "PI", "n2"),      "k1",   "k2",  "+", ("k2", "n1"),       None),
    ("k1s",  ("n2", "k1", "PI", "n3"),       "n2",   "k2",  "^", ("n1", "k1"),       "n3"),
    ("k2s",  ("n1", "k2", "PI", "n3"),       "n1",   "k1",  "+", ("n2", "k2"),       "n3"),
    ("c",    ("n3", "k1s", "PI", "n1p"),     "n3",   "k2s", "^", ("n2", "k2s"),      "n1p"),
    ("d",    ("n2", "k2s", "id_", "n1p"),    "n2",   "k1s", "+", ("n3", "k1s"),      "n1p"),
    ("idsn", ("n1p", "k1s", "ids", "n2p"),   "n1p",  "k2s", "^", ("n3", "k1s"),      "n2p"),
    ("k1n",  ("n3", "k2s", "PI", "n2p"),     "n3",   "k1s", "+", ("n2", "k1s"),      "n2p"),
    ("k2n",  ("idsn", "k2s", "PI", "k1n"),   "idsn", "k1s", "+", ("n1p", "k2s"),     "k1n"),
)
MIXBITS = {"n3": ("n1", "n2"), "n1p": ("n3", "n2"), "n2p": ("n1p", "n3")}  # target: MixBits(x, y)
PEELS = {"n1": "a", "n2": "b"}  # nonce: the row of A or B whose inverse, original column, gives it

# Each rendered phase: its head (signature, docstring), its variant (None: the
# variant argument picks each outer amount), what it computes in order, its tail.
# A target "c?" rebuilds C and returns None unless it equals the received c.
PHASES = (
    ('''def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                 n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, SessionValues]:
    """(A, B, C, pending) for the matched record, pending holding every session value."""''',
     None, ("n3", "n1p", "k1s", "k2s", "c", "d", "n2p", "idsn", "k1n", "k2n", "a", "b"),
     "return a, b, c, SessionValues(n1, n2, n3, n1p, n2p, k1s, k2s, a, b, c, d, idsn, k1n, k2n)"),
    ('''def derive_auth(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The modified tag's answer for one search candidate (n1, n2): (D, staged
    (IDS+, K1+, K2+)), or None when the candidate does not rebuild C."""''',
     Variant.MODIFIED, ("n3", "n1p", "k1s", "k2s", "c?", "d", "n2p", "idsn", "k1n", "k2n"),
     "return d, (idsn, k1n, k2n)"),
    ('''def derive_keys(k1: Word96, k2: Word96, n1: Word96, n2: Word96, n3: Word96,
                n1p: Word96) -> tuple[Word96, Word96, Word96]:
    """(K1*, K2*, C) of the original variant, the session keys and the message
    that confirms them."""''', Variant.ORIGINAL, ("k1s", "k2s", "c"), "return k1s, k2s, c"),
    ('''def next_ids(ids: Word96, n3: Word96, n1p: Word96, n2p: Word96, k1s: Word96,
             k2s: Word96) -> Word96:
    """IDS+ of the original variant, the next pseudonym."""''', Variant.ORIGINAL, ("idsn",),
     "return idsn"),
    ('''def accept_original(ids: Word96, k1: Word96, k2: Word96, id_: Word96, a: Word96,
                    b: Word96, c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The original tag's answer to A||B||C: (D, staged (IDS+, K1+, K2+)), or
    None when the nonces peeled from A and B do not rebuild C."""''',
     Variant.ORIGINAL,
     ("n1", "n2", "n3", "n1p", "k1s", "k2s", "c?", "d", "n2p", "idsn", "k1n", "k2n"),
     "return d, (idsn, k1n, k2n)"),
)


def render() -> str:
    """The code of PHASES from EQUATIONS, MIXBITS and PEELS, straight-line: a
    rotation left by r is one shift-or of the masked word x, (x << 96 | x) >>
    (-r % 96), and a rotation right (the peel) shifts by r % 96; an amount
    that rotates one way more than once in a phase is reduced once, to
    r_<amount> (left) or rr_<amount> (right)."""
    rows = {row[0]: row for row in EQUATIONS}
    code = []
    for head, variant, targets, tail in PHASES:
        names = [target.rstrip("?") for target in targets]
        if variant is None:
            lines, mix, pick = ["original = variant is _ORIGINAL"], "mix", slice(None)
            if MIXBITS.keys() & set(names):
                lines.append("mix = mixbits_original if original else mixbits_modified")
        else:
            column = list(Variant).index(variant)
            lines, mix, pick = [], f"mixbits_{variant.value}", slice(column, column + 1)
        uses = Counter()  # (amount, right): the rotations by an amount in this phase
        for name in names:
            row = rows.get(PEELS.get(name, name))
            if row is not None:
                uses.update((amount, name in PEELS) for amount in (row[2], *row[5][pick]))
        reduced = set()

        def shift(amount, right=False):
            name, value = (f"rr_{amount}", f"{amount} % 96") if right else (f"r_{amount}",
                                                                           f"-{amount} % 96")
            if uses[amount, right] == 1:
                return f"({value})"
            if name not in reduced:
                reduced.add(name)
                lines.append(f"{name} = {value}")
            return name

        for target, name in zip(targets, names):
            if name in MIXBITS:
                lines.append(f"{name} = {mix}({', '.join(MIXBITS[name])})")
                continue
            if name in PEELS:  # the row solved for its nonce, rotating right
                word, terms, inner, t, _, outer, _ = rows[PEELS[name]]
                (outer,) = outer[pick]  # the one variant's: a phase that peels has one
                rest = " + ".join(term for term in terms if term != name)
                lines += [f"# {name} from {word} = Rot(Rot({' + '.join(terms)}, {inner}) + {t}, "
                          f"{outer})",
                          f"x = ((({word} << 96 | {word}) >> {shift(outer, True)}) - {t}) & MASK",
                          f"{name} = (((x << 96 | x) >> {shift(inner, True)}) - ({rest})) & MASK"]
                continue
            _, terms, inner, t, op, outer, v = rows[name]
            inner_shift = shift(inner)
            chosen = " if original else ".join(map(shift, outer[pick]))
            rot = f"((x << 96 | x) >> {chosen if len(outer[pick]) == 1 else f'({chosen})'})"
            mid, last = (t, "") if v is None else (f"({t} {op} {v})", f" {op} {v}")
            lines += [f"# {name} = Rot(Rot({' + '.join(terms)}, {inner}) + {mid}, "
                      f"{' if original else '.join(outer[pick])}){last}",
                      f"x = ({' + '.join(terms)}) & MASK",
                      f"x = (((x << 96 | x) >> {inner_shift}) + {mid}) & MASK"]
            if target != name:
                lines += [f"if ({rot}{last}) & MASK != {name}:", "    return None"]
            else:
                lines.append(f"{name} = ({rot}{last}) & MASK" if last else f"{name} = {rot} & MASK")
        code.append("\n    ".join([head, *lines, *tail.split("\n")]))
    return "\n\n\n".join(code)


# the lines around the rendered code, which only ``render`` writes
BEGIN = "\n# ---- rendered from EQUATIONS by python -m tagauth.gossamer; do not edit ----\n\n\n"
END = "\n\n\n# ---- end of rendered code ----\n"
# ---- rendered from EQUATIONS by python -m tagauth.gossamer; do not edit ----


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96,
                 n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, SessionValues]:
    """(A, B, C, pending) for the matched record, pending holding every session value."""
    original = variant is _ORIGINAL
    mix = mixbits_original if original else mixbits_modified
    n3 = mix(n1, n2)
    n1p = mix(n3, n2)
    r_n2 = -n2 % 96
    r_n1 = -n1 % 96
    r_k1 = -k1 % 96
    # k1s = Rot(Rot(n2 + k1 + PI + n3, n2) + (k2 ^ n3), n1 if original else k1) ^ n3
    x = (n2 + k1 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n2) + (k2 ^ n3)) & MASK
    k1s = (((x << 96 | x) >> (r_n1 if original else r_k1)) ^ n3) & MASK
    r_k2 = -k2 % 96
    # k2s = Rot(Rot(n1 + k2 + PI + n3, n1) + (k1 + n3), n2 if original else k2) + n3
    x = (n1 + k2 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n1) + (k1 + n3)) & MASK
    k2s = (((x << 96 | x) >> (r_n2 if original else r_k2)) + n3) & MASK
    r_n3 = -n3 % 96
    r_k2s = -k2s % 96
    # c = Rot(Rot(n3 + k1s + PI + n1p, n3) + (k2s ^ n1p), n2 if original else k2s) ^ n1p
    x = (n3 + k1s + PI + n1p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k2s ^ n1p)) & MASK
    c = (((x << 96 | x) >> (r_n2 if original else r_k2s)) ^ n1p) & MASK
    r_k1s = -k1s % 96
    # d = Rot(Rot(n2 + k2s + id_ + n1p, n2) + (k1s + n1p), n3 if original else k1s) + n1p
    x = (n2 + k2s + id_ + n1p) & MASK
    x = (((x << 96 | x) >> r_n2) + (k1s + n1p)) & MASK
    d = (((x << 96 | x) >> (r_n3 if original else r_k1s)) + n1p) & MASK
    n2p = mix(n1p, n3)
    r_n1p = -n1p % 96
    # idsn = Rot(Rot(n1p + k1s + ids + n2p, n1p) + (k2s ^ n2p), n3 if original else k1s) ^ n2p
    x = (n1p + k1s + ids + n2p) & MASK
    x = (((x << 96 | x) >> r_n1p) + (k2s ^ n2p)) & MASK
    idsn = (((x << 96 | x) >> (r_n3 if original else r_k1s)) ^ n2p) & MASK
    # k1n = Rot(Rot(n3 + k2s + PI + n2p, n3) + (k1s + n2p), n2 if original else k1s) + n2p
    x = (n3 + k2s + PI + n2p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k1s + n2p)) & MASK
    k1n = (((x << 96 | x) >> (r_n2 if original else r_k1s)) + n2p) & MASK
    # k2n = Rot(Rot(idsn + k2s + PI + k1n, idsn) + (k1s + k1n), n1p if original else k2s) + k1n
    x = (idsn + k2s + PI + k1n) & MASK
    x = (((x << 96 | x) >> (-idsn % 96)) + (k1s + k1n)) & MASK
    k2n = (((x << 96 | x) >> (r_n1p if original else r_k2s)) + k1n) & MASK
    # a = Rot(Rot(ids + k1 + PI + n1, k2) + k1, k1 if original else n2)
    x = (ids + k1 + PI + n1) & MASK
    x = (((x << 96 | x) >> r_k2) + k1) & MASK
    a = ((x << 96 | x) >> (r_k1 if original else r_n2)) & MASK
    # b = Rot(Rot(ids + k2 + PI + n2, k1) + k2, k2 if original else n1)
    x = (ids + k2 + PI + n2) & MASK
    x = (((x << 96 | x) >> r_k1) + k2) & MASK
    b = ((x << 96 | x) >> (r_k2 if original else r_n1)) & MASK
    return a, b, c, SessionValues(n1, n2, n3, n1p, n2p, k1s, k2s, a, b, c, d, idsn, k1n, k2n)


def derive_auth(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The modified tag's answer for one search candidate (n1, n2): (D, staged
    (IDS+, K1+, K2+)), or None when the candidate does not rebuild C."""
    n3 = mixbits_modified(n1, n2)
    n1p = mixbits_modified(n3, n2)
    r_n2 = -n2 % 96
    # k1s = Rot(Rot(n2 + k1 + PI + n3, n2) + (k2 ^ n3), k1) ^ n3
    x = (n2 + k1 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n2) + (k2 ^ n3)) & MASK
    k1s = (((x << 96 | x) >> (-k1 % 96)) ^ n3) & MASK
    # k2s = Rot(Rot(n1 + k2 + PI + n3, n1) + (k1 + n3), k2) + n3
    x = (n1 + k2 + PI + n3) & MASK
    x = (((x << 96 | x) >> (-n1 % 96)) + (k1 + n3)) & MASK
    k2s = (((x << 96 | x) >> (-k2 % 96)) + n3) & MASK
    r_n3 = -n3 % 96
    r_k2s = -k2s % 96
    # c = Rot(Rot(n3 + k1s + PI + n1p, n3) + (k2s ^ n1p), k2s) ^ n1p
    x = (n3 + k1s + PI + n1p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k2s ^ n1p)) & MASK
    if (((x << 96 | x) >> r_k2s) ^ n1p) & MASK != c:
        return None
    r_k1s = -k1s % 96
    # d = Rot(Rot(n2 + k2s + id_ + n1p, n2) + (k1s + n1p), k1s) + n1p
    x = (n2 + k2s + id_ + n1p) & MASK
    x = (((x << 96 | x) >> r_n2) + (k1s + n1p)) & MASK
    d = (((x << 96 | x) >> r_k1s) + n1p) & MASK
    n2p = mixbits_modified(n1p, n3)
    # idsn = Rot(Rot(n1p + k1s + ids + n2p, n1p) + (k2s ^ n2p), k1s) ^ n2p
    x = (n1p + k1s + ids + n2p) & MASK
    x = (((x << 96 | x) >> (-n1p % 96)) + (k2s ^ n2p)) & MASK
    idsn = (((x << 96 | x) >> r_k1s) ^ n2p) & MASK
    # k1n = Rot(Rot(n3 + k2s + PI + n2p, n3) + (k1s + n2p), k1s) + n2p
    x = (n3 + k2s + PI + n2p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k1s + n2p)) & MASK
    k1n = (((x << 96 | x) >> r_k1s) + n2p) & MASK
    # k2n = Rot(Rot(idsn + k2s + PI + k1n, idsn) + (k1s + k1n), k2s) + k1n
    x = (idsn + k2s + PI + k1n) & MASK
    x = (((x << 96 | x) >> (-idsn % 96)) + (k1s + k1n)) & MASK
    k2n = (((x << 96 | x) >> r_k2s) + k1n) & MASK
    return d, (idsn, k1n, k2n)


def derive_keys(k1: Word96, k2: Word96, n1: Word96, n2: Word96, n3: Word96,
                n1p: Word96) -> tuple[Word96, Word96, Word96]:
    """(K1*, K2*, C) of the original variant, the session keys and the message
    that confirms them."""
    r_n2 = -n2 % 96
    r_n1 = -n1 % 96
    # k1s = Rot(Rot(n2 + k1 + PI + n3, n2) + (k2 ^ n3), n1) ^ n3
    x = (n2 + k1 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n2) + (k2 ^ n3)) & MASK
    k1s = (((x << 96 | x) >> r_n1) ^ n3) & MASK
    # k2s = Rot(Rot(n1 + k2 + PI + n3, n1) + (k1 + n3), n2) + n3
    x = (n1 + k2 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n1) + (k1 + n3)) & MASK
    k2s = (((x << 96 | x) >> r_n2) + n3) & MASK
    # c = Rot(Rot(n3 + k1s + PI + n1p, n3) + (k2s ^ n1p), n2) ^ n1p
    x = (n3 + k1s + PI + n1p) & MASK
    x = (((x << 96 | x) >> (-n3 % 96)) + (k2s ^ n1p)) & MASK
    c = (((x << 96 | x) >> r_n2) ^ n1p) & MASK
    return k1s, k2s, c


def next_ids(ids: Word96, n3: Word96, n1p: Word96, n2p: Word96, k1s: Word96,
             k2s: Word96) -> Word96:
    """IDS+ of the original variant, the next pseudonym."""
    # idsn = Rot(Rot(n1p + k1s + ids + n2p, n1p) + (k2s ^ n2p), n3) ^ n2p
    x = (n1p + k1s + ids + n2p) & MASK
    x = (((x << 96 | x) >> (-n1p % 96)) + (k2s ^ n2p)) & MASK
    idsn = (((x << 96 | x) >> (-n3 % 96)) ^ n2p) & MASK
    return idsn


def accept_original(ids: Word96, k1: Word96, k2: Word96, id_: Word96, a: Word96,
                    b: Word96, c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The original tag's answer to A||B||C: (D, staged (IDS+, K1+, K2+)), or
    None when the nonces peeled from A and B do not rebuild C."""
    rr_k1 = k1 % 96
    rr_k2 = k2 % 96
    # n1 from a = Rot(Rot(ids + k1 + PI + n1, k2) + k1, k1)
    x = (((a << 96 | a) >> rr_k1) - k1) & MASK
    n1 = (((x << 96 | x) >> rr_k2) - (ids + k1 + PI)) & MASK
    # n2 from b = Rot(Rot(ids + k2 + PI + n2, k1) + k2, k2)
    x = (((b << 96 | b) >> rr_k2) - k2) & MASK
    n2 = (((x << 96 | x) >> rr_k1) - (ids + k2 + PI)) & MASK
    n3 = mixbits_original(n1, n2)
    n1p = mixbits_original(n3, n2)
    r_n2 = -n2 % 96
    r_n1 = -n1 % 96
    # k1s = Rot(Rot(n2 + k1 + PI + n3, n2) + (k2 ^ n3), n1) ^ n3
    x = (n2 + k1 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n2) + (k2 ^ n3)) & MASK
    k1s = (((x << 96 | x) >> r_n1) ^ n3) & MASK
    # k2s = Rot(Rot(n1 + k2 + PI + n3, n1) + (k1 + n3), n2) + n3
    x = (n1 + k2 + PI + n3) & MASK
    x = (((x << 96 | x) >> r_n1) + (k1 + n3)) & MASK
    k2s = (((x << 96 | x) >> r_n2) + n3) & MASK
    r_n3 = -n3 % 96
    # c = Rot(Rot(n3 + k1s + PI + n1p, n3) + (k2s ^ n1p), n2) ^ n1p
    x = (n3 + k1s + PI + n1p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k2s ^ n1p)) & MASK
    if (((x << 96 | x) >> r_n2) ^ n1p) & MASK != c:
        return None
    # d = Rot(Rot(n2 + k2s + id_ + n1p, n2) + (k1s + n1p), n3) + n1p
    x = (n2 + k2s + id_ + n1p) & MASK
    x = (((x << 96 | x) >> r_n2) + (k1s + n1p)) & MASK
    d = (((x << 96 | x) >> r_n3) + n1p) & MASK
    n2p = mixbits_original(n1p, n3)
    r_n1p = -n1p % 96
    # idsn = Rot(Rot(n1p + k1s + ids + n2p, n1p) + (k2s ^ n2p), n3) ^ n2p
    x = (n1p + k1s + ids + n2p) & MASK
    x = (((x << 96 | x) >> r_n1p) + (k2s ^ n2p)) & MASK
    idsn = (((x << 96 | x) >> r_n3) ^ n2p) & MASK
    # k1n = Rot(Rot(n3 + k2s + PI + n2p, n3) + (k1s + n2p), n2) + n2p
    x = (n3 + k2s + PI + n2p) & MASK
    x = (((x << 96 | x) >> r_n3) + (k1s + n2p)) & MASK
    k1n = (((x << 96 | x) >> r_n2) + n2p) & MASK
    # k2n = Rot(Rot(idsn + k2s + PI + k1n, idsn) + (k1s + k1n), n1p) + k1n
    x = (idsn + k2s + PI + k1n) & MASK
    x = (((x << 96 | x) >> (-idsn % 96)) + (k1s + k1n)) & MASK
    k2n = (((x << 96 | x) >> r_n1p) + k1n) & MASK
    return d, (idsn, k1n, k2n)


# ---- end of rendered code ----


def id_from_d(variant: Variant, vals, d: Word96) -> Word96:
    """The ID that D carries, given the session's other values: D inverted,
    with r_d = n3 (original) or K1* (modified).  Of ``vals`` (a SessionValues
    or RecoveredSecrets) it reads only n2, n3, n1p, k1_star and k2_star."""
    step = rotr((d - vals.n1p) & MASK, vals.n3 if variant is _ORIGINAL else vals.k1_star)
    step = rotr((step - vals.k1_star - vals.n1p) & MASK, vals.n2)
    return (step - vals.n2 - vals.k2_star - vals.n1p) & MASK


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


def accept_modified(ids: Word96, k1: Word96, k2: Word96, id_: Word96, a: Word96,
                    b: Word96, c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The modified tag's answer to A||B||C: ``derive_auth`` of each
    ``_residue_survivors`` candidate, in ascending residue.  Returns the one
    candidate's (D, staged (IDS+, K1+, K2+)), or None when zero or several
    candidates rebuild C."""
    answer = None
    for n1, n2 in _residue_survivors(k1, k2, a, b, ids + k1 + PI, ids + k2 + PI):
        found = derive_auth(ids, k1, k2, id_, n1, n2, c)
        if found is not None:
            if answer is not None:
                return None
            answer = found
    return answer


# the residues 0..95 as one int of 96 bytes, and the 160 bytes that make
# 96 residues a 256-byte translate table
_RESIDUES = int.from_bytes(bytes(range(WIDTH)), "little")
_TABLE_PAD = bytes(256 - WIDTH)


def _residue_survivors(k1: Word96, k2: Word96, a: Word96, b: Word96,
                       c1: int, c2: int):
    """The modified tag's (n1, n2) candidates, in ascending residue r.

    ``word96.peel_rotations`` peels A for every r at once (lane r holds the
    n1 of r_a = r) and B for every residue s of n1 (lane s holds the n2 of
    r_b = s), each with the residues of its 96 words.  ``f.translate(g +
    pad)`` reads, for every r, the residue of B's lane f[r], the n2 of r's
    own n1; r survives where that byte equals r, which is where the XOR
    with the bytes 0..95 is 0.  Only survivors' lanes are decoded.
    """
    res_a, lanes_a = peel_rotations(a, k1, k2, c1)
    res_b, lanes_b = peel_rotations(b, k2, k1, c2)
    hits = (int.from_bytes(res_a.translate(res_b + _TABLE_PAD), "little")
            ^ _RESIDUES).to_bytes(WIDTH, "little")
    r = hits.find(0)
    while r >= 0:
        yield lane_word(lanes_a, r), lane_word(lanes_b, res_a[r])
        r = hits.find(0, r + 1)


def tag_respond(tag: TagState, a: Word96, b: Word96, c: Word96,
                variant: Variant) -> Word96 | None:
    """Authenticate the reader from A||B||C (``accept_original`` or
    ``accept_modified``); emit D and commit, or reject with the state
    untouched and return None."""
    ids, k1, k2 = tuple_of(tag, tag.last_announced)
    accept = accept_original if variant is _ORIGINAL else accept_modified
    answer = accept(ids, k1, k2, tag.id, a, b, c)
    if answer is None:
        return None
    rotate(tag, tag.last_announced, answer[1])
    return answer[0]


if __name__ == "__main__":  # re-render the code between BEGIN and END in place
    with open(__file__, encoding="utf-8") as fh:
        text = fh.read()
    start = text.index(BEGIN) + len(BEGIN)
    # built before the file is opened for writing: a render() that raises leaves it whole
    text = text[:start] + render() + text[text.index(END, start):]
    with open(__file__, "w", encoding="utf-8") as fh:
        fh.write(text)
