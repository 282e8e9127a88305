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
same; either answers from the reader's ``tagstate.DERIVED`` entry, C
compared, when that holds its inputs), and the zero-key attack's two:
``confirm_original`` (K1*, K2* and C checked) and ``disclose_original``
(IDS+, and the ID, the ``d`` row inverted), split at C so that n2' is
needed only once C holds.  Edit the table, then re-render with
``PYTHONPATH=src python -m tagauth.rerender``; a test fails while the two
disagree.  A phase looks ``mixbits_original`` or ``mixbits_modified`` up
in this module's globals when it runs.

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

The plain-word returns, the two-tuple tag state, its announce/retry step,
the update timing and the tag body ``respond`` are shared with SASI
(``tagstate``).
"""

from collections import Counter
from enum import Enum
from typing import Iterator

from .tagstate import DERIVED, TagState, respond
from .word96 import (MASK, PI, WIDTH, Word96, from_lanes, lane_word, mixbits_modified,
                     mixbits_original, mixbits_original_lanes, peel_rotations, to_lanes)


class Variant(Enum):
    ORIGINAL = "original"
    MODIFIED = "modified"


# bound once: a read through the enum class costs more
_ORIGINAL, _MODIFIED = Variant.ORIGINAL, Variant.MODIFIED


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
PEELS = {"n1": "a", "n2": "b", "id_": "d"}  # term: the row whose inverse (Original) gives it

# Each rendered phase: its head (signature, docstring), its variant (None: the
# variant argument picks each outer amount), what it computes in order, its tail.
# A target "c?" rebuilds C and returns None unless it equals the received c; the
# target "derived" answers from the reader's entry (tagstate.DERIVED) when that
# holds this phase's inputs, so that a tag does not derive the reader's session again.
PHASES = (
    ('''def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, Word96, tuple, tuple]:
    """(A, B, C, D, staged, internals) of a session on the matched record."""''',
     None, ("n3", "n1p", "k1s", "k2s", "c", "d", "n2p", "idsn", "k1n", "k2n", "a", "b"),
     "return a, b, c, d, (idsn, k1n, k2n), (n1, n2, n3, n1p, n2p, k1s, k2s)"),
    ('''def derive_auth(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The modified tag's answer for one search candidate (n1, n2): (D, staged
    (IDS+, K1+, K2+)), or None when the candidate does not rebuild C."""''',
     Variant.MODIFIED,
     ("derived", "n3", "n1p", "k1s", "k2s", "c?", "d", "n2p", "idsn", "k1n", "k2n"),
     "return d, (idsn, k1n, k2n)"),
    ('''def confirm_original(k1: Word96, k2: Word96, n1: Word96, n2: Word96, n3: Word96,
                     n1p: Word96, c: Word96) -> tuple[Word96, Word96] | None:
    """(K1*, K2*) of an original-variant session, or None when the rebuilt C
    differs from c.  C reads no IDS, and no n2'."""''',
     Variant.ORIGINAL, ("k1s", "k2s", "c?"), "return k1s, k2s"),
    ('''def disclose_original(ids: Word96, k1s: Word96, k2s: Word96, n2: Word96, n3: Word96,
                      n1p: Word96, n2p: Word96, d: Word96) -> tuple[Word96, Word96]:
    """(IDS+, ID) of an original-variant session whose C ``confirm_original``
    has confirmed, from its K1* and K2*."""''',
     Variant.ORIGINAL, ("idsn", "id_"), "return idsn, id_"),
    ('''def accept_original(ids: Word96, k1: Word96, k2: Word96, id_: Word96, a: Word96,
                    b: Word96, c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The original tag's answer to A||B||C: (D, staged (IDS+, K1+, K2+)), or
    None when the nonces peeled from A and B do not rebuild C."""''',
     Variant.ORIGINAL,
     ("n1", "n2", "derived", "n3", "n1p", "k1s", "k2s", "c?", "d", "n2p", "idsn", "k1n",
      "k2n"),
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
            if name == "derived":  # keyed as the reader's reader_begin arguments
                lines += [f"derived = DERIVED.get((ids, k1, k2, id_, n1, n2, _{variant.name}))",
                          "if derived is not None:",
                          "    return derived[1:] if derived[0] == c else None"]
                continue
            if name in MIXBITS:
                lines.append(f"{name} = {mix}({', '.join(MIXBITS[name])})")
                continue
            peel = PEELS.get(name)
            word, terms, inner, t, op, outer, v = rows[peel or name]
            mid, last = (t, "") if v is None else (f"({t} {op} {v})", f" {op} {v}")
            equation = (f"Rot(Rot({' + '.join(terms)}, {inner}) + {mid}, "
                        f"{' if original else '.join(outer[pick])}){last}")
            if peel:  # the row solved for its term: op V undone, then each rotation, right
                (outer,) = outer[pick]  # the one variant's: a phase that peels has one
                rr_outer, rr_inner = shift(outer, True), shift(inner, True)
                lines.append(f"# {name} from {word} = {equation}")
                if v is not None:
                    lines.append(f"x = ({word} {'-' if op == '+' else '^'} {v}) & MASK")
                    word = "x"
                rest = " + ".join(term for term in terms if term != name)
                lines += [f"x = ((({word} << 96 | {word}) >> {rr_outer}) - {mid}) & MASK",
                          f"{name} = (((x << 96 | x) >> {rr_inner}) - ({rest})) & MASK"]
                continue
            inner_shift = shift(inner)
            chosen = " if original else ".join(map(shift, outer[pick]))
            rot = f"((x << 96 | x) >> {chosen if len(outer[pick]) == 1 else f'({chosen})'})"
            lines += [f"# {name} = {equation}",
                      f"x = ({' + '.join(terms)}) & MASK",
                      f"x = (((x << 96 | x) >> {inner_shift}) + {mid}) & MASK"]
            if target != name:
                lines += [f"if ({rot}{last}) & MASK != {name}:", "    return None"]
            else:
                lines.append(f"{name} = ({rot}{last}) & MASK" if last else f"{name} = {rot} & MASK")
        code.append("\n    ".join([head, *lines, *tail.split("\n")]))
    return "\n\n\n".join(code)


# the lines around the rendered code, which only ``render`` writes
BEGIN = "\n# ---- rendered from EQUATIONS by python -m tagauth.rerender; do not edit ----\n\n\n"
END = "\n\n\n# ---- end of rendered code ----\n"
# ---- rendered from EQUATIONS by python -m tagauth.rerender; do not edit ----


def reader_begin(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                 variant: Variant) -> tuple[Word96, Word96, Word96, Word96, tuple, tuple]:
    """(A, B, C, D, staged, internals) of a session on the matched record."""
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
    return a, b, c, d, (idsn, k1n, k2n), (n1, n2, n3, n1p, n2p, k1s, k2s)


def derive_auth(ids: Word96, k1: Word96, k2: Word96, id_: Word96, n1: Word96, n2: Word96,
                c: Word96) -> tuple[Word96, tuple[Word96, Word96, Word96]] | None:
    """The modified tag's answer for one search candidate (n1, n2): (D, staged
    (IDS+, K1+, K2+)), or None when the candidate does not rebuild C."""
    derived = DERIVED.get((ids, k1, k2, id_, n1, n2, _MODIFIED))
    if derived is not None:
        return derived[1:] if derived[0] == c else None
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


def confirm_original(k1: Word96, k2: Word96, n1: Word96, n2: Word96, n3: Word96,
                     n1p: Word96, c: Word96) -> tuple[Word96, Word96] | None:
    """(K1*, K2*) of an original-variant session, or None when the rebuilt C
    differs from c.  C reads no IDS, and no n2'."""
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
    if (((x << 96 | x) >> r_n2) ^ n1p) & MASK != c:
        return None
    return k1s, k2s


def disclose_original(ids: Word96, k1s: Word96, k2s: Word96, n2: Word96, n3: Word96,
                      n1p: Word96, n2p: Word96, d: Word96) -> tuple[Word96, Word96]:
    """(IDS+, ID) of an original-variant session whose C ``confirm_original``
    has confirmed, from its K1* and K2*."""
    # idsn = Rot(Rot(n1p + k1s + ids + n2p, n1p) + (k2s ^ n2p), n3) ^ n2p
    x = (n1p + k1s + ids + n2p) & MASK
    x = (((x << 96 | x) >> (-n1p % 96)) + (k2s ^ n2p)) & MASK
    idsn = (((x << 96 | x) >> (-n3 % 96)) ^ n2p) & MASK
    # id_ from d = Rot(Rot(n2 + k2s + id_ + n1p, n2) + (k1s + n1p), n3) + n1p
    x = (d - n1p) & MASK
    x = (((x << 96 | x) >> (n3 % 96)) - (k1s + n1p)) & MASK
    id_ = (((x << 96 | x) >> (n2 % 96)) - (n2 + k2s + n1p)) & MASK
    return idsn, id_


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
    derived = DERIVED.get((ids, k1, k2, id_, n1, n2, _ORIGINAL))
    if derived is not None:
        return derived[1:] if derived[0] == c else None
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


def mixbits_passes(lanes: dict[str, int], n: int) -> Iterator[tuple[str, int]]:
    """The original variant's ``MIXBITS`` calls over ``n`` sessions, one lane
    pass each, run lazily in table order: each target missing from ``lanes``
    (name -> lane form of that word of every session, ``word96.to_lanes``)
    gets its pass, stored there and yielded as (target, lane form)."""
    for target, (x, y) in MIXBITS.items():
        if target not in lanes:
            lanes[target] = z = mixbits_original_lanes(lanes[x], lanes[y], n)
            yield target, z


def mixbits_table(n1s: list[Word96], n2s: list[Word96]) -> dict[tuple[Word96, Word96], Word96]:
    """The ``word96.use_mixbits_table`` table of every MixBits call the
    original-variant sessions with these nonce pairs make, {(x, y):
    MixBits(x, y)} for each ``MIXBITS`` call, from ``mixbits_passes``."""
    n = len(n1s)
    if len(n2s) != n:
        raise ValueError(f"{n} n1 words but {len(n2s)} n2 words")
    table, words = {}, {"n1": n1s, "n2": n2s}
    for target, z in mixbits_passes({"n1": to_lanes(n1s), "n2": to_lanes(n2s)}, n):
        x, y = MIXBITS[target]
        words[target] = from_lanes(z, n)
        table.update(zip(zip(words[x], words[y]), words[target]))
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
    return respond(tag, accept_original if variant is _ORIGINAL else accept_modified, a, b, c)
