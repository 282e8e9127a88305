"""Passive attacks over eavesdropped transcripts.

Every function here consumes only public channel data: the announced IDS
and the messages A, B, C, D of a transcript (any object with those
attributes, e.g. simulator.Transcript).  None of them receives tag or
reader state; scoring a verdict against ground truth is the simulator's
job, which keeps the passive boundary visible in the imports.

A verdict that does not fire is a valid result, not an error.  ``ATTACKS``
is the registry of attack kinds by name; it holds only public facts.

The zero-key attack is the original tag itself under K1 = K2 = 0: its peel
in ``zero_key_chains``, and ``gossamer.derive_keys`` and
``gossamer.next_ids``, phases rendered from the Original column.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .gossamer import Variant, derive_keys, id_from_d, mixbits_chains, next_ids
from .word96 import MASK, PI, Word96

_ORIGINAL = Variant.ORIGINAL  # bound once: a read through the enum class costs more


@dataclass(slots=True)
class RecoveredSecrets:
    """Full internal state reconstructed by a one-session disclosure."""

    k1_star: Word96
    k2_star: Word96
    n1: Word96
    n2: Word96
    n3: Word96
    n1p: Word96
    n2p: Word96
    next_ids: Word96


@dataclass(slots=True)
class AttackVerdict:
    """Detector result plus whatever secrets the attack claims to recover.

    ground_truth_match is never set here: only the simulator, which holds
    the secrets, may fill it in.  The attacks build verdicts positionally,
    which costs about 0.25 µs less than by keyword (Python 3.11).
    """

    fired: bool
    recovered_id: Word96 | None = None
    recovered_state: RecoveredSecrets | None = None
    ground_truth_match: bool | None = None


def sasi_residue_gap(transcript) -> int | None:
    """Circular mod-96 distance between C and its A/B-derived estimate.

    With both hidden rotation amounts ≡ 0 mod 96 the estimate
    (A xor IDS) + (B - IDS) equals C exactly; the gap distribution over
    unforced traffic shows how sharp that approximation is.  None for a
    transcript with no A||B||C.
    """
    if transcript.c is None:
        return None
    ids = transcript.announced_ids
    return ((transcript.c - (transcript.a ^ ids) - transcript.b + ids) & MASK) % 96


def sasi_attack(first, second, gap: int | None = None) -> AttackVerdict:
    """Mod-96 ID disclosure against SASI from two consecutive transcripts.

    Fires when C agrees with the nonce-sum estimate mod 96 (the signature
    of key rotation amounts collapsing); the pseudonym step then leaks
    ID mod 96.  The recovered value is a 96-residue, not the full word.
    ``gap``, when given, is ``sasi_residue_gap(first)`` already computed.
    A first transcript with no A||B||C has no gap and does not fire.
    """
    if (sasi_residue_gap(first) if gap is None else gap) != 0:
        return AttackVerdict(False)
    return AttackVerdict(True, ((second.announced_ids - first.announced_ids) & MASK) % 96)


def gossamer_attack1(first, second) -> AttackVerdict:
    """Zero-nonce collapse detector for original Gossamer (two transcripts).

    When both session nonces and the derived nonces vanish, C, D and the
    pseudonym step all reduce to sums of K1*, K2* and known constants, so
    C - PI = IDS_next - IDS flags the collapse and D - C + PI is the
    static ID, cross-checked against D - IDS_next + IDS.  Without a first D
    (no A||B||C, or D dropped) it does not fire: only D carries the ID.
    """
    if first.d is None:
        return AttackVerdict(False)
    if (first.c - PI) & MASK != (second.announced_ids - first.announced_ids) & MASK:
        return AttackVerdict(False)
    id_from_messages = (first.d - first.c + PI) & MASK
    id_from_pseudonyms = (first.d - second.announced_ids + first.announced_ids) & MASK
    # algebraically forced once the detector holds
    assert id_from_messages == id_from_pseudonyms
    return AttackVerdict(True, id_from_messages)


def zero_key_chains(transcripts: list) -> list[tuple]:
    """The zero-key MixBits chain (n1, n2, n3, n1', n2') of each transcript.

    With K1 = K2 = 0 the original tag's peel (the first step of
    ``gossamer.accept_original``) is n1 = A - IDS - PI and n2 = B - IDS - PI,
    and the session's three MixBits calls run for the whole list as one
    ``gossamer.mixbits_chains`` call.
    """
    return mixbits_chains([(t.a - t.announced_ids - PI) & MASK for t in transcripts],
                          [(t.b - t.announced_ids - PI) & MASK for t in transcripts])


def gossamer_attack2(transcript, chain: tuple | None = None) -> AttackVerdict:
    """Zero-key full disclosure against original Gossamer (one transcript).

    Hypothesizes K1 = K2 = 0, under which the transcript is the original
    tag's view with known keys: its nonce recovery unwinds A and B, and
    ``derive_keys`` replays K1*, K2* and C from public data.  A C that
    differs from the transmitted one refutes the hypothesis, and nothing
    further is computed.  A fired trial then computes two more words:
    ``next_ids``, the next pseudonym it predicts, and ``id_from_d``, D
    inverted to the static ID from the recovered state.  It skips the rest
    of the update, K1+ and K2+, which no verdict reports.  A transcript
    whose D never crossed the air still fires, with the recovered state and
    ``recovered_id`` None: C has confirmed the hypothesis, and only D
    carries the ID.  A transcript with no A||B||C does not fire.

    ``chain`` is the transcript's entry of ``zero_key_chains``: the
    evaluator passes each trial its entry of one call over all its trials.
    A call without it is a block of one.
    """
    if transcript.c is None:
        return AttackVerdict(False)
    n1, n2, n3, n1p, n2p = chain or zero_key_chains([transcript])[0]
    k1s, k2s, c = derive_keys(0, 0, n1, n2, n3, n1p)
    if c != transcript.c:
        return AttackVerdict(False)
    state = RecoveredSecrets(k1s, k2s, n1, n2, n3, n1p, n2p,
                             next_ids(transcript.announced_ids, n3, n1p, n2p, k1s, k2s))
    d = transcript.d
    return AttackVerdict(True, None if d is None else id_from_d(_ORIGINAL, state, d), state)


@dataclass(frozen=True)
class Attack:
    """One attack kind as the evaluator runs it.

    ``trials(pairs)`` runs the kind on each ``(first, second)`` of the
    consecutive successful pairs the evaluator selects and yields ``(first,
    verdict, note, confirmed)``.  ``arity`` is how many transcripts of a pair
    the attack reads: a one-transcript attack recovers the tag state, and
    ``confirmed`` is whether its predicted next IDS is the pair's second
    announcement (None for ``arity`` 2).  ``residue_id`` marks a
    recovered_id that is the ID mod 96 (an int 0..95), not a full word.
    ``near_miss`` marks notes that are the first transcript's distance from
    firing, histogrammed over the trials.
    """

    arity: int
    trials: Callable[[Iterable[tuple]], Iterator[tuple]]
    residue_id: bool = False
    near_miss: bool = False


# Each kind's trials look its attack up in this module at call time, so a
# wrapper set on the module attribute (perfbench/tracing.py's span of
# gossamer_attack2) sees each call.

def _sasi_trials(pairs) -> Iterator[tuple]:
    for first, second in pairs:
        gap = sasi_residue_gap(first)
        yield first, sasi_attack(first, second, gap), gap, None


def _zero_nonce_trials(pairs) -> Iterator[tuple]:
    for first, second in pairs:
        yield first, gossamer_attack1(first, second), None, None


def _zero_key_trials(pairs) -> Iterator[tuple]:
    """Each pair's first transcript attacked with its chain, from one
    ``zero_key_chains`` call over them all."""
    pairs = list(pairs)
    chains = zero_key_chains([first for first, _ in pairs])
    for (first, second), chain in zip(pairs, chains):
        verdict = gossamer_attack2(first, chain)
        yield first, verdict, None, (verdict.fired and
                                     verdict.recovered_state.next_ids == second.announced_ids)


ATTACKS = {
    "sasi": Attack(2, _sasi_trials, residue_id=True, near_miss=True),
    "gossamer-1": Attack(2, _zero_nonce_trials),
    "gossamer-2": Attack(1, _zero_key_trials),
}


def attack_kind(kind: str) -> Attack:
    """The registry entry for ``kind``; an unknown kind is a ValueError."""
    try:
        return ATTACKS[kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {kind}") from None
