"""Passive attacks over eavesdropped transcripts.

Every function here consumes only public channel data: the announced IDS
and the messages A, B, C, D of a transcript (any object with those
attributes, e.g. simulator.Transcript).  None of them receives tag or
reader state; scoring a verdict against ground truth is the simulator's
job, which keeps the passive boundary visible in the imports.

A verdict that does not fire is a valid result, not an error.  ``ATTACKS``
is the registry of attack kinds by name; it holds only public facts.
"""

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .gossamer import Variant, derive_auth, derive_update
from .word96 import MASK, PI, Word96, mixbits_original_lanes, rotr


@dataclass
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


@dataclass
class AttackVerdict:
    """Detector result plus whatever secrets the attack claims to recover.

    ground_truth_match is never set here: only the simulator, which holds
    the secrets, may fill it in.
    """

    fired: bool
    recovered_id: Word96 | None = None
    recovered_state: RecoveredSecrets | None = None
    ground_truth_match: bool | None = None


def sasi_residue_gap(transcript) -> int:
    """Circular mod-96 distance between C and its A/B-derived estimate.

    With both hidden rotation amounts ≡ 0 mod 96 the estimate
    (A xor IDS) + (B - IDS) equals C exactly; the gap distribution over
    unforced traffic shows how sharp that approximation is.
    """
    ids = transcript.announced_ids
    return ((transcript.c - (transcript.a ^ ids) - transcript.b + ids) & MASK) % 96


def sasi_attack(first, second, gap: int | None = None) -> AttackVerdict:
    """Mod-96 ID disclosure against SASI from two consecutive transcripts.

    Fires when C agrees with the nonce-sum estimate mod 96 (the signature
    of key rotation amounts collapsing); the pseudonym step then leaks
    ID mod 96.  The recovered value is a 96-residue, not the full word.
    ``gap``, when given, is ``sasi_residue_gap(first)`` already computed.
    """
    if (sasi_residue_gap(first) if gap is None else gap) != 0:
        return AttackVerdict(fired=False)
    return AttackVerdict(fired=True, recovered_id=(
        (second.announced_ids - first.announced_ids) & MASK) % 96)


def gossamer_attack1(first, second) -> AttackVerdict:
    """Zero-nonce collapse detector for original Gossamer (two transcripts).

    When both session nonces and the derived nonces vanish, C, D and the
    pseudonym step all reduce to sums of K1*, K2* and known constants, so
    C - PI = IDS_next - IDS flags the collapse and D - C + PI is the
    static ID, cross-checked against D - IDS_next + IDS.
    """
    if (first.c - PI) & MASK != (second.announced_ids - first.announced_ids) & MASK:
        return AttackVerdict(fired=False)
    id_from_messages = (first.d - first.c + PI) & MASK
    id_from_pseudonyms = (first.d - second.announced_ids + first.announced_ids) & MASK
    # algebraically forced once the detector holds
    assert id_from_messages == id_from_pseudonyms
    return AttackVerdict(fired=True, recovered_id=id_from_messages)


def zero_key_chains(transcripts: list) -> list[tuple]:
    """The zero-key MixBits chain (n1, n2, n3, n1', n2') of each transcript.

    With K1 = K2 = 0 the original tag's peel (``recover_nonces``) is
    n1 = A - IDS - PI and n2 = B - IDS - PI, and the session's three MixBits
    calls n3 = MixBits(n1, n2), n1' = MixBits(n3, n2), n2' = MixBits(n1', n3)
    run for the whole list as three lane calls.
    """
    n1s = [(t.a - t.announced_ids - PI) & MASK for t in transcripts]
    n2s = [(t.b - t.announced_ids - PI) & MASK for t in transcripts]
    n3s = mixbits_original_lanes(n1s, n2s)
    n1ps = mixbits_original_lanes(n3s, n2s)
    return list(zip(n1s, n2s, n3s, n1ps, mixbits_original_lanes(n1ps, n3s)))


def gossamer_attack2(transcript, chain: tuple | None = None) -> AttackVerdict:
    """Zero-key full disclosure against original Gossamer (one transcript).

    Hypothesizes K1 = K2 = 0, under which the transcript is the original
    tag's view with known keys: its nonce recovery (with ID = 0, which
    only D involves) unwinds A and B and replays the protocol equations
    from public data.  The hypothesis is confirmed when the recomputed C
    equals the transmitted one; on confirmation D is inverted to the
    static ID and the next pseudonym is predicted.

    ``chain`` is the transcript's entry of ``zero_key_chains``: the
    evaluator passes each trial its entry of one call over all its trials.
    A call without it peels n1 and n2 alone and lets gossamer's equations
    run their own scalar MixBits.
    """
    ids = transcript.announced_ids
    if chain is None:
        n1, n2 = (transcript.a - ids - PI) & MASK, (transcript.b - ids - PI) & MASK
        n3 = n1p = n2p = None
    else:
        n1, n2, n3, n1p, n2p = chain
    vals = derive_auth(Variant.ORIGINAL, ids, 0, 0, 0, n1, n2, n3, n1p)
    if vals.c != transcript.c:
        return AttackVerdict(fired=False)
    derive_update(Variant.ORIGINAL, ids, vals, n2p)
    n3, n1p, n2p = vals.n3, vals.n1p, vals.n2p
    step = rotr((transcript.d - n1p) & MASK, n3)
    step = rotr((step - vals.k1s - n1p) & MASK, n2)
    recovered_id = (step - n2 - vals.k2s - n1p) & MASK
    state = RecoveredSecrets(
        k1_star=vals.k1s, k2_star=vals.k2s,
        n1=n1, n2=n2, n3=n3, n1p=n1p, n2p=n2p,
        next_ids=vals.ids_next,
    )
    return AttackVerdict(fired=True, recovered_id=recovered_id, recovered_state=state)


@dataclass(frozen=True)
class Attack:
    """One attack kind as the evaluator runs it.

    ``trials`` turns a stream of consecutive pairs into the kind's trials
    ``(first, second, note)``, and ``run`` takes each trial whole.
    ``arity`` is how many transcripts of a pair the attack reads: a
    one-transcript attack recovers the tag state, and its predicted next
    IDS is checked against the pair's second transcript.  ``residue_id``
    marks a recovered_id that is the ID mod 96 (an int 0..95), not a full
    word.  ``near_miss`` marks notes that are the first transcript's
    distance from firing, histogrammed over the trials.
    """

    run: Callable[[object, object, object], AttackVerdict]
    arity: int
    trials: Callable[[Iterable], Iterable[tuple]]
    residue_id: bool = False
    near_miss: bool = False


def _residue_gap_trials(pairs) -> Iterator[tuple]:
    """Each pair with its first transcript's ``sasi_residue_gap``, lazily."""
    for first, second in pairs:
        yield first, second, sasi_residue_gap(first)


def _zero_key_trials(pairs) -> list[tuple]:
    """Each pair with its first transcript's chain, from one ``zero_key_chains``
    call over them all."""
    pairs = list(pairs)
    chains = zero_key_chains([first for first, _ in pairs])
    return [(first, second, chain) for (first, second), chain in zip(pairs, chains)]


# gossamer-2 and its trials look gossamer_attack2 and zero_key_chains up in
# this module at call time, so a wrapper set on the module attribute
# (perfbench/tracing.py's span of gossamer_attack2) sees each call.
ATTACKS = {
    "sasi": Attack(sasi_attack, 2, _residue_gap_trials, residue_id=True, near_miss=True),
    "gossamer-1": Attack(lambda first, second, _: gossamer_attack1(first, second), 2,
                         lambda pairs: ((first, second, None) for first, second in pairs)),
    "gossamer-2": Attack(lambda first, _, chain: gossamer_attack2(first, chain), 1,
                         _zero_key_trials),
}


def attack_kind(kind: str) -> Attack:
    """The registry entry for ``kind``; an unknown kind is a ValueError."""
    try:
        return ATTACKS[kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {kind}") from None
