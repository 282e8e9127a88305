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
from typing import Callable

from .gossamer import Variant, derive_session
from .word96 import PI, Word96, add, rotr, sub, xor


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
    estimate = add(xor(transcript.a, ids), sub(transcript.b, ids))
    return sub(transcript.c, estimate) % 96


def sasi_attack(first, second) -> AttackVerdict:
    """Mod-96 ID disclosure against SASI from two consecutive transcripts.

    Fires when C agrees with the nonce-sum estimate mod 96 (the signature
    of key rotation amounts collapsing); the pseudonym step then leaks
    ID mod 96.  The recovered value is a 96-residue, not the full word.
    """
    if sasi_residue_gap(first) != 0:
        return AttackVerdict(fired=False)
    residue = sub(second.announced_ids, first.announced_ids) % 96
    return AttackVerdict(fired=True, recovered_id=residue)


def gossamer_attack1(first, second) -> AttackVerdict:
    """Zero-nonce collapse detector for original Gossamer (two transcripts).

    When both session nonces and the derived nonces vanish, C, D and the
    pseudonym step all reduce to sums of K1*, K2* and known constants, so
    C - PI = IDS_next - IDS flags the collapse and D - C + PI is the
    static ID, cross-checked against D - IDS_next + IDS.
    """
    step = sub(second.announced_ids, first.announced_ids)
    if sub(first.c, PI) != step:
        return AttackVerdict(fired=False)
    id_from_messages = add(sub(first.d, first.c), PI)
    id_from_pseudonyms = add(sub(first.d, second.announced_ids), first.announced_ids)
    # algebraically forced once the detector holds
    assert id_from_messages == id_from_pseudonyms
    return AttackVerdict(fired=True, recovered_id=id_from_messages)


def gossamer_attack2(transcript) -> AttackVerdict:
    """Zero-key full disclosure against original Gossamer (one transcript).

    Hypothesizes K1 = K2 = 0, under which A and B unwind to
    IDS + PI + nonce; replaying the protocol equations from public data
    then yields every internal value.  The hypothesis is confirmed when
    the recomputed C equals the transmitted one; on confirmation D is
    inverted to the static ID and the next pseudonym is predicted.
    """
    ids = transcript.announced_ids
    n1 = sub(sub(transcript.a, ids), PI)
    n2 = sub(sub(transcript.b, ids), PI)
    vals = derive_session(Variant.ORIGINAL, ids, 0, 0, 0, n1, n2)
    if vals.c != transcript.c:
        return AttackVerdict(fired=False)
    step = rotr(sub(transcript.d, vals.n1p), vals.n3)
    step = rotr(sub(sub(step, vals.k1s), vals.n1p), n2)
    recovered_id = sub(sub(sub(step, n2), vals.k2s), vals.n1p)
    state = RecoveredSecrets(
        k1_star=vals.k1s, k2_star=vals.k2s,
        n1=n1, n2=n2, n3=vals.n3, n1p=vals.n1p, n2p=vals.n2p,
        next_ids=vals.ids_next,
    )
    return AttackVerdict(fired=True, recovered_id=recovered_id, recovered_state=state)


@dataclass(frozen=True)
class Attack:
    """One attack kind as the evaluator runs it.

    ``run`` takes the first ``arity`` transcripts of a consecutive pair; a
    one-transcript attack recovers the tag state, and its predicted next
    IDS is checked against the pair's second transcript.  ``residue_id``
    marks a recovered_id that is the ID mod 96 (an int 0..95), not a full
    word.  ``near_miss``, when set, gives a transcript's distance from
    firing, histogrammed over the trials.
    """

    run: Callable[..., AttackVerdict]
    arity: int
    residue_id: bool = False
    near_miss: Callable[[object], int] | None = None


# The lambdas look the attack up in this module at call time, so a wrapper
# set on the module attribute (perfbench/tracing.py's spans) sees each call.
ATTACKS = {
    "sasi": Attack(lambda first, second: sasi_attack(first, second), 2,
                   residue_id=True, near_miss=sasi_residue_gap),
    "gossamer-1": Attack(lambda first, second: gossamer_attack1(first, second), 2),
    "gossamer-2": Attack(lambda transcript: gossamer_attack2(transcript), 1),
}


def attack_kind(kind: str) -> Attack:
    """The registry entry for ``kind``; an unknown kind is a ValueError."""
    try:
        return ATTACKS[kind]
    except KeyError:
        raise ValueError(f"unknown attack kind: {kind}") from None
