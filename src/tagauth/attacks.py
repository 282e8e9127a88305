"""Passive attacks over eavesdropped transcripts.

Every function here consumes only public channel data: the announced IDS
and the messages A, B, C, D of a transcript (any object with those
attributes, e.g. simulator.Transcript).  None of them receives tag or
reader state; scoring a verdict against ground truth is the simulator's
job, which keeps the passive boundary visible in the imports.

A verdict that does not fire is a valid result, not an error.  ``ATTACKS``
is the registry of attack kinds by name; it holds only public facts.

The zero-key attack is the original tag itself under K1 = K2 = 0: its peel
and MixBits in a ``ZeroKeyBlock``, then ``gossamer.confirm_original`` and,
once C holds, ``gossamer.disclose_original``: two Original-column phases.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator

from .gossamer import confirm_original, disclose_original, mixbits_passes
from .word96 import MASK, PI, Word96, from_lanes, to_lanes


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


class ZeroKeyBlock:
    """The zero-key words of a block of transcripts, transcript i's at index i:
    the original tag's peel under K1 = K2 = 0 (n1 = A - IDS - PI, n2 = B -
    IDS - PI), then its MixBits by ``gossamer.mixbits_passes``, n2' only at
    the first ``n2p`` call, since only a trial whose C holds reads it."""

    __slots__ = ("n1", "n2", "n3", "n1p", "_n2ps", "_passes")

    def __init__(self, transcripts: list):
        n = len(transcripts)
        self.n1 = [(t.a - t.announced_ids - PI) & MASK for t in transcripts]
        self.n2 = [(t.b - t.announced_ids - PI) & MASK for t in transcripts]
        self._passes = mixbits_passes({"n1": to_lanes(self.n1), "n2": to_lanes(self.n2)}, n)
        self.n3, self.n1p = [from_lanes(z, n) for _, z in islice(self._passes, 2)]
        self._n2ps = None

    def n2p(self, i: int) -> Word96:
        if self._n2ps is None:
            _, z = next(self._passes)
            self._n2ps = from_lanes(z, len(self.n1))
        return self._n2ps[i]


def gossamer_attack2(transcript, block: ZeroKeyBlock | None = None, i: int = 0) -> AttackVerdict:
    """Zero-key full disclosure against original Gossamer (one transcript).

    Hypothesizes K1 = K2 = 0, under which the transcript is the original
    tag's view with known keys: A and B unwind to the nonces, and
    ``gossamer.confirm_original`` gives K1*, K2* and rebuilds C, which
    refutes the hypothesis at once if it differs from the transmitted one.
    Only then is n2' read, and ``gossamer.disclose_original`` gives the
    next pseudonym and D inverted to the ID.  A transcript whose D never
    crossed the air still fires, with ``recovered_id`` None: C has
    confirmed the hypothesis, and only D carries the ID.  A transcript with
    no A||B||C does not fire.

    The words are transcript ``i``'s of ``block``, a ``ZeroKeyBlock`` over
    all the evaluator's trials; a call without one makes a block of one, so
    the scalar MixBits never runs.
    """
    if transcript.c is None:
        return AttackVerdict(False)
    if block is None:
        block = ZeroKeyBlock([transcript])
    n1, n2, n3, n1p = block.n1[i], block.n2[i], block.n3[i], block.n1p[i]
    keys = confirm_original(0, 0, n1, n2, n3, n1p, transcript.c)
    if keys is None:
        return AttackVerdict(False)
    n2p = block.n2p(i)
    k1s, k2s = keys
    d = transcript.d
    next_ids, id_ = disclose_original(transcript.announced_ids, k1s, k2s, n2, n3, n1p, n2p,
                                      0 if d is None else d)
    return AttackVerdict(True, None if d is None else id_,
                         RecoveredSecrets(k1s, k2s, n1, n2, n3, n1p, n2p, next_ids))


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
    """Each pair's first transcript attacked in one ``ZeroKeyBlock`` of them
    all, whose n2' pass runs at most once: at the first trial that fires.
    A block in which no trial fires runs two lane passes, not three."""
    pairs = list(pairs)
    block = ZeroKeyBlock([first for first, _ in pairs])
    for i, (first, second) in enumerate(pairs):
        verdict = gossamer_attack2(first, block, i)
        yield first, verdict, None, (verdict.fired and
                                     verdict.recovered_state.next_ids == second.announced_ids)


ATTACKS = {
    "sasi": Attack(2, _sasi_trials, residue_id=True, near_miss=True),
    "gossamer-1": Attack(2, _zero_nonce_trials),
    "gossamer-2": Attack(1, _zero_key_trials),
}
