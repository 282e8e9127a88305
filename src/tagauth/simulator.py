"""Deterministic session orchestration with fault injection and forcing hooks.

The channel is an in-process message pass.  What an eavesdropper would see
goes into Transcript; every secret (states, nonces, session keys) goes
into GroundTruth; the two never share a field, which is what lets the
attack modules stay provably passive.

Determinism contract: (initial states, config, seed) fully determine every
transcript, ground-truth record and summary.  Nonces come from a seeded
Mersenne Twister (stdlib ``random.Random``) behind NonceStream; per
session the draw order is fixed (drop decision, forced keys, nonces).  An
original-Gossamer campaign also draws each block of sessions ahead, in that
order, and installs their MixBits chains' table for one session at a time;
the look-ahead reads a copy of the stream, so the sessions' own draws are
the same with it or without.

Per-tag session order is total: a campaign drives one tag sequentially,
which is what consecutive-transcript attacks rely on.  Campaigns against
distinct tags are independent and may run in separate processes; the only
module state a session writes is an original-Gossamer campaign's MixBits table.
"""

import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import pairwise
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Iterator

from . import attacks, gossamer, sasi
from .gossamer import Variant
from .store import (_ROWS, HEX, STR, TUPLE_WORDS, WORD, Kind, RecordList, Store,
                    TagRecordRow, decode, exactly, json_loads, record_formats)
from .tagstate import NEXT, OLD, TagState, tag_announce, tuple_of
from .word96 import WIDTH, Word96, to_hex, use_mixbits_table
from .word96 import from_hex  # unused here, but perfbench/tracing.py wraps it

HELLO_BITS = 40  # 5-byte hello
CHALLENGE_BITS = 3 * WIDTH  # A||B||C


class Protocol(str, Enum):
    SASI = "sasi"
    GOSSAMER = "gossamer"
    GOSSAMER_MOD = "gossamer-mod"


class Outcome(str, Enum):
    MUTUAL_SUCCESS = "mutual_success"
    # the tag refused A||B||C, i.e. the reader failed to authenticate
    READER_REJECTED = "reader_rejected"
    # the reader refused D, i.e. the tag failed to authenticate
    TAG_REJECTED = "tag_rejected"
    D_DROPPED = "d_dropped"
    LOOKUP_FAILED = "lookup_failed"


class NonceMode(str, Enum):
    RANDOM = "random"
    EXACT_ZERO = "zero"
    ZERO_MOD_96 = "zero-mod96"


class KeyMode(str, Enum):
    AS_STORED = "as-stored"
    EXACT_ZERO = "zero"
    ZERO_MOD_96 = "zero-mod96"


@dataclass(slots=True)
class Transcript:
    """One session as seen from the air: pseudonym, messages, outcome, bits.

    ``d`` is None when the final message never crossed the channel; a and
    b and c are None when identification failed before the challenge.
    Contains no secret state by construction.
    """

    variant: str
    session_index: int
    announced_ids: Word96
    a: Word96 | None
    b: Word96 | None
    c: Word96 | None
    d: Word96 | None
    outcome: Outcome
    bit_cost: int


@dataclass(slots=True)
class StateSnapshot:
    """Both (ids, k1, k2) tuples of one side at one instant."""

    ids: Word96
    k1: Word96
    k2: Word96
    ids_old: Word96
    k1_old: Word96
    k2_old: Word96


@dataclass(slots=True)
class GroundTruth:
    """Secrets of one session, recorded for scoring and invariant checks only.

    The internals n1 .. k2_star are the last words ``reader_begin`` returns,
    in this order, so for SASI sessions k1_star/k2_star hold K1'/K2' and n3,
    n1p, n2p stay None.  Internals are None when the session never reached
    the challenge (or was a replay of A||B||C).

    Snapshots may be shared: in a synchronized session ``reader_pre`` is
    ``tag_pre`` and ``reader_post`` is ``tag_post``, the same object.  No
    code mutates a snapshot once it is taken.
    """

    session_index: int
    id: Word96
    tag_pre: StateSnapshot
    tag_post: StateSnapshot
    reader_pre: StateSnapshot | None
    reader_post: StateSnapshot | None
    n1: Word96 | None = None
    n2: Word96 | None = None
    n3: Word96 | None = None
    n1p: Word96 | None = None
    n2p: Word96 | None = None
    k1_star: Word96 | None = None
    k2_star: Word96 | None = None

    @property
    def next_ids(self) -> Word96:
        """The tag's IDS after the session: the one word of its snapshots
        that scoring reads."""
        return self.tag_post.ids


@dataclass(slots=True)
class ScoredTruth:
    """The words of one session's ground truth that scoring reads: the ID,
    the tag's next IDS and the internals, as in ``GroundTruth``."""

    session_index: int
    id: Word96
    next_ids: Word96
    n1: Word96 | None = None
    n2: Word96 | None = None
    n3: Word96 | None = None
    n1p: Word96 | None = None
    n2p: Word96 | None = None
    k1_star: Word96 | None = None
    k2_star: Word96 | None = None


@dataclass
class Forcing:
    """Per-session experiment hooks.

    Key forcing overwrites K1/K2 in both tuples on both sides before the
    session and is recorded in the manifest, so forced campaigns replay
    exactly.  replay_abc re-sends a captured challenge to the genuine tag
    (no reader involved; outcome is reader_rejected if the tag balks, else
    d_dropped since the emitted D goes nowhere).  replay_d answers a real
    reader with a captured D in place of the genuine tag.
    """

    nonce_mode: NonceMode = NonceMode.RANDOM
    key_mode: KeyMode = KeyMode.AS_STORED
    drop_d: bool = False
    replay_abc: Transcript | None = None
    replay_d: Transcript | None = None


class NonceStream:
    """Seeded 96-bit word stream (Mersenne Twister underneath).

    Cryptographic quality is irrelevant here; what matters is documented
    reproducibility and even coverage of residues mod 96, both of which
    the stdlib generator provides.
    """

    _MULTIPLES_OF_96 = (1 << WIDTH) // 96 + 1

    def __init__(self, seed: int) -> None:
        # random.Random seeds from abs(seed): -7 would replay the stream of 7
        if seed < 0:
            raise ValueError(f"seed must be at least 0, not {seed}")
        self._rng = random.Random(seed)

    def word(self) -> Word96:
        return self._rng.getrandbits(WIDTH)

    def multiple_of_96(self) -> Word96:
        """Uniform over the multiples of 96 in [0, 2**96)."""
        return self._rng.randrange(self._MULTIPLES_OF_96) * 96

    def chance(self, probability: float) -> bool:
        return self._rng.random() < probability

    def getstate(self) -> object:
        """The stream's position; ``setstate`` on any stream resumes from it."""
        return self._rng.getstate()

    def setstate(self, state: object) -> None:
        self._rng.setstate(state)


@dataclass
class SimTag:
    """A simulated tag: label, protocol, and its secret state machine."""

    label: str
    protocol: Protocol
    state: TagState


def make_tag(label: str, protocol: Protocol, id_: Word96, ids: Word96,
             k1: Word96, k2: Word96) -> tuple[SimTag, TagRecordRow]:
    """A freshly provisioned tag and its backend row, both tuples equal."""
    row = TagRecordRow(label, protocol.value, id_, ids, k1, k2, ids, k1, k2)
    return SimTag(label, protocol, TagState(id_, ids, k1, k2, ids, k1, k2)), row


def provision(count: int, protocol: Protocol, seed: int) -> tuple[dict[str, SimTag], Store]:
    """Create ``count`` tags with random ID/IDS/K1/K2, plus their store."""
    rng = NonceStream(seed)
    tags: dict[str, SimTag] = {}
    store = Store()
    for index in range(count):
        label = f"tag-{index:03d}"
        tag, row = make_tag(label, protocol,
                            rng.word(), rng.word(), rng.word(), rng.word())
        tags[label] = tag
        store.add(row)
    return tags, store


# -- protocol table ------------------------------------------------------------

# Protocol -> (variant, module, extra).  ``variant`` is the protocol's
# value, the store's variant string.  ``module`` (sasi or gossamer)
# supplies reader_begin, whose plain words (A, B, C, D, staged, internals)
# are the same for every protocol, and tag_respond; run_session looks them
# up on the module at each call so that a wrapper set on the module
# attribute (perfbench/tracing.py's spans) sees every session.  ``extra``
# is the Gossamer variant, nothing for SASI; tag_respond takes it before ``derived``.
_ENGINES = {
    Protocol.SASI: (Protocol.SASI.value, sasi, ()),
    Protocol.GOSSAMER: (Protocol.GOSSAMER.value, gossamer, (Variant.ORIGINAL,)),
    Protocol.GOSSAMER_MOD: (Protocol.GOSSAMER_MOD.value, gossamer, (Variant.MODIFIED,)),
}
# The seven internals that ground truth and recovered secrets hold under
# these names, in ground truth's field order, which reader_begin's follow
_INTERNALS = attrgetter("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")

# Enum members a session reads, bound once: a read through the class costs
# about ten times a global's
_RANDOM, _ZERO_MOD_96 = NonceMode.RANDOM, NonceMode.ZERO_MOD_96
_AS_STORED, _ZERO_KEYS = KeyMode.AS_STORED, KeyMode.EXACT_ZERO
_SUCCESS, _READER_REJECTED, _TAG_REJECTED, _D_DROPPED, _LOOKUP_FAILED = (
    Outcome.MUTUAL_SUCCESS, Outcome.READER_REJECTED, Outcome.TAG_REJECTED,
    Outcome.D_DROPPED, Outcome.LOOKUP_FAILED)
_OUTCOMES = {outcome.value: outcome for outcome in Outcome}
# each outcome's JSON text, for the transcript writer: .value costs more
_OUTCOME_JSON = {outcome: encode_basestring_ascii(outcome.value) for outcome in Outcome}


_BOTH_TUPLES = attrgetter(*TUPLE_WORDS)


def _snapshots(state: TagState, mirror) -> tuple[StateSnapshot, StateSnapshot | None]:
    """Snapshots of the tag's state and of its store row, None for a missing
    row.  A row that holds exactly the tag's six tuple words, as in every
    synchronized session, gets the tag's own snapshot object."""
    words = _BOTH_TUPLES(state)
    tag = StateSnapshot(*words)
    if mirror is None:
        return tag, None
    held = _BOTH_TUPLES(mirror)
    return tag, (tag if held == words else StateSnapshot(*held))


# -- session and campaign ----------------------------------------------------

def _draw_nonces(mode: NonceMode, rng: NonceStream) -> tuple[Word96, Word96]:
    if mode is _RANDOM:
        return rng.word(), rng.word()
    if mode is _ZERO_MOD_96:
        return rng.multiple_of_96(), rng.multiple_of_96()
    return 0, 0


def _draw_keys(mode: KeyMode, rng: NonceStream) -> tuple[Word96, Word96]:
    """The forced K1 and K2 of a session whose key mode is not as-stored."""
    if mode is _ZERO_KEYS:
        return 0, 0
    return rng.multiple_of_96(), rng.multiple_of_96()


def _force_keys(state, row, k1f: Word96, k2f: Word96) -> None:
    state.k1 = state.k1_old = k1f
    state.k2 = state.k2_old = k2f
    if row is not None:
        row.k1 = row.k1_old = k1f
        row.k2 = row.k2_old = k2f


def run_session(tag: SimTag, store: Store, forcing: Forcing, rng: NonceStream,
                session_index: int = 0) -> tuple[Transcript, GroundTruth]:
    """One identification -> challenge -> response -> update exchange.

    Honors every forcing hook; each side commits through ``tagstate.rotate``
    (the tag on emitting D, the reader on verifying it).  A pseudonym that
    matches neither tuple in the store ends in lookup_failed.  Every path
    falls through to one Transcript, which counts the bits of each message
    that crossed the channel, and one GroundTruth.  Its snapshots are taken
    once before and once after the session: where the store row holds
    exactly the tag's six tuple words, the reader's snapshot is the tag's
    (``_snapshots``).  Replaying a message that never crossed the air, or
    dropping a replayed session's D, is a ValueError, raised before any key
    is forced or nonce drawn.  The tag's phase is given the reader's
    derivation, ``(reader_begin's arguments, C, (D, staged))``, or None for
    a replayed A||B||C, which has no reader.
    """
    captured, replayed = forcing.replay_abc, forcing.replay_d
    if captured is not None or replayed is not None:
        if captured is not None and captured.a is None:
            raise ValueError("replay_abc: the captured transcript has no A||B||C")
        if replayed is not None and replayed.d is None:
            raise ValueError("replay_d: the captured transcript has no D")
        if forcing.drop_d:
            raise ValueError("drop_d: a replayed session has no D of the tag's to drop")
    variant, module, extra = _ENGINES[tag.protocol]
    state = tag.state
    mirror = store.rows.get(tag.label)
    if forcing.key_mode is not _AS_STORED:
        _force_keys(state, mirror, *_draw_keys(forcing.key_mode, rng))
    tag_pre, reader_pre = _snapshots(state, mirror)
    a = b = c = d = hit = None
    internals = ()  # a session that never reached the challenge

    if captured is not None:
        announced = tag_announce(state)
        if announced != captured.announced_ids:
            announced = tag_announce(state, retry=True)
        a, b, c = captured.a, captured.b, captured.c
        d = module.tag_respond(state, a, b, c, *extra, None)  # no reader ran
        outcome = _READER_REJECTED if d is None else _D_DROPPED
    else:
        n1, n2 = _draw_nonces(forcing.nonce_mode, rng)
        if replayed is not None:
            announced = replayed.announced_ids
            hit = store.lookup(announced, variant)
        else:
            announced = tag_announce(state)
            hit = store.lookup(announced, variant)
            if hit is None:
                announced = tag_announce(state, retry=True)
                hit = store.lookup(announced, variant)
        if hit is None:
            outcome = _LOOKUP_FAILED

    if hit is not None:
        row, side = hit
        derivation = (*tuple_of(row, side), row.id, n1, n2, *extra)
        a, b, c, expected, staged, internals = module.reader_begin(*derivation)
        outcome = None
        if replayed is not None:
            # a captured D answers the reader in place of the genuine tag
            d = replayed.d
        else:
            d = module.tag_respond(state, a, b, c, *extra, (derivation, c, (expected, staged)))
            if d is None:
                outcome = _READER_REJECTED
            elif forcing.drop_d:
                d, outcome = None, _D_DROPPED
        if outcome is None:
            if d == expected:
                store.commit(row.tag_label, staged, side)
                outcome = _SUCCESS
            else:
                outcome = _TAG_REJECTED

    bits = HELLO_BITS + WIDTH
    if a is not None:
        bits += CHALLENGE_BITS
    if d is not None:
        bits += WIDTH
    tag_post, reader_post = _snapshots(state, mirror)
    return (Transcript(variant, session_index, announced, a, b, c, d, outcome, bits),
            GroundTruth(session_index, state.id, tag_pre, tag_post, reader_pre, reader_post,
                        *internals))


@dataclass
class CampaignConfig:
    """A campaign's settings; it runs the protocol of the tag it is given."""

    sessions: int
    seed: int
    nonce_mode: NonceMode = NonceMode.RANDOM
    key_mode: KeyMode = KeyMode.AS_STORED
    drop_d_rate: float = 0.0


@dataclass
class CampaignResult:
    transcripts: list[Transcript]
    ground_truths: list[GroundTruth]
    summary: dict


# Sessions of an original-Gossamer campaign whose MixBits chains are
# computed together, in three lane calls
CHAIN_BLOCK = 256


def _draw_drop(config: CampaignConfig, rng: NonceStream) -> bool:
    return config.drop_d_rate > 0 and rng.chance(config.drop_d_rate)


def _chain_table(config: CampaignConfig, rng: NonceStream, count: int) -> dict:
    """The ``gossamer.mixbits_table`` of a campaign's next ``count`` sessions.

    Their nonces are drawn ahead on a copy of ``rng``, through the helpers
    and in the order each session draws them: drop decision, forced keys,
    nonces.  ``rng`` itself is not read.
    """
    ahead = NonceStream(0)
    ahead.setstate(rng.getstate())
    forced = config.key_mode is not _AS_STORED
    n1s, n2s = [], []
    for _ in range(count):
        _draw_drop(config, ahead)
        if forced:
            _draw_keys(config.key_mode, ahead)
        n1, n2 = _draw_nonces(config.nonce_mode, ahead)
        n1s.append(n1)
        n2s.append(n2)
    return gossamer.mixbits_table(n1s, n2s)


def iter_campaign(tag: SimTag, store: Store,
                  config: CampaignConfig) -> Iterator[tuple[Transcript, GroundTruth]]:
    """Lazily run the campaign's sessions in order against one tag.

    For original Gossamer, each block of CHAIN_BLOCK sessions starts by
    computing the MixBits chains of all its sessions at once
    (``_chain_table``), and each session runs with the block's table
    installed in ``word96`` and cleared after it, even by a session that
    raises, so none is installed while the generator waits.  The reader
    still calls MixBits on its own inputs, and the table only answers it,
    exactly; an honest session's tag answers from the reader's derivation
    (``run_session``) and calls none.
    """
    rng = NonceStream(config.seed)
    forcing = Forcing(nonce_mode=config.nonce_mode, key_mode=config.key_mode)
    table = {}
    for index in range(config.sessions):
        if index % CHAIN_BLOCK == 0 and tag.protocol is Protocol.GOSSAMER:
            table = _chain_table(config, rng, min(CHAIN_BLOCK, config.sessions - index))
        forcing.drop_d = _draw_drop(config, rng)
        use_mixbits_table(table)
        try:
            session = run_session(tag, store, forcing, rng, session_index=index)
        finally:
            use_mixbits_table({})
        yield session


def run_campaign(tag: SimTag, store: Store, config: CampaignConfig) -> CampaignResult:
    transcripts: list[Transcript] = []
    truths: list[GroundTruth] = []
    for transcript, truth in iter_campaign(tag, store, config):
        transcripts.append(transcript)
        truths.append(truth)
    return CampaignResult(transcripts, truths,
                          campaign_summary(tag.protocol, config, transcripts))


def campaign_summary(protocol: Protocol, config: CampaignConfig, transcripts) -> dict:
    """Protocol, config, outcome counts and total bits; ``transcripts`` is read once."""
    outcomes: Counter = Counter()
    bits_total = 0
    for transcript in transcripts:
        outcomes[transcript.outcome] += 1  # counted by member, named once below
        bits_total += transcript.bit_cost
    return {
        "protocol": protocol.value,
        "sessions": config.sessions,
        "seed": config.seed,
        "forcing": {"nonces": config.nonce_mode.value, "keys": config.key_mode.value},
        "drop_d_rate": config.drop_d_rate,
        "outcomes": dict(sorted((outcome.value, n) for outcome, n in outcomes.items())),
        "bits_total": bits_total,
    }


# -- attack evaluation and scoring -------------------------------------------

def _consecutive_success(pair) -> bool:
    first, second = pair
    return (first.outcome is _SUCCESS and second.outcome is _SUCCESS
            and second.session_index == first.session_index + 1)


def consecutive_success_pairs(transcripts) -> Iterator[tuple]:
    """The window of every attack trial, lazily: the adjacent pairs of
    ``transcripts`` that are mutually successful sessions with contiguous
    indices.  An intervening failed session changes nothing, as nothing updated.
    """
    return filter(_consecutive_success, pairwise(transcripts))


def _matches(verdict: attacks.AttackVerdict, truth: GroundTruth | ScoredTruth,
             residue_id: bool) -> bool:
    """Whether a fired verdict agrees with the session's ground truth.

    A match needs the recovered ID (mod 96 for a residue attack) and, when
    a state was recovered, every internal of it and the next IDS it
    predicts.
    """
    rs = verdict.recovered_state
    return verdict.recovered_id == (truth.id % 96 if residue_id else truth.id) and (
        rs is None or (rs.next_ids == truth.next_ids
                       and _INTERNALS(rs) == _INTERNALS(truth)))


def evaluate_attack(kind: str, transcripts, ground_truths=None) -> tuple[list[dict], dict]:
    """Run one attack over a transcript stream and summarize the rates.

    ``transcripts`` and ``ground_truths`` may be any iterables (a list, an
    iterator, a generator); each is read once, and the trials run in one
    pass over the transcripts.  Each trial is one pair of
    ``consecutive_success_pairs``, which the evaluator selects; the attack
    kind's ``trials`` maps the pairs to verdicts and notes, and every kind's
    trials are scored the same way.  An unknown kind is a ValueError,
    raised before either iterable is read.
    Returns (records, summary); records carry the verdict per trial, and
    for the one-session disclosure also whether its next-pseudonym
    prediction matched the following announcement (a public check).  A
    trial is scored when its first session has ground truth:
    ``match_rate`` is matched over scored trials, and
    ``conditional_match_rate`` matched over the fired trials that were
    scored; each is None when it would divide by 0.
    Ground truth (``GroundTruth`` or ``ScoredTruth`` records, which score
    alike) joins the trials by session index: its records may come in any
    order, a later record of a session replaces an earlier one, and a
    record of a session that starts no trial is ignored.
    """
    attack = attacks.ATTACKS.get(kind)
    if attack is None:
        raise ValueError(f"unknown attack kind: {kind}")
    near_miss, residue_id = attack.near_miss, attack.residue_id
    # plain loops, not comprehensions: a comprehension is a frame per call
    truth_by_session = {}
    for t in ground_truths or ():
        truth_by_session[t.session_index] = t
    records: list[dict] = []
    near_misses: dict[int, int] = {}
    fired = matched = scored = fired_scored = confirmed = 0
    # consecutive_success_pairs(transcripts), built in place: no call of its own
    pairs = filter(_consecutive_success, pairwise(transcripts))
    for first, verdict, note, prediction_confirmed in attack.trials(pairs):
        if prediction_confirmed:
            confirmed += 1
        if near_miss:
            near_misses[note] = near_misses.get(note, 0) + 1
        truth = truth_by_session.get(first.session_index)
        if truth is not None:
            scored += 1
        if verdict.fired:
            fired += 1
            if truth is not None:
                fired_scored += 1
                verdict.ground_truth_match = match = _matches(verdict, truth, residue_id)
                matched += match
        records.append({"session": first.session_index, "verdict": verdict,
                        "prediction_confirmed": prediction_confirmed})
    trials = len(records)
    summary = {
        "attack": kind,
        "trials": trials,
        "fired": fired,
        "fired_rate": fired / trials if trials else 0.0,
        "scored": scored,
        "matched": matched,
        "match_rate": matched / scored if scored else None,
        "conditional_match_rate": matched / fired_scored if fired_scored else None,
    }
    if near_miss:
        histogram = summary["near_miss_histogram"] = {}
        # a call on one pair has at most one gap, and one gap needs no sort
        for gap in sorted(near_misses) if len(near_misses) > 1 else near_misses:
            histogram[str(gap)] = near_misses[gap]
    if attack.arity == 1:
        summary["prediction_confirmed"] = confirmed
    return records, summary


# -- cost accounting ----------------------------------------------------------

def cost_accounting(variant: str = "gossamer") -> dict:
    """The message and storage bit accounting all three protocols share.

    The identification-plus-challenge figure counts hello + IDS + A||B||C
    only; whether D belongs in the per-session total is a convention, so
    both numbers are reported.
    """
    return {
        "variant": variant,
        "hello_bits": HELLO_BITS,
        "ids_bits": WIDTH,
        "challenge_bits": CHALLENGE_BITS,
        "identification_and_challenge_bits": HELLO_BITS + WIDTH + CHALLENGE_BITS,
        "d_bits": WIDTH,
        "full_session_bits": HELLO_BITS + WIDTH + CHALLENGE_BITS + WIDTH,
        "rewritable_state_bits": 6 * WIDTH,
        "static_id_bits": WIDTH,
        "note": "the 424-bit figure counts hello + IDS + A||B||C only; D adds 96 more",
    }


# -- serialization -------------------------------------------------------------

TAGS_FORMAT = "rfid-tagfleet/1"

# Kinds only JSONL lines hold: a word or a snapshot, each of which may be null.
# The line readers take their groups by position, so these kinds have no
# ``parse``: a word or null is one group, None for null, and a snapshot or
# null one group of its text or ``null``.
_WORD_OR_NULL = Kind("%s", f"(?:{HEX}|null)", None,
                     lambda value, key: None if value is None else WORD.decode(value, key))
_INT = Kind("%d", "(-?(?:0|[1-9][0-9]*))", None, exactly(int))
_SNAPSHOT_FIELDS = [(key, WORD) for key in TUPLE_WORDS]
_SNAPSHOT_JSON, _snapshot_pattern = record_formats(_SNAPSHOT_FIELDS)
_SNAPSHOT_OR_NULL = Kind("%s", "(?:%s|null)" % _snapshot_pattern.replace("(", "(?:"), None,
                         lambda value, key: None if value is None else StateSnapshot(
                             **decode(_SNAPSHOT_FIELDS, value, key + ".")))

# The field table of each record kind: the one place its keys, their order
# and their kinds are written.  A canonical line or file is what the writers
# give; a reader takes any other through ``json.loads``.
_TRANSCRIPT_FIELDS = [
    ("variant", STR), ("session", _INT), ("ids", WORD), ("a", _WORD_OR_NULL),
    ("b", _WORD_OR_NULL), ("c", _WORD_OR_NULL), ("d", _WORD_OR_NULL),
    ("outcome", STR), ("bits", _INT)]
# A reader snapshot matches the tag's by back-reference where its text repeats
# it, as in every synchronized session, and leaves its group None.  A null tag
# snapshot's group holds ``null``, so a null reader's group is None after it.
_GROUND_TRUTH_FIELDS = [
    ("session", _INT), ("id", WORD),
    *[(key, _WORD_OR_NULL) for key in ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")],
    *[(f"tag_{when}", _SNAPSHOT_OR_NULL._replace(
        pattern=f"(?P<{when}>{_SNAPSHOT_OR_NULL.pattern})")) for when in ("pre", "post")],
    *[(f"reader_{when}", _SNAPSHOT_OR_NULL._replace(
        pattern=f"(?:(?P={when})|({_SNAPSHOT_OR_NULL.pattern}))")) for when in ("pre", "post")]]
_TAGS = RecordList(TAGS_FORMAT, "tags", "tag", [*_ROWS.fields, ("last_announced", STR)])


def _line_formats(fields) -> tuple[str, str, re.Pattern]:
    """A line's %-format, its %-format when no field is null, and the compiled
    regex of a canonical line, all three built from the field table.

    With no null, a word's quotes are written into the template, so that the
    line renders in one %.  A snapshot keeps its %s slot, which takes the
    snapshot's text or ``null``: ground_truth_line renders each snapshot's
    text first, once for a reader snapshot that is the tag's.
    """
    template, pattern = record_formats(fields)
    no_null = [(key, WORD if kind is _WORD_OR_NULL else kind) for key, kind in fields]
    return template + "\n", record_formats(no_null)[0] + "\n", re.compile(pattern + "\n?")


_TRANSCRIPT_LINE, _TRANSCRIPT_FULL, _TRANSCRIPT_RE = _line_formats(_TRANSCRIPT_FIELDS)
_TRANSCRIPT_KEYS = [key for key, _ in _TRANSCRIPT_FIELDS]
_GROUND_TRUTH_LINE, _GROUND_TRUTH_FULL, _GROUND_TRUTH_RE = _line_formats(_GROUND_TRUTH_FIELDS)
_SNAPSHOTS = attrgetter("tag_pre", "tag_post", "reader_pre", "reader_post")
# The text of a snapshot's first word, ids, within the snapshot's text: no
# word precedes it in _SNAPSHOT_JSON, so its offset there is its offset in the text
_IDS_AT = _SNAPSHOT_JSON.index("%s")
_SNAPSHOT_IDS = slice(_IDS_AT, _IDS_AT + WIDTH // 4)


def _word(x: Word96 | None) -> str:
    return "null" if x is None else '"%s"' % to_hex(x)


def _snapshot_hex(s: StateSnapshot) -> tuple[str, ...]:
    return (to_hex(s.ids), to_hex(s.k1), to_hex(s.k2), to_hex(s.ids_old), to_hex(s.k1_old),
            to_hex(s.k2_old))


def _snapshot_json(s: StateSnapshot | None) -> str:
    return "null" if s is None else _SNAPSHOT_JSON % _snapshot_hex(s)


def _half_hex(ids: Word96, k1: Word96, k2: Word96, pre: StateSnapshot,
              pre_hex: tuple[str, ...]) -> tuple[str, ...]:
    """The hex words of the tuple (ids, k1, k2): those of the half of ``pre``
    that holds the same three words, taken from ``pre_hex`` (the hex words
    of ``pre``), or three new ones."""
    if ids == pre.ids and k1 == pre.k1 and k2 == pre.k2:
        return pre_hex[:3]
    if ids == pre.ids_old and k1 == pre.k1_old and k2 == pre.k2_old:
        return pre_hex[3:]
    return to_hex(ids), to_hex(k1), to_hex(k2)


def transcript_line(t: Transcript) -> str:
    """``json.dumps(transcript_to_dict(t), separators=(",", ":")) + "\\n"``."""
    a, b, c, d = t.a, t.b, t.c, t.d
    if a is None or b is None or c is None or d is None:
        line, a, b, c, d = _TRANSCRIPT_LINE, _word(a), _word(b), _word(c), _word(d)
    else:
        line, a, b, c, d = _TRANSCRIPT_FULL, to_hex(a), to_hex(b), to_hex(c), to_hex(d)
    return line % (encode_basestring_ascii(t.variant), t.session_index, to_hex(t.announced_ids),
                   a, b, c, d, _OUTCOME_JSON[t.outcome], t.bit_cost)


def transcript_to_dict(t: Transcript) -> dict:
    return json.loads(transcript_line(t))


def _transcript(variant: str, session: int, ids: Word96, a, b, c, d, outcome: str,
                bits: int) -> Transcript:
    """The transcript of decoded fields, checked as ``transcript_from_dict`` says."""
    outcome = _OUTCOMES.get(outcome) or Outcome(outcome)  # a miss raises Enum's error
    if a is None or b is None or c is None:
        nulls = [key for key, value in (("a", a), ("b", b), ("c", c)) if value is None]
        if len(nulls) < 3 or outcome is not _LOOKUP_FAILED:
            raise ValueError(f"{nulls[0]}: null; a, b and c are all words, "
                             "or all null with outcome lookup_failed")
    # a D crossed the air if the reader judged one, none if the tag refused or
    # was never reached; d_dropped takes either (a replayed A||B||C draws a D)
    if (outcome is _SUCCESS or outcome is _TAG_REJECTED if d is None
            else outcome is _READER_REJECTED or outcome is _LOOKUP_FAILED):
        raise ValueError(f"d: {'null' if d is None else 'a word'}, but outcome is {outcome.value}")
    return Transcript(variant, session, ids, a, b, c, d, outcome, bits)


def transcript_from_dict(data: dict) -> Transcript:
    """A transcript read back; a null or a D that contradicts its outcome is a ValueError."""
    values = decode(_TRANSCRIPT_FIELDS, data)
    return _transcript(*map(values.__getitem__, _TRANSCRIPT_KEYS))


def transcript_from_line(line: str) -> Transcript:
    """``transcript_from_dict(json.loads(line))``, a canonical line read without it."""
    match = _TRANSCRIPT_RE.fullmatch(line)
    if match is None:
        return transcript_from_dict(json_loads(line))
    variant, session, ids, a, b, c, d, outcome, bits = match.groups()
    # a null word's group is None, and a word's text is never empty
    return _transcript(variant, int(session), int(ids, 16), a and int(a, 16), b and int(b, 16),
                       c and int(c, 16), d and int(d, 16), outcome, int(bits))


def ground_truth_line(truth: GroundTruth) -> str:
    """``json.dumps(ground_truth_to_dict(truth), separators=(",", ":")) + "\\n"``.

    Each distinct snapshot half is converted once: a reader snapshot that is
    the tag's own object reuses the tag's text, and a half of ``tag_post``
    that repeats a half of ``tag_pre`` reuses that half's hex words.  Every
    other word is one ``to_hex`` call.
    """
    tag_pre, tag_post, reader_pre, reader_post = _SNAPSHOTS(truth)
    if tag_pre is None or tag_post is None:  # never so from run_session
        pre_json, post_json = _snapshot_json(tag_pre), _snapshot_json(tag_post)
    else:
        pre = _snapshot_hex(tag_pre)
        pre_json = _SNAPSHOT_JSON % pre
        # after a commit, tag_post's old half is the half the session ran on
        post_json = _SNAPSHOT_JSON % (
            _half_hex(tag_post.ids, tag_post.k1, tag_post.k2, tag_pre, pre)
            + _half_hex(tag_post.ids_old, tag_post.k1_old, tag_post.k2_old, tag_pre, pre))
    snapshots = (pre_json, post_json,
                 pre_json if reader_pre is tag_pre else _snapshot_json(reader_pre),
                 post_json if reader_post is tag_post else _snapshot_json(reader_post))
    internals = _INTERNALS(truth)
    if None in internals:
        return _GROUND_TRUTH_LINE % (truth.session_index, to_hex(truth.id),
                                     *map(_word, internals), *snapshots)
    # explicit calls: a to_hex called through map or a comprehension costs
    # more, as does an int(text, 16) in the line readers
    return _GROUND_TRUTH_FULL % (
        truth.session_index, to_hex(truth.id), to_hex(truth.n1), to_hex(truth.n2),
        to_hex(truth.n3), to_hex(truth.n1p), to_hex(truth.n2p), to_hex(truth.k1_star),
        to_hex(truth.k2_star), *snapshots)


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    return json.loads(ground_truth_line(truth))


def _check_tag_snapshots(tag_pre: StateSnapshot | None,
                         tag_post: StateSnapshot | None) -> None:
    for key, snapshot in (("tag_pre", tag_pre), ("tag_post", tag_post)):
        if snapshot is None:
            raise ValueError(f"{key}: null, but the tag always has a state")


def ground_truth_from_dict(data: dict) -> GroundTruth:
    """Ground truth read back; a null reader snapshot (no store row) is valid, a
    null tag snapshot a ValueError."""
    values = decode(_GROUND_TRUTH_FIELDS, data)
    _check_tag_snapshots(values["tag_pre"], values["tag_post"])
    return GroundTruth(session_index=values.pop("session"), **values)


def scored_truth(truth: GroundTruth) -> ScoredTruth:
    """The words of ``truth`` that scoring reads."""
    return ScoredTruth(truth.session_index, truth.id, truth.next_ids, *_INTERNALS(truth))


def scored_truth_from_line(line: str) -> ScoredTruth:
    """``scored_truth(ground_truth_from_dict(json.loads(line)))``, a canonical
    line read without it.

    The regex checks the whole line, every word of its four snapshots too,
    so that a line is accepted, or refused with its error, as the full
    reader would; of the snapshots only the tag's next IDS is then decoded.
    """
    match = _GROUND_TRUTH_RE.fullmatch(line)
    if match is None:
        return scored_truth(ground_truth_from_dict(json_loads(line)))
    session, id_, n1, n2, n3, n1p, n2p, k1_star, k2_star, tag_pre, tag_post, _, _ = match.groups()
    if tag_pre == "null" or tag_post == "null":
        _check_tag_snapshots(*[None if text == "null" else text for text in (tag_pre, tag_post)])
    return ScoredTruth(int(session), int(id_, 16), int(tag_post[_SNAPSHOT_IDS], 16),
                       n1 and int(n1, 16), n2 and int(n2, 16), n3 and int(n3, 16),
                       n1p and int(n1p, 16), n2p and int(n2p, 16), k1_star and int(k1_star, 16),
                       k2_star and int(k2_star, 16))


def save_tags(tags: dict[str, SimTag], path: str) -> None:
    """Persist simulated tag states next to the reader store (atomic)."""
    _TAGS.save(path, (_TAGS.template % (
        encode_basestring_ascii(label), encode_basestring_ascii(tag.protocol.value),
        to_hex(s.id), to_hex(s.ids), to_hex(s.k1), to_hex(s.k2), to_hex(s.ids_old),
        to_hex(s.k1_old), to_hex(s.k2_old), encode_basestring_ascii(s.last_announced))
        for label, tag in sorted(tags.items()) for s in [tag.state]))


def load_tags(path: str) -> dict[str, SimTag]:
    """Read a saved tag fleet; a malformed file raises ValueError naming it.

    Two entries with one ``tag_label`` are malformed, as in ``Store.add``.
    """
    tags: dict[str, SimTag] = {}

    def add(values: dict) -> None:
        label, tag = _tag_entry(values)
        if label in tags:
            raise ValueError(f"duplicate tag label: {label}")
        tags[label] = tag

    _TAGS.load(path, add)
    return tags


def _tag_entry(values: dict) -> tuple[str, SimTag]:
    label = values.pop("tag_label")
    protocol = Protocol(values.pop("variant"))
    if values["last_announced"] not in (NEXT, OLD):
        raise ValueError(f"last_announced is not {NEXT!r} or {OLD!r}")
    return label, SimTag(label, protocol, TagState(**values))
