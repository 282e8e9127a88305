"""Deterministic session orchestration with fault injection and forcing hooks.

The channel is an in-process message pass.  What an eavesdropper would see
goes into Transcript; every secret (states, nonces, session keys) goes
into GroundTruth; the two never share a field, which is what lets the
attack modules stay provably passive.

Determinism contract: (initial states, config, seed) fully determine every
transcript, ground-truth record and summary.  Nonces come from a seeded
Mersenne Twister (stdlib ``random.Random``) behind NonceStream; per
session the draw order is fixed (drop decision, forced keys, nonces).

Per-tag session order is total: a campaign drives one tag sequentially,
which is what consecutive-transcript attacks rely on.  Campaigns against
distinct tags are independent and may run in separate processes.
"""

import json
import random
import re
from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Iterator

from . import attacks, gossamer, sasi
from .gossamer import Variant
from .store import (TUPLE_WORDS, Store, TagRecordRow, WordCodec, bad_word, json_loads,
                    load_records, parse_entries, save_envelope)
from .tagstate import NEXT, OLD, TagState, reader_finish, tag_announce, tuple_of
from .word96 import WIDTH, Word96, from_hex, to_hex

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


@dataclass
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


@dataclass
class StateSnapshot:
    """Both (ids, k1, k2) tuples of one side at one instant."""

    ids: Word96
    k1: Word96
    k2: Word96
    ids_old: Word96
    k1_old: Word96
    k2_old: Word96


@dataclass
class GroundTruth:
    """Secrets of one session, recorded for scoring and invariant checks only.

    For SASI sessions k1_star/k2_star hold the session keys K1'/K2' and the
    derived-nonce fields stay None.  Internals are None when the session
    never reached the challenge (or was a replay with no fresh derivation).
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
        self._rng = random.Random(seed)

    def word(self) -> Word96:
        return self._rng.getrandbits(WIDTH)

    def multiple_of_96(self) -> Word96:
        """Uniform over the multiples of 96 in [0, 2**96)."""
        return self._rng.randrange(self._MULTIPLES_OF_96) * 96

    def chance(self, probability: float) -> bool:
        return self._rng.random() < probability


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

# Protocol -> (module, extra, internals).  ``module`` (sasi or gossamer)
# supplies reader_begin and tag_respond; run_session looks them up on the
# module at each call so that a wrapper set on the module attribute
# (perfbench/tracing.py's spans) sees every session.  ``extra`` is the
# trailing argument both take: the Gossamer variant, nothing for SASI.
# ``internals`` pairs each GroundTruth field with the session-values
# attribute that holds it.
_GOSSAMER_INTERNALS = (("n1", "n1"), ("n2", "n2"), ("n3", "n3"), ("n1p", "n1p"),
                       ("n2p", "n2p"), ("k1_star", "k1s"), ("k2_star", "k2s"))
_ENGINES = {
    # SASI's session keys K1'/K2' are its staged keys
    Protocol.SASI: (sasi, (), (("n1", "n1"), ("n2", "n2"),
                               ("k1_star", "k1_next"), ("k2_star", "k2_next"))),
    Protocol.GOSSAMER: (gossamer, (Variant.ORIGINAL,), _GOSSAMER_INTERNALS),
    Protocol.GOSSAMER_MOD: (gossamer, (Variant.MODIFIED,), _GOSSAMER_INTERNALS),
}


def _snapshot(holder) -> StateSnapshot | None:
    """Both tuples of a tag state or a store row; None for a missing row."""
    if holder is None:
        return None
    return StateSnapshot(holder.ids, holder.k1, holder.k2,
                         holder.ids_old, holder.k1_old, holder.k2_old)


# -- session and campaign ----------------------------------------------------

def _draw_nonces(forcing: Forcing, rng: NonceStream) -> tuple[Word96, Word96]:
    if forcing.nonce_mode is NonceMode.EXACT_ZERO:
        return 0, 0
    if forcing.nonce_mode is NonceMode.ZERO_MOD_96:
        return rng.multiple_of_96(), rng.multiple_of_96()
    return rng.word(), rng.word()


def _force_keys(forcing: Forcing, rng: NonceStream, state, row) -> None:
    if forcing.key_mode is KeyMode.AS_STORED:
        return
    if forcing.key_mode is KeyMode.EXACT_ZERO:
        k1f = k2f = 0
    else:
        k1f, k2f = rng.multiple_of_96(), rng.multiple_of_96()
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
    that crossed the channel, and one GroundTruth.
    """
    variant = tag.protocol.value
    module, extra, internals = _ENGINES[tag.protocol]
    state = tag.state
    mirror = store.rows.get(tag.label)
    _force_keys(forcing, rng, state, mirror)
    tag_pre = _snapshot(state)
    reader_pre = _snapshot(mirror)
    replayed = forcing.replay_d
    a = b = c = d = pending = hit = None

    if forcing.replay_abc is not None:
        captured = forcing.replay_abc
        announced = tag_announce(state)
        if announced != captured.announced_ids:
            announced = tag_announce(state, retry=True)
        a, b, c = captured.a, captured.b, captured.c
        d = module.tag_respond(state, a, b, c, *extra)
        outcome = Outcome.READER_REJECTED if d is None else Outcome.D_DROPPED
    else:
        n1, n2 = _draw_nonces(forcing, rng)
        if replayed is not None:
            announced = replayed.announced_ids
            hit = store.lookup(announced, variant)
        else:
            announced = tag_announce(state)
            hit = store.lookup(announced, variant)
            if hit is None:
                announced = tag_announce(state, retry=True)
                hit = store.lookup(announced, variant)
        outcome = Outcome.LOOKUP_FAILED

    if hit is not None:
        row, side = hit
        a, b, c, pending = module.reader_begin(*tuple_of(row, side), row.id, n1, n2, *extra)
        outcome = None
        if replayed is not None:
            # a captured D answers the reader in place of the genuine tag
            d = replayed.d
        else:
            d = module.tag_respond(state, a, b, c, *extra)
            if d is None:
                outcome = Outcome.READER_REJECTED
            elif forcing.drop_d:
                d, outcome = None, Outcome.D_DROPPED
        if outcome is None:
            if reader_finish(pending, d):
                store.commit(row.tag_label, (pending.ids_next, pending.k1_next,
                                             pending.k2_next), side)
                outcome = Outcome.MUTUAL_SUCCESS
            else:
                outcome = Outcome.TAG_REJECTED

    bits = HELLO_BITS + WIDTH
    if a is not None:
        bits += CHALLENGE_BITS
    if d is not None:
        bits += WIDTH
    found = {} if pending is None else {
        field: getattr(pending, attr) for field, attr in internals}
    return (Transcript(variant, session_index, announced, a, b, c, d, outcome, bits),
            GroundTruth(session_index, state.id, tag_pre, _snapshot(state),
                        reader_pre, _snapshot(mirror), **found))


@dataclass
class CampaignConfig:
    protocol: Protocol
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


def iter_campaign(tag: SimTag, store: Store,
                  config: CampaignConfig) -> Iterator[tuple[Transcript, GroundTruth]]:
    """Lazily run the campaign's sessions in order against one tag."""
    rng = NonceStream(config.seed)
    forcing = Forcing(nonce_mode=config.nonce_mode, key_mode=config.key_mode)
    for index in range(config.sessions):
        forcing.drop_d = config.drop_d_rate > 0 and rng.chance(config.drop_d_rate)
        yield run_session(tag, store, forcing, rng, session_index=index)


def run_campaign(tag: SimTag, store: Store, config: CampaignConfig) -> CampaignResult:
    transcripts: list[Transcript] = []
    truths: list[GroundTruth] = []
    for transcript, truth in iter_campaign(tag, store, config):
        transcripts.append(transcript)
        truths.append(truth)
    return CampaignResult(transcripts, truths, campaign_summary(config, transcripts))


def campaign_summary(config: CampaignConfig, transcripts) -> dict:
    """Config, outcome counts and total bits; ``transcripts`` is read once."""
    outcomes: Counter = Counter()
    bits_total = 0
    for transcript in transcripts:
        outcomes[transcript.outcome.value] += 1
        bits_total += transcript.bit_cost
    return {
        "protocol": config.protocol.value,
        "sessions": config.sessions,
        "seed": config.seed,
        "forcing": {"nonces": config.nonce_mode.value, "keys": config.key_mode.value},
        "drop_d_rate": config.drop_d_rate,
        "outcomes": dict(sorted(outcomes.items())),
        "bits_total": bits_total,
    }


# -- attack evaluation and scoring -------------------------------------------

def consecutive_success_pairs(transcripts) -> list[tuple]:
    """Adjacent mutually-successful transcripts with contiguous indices.

    This is the detection window the two-transcript attacks assume; an
    intervening failed session changes nothing since nothing updated.
    """
    pairs = []
    for first, second in zip(transcripts, transcripts[1:]):
        if (first.outcome is Outcome.MUTUAL_SUCCESS
                and second.outcome is Outcome.MUTUAL_SUCCESS
                and second.session_index == first.session_index + 1):
            pairs.append((first, second))
    return pairs


# RecoveredSecrets fields that GroundTruth records under the same name
_RECOVERED_INTERNALS = ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")


def score_verdict(kind: str, verdict: attacks.AttackVerdict, truth: GroundTruth) -> None:
    """Fill in ground_truth_match for a fired verdict (simulator-side only).

    A match needs the recovered ID (mod 96 for a residue attack) and, when
    a state was recovered, every internal of it and the next IDS it
    predicts.
    """
    if not verdict.fired:
        return
    expected_id = truth.id % 96 if attacks.attack_kind(kind).residue_id else truth.id
    rs = verdict.recovered_state
    verdict.ground_truth_match = verdict.recovered_id == expected_id and (
        rs is None or (rs.next_ids == truth.tag_post.ids and all(
            getattr(rs, name) == getattr(truth, name) for name in _RECOVERED_INTERNALS)))


def evaluate_attack(kind: str, transcripts, ground_truths=None) -> tuple[list[dict], dict]:
    """Run one attack over a transcript stream and summarize the rates.

    Each trial is one consecutive mutually-successful pair.  Returns
    (records, summary); records carry the verdict per trial, and for the
    one-session disclosure also whether its next-pseudonym prediction
    matched the following announcement (a public check).
    """
    attack = attacks.attack_kind(kind)
    pairs = consecutive_success_pairs(transcripts)
    truth_by_session = {t.session_index: t for t in ground_truths or []}
    records: list[dict] = []
    near_misses: Counter = Counter()
    confirmed = 0
    scored = 0
    for pair in pairs:
        first, second = pair
        if attack.near_miss is not None:
            near_misses[attack.near_miss(first)] += 1
        verdict = attack.run(*pair[:attack.arity])
        prediction_confirmed = None
        if attack.arity == 1:
            prediction_confirmed = bool(
                verdict.fired
                and verdict.recovered_state.next_ids == second.announced_ids)
            confirmed += prediction_confirmed
        truth = truth_by_session.get(first.session_index)
        if truth is not None:
            scored += 1
            score_verdict(kind, verdict, truth)
        records.append({"session": first.session_index, "verdict": verdict,
                        "prediction_confirmed": prediction_confirmed})
    trials = len(records)
    fired = sum(1 for r in records if r["verdict"].fired)
    matched = sum(1 for r in records if r["verdict"].ground_truth_match)
    summary = {
        "attack": kind,
        "trials": trials,
        "fired": fired,
        "fired_rate": fired / trials if trials else 0.0,
        "scored": scored,
        "matched": matched,
        "match_rate": matched / scored if scored else None,
        "conditional_match_rate": matched / fired if fired and scored else None,
    }
    if attack.near_miss is not None:
        summary["near_miss_histogram"] = {
            str(gap): count for gap, count in sorted(near_misses.items())}
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

_TRANSCRIPT = WordCodec(optional=("a", "b", "c", "d"),
                        types={"variant": str, "session": int, "bits": int})
_SNAPSHOT = WordCodec(TUPLE_WORDS, record=StateSnapshot)
_GROUND_TRUTH = WordCodec(
    ("id",), ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star"),
    types={"session": int},
    nested=dict.fromkeys(("tag_pre", "tag_post", "reader_pre", "reader_post"), _SNAPSHOT))
_TAG = WordCodec(("id",) + TUPLE_WORDS,
                 types={"tag_label": str, "variant": str, "last_announced": str})

# A kind of JSONL field: its slot in a line's %-format, its regex in a
# canonical line, and ``parse``, the value from an iterator over the groups.
_Kind = namedtuple("_Kind", "slot pattern parse")


def _formats(fields) -> tuple[str, str]:
    """The %-format and the regex of a compact JSON object of ``fields`` (key, kind)."""
    return ("{" + ",".join(f'"{key}":{kind.slot}' for key, kind in fields) + "}",
            r"\{" + ",".join(f'"{key}":{kind.pattern}' for key, kind in fields) + r"\}")


_HEX = '"([0-9a-f]{24})"'  # ``int(text, 16)`` of a match is ``from_hex`` of it
_WORD = _Kind('"%s"', _HEX, lambda groups: int(next(groups), 16))
_WORD_OR_NULL = _Kind("%s", f"(?:{_HEX}|null)",
                      lambda groups: None if (text := next(groups)) is None else int(text, 16))
_STR = _Kind("%s", r'"([^"\\\x00-\x1f]*)"', next)  # no escape: the text is the value
_INT = _Kind("%d", "(-?(?:0|[1-9][0-9]*))", lambda groups: int(next(groups)))
_SNAPSHOT_JSON, _snapshot_pattern = _formats([(key, _WORD) for key in TUPLE_WORDS])


def _snapshot_or_none(groups) -> StateSnapshot | None:
    texts = list(islice(groups, len(TUPLE_WORDS)))  # six words, or six None for null
    return None if texts[0] is None else StateSnapshot(*[int(text, 16) for text in texts])


_SNAPSHOT_OR_NULL = _Kind("%s", f"(?:{_snapshot_pattern}|null)", _snapshot_or_none)

# The field table of each JSONL record kind: the one place its keys, their
# order and their kinds are written.  A canonical line is what the writers
# give; a reader takes any other line through ``json.loads``.
_TRANSCRIPT_FIELDS = [
    ("variant", _STR), ("session", _INT), ("ids", _WORD), ("a", _WORD_OR_NULL),
    ("b", _WORD_OR_NULL), ("c", _WORD_OR_NULL), ("d", _WORD_OR_NULL),
    ("outcome", _STR), ("bits", _INT)]
_GROUND_TRUTH_FIELDS = [
    ("session", _INT), ("id", _WORD),
    *[(key, _WORD_OR_NULL) for key in ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")],
    *[(key, _SNAPSHOT_OR_NULL) for key in ("tag_pre", "tag_post", "reader_pre", "reader_post")]]


def _line_formats(fields) -> tuple[str, re.Pattern]:
    """A line's %-format, and the compiled regex of a canonical line."""
    template, pattern = _formats(fields)
    return template + "\n", re.compile(pattern + "\n?")


_TRANSCRIPT_LINE, _TRANSCRIPT_RE = _line_formats(_TRANSCRIPT_FIELDS)
_GROUND_TRUTH_LINE, _GROUND_TRUTH_RE = _line_formats(_GROUND_TRUTH_FIELDS)


def _parse_match(fields, match: re.Match) -> dict:
    """Each field's value from a canonical line's regex match."""
    groups = iter(match.groups())
    return {key: kind.parse(groups) for key, kind in fields}


def _word(x: Word96 | None) -> str:
    return "null" if x is None else '"%s"' % to_hex(x)


def _snapshot_json(s: StateSnapshot | None) -> str:
    return "null" if s is None else _SNAPSHOT_JSON % (
        to_hex(s.ids), to_hex(s.k1), to_hex(s.k2), to_hex(s.ids_old), to_hex(s.k1_old),
        to_hex(s.k2_old))


def transcript_line(t: Transcript) -> str:
    """``json.dumps(transcript_to_dict(t), separators=(",", ":")) + "\\n"``."""
    return _TRANSCRIPT_LINE % (
        encode_basestring_ascii(t.variant), t.session_index, to_hex(t.announced_ids),
        _word(t.a), _word(t.b), _word(t.c), _word(t.d),
        encode_basestring_ascii(t.outcome.value), t.bit_cost)


def transcript_to_dict(t: Transcript) -> dict:
    return json.loads(transcript_line(t))


def _transcript(values: dict) -> Transcript:
    """The transcript of decoded ``values``, checked as ``transcript_from_dict`` says."""
    outcome = Outcome(values["outcome"])
    nulls = [key for key in ("a", "b", "c") if values[key] is None]
    if nulls and (len(nulls) < 3 or outcome is not Outcome.LOOKUP_FAILED):
        raise ValueError(f"{nulls[0]}: null; a, b and c are all words, "
                         "or all null with outcome lookup_failed")
    if values["d"] is None and outcome is Outcome.MUTUAL_SUCCESS:
        raise ValueError(f"d: null, but outcome is {outcome.value}")
    return Transcript(values["variant"], values["session"], values["ids"],
                      values["a"], values["b"], values["c"], values["d"],
                      outcome, values["bits"])


def transcript_from_dict(data: dict) -> Transcript:
    """A transcript read back; nulls that contradict its outcome are a ValueError."""
    values = _TRANSCRIPT.decode(data)
    try:
        values["ids"] = from_hex(values["ids"])
    except (TypeError, ValueError):
        raise bad_word("ids", values["ids"]) from None
    return _transcript(values)


def transcript_from_line(line: str) -> Transcript:
    """``transcript_from_dict(json.loads(line))``, a canonical line read without it."""
    match = _TRANSCRIPT_RE.fullmatch(line)
    return (_transcript(_parse_match(_TRANSCRIPT_FIELDS, match)) if match
            else transcript_from_dict(json_loads(line)))


def ground_truth_line(truth: GroundTruth) -> str:
    """``json.dumps(ground_truth_to_dict(truth), separators=(",", ":")) + "\\n"``."""
    return _GROUND_TRUTH_LINE % (
        truth.session_index, to_hex(truth.id),
        _word(truth.n1), _word(truth.n2), _word(truth.n3), _word(truth.n1p),
        _word(truth.n2p), _word(truth.k1_star), _word(truth.k2_star),
        _snapshot_json(truth.tag_pre), _snapshot_json(truth.tag_post),
        _snapshot_json(truth.reader_pre), _snapshot_json(truth.reader_post))


def ground_truth_to_dict(truth: GroundTruth) -> dict:
    return json.loads(ground_truth_line(truth))


def _ground_truth(values: dict) -> GroundTruth:
    """The ground truth of decoded ``values``, checked as ``ground_truth_from_dict`` says."""
    for key in ("tag_pre", "tag_post"):
        if values[key] is None:
            raise ValueError(f"{key}: null, but the tag always has a state")
    return GroundTruth(session_index=values.pop("session"), **values)


def ground_truth_from_dict(data: dict) -> GroundTruth:
    """Ground truth read back; a null reader snapshot (no store row) is valid, a
    null tag snapshot a ValueError."""
    return _ground_truth(_GROUND_TRUTH.decode(data))


def ground_truth_from_line(line: str) -> GroundTruth:
    """``ground_truth_from_dict(json.loads(line))``, a canonical line read without it."""
    match = _GROUND_TRUTH_RE.fullmatch(line)
    return (_ground_truth(_parse_match(_GROUND_TRUTH_FIELDS, match)) if match
            else ground_truth_from_dict(json_loads(line)))


def save_tags(tags: dict[str, SimTag], path: str) -> None:
    """Persist simulated tag states next to the reader store (atomic)."""
    save_envelope(path, TAGS_FORMAT, tags=[
        _TAG.encode({"tag_label": label, "variant": tags[label].protocol.value,
                     **vars(tags[label].state)})
        for label in sorted(tags)])


def load_tags(path: str) -> dict[str, SimTag]:
    """Read a saved tag fleet; a malformed file raises ValueError naming it.

    Two entries with one ``tag_label`` are malformed, as in ``Store.add``.
    """
    entries = load_records(path, TAGS_FORMAT, "tags", "tag", _tag_from_dict)
    tags = dict(entries)
    if len(tags) < len(entries):  # some label repeats: name its second entry
        seen: set[str] = set()

        def once(entry: tuple[str, SimTag]) -> None:
            if entry[0] in seen:
                raise ValueError(f"duplicate tag label: {entry[0]}")
            seen.add(entry[0])

        parse_entries(path, "tag", enumerate(entries), once)
    return tags


def _tag_from_dict(entry: dict) -> tuple[str, SimTag]:
    values = _TAG.decode(entry)
    label = values.pop("tag_label")
    protocol = Protocol(values.pop("variant"))
    if values["last_announced"] not in (NEXT, OLD):
        raise ValueError(f"last_announced is not {NEXT!r} or {OLD!r}")
    return label, SimTag(label, protocol, TagState(**values))
