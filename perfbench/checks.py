"""Output checks that do not trust the code under test.

* Oracle check: a session's messages, internals and post-session tuples
  are rebuilt from its ground truth with the independent big-integer
  transcription in ``tests/oracles.py`` and compared with what the
  program produced.
* Consistency check: every tag must still be recoverable by the store.
* Digest: a canonical text form of transcripts, ground truth and
  verdicts, hashed with SHA-256 and compared with a pinned value.

Sessions arrive either as tagauth objects or as JSONL lines written by
the CLI; both are normalized into ``Record`` so one check covers both.
"""

import hashlib
import importlib.util
from dataclasses import dataclass
from pathlib import Path

ACCEPTED = ("mutual_success", "d_dropped")  # outcomes in which the tag updated
REJECTED = ("reader_rejected", "tag_rejected", "lookup_failed")

_SNAP_FIELDS = ("ids", "k1", "k2", "ids_old", "k1_old", "k2_old")


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("tagauth_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Record:
    """One session: the public transcript plus its ground truth, as ints.

    Snapshots are 6-tuples (ids, k1, k2, ids_old, k1_old, k2_old).
    """

    protocol: str
    session: int
    announced: int
    a: int | None
    b: int | None
    c: int | None
    d: int | None
    outcome: str
    bits: int
    id: int
    n1: int | None
    n2: int | None
    n3: int | None
    n1p: int | None
    n2p: int | None
    k1_star: int | None
    k2_star: int | None
    tag_pre: tuple
    tag_post: tuple
    reader_pre: tuple | None
    reader_post: tuple | None


def _snap_obj(snapshot) -> tuple | None:
    if snapshot is None:
        return None
    return tuple(getattr(snapshot, f) for f in _SNAP_FIELDS)


def record_from_objects(transcript, truth) -> Record:
    return Record(
        transcript.variant, transcript.session_index, transcript.announced_ids,
        transcript.a, transcript.b, transcript.c, transcript.d,
        transcript.outcome.value, transcript.bit_cost, truth.id,
        truth.n1, truth.n2, truth.n3, truth.n1p, truth.n2p,
        truth.k1_star, truth.k2_star,
        _snap_obj(truth.tag_pre), _snap_obj(truth.tag_post),
        _snap_obj(truth.reader_pre), _snap_obj(truth.reader_post))


def _word(text: str | None) -> int | None:
    return None if text is None else int(text, 16)


def _snap_json(data: dict | None) -> tuple | None:
    if data is None:
        return None
    return tuple(int(data[f], 16) for f in _SNAP_FIELDS)


def record_from_json(transcript: dict, truth: dict) -> Record:
    return Record(
        transcript["variant"], transcript["session"], int(transcript["ids"], 16),
        _word(transcript["a"]), _word(transcript["b"]), _word(transcript["c"]),
        _word(transcript["d"]), transcript["outcome"], transcript["bits"],
        int(truth["id"], 16),
        *(_word(truth[f]) for f in ("n1", "n2", "n3", "n1p", "n2p",
                                    "k1_star", "k2_star")),
        _snap_json(truth["tag_pre"]), _snap_json(truth["tag_post"]),
        _snap_json(truth["reader_pre"]), _snap_json(truth["reader_post"]))


def oracle_mismatches(rec: Record, oracles) -> list[str]:
    """Fields of ``rec`` that disagree with the oracle; empty when all agree.

    Covers sessions that reached the challenge on the honest path (no
    replay), which is every session the benchmark workloads run.
    """
    if rec.tag_pre is None:
        return ["tag_pre"]
    pre = rec.tag_pre
    if rec.announced == pre[0]:
        used = pre[0:3]
    elif rec.announced == pre[3]:
        used = pre[3:6]
    else:
        return ["announced"]
    ids, k1, k2 = used
    if rec.n1 is None or rec.n2 is None:
        return ["nonces"]
    if rec.protocol == "sasi":
        o = oracles.sasi_session(rec.id, ids, k1, k2, rec.n1, rec.n2)
        expected_next = (o["ids_next"], o["k1s"], o["k2s"])
        internals = {"k1_star": o["k1s"], "k2_star": o["k2s"]}
    else:
        variant = "original" if rec.protocol == "gossamer" else "modified"
        o = oracles.gossamer_session(variant, rec.id, ids, k1, k2, rec.n1, rec.n2)
        expected_next = (o["ids_next"], o["k1_next"], o["k2_next"])
        internals = {"n3": o["n3"], "n1p": o["n1p"], "n2p": o["n2p"],
                     "k1_star": o["k1s"], "k2_star": o["k2s"]}
    bad = [f for f in ("a", "b", "c") if getattr(rec, f) != o[f]]
    bad += [f for f, v in internals.items() if getattr(rec, f) != v]
    if rec.outcome not in ACCEPTED:
        return bad + [f"outcome {rec.outcome}"]
    if rec.tag_post != expected_next + used:
        bad.append("tag_post")
    reader_pre, reader_post = rec.reader_pre, rec.reader_post
    if rec.outcome == "d_dropped":
        if rec.d is not None or reader_post != reader_pre:
            bad.append("d_dropped")
        return bad
    if rec.d != o["d"]:
        bad.append("d")
    if reader_pre is None:
        return bad + ["reader_pre"]
    # The reader commits the staged tuple; the tuple it matched on becomes
    # old when it was the next one, and old stays put otherwise.
    reader_old = reader_pre[0:3] if rec.announced == reader_pre[0] else reader_pre[3:6]
    if reader_post != expected_next + reader_old:
        bad.append("reader_post")
    return bad


class StoreIndex:
    """Where ``Store.lookup`` must find each IDS, computed independently.

    Mirrors the documented rule: next tuples before old ones, first row
    by tag label on a collision.  Lets the consistency check cover every
    tag of a large fleet without a linear lookup per tag.
    """

    def __init__(self, store, variant: str) -> None:
        self.next: dict = {}
        self.old: dict = {}
        for label in sorted(store.rows):
            row = store.rows[label]
            if row.variant == variant:
                self.next.setdefault(row.ids, row)
                self.old.setdefault(row.ids_old, row)

    def find(self, ids: int):
        if ids in self.next:
            return self.next[ids], "next"
        if ids in self.old:
            return self.old[ids], "old"
        return None


def _row_tuple(row, side: str) -> tuple:
    if side == "next":
        return row.ids, row.k1, row.k2
    return row.ids_old, row.k1_old, row.k2_old


def consistency_failures(tags: dict, store, variant: str, probe_labels) -> list[str]:
    """Labels of tags the store can no longer authenticate.

    A tag passes when its next IDS, or failing that its old IDS, hits
    its own row and the row's tuple on the matching side equals the
    tag's tuple.  For ``probe_labels`` the index is also compared with
    ``Store.lookup`` itself.
    """
    index = StoreIndex(store, variant)
    failed = []
    for label, tag in tags.items():
        state = tag.state
        ids, mine = state.ids, (state.ids, state.k1, state.k2)
        hit = index.find(ids)
        if hit is None:
            ids, mine = state.ids_old, (state.ids_old, state.k1_old, state.k2_old)
            hit = index.find(ids)
        if hit is None or hit[0].tag_label != label or _row_tuple(*hit) != mine:
            failed.append(label)
            continue
        side = hit[1]
        if label in probe_labels:
            found = store.lookup(ids, variant)
            if found is None or found[0].tag_label != label or found[1] != side:
                failed.append(label)
    return failed


def _hex(value: int | None) -> str:
    return "-" if value is None else format(value, "024x")


def record_line(rec: Record) -> str:
    """Canonical text of one session, independent of the program's codecs."""
    words = [rec.announced, rec.a, rec.b, rec.c, rec.d, rec.id, rec.n1, rec.n2,
             rec.n3, rec.n1p, rec.n2p, rec.k1_star, rec.k2_star]
    snaps = [rec.tag_pre, rec.tag_post, rec.reader_pre, rec.reader_post]
    parts = [rec.protocol, str(rec.session), rec.outcome, str(rec.bits)]
    parts += [_hex(w) for w in words]
    parts += ["-" if s is None else ",".join(_hex(w) for w in s) for s in snaps]
    return " ".join(parts)


def verdict_line(record: dict) -> str:
    verdict = record["verdict"]
    state = verdict.recovered_state
    state_text = "-" if state is None else ",".join(
        _hex(getattr(state, f)) for f in ("k1_star", "k2_star", "n1", "n2", "n3",
                                          "n1p", "n2p", "next_ids"))
    return " ".join(str(x) for x in (
        record["session"], verdict.fired, verdict.recovered_id,
        verdict.ground_truth_match, record["prediction_confirmed"], state_text))


class Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add_line(self, text: str) -> None:
        self._hash.update(text.encode() + b"\n")

    def add_bytes(self, data: bytes) -> None:
        self._hash.update(len(data).to_bytes(8, "big") + data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
