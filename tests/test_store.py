"""Backend store: lookup by either tuple, commit semantics, persistence."""

import json
import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagauth import store as store_module
from tagauth.simulator import (
    TAGS_FORMAT,
    Forcing,
    NonceStream,
    Outcome,
    Protocol,
    SimTag,
    ground_truth_from_dict,
    load_tags,
    provision,
    run_session,
    save_tags,
    transcript_from_dict,
)
from tagauth.cli import MANIFEST_FORMAT, _build_parser
from tagauth.store import (MATCH_NEXT, MATCH_OLD, STORE_FORMAT, TUPLE_WORDS, RecordList,
                           Store, TagRecordRow, save_envelope)
from tagauth.tagstate import NEXT, OLD, TagState
from tagauth.word96 import MASK, to_hex


def row(label, ids, ids_old, variant="gossamer"):
    return TagRecordRow(label, variant, id=1, ids=ids, k1=2, k2=3,
                        ids_old=ids_old, k1_old=4, k2_old=5)


class TestLookup:
    def test_next_tuple_match(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        found, side = store.lookup(100, "gossamer")
        assert found.tag_label == "t0" and side == MATCH_NEXT

    def test_old_tuple_match(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        found, side = store.lookup(50, "gossamer")
        assert found.tag_label == "t0" and side == MATCH_OLD

    def test_not_found(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        assert store.lookup(12345, "gossamer") is None

    def test_variant_filter(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50, variant="sasi"))
        assert store.lookup(100, "gossamer") is None

    def test_next_preferred_over_old_across_rows(self):
        store = Store()
        store.add(row("a", ids=1000, ids_old=77))
        store.add(row("b", ids=77, ids_old=2000))
        found, side = store.lookup(77, "gossamer")
        assert found.tag_label == "b" and side == MATCH_NEXT

    def test_collision_resolves_to_first_label_with_warning(self, caplog):
        store = Store()
        store.add(row("zz", ids=77, ids_old=1))
        store.add(row("aa", ids=77, ids_old=2))
        with caplog.at_level("WARNING"):
            found, side = store.lookup(77, "gossamer")
        assert found.tag_label == "aa" and side == MATCH_NEXT
        assert any("matches 2 rows" in message for message in caplog.messages)

    def test_duplicate_label_rejected(self):
        store = Store()
        store.add(row("t0", ids=1, ids_old=2))
        with pytest.raises(ValueError):
            store.add(row("t0", ids=3, ids_old=4))


def linear_lookup(store, ids, variant):
    """The documented rule as a plain scan: (hit or None, rows matched)."""
    next_hits, old_hits = [], []
    for label in sorted(store.rows):
        candidate = store.rows[label]
        if candidate.variant != variant:
            continue
        if candidate.ids == ids:
            next_hits.append(candidate)
        elif candidate.ids_old == ids:
            old_hits.append(candidate)
    matched = len(next_hits) + len(old_hits)
    if next_hits:
        return (next_hits[0], MATCH_NEXT), matched
    if old_hits:
        return (old_hits[0], MATCH_OLD), matched
    return None, matched


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


# A tiny IDS space makes cross-label collisions, and rows whose next IDS
# is another row's old IDS, common.
_ids = st.integers(min_value=0, max_value=5)
_adds = st.tuples(st.just("add"), st.sampled_from("abcde"),
                  st.sampled_from(["sasi", "gossamer"]), _ids,
                  st.one_of(st.none(), _ids))  # None: a fresh row, ids_old == ids
_commits = st.tuples(st.just("commit"), st.integers(min_value=0, max_value=9),
                     st.sampled_from([MATCH_NEXT, MATCH_OLD]), _ids)


def assert_index_rebuilds(store, live):
    """The IDS index equals one rebuilt from the rows: a key per live IDS, no
    empty list, each row once under each of its distinct IDS values."""
    assert set(store._by_ids) == live
    for ids, held in store._by_ids.items():
        expected = [r for r in store.rows.values() if ids in (r.ids, r.ids_old)]
        assert held
        assert sorted(map(id, held)) == sorted(map(id, expected))


class TestIndexAgainstLinearScan:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_adds, _commits), max_size=25))
    def test_lookup_matches_linear_scan_after_every_step(self, steps):
        store = Store()
        records = _Records()
        logger = logging.getLogger("tagauth.store")
        logger.addHandler(records)
        try:
            for step in steps:
                if step[0] == "add":
                    _, label, variant, ids, ids_old = step
                    if label in store.rows:
                        continue
                    store.add(row(label, ids=ids,
                                  ids_old=ids if ids_old is None else ids_old,
                                  variant=variant))
                else:
                    _, pick, side, staged_ids = step
                    if not store.rows:
                        continue
                    label = sorted(store.rows)[pick % len(store.rows)]
                    store.commit(label, (staged_ids, 7, 8), side)
                live = {r.ids for r in store.rows.values()} | \
                       {r.ids_old for r in store.rows.values()}
                assert_index_rebuilds(store, live)
                for ids in sorted(live | {6, 99}):
                    for variant in ("sasi", "gossamer"):
                        expected, matched = linear_lookup(store, ids, variant)
                        records.messages.clear()
                        found = store.lookup(ids, variant)
                        if expected is None:
                            assert found is None
                        else:
                            assert found[0] is expected[0] and found[1] == expected[1]
                        warned = ([f"IDS {to_hex(ids)} matches {matched} rows; "
                                   "using first by label"] if matched > 1 else [])
                        assert records.messages == warned
        finally:
            logger.removeHandler(records)


class TestCommit:
    def test_next_side_commit_moves_next_to_old(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        store.commit("t0", (200, 201, 202), MATCH_NEXT)
        committed = store.rows["t0"]
        assert (committed.ids, committed.k1, committed.k2) == (200, 201, 202)
        assert (committed.ids_old, committed.k1_old, committed.k2_old) == (100, 2, 3)

    def test_old_side_commit_keeps_old(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        store.commit("t0", (300, 301, 302), MATCH_OLD)
        committed = store.rows["t0"]
        assert (committed.ids, committed.k1, committed.k2) == (300, 301, 302)
        assert (committed.ids_old, committed.k1_old, committed.k2_old) == (50, 4, 5)

    def test_commit_then_lookup_by_new_ids(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        store.commit("t0", (200, 201, 202), MATCH_NEXT)
        assert store.lookup(200, "gossamer")[1] == MATCH_NEXT
        assert store.lookup(100, "gossamer")[1] == MATCH_OLD

    def test_id_is_immutable_across_commits(self):
        store = Store()
        store.add(row("t0", ids=100, ids_old=50))
        store.commit("t0", (200, 201, 202), MATCH_NEXT)
        assert store.rows["t0"].id == 1


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        _, store = provision(3, Protocol.GOSSAMER, seed=11)
        path = tmp_path / "db.json"
        store.save(path)
        loaded = Store.load(path)
        assert [r.__dict__ for r in loaded.rows.values()] == \
               [r.__dict__ for r in store.rows.values()]

    def test_save_twice_identical_bytes(self, tmp_path):
        _, store = provision(2, Protocol.SASI, seed=12)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        store.save(a)
        store.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_format_tag_and_hex_fields(self, tmp_path):
        _, store = provision(1, Protocol.GOSSAMER, seed=13)
        path = tmp_path / "db.json"
        store.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "rfid-tagstore/1"
        entry = payload["rows"][0]
        assert set(entry) == {"tag_label", "variant", "id", "ids", "k1", "k2",
                              "ids_old", "k1_old", "k2_old"}
        assert len(entry["ids"]) == 24 and entry["ids"] == entry["ids"].lower()

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else", "rows": []}')
        with pytest.raises(ValueError, match="bogus.json"):
            Store.load(path)

    def test_load_missing_file_names_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Store.load(tmp_path / "absent.json")

    def test_no_tmp_file_left_behind(self, tmp_path):
        _, store = provision(1, Protocol.GOSSAMER, seed=14)
        store.save(tmp_path / "db.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["db.json"]

    def test_restart_between_sessions_still_authenticates(self, tmp_path):
        tags, store = provision(1, Protocol.GOSSAMER, seed=15)
        tag = tags["tag-000"]
        rng = NonceStream(16)
        transcript, _ = run_session(tag, store, Forcing(), rng, 0)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS

        store.save(tmp_path / "db.json")
        save_tags(tags, tmp_path / "db.json.tags")
        del store, tags, tag  # "process restart"

        store = Store.load(tmp_path / "db.json")
        tags = load_tags(tmp_path / "db.json.tags")
        transcript, truth = run_session(tags["tag-000"], store, Forcing(),
                                        NonceStream(17), 1)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.tag_post == truth.reader_post


# text with what JSON must escape or may mangle: quotes, backslashes,
# braces, separators, newlines, control characters and non-ASCII
json_text = st.text(st.sampled_from('"\\{}[],: \n\r\t\x00\x1f\x7fé€😀') | st.characters(),
                    max_size=12)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | json_text
records = st.dictionaries(json_text, json_scalars, max_size=9)
envelope_fields = st.dictionaries(
    json_text.filter(lambda key: key not in ("path", "format_name", "format")),
    st.lists(records, max_size=5) | json_scalars
    | st.dictionaries(json_text, json_scalars | st.lists(json_scalars, max_size=3)),
    max_size=4)
_, COMMANDS = _build_parser()


@st.composite
def manifests(draw):
    """A manifest payload: a subcommand and values for some of its options."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    dests = sorted({action.dest for action in COMMANDS[name]._actions} - {"help"})
    return {"subcommand": name,
            "args": draw(st.dictionaries(st.sampled_from(dests), json_scalars))}


class TestEnvelopeWriter:
    """``save_envelope`` writes what ``json.dump(..., indent=2)`` + newline wrote."""

    @given(format_name=json_text, fields=envelope_fields)
    @settings(max_examples=150)
    def test_bytes_equal_indent_2_dump(self, tmp_path_factory, format_name, fields):
        path = tmp_path_factory.getbasetemp() / "envelope.json"
        save_envelope(path, format_name, **fields)
        expected = json.dumps({"format": format_name, **fields}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @given(manifest=manifests())
    def test_manifest_bytes_equal_indent_2_dump(self, tmp_path_factory, manifest):
        path = tmp_path_factory.getbasetemp() / "m.manifest.json"
        save_envelope(path, MANIFEST_FORMAT, **manifest)
        expected = json.dumps({"format": MANIFEST_FORMAT, **manifest}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("rows", [
        [{"a": "y"}, {"b": object()}],  # a value JSON cannot encode
        [{"a": "y"}, "not a record"],
    ])
    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path, rows):
        path = tmp_path / "f.json"
        save_envelope(path, "f", rows=[{"a": "x"}])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_envelope(path, "f", rows=rows)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.json"]


WORDS = ("id",) + TUPLE_WORDS
words = st.sampled_from([0, MASK]) | st.integers(0, MASK)
labels = st.from_regex(r"tag-[0-9a-z]{1,4}", fullmatch=True) | json_text


@st.composite
def fleets(draw):
    """0-4 tags and their store rows, every variant, words 0, MASK or random."""
    tags, store = {}, Store()
    for label in draw(st.lists(labels, max_size=4, unique=True)):
        protocol = draw(st.sampled_from(list(Protocol)))
        tags[label] = SimTag(label, protocol, TagState(
            *draw(st.lists(words, min_size=7, max_size=7)),
            last_announced=draw(st.sampled_from([NEXT, OLD]))))
        store.add(TagRecordRow(label, protocol.value, *draw(st.lists(words, min_size=7,
                                                                     max_size=7))))
    return tags, store


def entry(fields: dict) -> dict:
    """A store row's or tag state's fields with each word in hex, as the files hold them."""
    return {key: to_hex(value) if key in WORDS else value for key, value in fields.items()}


def both_paths(load, path):
    """``load(path)`` as it is and with the regex reader off: each a value or an error."""
    outcomes = []
    for canonical in (RecordList._canonical, lambda self, text: None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(RecordList, "_canonical", canonical)
            try:
                outcomes.append(load(path))
            except ValueError as exc:
                outcomes.append(str(exc))
    return outcomes


class TestRecordFiles:
    """Store and tag files: the writers' bytes, and the regex reader of a file
    in their exact layout against the json.loads reader of any other."""

    @given(fleet=fleets())
    @settings(max_examples=150)
    def test_bytes_and_both_readers(self, tmp_path_factory, fleet):
        tags, store = fleet
        base = tmp_path_factory.getbasetemp()
        store_path, tags_path = base / "db.json", base / "db.json.tags"
        store.save(store_path)
        save_tags(tags, tags_path)
        assert store_path.read_bytes() == (json.dumps({"format": STORE_FORMAT, "rows": [
            entry(vars(store.rows[label])) for label in sorted(store.rows)]},
            indent=2) + "\n").encode()
        assert tags_path.read_bytes() == (json.dumps({"format": TAGS_FORMAT, "tags": [
            entry({"tag_label": label, "variant": tags[label].protocol.value,
                   **vars(tags[label].state)}) for label in sorted(tags)]},
            indent=2) + "\n").encode()
        # with a record and no text to escape, the files are read without json.loads
        plain = bool(tags) and all(json.dumps(label) == f'"{label}"' for label in tags)
        loaded = []

        def json_loads(text):
            if plain:
                raise AssertionError("json_loads called on a canonical file")
            loaded.append(text)
            return json.loads(text)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(store_module, "json_loads", json_loads)
            assert Store.load(store_path).rows == store.rows
            assert load_tags(tags_path) == tags
        assert len(loaded) == (0 if plain else 2)
        for path in (store_path, tags_path):
            path.write_text(json.dumps(json.loads(path.read_text()), indent=4))
        assert Store.load(store_path).rows == store.rows
        assert load_tags(tags_path) == tags

    @pytest.mark.parametrize("edit", [
        lambda text: text + "x",  # trailing bytes
        lambda text: text + "\n  ",  # trailing whitespace, which JSON allows
        lambda text: text[:-len("\n  ]\n}\n")],  # no tail
        lambda text: text[:-2],  # tail cut short
        lambda text: text.replace("\n  ]", "\n  ,]"),
        lambda text: "\ufeff" + text,  # a byte-order mark
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\n  "),  # indented one more level
        lambda text: text.replace('"tag-001"', '"tag-\\u0030\\u00301"'),  # an escape
        lambda text: text.replace('"variant"', '"colour": "red",\n      "variant"', 1),
        lambda text: text.replace('"k1": ', '"k1":', 1),
        lambda text: re.sub('"id": "[0-9a-f]', '"id": "A', text, count=1),
        lambda text: text.replace("},\n    {", "}, {", 1),
        lambda text: text.replace(",\n    {", ",\n    {},\n    {", 1),
    ], ids=["trailing-x", "trailing-space", "no-tail", "short-tail", "trailing-comma",
            "bom", "crlf", "indent", "escape", "extra-key", "spacing", "uppercase",
            "joined-records", "empty-record"])
    @pytest.mark.parametrize("name", ["db.json", "db.json.tags"])
    def test_other_layouts_read_as_json_reads_them(self, tmp_path, name, edit):
        tags, store = provision(3, Protocol.GOSSAMER, seed=21)
        store.save(tmp_path / "db.json")
        save_tags(tags, tmp_path / "db.json.tags")
        path = tmp_path / name
        path.write_text(edit(path.read_text()), newline="")
        fast, slow = both_paths(
            (lambda path: Store.load(path).rows) if name == "db.json" else load_tags, path)
        assert fast == slow


# -- the json.loads reader's errors, field by field -----------------------------

WORD_TEXT = "0123456789abcdef01234567"
SNAPSHOT = dict.fromkeys(TUPLE_WORDS, WORD_TEXT)
RECORDS = {  # one valid record of each kind, as json.loads gives it
    "transcript": {"variant": "gossamer", "session": 7, "ids": WORD_TEXT, "a": WORD_TEXT,
                   "b": WORD_TEXT, "c": WORD_TEXT, "d": WORD_TEXT,
                   "outcome": "mutual_success", "bits": 520},
    "ground truth": {"session": 7, "id": WORD_TEXT, **dict.fromkeys(
        ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star"), WORD_TEXT), **dict.fromkeys(
        ("tag_pre", "tag_post", "reader_pre", "reader_post"), SNAPSHOT)},
    "store row": {"tag_label": "tag-000", "variant": "gossamer",
                  **dict.fromkeys(WORDS, WORD_TEXT)},
    "tag entry": {"tag_label": "tag-000", "variant": "gossamer",
                  **dict.fromkeys(WORDS, WORD_TEXT), "last_announced": "next"},
}
DAMAGES = ("drop", "null", "int", "true", "string", "list")
DROP = object()


def damaged(value, damage):
    """``value`` damaged one way; "string" is a non-canonical text of it."""
    return {"drop": DROP, "null": None, "int": 7, "true": True, "list": [],
            "string": json.dumps(value) if type(value) is dict else str(value).upper()}[damage]


# The error a field ``key`` holding ``value`` gives: its type and its message,
# formatted with ``key``, ``value`` and ``name`` (the key within its record).
# None: the record reads.
MISSING = KeyError, "{name!r}"
NOT_WORD = ValueError, "{key}: not a canonical 96-bit hex word: {value!r}"
NOT_STR = TypeError, "{key} is not str"
NOT_INT = TypeError, "{key} is not int"
NOT_OBJECT = TypeError, "{key} is not an object"
NOT_OUTCOME = ValueError, "{value!r} is not a valid Outcome"
NOT_PROTOCOL = ValueError, "{value!r} is not a valid Protocol"
NOT_SIDE = ValueError, "last_announced is not 'next' or 'old'"
NO_TAG_STATE = ValueError, "{key}: null, but the tag always has a state"
ABC_NULL = (ValueError,
            "{key}: null; a, b and c are all words, or all null with outcome lookup_failed")
D_NULL = ValueError, "d: null, but outcome is mutual_success"

# One column per damage, in DAMAGES order
WORD_ERRORS = (MISSING, *[NOT_WORD] * 5)
WORD_OR_NULL_ERRORS = (MISSING, None, *[NOT_WORD] * 4)
STR_ERRORS = (MISSING, NOT_STR, NOT_STR, NOT_STR, None, NOT_STR)
INT_ERRORS = (MISSING, NOT_INT, None, NOT_INT, NOT_INT, NOT_INT)
FIELD_ERRORS = {
    "transcript": [
        ("variant", STR_ERRORS), ("session", INT_ERRORS), ("ids", WORD_ERRORS),
        *[(key, (MISSING, ABC_NULL, *[NOT_WORD] * 4)) for key in "abc"],
        ("d", (MISSING, D_NULL, *[NOT_WORD] * 4)),
        ("outcome", (*STR_ERRORS[:4], NOT_OUTCOME, NOT_STR)), ("bits", INT_ERRORS)],
    "ground truth": [
        ("session", INT_ERRORS), ("id", WORD_ERRORS),
        *[(key, WORD_OR_NULL_ERRORS)
          for key in ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")],
        *[(key, (MISSING, NO_TAG_STATE, *[NOT_OBJECT] * 4)) for key in ("tag_pre", "tag_post")],
        *[(key, (MISSING, None, *[NOT_OBJECT] * 4)) for key in ("reader_pre", "reader_post")],
        ("tag_pre.k1", WORD_ERRORS)],
    "store row": [
        ("tag_label", STR_ERRORS), ("variant", STR_ERRORS),
        *[(key, WORD_ERRORS) for key in WORDS]],
    "tag entry": [
        ("tag_label", STR_ERRORS), ("variant", (*STR_ERRORS[:4], NOT_PROTOCOL, NOT_STR)),
        *[(key, WORD_ERRORS) for key in WORDS],
        ("last_announced", (*STR_ERRORS[:4], NOT_SIDE, NOT_STR))],
}
# One record of each kind with two bad fields: the error names the first in
# its table
TWO_FAULTS = {
    "transcript": ({"variant": 7, "a": 7}, NOT_STR, "variant"),
    "ground truth": ({"session": True, "id": 7}, NOT_INT, "session"),
    "store row": ({"tag_label": 7, "id": 7}, NOT_STR, "tag_label"),
    "tag entry": ({"tag_label": 7, "id": 7}, NOT_STR, "tag_label"),
}


def expected_error(error, key, value):
    return error and (error[0], error[1].format(key=key, value=value,
                                                name=key.rpartition(".")[2]))


def fallback_cases():
    for kind, fields in FIELD_ERRORS.items():
        for key, errors in fields:
            outer, _, inner = key.partition(".")
            good = RECORDS[kind][outer][inner] if inner else RECORDS[kind][key]
            for damage, error in zip(DAMAGES, errors):
                value = damaged(good, damage)
                yield pytest.param(kind, {key: value}, expected_error(error, key, value),
                                   id=f"{kind}-{key}-{damage}")
    for kind, (faults, error, key) in TWO_FAULTS.items():
        yield pytest.param(kind, faults, expected_error(error, key, faults[key]),
                           id=f"{kind}-two-faults")


def read_fallback(kind, record, tmp_path):
    """The (type, message) of the error the json.loads reader of ``kind`` gives
    for ``record``, or None when it reads; a file's error is unwrapped."""
    try:
        if kind == "transcript":
            transcript_from_dict(record)
        elif kind == "ground truth":
            ground_truth_from_dict(record)
        else:
            path = tmp_path / "f.json"  # one line: no canonical layout
            if kind == "store row":
                path.write_text(json.dumps({"format": STORE_FORMAT, "rows": [record]}))
                Store.load(path)
            else:
                path.write_text(json.dumps({"format": TAGS_FORMAT, "tags": [record]}))
                load_tags(path)
    except (KeyError, TypeError, ValueError) as exc:
        if type(exc) is not ValueError or "malformed" not in str(exc):
            return type(exc), str(exc)
        name, message = re.fullmatch(r".*: (?:row|tag) 0: malformed \((\w+): (.*)\)",
                                     str(exc), re.S).groups()
        return {error.__name__: error for error in (KeyError, TypeError, ValueError)}[name], \
            message
    return None


@pytest.mark.parametrize("kind, faults, expected", fallback_cases())
def test_fallback_errors(tmp_path, kind, faults, expected):
    """Every field of every record kind, damaged six ways, read through
    json.loads: the exact error, or the record reads."""
    record = json.loads(json.dumps(RECORDS[kind]))  # a deep copy
    for key, value in faults.items():
        outer, _, inner = key.partition(".")
        holder, key = (record[outer], inner) if inner else (record, key)
        if value is DROP:
            del holder[key]
        else:
            holder[key] = value
    assert read_fallback(kind, record, tmp_path) == expected


class TestSessionCommitDiscipline:
    def test_exactly_one_row_changes_per_session(self):
        tags, store = provision(3, Protocol.GOSSAMER, seed=18)
        before = {label: dict(r.__dict__) for label, r in store.rows.items()}
        transcript, _ = run_session(tags["tag-001"], store, Forcing(), NonceStream(19), 0)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        changed = [label for label, r in store.rows.items()
                   if dict(r.__dict__) != before[label]]
        assert changed == ["tag-001"]
        # and its old tuple is the tuple the session started from
        assert store.rows["tag-001"].ids_old == before["tag-001"]["ids"]
