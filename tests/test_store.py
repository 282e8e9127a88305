"""Backend store: lookup by either tuple, commit semantics, persistence."""

import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagauth.simulator import (
    Forcing,
    NonceStream,
    Outcome,
    Protocol,
    load_tags,
    provision,
    run_session,
    save_tags,
)
from tagauth.store import MATCH_NEXT, MATCH_OLD, Store, TagRecordRow
from tagauth.word96 import to_hex


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
