"""Simulator: determinism, fault injection, recovery, replay, accounting."""

import json
import re
from dataclasses import asdict, replace
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tagauth import gossamer, simulator, word96
from tagauth.simulator import (
    CampaignConfig,
    Forcing,
    GroundTruth,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    ScoredTruth,
    StateSnapshot,
    Transcript,
    ground_truth_from_dict,
    ground_truth_line,
    ground_truth_to_dict,
    iter_campaign,
    provision,
    run_campaign,
    run_session,
    save_tags,
    scored_truth,
    scored_truth_from_line,
    transcript_from_dict,
    transcript_from_line,
    transcript_line,
    transcript_to_dict,
)
from tagauth.store import TUPLE_WORDS, Store
from tagauth.tagstate import DERIVED, TagState
from tagauth.word96 import MASK

ALL_PROTOCOLS = list(Protocol)


def one_tag_world(protocol, seed=1):
    tags, store = provision(1, protocol, seed=seed)
    return tags["tag-000"], store


class TestNonceStream:
    def test_same_seed_same_stream(self):
        one, other = NonceStream(99), NonceStream(99)
        first = [one.word() for _ in range(50)]
        second = [other.word() for _ in range(50)]
        assert first == second
        assert len(set(first)) == 50  # and the stream actually moves

    def test_negative_seed_is_an_error(self):
        # random.Random would seed from abs(-7), replaying the stream of 7
        with pytest.raises(ValueError, match="seed must be at least 0, not -7"):
            NonceStream(-7)
        with pytest.raises(ValueError, match="not -7"):
            provision(1, Protocol.SASI, -7)
        assert NonceStream(0).word() == NonceStream(0).word()

    def test_words_in_range(self):
        rng = NonceStream(3)
        assert all(0 <= rng.word() < (1 << 96) for _ in range(1000))

    def test_multiples_of_96(self):
        rng = NonceStream(4)
        for _ in range(1000):
            value = rng.multiple_of_96()
            assert value % 96 == 0 and 0 <= value < (1 << 96)

    def test_state_copy_resumes_the_stream(self):
        rng = NonceStream(5)
        rng.word()
        copy = NonceStream(0)
        copy.setstate(rng.getstate())
        ahead = [copy.word(), copy.multiple_of_96(), copy.chance(0.5), copy.word()]
        assert [rng.word(), rng.multiple_of_96(), rng.chance(0.5), rng.word()] == ahead

    def test_residue_coverage(self):
        # 10^5 draws per run here; the acceptance suite does the 10^6 version
        rng = NonceStream(0)
        counts = [0] * 96
        n = 100_000
        for _ in range(n):
            counts[rng.word() % 96] += 1
        expected = n / 96
        sigma = (n * (1 / 96) * (95 / 96)) ** 0.5
        assert all(abs(count - expected) <= 4 * sigma for count in counts)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestFaultFreeSessions:
    def test_mutual_success_and_state_agreement(self, protocol):
        tag, store = one_tag_world(protocol)
        rng = NonceStream(10)
        for index in range(10):
            transcript, truth = run_session(tag, store, Forcing(), rng, index)
            assert transcript.outcome is Outcome.MUTUAL_SUCCESS
            assert truth.tag_post == truth.reader_post
            assert transcript.bit_cost == 520

    def test_post_tuple_differs_from_pre(self, protocol):
        tag, store = one_tag_world(protocol)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(11))
        assert (truth.tag_post.ids, truth.tag_post.k1, truth.tag_post.k2) != (
            truth.tag_pre.ids, truth.tag_pre.k1, truth.tag_pre.k2)
        assert (truth.tag_post.ids_old, truth.tag_post.k1_old,
                truth.tag_post.k2_old) == (truth.tag_pre.ids,
                                           truth.tag_pre.k1, truth.tag_pre.k2)

    def test_consecutive_announcements_differ(self, protocol):
        tag, store = one_tag_world(protocol)
        rng = NonceStream(12)
        first, _ = run_session(tag, store, Forcing(), rng, 0)
        second, _ = run_session(tag, store, Forcing(), rng, 1)
        assert first.announced_ids != second.announced_ids


class TestDeterminism:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_same_seed_same_campaign(self, protocol):
        runs = []
        for _ in range(2):
            tag, store = one_tag_world(protocol, seed=7)
            result = run_campaign(tag, store, CampaignConfig(30, seed=5))
            runs.append([transcript_to_dict(t) for t in result.transcripts])
        assert runs[0] == runs[1]

    def test_provision_deterministic(self):
        a = provision(3, Protocol.GOSSAMER, seed=6)
        b = provision(3, Protocol.GOSSAMER, seed=6)
        assert [asdict(r) for r in a[1].rows.values()] == \
               [asdict(r) for r in b[1].rows.values()]


class TestDropDRecovery:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_drop_then_old_ids_retry_resyncs(self, protocol):
        tag, store = one_tag_world(protocol)
        rng = NonceStream(13)
        dropped, truth = run_session(tag, store, Forcing(drop_d=True), rng, 0)
        assert dropped.outcome is Outcome.D_DROPPED
        assert dropped.d is None and dropped.bit_cost == 424
        # tag moved on, reader did not
        assert truth.tag_post != truth.tag_pre
        assert truth.reader_post == truth.reader_pre
        recovered, truth2 = run_session(tag, store, Forcing(), rng, 1)
        assert recovered.outcome is Outcome.MUTUAL_SUCCESS
        assert recovered.announced_ids == dropped.announced_ids  # old-IDS retry
        assert truth2.tag_post == truth2.reader_post

    def test_two_consecutive_drops_still_recover(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        rng = NonceStream(14)
        first, _ = run_session(tag, store, Forcing(drop_d=True), rng, 0)
        second, _ = run_session(tag, store, Forcing(drop_d=True), rng, 1)
        assert second.outcome is Outcome.D_DROPPED
        final, truth = run_session(tag, store, Forcing(), rng, 2)
        assert final.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.tag_post == truth.reader_post


class TestReplays:
    def test_replayed_d_is_rejected(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        rng = NonceStream(15)
        captured, _ = run_session(tag, store, Forcing(), rng, 0)
        replayed, truth = run_session(tag, store, Forcing(replay_d=captured), rng, 1)
        assert replayed.outcome is Outcome.TAG_REJECTED
        assert truth.tag_post == truth.tag_pre
        assert truth.reader_post == truth.reader_pre

    def test_replayed_challenge_changes_no_secret_state(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        rng = NonceStream(16)
        captured, _ = run_session(tag, store, Forcing(), rng, 0)
        replayed, truth = run_session(tag, store, Forcing(replay_abc=captured), rng, 1)
        assert replayed.outcome is Outcome.D_DROPPED
        assert truth.tag_post == truth.tag_pre
        assert replayed.d == captured.d  # nothing new disclosed

    def test_replayed_challenge_on_fresh_tuple_is_refused(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        rng = NonceStream(17)
        captured, _ = run_session(tag, store, Forcing(), rng, 0)
        run_session(tag, store, Forcing(), rng, 1)
        run_session(tag, store, Forcing(), rng, 2)
        # captured tuple is two updates stale; neither tag tuple matches
        replayed, truth = run_session(tag, store, Forcing(replay_abc=captured), rng, 3)
        assert replayed.outcome is Outcome.READER_REJECTED
        assert truth.tag_post == truth.tag_pre


    @pytest.mark.parametrize("mode, message", [
        ("replay_abc", "has no A||B||C"),
        ("replay_d", "has no D"),
    ])
    def test_replaying_a_message_that_never_crossed_the_air(self, mode, message):
        # refused before the forced keys are written or any nonce is drawn
        tag, store = one_tag_world(Protocol.GOSSAMER)
        rng = NonceStream(18)
        dropped, _ = run_session(tag, store, Forcing(drop_d=True), rng, 0)
        assert dropped.d is None and dropped.a is not None
        captured = replace(dropped, a=None, b=None, c=None) if mode == "replay_abc" else dropped
        before = repr(tag.state), repr(store.rows), rng.getstate()
        with pytest.raises(ValueError, match=re.escape(message)):
            run_session(tag, store, Forcing(key_mode=KeyMode.EXACT_ZERO, **{mode: captured}),
                        rng, 1)
        assert (repr(tag.state), repr(store.rows), rng.getstate()) == before

class TestLookupFailure:
    def test_unregistered_tag_surfaces_as_outcome(self):
        tag, _ = one_tag_world(Protocol.GOSSAMER, seed=21)
        _, store = provision(1, Protocol.GOSSAMER, seed=22)  # different world
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(1), 0)
        assert transcript.outcome is Outcome.LOOKUP_FAILED
        assert transcript.a is None and transcript.d is None
        assert transcript.bit_cost == 136
        assert truth.tag_post == truth.tag_pre

    def test_variant_mismatch_is_not_found(self):
        tag, _ = one_tag_world(Protocol.GOSSAMER, seed=23)
        _, store = provision(1, Protocol.GOSSAMER_MOD, seed=23)  # same words, other protocol
        transcript, _ = run_session(tag, store, Forcing(), NonceStream(2), 0)
        assert transcript.outcome is Outcome.LOOKUP_FAILED


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestSnapshotSharing:
    """A reader snapshot is the tag's own object where the store row holds
    exactly the tag's six tuple words, and its own snapshot elsewhere."""

    def test_synchronized_session_shares_both_snapshots(self, protocol):
        tag, store = one_tag_world(protocol)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(40), 0)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.reader_pre is truth.tag_pre
        assert truth.reader_post is truth.tag_post

    def test_a_row_one_word_off_gets_its_own_snapshot(self, protocol):
        # the session runs on the next tuple, so only the pre snapshots differ
        tag, store = one_tag_world(protocol)
        store.rows[tag.label].k2_old ^= 1
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(44), 0)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.reader_pre is not truth.tag_pre
        assert truth.reader_pre == replace(truth.tag_pre, k2_old=truth.tag_pre.k2_old ^ 1)
        assert truth.reader_post is truth.tag_post

    def test_dropped_d_leaves_the_reader_behind(self, protocol):
        tag, store = one_tag_world(protocol)
        rng = NonceStream(41)
        transcript, truth = run_session(tag, store, Forcing(drop_d=True), rng, 0)
        assert transcript.outcome is Outcome.D_DROPPED
        assert truth.reader_pre is truth.tag_pre
        assert truth.reader_post != truth.tag_post
        # the old-side session after it starts apart and ends in step
        transcript, truth = run_session(tag, store, Forcing(), rng, 1)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.reader_pre != truth.tag_pre
        assert truth.reader_post is truth.tag_post

    def test_failed_lookup_has_no_reader_snapshots(self, protocol):
        tag, _ = one_tag_world(protocol)
        transcript, truth = run_session(tag, Store(), Forcing(), NonceStream(42), 0)
        assert transcript.outcome is Outcome.LOOKUP_FAILED
        assert truth.reader_pre is None and truth.reader_post is None

    def test_replayed_challenge_keeps_the_readers_words(self, protocol):
        tag, store = one_tag_world(protocol)
        rng = NonceStream(43)
        captured, _ = run_session(tag, store, Forcing(), rng, 0)
        row = store.rows[tag.label]
        words = [getattr(row, key) for key in TUPLE_WORDS]
        _, truth = run_session(tag, store, Forcing(replay_abc=captured), rng, 1)
        assert [getattr(row, key) for key in TUPLE_WORDS] == words
        assert StateSnapshot(*words) == truth.reader_pre == truth.reader_post


class TestForcing:
    def test_exact_zero_keys_visible_in_ground_truth(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        forcing = Forcing(key_mode=KeyMode.EXACT_ZERO)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(3), 0)
        transcript, truth = run_session(tag, store, forcing, NonceStream(3), 1)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.tag_pre.k1 == 0 and truth.tag_pre.k2 == 0

    def test_zero_mod_96_keys_and_nonces(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        forcing = Forcing(nonce_mode=NonceMode.ZERO_MOD_96, key_mode=KeyMode.ZERO_MOD_96)
        transcript, truth = run_session(tag, store, forcing, NonceStream(4), 0)
        assert transcript.outcome is Outcome.MUTUAL_SUCCESS
        assert truth.tag_pre.k1 % 96 == 0 and truth.tag_pre.k2 % 96 == 0
        assert truth.n1 % 96 == 0 and truth.n2 % 96 == 0
        assert truth.n1 != 0 or truth.n2 != 0  # forced residues, not forced zeros

    def test_exact_zero_nonces(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        _, truth = run_session(tag, store, Forcing(nonce_mode=NonceMode.EXACT_ZERO),
                               NonceStream(5), 0)
        assert truth.n1 == 0 and truth.n2 == 0


class TestCampaign:
    def test_summary_counts_outcomes(self):
        tag, store = one_tag_world(Protocol.SASI)
        result = run_campaign(tag, store, CampaignConfig(100, seed=30,
                                                         drop_d_rate=0.3))
        assert sum(result.summary["outcomes"].values()) == 100
        assert result.summary["outcomes"].get("d_dropped", 0) > 0
        assert len(result.transcripts) == len(result.ground_truths) == 100

    def test_iter_campaign_is_lazy_and_equivalent(self):
        tag, store = one_tag_world(Protocol.SASI, seed=8)
        collected = [transcript_to_dict(t) for t, _ in
                     iter_campaign(tag, store, CampaignConfig(20, seed=9))]
        tag2, store2 = one_tag_world(Protocol.SASI, seed=8)
        result = run_campaign(tag2, store2, CampaignConfig(20, seed=9))
        assert collected == [transcript_to_dict(t) for t in result.transcripts]


# campaign lengths on each side of one and two CHAIN_BLOCK boundaries
CHAIN_LENGTHS = (0, 1, 255, 256, 257, 700)


def count_mixbits(monkeypatch) -> list[bool]:
    """Whether each scalar MixBits call the Gossamer engine makes from now
    on finds its inputs in the installed table, in call order."""
    hits = []
    mix = gossamer.mixbits_original

    def counted(x, y):
        hits.append((x, y) in word96._table)
        return mix(x, y)

    monkeypatch.setattr(gossamer, "mixbits_original", counted)
    return hits


def campaign_bytes(tmp_path, config):
    """Every transcript and ground-truth line of an original-Gossamer
    campaign, then the store and tag files it leaves."""
    tag, store = one_tag_world(Protocol.GOSSAMER)
    lines = [transcript_line(t) + ground_truth_line(g)
             for t, g in iter_campaign(tag, store, config)]
    store.save(tmp_path / "db.json")
    save_tags({tag.label: tag}, tmp_path / "db.json.tags")
    return lines + [(tmp_path / name).read_text() for name in ("db.json", "db.json.tags")]


class TestChainTable:
    """An original-Gossamer campaign answers every scalar MixBits call of its
    honest sessions from its blocks' chain tables, and changes no byte.  The
    reader makes all of them: its tag answers from the reader's derivation."""

    @pytest.mark.parametrize("drop", (0.0, 0.2))
    @pytest.mark.parametrize("key_mode", list(KeyMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("nonce_mode", list(NonceMode), ids=lambda m: m.value)
    def test_same_bytes_and_every_call_hit(self, tmp_path, monkeypatch, nonce_mode,
                                           key_mode, drop):
        for sessions in CHAIN_LENGTHS:
            config = CampaignConfig(sessions, seed=sessions + 40,
                                    nonce_mode=nonce_mode, key_mode=key_mode,
                                    drop_d_rate=drop)
            with monkeypatch.context() as patch:
                hits = count_mixbits(patch)
                tabled = campaign_bytes(tmp_path, config)
            # three calls by the reader each session, and none by the tag
            assert hits == [True] * 3 * sessions, sessions
            assert word96._table == {}
            with monkeypatch.context() as patch:
                patch.setattr(simulator, "_chain_table", lambda *args: {})
                assert campaign_bytes(tmp_path, config) == tabled, sessions

    def test_interleaved_campaigns_match_sequential_ones(self, monkeypatch):
        configs = [CampaignConfig(300, seed=50, drop_d_rate=0.2),
                   CampaignConfig(270, seed=51,
                                  key_mode=KeyMode.ZERO_MOD_96)]
        seeds = (52, 53)
        sequential = []
        for seed, config in zip(seeds, configs):
            tag, store = one_tag_world(Protocol.GOSSAMER, seed)
            sequential.append([transcript_line(t) + ground_truth_line(g)
                               for t, g in iter_campaign(tag, store, config)])
        hits = count_mixbits(monkeypatch)
        runs = [iter_campaign(*one_tag_world(Protocol.GOSSAMER, seed), config)
                for seed, config in zip(seeds, configs)]
        interleaved = [[], []]
        for steps in zip_longest(*runs):  # one session of each in turn
            for side, step in enumerate(steps):
                if step is not None:
                    interleaved[side].append(transcript_line(step[0])
                                             + ground_truth_line(step[1]))
        assert interleaved == sequential
        # each session runs with its own campaign's table installed
        assert hits == [True] * 3 * (300 + 270)
        assert word96._table == {}

    def test_a_tag_that_peels_other_nonces_misses_the_table(self, monkeypatch):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        config = CampaignConfig(2, seed=6)
        transcript, truth = next(iter_campaign(tag, store, config))
        pre = truth.tag_pre
        hits = count_mixbits(monkeypatch)
        try:
            # the table of both sessions, as the campaign installs it
            word96.use_mixbits_table(simulator._chain_table(config, NonceStream(6), 2))
            for a, answered in ((transcript.a ^ 1, False), (transcript.a, True)):
                state = TagState(truth.id, pre.ids, pre.k1, pre.k2, pre.ids_old,
                                 pre.k1_old, pre.k2_old)
                d = gossamer.tag_respond(state, a, transcript.b, transcript.c,
                                         gossamer.Variant.ORIGINAL)
                # a flipped bit of A peels another n1: MixBits runs its rounds,
                # and the rebuilt C refuses the challenge
                assert (d == transcript.d) if answered else (d is None)
                assert hits and all(hit is answered for hit in hits)
                hits.clear()
        finally:
            word96.use_mixbits_table({})

    def test_closing_a_campaign_clears_the_table(self):
        # each session's table is cleared before the session is yielded
        tag, store = one_tag_world(Protocol.GOSSAMER)
        run = iter_campaign(tag, store, CampaignConfig(10, seed=5))
        for _ in range(3):
            next(run)
            assert word96._table == {}
        run.close()
        assert word96._table == {}

    def test_a_session_that_raises_clears_the_table(self, monkeypatch):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        installed = []

        def failing(*args, **kwargs):
            installed.append(word96._table)
            raise RuntimeError("the session failed")

        monkeypatch.setattr(simulator, "run_session", failing)
        run = iter_campaign(tag, store, CampaignConfig(10, seed=5))
        with pytest.raises(RuntimeError, match="the session failed"):
            next(run)
        # the block's table, secret nonces and all, was installed, and is no more
        assert len(installed) == 1 and installed[0]
        assert word96._table == {}


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestDerivedEntry:
    """The reader's derivation (``tagstate.DERIVED``) is installed for the
    tag's phase of a session with a reader and for nothing else, so no secret
    is held between sessions."""

    def spy(self, monkeypatch, protocol) -> list[dict]:
        """A copy of the entries installed at each of the tag's phases from now on."""
        module = simulator._ENGINES[protocol][1]
        respond, seen = module.tag_respond, []

        def spied(*args):
            seen.append(dict(DERIVED))
            return respond(*args)

        monkeypatch.setattr(module, "tag_respond", spied)
        return seen

    def test_no_outcome_leaves_an_entry(self, monkeypatch, protocol):
        tag, store = one_tag_world(protocol)
        seen = self.spy(monkeypatch, protocol)
        rng = NonceStream(19)
        captured, truth = run_session(tag, store, Forcing(), rng, 0)
        pre, extra = truth.reader_pre, simulator._ENGINES[protocol][2]
        # the tag's phase saw the reader's derivation, keyed by reader_begin's arguments
        assert seen == [{(pre.ids, pre.k1, pre.k2, truth.id, truth.n1, truth.n2, *extra): (
            captured.c, captured.d, (truth.reader_post.ids, truth.reader_post.k1,
                                     truth.reader_post.k2))}]
        outcomes = [captured.outcome]
        for forcing in (Forcing(replay_d=captured), Forcing(replay_abc=captured),
                        Forcing(drop_d=True), Forcing()):
            outcomes.append(run_session(tag, store, forcing, rng, len(outcomes))[0].outcome)
            assert DERIVED == {}
        tag.state.k1 ^= 1  # off its row: the tag refuses the reader
        outcomes.append(run_session(tag, store, Forcing(), rng, len(outcomes))[0].outcome)
        assert DERIVED == {}
        outcomes.append(run_session(tag, Store(), Forcing(), rng, len(outcomes))[0].outcome)
        assert DERIVED == {}
        assert outcomes == [Outcome.MUTUAL_SUCCESS, Outcome.TAG_REJECTED, Outcome.D_DROPPED,
                            Outcome.D_DROPPED, Outcome.MUTUAL_SUCCESS, Outcome.READER_REJECTED,
                            Outcome.LOOKUP_FAILED]
        # one entry for each tag that answered a reader; none for the replayed
        # challenge, which has no reader (a replayed D has no tag)
        assert [len(entry) for entry in seen] == [1, 0, 1, 1, 1]

    def test_a_tag_phase_that_raises_leaves_no_entry(self, monkeypatch, protocol):
        tag, store = one_tag_world(protocol)

        def failing(*args):
            assert len(DERIVED) == 1
            raise RuntimeError("the tag failed")

        monkeypatch.setattr(simulator._ENGINES[protocol][1], "tag_respond", failing)
        with pytest.raises(RuntimeError, match="the tag failed"):
            run_session(tag, store, Forcing(), NonceStream(20), 0)
        assert DERIVED == {}

    def test_closing_a_campaign_leaves_no_entry(self, monkeypatch, protocol):
        tag, store = one_tag_world(protocol)
        seen = self.spy(monkeypatch, protocol)
        run = iter_campaign(tag, store, CampaignConfig(10, seed=5, drop_d_rate=0.3))
        for _ in range(3):
            next(run)
            assert DERIVED == {}
        run.close()
        assert DERIVED == {} and [len(entry) for entry in seen] == [1, 1, 1]


class TestSerialization:
    def test_transcript_round_trip(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(40), 7)
        data = transcript_to_dict(transcript)
        assert set(data) == {"variant", "session", "ids", "a", "b", "c", "d",
                             "outcome", "bits"}
        assert transcript_from_dict(data) == transcript

    def test_ground_truth_round_trip(self):
        tag, store = one_tag_world(Protocol.GOSSAMER)
        _, truth = run_session(tag, store, Forcing(), NonceStream(41), 3)
        assert ground_truth_from_dict(ground_truth_to_dict(truth)) == truth

    def test_optional_words_and_snapshots_may_be_null(self):
        tag, _ = one_tag_world(Protocol.GOSSAMER, seed=21)
        # an empty store: the lookup fails and there is no reader row
        transcript, truth = run_session(tag, Store(), Forcing(), NonceStream(1), 0)
        data, gt = transcript_to_dict(transcript), ground_truth_to_dict(truth)
        assert [data[key] for key in "abcd"] == [None] * 4
        assert gt["n1"] is gt["k2_star"] is gt["reader_pre"] is gt["reader_post"] is None
        assert transcript_from_dict(data) == transcript
        assert ground_truth_from_dict(gt) == truth

    def test_transcript_holds_no_secrets(self):
        # the eavesdropper's view: pseudonym, messages, outcome, size; nothing else
        tag, store = one_tag_world(Protocol.GOSSAMER)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(42), 0)
        public = transcript_to_dict(transcript)
        for secret in (truth.id, truth.n1, truth.n2, truth.k1_star,
                       truth.tag_pre.k1, truth.tag_pre.k2):
            assert f"{secret:024x}" not in public.values()


# -- line writers against json.dumps of the record's dict --------------------

words = st.sampled_from([0, MASK]) | st.integers(0, MASK)
optional_words = st.none() | words
counts = st.sampled_from([0, 2**63]) | st.integers(0, 2**63)
# protocol names, and text with what JSON must escape
variants = (st.sampled_from([p.value for p in Protocol])
            | st.text(st.sampled_from('"\\/\n\x00\x1f\x7fé€😀') | st.characters(),
                      max_size=8))
snapshots = st.builds(StateSnapshot, words, words, words, words, words, words)


@st.composite
def transcripts(draw):
    outcome = draw(st.sampled_from(Outcome))
    # a, b and c are all words, or all null in a failed lookup
    abc = (None,) * 3 if outcome is Outcome.LOOKUP_FAILED and draw(st.booleans()) \
        else draw(st.tuples(words, words, words))
    return Transcript(draw(variants), draw(counts), draw(words), *abc,
                      draw(optional_words), outcome, draw(counts))


ground_truths = st.builds(
    GroundTruth, counts, words, snapshots, snapshots,
    st.none() | snapshots, st.none() | snapshots,
    *[optional_words] * 7)
# no null: nine fields above may each be null, so a truth with none is rarely drawn
full_ground_truths = st.builds(GroundTruth, counts, words, *[snapshots] * 4, *[words] * 7)

# a record with no null and one with every null a writer allows, so that each
# writer's one-template line and its line built field by field run every time
SNAPSHOT = StateSnapshot(*range(1, 7))
FULL_TRANSCRIPT = Transcript("gossamer", 3, MASK, 1, 2, 3, 4, Outcome.MUTUAL_SUCCESS, 520)
NULL_TRANSCRIPT = Transcript("gossamer", 3, MASK, None, None, None, None,
                             Outcome.LOOKUP_FAILED, 136)
FULL_GROUND_TRUTH = GroundTruth(2**63, MASK, *[SNAPSHOT] * 4, *range(7))
NULL_GROUND_TRUTH = GroundTruth(0, 0, SNAPSHOT, SNAPSHOT, None, None, *[None] * 7)


def hex_or_null(word):
    return None if word is None else "%024x" % word


def snapshot_dict(s):
    return None if s is None else {
        "ids": hex_or_null(s.ids), "k1": hex_or_null(s.k1), "k2": hex_or_null(s.k2),
        "ids_old": hex_or_null(s.ids_old), "k1_old": hex_or_null(s.k1_old),
        "k2_old": hex_or_null(s.k2_old)}


class TestLineWriters:
    """Each JSONL line writer gives ``json.dumps(d, separators=(",", ":"))``
    plus a newline, for ``d`` the record's dict written out key by key in
    the README's order, with every word as 24 hex digits or null."""

    @settings(max_examples=300)
    @given(t=transcripts())
    @example(t=FULL_TRANSCRIPT)
    @example(t=NULL_TRANSCRIPT)
    def test_transcript_line(self, t):
        d = {"variant": t.variant, "session": t.session_index,
             "ids": hex_or_null(t.announced_ids), "a": hex_or_null(t.a),
             "b": hex_or_null(t.b), "c": hex_or_null(t.c), "d": hex_or_null(t.d),
             "outcome": t.outcome.value, "bits": t.bit_cost}
        assert transcript_line(t) == json.dumps(d, separators=(",", ":")) + "\n"
        assert transcript_to_dict(t) == d
        if t.d is not None or t.outcome is not Outcome.MUTUAL_SUCCESS:
            assert transcript_from_dict(d) == t

    @settings(max_examples=300)
    @given(truth=ground_truths | full_ground_truths)
    @example(truth=FULL_GROUND_TRUTH)
    @example(truth=NULL_GROUND_TRUTH)
    def test_ground_truth_line(self, truth):
        d = {"session": truth.session_index, "id": hex_or_null(truth.id),
             "n1": hex_or_null(truth.n1), "n2": hex_or_null(truth.n2),
             "n3": hex_or_null(truth.n3), "n1p": hex_or_null(truth.n1p),
             "n2p": hex_or_null(truth.n2p), "k1_star": hex_or_null(truth.k1_star),
             "k2_star": hex_or_null(truth.k2_star),
             "tag_pre": snapshot_dict(truth.tag_pre),
             "tag_post": snapshot_dict(truth.tag_post),
             "reader_pre": snapshot_dict(truth.reader_pre),
             "reader_post": snapshot_dict(truth.reader_post)}
        assert ground_truth_line(truth) == json.dumps(d, separators=(",", ":")) + "\n"
        assert ground_truth_to_dict(truth) == d
        assert ground_truth_from_dict(d) == truth


# -- line readers: the canonical-line regex against json.loads ----------------

signed_counts = st.sampled_from([-2**63, -1, 0, 2**63]) | st.integers(-2**63, 2**63)


@st.composite
def any_transcripts(draw):
    """Transcripts with every null pattern, those that contradict the outcome too."""
    return Transcript(draw(variants), draw(signed_counts), draw(words),
                      *[draw(optional_words) for _ in "abcd"],
                      draw(st.sampled_from(Outcome)), draw(signed_counts))


any_ground_truths = st.builds(
    GroundTruth, signed_counts, words, *[st.none() | snapshots] * 4,
    *[optional_words] * 7)
# no null, and a variant that JSON does not escape: lines that the readers'
# no-null paths take, which the strategies above seldom draw
full_transcripts = st.builds(
    Transcript, st.sampled_from([p.value for p in Protocol]) | st.text("abcdefgmosu-"),
    signed_counts, words, words, words, words, words, st.sampled_from(Outcome), signed_counts)


@st.composite
def synced_ground_truths(draw):
    """Truths with no null whose reader snapshots may each repeat the tag's,
    as they do in every synchronized session."""
    truth = draw(full_ground_truths)
    if draw(st.booleans()):
        truth.reader_pre = replace(truth.tag_pre)
    if draw(st.booleans()):
        truth.reader_post = replace(truth.tag_post)
    return truth


# four snapshots with a letter in every word's text
SNAPSHOTS = [StateSnapshot(*(0xfedcba9876543210fedcba98 - 16 * j - i for i in range(6)))
             for j in range(4)]


def internals_null_at(i):
    """Seven internals, 0 to 6, with the one at place ``i`` null."""
    return [*range(i), None, *range(i + 1, 7)]


def read(parse, text):
    """The record ``parse`` gives for ``text``, or its error's type and message."""
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def spy_json_loads():
    return mock.patch.object(simulator, "json_loads", wraps=simulator.json_loads)


def compact(d) -> str:
    return json.dumps(d, separators=(",", ":")) + "\n"


def scored_words(record):
    """What scoring reads of a ``GroundTruth`` or a ``ScoredTruth``, in one tuple."""
    return (record.session_index, record.id, record.next_ids, record.n1, record.n2,
            record.n3, record.n1p, record.n2p, record.k1_star, record.k2_star)


def read_scored_line(line):
    """The scored words of the ``ScoredTruth`` that ``scored_truth_from_line``
    gives for ``line``, or its error's type and message."""
    got = read(scored_truth_from_line, line)
    if isinstance(got, tuple):
        return got
    assert type(got) is ScoredTruth
    return scored_words(got)


def read_full(line):
    """The scored words of ``ground_truth_from_dict(json.loads(line))``, the
    full reader that ``scored_truth_from_line`` answers for, or its error."""
    got = read(lambda text: ground_truth_from_dict(json.loads(text)), line)
    return got if isinstance(got, tuple) else scored_words(got)


class TestLineReaders:
    """``transcript_from_line`` and ``scored_truth_from_line`` read what the
    line writers write without ``json.loads``, and any line to the record,
    or the error, ``X_from_dict(json.loads(line))`` gives: for ground truth,
    that record's scored words."""

    @settings(max_examples=300)
    @given(t=any_transcripts() | full_transcripts)
    @example(t=FULL_TRANSCRIPT)
    # d alone null, as in every session whose D was dropped
    @example(t=Transcript("gossamer", 3, MASK, 1, 2, 3, None, Outcome.D_DROPPED, 424))
    def test_transcript_from_line(self, t):
        line = transcript_line(t)
        with spy_json_loads() as loads:
            got = read(transcript_from_line, line)
        assert got == read(transcript_from_dict, json.loads(line))
        # a variant with a character JSON escapes is the one way off the regex
        assert loads.called == (json.dumps(t.variant) != f'"{t.variant}"')
        abc = {t.a is None, t.b is None, t.c is None}
        valid = (abc == {False} or abc == {True} and t.outcome is Outcome.LOOKUP_FAILED) \
            and not (t.d is None and t.outcome is Outcome.MUTUAL_SUCCESS)
        if valid:
            assert got == t
        else:
            assert got[0] is ValueError

    @settings(max_examples=300)
    @given(truth=any_ground_truths | synced_ground_truths())
    # no null, in each of the four ways the reader's snapshots can repeat the tag's
    @example(truth=GroundTruth(2**63, MASK, *SNAPSHOTS[:2], *SNAPSHOTS[:2], *range(7)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS[:3], SNAPSHOTS[1], *range(7)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS[:2], SNAPSHOTS[0], SNAPSHOTS[2], *range(7)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *range(7)))
    # one null internal, at each of the seven places
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(0)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(1)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(2)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(3)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(4)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(5)))
    @example(truth=GroundTruth(0, MASK, *SNAPSHOTS, *internals_null_at(6)))
    def test_scored_truth_from_line(self, truth):
        line = ground_truth_line(truth)
        full = simulator._GROUND_TRUTH_RE.fullmatch(line)
        if full is not None:
            # a reader snapshot that repeats the tag's matched it by back-reference
            assert [group is None for group in full.groups()[-2:]] == [
                truth.reader_pre == truth.tag_pre, truth.reader_post == truth.tag_post]
        with spy_json_loads() as loads:
            got = read_scored_line(line)
        assert not loads.called
        assert got == read_full(line)
        if truth.tag_pre is None or truth.tag_post is None:
            assert got[0] is ValueError
        else:
            assert got == scored_words(truth) == scored_words(scored_truth(truth))

    @pytest.mark.parametrize("key", ["reader_pre", "reader_post"])
    @pytest.mark.parametrize("word", TUPLE_WORDS)
    def test_reader_snapshot_one_digit_or_case_off_the_tags(self, key, word):
        # a synchronized session's line, whose reader snapshots repeat the tag's
        truth = GroundTruth(5, MASK, *SNAPSHOTS[:2], *SNAPSHOTS[:2], *range(7))
        d = json.loads(ground_truth_line(truth))
        text = d[key][word]
        # one hex digit changed: a canonical line, read to the reader's own words
        d[key][word] = text[:-1] + ("0" if text[-1] != "0" else "1")
        line = compact(d)
        with spy_json_loads() as loads:
            got = read_scored_line(line)
        assert not loads.called
        # the full reader takes the reader's own words, which scoring does not read
        assert read(ground_truth_from_dict, json.loads(line)) == replace(truth, **{
            key: replace(getattr(truth, key), **{word: int(d[key][word], 16)})})
        assert got == read_full(line) == scored_words(truth)
        # only the letter case changed: not canonical, so json.loads and its error
        d[key][word] = text.upper()
        line = compact(d)
        with spy_json_loads() as loads:
            got = read_scored_line(line)
        assert loads.called
        assert got == read_full(line) == (
            ValueError, f"{key}.{word}: not a canonical 96-bit hex word: {text.upper()!r}")

    @pytest.mark.parametrize("rewrite", [
        lambda d: json.dumps(d) + "\n",
        lambda d: json.dumps(d, indent=2),
        lambda d: compact(dict(reversed(d.items()))),
        lambda d: re.sub("[0-9a-f]{24}", lambda m: m.group().upper(), compact(d)),
        lambda d: compact({**d, "note": "x"}),
        lambda d: compact(d)[:-1] + "\r\n",
        lambda d: compact(d)[:-1] + "  \n",
    ], ids=["spaced", "indent", "reordered", "uppercase", "extra-key", "crlf",
            "trailing-spaces"])
    def test_non_canonical_lines_take_json_loads(self, rewrite):
        tag, store = one_tag_world(Protocol.GOSSAMER, seed=9)
        result = run_campaign(tag, store, CampaignConfig(
            8, seed=3, key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.3))
        # a failed lookup (an empty store) nulls a, b, c, d and both reader snapshots
        failed = run_session(tag, Store(), Forcing(), NonceStream(1), 8)
        assert failed[0].outcome is Outcome.LOOKUP_FAILED
        for record in [*result.transcripts, failed[0]]:
            line = rewrite(transcript_to_dict(record))
            with spy_json_loads() as loads:
                got = read(transcript_from_line, line)
            assert loads.called
            assert got == read(transcript_from_dict, json.loads(line))
        for record in [*result.ground_truths, failed[1]]:
            line = rewrite(ground_truth_to_dict(record))
            with spy_json_loads() as loads:
                got = read_scored_line(line)
            assert loads.called
            assert got == read_full(line)

    def test_int_past_the_digit_limit(self):
        # canonical, but int() refuses it, as json.loads does
        tag, store = one_tag_world(Protocol.GOSSAMER)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(5), 7)
        for line, from_line, full in [
                (transcript_line(transcript), lambda text: read(transcript_from_line, text),
                 lambda text: read(lambda line: transcript_from_dict(json.loads(line)), text)),
                (ground_truth_line(truth), read_scored_line, read_full)]:
            line = line.replace('"session":7,', '"session":%s,' % ("7" * 5000))
            got = from_line(line)
            assert got[0] is ValueError and "limit" in got[1]
            assert got == full(line)
