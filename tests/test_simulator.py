"""Simulator: determinism, fault injection, recovery, replay, accounting."""

import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagauth import simulator
from tagauth.simulator import (
    CampaignConfig,
    Forcing,
    GroundTruth,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    StateSnapshot,
    Transcript,
    ground_truth_from_dict,
    ground_truth_from_line,
    ground_truth_line,
    ground_truth_to_dict,
    iter_campaign,
    provision,
    run_campaign,
    run_session,
    transcript_from_dict,
    transcript_from_line,
    transcript_line,
    transcript_to_dict,
)
from tagauth.store import Store
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

    def test_words_in_range(self):
        rng = NonceStream(3)
        assert all(0 <= rng.word() < (1 << 96) for _ in range(1000))

    def test_multiples_of_96(self):
        rng = NonceStream(4)
        for _ in range(1000):
            value = rng.multiple_of_96()
            assert value % 96 == 0 and 0 <= value < (1 << 96)

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
            result = run_campaign(tag, store, CampaignConfig(protocol, 30, seed=5))
            runs.append([transcript_to_dict(t) for t in result.transcripts])
        assert runs[0] == runs[1]

    def test_provision_deterministic(self):
        a = provision(3, Protocol.GOSSAMER, seed=6)
        b = provision(3, Protocol.GOSSAMER, seed=6)
        assert [r.__dict__ for r in a[1].rows.values()] == \
               [r.__dict__ for r in b[1].rows.values()]


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
        result = run_campaign(tag, store, CampaignConfig(Protocol.SASI, 100, seed=30,
                                                         drop_d_rate=0.3))
        assert sum(result.summary["outcomes"].values()) == 100
        assert result.summary["outcomes"].get("d_dropped", 0) > 0
        assert len(result.transcripts) == len(result.ground_truths) == 100

    def test_iter_campaign_is_lazy_and_equivalent(self):
        tag, store = one_tag_world(Protocol.SASI, seed=8)
        collected = [transcript_to_dict(t) for t, _ in
                     iter_campaign(tag, store, CampaignConfig(Protocol.SASI, 20, seed=9))]
        tag2, store2 = one_tag_world(Protocol.SASI, seed=8)
        result = run_campaign(tag2, store2, CampaignConfig(Protocol.SASI, 20, seed=9))
        assert collected == [transcript_to_dict(t) for t in result.transcripts]


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
    @given(truth=ground_truths)
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


class TestLineReaders:
    """``X_from_line`` reads what ``X_line`` writes without ``json.loads``, and
    any line to the record, or the error, ``X_from_dict(json.loads(line))`` gives."""

    @settings(max_examples=300)
    @given(t=any_transcripts())
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
    @given(truth=any_ground_truths)
    def test_ground_truth_from_line(self, truth):
        line = ground_truth_line(truth)
        with spy_json_loads() as loads:
            got = read(ground_truth_from_line, line)
        assert not loads.called
        assert got == read(ground_truth_from_dict, json.loads(line))
        if truth.tag_pre is None or truth.tag_post is None:
            assert got[0] is ValueError
        else:
            assert got == truth

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
            Protocol.GOSSAMER, 8, seed=3, key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.3))
        # a failed lookup (an empty store) nulls a, b, c, d and both reader snapshots
        failed = run_session(tag, Store(), Forcing(), NonceStream(1), 8)
        assert failed[0].outcome is Outcome.LOOKUP_FAILED
        for records, to_dict, from_line, from_dict in [
                ([*result.transcripts, failed[0]], transcript_to_dict,
                 transcript_from_line, transcript_from_dict),
                ([*result.ground_truths, failed[1]], ground_truth_to_dict,
                 ground_truth_from_line, ground_truth_from_dict)]:
            for record in records:
                line = rewrite(to_dict(record))
                with spy_json_loads() as loads:
                    got = read(from_line, line)
                assert loads.called
                assert got == read(from_dict, json.loads(line))

    def test_int_past_the_digit_limit(self):
        # canonical, but int() refuses it, as json.loads does
        tag, store = one_tag_world(Protocol.GOSSAMER)
        transcript, truth = run_session(tag, store, Forcing(), NonceStream(5), 7)
        for line, from_line, from_dict in [
                (transcript_line(transcript), transcript_from_line, transcript_from_dict),
                (ground_truth_line(truth), ground_truth_from_line, ground_truth_from_dict)]:
            line = line.replace('"session":7,', '"session":%s,' % ("7" * 5000))
            got = read(from_line, line)
            assert got[0] is ValueError and "limit" in got[1]
            assert got == read(lambda text: from_dict(json.loads(text)), line)
