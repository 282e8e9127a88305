"""Passive attacks: forced regimes fire exactly, unforced traffic stays quiet."""

import json
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tagauth import attacks, gossamer
from tagauth.simulator import (
    CampaignConfig,
    Forcing,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    ScoredTruth,
    consecutive_success_pairs,
    evaluate_attack,
    ground_truth_line,
    provision,
    run_campaign,
    run_session,
    scored_truth,
    scored_truth_from_line,
)
from tagauth.store import Store
from tagauth.word96 import MASK, PI, add, sub


def forced_campaign(protocol, sessions, seed, nonce_mode=NonceMode.RANDOM,
                    key_mode=KeyMode.AS_STORED):
    tags, store = provision(1, protocol, seed=seed)
    config = CampaignConfig(sessions, seed + 1,
                            nonce_mode=nonce_mode, key_mode=key_mode)
    return run_campaign(tags["tag-000"], store, config)


class TestGossamerAttack1:
    def test_zero_nonce_regime_fires_and_recovers_id(self):
        result = forced_campaign(Protocol.GOSSAMER, 40, 100,
                                 nonce_mode=NonceMode.EXACT_ZERO)
        pairs = list(consecutive_success_pairs(result.transcripts))
        assert len(pairs) == 39
        truth = {g.session_index: g for g in result.ground_truths}
        for first, second in pairs:
            verdict = attacks.gossamer_attack1(first, second)
            assert verdict.fired
            assert verdict.recovered_id == truth[first.session_index].id
        records, _ = evaluate_attack("gossamer-1", result.transcripts, result.ground_truths)
        assert len(records) == 39
        assert all(record["verdict"].ground_truth_match for record in records)

    def test_zero_state_closed_form_transcript(self):
        class T:  # minimal transcript stand-in: public fields only
            pass

        first, second = T(), T()
        first.announced_ids = 0
        first.c = 3 * PI & MASK
        first.d = 2 * PI & MASK
        second.announced_ids = 2 * PI & MASK
        verdict = attacks.gossamer_attack1(first, second)
        assert verdict.fired and verdict.recovered_id == 0

    def test_id_recoveries_agree_when_fired(self):
        # D-C+PI and D-IDS_next+IDS coincide exactly whenever the detector
        # condition C-PI = IDS_next-IDS holds
        rng = random.Random(8)
        for _ in range(200):
            c, d, ids = (rng.getrandbits(96) for _ in range(3))
            ids_next = add(ids, sub(c, PI))  # force the detector condition
            assert add(sub(d, c), PI) == add(sub(d, ids_next), ids)

    def test_unforced_traffic_does_not_fire(self):
        result = forced_campaign(Protocol.GOSSAMER, 60, 101)
        for first, second in consecutive_success_pairs(result.transcripts):
            assert not attacks.gossamer_attack1(first, second).fired


class TestGossamerAttack2:
    def test_zero_key_regime_full_disclosure(self):
        result = forced_campaign(Protocol.GOSSAMER, 40, 102,
                                 key_mode=KeyMode.EXACT_ZERO)
        pairs = list(consecutive_success_pairs(result.transcripts))
        truth = {g.session_index: g for g in result.ground_truths}
        for first, second in pairs:
            verdict = attacks.gossamer_attack2(first)
            g = truth[first.session_index]
            assert verdict.fired
            assert verdict.recovered_id == g.id
            rs = verdict.recovered_state
            assert (rs.n1, rs.n2, rs.n3, rs.n1p, rs.n2p) == (g.n1, g.n2, g.n3, g.n1p, g.n2p)
            assert (rs.k1_star, rs.k2_star) == (g.k1_star, g.k2_star)
            assert rs.next_ids == second.announced_ids  # prediction is verifiable on air
        records, _ = evaluate_attack("gossamer-2", result.transcripts, result.ground_truths)
        assert len(records) == len(pairs)
        assert all(record["verdict"].ground_truth_match for record in records)

    def test_conditional_match_rate_counts_only_scored_fired_trials(self):
        # ground truth for the first 5 of 20 sessions: the 14 fired trials
        # with none were never checked, so they do not count against the rate
        result = forced_campaign(Protocol.GOSSAMER, 20, 102, key_mode=KeyMode.EXACT_ZERO)
        _, summary = evaluate_attack("gossamer-2", result.transcripts,
                                     result.ground_truths[:5])
        assert (summary["trials"], summary["fired"], summary["scored"],
                summary["matched"]) == (19, 19, 5, 5)
        assert summary["match_rate"] == summary["conditional_match_rate"] == 1.0
        # scored trials but no fired one among them: no rate to give
        _, summary = evaluate_attack("gossamer-2", result.transcripts[:1] + [
            replace(t, c=t.c ^ 1) for t in result.transcripts[1:3]],
            result.ground_truths[1:2])
        assert (summary["trials"], summary["fired"], summary["scored"]) == (2, 1, 1)
        assert summary["conditional_match_rate"] is None

    def test_unforced_traffic_does_not_fire(self):
        result = forced_campaign(Protocol.GOSSAMER, 60, 103)
        for t in result.transcripts:
            assert not attacks.gossamer_attack2(t).fired

    def test_fires_without_d_and_recovers_no_id(self):
        # C confirms the zero-key hypothesis, so the state is recovered, but
        # only D carries the ID
        tags, store = provision(1, Protocol.GOSSAMER, seed=3)
        result = run_campaign(tags["tag-000"], store, CampaignConfig(
            40, 3, key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.3))
        dropped = [(t, g) for t, g in zip(result.transcripts, result.ground_truths)
                   if t.d is None]
        assert len(dropped) == 10
        for t, g in dropped:
            verdict = attacks.gossamer_attack2(t)
            assert verdict.fired and verdict.recovered_id is None
            rs = verdict.recovered_state
            assert (rs.n1, rs.n2, rs.n3, rs.n1p, rs.n2p) == (g.n1, g.n2, g.n3, g.n1p, g.n2p)
            assert (rs.k1_star, rs.k2_star) == (g.k1_star, g.k2_star)
            assert rs.next_ids == g.tag_post.ids


def test_a_transcript_with_no_challenge_fires_nothing():
    # an empty store fails the lookup, so no A||B||C (and no D) crosses the air
    tags, _ = provision(1, Protocol.GOSSAMER, seed=1)
    transcript, _ = run_session(tags["tag-000"], Store(), Forcing(), NonceStream(1), 0)
    assert transcript.outcome is Outcome.LOOKUP_FAILED and transcript.c is None
    assert attacks.sasi_residue_gap(transcript) is None
    quiet = attacks.AttackVerdict(False)
    assert attacks.sasi_attack(transcript, transcript) == quiet
    assert attacks.gossamer_attack1(transcript, transcript) == quiet
    assert attacks.gossamer_attack2(transcript) == quiet


def reference_attack2(transcript):
    # gossamer_attack2 written plainly from tests/oracles.py: the original
    # tag's own peel under K1 = K2 = 0, where each rotation is by 0, then
    # every session value from the oracle (one scalar call per MixBits), C
    # checked, and D inverted
    ids, mod = transcript.announced_ids, oracles.MOD
    n1 = (transcript.a - ids - oracles.PI) % mod
    n2 = (transcript.b - ids - oracles.PI) % mod
    ref = oracles.gossamer_session("original", 0, ids, 0, 0, n1, n2)
    if ref["c"] != transcript.c:
        return attacks.AttackVerdict(fired=False)
    recovered_id = None
    if transcript.d is not None:  # only D carries the ID
        step = oracles.rot_left((transcript.d - ref["n1p"]) % mod, -ref["n3"])
        step = oracles.rot_left((step - ref["k1s"] - ref["n1p"]) % mod, -n2)
        recovered_id = (step - n2 - ref["k2s"] - ref["n1p"]) % mod
    return attacks.AttackVerdict(
        fired=True, recovered_id=recovered_id,
        recovered_state=attacks.RecoveredSecrets(
            k1_star=ref["k1s"], k2_star=ref["k2s"], n1=n1, n2=n2, n3=ref["n3"],
            n1p=ref["n1p"], n2p=ref["n2p"], next_ids=ref["ids_next"]))


@pytest.mark.parametrize("protocol,key_mode,seed", [
    (Protocol.GOSSAMER, KeyMode.EXACT_ZERO, 40),
    (Protocol.GOSSAMER, KeyMode.AS_STORED, 41),
    (Protocol.GOSSAMER_MOD, KeyMode.EXACT_ZERO, 42),
    (Protocol.GOSSAMER_MOD, KeyMode.AS_STORED, 43),
])
def test_attack2_agrees_with_the_scalar_reference_on_both_variants(protocol, key_mode, seed):
    tags, store = provision(1, protocol, seed=seed)
    result = run_campaign(tags["tag-000"], store, CampaignConfig(
        60, seed, key_mode=key_mode, drop_d_rate=0.3))
    transcripts = [t for t in result.transcripts if t.c is not None]
    expected = [reference_attack2(t) for t in transcripts]
    alone = [attacks.gossamer_attack2(t) for t in transcripts]
    block = attacks.ZeroKeyBlock(transcripts)
    in_block = [attacks.gossamer_attack2(t, block, i) for i, t in enumerate(transcripts)]
    assert repr(alone) == repr(in_block) == repr(expected)
    kinds = {(v.fired, v.recovered_id is not None) for v in expected}
    if protocol is Protocol.GOSSAMER and key_mode is KeyMode.EXACT_ZERO:
        # every transcript fires; the ones whose D was dropped recover no ID
        assert kinds == {(True, True), (True, False)}
    else:
        assert kinds == {(False, False)}


def mixed_stream(sessions, drops):
    """A Gossamer tag's transcripts and ground truths over ``sessions`` sessions:
    every third one with its keys as stored, the rest forced to zero keys,
    and D dropped in the sessions ``drops``."""
    tags, store = provision(1, Protocol.GOSSAMER, seed=30)
    rng = NonceStream(31)
    results = [run_session(tags["tag-000"], store, Forcing(
        key_mode=KeyMode.AS_STORED if index % 3 == 0 else KeyMode.EXACT_ZERO,
        drop_d=index in drops), rng, index) for index in range(sessions)]
    return [t for t, _ in results], [g for _, g in results]


def log_lane_passes(monkeypatch):
    """The attacks' MixBits lane passes and trials in the order they run, as
    a list: ("pass", lanes) for each pass, and ("trial", fired) as each
    ``gossamer_attack2`` call returns."""
    log = []
    lanes, attack = gossamer.mixbits_original_lanes, attacks.gossamer_attack2

    def lane_pass(z, y, n):
        log.append(("pass", n))
        return lanes(z, y, n)

    def trial(transcript, block=None, i=0):
        verdict = attack(transcript, block, i)
        log.append(("trial", verdict.fired))
        return verdict

    monkeypatch.setattr(gossamer, "mixbits_original_lanes", lane_pass)
    monkeypatch.setattr(attacks, "gossamer_attack2", trial)
    return log


class TestGossamerAttack2Blocks:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           key_mode=st.sampled_from(list(KeyMode)))
    def test_agrees_with_the_scalar_reference(self, seed, key_mode):
        result = forced_campaign(Protocol.GOSSAMER, 6, seed, key_mode=key_mode)
        for t in result.transcripts:
            assert repr(attacks.gossamer_attack2(t)) == repr(reference_attack2(t))

    def test_long_stream_equals_a_per_transcript_loop(self, monkeypatch):
        # more than 512 trials, with drops and gaps: the drop in session 40
        # takes out two pairs, so trial 511 is the pair (513, 514); the drops
        # in 515 and 516 break the pairs right after it, and 521 makes a gap
        drops = {40, 515, 516, 521}
        transcripts, truths = mixed_stream(572, drops)
        pairs = list(consecutive_success_pairs(transcripts))
        assert len(pairs) > 512
        assert [pairs[i][0].session_index for i in (511, 512)] == [513, 517]
        expected = [attacks.gossamer_attack2(first) for first, _ in pairs]
        assert 0 < sum(v.fired for v in expected) < len(expected)
        log = log_lane_passes(monkeypatch)
        records, summary = evaluate_attack("gossamer-2", iter(transcripts))
        # n3 and n1' over the block; trial 0 has its keys as stored, so
        # trial 1 fires first, and the n2' pass over the block runs inside
        # it, once
        n = len(pairs)
        assert not expected[0].fired and expected[1].fired
        once = [("pass", n), ("pass", n), ("trial", False), ("pass", n), ("trial", True),
                *(("trial", v.fired) for v in expected[2:])]
        assert log == once
        assert [r["session"] for r in records] == [first.session_index for first, _ in pairs]
        assert repr([r["verdict"] for r in records]) == repr(expected)
        assert [r["prediction_confirmed"] for r in records] == [
            v.fired and v.recovered_state.next_ids == second.announced_ids
            for v, (_, second) in zip(expected, pairs)]
        _, scored = evaluate_attack("gossamer-2", transcripts, truths)
        assert scored["matched"] == scored["fired"] == summary["fired"]
        assert log == once * 2

    def test_no_trial_fires_two_passes(self, monkeypatch):
        # zero keys on the modified variant: every trial is refuted at C, so
        # no trial reads n2' and its pass never runs
        result = forced_campaign(Protocol.GOSSAMER_MOD, 80, 44, key_mode=KeyMode.EXACT_ZERO)
        pairs = list(consecutive_success_pairs(result.transcripts))
        expected = [attacks.gossamer_attack2(first) for first, _ in pairs]
        assert len(pairs) > 1 and not any(v.fired for v in expected)
        log = log_lane_passes(monkeypatch)
        for _ in range(2):
            records, summary = evaluate_attack("gossamer-2", result.transcripts)
            assert repr([r["verdict"] for r in records]) == repr(expected)
        assert summary["fired"] == 0
        n = len(pairs)
        assert log == ([("pass", n)] * 2 + [("trial", False)] * n) * 2

    def test_no_scalar_mixbits_alone_or_in_a_block(self, monkeypatch):
        # a lone call is a block of one: its chain runs as lane calls, so the
        # scalar MixBits of gossamer's equations never runs, fired or not
        transcripts, _ = mixed_stream(30, {7})
        scalar = []
        mix = gossamer.mixbits_original
        monkeypatch.setattr(gossamer, "mixbits_original",
                            lambda x, y: scalar.append((x, y)) or mix(x, y))
        fired = [attacks.gossamer_attack2(t).fired for t in transcripts
                 if t.outcome is Outcome.MUTUAL_SUCCESS]
        assert True in fired and False in fired
        _, summary = evaluate_attack("gossamer-2", transcripts)
        assert 0 < summary["fired"] < summary["trials"]
        assert scalar == []

    def test_empty_stream_summary(self, monkeypatch):
        log = log_lane_passes(monkeypatch)
        empty = {"trials": 0, "fired": 0, "fired_rate": 0.0, "scored": 0, "matched": 0,
                 "match_rate": None, "conditional_match_rate": None}
        assert evaluate_attack("gossamer-2", []) == (
            [], {"attack": "gossamer-2", **empty, "prediction_confirmed": 0})
        assert log == [("pass", 0)] * 2
        assert evaluate_attack("sasi", []) == (
            [], {"attack": "sasi", **empty, "near_miss_histogram": {}})
        assert evaluate_attack("gossamer-1", iter(())) == ([], {"attack": "gossamer-1", **empty})


class TestSasiAttack:
    def test_zero_key_regime_recovers_id_residue(self):
        result = forced_campaign(Protocol.SASI, 40, 104, key_mode=KeyMode.EXACT_ZERO)
        truth = {g.session_index: g for g in result.ground_truths}
        pairs = list(consecutive_success_pairs(result.transcripts))
        for first, second in pairs:
            verdict = attacks.sasi_attack(first, second)
            assert verdict.fired
            assert verdict.recovered_id == truth[first.session_index].id % 96
        records, _ = evaluate_attack("sasi", result.transcripts, result.ground_truths)
        assert len(records) == len(pairs)
        assert all(record["verdict"].ground_truth_match for record in records)

    def test_gap_is_zero_exactly_when_fired(self):
        result = forced_campaign(Protocol.SASI, 80, 105)
        for first, second in consecutive_success_pairs(result.transcripts):
            verdict = attacks.sasi_attack(first, second)
            assert verdict.fired == (attacks.sasi_residue_gap(first) == 0)

    def test_recovered_value_is_a_residue(self):
        result = forced_campaign(Protocol.SASI, 40, 106, key_mode=KeyMode.EXACT_ZERO)
        for first, second in consecutive_success_pairs(result.transcripts):
            verdict = attacks.sasi_attack(first, second)
            assert 0 <= verdict.recovered_id < 96

    def test_all_zero_session_fires_with_residue_zero(self):
        class T:
            announced_ids = a = b = c = d = 0

        verdict = attacks.sasi_attack(T(), T())
        assert verdict.fired and verdict.recovered_id == 0


class TestResistance:
    def test_attack1_fails_on_modified_under_its_forcing(self):
        result = forced_campaign(Protocol.GOSSAMER_MOD, 40, 107,
                                 nonce_mode=NonceMode.EXACT_ZERO)
        for first, second in consecutive_success_pairs(result.transcripts):
            verdict = attacks.gossamer_attack1(first, second)
            assert not verdict.fired

    def test_attack2_fails_on_modified_under_its_forcing(self):
        result = forced_campaign(Protocol.GOSSAMER_MOD, 40, 108,
                                 key_mode=KeyMode.EXACT_ZERO)
        for t in result.transcripts:
            verdict = attacks.gossamer_attack2(t)
            assert not verdict.fired

    def test_all_zero_modified_does_not_collapse(self):
        result = forced_campaign(Protocol.GOSSAMER_MOD, 20, 109,
                                 nonce_mode=NonceMode.EXACT_ZERO,
                                 key_mode=KeyMode.EXACT_ZERO)
        truth = {g.session_index: g for g in result.ground_truths}
        for first, second in consecutive_success_pairs(result.transcripts):
            v1 = attacks.gossamer_attack1(first, second)
            assert not v1.fired or v1.recovered_id != truth[first.session_index].id
            v2 = attacks.gossamer_attack2(first)
            assert not v2.fired or v2.recovered_id != truth[first.session_index].id


def test_verdicts_never_set_ground_truth_match():
    # only the simulator may score; the attack itself leaves the field unset
    result = forced_campaign(Protocol.GOSSAMER, 10, 110, nonce_mode=NonceMode.EXACT_ZERO)
    first, second = next(consecutive_success_pairs(result.transcripts))
    assert attacks.gossamer_attack1(first, second).ground_truth_match is None


# -- evaluate_attack against the reference evaluator ---------------------------
#
# The three functions below are the two-pass evaluator evaluate_attack
# replaced, kept as written: a pair list, a Counter, sums after the loop and
# a score through getattr.  The one-pass evaluator must give the same
# records, verdicts and summary, key order included.

def reference_pairs(transcripts):
    pairs = []
    for first, second in zip(transcripts, transcripts[1:]):
        if (first.outcome is Outcome.MUTUAL_SUCCESS
                and second.outcome is Outcome.MUTUAL_SUCCESS
                and second.session_index == first.session_index + 1):
            pairs.append((first, second))
    return pairs


_REFERENCE_INTERNALS = ("n1", "n2", "n3", "n1p", "n2p", "k1_star", "k2_star")


def reference_score(kind, verdict, truth):
    if not verdict.fired:
        return
    expected_id = truth.id % 96 if attacks.ATTACKS[kind].residue_id else truth.id
    rs = verdict.recovered_state
    verdict.ground_truth_match = verdict.recovered_id == expected_id and (
        rs is None or (rs.next_ids == truth.tag_post.ids and all(
            getattr(rs, name) == getattr(truth, name) for name in _REFERENCE_INTERNALS)))


def reference_evaluate(kind, transcripts, ground_truths=None):
    pairs = reference_pairs(transcripts)
    truth_by_session = {t.session_index: t for t in ground_truths or []}
    records = []
    near_misses = Counter()
    confirmed = 0
    scored = 0
    for pair in pairs:
        first, second = pair
        if kind == "sasi":
            near_misses[attacks.sasi_residue_gap(first)] += 1
            verdict = attacks.sasi_attack(first, second)
        elif kind == "gossamer-1":
            verdict = attacks.gossamer_attack1(first, second)
        else:
            verdict = attacks.gossamer_attack2(first)
        prediction_confirmed = None
        if kind == "gossamer-2":
            prediction_confirmed = bool(
                verdict.fired
                and verdict.recovered_state.next_ids == second.announced_ids)
            confirmed += prediction_confirmed
        truth = truth_by_session.get(first.session_index)
        if truth is not None:
            scored += 1
            reference_score(kind, verdict, truth)
        records.append({"session": first.session_index, "verdict": verdict,
                        "prediction_confirmed": prediction_confirmed})
    trials = len(records)
    fired = sum(1 for r in records if r["verdict"].fired)
    # a fired trial is scored when its verdict was checked against ground truth
    fired_scored = sum(1 for r in records if r["verdict"].ground_truth_match is not None)
    matched = sum(1 for r in records if r["verdict"].ground_truth_match)
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
    if kind == "sasi":
        summary["near_miss_histogram"] = {
            str(gap): count for gap, count in sorted(near_misses.items())}
    if kind == "gossamer-2":
        summary["prediction_confirmed"] = confirmed
    return records, summary


_SESSIONS = 16
_indices = st.sets(st.integers(min_value=0, max_value=_SESSIONS - 1))


class TestEvaluateAgainstReference:
    # ``captured``: the sessions an eavesdropper kept (None: all), so that
    # gaps put non-contiguous indices side by side.  ``truths``: "all", None
    # for no ground truth, or the sessions whose ground truth is given.
    @settings(max_examples=250, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)),
           nonce_mode=st.sampled_from(list(NonceMode)),
           key_mode=st.sampled_from(list(KeyMode)),
           drop_d_rate=st.sampled_from([0.0, 0.2, 0.5]),
           seed=st.integers(min_value=0, max_value=2**16),
           kind=st.sampled_from(list(attacks.ATTACKS)),
           captured=st.none() | _indices,
           truths=st.sampled_from(["all", None]) | _indices)
    # residue IDs scored over a capture with gaps, and a full disclosure
    @example(protocol=Protocol.SASI, nonce_mode=NonceMode.RANDOM,
             key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.2, seed=3, kind="sasi",
             captured={0, 1, 2, 4, 5, 7, 9, 10}, truths="all")
    @example(protocol=Protocol.GOSSAMER, nonce_mode=NonceMode.RANDOM,
             key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.2, seed=4, kind="gossamer-2",
             captured={0, 1, 2, 4, 5, 7, 9, 10}, truths={1, 2, 3, 5, 9})
    def test_records_and_summary_match_the_reference(
            self, protocol, nonce_mode, key_mode, drop_d_rate, seed, kind, captured, truths):
        tags, store = provision(1, protocol, seed=seed)
        result = run_campaign(tags["tag-000"], store, CampaignConfig(
            _SESSIONS, seed + 1, nonce_mode=nonce_mode, key_mode=key_mode,
            drop_d_rate=drop_d_rate))
        transcripts = [t for t in result.transcripts
                       if captured is None or t.session_index in captured]
        ground_truths = (result.ground_truths if truths == "all" else None if truths is None
                         else [g for g in result.ground_truths if g.session_index in truths])
        expected_records, expected_summary = reference_evaluate(kind, transcripts, ground_truths)
        records, summary = evaluate_attack(kind, transcripts, ground_truths)
        # repr shows every field of every verdict, and True apart from 1
        assert repr(records) == repr(expected_records)
        assert json.dumps(summary) == json.dumps(expected_summary)


# -- the kind lookup -------------------------------------------------------------

# a campaign in which each kind fires: (protocol, nonce mode, key mode)
_FIRING = {"sasi": (Protocol.SASI, NonceMode.RANDOM, KeyMode.EXACT_ZERO),
           "gossamer-1": (Protocol.GOSSAMER, NonceMode.EXACT_ZERO, KeyMode.AS_STORED),
           "gossamer-2": (Protocol.GOSSAMER, NonceMode.RANDOM, KeyMode.EXACT_ZERO)}


def test_an_unknown_kind_raises_before_either_iterable_is_read():
    def unread():
        raise AssertionError("read")
        yield

    with pytest.raises(ValueError) as raised:
        evaluate_attack("nope", unread(), unread())
    assert str(raised.value) == "unknown attack kind: nope"


@pytest.mark.parametrize("kind", list(attacks.ATTACKS))
def test_each_kind_evaluates_as_its_attacks_entry_names_it(kind):
    entry = attacks.ATTACKS[kind]
    protocol, nonce_mode, key_mode = _FIRING[kind]
    result = forced_campaign(protocol, 12, 7, nonce_mode=nonce_mode, key_mode=key_mode)
    records, summary = evaluate_attack(kind, result.transcripts, result.ground_truths)
    expected = list(entry.trials(consecutive_success_pairs(result.transcripts)))
    assert [(r["session"], replace(r["verdict"], ground_truth_match=None),
             r["prediction_confirmed"]) for r in records] == [
        (first.session_index, verdict, confirmed) for first, verdict, _, confirmed in expected]
    # every trial fires and matches, scored with the entry's residue_id
    assert summary["fired"] == summary["matched"] == len(records) == 11
    assert ("near_miss_histogram" in summary) == entry.near_miss
    assert ("prediction_confirmed" in summary) == (entry.arity == 1)


# -- scoring reads only what ScoredTruth holds ----------------------------------

class TestScoredTruthScoresAsGroundTruth:
    # ``failed``: sessions run against an empty store, whose lookup fails and
    # whose internals are null.  ``relabel`` moves each truth to another
    # session, so that trials are scored against truths of every shape, null
    # internals too; ``order`` puts the truths in any order.
    @settings(max_examples=150, deadline=None)
    @given(protocol=st.sampled_from(list(Protocol)),
           nonce_mode=st.sampled_from(list(NonceMode)),
           key_mode=st.sampled_from(list(KeyMode)),
           drop_d_rate=st.sampled_from([0.0, 0.2, 0.5]),
           seed=st.integers(min_value=0, max_value=2**16),
           kind=st.sampled_from(list(attacks.ATTACKS)),
           failed=_indices,
           relabel=st.just(list(range(_SESSIONS))) | st.permutations(range(_SESSIONS)),
           order=st.randoms(use_true_random=False))
    # a full disclosure, every trial matched
    @example(protocol=Protocol.GOSSAMER, nonce_mode=NonceMode.RANDOM,
             key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.0, seed=4, kind="gossamer-2",
             failed=set(), relabel=list(range(_SESSIONS)), order=random.Random(0))
    def test_records_and_summary_are_equal(self, protocol, nonce_mode, key_mode, drop_d_rate,
                                           seed, kind, failed, relabel, order):
        tags, store = provision(1, protocol, seed=seed)
        rng = NonceStream(seed + 1)
        transcripts, truths = [], []
        for index in range(_SESSIONS):
            forcing = Forcing(nonce_mode=nonce_mode, key_mode=key_mode,
                              drop_d=rng.chance(drop_d_rate))
            transcript, truth = run_session(tags["tag-000"], Store() if index in failed else store,
                                            forcing, rng, index)
            transcripts.append(transcript)
            truths.append(replace(truth, session_index=relabel[index]))
        order.shuffle(truths)
        projections = [scored_truth_from_line(ground_truth_line(truth)) for truth in truths]
        assert projections == [scored_truth(truth) for truth in truths]
        assert all(type(p) is ScoredTruth for p in projections)
        # repr shows every field of every verdict, and True apart from 1
        assert repr(evaluate_attack(kind, transcripts, projections)) == repr(
            evaluate_attack(kind, transcripts, truths))


# -- one call per pair, as the sasi-fleet benchmark makes them -------------------

# each kind's protocol, and the forcing under which it fires
FLEET = {
    "sasi": (Protocol.SASI, {"key_mode": KeyMode.EXACT_ZERO}),
    "gossamer-1": (Protocol.GOSSAMER, {"nonce_mode": NonceMode.EXACT_ZERO}),
    "gossamer-2": (Protocol.GOSSAMER, {"key_mode": KeyMode.EXACT_ZERO}),
}


def fleet_streams(protocol, forced, seed, tags=6, sessions=300):
    """Each tag's (transcripts, ground truths) from an interleaved fleet run:
    a random tag per session, per-tag session indices, about 10% of D
    dropped, and about half the sessions forced as ``forced`` says."""
    fleet, store = provision(tags, protocol, seed=seed)
    labels = sorted(fleet)
    rng, pick = NonceStream(seed + 1), random.Random(seed + 2)
    streams = {label: ([], []) for label in labels}
    for _ in range(sessions):
        label = labels[pick.randrange(tags)]
        forcing = Forcing(**(forced if pick.random() < 0.5 else {}),
                          drop_d=pick.random() < 0.1)
        transcripts, truths = streams[label]
        transcript, truth = run_session(fleet[label], store, forcing, rng, len(transcripts))
        transcripts.append(transcript)
        truths.append(truth)
    return streams


def summary_counts(summary):
    counts = Counter({key: summary[key] for key in ("trials", "fired", "scored", "matched")})
    counts["prediction_confirmed"] = summary.get("prediction_confirmed", 0)
    for gap, count in summary.get("near_miss_histogram", {}).items():
        counts["gap " + gap] = count
    return counts


@pytest.mark.parametrize("kind", list(attacks.ATTACKS))
def test_one_call_per_pair_adds_up_to_the_whole_stream(kind):
    protocol, forced = FLEET[kind]
    totals = Counter()
    for transcripts, truths in fleet_streams(protocol, forced, seed=50).values():
        records, summary = evaluate_attack(kind, transcripts, truths)
        pair_records, pair_counts = [], Counter()
        for i in range(len(transcripts) - 1):
            found, part = evaluate_attack(kind, [transcripts[i], transcripts[i + 1]],
                                          [truths[i]])
            pair_records += found
            pair_counts.update(summary_counts(part))
        assert repr(pair_records) == repr(records)
        assert pair_counts == summary_counts(summary)
        totals.update(summary_counts(summary))
    assert 0 < totals["matched"] <= totals["fired"] < totals["trials"] == totals["scored"]
    assert totals["trials"] < 300 - 6  # the dropped D's broke some pairs

def test_evaluate_attack_reads_iterators_and_generators():
    result = forced_campaign(Protocol.GOSSAMER, 12, 120, key_mode=KeyMode.EXACT_ZERO)
    transcripts, truths = result.transcripts, result.ground_truths
    expected = repr(evaluate_attack("gossamer-2", transcripts, truths))
    assert expected.count("ground_truth_match=True") == 11
    assert repr(evaluate_attack("gossamer-2", iter(transcripts), iter(truths))) == expected
    assert repr(evaluate_attack("gossamer-2", (t for t in transcripts),
                                (g for g in truths))) == expected
