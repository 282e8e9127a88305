"""Acceptance gate: every criterion as a runnable assertion at its stated
tolerance, one printed line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines;
measured-rate criteria report their numbers in those lines.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import oracles
from tagauth import word96 as w
from tagauth.attacks import gossamer_attack1, gossamer_attack2, sasi_attack
from tagauth.cli import main as cli_main
from tagauth.sasi import reader_begin as sasi_reader_begin
from tagauth.simulator import (
    CampaignConfig,
    Forcing,
    KeyMode,
    NonceMode,
    NonceStream,
    Outcome,
    Protocol,
    consecutive_success_pairs,
    evaluate_attack,
    iter_campaign,
    make_tag,
    provision,
    run_campaign,
    run_session,
    transcript_to_dict,
)
from tagauth.store import Store
from tagauth.word96 import MASK, PI

ALL_PROTOCOLS = (Protocol.SASI, Protocol.GOSSAMER, Protocol.GOSSAMER_MOD)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def one_tag_world(protocol: Protocol, seed: int):
    tags, store = provision(1, protocol, seed=seed)
    return tags["tag-000"], store


def forced_campaign(protocol, sessions, seed, nonce_mode=NonceMode.RANDOM,
                    key_mode=KeyMode.AS_STORED):
    tag, store = one_tag_world(protocol, seed)
    config = CampaignConfig(sessions, seed + 1,
                            nonce_mode=nonce_mode, key_mode=key_mode)
    return run_campaign(tag, store, config)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    if successes == 0:
        return 0.0, 3.0 / trials  # rule of three
    p = successes / trials
    half = 1.96 * (p * (1 - p) / trials) ** 0.5
    return max(0.0, p - half), min(1.0, p + half)


def test_criterion_01_round_trip_all_variants():
    sessions = 10_000
    elapsed = 0.0
    for protocol in ALL_PROTOCOLS:
        tag, store = one_tag_world(protocol, seed=1001)
        config = CampaignConfig(sessions, seed=11)
        start = time.monotonic()
        for transcript, truth in iter_campaign(tag, store, config):
            assert transcript.outcome is Outcome.MUTUAL_SUCCESS, transcript
            assert truth.tag_post == truth.reader_post
        elapsed += time.monotonic() - start
    report("criterion 1 (round trip)",
           elapsed < 10.0,
           f"3x{sessions} fault-free sessions, all mutual_success with equal "
           f"next tuples, in {elapsed:.2f}s")


def test_criterion_02_desync_recovery_under_20pct_drops():
    sessions = 1000
    for protocol in ALL_PROTOCOLS:
        tag, store = one_tag_world(protocol, seed=1002)
        config = CampaignConfig(sessions, seed=22, drop_d_rate=0.2)
        result = run_campaign(tag, store, config)
        transcripts = result.transcripts
        outcomes = result.summary["outcomes"]
        assert outcomes.get("lookup_failed", 0) == 0, protocol
        assert set(outcomes) <= {"mutual_success", "d_dropped"}, outcomes
        assert outcomes.get("d_dropped", 0) > 100  # the 20% rate actually applied
        for i, transcript in enumerate(transcripts):
            if transcript.outcome is not Outcome.D_DROPPED:
                continue
            following = next((t for t in transcripts[i + 1:]
                              if t.outcome is not Outcome.D_DROPPED), None)
            if following is None:
                continue  # campaign ended on a drop
            assert following.outcome is Outcome.MUTUAL_SUCCESS
            # recovery goes through the tag's old pseudonym, i.e. the one
            # the dropped session ran on
            assert following.announced_ids == transcript.announced_ids
    report("criterion 2 (desync recovery)", True,
           f"3x{sessions} sessions at 20% D loss: no tag unreachable, every "
           f"drop recovered via the old IDS")


def test_criterion_03_replay_resistance():
    trials = 1000
    tag, store = one_tag_world(Protocol.GOSSAMER, seed=1003)
    rng = NonceStream(33)
    index = 0
    for _ in range(trials):
        captured, _ = run_session(tag, store, Forcing(), rng, index)
        assert captured.outcome is Outcome.MUTUAL_SUCCESS
        replayed, truth = run_session(tag, store, Forcing(replay_d=captured),
                                      rng, index + 1)
        assert replayed.outcome is Outcome.TAG_REJECTED
        assert truth.tag_post == truth.tag_pre
        assert truth.reader_post == truth.reader_pre
        index += 2

    tag, store = one_tag_world(Protocol.GOSSAMER, seed=1004)
    rng = NonceStream(34)
    index = 0
    for _ in range(trials):
        captured, _ = run_session(tag, store, Forcing(), rng, index)
        replayed, truth = run_session(tag, store, Forcing(replay_abc=captured),
                                      rng, index + 1)
        # the tag answers the old-IDS challenge but its secrets do not move
        assert replayed.outcome is Outcome.D_DROPPED
        assert truth.tag_post == truth.tag_pre
        assert replayed.d == captured.d
        index += 2
    report("criterion 3 (replay)", True,
           f"{trials} replayed D all rejected; {trials} replayed challenges "
           f"changed no secret state")


def test_criterion_04_attack1_exact_regime():
    result = forced_campaign(Protocol.GOSSAMER, 1001, 1005,
                             nonce_mode=NonceMode.EXACT_ZERO)
    truth = {g.session_index: g for g in result.ground_truths}
    pairs = list(consecutive_success_pairs(result.transcripts))
    assert len(pairs) == 1000
    for first, second in pairs:
        verdict = gossamer_attack1(first, second)
        assert verdict.fired, first
        expected = truth[first.session_index].id
        # D-C+PI is the verdict; its agreement with the pseudonym-step
        # recovery D-IDS_next+IDS is asserted inside the attack itself
        assert verdict.recovered_id == expected

    # bit-exact closed form from the all-zero state
    zero_tag, row = make_tag("zero", Protocol.GOSSAMER, 0, 0, 0, 0)
    store = Store()
    store.add(row)
    rng = NonceStream(44)
    forcing = Forcing(nonce_mode=NonceMode.EXACT_ZERO)
    first, _ = run_session(zero_tag, store, forcing, rng, 0)
    second, _ = run_session(zero_tag, store, forcing, rng, 1)
    assert (first.a, first.b, first.c, first.d) == (
        PI, PI, 3 * PI & MASK, 2 * PI & MASK)
    assert second.announced_ids == 2 * PI & MASK
    verdict = gossamer_attack1(first, second)
    assert verdict.fired and verdict.recovered_id == 0
    report("criterion 4 (attack 1, exact zeros)", True,
           "1000/1000 detector hits with exact ID recovery; closed-form "
           "transcript (pi, pi, 3pi, 2pi, 2pi) verified bit-exactly")


def test_criterion_05_attack1_residue_regime_measured():
    trials = 10_000
    result = forced_campaign(Protocol.GOSSAMER, trials + 1, 1006,
                             nonce_mode=NonceMode.ZERO_MOD_96)
    _, summary = evaluate_attack("gossamer-1", result.transcripts,
                                 result.ground_truths)
    rate = summary["fired_rate"]
    low, high = wilson_interval(summary["fired"], summary["trials"])
    assert 0.0 <= rate <= 1.0
    report("criterion 5 (attack 1, nonces = 0 mod 96)", True,
           f"measured firing rate {rate:.6f} "
           f"(95% CI [{low:.6f}, {high:.6f}], {summary['fired']}/{summary['trials']}) "
           f"-- recorded, not asserted: the shift in MixBits does not preserve "
           f"residues mod 96")


def test_criterion_06_attack2_exact_regime():
    result = forced_campaign(Protocol.GOSSAMER, 1001, 1007,
                             key_mode=KeyMode.EXACT_ZERO)
    truth = {g.session_index: g for g in result.ground_truths}
    pairs = list(consecutive_success_pairs(result.transcripts))
    assert len(pairs) == 1000
    for first, second in pairs:
        verdict = gossamer_attack2(first)
        g = truth[first.session_index]
        assert verdict.fired, first
        assert verdict.recovered_id == g.id
        assert verdict.recovered_state.next_ids == second.announced_ids
    report("criterion 6 (attack 2, exact zero keys)", True,
           "1000/1000: C check fired, ID recovered exactly, next IDS "
           "predicted and confirmed by the following announcement")


def test_criterion_07_modified_resists_both_attacks():
    trials = 1000

    result = forced_campaign(Protocol.GOSSAMER_MOD, trials + 1, 1008,
                             nonce_mode=NonceMode.EXACT_ZERO)
    truth = {g.session_index: g for g in result.ground_truths}
    pairs = list(consecutive_success_pairs(result.transcripts))
    assert len(pairs) == trials
    attack1_residuals = []
    for first, second in pairs:
        verdict = gossamer_attack1(first, second)
        if verdict.fired and verdict.recovered_id == truth[first.session_index].id:
            attack1_residuals.append(first)

    result = forced_campaign(Protocol.GOSSAMER_MOD, trials + 1, 1009,
                             key_mode=KeyMode.EXACT_ZERO)
    pairs = list(consecutive_success_pairs(result.transcripts))
    assert len(pairs) == trials
    attack2_residuals = []
    for first, _ in pairs:
        if gossamer_attack2(first).fired:
            attack2_residuals.append(first)

    for label, residuals in (("attack-1", attack1_residuals),
                             ("attack-2", attack2_residuals)):
        for transcript in residuals:
            print(f"residual {label} success: "
                  f"{json.dumps(transcript_to_dict(transcript))}")
    ok = (len(attack1_residuals) <= trials * 0.01
          and len(attack2_residuals) <= trials * 0.01)
    report("criterion 7 (modified variant resistance)", ok,
           f"attack-1 ID recovery failed {trials - len(attack1_residuals)}/{trials}, "
           f"attack-2 C check failed {trials - len(attack2_residuals)}/{trials} "
           f"under the same forcings")


def test_criterion_08_sasi_attack():
    result = forced_campaign(Protocol.SASI, 1001, 1010, key_mode=KeyMode.EXACT_ZERO)
    truth = {g.session_index: g for g in result.ground_truths}
    pairs = list(consecutive_success_pairs(result.transcripts))
    assert len(pairs) == 1000
    for first, second in pairs:
        verdict = sasi_attack(first, second)
        assert verdict.fired
        assert verdict.recovered_id == truth[first.session_index].id % 96

    # K1 = 0 alone already makes the pseudonym step leak the full ID word
    rng = random.Random(1011)
    for _ in range(1000):
        id_, ids, k2, n1, n2 = (rng.getrandbits(96) for _ in range(5))
        *_, (ids_next, _, _), _ = sasi_reader_begin(ids, 0, k2, id_, n1, n2)
        assert w.sub(ids_next, ids) == id_

    # unforced firing rate over 10^5 sessions, reported
    sessions = 100_000
    tag, store = one_tag_world(Protocol.SASI, seed=1012)
    config = CampaignConfig(sessions, seed=55)
    fired = 0
    fired_and_correct = 0
    pairs_seen = 0
    previous = None
    tag_id = tag.state.id
    for transcript, _ in iter_campaign(tag, store, config):
        if previous is not None:
            pairs_seen += 1
            verdict = sasi_attack(previous, transcript)
            if verdict.fired:
                fired += 1
                fired_and_correct += verdict.recovered_id == tag_id % 96
        previous = transcript
    rate = fired / pairs_seen
    conditional = fired_and_correct / fired if fired else float("nan")
    report("criterion 8 (SASI attack)", True,
           f"zero-key residue recovery 1000/1000; zero-K1 full-word relation "
           f"1000/1000; unforced firing rate {rate:.6f} over {pairs_seen} pairs "
           f"(conditional residue-success rate {conditional:.4f})")


def test_criterion_09_cost_accounting_via_cli():
    for variant in ("sasi", "gossamer", "gossamer-mod"):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli_main(["bench", "cost", "--variant", variant])
        assert code == 0
        accounting = json.loads(buffer.getvalue())
        assert accounting["identification_and_challenge_bits"] == 424
        assert accounting["full_session_bits"] == 520
        assert accounting["rewritable_state_bits"] == 576
        assert accounting["static_id_bits"] == 96
    report("criterion 9 (cost accounting)", True,
           "bench cost reports 424 bits (hello+IDS+A||B||C), 520 with D, "
           "576 rewritable state bits")


def test_criterion_10_arithmetic_property_suite():
    rng = random.Random(1013)
    cases_per_property = 20_000
    for _ in range(cases_per_property):
        a, b = rng.getrandbits(96), rng.getrandbits(96)
        assert w.sub(w.add(a, b), b) == a
    for _ in range(cases_per_property):
        a = rng.getrandbits(96)
        assert w.add(a, w.sub(0, a)) == 0
    for _ in range(cases_per_property):
        x, y = rng.getrandbits(96), rng.getrandbits(96)
        assert w.rotr(w.rotl(x, y), y) == x
    for _ in range(cases_per_property):
        x, y = rng.getrandbits(96), rng.getrandbits(96)
        assert w.rotl(x, y) == w.rotl(x, y + 96 * rng.randrange(1, 1000))
    for _ in range(cases_per_property):
        x = rng.getrandbits(96)
        assert w.from_hex(w.to_hex(x)) == x
    total = cases_per_property * 5

    assert w.mixbits_original(0, 0) == 0
    assert w.mixbits_modified(0, 0) != 0
    assert w.mixbits_modified(0, 0) % 96 != 0

    oracle_inputs = 1000
    for _ in range(oracle_inputs):
        x, y = rng.getrandbits(96), rng.getrandbits(96)
        assert w.mixbits_original(x, y) == oracles.mixbits_shift(x, y)
        assert w.mixbits_modified(x, y) == oracles.mixbits_counter(x, y)

    # the seeded nonce stream covers residues mod 96 evenly (3-sigma bands)
    stream = NonceStream(0)
    draws = 1_000_000
    counts = [0] * 96
    for _ in range(draws):
        counts[stream.word() % 96] += 1
    expected = draws / 96
    sigma = (draws * (1 / 96) * (95 / 96)) ** 0.5
    worst = max(abs(count - expected) for count in counts)
    assert worst <= 3 * sigma, f"worst residue deviation {worst:.1f} > 3 sigma"

    report("criterion 10 (arithmetic core)", True,
           f"{total} randomized property cases, mixbits vs independent oracle "
           f"on {oracle_inputs} inputs, zero fixed points as required, RNG "
           f"residue deviation max {worst:.0f} <= 3 sigma ({3 * sigma:.0f})")
