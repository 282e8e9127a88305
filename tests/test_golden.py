"""Golden digests: fixed-seed outputs pinned byte for byte.

Each digest is the SHA-256 of the JSON lines a run produces: transcripts
and ground truth in their JSONL form, campaign summaries, attack verdict
records and attack summaries.  A refactor that keeps every output
identical leaves them all unchanged; a digest that moves means some
output byte moved, and the name says which run it was.
"""

import hashlib
import json
import random

import pytest

from tagauth import cli
from tagauth.simulator import (
    CampaignConfig,
    Forcing,
    KeyMode,
    NonceMode,
    NonceStream,
    Protocol,
    evaluate_attack,
    ground_truth_to_dict,
    make_tag,
    provision,
    run_campaign,
    run_session,
    save_tags,
    transcript_to_dict,
)

SESSIONS = 24

FORCINGS = {
    "random": dict(),
    "drop": dict(drop_d_rate=0.2),
    "nonce-zero": dict(nonce_mode=NonceMode.EXACT_ZERO),
    "nonce-zero-mod96": dict(nonce_mode=NonceMode.ZERO_MOD_96),
    "keys-zero": dict(key_mode=KeyMode.EXACT_ZERO),
    "keys-zero-mod96": dict(key_mode=KeyMode.ZERO_MOD_96),
}

ATTACK_KINDS = ("sasi", "gossamer-1", "gossamer-2")

GOLDEN = {
    "sasi": "3b288c4b6e39dd4700bbe6f5208fbafb97d8cde061bca18609f78775203df631",
    "gossamer": "6a5d3caf7a903664e5ecb239a0e9c999c82d51b900c303e604bb75e5e372dc68",
    "gossamer-mod": "0d9bfaadbbb53b883c7ef001b6bc4456c50f02fd6ccc4ed076160ce8d1ff47e0",
    "cli": "511dd3fbb0167bf74ef4e5116deebc777511b6e3ca43259fdf05535c4acf388e",
}

FLEET_GOLDEN = "c59b099627d31cf51092c19740a44bb83e4cc2b56625549412a090e593ee9a0d"


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n"


def _protocol_lines(protocol: Protocol):
    """Campaigns under every forcing, all three attacks over each, two replays."""
    for seed, (name, forcing) in enumerate(FORCINGS.items(), 1):
        tags, store = provision(1, protocol, seed=seed)
        config = CampaignConfig(SESSIONS, seed + 100, **forcing)
        result = run_campaign(tags["tag-000"], store, config)
        yield _line({"campaign": name, "summary": result.summary})
        for transcript, truth in zip(result.transcripts, result.ground_truths):
            yield _line(transcript_to_dict(transcript))
            yield _line(ground_truth_to_dict(truth))
        for kind in ATTACK_KINDS:
            records, summary = evaluate_attack(kind, result.transcripts,
                                               result.ground_truths)
            yield _line({"attack": kind, "summary": summary})
            for record in records:
                yield _line(cli._verdict_to_dict(kind, record))

    # the last session's response replayed to the reader, then its
    # challenge replayed to the tag
    tags, store = provision(1, protocol, seed=50)
    tag = tags["tag-000"]
    result = run_campaign(tag, store, CampaignConfig(3, 51))
    captured = result.transcripts[-1]
    for index, forcing in enumerate((Forcing(replay_d=captured),
                                     Forcing(replay_abc=captured)), 3):
        transcript, truth = run_session(tag, store, forcing, NonceStream(52 + index),
                                        session_index=index)
        yield _line(transcript_to_dict(transcript))
        yield _line(ground_truth_to_dict(truth))


def _digest(lines) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
    return sha.hexdigest()


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_library_outputs_are_unchanged(protocol):
    assert _digest(_protocol_lines(protocol)) == GOLDEN[protocol.value]


def test_cli_outputs_are_unchanged(tmp_path, monkeypatch, capsys):
    """provision, campaign and every attack through the CLI, files and stdout."""
    monkeypatch.chdir(tmp_path)
    lines = []
    for protocol in ("gossamer", "sasi", "gossamer-mod"):
        store = f"{protocol}.json"
        out = f"{protocol}.jsonl"
        runs = [
            ["provision", "--count", "1", "--variant", protocol, "--seed", "9",
             "--store", store],
            ["campaign", "--sessions", str(SESSIONS), "--seed", "10", "--store", store,
             "--output", out, "--force-keys", "zero", "--drop-d-rate", "0.2"],
        ]
        runs += [["attack", kind, "--input", out, "--ground-truth", f"{protocol}.gt.jsonl",
                  "--output", f"{protocol}.{kind}.jsonl"] for kind in ATTACK_KINDS]
        for argv in runs:
            assert cli.main(argv) == 0
            lines.append(capsys.readouterr().out)
        names = [store, f"{store}.tags", out, f"{protocol}.gt.jsonl",
                 f"{protocol}.manifest.json"]
        for kind in ATTACK_KINDS:
            names += [f"{protocol}.{kind}.jsonl", f"{protocol}.{kind}.manifest.json"]
        for name in names:
            lines.append((tmp_path / name).read_text())
    assert _digest(lines) == GOLDEN["cli"]


def test_fleet_outputs_are_unchanged(tmp_path):
    """A SASI fleet in one store: sessions interleaved over 66 tags, 15% of D
    dropped so that tags retry their old IDS, and two extra tags provisioned
    with one shared IDS so that a commit re-indexes an IDS two rows hold."""
    tags, store = provision(64, Protocol.SASI, seed=61)
    for label, id_, k1, k2 in [("twin-a", 11, 12, 13), ("twin-b", 21, 22, 23)]:
        tag, row = make_tag(label, Protocol.SASI, id_, 0x5A5A, k1, k2)
        tags[label] = tag
        store.add(row)
    labels = sorted(tags)
    schedule = random.Random(62)
    rng = NonceStream(63)
    lines = []
    for index in range(400):
        forcing = Forcing(drop_d=schedule.random() < 0.15)
        transcript, truth = run_session(tags[schedule.choice(labels)], store, forcing,
                                        rng, session_index=index)
        lines += [_line(transcript_to_dict(transcript)), _line(ground_truth_to_dict(truth))]
    store.save(tmp_path / "db.json")
    save_tags(tags, tmp_path / "db.json.tags")
    lines += [(tmp_path / name).read_text() for name in ("db.json", "db.json.tags")]
    assert _digest(lines) == FLEET_GOLDEN


BLOCK_GOLDEN = "edb531cd8317b489d95e284dc2e5607138910b597d84dcd13ac68223c0e8fae2"


def test_block_crossing_campaign_is_unchanged(tmp_path):
    """An original-Gossamer campaign of 700 sessions, past two campaign block
    boundaries, under zero-mod-96 keys with 20% of D dropped: summary,
    transcripts, ground truth, then the final store and tag files."""
    tags, store = provision(1, Protocol.GOSSAMER, seed=71)
    config = CampaignConfig(700, 72, key_mode=KeyMode.ZERO_MOD_96,
                            drop_d_rate=0.2)
    result = run_campaign(tags["tag-000"], store, config)
    lines = [_line({"summary": result.summary})]
    for transcript, truth in zip(result.transcripts, result.ground_truths):
        lines += [_line(transcript_to_dict(transcript)), _line(ground_truth_to_dict(truth))]
    store.save(tmp_path / "db.json")
    save_tags(tags, tmp_path / "db.json.tags")
    lines += [(tmp_path / name).read_text() for name in ("db.json", "db.json.tags")]
    assert _digest(lines) == BLOCK_GOLDEN
