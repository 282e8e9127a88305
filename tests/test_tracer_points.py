"""The benchmark tracer still finds every layer it patches.

perfbench/tracing.py wraps module attributes from outside the package.
A protocol table or attack registry that bound those functions at import
time would bypass the wrappers without any error, and the benchmark's
per-layer numbers would silently read zero; this test catches that.
"""

import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from conftest import verdict_dict
from tagauth import simulator
from tagauth.simulator import (
    CampaignConfig,
    KeyMode,
    Protocol,
    evaluate_attack,
    provision,
    run_campaign,
)
from tagauth.store import Store

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

EXPECTED_SPANS = {
    Protocol.SASI: {"sasi.reader_begin", "sasi.tag_respond"},
    Protocol.GOSSAMER: {"gossamer.reader_begin", "gossamer.tag_respond", "word96.mixbits"},
    Protocol.GOSSAMER_MOD: {"gossamer.reader_begin", "gossamer.tag_respond",
                            "word96.mixbits"},
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_tracer_sees_every_layer(tracing, protocol):
    tags, store = provision(1, protocol, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_campaign(tags["tag-000"], store,
                     CampaignConfig(5, seed=4, drop_d_rate=0.3))
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    names = {span[0] for span in tracer.spans}
    assert EXPECTED_SPANS[protocol] <= names
    assert {"simulator.run_session", "store.lookup", "store.commit"} <= names
    if protocol is Protocol.GOSSAMER_MOD:
        assert tracer.counts["search.candidates"] > 0
    else:
        assert tracer.counts["search.candidates"] == 0


def test_tracer_sees_the_attack_registry(tracing):
    tags, store = provision(1, Protocol.GOSSAMER, seed=3)
    result = run_campaign(tags["tag-000"], store,
                          CampaignConfig(4, seed=4,
                                         key_mode=KeyMode.EXACT_ZERO))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluate_attack("gossamer-2", result.transcripts)
    finally:
        tracer.uninstall()
    assert tracer.counts["attack2.calls"] == 3
    assert tracer.counts["attack2.fired"] == 3


def _words(value) -> int:
    """How many canonical hex words a JSON value holds, at any depth."""
    if isinstance(value, dict):
        return sum(_words(item) for item in value.values())
    if isinstance(value, list):
        return sum(_words(item) for item in value)
    return isinstance(value, str) and re.fullmatch("[0-9a-f]{24}", value) is not None


def _reused(truth) -> int:
    """How many words of ``truth``'s line ``ground_truth_line`` takes from
    words it already converted: 6 for each reader snapshot that is the tag's
    own object, 3 for each half of ``tag_post`` whose words repeat a half of
    ``tag_pre``."""
    pre, post = truth.tag_pre, truth.tag_post
    halves = [(pre.ids, pre.k1, pre.k2), (pre.ids_old, pre.k1_old, pre.k2_old)]
    return (6 * ((truth.reader_pre is pre) + (truth.reader_post is post))
            + 3 * sum(half in halves for half in [(post.ids, post.k1, post.k2),
                                                  (post.ids_old, post.k1_old, post.k2_old)]))


def test_tracer_counts_every_codec_conversion(tracing, tmp_path):
    # one hex span per word converted, through every writer and reader of
    # records; a ground-truth line converts each distinct snapshot half once
    tags, store = provision(2, Protocol.GOSSAMER, seed=3)
    result = run_campaign(tags["tag-000"], store,
                          CampaignConfig(6, seed=4,
                                         key_mode=KeyMode.EXACT_ZERO, drop_d_rate=0.3))
    records, _ = evaluate_attack("gossamer-2", result.transcripts)
    assert any(r["verdict"].fired for r in records)
    store_path, tags_path = tmp_path / "db.json", tmp_path / "db.json.tags"

    def traced(call):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            value = call()
        finally:
            tracer.uninstall()
        assert tracer.missing == set()
        return value, sum(span[0] == "word96.hex" for span in tracer.spans)

    _, calls = traced(lambda: store.save(store_path))
    assert calls == _words(json.loads(store_path.read_text())) == 14
    _, calls = traced(lambda: simulator.save_tags(tags, tags_path))
    assert calls == _words(json.loads(tags_path.read_text())) == 14
    # the files as saved are read by regex, each word with int(text, 16);
    # an indent=4 copy takes the json.loads path, one from_hex per word
    for path, load in [(store_path, Store.load), (tags_path, simulator.load_tags)]:
        _, calls = traced(lambda: load(path))
        assert calls == 0
        spaced = path.with_name("spaced-" + path.name)
        spaced.write_text(json.dumps(json.loads(path.read_text()), indent=4))
        _, calls = traced(lambda: load(spaced))
        assert calls == 14
    for to_dict, from_dict, items, reused in [
            (simulator.transcript_to_dict, simulator.transcript_from_dict,
             result.transcripts, lambda transcript: 0),
            (simulator.ground_truth_to_dict, simulator.ground_truth_from_dict,
             result.ground_truths, _reused)]:
        for item in items:
            data, calls = traced(lambda: to_dict(item))
            assert calls == _words(data) - reused(item) > 0
            _, calls = traced(lambda: from_dict(data))
            assert calls == _words(data)
    synchronized = [truth for truth in result.ground_truths if truth.reader_pre == truth.tag_pre]
    assert synchronized
    for truth in synchronized:
        data, calls = traced(lambda: simulator.ground_truth_to_dict(truth))
        assert calls < _words(data)
    for record in records:
        data, calls = traced(lambda: verdict_dict("gossamer-2", record))
        assert calls == _words(data) == (9 if record["verdict"].fired else 0)


@pytest.mark.parametrize("protocol,spans,candidates", [
    (Protocol.GOSSAMER, 60, 0),
    (Protocol.GOSSAMER_MOD, 106, 43),
], ids=["gossamer", "gossamer-mod"])
def test_traced_work_counts_of_a_gossamer_campaign(tracing, protocol, spans, candidates):
    # Per-layer benchmark numbers compare only while these counts hold.  20
    # sessions call MixBits 3 times on the reader (60).  Each tag answers the
    # nonces the reader drew from the reader's derivation, with no call: the
    # original tag's one candidate is always those, and of the modified tag's
    # 43 search candidates 20 are; each of the other 23 makes 2 calls before
    # its C fails (60 + 2 * 23 = 106).  Only the modified tag searches.
    tags, store = provision(1, protocol, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_campaign(tags["tag-000"], store, CampaignConfig(20, seed=4))
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert sum(span[0] == "word96.mixbits" for span in tracer.spans) == spans
    assert tracer.counts["search.candidates"] == candidates
    if protocol is Protocol.GOSSAMER_MOD:
        assert tracer.counts["search.sessions"] == tracer.counts["search.accepted"] == 20


def test_traced_work_counts_of_a_sasi_campaign(tracing):
    # 20 sessions at drop rate 0.3: 6 lose D, and the session after each of
    # them looks up the tag's next IDS in vain, then its old IDS (20 + 6 = 26
    # lookups).  Every session reaches the challenge; the 14 whose D arrived
    # commit.
    tags, store = provision(1, Protocol.SASI, seed=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = run_campaign(tags["tag-000"], store,
                              CampaignConfig(20, seed=4, drop_d_rate=0.3))
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert result.summary["outcomes"] == {"d_dropped": 6, "mutual_success": 14}
    counts = Counter(span[0] for span in tracer.spans)
    assert {name: counts[name] for name in ("sasi.reader_begin", "sasi.tag_respond",
                                            "store.lookup", "store.commit")} == {
        "sasi.reader_begin": 20, "sasi.tag_respond": 20, "store.lookup": 26,
        "store.commit": 14}
