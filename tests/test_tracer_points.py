"""The benchmark tracer still finds every layer it patches.

perfbench/tracing.py wraps module attributes from outside the package.
A protocol table or attack registry that bound those functions at import
time would bypass the wrappers without any error, and the benchmark's
per-layer numbers would silently read zero; this test catches that.
"""

import importlib.util
from pathlib import Path

import pytest

from tagauth.simulator import (
    CampaignConfig,
    KeyMode,
    Protocol,
    evaluate_attack,
    provision,
    run_campaign,
)

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
                     CampaignConfig(protocol, 5, seed=4, drop_d_rate=0.3))
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
                          CampaignConfig(Protocol.GOSSAMER, 4, seed=4,
                                         key_mode=KeyMode.EXACT_ZERO))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evaluate_attack("gossamer-2", result.transcripts)
    finally:
        tracer.uninstall()
    assert tracer.counts["attack2.calls"] == 3
    assert tracer.counts["attack2.fired"] == 3
