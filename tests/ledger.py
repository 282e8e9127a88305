"""Exact interpreter work of a session and of an attack trial: its
``sys.settrace`` opcode events.

For each protocol, one freshly provisioned tag (tag seed 7) runs an
``iter_campaign`` (campaign seed 3) with ``f_trace_opcodes`` set on every
frame, and the opcode events are counted per code object.  For each attack
kind, a campaign of the regime it attacks (``REGIMES``, same seeds) is run
untraced and kept in memory, and ``evaluate_attack`` over it is counted the
same way.  Printed as JSON: the events a session, and a trial, and the code
objects with the most of them.

    PYTHONPATH=src python tests/ledger.py [SESSIONS]

SESSIONS defaults to 300.  The count is exact: it is the same on every run
of one Python, whatever the host's load or string-hash seed, so a change
can cite it parent -> change.  It differs between Python versions.  It
counts interpreter dispatch, not the C-level big-int work inside one
opcode, so it stands beside wall time, not in its place.  The traced pass
runs 20-50x slower than an untraced one.
"""

import json
import os
import sys
from collections import Counter, deque

from tagauth.attacks import ATTACKS
from tagauth.simulator import (CampaignConfig, KeyMode, NonceMode, Protocol, evaluate_attack,
                               iter_campaign, provision)

TAG_SEED, CAMPAIGN_SEED, SESSIONS = 7, 3, 300
TOP = 5  # code objects listed per protocol and per attack kind

# attack kind: the protocol it attacks and the forcing its campaign runs with
REGIMES = {
    "sasi": (Protocol.SASI, {}),
    "gossamer-1": (Protocol.GOSSAMER, {"nonce_mode": NonceMode.EXACT_ZERO}),
    "gossamer-2": (Protocol.GOSSAMER, {"key_mode": KeyMode.EXACT_ZERO}),
}


def campaign(protocol: Protocol, sessions: int, **forcing):
    """The lazy ``iter_campaign`` of one fresh tag of ``protocol``."""
    tags, store = provision(1, protocol, TAG_SEED)
    (tag,) = tags.values()
    return iter_campaign(tag, store, CampaignConfig(sessions, seed=CAMPAIGN_SEED, **forcing))


def opcode_events(function, *args) -> tuple[Counter, object]:
    """{code object: opcode events} of ``function(*args)``, and what it
    returned; the trace function set before is set again after."""
    events = Counter()

    def count(frame, event, arg):
        if event == "opcode":
            events[frame.f_code] += 1
        return count

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return count

    before = sys.gettrace()
    # Python 3.12 turns opcode events on at settrace only once some frame has
    # asked for them; this frame asks, and sets no f_trace, so it is not traced
    sys._getframe().f_trace_opcodes = True
    sys.settrace(call)
    try:
        returned = function(*args)
    finally:
        sys.settrace(before)
    return events, returned


def _name(code) -> str:
    """The file stem and qualified name of ``code``; the dataclass
    ``__init__``s, generated from a string, share one name."""
    stem = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{stem}.{getattr(code, 'co_qualname', code.co_name)}"


def _per(events: Counter, n: int, unit: str) -> dict:
    """The opcode events per ``unit`` over ``n`` of them, and the TOP code
    objects' events per ``unit``."""
    by_name = Counter()
    for code, count in events.items():
        by_name[_name(code)] += count
    return {f"events_per_{unit}": round(sum(by_name.values()) / n, 2),
            "top": {name: round(count / n, 2) for name, count in by_name.most_common(TOP)}}


def ledger(sessions: int = SESSIONS) -> dict:
    """The Python version, the session count, per protocol the opcode events
    a session, and per attack kind its trials and the events a trial, each
    with the TOP code objects' share.  A campaign is consumed by a C-level
    ``deque``, so no frame of this module is counted.  A trial is a pair of
    sessions, so fewer than two sessions is a ValueError."""
    if sessions < 2:
        raise ValueError(f"an attack trial needs two sessions, not {sessions}")
    protocols = {}
    for protocol in Protocol:
        events, _ = opcode_events(deque, campaign(protocol, sessions), 0)
        protocols[protocol.value] = _per(events, sessions, "session")
    attacks = {}
    for kind in ATTACKS:
        protocol, forcing = REGIMES[kind]
        transcripts, truths = zip(*campaign(protocol, sessions, **forcing))
        events, (_, summary) = opcode_events(evaluate_attack, kind, transcripts, truths)
        attacks[kind] = {"trials": summary["trials"], **_per(events, summary["trials"], "trial")}
    return {"python": "%d.%d" % sys.version_info[:2], "sessions": sessions,
            "protocols": protocols, "attacks": attacks}


if __name__ == "__main__":
    print(json.dumps(ledger(*map(int, sys.argv[1:2])), indent=2))
