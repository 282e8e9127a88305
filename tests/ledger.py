"""Exact interpreter work of a session: its ``sys.settrace`` opcode events.

For each protocol, one freshly provisioned tag (tag seed 7) runs an
``iter_campaign`` (campaign seed 3) with ``f_trace_opcodes`` set on every
frame, and the opcode events are counted per code object.  Printed as JSON:
the events a session, and the code objects with the most of them.

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
from collections import Counter

from tagauth.simulator import CampaignConfig, Protocol, iter_campaign, provision

TAG_SEED, CAMPAIGN_SEED, SESSIONS = 7, 3, 300
TOP = 5  # code objects listed per protocol


def opcode_events(protocol: Protocol, sessions: int) -> Counter:
    """{code object: opcode events} of a ``sessions``-session campaign of
    one tag; the trace function set before is set again after."""
    tags, store = provision(1, protocol, TAG_SEED)
    (tag,) = tags.values()
    run = iter_campaign(tag, store, CampaignConfig(sessions, seed=CAMPAIGN_SEED))
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
        for _ in run:
            pass
    finally:
        sys.settrace(before)
    return events


def _name(code) -> str:
    """The file stem and qualified name of ``code``; the dataclass
    ``__init__``s, generated from a string, share one name."""
    stem = os.path.splitext(os.path.basename(code.co_filename))[0]
    return f"{stem}.{getattr(code, 'co_qualname', code.co_name)}"


def ledger(sessions: int = SESSIONS) -> dict:
    """The Python version, the session count, and per protocol the opcode
    events a session and the TOP code objects' events a session."""
    protocols = {}
    for protocol in Protocol:
        by_name = Counter()
        for code, events in opcode_events(protocol, sessions).items():
            by_name[_name(code)] += events
        protocols[protocol.value] = {
            "events_per_session": round(sum(by_name.values()) / sessions, 2),
            "top": {name: round(events / sessions, 2)
                    for name, events in by_name.most_common(TOP)},
        }
    return {"python": "%d.%d" % sys.version_info[:2], "sessions": sessions,
            "protocols": protocols}


if __name__ == "__main__":
    print(json.dumps(ledger(*map(int, sys.argv[1:2])), indent=2))
