"""``ledger.py``'s opcode count: exact from run to run, and it leaves no
trace function behind."""

import sys

from ledger import ledger


def test_two_runs_count_the_same_and_leave_no_trace_function():
    before = sys.gettrace()
    first = ledger(20)
    assert sys.gettrace() is before
    assert ledger(20) == first
    assert sys.gettrace() is before
    assert first["sessions"] == 20
    assert set(first["protocols"]) == {"sasi", "gossamer", "gossamer-mod"}
    assert all(entry["events_per_session"] > 0 and entry["top"]
               for entry in first["protocols"].values())
