"""``ledger.py``'s opcode counts, of sessions and of attack trials: exact
from run to run, and they leave no trace function behind."""

import sys

from ledger import REGIMES, ledger
from tagauth.attacks import ATTACKS


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
    # every kind is counted over a campaign of its regime, all 20 sessions
    # successful, so 19 consecutive pairs
    assert set(first["attacks"]) == set(ATTACKS) == set(REGIMES)
    assert all(entry["trials"] == 19 and entry["events_per_trial"] > 0 and entry["top"]
               for entry in first["attacks"].values())
