"""Machine-speed calibration for runs on shared, noisy hosts.

On a shared machine the same Python code runs 15-30% faster or slower
from one minute to the next: other tenants slow the host itself.  That
drift is far wider than any regression bound worth having.  The
benchmark therefore brackets every timed unit of work (a round, a
set-up, an attack pass) with a fixed reference slice of plain Python
work that shares no code with tagauth, and divides each time by how slow
the reference ran just then.

A normalized time is the time the unit would have taken on a machine
where the reference slice takes its nominal time.  The nominal times are
constants of the benchmark, measured once on a 2-CPU Xeon at 2.1 GHz
under Python 3.11, so normalized figures stay close to raw ones there.
Raw figures are kept in the results file next to them.

Two references exist, because the drift hits cache-resident computation
and walks over a large heap differently:

* ``compute``: 96-bit integer arithmetic, hex formatting, sorting a few
  hundred strings, dict lookups, attribute access and JSON round trips,
  all in cache.  For workloads whose time goes to protocol arithmetic
  and serialization.
* ``fleet``: a sorted walk over 10^4 records held in a dict, comparing
  96-bit fields, the access pattern of a linear store lookup over a
  large fleet.  Built once, outside any timing.
"""

import json
import random
from time import thread_time

NOMINAL_S = {"compute": 0.0105, "fleet": 0.0115}  # seconds per slice, fixed for good

_MASK = (1 << 96) - 1


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def compute_slice() -> int:
    total = 0
    for _ in range(10):
        z = 0x3243F6A8885A308D313198A2
        for i in range(1200):
            z = ((z >> 1) + z + z + i) & _MASK
        words = [format((z * k) & _MASK, "024x") for k in range(1, 301)]
        words.sort()
        table = {w: k for k, w in enumerate(words)}
        cells = [_Cell(w, table[w]) for w in words]
        total += sum(c.value for c in cells if c.key in table)
        decoded = json.loads(json.dumps([{"k": c.key, "v": c.value} for c in cells]))
        total += len(decoded)
    return total


class _Record:
    def __init__(self, label: str, rng: random.Random) -> None:
        self.label = label
        self.kind = "fleet"
        self.current = rng.getrandbits(96)
        self.previous = rng.getrandbits(96)
        self.secret = rng.getrandbits(96)


def fleet_table() -> dict:
    rng = random.Random(0)
    return {f"rec-{i:05d}": _Record(f"rec-{i:05d}", rng) for i in range(10_000)}


def fleet_slice(table: dict, walks: int) -> int:
    found = 0
    for _ in range(walks):
        for label in sorted(table):
            rec = table[label]
            if rec.kind != "fleet":
                continue
            if rec.current == -1:
                found += 1
            elif rec.previous == -1:
                found += 2
    return found


class Calibrator:
    """Times reference slices of one kind between units of work.

    ``tick()`` runs one reference slice and returns the slowdown factor
    for the unit just finished: the mean time of the slices before and
    after the unit, over the nominal time.  Divide a unit's time by the
    factor, or multiply a rate by it, to normalize.
    """

    def __init__(self, kind: str) -> None:
        if kind == "fleet":
            table = fleet_table()
            self._slice = lambda: fleet_slice(table, 9)
        else:
            self._slice = compute_slice
        self._nominal = NOMINAL_S[kind]
        self._last = self._time_slice()
        self.factors: list[float] = []

    def _time_slice(self) -> float:
        # CPU time, so a slice the host preempts still measures speed
        t0 = thread_time()
        self._slice()
        return thread_time() - t0

    def tick(self) -> float:
        now = self._time_slice()
        factor = (self._last + now) / 2 / self._nominal
        self._last = now
        self.factors.append(factor)
        return factor
