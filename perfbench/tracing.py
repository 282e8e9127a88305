"""Span tracing of tagauth's layers, installed from outside the package.

The tracer replaces public functions in tagauth's modules with wrappers
that record one span per call: name, start, end, parent span and the
session the call belongs to.  Nothing inside ``src/`` is edited; the
wrappers sit on the module attributes through which the layers call each
other (for example ``gossamer.mixbits_modified``, which is how the
Gossamer engine resolves MixBits).  Spans stay in memory and are
summarized, and optionally written out, when a pass ends.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans under one root add up to the
root's duration.
"""

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from tagauth import attacks, cli, gossamer, sasi, simulator
from tagauth import store as store_mod
from tagauth.gossamer import Variant

LAYERS = ("word96", "gossamer", "sasi", "store", "simulator", "attacks", "cli", "bench")

# (module, attribute, span name) for plain spans.  Several attributes map
# to one span name where one layer function is imported by several
# modules (the hex codecs) or has two variants (MixBits).
_SPANNED = (
    (gossamer, "mixbits_original", "word96.mixbits"),
    (gossamer, "mixbits_modified", "word96.mixbits"),
    (simulator, "to_hex", "word96.hex"),
    (simulator, "from_hex", "word96.hex"),
    (store_mod, "to_hex", "word96.hex"),
    (store_mod, "from_hex", "word96.hex"),
    (cli, "to_hex", "word96.hex"),
    (gossamer, "reader_begin", "gossamer.reader_begin"),
    (sasi, "reader_begin", "sasi.reader_begin"),
    (sasi, "tag_respond", "sasi.tag_respond"),
    (simulator, "provision", "simulator.provision"),
    (cli, "provision", "simulator.provision"),
    (simulator, "save_tags", "simulator.save_tags"),
    (cli, "save_tags", "simulator.save_tags"),
    (simulator, "load_tags", "simulator.load_tags"),
    (cli, "load_tags", "simulator.load_tags"),
    (cli, "transcript_to_dict", "simulator.serialize"),
    (cli, "ground_truth_to_dict", "simulator.serialize"),
    (cli, "transcript_from_dict", "simulator.parse"),
    (cli, "ground_truth_from_dict", "simulator.parse"),
    (cli, "evaluate_attack", "simulator.evaluate_attack"),
)

_STORE_METHODS = ("lookup", "commit", "save", "load")


class Tracer:
    """Collects spans and layer counters while installed.

    Create one per run, call ``install()`` before a traced pass and
    ``uninstall()`` after it; ``take()`` hands back the pass's spans and
    counters and starts a fresh pass.
    """

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.missing: set[str] = set()  # patch points the program no longer has
        self._reset()

    def _reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, session]
        self.session: int | None = None
        self._next_session = 0
        self._search: int | None = None  # candidates in the open modified search
        self.counts: Counter = Counter()
        self.search_hist: Counter = Counter()

    # -- span recording ---------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.session]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _spanned(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(result)
            return result
        return traced

    # -- layer-specific wrappers --------------------------------------------

    def _run_session(self, fn):
        inner = self._spanned("simulator.run_session", fn)

        def traced(*args, **kwargs):
            self.session = self._next_session
            self._next_session += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.session = None
        return traced

    def _tag_respond(self, fn):
        inner = self._spanned("gossamer.tag_respond", fn)

        def traced(*args, **kwargs):
            variant = args[4] if len(args) > 4 else kwargs.get("variant")
            if variant is not Variant.MODIFIED:
                return inner(*args, **kwargs)
            self._search = 0
            try:
                result = inner(*args, **kwargs)
            finally:
                candidates, self._search = self._search, None
            self.counts["search.candidates"] += candidates
            self.counts["search.sessions"] += 1
            self.counts["search.accepted"] += result is not None
            self.search_hist[candidates] += 1
            return result
        return traced

    def _derive_auth(self, fn):
        # A candidate of the modified search is one derive_auth call made
        # while a modified tag_respond is open; counted, not spanned.
        def counted(*args, **kwargs):
            if self._search is not None:
                self._search += 1
            return fn(*args, **kwargs)
        return counted

    def _after_lookup(self, result) -> None:
        self.counts["lookup.calls"] += 1
        if result is not None:
            self.counts["lookup.hits"] += 1
            self.counts["lookup.old_hits"] += result[1] == store_mod.MATCH_OLD

    def _after_attack2(self, verdict) -> None:
        self.counts["attack2.calls"] += 1
        self.counts["attack2.fired"] += bool(verdict.fired)

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module, attr, name in _SPANNED:
            self._patch(module, attr, lambda fn, name=name: self._spanned(name, fn))
        self._patch(simulator, "run_session", self._run_session)
        self._patch(gossamer, "tag_respond", self._tag_respond)
        self._patch(gossamer, "derive_auth", self._derive_auth)
        self._patch(attacks, "gossamer_attack2",
                    lambda fn: self._spanned("attacks.gossamer_attack2", fn,
                                             self._after_attack2))
        for method in _STORE_METHODS:
            after = self._after_lookup if method == "lookup" else None
            name = f"store.{method}"
            if method == "load":
                self._patch(store_mod.Store, method,
                            lambda d, name=name: classmethod(
                                self._spanned(name, d.__func__)))
            else:
                self._patch(store_mod.Store, method,
                            lambda fn, name=name, after=after: self._spanned(name, fn, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[list[list], Counter, Counter]:
        """Hand over this pass's spans and counters and start a fresh pass."""
        taken = self.spans, self.counts, self.search_hist
        self._reset()
        return taken


def summarize(spans: list[list]) -> dict:
    """Per-name totals and per-layer self times for one pass.

    Returns ``{"names": {name: {"calls", "time_s", "self_s", "durations"}},
    "layers": {root_name: {layer: self_s}}, "roots": {root_name: wall_s}}``.
    A layer is the part of a span name before the first dot.
    """
    child_time = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            root[i] = root[parent]
        else:
            root[i] = i
    names: dict = defaultdict(lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0,
                                       "durations": []})
    layers: dict = defaultdict(lambda: dict.fromkeys(LAYERS, 0.0))
    roots: dict = defaultdict(float)
    for i, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        entry = names[name]
        entry["calls"] += 1
        entry["time_s"] += duration
        entry["self_s"] += duration - child_time[i]
        entry["durations"].append(duration)
        root_name = spans[root[i]][0]
        layers[root_name][name.split(".", 1)[0]] += duration - child_time[i]
        if parent < 0:
            roots[root_name] += duration
    return {"names": dict(names), "layers": dict(layers), "roots": dict(roots)}


def write_spans(spans: list[list], path) -> None:
    """One JSON array per line: [id, name, start_ns, end_ns, parent, session].

    Times are nanoseconds from the first span's start; parent is null for
    a root span and session null outside any session.
    """
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent, session) in enumerate(spans):
            fh.write(json.dumps([i, name, round((start - origin) * 1e9),
                                 round((end - origin) * 1e9),
                                 None if parent < 0 else parent, session],
                                separators=(",", ":")) + "\n")


@dataclass
class PassResult:
    """One pass of a traced run: set-up plus one default-size round."""

    stats: object  # workloads.RoundStats
    spans: list
    counts: Counter
    search_hist: Counter
    outcomes: Counter
    file_bytes: Counter
    summary: dict | None = None


def _exact(p: PassResult) -> tuple:
    calls = {name: entry["calls"] for name, entry in p.summary["names"].items()}
    return (dict(p.counts), dict(p.search_hist), dict(p.outcomes), calls,
            dict(p.file_bytes))


def layer_metrics(untraced: list[PassResult], traced: list[PassResult],
                  ledger) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, plus its self-checks.

    Counts come from the first traced pass and must repeat exactly in
    every other pass of the same seed.  Times are means over the traced
    passes, so the layer self times still add up to the traced wall time.
    """
    first = traced[0]
    repeated = all(_exact(p) == _exact(first) for p in traced) and all(
        p.outcomes == first.outcomes for p in untraced)
    ledger.count("exact counts repeat", 1, not repeated)

    n = len(traced)
    names = [p.summary["names"] for p in traced]

    def mean(name: str, key: str) -> float:
        return sum(s.get(name, {}).get(key, 0.0) for s in names) / n

    def calls(name: str) -> int:
        return names[0].get(name, {}).get("calls", 0)

    def p50_us(name: str) -> float:
        pooled = [d for s in names for d in s.get(name, {}).get("durations", [])]
        return statistics.median(pooled) * 1e6 if pooled else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def root_mean(root: str) -> float:
        return sum(p.summary["roots"].get(root, 0.0) for p in traced) / n

    c = first.counts
    m = {
        "word96.mixbits.calls": (calls("word96.mixbits"), "count"),
        "word96.mixbits.time_s": (mean("word96.mixbits", "time_s"), "s"),
        "word96.hex.calls": (calls("word96.hex"), "count"),
        "word96.hex.time_s": (mean("word96.hex", "time_s"), "s"),
        "gossamer.reader_begin.time_s": (mean("gossamer.reader_begin", "time_s"), "s"),
        "gossamer.tag_respond.time_s": (mean("gossamer.tag_respond", "time_s"), "s"),
        "gossamer.tag_respond.p50_us": (p50_us("gossamer.tag_respond"), "us"),
        "gossamer.search.candidates": (c["search.candidates"], "count"),
        "gossamer.search.max_per_session": (max(first.search_hist, default=0), "count"),
        "gossamer.search.accept_ratio": (ratio(c["search.accepted"],
                                               c["search.candidates"]), "ratio"),
        "sasi.reader_begin.time_s": (mean("sasi.reader_begin", "time_s"), "s"),
        "sasi.tag_respond.time_s": (mean("sasi.tag_respond", "time_s"), "s"),
        "store.lookup.calls": (calls("store.lookup"), "count"),
        "store.lookup.time_s": (mean("store.lookup", "time_s"), "s"),
        "store.lookup.p50_us": (p50_us("store.lookup"), "us"),
        "store.lookup.hit_ratio": (ratio(c["lookup.hits"], c["lookup.calls"]), "ratio"),
        "store.lookup.old_ratio": (ratio(c["lookup.old_hits"], c["lookup.hits"]), "ratio"),
        "store.commit.calls": (calls("store.commit"), "count"),
        "store.commit.time_s": (mean("store.commit", "time_s"), "s"),
        "store.save.time_s": (mean("store.save", "time_s"), "s"),
        "store.load.time_s": (mean("store.load", "time_s"), "s"),
        "store.bytes": (first.file_bytes["store"], "bytes"),
        "simulator.run_session.calls": (calls("simulator.run_session"), "count"),
        "simulator.run_session.self_s": (mean("simulator.run_session", "self_s"), "s"),
        "simulator.provision.time_s": (mean("simulator.provision", "time_s"), "s"),
        "simulator.save_tags.time_s": (mean("simulator.save_tags", "time_s"), "s"),
        "simulator.load_tags.time_s": (mean("simulator.load_tags", "time_s"), "s"),
        "simulator.serialize.time_s": (mean("simulator.serialize", "time_s"), "s"),
        "simulator.parse.time_s": (mean("simulator.parse", "time_s"), "s"),
        "simulator.evaluate_attack.self_s": (mean("simulator.evaluate_attack", "self_s"), "s"),
        "attacks.gossamer_attack2.calls": (calls("attacks.gossamer_attack2"), "count"),
        "attacks.gossamer_attack2.time_s": (mean("attacks.gossamer_attack2", "time_s"), "s"),
        "attacks.fired_ratio": (ratio(c["attack2.fired"], c["attack2.calls"]), "ratio"),
        "cli.campaign.self_s": (mean("cli.campaign", "self_s"), "s"),
        "cli.attack.self_s": (mean("cli.attack", "self_s"), "s"),
        "cli.jsonl.bytes_written": (first.file_bytes["jsonl_written"], "bytes"),
        "cli.jsonl.bytes_read": (first.file_bytes["jsonl_read"], "bytes"),
    }
    wall = root_mean("bench.round")
    layer_self = {layer: sum(p.summary["layers"].get("bench.round", {}).get(layer, 0.0)
                             for p in traced) / n for layer in LAYERS}
    for layer, value in layer_self.items():
        m[f"{layer}.self_s"] = (value, "s")
    m["trace.wall_s"] = (wall, "s")
    m["setup.wall_s"] = (root_mean("bench.setup"), "s")
    ledger.count("layer self times add up", 1,
                 abs(sum(layer_self.values()) - wall) > 1e-6 * wall)
    m["trace_overhead"] = (
        statistics.median(p.stats.session_wall for p in traced)
        / statistics.median(p.stats.session_wall for p in untraced), "x")
    detail = {
        "search_histogram": {str(k): v for k, v in sorted(first.search_hist.items())},
        "layer_share": {layer: ratio(v, wall) for layer, v in layer_self.items()},
        "outcomes": dict(sorted(first.outcomes.items())),
    }
    return m, detail
