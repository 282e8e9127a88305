"""tagauth benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mod-campaign --seed 3 --seconds 10 --trace 0

Run from the root of a source checkout; nothing needs building.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a separate traced run.  The run
environment and further detail go to ``.perfbench/results/`` and, for
traced runs, the spans of one traced pass to ``.perfbench/traces/``.

Exit status: 0 when the run finished (``correct`` says whether the
outputs checked out); 2 when the checkout lacks the program or its test
oracles, or the arguments are wrong.
"""

import argparse
import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

from calibrate import Calibrator
from checks import load_oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 1
MIN_ROUNDS = 5
MIN_ATTACK_PASSES = 5
ATTACK_SHARE = 0.15  # of --seconds, for workloads with a separate attack step


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = root / ".git" / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
    }


def check_digest(cls, tmp: Path, ledger, oracles, pinned: dict) -> str:
    """Run the workload at its default size and seed; compare the digest."""
    w = cls(DEFAULT_SEED, tmp / "digest", ledger, oracles)
    w.setup()
    w.run_round(0)
    w.check_round(0)
    digest = w.digest()
    ledger.count("determinism digest", 1, digest != pinned.get(cls.name),
                 f"(got {digest})")
    return digest


def _unit(fn):
    """Run one timed unit of work; return its result and wall time.

    As in ``timeit``, the cyclic garbage collector is off for the unit and
    runs between units instead, so that where its pauses happen to fall
    does not set the tail.  Sessions make no reference cycles, so
    reference counting still frees them as they go; each CLI call leaves
    a few hundred cyclic objects (its argument parser) for the collection
    after the unit.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        result = fn()
        return result, perf_counter() - t0
    finally:
        gc.enable()


def timed_run(cls, args, tmp: Path, ledger, oracles) -> tuple[dict, dict]:
    """End-to-end metrics, untraced.  Every timed unit is normalized by the
    reference slices around it (see calibrate.py); raw figures go to detail."""
    cal = Calibrator(cls.reference)
    w = cls(args.seed, tmp / "run", ledger, oracles)
    w.setup()
    w.run_round(0)  # warm-up: checked, not timed
    w.check_round(0)
    # set-up is timed on a second world, between rounds, so that its
    # samples see the machine in the same states as the rounds do
    side = cls(args.seed, tmp / "setup", ledger, oracles)
    share = 1.0 if cls.attack_in_round else 1.0 - ATTACK_SHARE
    rounds = max(MIN_ROUNDS, round(args.seconds * share / cls.round_s))
    setup_every = max(1, rounds // cls.setup_reps)

    w.latencies = array("d")
    rates, walls, attack_rates, raw_rates, setups, raw_setups = [], [], [], [], [], []
    p50s, p99s = [], []
    cal.tick()
    for r in range(1, rounds + 1):
        stats, wall = _unit(lambda: w.run_round(r))
        factor = cal.tick()
        gc.collect()
        raw_rates.append(stats.sessions / stats.session_wall)
        rates.append(raw_rates[-1] * factor)
        walls.append(wall / factor)
        if stats.attack_wall:
            attack_rates.append(stats.trials / stats.attack_wall * factor)
        p50s.append(_percentile(w.latencies, 0.50) / factor)
        p99s.append(_percentile(w.latencies, 0.99) / factor)
        del w.latencies[:]
        w.check_round(r)
        if r % setup_every == 0 and len(setups) < cls.setup_reps:
            _, wall = _unit(side.setup)
            raw_setups.append(wall)
            setups.append(wall / cal.tick())
            gc.collect()

    if not cls.attack_in_round:
        cal.tick()
        passes = round(args.seconds * ATTACK_SHARE / cls.attack_pass_s)
        for _ in range(max(MIN_ATTACK_PASSES, passes)):
            records, wall = _unit(w.attack)
            factor = cal.tick()
            gc.collect()
            if not attack_rates:
                ledger.count("attack trials", len(records), w.attack_failed(records))
            attack_rates.append(len(records) / wall * factor)
    w.final_checks()

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "sessions_per_s": (_median(rates), "1/s"),
        "session_p50_us": (_median(p50s) * 1e6, "us"),
        "session_p99_us": (_median(p99s) * 1e6, "us"),
        "attack_trials_per_s": (_median(attack_rates), "1/s"),
        "wall_s": (_median(walls), "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    detail = {
        "rounds": len(rates),
        "sessions_per_round": cls.round_sessions,
        "latency_samples": len(rates) * cls.round_sessions,
        "setup_samples": len(raw_setups),
        "attack_samples": len(attack_rates),
        "raw_sessions_per_s": _median(raw_rates),
        "raw_setup_s": _median(raw_setups),
        "slowdown_factor": {"median": _median(cal.factors), "min": min(cal.factors),
                            "max": max(cal.factors)},
        "outcomes": dict(sorted(w.outcomes.items())),
    }
    return metrics, detail


def traced_run(cls, args, tmp: Path, ledger, oracles) -> tuple[dict, dict]:
    from tracing import PassResult, Tracer, layer_metrics, summarize, write_spans

    tracer = Tracer()

    def one_pass(traced: bool, index: int):
        w = cls(args.seed, tmp / f"pass-{index}", ledger, oracles,
                span=tracer.span if traced else None)
        if traced:
            tracer.install()
        try:
            with w.span("bench.setup"):
                w.setup()
            with w.span("bench.round"):
                stats = w.run_round(0)
        finally:
            tracer.uninstall()
        spans, counts, hist = tracer.take()
        w.check_round(0)
        w.final_checks()
        shutil.rmtree(w.dir, ignore_errors=True)
        return PassResult(stats, spans if traced else [], counts, hist,
                          Counter(w.outcomes), Counter(w.file_bytes))

    one_pass(False, 0)  # warm-up
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < deadline:
        untraced.append(one_pass(False, len(untraced) + len(traced) + 1))
        result = one_pass(True, len(untraced) + len(traced) + 1)
        if len(traced) == 0:
            spans_path = OUT / "traces" / f"{cls.name}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            write_spans(result.spans, spans_path)
        result.summary = summarize(result.spans)
        result.spans = []
        traced.append(result)

    metrics, detail = layer_metrics(untraced, traced, ledger)
    detail["passes"] = len(traced)
    detail["untraced_outcomes"] = dict(sorted(untraced[0].outcomes.items()))
    detail["not_traced"] = sorted(tracer.missing)
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tagauth" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: {ROOT} is not a tagauth source checkout "
              "(src/tagauth and tests/oracles.py are needed)", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, str(ROOT / "src"))

    # The CLI logs each campaign at INFO; keep stderr to warnings.
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING,
                        format="%(levelname)s %(message)s")
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    pinned = json.loads((HERE / "digests.json").read_text())["digests"]
    tmp = OUT / "tmp" / f"{cls.name}-{os.getpid()}"
    ledger = Ledger()
    oracles = load_oracles(ROOT)
    env = environment(args)
    try:
        digest = check_digest(cls, tmp, ledger, oracles, pinned)
        run = traced_run if args.trace else timed_run
        metrics, detail = run(cls, args, tmp, ledger, oracles)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    detail["digest"] = digest
    detail["failed_ratio"] = ledger.failed / ledger.attempted
    detail["failures"] = ledger.notes
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"environment": env, "result": result, "detail": detail}
    (results_dir / f"{cls.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    for note in ledger.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    print("# environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
