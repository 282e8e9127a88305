"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 [--workload NAME ...]
                                [--output perfbench/results/BENCH_x.json]

Each run is a fresh process of run.py, one after another.  For every
end-to-end metric of every workload this prints the median of the runs
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
BENCHMARK.json's bounds are meant to hold at least three such spreads.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--output")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            rows[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(values),
                          "bound": bound, "unit": runs[0]["metrics"][name]["unit"],
                          "values": values}
            print(f"{workload:22s} {name:20s} median {rows[name]['median']:14.6g} "
                  f"spread {rows[name]['spread']:7.4f} (bound {bound})", flush=True)
        report["workloads"][workload] = {
            "metrics": rows,
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
        }
    env_file = ROOT / ".perfbench" / "results" / f"{workload}-seed{args.seeds[-1]}-trace0.json"
    report["environment"] = json.loads(env_file.read_text())["environment"]
    if args.output:
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
