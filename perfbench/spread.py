"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-rl-canneal --seeds 1 2 3 4 5

For every metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
``(q3 - q1) / median`` next to the metric's bound in ``BENCHMARK.json``.
``--record LABEL`` appends the summary and every run's metrics and
simulated-statistics digests to ``perfbench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run; returns (detail, result, wall seconds)."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), time.monotonic() - started


def _digests(detail):
    """Simulated-statistics digests by op seed (traced runs: the op's)."""
    if "digests" in detail:
        return detail["digests"]
    return {str(detail["op_seed"]): detail["digest"]}


def summarize(results, bounds):
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    details, results, walls = [], [], []
    for seed in args.seeds:
        detail, result, wall = run_once(args.workload, seed, seconds, args.trace)
        details.append(detail)
        results.append(result)
        walls.append(wall)
        values = " ".join(f"{v['value']:.4g}" for v in result["metrics"].values())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}"
              f"/{result['attempted']} wall={wall:.1f}s speed={detail.get('host_speed', 1):.3f}"
              f" {values}", file=sys.stderr)
    summary = summarize(results, bounds)
    for name, row in summary.items():
        flag = ""
        if row["bound"] is not None and row["spread"] > row["bound"] / 3:
            flag = "  <-- spread above bound/3"
        bound = "" if row["bound"] is None else f" bound {row['bound']:.2f}"
        print(f"{name:48s} {row['median']:14.4f} {row['unit']:6s} "
              f"q1 {row['q1']:.4f} q3 {row['q3']:.4f} spread {row['spread']:.4f}{bound}{flag}")
    print(f"run wall s: max {max(walls):.1f} mean {statistics.mean(walls):.1f}")

    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append(
            {
                "label": args.record,
                "workload": args.workload,
                "trace": args.trace,
                "seconds": seconds,
                "seeds": args.seeds,
                "all_correct": all(r["correct"] for r in results),
                "summary": summary,
                "runs": [
                    {
                        "seed": seed,
                        "wall_s": wall,
                        "host_speed": detail.get("host_speed"),
                        "digests": _digests(detail),
                        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                    }
                    for seed, wall, detail, result in zip(args.seeds, walls, details, results)
                ],
            }
        )
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
