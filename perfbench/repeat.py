"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads grid,series-bound --seeds 1-10 \
        --out perfbench/baseline.json

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json.  --out writes every run's values and these summaries.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import environment

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list, bound=None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    report = {"environment": environment(), "run_seconds": bench["run_seconds"],
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {
            name: summarize([r["metrics"][name]["value"] for r in runs], bounds[name])
            for name in bounds
        }
        for name, s in summary.items():
            flag = "" if s.get("bound") is None or s["spread"] <= s["bound"] / 3 else "  > bound/3"
            print(f"  {name:36s} median={s['median']:.6g} spread={s['spread']} "
                  f"bound={s.get('bound')}{flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
