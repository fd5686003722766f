"""Self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json for one pass (--seconds 1), untraced
and traced, and confirms that each run exits 0 and that its last line
carries exactly the metrics BENCHMARK.json names, with their units and
finite values.  It also copies BENCHMARK.json and the benchmark's files
into .perfbench_out/bare/, where the library sources are absent, and
confirms that the benchmark exits non-zero there without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(bench: dict, cwd: Path, workload: str, trace: int):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=200)


def _problems(bench: dict, proc, trace: int) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append("attempted is not a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed is not a whole number")
    wanted = {m["name"]: m["unit"] for m in bench["end_to_end" if trace == 0 else "per_layer"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        problems.append(f"missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if m.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems = _problems(bench, _run(bench, ROOT, w["name"], trace), trace)
            failures += bool(problems)
            print(f"{w['name']:14s} trace={trace} {'ok' if not problems else problems}",
                  flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(bench, bare, bench["workloads"][0]["name"], 0)
    printed = proc.stdout.strip()
    ok = proc.returncode != 0 and not printed
    failures += not ok
    print(f"{'bare copy':14s} exit={proc.returncode} "
          f"{'ok' if ok else 'printed: ' + printed[-200:]}")
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
