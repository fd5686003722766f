"""treeshift benchmark: generate -> JSON -> verify, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

This process is the only client, a closed loop that sends the next
request when the previous one has answered, and it runs at most one worker
process (perfbench/worker.py) at a time.  Workers import the library from
`src`.  A run measures whole passes over its workload's fixed request set,
in an order and with mutation targets drawn from --seed: the first pass
always runs, and another starts only while it is expected to end within
--seconds.  Every operation's outputs are checked (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs every generate
and intact verify twice, untraced and traced, in alternating order, and
every mutated verify traced; it prints the per-layer metrics, the tracing
overhead and the share of each operation its layer spans account for.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Per-operation records and
spans are written to .perfbench_out/ in the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import checks
import mutate

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
RUN_CAP_S = 165  # a run must exit within 180 s


@dataclass(frozen=True)
class Cell:
    """One generate request, as the worker builds it."""

    n: int
    kappa: object  # int or "inf"
    q: str
    window: tuple = (10, 50, 30)  # max_trunk, max_branch, max_depth
    width: str = "1/1000000000000"
    threshold: str = "10"

    def spec(self) -> dict:
        return asdict(self)

    def __str__(self):
        return f"n={self.n} kappa={self.kappa} q={self.q} window={self.window}"


# Workloads.  Each pass runs every cell once.  The whole 24-cell grid
# (generate and verify, plus the twelve mutated documents) takes about
# 90 s on a 2-vCPU Xeon, and a seed-drawn subset of it makes the p50 move by 10-15 %
# between seeds, so the grid pass is the half of the grid that has each
# (n, kappa) once, with q alternating, and includes the zeta(3) cell.
GRID = tuple(
    Cell(n, kappa, "linear" if (n + i) % 2 else "mixed")
    for n in (1, 2, 3)
    for i, kappa in enumerate((0, 1, 3, "inf"))
)
# linear q only: mixed q's witness is a few hundred terms, so its cells cost
# a quarter as much and put the median between two modes
SERIES_BOUND = tuple(
    Cell(n, kappa, "linear", window=(3, 8, 2), threshold="11")
    for n in (1, 2, 3)
    for kappa in (3, "inf")
)
WIDE_WINDOW = tuple(
    Cell(2, "inf", q, window=(10, b, d))
    for q in ("linear", "mixed")
    for b in (50, 100)
    for d in (2, 30)
)
# generating these fills the series caches every WIDE_WINDOW request uses
WIDE_WARMUP = tuple(Cell(2, "inf", q, window=(10, 1, 1)) for q in ("linear", "mixed"))
WIDE_SETUPS = 3


class WorkerError(Exception):
    pass


class RunExpired(Exception):
    pass


class Worker:
    """One worker process.  `ready_at - spawned_at` is spawn-to-import time."""

    def __init__(self, serial: int, deadline: float):
        self.serial = serial
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        try:
            self._read()
        except WorkerError:
            self.close()
            raise
        self.ready_at = time.perf_counter()

    def call(self, msg: dict) -> dict:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise WorkerError("worker closed its input") from None
        return self._read()

    def _read(self) -> dict:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0 or not select.select([self.proc.stdout], [], [], remaining)[0]:
            self.proc.kill()
            raise WorkerError("worker did not answer before the run cap")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else text


class Run:
    def __init__(self, seed: int, seconds: int, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.start = time.perf_counter()
        self.cap = self.start + RUN_CAP_S
        self.shared = None  # the long-lived worker of wide-window
        self.clock_from = self.start  # wall time for verified_per_s
        self.times = defaultdict(list)  # untraced durations by kind
        self.traced = defaultdict(list)  # traced operations (dicts)
        self.setup = []
        self.sizes = []
        self.peaks = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.verified = 0
        self.ops = []
        self.spans = []
        self.cycles = 0
        self._serial = 0

    # --- workers ---

    def spawn(self) -> Worker:
        if time.perf_counter() > self.cap:
            raise RunExpired
        self._serial += 1
        return Worker(self._serial, self.cap)

    @contextmanager
    def worker(self):
        """The shared worker, or a fresh one whose set-up is recorded."""
        if self.shared is not None:
            yield self.shared
            return
        w = self.spawn()
        self.setup.append(w.ready_at - w.spawned_at)
        try:
            yield w
        finally:
            w.close()

    def _call(self, w: Worker, msg: dict) -> dict:
        self._serial += 1
        msg = {**msg, "op_id": self._serial}
        try:
            out = w.call(msg)
        except WorkerError as exc:
            return {"error": str(exc)}
        self.peaks[w.serial] = max(self.peaks.get(w.serial, 0.0), out["rss_mb"])
        return out

    # --- operations ---

    def _record(self, record: dict, missed: list, intact: bool):
        """Keep the per-operation record; count it if a check was missed."""
        record["missed"] = missed
        if missed:
            self.failed += 1
            if intact:
                self.correct = False
        self.ops.append(record)

    def generate(self, cell: Cell, traced: bool):
        """Generate `cell`; return the artifact text, or None on failure."""
        self.attempted += 1
        with self.worker() as w:
            out = self._call(w, {"op": "generate", "request": cell.spec(), "trace": traced})
        record = {"op": "generate", "traced": traced, "request": cell.spec()}
        if "error" in out:
            self._record(record, [_last_line(out["error"])], intact=True)
            return None
        text = out["doc"]
        data = text.encode()
        try:
            doc = json.loads(text)
            missed = checks.generated(doc, cell)
            nd = doc["certificates"]["nd"]
            record.update(
                witness_index=nd[str(cell.n + 1)].get("witness_index"),
                verdicts={m: c["verdict"] for m, c in sorted(nd.items())},
            )
        except (KeyError, TypeError, ValueError) as exc:
            missed = [f"malformed artifact: {exc!r}"]
        record.update(
            sha256=hashlib.sha256(data).hexdigest(),
            bytes=len(data),
            generate_s=out["generate_s"],
            encode_s=out["encode_s"],
        )
        self._record(record, missed, intact=True)
        if traced:
            self._keep_trace("generate", cell, out, record)
        else:
            self.times["generate"].append(out["generate_s"])
            self.sizes.append(len(data))
        return None if missed else text

    def verify(self, cell: Cell, text: str, traced: bool, mutation=None) -> bool:
        """Verify a document; return whether the outcome was the right one."""
        intact = mutation is None
        self.attempted += 1
        with self.worker() as w:
            out = self._call(w, {"op": "verify", "doc": text, "trace": traced})
        record = {"op": "verify" if intact else "reject", "traced": traced,
                  "request": cell.spec(), "mutation": mutation}
        if "error" in out:
            self._record(record, [_last_line(out["error"])], intact)
            return False
        missed = checks.verified(out, intact)
        record.update({k: out.get(k) for k in ("verify_s", "decode_s", "passed",
                                               "records", "failing", "raised")})
        self._record(record, missed, intact)
        if traced:
            self._keep_trace("verify" if intact else "reject", cell, out, record)
        else:
            self.times["verify" if intact else "reject"].append(out["verify_s"])
        return not missed

    def _keep_trace(self, kind: str, cell: Cell, out: dict, record: dict):
        self.spans.extend(out["spans"])
        self.traced[kind].append({"cell": cell, "out": out, "record": record})

    def cycle(self, cell: Cell):
        """Generate and verify one cell; return the artifact text or None.

        Traced runs do both steps untraced and traced, alternating which
        goes first, and require the two artifacts to be byte-identical."""
        modes = (False, True) if self.trace else (False,)
        self.cycles += 1
        if self.cycles % 2:
            modes = modes[::-1]
        texts = {traced: self.generate(cell, traced) for traced in modes}
        text = texts[False]
        if text is None:
            return None
        if self.trace and texts[True] != text:
            self.attempted += 1
            self._record({"op": "compare", "request": cell.spec()},
                         ["traced artifact differs from untraced"], intact=True)
            return None
        for traced in modes:
            if self.verify(cell, text, traced):
                self.verified += not traced
        return text

    def reject(self, cell: Cell, text: str, kind: str):
        doc = json.loads(text)
        where = mutate.apply(kind, doc, self.rng)
        mutated = json.dumps(doc, sort_keys=True, indent=1) + "\n"
        self.verify(cell, mutated, self.trace, mutation={"kind": kind, "edit": where})

    # --- passes ---

    def run_passes(self, one_pass):
        deadline = self.start + self.seconds
        try:
            while True:
                t = time.perf_counter()
                one_pass()
                now = time.perf_counter()
                if now + (now - t) > deadline:
                    break
        except RunExpired:
            pass


def grid_pass(run: Run):
    """Each cell: generate, verify, then one mutated verify, every operation
    in a fresh worker.  The twelve mutation kinds go one to a cell, by a
    seeded matching in which each kind applies to its cell."""
    cells = list(GRID)
    run.rng.shuffle(cells)
    kinds = list(mutate.KINDS)
    run.rng.shuffle(kinds)
    while not all(mutate.applies(k, c) for k, c in zip(kinds, cells)):
        run.rng.shuffle(kinds)
    for cell, kind in zip(cells, kinds, strict=True):
        text = run.cycle(cell)
        if text:
            run.reject(cell, text, kind)


def series_bound_pass(run: Run):
    """Each cell: generate, verify, then one mutated verify, every operation
    in a fresh worker; the six numeric mutation kinds go one to a cell."""
    cells = list(SERIES_BOUND)
    run.rng.shuffle(cells)
    kinds = list(mutate.NUMERIC_KINDS)
    run.rng.shuffle(kinds)
    for cell, kind in zip(cells, kinds, strict=True):
        text = run.cycle(cell)
        if text:
            run.reject(cell, text, kind)


def wide_window_pass(run: Run):
    """Each request twice in the long-lived worker; one numeric mutation of
    each q's smallest window."""
    cells = list(WIDE_WINDOW) * 2
    run.rng.shuffle(cells)
    mutated = set()
    for cell in cells:
        text = run.cycle(cell)
        if text and cell.window == (10, 50, 2) and cell not in mutated:
            mutated.add(cell)
            run.reject(cell, text, run.rng.choice(mutate.NUMERIC_KINDS))


def wide_window_setup(run: Run):
    """Spawn, import and warm the series caches WIDE_SETUPS times; the last
    worker serves the run."""
    for i in range(WIDE_SETUPS):
        w = run.spawn()
        for cell in WIDE_WARMUP:
            out = run._call(w, {"op": "warm", "request": cell.spec(), "trace": False})
            if "error" in out:
                w.close()
                raise WorkerError(_last_line(out["error"]))
        run.setup.append(time.perf_counter() - w.spawned_at)
        if i < WIDE_SETUPS - 1:
            w.close()
    run.peaks.clear()
    run.shared = w
    run.clock_from = w.spawned_at


WORKLOADS = {
    "grid": (None, grid_pass),
    "series-bound": (None, series_bound_pass),
    "wide-window": (wide_window_setup, wide_window_pass),
}


# --- metrics ---


def tail(values):
    """(value, percentile): the highest nearest-rank percentile that leaves
    at least ten samples above it; with ten samples or fewer no percentile
    does, and the maximum is reported."""
    v = sorted(values)
    if len(v) <= 10:
        return v[-1], 100.0
    return v[-11], 100.0 * (len(v) - 10) / len(v)


def end_to_end(run: Run, wall: float):
    """(name, value, unit, note) of every end-to-end metric."""
    t = run.times
    out = [("setup_s", statistics.median(run.setup), "s", f"n={len(run.setup)}")]
    for kind in ("generate", "verify"):
        out.append((f"{kind}_s.p50", statistics.median(t[kind]), "s", f"n={len(t[kind])}"))
        value, pct = tail(t[kind])
        out.append((f"{kind}_s.tail", value, "s", f"p{pct:.0f} of n={len(t[kind])}"))
    out.append(("reject_s.p50", statistics.median(t["reject"]), "s", f"n={len(t['reject'])}"))
    out.append(("verified_per_s", run.verified / wall, "1/s",
                f"{run.verified} intact artifacts in {wall:.1f} s"))
    out.append(("artifact_kb", statistics.median(run.sizes) / 1000, "kB", f"n={len(run.sizes)}"))
    out.append(("peak_rss_mb", statistics.median(run.peaks.values()), "MB",
                f"n={len(run.peaks)} workers"))
    return out


def _durations(out: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in out["spans"] if s["name"] == name)


def _self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _layer_sum(out: dict, root_name: str) -> float:
    """Summed self times of the layer spans under the operation's root
    (spans are stored parents first)."""
    root = next(s for s in out["spans"] if s["name"] == root_name)
    inside, below = {root["id"]}, []
    for s in out["spans"]:
        if s["parent"] in inside:
            inside.add(s["id"])
            below.append(s)
    own = _self_times(below)
    return sum(own.values())


def _self_of(out: dict, name: str) -> float:
    own = _self_times(out["spans"])
    return sum(own[s["id"]] for s in out["spans"] if s["name"] == name)


def per_layer(run: Run):
    """(name, value, unit, note) of every per-layer metric, and the same
    times split by max_branch."""
    gens, vers, rejs = (run.traced[k] for k in ("generate", "verify", "reject"))
    med = statistics.median

    def gen_time(name):
        return lambda o: _durations(o["out"], name)

    gen_times = {
        "series.omega_s": gen_time("series.omega"),
        "series.convergent_s": gen_time("series.convergent"),
        "series.divergent_s": gen_time("series.divergent"),
        "construct.trunk_s": gen_time("construct.trunk"),
        "construct.mixtures_s": gen_time("construct.mixtures"),
        "measures.consist6_s": gen_time("measures.consist6"),
        "wco.cc_s": gen_time("wco.cc"),
        "construct.encode_s": gen_time("construct.encode"),
        "construct.generate_self_s": lambda o: _self_of(o["out"], "construct.generate"),
    }
    ver_times = {
        "series.witness_s": lambda o: _durations(o["out"], "series.witness"),
        "construct.decode_s": lambda o: _durations(o["out"], "construct.decode"),
        "construct.verify_tables_s": lambda o: _durations(o["out"], "construct.verify_tables"),
    }
    counts = [o["out"]["counts"] for o in gens]
    out = [(name, med(f(o) for o in gens), "s", f"n={len(gens)}") for name, f in gen_times.items()]
    out += [(name, med(f(o) for o in vers), "s", f"n={len(vers)}") for name, f in ver_times.items()]
    out += [
        ("series.convergent_terms", med(c["convergent_terms"] for c in counts), "count", ""),
        ("series.witness_index", med(c["witness_index"] for c in counts), "count", ""),
        ("series.witness_digits",
         med(o["out"]["counts"]["witness_digits"] for o in vers), "count", ""),
        ("measures.consist6_vertices", med(c["consist6_vertices"] for c in counts), "count", ""),
        ("measures.consist6_unique_ratio",
         med(c["consist6_unique"] / c["consist6_vertices"] for c in counts), "ratio", ""),
        ("wco.cc_classes", med(c["cc_classes"] for c in counts), "count", ""),
        ("wco.cc_unique_ratio",
         med(c["cc_unique"] / c["cc_classes"] for c in counts), "ratio", ""),
        ("construct.artifact_bytes", med(o["record"]["bytes"] for o in gens), "bytes", ""),
        ("construct.verify_records", med(o["out"]["records"] for o in vers), "count", ""),
        ("construct.verify_raised",
         sum(bool(o["out"]["raised"]) for o in vers + rejs), "count",
         f"of {len(vers) + len(rejs)} verify calls"),
        ("construct.verify_false_accepts",
         sum(bool(o["out"].get("passed")) for o in rejs), "count",
         f"of {len(rejs)} mutated documents"),
    ]
    for kind, root_name in (("generate", "op.generate"), ("verify", "op.verify")):
        ops = gens if kind == "generate" else vers
        untraced = med(run.times[kind])
        out.append((f"trace.{kind}_overhead_s", med(o["out"][f"{kind}_s"] for o in ops) - untraced,
                    "s", f"traced p50 - untraced p50 ({untraced:.4f} s)"))
        out.append((f"trace.{kind}_layer_share",
                    med(_layer_sum(o["out"], root_name) for o in ops) / untraced, "ratio",
                    "layer self times / untraced p50"))

    split = []
    branches = sorted({o["cell"].window[1] for o in gens})
    for b in branches if len(branches) > 1 else ():
        g = [o for o in gens if o["cell"].window[1] == b]
        v = [o for o in vers if o["cell"].window[1] == b]
        split += [(f"{name}.b{b}", med(f(o) for o in g), "s", f"n={len(g)}")
                  for name, f in gen_times.items()]
        split += [(f"{name}.b{b}", med(f(o) for o in v), "s", f"n={len(v)}")
                  for name, f in ver_times.items()]
    return out, split


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": model,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "treeshift" / "__init__.py").is_file():
        print(f"treeshift sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # artifacts hold exact rationals with more digits than the default
    # int <-> str conversion cap allows
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    env = environment()
    run = Run(args.seed, args.seconds, bool(args.trace))
    setup, one_pass = WORKLOADS[args.workload]
    try:
        if setup:
            setup(run)
        run.run_passes(lambda: one_pass(run))
    finally:
        if run.shared is not None:
            run.shared.close()
    wall = time.perf_counter() - run.clock_from

    try:
        metrics, split = per_layer(run) if run.trace else (end_to_end(run, wall), [])
    except (statistics.StatisticsError, ValueError, StopIteration, ZeroDivisionError) as exc:
        print(f"no result: some metric has no samples ({exc!r}); "
              f"{run.failed} of {run.attempted} operations failed", file=sys.stderr)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(report, "w") as f:
        json.dump({"environment": env, "workload": args.workload, "seed": args.seed,
                   "ops": run.ops, "spans": run.spans}, f)

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} wall={wall:.1f}s")
    print("# environment " + json.dumps(env))
    for name, value, unit, note in metrics + split:
        print(f"{name:36s} {value:.6g} {unit:6s} {note}")
    print(f"{'fail_ratio':36s} {run.failed / run.attempted:.6g} {'ratio':6s} "
          f"{run.failed} of {run.attempted} operations")
    for o in run.ops:
        if o["op"] == "reject":
            outcome = o.get("raised") or (f"passed={o['passed']} failing={o['failing']}"
                                          if "passed" in o else "; ".join(o["missed"]))
            print(f"# mutation {o['mutation']['kind']:20s} {'BAD' if o['missed'] else 'ok '} "
                  f"{o['mutation']['edit']} [{Cell(**o['request'])}] -> {outcome}")
    print(f"# records: {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
