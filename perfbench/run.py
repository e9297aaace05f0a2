#!/usr/bin/env python3
"""surfqp benchmark: four closed-loop workloads, one caller, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all      # every workload, one summary

Run from the root of a checkout; surfqp is imported from its `src/`.

With `--trace 0` the workload runs cycles of operations back to back until
`--seconds` seconds have passed, then checks every result outside the timed
region and prints the end-to-end metrics.  With `--trace 1` it runs the
first cycle three times, plain, with every public surfqp function wrapped
(see tracer.py) and plain again, checks that all three gave identical
results, and prints the per-layer metrics of the traced cycle; its counts
repeat exactly for a seed.

Timings are scaled to a nominal machine speed.  The machines this runs on
share their cores with other tenants and change speed by up to 1.6x for
seconds at a time, which would swamp the differences the benchmark is meant to
show.  So a short fixed pure-Python reference kernel (dict updates with tuple
keys and Fraction arithmetic, like surfqp's inner loops) runs between
operations, and each operation's wall time is multiplied by
REFERENCE_SECONDS / (mean kernel time just before and just after it).  A
reported second is thus a second on a machine that runs the kernel in
REFERENCE_SECONDS; the raw wall times are printed next to the scaled ones.
Each operation also starts from a collected heap, and percentiles are band
means (see `percentile`), both to keep run-to-run spread low.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give each metric
with its unit and sample count, the failures by error class, and the
machine.  The exit code is 0 when the answers were correct, 1 when one was
wrong, and 2 when the surfqp sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("group-short", "long-words", "moment-symbolic", "aksm-points")
SETUP_PROBES = 7
# an oversized call fails as a counted MemoryError instead of exhausting the machine
ADDRESS_SPACE_BYTES = 1 << 30

PERCENTILE_BAND = 0.05

REFERENCE_ITERATIONS = 1600
REFERENCE_SECONDS = 0.008  # nominal kernel time: 6.5 to 10.5 ms on the 2-core x86_64 VM used

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "op_p50_ms": "ms", "op_p90_ms": "ms"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = time.perf_counter()
    acc: dict = {}
    third = Fraction(1, 3)
    word = tuple((g % 3, 1 - 2 * (g % 2)) for g in range(12))
    for i in range(REFERENCE_ITERATIONS):
        r = i % 12
        key = word[r:] + word[:r]
        acc[key] = acc.get(key, 0) + third * (i % 7)
    return time.perf_counter() - start


class Record(NamedTuple):
    op: Any
    result: Any
    raw_s: float      # measured wall time
    scaled_s: float   # the same, at the nominal machine speed


class SourcesMissing(Exception):
    pass


def load_workloads():
    """Import surfqp from this checkout's src/ and the workload module."""
    if not (SRC / "surfqp" / "__init__.py").is_file():
        raise SourcesMissing(f"no surfqp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import surfqp
    if Path(surfqp.__file__).resolve().parent != (SRC / "surfqp").resolve():
        raise SourcesMissing(f"surfqp was imported from {surfqp.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of fresh processes that start, import surfqp
    and build the workload's first cycle of inputs, then exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    raw, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time up to its poll step
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        after = reference_seconds()
        raw.append(took)
        scaled.append(took * 2 * REFERENCE_SECONDS / (before + after))
        before = after
    return raw, scaled


def cap_address_space() -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version,
            "revision": git_revision()}


class Runner:
    """Runs operations one after another, timing each and the reference
    kernel between them."""

    def __init__(self, wl, workloads, tracer=None):
        self.wl = wl
        self.workloads = workloads
        self.tracer = tracer
        self.records: list[Record] = []
        self._ref = reference_seconds()

    def run(self, op) -> None:
        # start every operation from a collected heap, so that when the cyclic
        # collector runs inside it depends on the operation, not on its history
        gc.collect()
        if self.tracer is not None:
            self.tracer.install([self.workloads])
        try:
            start = time.perf_counter()
            result = self.workloads.execute(self.wl, op)
            took = time.perf_counter() - start
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        ref = reference_seconds()
        scaled = took * 2 * REFERENCE_SECONDS / (self._ref + ref)
        self._ref = ref
        kept = self.workloads.settle(self.wl, op, result)
        self.records.append(Record(dataclasses.replace(op, args=()), kept, took, scaled))


def run_cycle(wl, workloads, ops, tracer=None) -> list[Record]:
    runner = Runner(wl, workloads, tracer)
    for op in ops:
        runner.run(op)
    return runner.records


def run_timed(wl, workloads, seed: int, seconds: float) -> list[Record]:
    """Closed loop: the next operation starts when the previous one returns.
    Runs whole cycles until `seconds` have passed, so that every slot has
    the same number of samples."""
    runner = Runner(wl, workloads)
    start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - start < seconds:
        for op in wl.plan(seed, cycle):
            runner.run(op)
        cycle += 1
    return runner.records


def tally(wl, workloads, records) -> dict:
    """Check every result; an operation is one suite check or one CLI call."""
    attempted = 0
    failures: dict[str, int] = {}
    wrong = []
    for op, result, _, _ in records:
        for verdict in workloads.verdicts(wl, op, result):
            attempted += 1
            if verdict is not None:
                failures[verdict] = failures.get(verdict, 0) + 1
                if verdict.startswith("wrong:"):
                    wrong.append((op.slot, op.inputs, verdict))
    return {"attempted": attempted, "failed": sum(failures.values()),
            "failures": failures, "wrong": wrong}


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile, estimated as the mean of the samples ranked within
    PERCENTILE_BAND of it: steadier than one order statistic when slots of
    different cost meet near that rank."""
    ranked = sorted(values)
    n = len(ranked)
    lo = min(int((p - PERCENTILE_BAND) * n), n - 1)
    hi = max(int((p + PERCENTILE_BAND) * n), lo + 1)
    return statistics.fmean(ranked[max(lo, 0):hi])


def timings(workloads, records: list[Record], setups: list[float], field: str) -> dict:
    """The timed metrics from one field of the records ("raw_s" or "scaled_s")."""
    by_slot: dict[str, list[float]] = {}
    returned = []
    for record in records:
        if record.op.probe:
            continue
        took = getattr(record, field)
        by_slot.setdefault(record.op.slot, []).append(took)
        if not isinstance(record.result, workloads.Failure):
            returned.append(took)
    return {"setup_s": statistics.median(setups),
            "wall_s": sum(statistics.median(t) for t in by_slot.values()),
            "op_p50_ms": percentile(returned, 0.5) * 1000,
            "op_p90_ms": percentile(returned, 0.9) * 1000,
            "slots": len(by_slot), "timed": sum(map(len, by_slot.values())),
            "returned": len(returned)}


def end_to_end(workloads, records: list[Record], setups: tuple[list[float], list[float]],
               rss: float) -> tuple[dict, dict]:
    """Metric values, and for each its sample count and raw value."""
    raw = timings(workloads, records, setups[0], "raw_s")
    scaled = timings(workloads, records, setups[1], "scaled_s")
    values = {name: scaled.get(name, rss) for name in END_TO_END_UNITS}
    notes = {
        "setup_s": f"median of {len(setups[1])} set-ups",
        "wall_s": f"sum over {scaled['slots']} slots of each slot's median; "
                  f"{scaled['timed']} timed ops",
        "peak_rss_mb": "1 process",
        "op_p50_ms": f"{scaled['returned']} ops that returned",
        "op_p90_ms": f"{scaled['returned']} ops that returned",
    }
    for name in ("setup_s", "wall_s", "op_p50_ms", "op_p90_ms"):
        notes[name] += f"; raw {raw[name]:.6g}"
    return values, notes


def run_traced(wl, workloads, seed: int) -> tuple[dict, dict, bool, list]:
    """The first cycle three times, plain, traced and plain again, each on
    freshly planned inputs."""
    from tracer import Tracer

    before = run_cycle(wl, workloads, wl.plan(seed, 0))
    tracer = Tracer()
    traced = run_cycle(wl, workloads, wl.plan(seed, 0), tracer)
    # a plain cycle on each side of the traced one, so warm-up falls on neither
    after = run_cycle(wl, workloads, wl.plan(seed, 0))
    same = all(workloads.fingerprint(wl, *p[:2]) == workloads.fingerprint(wl, *t[:2])
               == workloads.fingerprint(wl, *q[:2]) for p, t, q in zip(before, traced, after))
    plain_s = sum(r.scaled_s for r in before + after) / 2
    traced_s = sum(r.scaled_s for r in traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    notes = {name: "self time in the traced cycle" for name in metrics if name.endswith("_s")}
    notes["poly.mul_fill_ratio"] = "ratio of exact counts"
    notes["trace.overhead_frac"] = f"traced {traced_s:.3f} s vs plain {plain_s:.3f} s, scaled"
    if tracer.missing:
        print(f"  untraced (not found): {', '.join(tracer.missing)}")
    for key, calls, self_s in tracer.top(12):
        print(f"  span {key:<45} calls {calls:>9}  self {self_s:9.4f} s")
    return metrics, notes, same, traced


def format_lines(metrics: dict, units: dict, notes: dict) -> list[str]:
    return [f"  {name:<36} {value:>14.6g} {units[name]:<6} ({notes.get(name, 'exact count')})"
            for name, value in metrics.items()]


def run_one(args) -> int:
    try:
        workloads = load_workloads()
    except SourcesMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.make(args.workload).plan(args.seed, 0)
        return 0
    setups = measure_setup(args.workload, args.seed) if not args.trace else ([], [])
    cap_address_space()
    wl = workloads.make(args.workload)
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    if args.trace:
        metrics, notes, same, records = run_traced(wl, workloads, args.seed)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        records = run_timed(wl, workloads, args.seed, args.seconds)
        rss = peak_rss_mb()
        metrics, notes = end_to_end(workloads, records, setups, rss)
        units = END_TO_END_UNITS
        same = True
    counts = tally(wl, workloads, records)
    for line in format_lines(metrics, units, notes):
        print(line)
    failed_frac = counts["failed"] / counts["attempted"]
    print(f"  {'failed_frac':<36} {failed_frac:>14.6g} {'ratio':<6} "
          f"({counts['failed']} of {counts['attempted']} operations)")
    if counts["failures"]:
        print(f"  failures by class: {json.dumps(counts['failures'], sort_keys=True)}")
    for slot, inputs, verdict in counts["wrong"][:5]:
        print(f"  WRONG {verdict} in {slot}: {inputs}")
    if not same:
        print("  WRONG: traced results differ from untraced ones")
    correct = same and not counts["wrong"]
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return code


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="surfqp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
