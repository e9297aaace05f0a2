#!/usr/bin/env python3
"""Checks of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selfcheck.py          # under a minute
    python3 perfbench/selfcheck.py --full   # adds `verify all --seed 7 --json` (minutes)

1. Tracing leaves answers unchanged: the first operations of every workload
   give the same results traced and untraced, and the `verify` command prints
   the same bytes with and without tracing.
2. Traced counts repeat: two traced runs on one seed give identical counts.
3. The seed drives the inputs: one seed always plans the same inputs, and
   two seeds plan different ones, for every workload.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run
from tracer import Tracer

OPS_PER_WORKLOAD = 4
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def first_ops(wl, seed: int):
    return wl.plan(seed, 0)[:OPS_PER_WORKLOAD]


def results(workloads, wl, seed: int, tracer=None):
    """Fingerprints of the first operations, traced when a tracer is given."""
    ops = first_ops(wl, seed)
    if tracer is not None:
        tracer.install([workloads])
    try:
        out = [(op, workloads.execute(wl, op)) for op in ops]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [workloads.fingerprint(wl, op, result) for op, result in out]


def cli_bytes(argv: list[str], tracer=None) -> str:
    from surfqp import cli
    buf = io.StringIO()
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return buf.getvalue()


def main() -> int:
    workloads = run.load_workloads()
    seed = 7
    for name in run.WORKLOAD_NAMES:
        wl = workloads.make(name)
        plain = results(workloads, wl, seed)
        first, second = Tracer(), Tracer()
        traced = results(workloads, wl, seed, first)
        again = results(workloads, wl, seed, second)
        check(plain == traced == again, f"{name}: traced results equal untraced ones")
        check(first.count_metrics() == second.count_metrics(),
              f"{name}: two traced runs give identical counts")
        check(not first.missing, f"{name}: every trace target exists {first.missing or ''}")
        inputs = lambda s: [op.inputs for op in wl.plan(s, 0)]
        check(inputs(seed) == inputs(seed), f"{name}: one seed plans the same inputs")
        check(inputs(seed) != inputs(seed + 1), f"{name}: two seeds plan different inputs")

    argvs = [["verify", "fox", "--genus", "0", "--punctures", "1", "--seed", "7", "--json"],
             ["verify", "aksm", "--genus", "0", "--punctures", "1", "--seed", "7", "--json"]]
    if "--full" in sys.argv[1:]:
        argvs.append(["verify", "all", "--seed", "7", "--json"])
    for argv in argvs:
        plain = cli_bytes(argv)
        check(plain == cli_bytes(argv, Tracer()) and plain.startswith("{"),
              f"`surfqp {' '.join(argv)}` prints the same bytes traced")
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
