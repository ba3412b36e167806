"""One set-up sample, run by run.py in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed> <workdir>

Imports the benchmark's own modules and makes the workload's first input
(standard library only, both timed so that the parent can subtract them),
imports numpy and `cgacollide`, prepares and runs the first op, and prints
one JSON line: the monotonic clock at the end of the first op, the seconds
spent on the benchmark's own work, and whether the op's result agreed with
the reference.  CLOCK_MONOTONIC is shared by all processes on Linux, so the
parent subtracts its own reading taken just before the spawn.
"""

import time

_STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    workload = workloads.WORKLOADS[name]
    (arg, expected), = workloads.make_cases(workload, seed, workdir, pool=1)
    own_s = time.monotonic() - _STARTED

    cg = workloads.import_package(ROOT)
    result = workload.run(cg, workload.prepare(cg, arg))
    end = time.monotonic()
    ok = workload.check(result, expected)
    print(json.dumps({"end": end, "own_s": own_s, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
