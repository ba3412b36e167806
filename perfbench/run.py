"""Benchmark for cgacollide: one workload, one caller in a closed loop.

    python3 perfbench/run.py --workload arms-report --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  Inputs
come from the seed and are made before timing.  Each op's result is checked
against the benchmark's own reference outside the timed region.

--trace 0 reports the end-to-end metrics: op_p90_ms, setup_s (fresh
interpreter to the end of its first op, median of SETUP_PROBES child
processes spread over the run, the benchmark's own imports and input
generation excluded) and peak_rss_mb.  It also prints ops_per_s, op_p50_ms and failed_frac.
--trace 1 runs half the time untraced and then whole passes over the inputs
with span wrappers installed (tracer.py), and reports per-op layer metrics.

Human-readable lines with sample counts come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"

SETUP_PROBES = 5
IMPORT_PROBES = 3
WARMUP_OPS = 3
CHILD_TIMEOUT_S = 60

# Printed on every run but left out of the JSON result that regression
# checks read.  On the 2-vCPU KVM guest this benchmark was tuned on, the
# host's load moved them by 14-43% between runs (interquartile range over
# median, ten seeds of 20 s), more than the largest usable bound; op_p90_ms
# sits at the slow end of the host's speed range and moved 3-22%.
PRINTED_ONLY = ("ops_per_s", "op_p50_ms")

# Per-module line counts reported by the traced run; "package_init" is
# __init__.py.  A module missing at some commit counts 0 lines.
SRC_MODULES = (
    "package_init", "cga", "objects", "primitives", "distance",
    "collision", "scene", "oracle", "cli",
)


@dataclass
class Measured:
    latencies: list
    failed: int
    out_bytes: int

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def _check(workload, result, expected) -> bool:
    try:
        return bool(workload.check(result, expected))
    except Exception:
        return False


def measure(cg, workload, args, cases, seconds, tracer=None, pauses=()) -> Measured:
    """Run ops in a closed loop for `seconds`, timing each one.

    `pauses` are run between ops, spread evenly over the run, and the run
    is extended by the time they take.  With a tracer the loop also
    finishes its pass over the inputs, so per-op counts repeat exactly for
    a seed.
    """
    run = workload.run
    clock = time.perf_counter
    n = len(args)
    lat: list[float] = []
    failed = out_bytes = 0
    pending = list(pauses)
    spacing = seconds / max(1, len(pending))
    gc.collect()
    begin = clock()
    paused = 0.0
    k = 0
    while k == 0 or clock() < begin + paused + seconds or (tracer is not None and k % n):
        if pending and clock() - begin - paused >= spacing * (len(pauses) - len(pending)):
            mark = clock()
            pending.pop(0)()
            paused += clock() - mark
        i = k % n
        k += 1
        start = clock()
        try:
            result, error = run(cg, args[i]), None
        except Exception as exc:
            result, error = None, exc
        lat.append(clock() - start)
        if tracer is not None:
            tracer.fold()
        if error is None and _check(workload, result, cases[i][1]):
            out_bytes += workload.out_bytes(result)
            continue
        if not failed:
            print(f"{workload.name}: input {i} disagreed with the reference", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error)
        failed += 1
    for pause in pending:
        pause()
    return Measured(lat, failed, out_bytes)


def _child(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=cwd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
    )


def setup_sample(name: str, seed: int, probe_dir: Path) -> tuple[float, bool]:
    """Set-up seconds of one fresh interpreter, and whether its first op
    agreed with the reference."""
    probe_dir.mkdir()
    start = time.monotonic()
    proc = _child([sys.executable, str(HERE / "probe.py"), name, str(seed), str(probe_dir)], ROOT)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["end"] - start - out["own_s"], out["ok"]


def cga_import_ms(count: int) -> float:
    """Median self time of importing cgacollide.cga (product tables
    included, numpy excluded), from `python -X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import cgacollide"
    samples = []
    for _ in range(count):
        proc = _child([sys.executable, "-X", "importtime", "-c", code], ROOT)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "cgacollide.cga":
                samples.append(int(fields[0].split(":")[1]) / 1e3)
    return statistics.median(samples) if samples else 0.0


def src_lines() -> dict:
    files = {p.stem: p for p in (ROOT / "src" / "cgacollide").glob("*.py")}
    files["package_init"] = files.pop("__init__", None)
    out = {}
    for name in SRC_MODULES:
        path = files.get(name)
        out[f"{name}.src_lines"] = (len(path.read_text().splitlines()) if path else 0, "lines")
    total = sum(len(p.read_text().splitlines()) for p in files.values() if p)
    out["src.total_lines"] = (total, "lines")
    return out


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, pool=None,
                 setup_probes: int = SETUP_PROBES):
    """Run one workload; returns (result object, human-readable lines)."""
    workload = workloads.WORKLOADS[name]
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=TMP))
    try:
        probes: list[tuple[float, bool]] = []
        cases = workloads.make_cases(workload, seed, workdir, pool)
        cg = workloads.import_package(ROOT)
        args = [workload.prepare(cg, arg) for arg, _ in cases]
        for arg in args[:WARMUP_OPS]:
            try:
                workload.run(cg, arg)
            except Exception:
                pass  # counted when the timed loop runs the same input
        if not trace:
            # Set-up probes are spread over the run, so that they sample the
            # host's speed at several moments rather than at one.
            pauses = [
                lambda k=k: probes.append(setup_sample(name, seed, workdir / f"probe{k}"))
                for k in range(setup_probes)
            ]
            timed = measure(cg, workload, args, cases, seconds, pauses=pauses)
            setup = [sample for sample, _ in probes]
            metrics = {
                "ops_per_s": (timed.ops_per_s, "1/s"),
                "op_p50_ms": (statistics.median(timed.latencies) * 1e3, "ms"),
                "op_p90_ms": (nearest_rank(timed.latencies, 0.9) * 1e3, "ms"),
                "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            samples = dict.fromkeys(("ops_per_s", "op_p50_ms", "op_p90_ms"), len(timed.latencies))
            samples.update(setup_s=len(setup), peak_rss_mb=1)
            runs = [timed]
        else:
            plain = measure(cg, workload, args, cases, seconds / 2)
            with Tracer() as tracer:
                timed = measure(cg, workload, args, cases, seconds / 2, tracer)
            ops = len(timed.latencies)
            metrics = tracer.metrics(ops)
            metrics["cli.out_bytes"] = (timed.out_bytes / ops, "bytes")
            metrics["cga.import_ms"] = (cga_import_ms(IMPORT_PROBES), "ms")
            metrics["trace.overhead"] = (plain.ops_per_s / timed.ops_per_s, "ratio")
            metrics.update(src_lines())
            samples = dict.fromkeys(metrics, ops)
            samples["cga.import_ms"] = IMPORT_PROBES
            runs = [plain, timed]
            if tracer.absent:
                print("absent from the package, counted 0: " + ", ".join(tracer.absent),
                      file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    attempted = sum(len(r.latencies) for r in runs) + len(probes)
    failed = sum(r.failed for r in runs) + sum(not ok for _, ok in probes)
    lines = [f"workload {name}  seed {seed}  trace {int(trace)}  inputs {len(cases)}"]
    for key, (value, unit) in metrics.items():
        note = "  (printed only)" if key in PRINTED_ONLY else ""
        lines.append(f"  {key:32s} {value:14.6g} {unit:6s} n={samples[key]}{note}")
    lines.append(f"  {'failed_frac':32s} {failed / attempted:14.6g} {'':6s} "
                 f"n={attempted} ({failed} failed)  (printed only)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k not in PRINTED_ONLY
        },
    }
    return result, lines


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cgacollide" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'cgacollide'}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(f"perfbench total wall {time.monotonic() - started:.2f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
