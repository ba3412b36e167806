"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from reference import pair_reference, robots_reference

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNTS = [n for n in PER_LAYER if not n.endswith(("_us", "_ms", ".overhead"))]


def tiny(name, trace=False, seed=3, pool=2, **kw):
    result, _ = run.run_workload(name, seed, 0.0, trace, pool=pool, setup_probes=0, **kw)
    return result


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def table_arms(scene_name):
    """The robots of a bundled scene file as reference tuples."""
    arms = []
    text = (ROOT / "src" / "cgacollide" / "data" / scene_name).read_text()
    for line in text.splitlines():
        fields = line.split("#")[0].split()
        if not fields:
            continue
        if fields[0] == "robot":
            arms.append([])
        else:
            nums = [float(x) for x in fields[1:]]
            if fields[0] == "ball":
                arms[-1].append(("ball", tuple(nums[:3]), nums[3]))
            else:
                arms[-1].append(("capsule", tuple(nums[:3]), tuple(nums[3:6]), nums[6]))
    return arms


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_tiny(name):
    result = tiny(name)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    assert all(v > 0 for k, v in values(result).items() if k != "setup_s")
    traced = tiny(name, trace=True)
    assert traced["correct"]
    assert sorted(traced["metrics"]) == sorted(PER_LAYER)


def test_setup_probe_measures_a_fresh_interpreter():
    result, lines = run.run_workload("scene-roundtrip", 3, 0.0, False, pool=1, setup_probes=1)
    assert result["correct"]
    assert 0.0 < values(result)["setup_s"] < 30.0
    printed = {line.split()[0] for line in lines[1:]}
    assert printed == set(END_TO_END) | set(run.PRINTED_ONLY) | {"failed_frac"}


def _perturb_sq(report):
    first = dataclasses.replace(report.pairs[0], squared_distance=report.pairs[0].squared_distance + 1.0)
    return dataclasses.replace(report, pairs=(first,) + report.pairs[1:])


def _change_digit(text):
    i = next(k for k, ch in enumerate(text) if ch in "123456789")
    return text[:i] + str(int(text[i]) % 9 + 1) + text[i + 1:]


CORRUPTIONS = {
    "arms-report": _perturb_sq,
    "spheres-verdict": lambda verdict: not verdict,
    "cli-check": lambda result: (1 - result[0], result[1]),
    "scene-roundtrip": lambda result: (_change_digit(result[0]), result[1]),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_corrupted_result_is_counted_failed(monkeypatch, name):
    w = workloads.WORKLOADS[name]
    corrupt = CORRUPTIONS[name]
    bad = dataclasses.replace(w, run=lambda cg, arg: corrupt(w.run(cg, arg)))
    monkeypatch.setitem(workloads.WORKLOADS, name, bad)
    result = tiny(name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_op_that_raises_is_counted_failed(monkeypatch):
    w = workloads.WORKLOADS["arms-report"]

    def boom(cg, arg):
        raise RuntimeError("injected")

    monkeypatch.setitem(workloads.WORKLOADS, "arms-report", dataclasses.replace(w, run=boom))
    result = tiny("arms-report")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_reference_on_bundled_scenes():
    ref = robots_reference(*table_arms("table3.scene"))
    hits = [(i, j, sq, thr) for i, j, sq, thr, colliding, _ in ref if colliding]
    assert (6, 5, 0.0, 961.0) in hits
    ref = robots_reference(*table_arms("separated.scene"))
    assert len(ref) == 49 and not any(r[4] for r in ref)


def test_reference_decides_near_tangency_exactly():
    # Centers exactly 31 apart, radii 15 + 16: closed balls touch.
    assert pair_reference(("ball", (0.0, 0.0, 0.0), 15.0), ("ball", (31.0, 0.0, 0.0), 16.0))[2]
    # In floats 0.1 + 0.2 == 0.30000000000000004 and the balls seem to touch;
    # exactly, the radius sum is shorter than the center distance.
    far = ("ball", (0.30000000000000004, 0.0, 0.0), 0.2)
    assert not pair_reference(("ball", (0.0, 0.0, 0.0), 0.1), far)[2]
    seg = ("capsule", (0.0, 0.0, 0.0), (0.0, 0.0, 10.0), 15.0)
    assert pair_reference(seg, ("ball", (31.0, 0.0, 5.0), 16.0))[2]
    assert pair_reference(seg, ("capsule", (31.0, -5.0, 5.0), (31.0, 5.0, 5.0), 16.0))[2]


def test_seeds_repeat_and_differ():
    w = workloads.WORKLOADS["arms-report"]
    a = workloads.make_cases(w, 7, ROOT, pool=3)
    assert a == workloads.make_cases(w, 7, ROOT, pool=3)
    assert a != workloads.make_cases(w, 8, ROOT, pool=3)


def test_spheres_share_of_colliding_poses_is_fixed():
    cases = workloads.make_cases(workloads.WORKLOADS["spheres-verdict"], 5, ROOT, pool=8)
    assert sum(verdict for _, verdict in cases) == 2
    assert all(len(arm) == 32 for pose, _ in cases for arm in pose)


def test_trace_counts_at_the_seed():
    arms = values(tiny("arms-report", trace=True, pool=4))
    assert arms["distance.fc_calls"] == 36 and arms["collision.pairs"] == 49
    assert arms["collision.pairs_evaluated_frac"] == 1.0
    assert arms["primitives.built"] == 26
    cli = values(tiny("cli-check", trace=True, pool=4))
    assert cli["distance.fc_calls"] == 36 and cli["cli.out_bytes"] > 0
    assert cli["scene.lines"] == 16
    clear = values(tiny("spheres-verdict", trace=True, pool=1))
    assert clear["distance.fa_calls"] == 1024 and clear["distance.fc_calls"] == 0
    assert clear["collision.pairs_evaluated_frac"] == 1.0
    scene = values(tiny("scene-roundtrip", trace=True, pool=1))
    assert scene["distance.fc_calls"] == 0 and scene["distance.fa_calls"] == 0
    assert scene["scene.lines"] == 2 * (16 + 16 * 32)


def test_trace_counts_repeat_for_a_seed():
    first = values(tiny("spheres-verdict", trace=True, pool=8))
    second = values(tiny("spheres-verdict", trace=True, pool=8))
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_tracer_reports_missing_names_and_restores(monkeypatch):
    cg = workloads.import_package(ROOT)
    original = cg.objects.point
    missing = [
        ("collision", "balls_collide_gone", "collision.gone", None),
        ("primitives", "Gone.__init__", "primitives.gone", None),
        ("no_such_module", "x", "gone", None),
    ]
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + tuple(missing))
    with tracer.Tracer() as t:
        assert cg.distance.point is not original and cg.objects.point is not original
        cg.center_dist_fa((0.0, 0.0, 0.0), (3.0, 4.0, 0.0))
        t.fold()
    assert cg.distance.point is original and cg.point is original
    assert t.absent == ["collision.balls_collide_gone", "primitives.Gone.__init__", "no_such_module.x"]
    m = t.metrics(1)
    assert m["distance.fa_calls"][0] == 1 and m["objects.point_calls"][0] == 2


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arms-report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
