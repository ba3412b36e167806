"""The collision check runs without numpy; the algebra loads on first use.

Each test runs a fresh interpreter, because this test session has long since
imported numpy and every cgacollide module.
"""

import os
import subprocess
import sys
from pathlib import Path

import cgacollide

SRC = str(Path(cgacollide.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

CHECK_PATH = r"""
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every later `import numpy` raises ImportError

import cgacollide, cgacollide.cli
from cgacollide import (
    ball_contains, bundled_scene_path, capsule_contains, parse_scene, robots_collide,
    robots_collide_any, serialize_scene,
)

path = bundled_scene_path("table3.scene")
with open(path, encoding="utf-8") as fh:
    scene = parse_scene(fh.read())
text = serialize_scene(scene)
assert serialize_scene(parse_scene(text)) == text
print(text, robots_collide(*scene.robots), robots_collide_any(*scene.robots))
*links, ball = scene.robots[0].components
print(ball_contains(ball, ball.center_xyz), capsule_contains(links[0], links[0].axis.end_xyz))
for args in (["check", path], ["check", "--format", "json", path],
             ["check", "--no-all-pairs", path], ["dist", path]):
    print("exit", cgacollide.cli.main(args))
if sys.argv[1] == "plain":
    assert "numpy" not in sys.modules, "the check path imported numpy"
"""

ALGEBRA_ON_DEMAND = r"""
import sys
import cgacollide
assert "numpy" not in sys.modules
names = {"cga", "objects", "point", "Multivector"}
assert names <= set(dir(cgacollide)), names - set(dir(cgacollide))
assert cgacollide.point is cgacollide.objects.point
assert cgacollide.Multivector is cgacollide.cga.Multivector
from cgacollide import SIGNATURE, sphere
assert "numpy" in sys.modules
assert not hasattr(cgacollide, "no_such_name")
"""


def run(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=ENV, timeout=120
    )


def test_check_path_runs_the_same_without_numpy():
    plain, blocked = run(CHECK_PATH, "plain"), run(CHECK_PATH, "blocked")
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert plain.stdout == blocked.stdout
    codes = [line for line in plain.stdout.splitlines() if line.startswith("exit ")]
    assert codes == ["exit 1", "exit 1", "exit 1", "exit 0"]


def test_algebra_names_resolve_on_first_access():
    proc = run(ALGEBRA_ON_DEMAND)
    assert proc.returncode == 0, proc.stderr
