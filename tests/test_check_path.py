"""The package, the algebra included, and the demos run without numpy.

Each test runs a fresh interpreter under `-W error`, because this test
session has long since imported numpy and every cgacollide module.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cgacollide
import cgacollide.cli

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(cgacollide.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

CHECK_PATH = r"""
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # every later `import numpy` raises ImportError

import cgacollide, cgacollide.cli
from cgacollide import (
    bundled_scene_path, center_dist_fa, center_dist_fb, center_dist_fc, contains,
    parse_scene, robots_collide, robots_collide_any, segment_point_at, serialize_scene,
)

path, separated = bundled_scene_path("table3.scene"), bundled_scene_path("separated.scene")
with open(path, encoding="utf-8") as fh:
    scene = parse_scene(fh.read())
text = serialize_scene(scene)
assert serialize_scene(parse_scene(text)) == text
print(text, robots_collide(*scene.robots), robots_collide_any(*scene.robots))
*links, ball = scene.robots[0].components
print(contains(ball, ball.center), contains(links[0], links[0].axis.end))
axis, other = links[0].axis, scene.robots[1].components[5].axis
print(ball.center, axis.start, axis.end, axis.point_at(0.25), segment_point_at(axis, 0.75))
print(center_dist_fa(ball.center, axis.end), center_dist_fb(ball.center, axis),
      center_dist_fc(axis, other))
for args in (["check", path], ["check", "--format", "json", path],
             ["check", "--no-all-pairs", path], ["dist", path], ["check", separated]):
    print("exit", cgacollide.cli.main(args))
if sys.argv[1] == "plain":
    assert "numpy" not in sys.modules, "the check path imported numpy"
"""

NO_NUMPY = r"""
import sys
sys.modules["numpy"] = None  # every later `import numpy` raises ImportError

import cgacollide, cgacollide.cli
for name in dir(cgacollide):
    getattr(cgacollide, name)
sys.exit(cgacollide.cli.main(["selftest"]))
"""

RUN_DEMO_BLOCKED = (
    "import runpy, sys; sys.modules['numpy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"
)


def run(*argv):
    return subprocess.run(
        [sys.executable, "-W", "error", *argv], capture_output=True, text=True, env=ENV, timeout=120
    )


def test_check_path_runs_the_same_without_numpy():
    plain, blocked = run("-c", CHECK_PATH, "plain"), run("-c", CHECK_PATH, "blocked")
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert plain.stdout == blocked.stdout
    codes = [line for line in plain.stdout.splitlines() if line.startswith("exit ")]
    assert codes == ["exit 1", "exit 1", "exit 1", "exit 0", "exit 0"]


def test_package_and_selftest_run_without_numpy(capsys):
    assert cgacollide.cli.main(["selftest"]) == 0
    plain = capsys.readouterr().out
    blocked = run("-c", NO_NUMPY)
    assert blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == plain


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_the_same_without_numpy(demo):
    plain, blocked = run(str(demo)), run("-c", RUN_DEMO_BLOCKED, str(demo))
    assert plain.returncode == 0, plain.stderr
    assert blocked.returncode == 0, blocked.stderr
    assert plain.stdout == blocked.stdout
