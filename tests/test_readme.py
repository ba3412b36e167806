"""README's python blocks run as written and print what their comments say.

Each block runs in a fresh interpreter with the package's source directory
on PYTHONPATH, as a reader who copies it would run it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import cgacollide

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(cgacollide.__file__).resolve().parents[1])
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def run(code: str) -> list:
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_readme_has_two_python_blocks():
    assert len(BLOCKS) == 2


def test_library_quick_start_prints_its_comments():
    code = BLOCKS[0]
    # a top-level print with a comment: the comment's text before any ':'
    expected = [m.split(":")[0].strip() for m in re.findall(r"^print\(.*?\)\s+#\s*(.*)$", code, re.M)]
    assert expected == ["False", "True", "4225.0", "True"]
    lines = run(code)
    assert lines[: len(expected)] == expected
    assert "6 5 0.0 961.0" in lines[len(expected):]


def test_bundled_scene_paths_exist():
    lines = run(BLOCKS[1])
    assert [Path(line).name for line in lines] == ["table3.scene", "separated.scene"]
    assert all(Path(line).is_file() for line in lines)
