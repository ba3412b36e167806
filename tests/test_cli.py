import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from cgacollide import cga
from cgacollide.cli import build_parser, main, selftest_checks
from cgacollide.scene import bundled_scene_path

TABLE3 = bundled_scene_path("table3.scene")
SEPARATED = bundled_scene_path("separated.scene")


class TestCheck:
    def test_collision_scene_exits_one(self, capsys):
        assert main(["check", TABLE3]) == 1

    def test_clear_scene_exits_zero(self, capsys):
        assert main(["check", SEPARATED]) == 0

    def test_missing_file_exits_two(self, capsys):
        assert main(["check", "no-such.scene"]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("robot r\ncapsule 0 0 0 0 0 65 -1\n")
        assert main(["check", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_number_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("robot a\nball 0 0 zero 1\n")
        assert main(["check", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: line 2: could not convert string to float: 'zero'\n")

    @pytest.mark.parametrize("args", [["check", "--format", "json"], ["dist", "--format", "json"],
                                      ["check"]], ids=["check", "dist", "check-text"])
    def test_huge_coordinate_exits_two(self, tmp_path, args, capsys):
        # two coincident balls at 1e155 once gave a NaN distance and exit 0
        huge = tmp_path / "huge.scene"
        huge.write_text("robot a\nball 1e155 0 0 1\nrobot b\nball 1e155 0 0 1\n")
        assert main([*args, str(huge)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: line 2: coordinates beyond")

    @pytest.mark.parametrize("subcommand", ["check", "dist"])
    def test_non_utf8_scene_exits_two(self, tmp_path, subcommand, capsys):
        bad = tmp_path / "utf16.scene"
        bad.write_bytes(b"\xff\xfe")
        assert main([subcommand, str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: not UTF-8 text") and "Traceback" not in err

    def test_wrong_robot_count_exits_two(self, tmp_path, capsys):
        one = tmp_path / "one.scene"
        one.write_text("robot r\nball 0 0 0 1\n")
        assert main(["check", str(one)]) == 2
        capsys.readouterr()

    def test_text_report_names_pairs(self, capsys):
        main(["check", TABLE3])
        text = capsys.readouterr().out
        assert "pair i=6 j=5" in text
        assert "verdict: collision" in text
        assert text.count("pair i=") == 49

    def test_json_report_schema(self, capsys):
        code = main(["check", "--format", "json", TABLE3])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["verdict"] is True
        assert payload["scene"] == TABLE3
        assert set(payload) == {"scene", "verdict", "pairs"}
        assert len(payload["pairs"]) == 49
        hit = next(p for p in payload["pairs"] if (p["i"], p["j"]) == (6, 5))
        assert hit["colliding"] is True
        assert hit["threshold"] == 961.0
        assert abs(hit["squared_distance"]) <= 1e-9

    def test_text_and_json_report_same_numbers(self, capsys):
        main(["check", "--format", "json", TABLE3])
        payload = json.loads(capsys.readouterr().out)
        main(["check", TABLE3])
        text = capsys.readouterr().out
        pat = re.compile(
            r"pair i=(\d+) j=(\d+)\s+squared=([\d.eE+-]+)\s+threshold=([\d.eE+-]+)"
        )
        text_rows = {
            (int(m[1]), int(m[2])): (float(m[3]), float(m[4]))
            for m in pat.finditer(text)
        }
        for p in payload["pairs"]:
            sq, thr = text_rows[(p["i"], p["j"])]
            assert sq == p["squared_distance"]
            assert thr == p["threshold"]

    def test_first_hit_mode_reports_single_pair(self, capsys):
        code = main(["check", "--no-all-pairs", TABLE3])
        assert code == 1
        assert capsys.readouterr().out.count("pair i=") == 1

    def test_near_parallel_crossing_links_collide(self, tmp_path, capsys):
        # two 2 m links crossing at 8e-6 rad, 5e-7 mm closer than the radius
        # sum (exact squared distance 899.99997): a parallel cut-off once sent
        # the pair to a four-edge search that saw only the ends, 900.000034
        scene = tmp_path / "crossing.scene"
        scene.write_text("robot a\ncapsule 0 0 0 2000 0 0 15\n"
                         "robot b\ncapsule 0 0.008 29.9999995 2000 -0.008 29.9999995 15\n")
        assert main(["check", str(scene)]) == 1
        text = capsys.readouterr().out
        assert re.search(r"^pair i=0 j=0 .*  COLLISION$", text, re.M)
        assert "verdict: collision" in text

    def test_sub_micron_axis_collides(self, tmp_path, capsys):
        # a 9e-7 mm capsule axis under a ball 2.0000005 mm above its start:
        # exact squared distance 3.9999984 against the threshold 4.  A cut-off
        # at |d|^2 < 1e-12 mm^2 once took the axis for its start point and
        # reported squared 4, "separate", exit 0
        scene = tmp_path / "short-axis.scene"
        scene.write_text("robot a\ncapsule 0 0 0 0 0 0.0000009 1\n"
                         "robot b\nball 0 0 2.0000005 1\n")
        assert main(["check", str(scene)]) == 1
        text = capsys.readouterr().out
        assert re.search(r"^pair i=0 j=0 .*  COLLISION$", text, re.M)
        assert "verdict: collision" in text

    @pytest.mark.parametrize("z, code, pairs", [(0, 1, [(1, 1, True)]), (10, 0, [])],
                             ids=["contact", "clear"])
    def test_ball_row_first_hit(self, tmp_path, z, code, pairs, capsys):
        # all balls, the only colliding pair (1, 1): robot b's centre (9, 0, 0)
        # sorts before robot a's (10, 0, 0), so fa's swap branch decides it;
        # then robot b moved 10 mm clear in z
        scene = tmp_path / "ball-row.scene"
        scene.write_text("robot a\nball 0 0 0 1\nball 10 0 0 1\n"
                         f"robot b\nball 0 100 {z} 1\nball 9 0 {z} 1\n")
        assert main(["check", "--format", "json", "--no-all-pairs", str(scene)]) == code
        payload = json.loads(capsys.readouterr().out)
        assert [(p["i"], p["j"], p["colliding"]) for p in payload["pairs"]] == pairs

    def test_tangency_prints_the_deciding_digits(self, tmp_path, capsys):
        # axes exactly 1 mm apart, radii 0.5: the float squared distance lands
        # one ulp above the threshold, and the text report shows that ulp
        scene = tmp_path / "tangent.scene"
        scene.write_text("robot a\ncapsule 0 0 0 0 1 1 0.5\nrobot b\ncapsule 1 1 0 1 0 2 0.5\n")
        main(["check", str(scene)])
        assert re.search(r"^pair i=0 j=0  squared=1\.0000000000000002  threshold=1\.0  ",
                         capsys.readouterr().out, re.M)

    def test_exit_codes_stable_across_formats(self, capsys):
        for fmt in ("text", "json"):
            assert main(["check", "--format", fmt, TABLE3]) == 1
            assert main(["check", "--format", fmt, SEPARATED]) == 0


class TestDist:
    def test_known_entries(self, capsys):
        assert main(["dist", "--format", "json", TABLE3]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {(p["i"], p["j"]): p for p in payload["pairs"]}
        assert rows[(6, 6)]["squared_distance"] == 3600.0
        assert rows[(6, 6)]["distance"] == 60.0
        assert abs(rows[(6, 5)]["squared_distance"]) <= 1e-9
        assert rows[(0, 0)]["squared_distance"] == 14400.0
        assert rows[(0, 0)]["distance"] == 120.0

    def test_single_robot_self_matrix(self, tmp_path, capsys):
        solo = tmp_path / "solo.scene"
        solo.write_text("robot r\nball 0 0 0 1\nball 3 4 0 1\n")
        assert main(["dist", "--format", "json", str(solo)]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {(p["i"], p["j"]): p for p in payload["pairs"]}
        assert rows[(0, 1)]["distance"] == 5.0
        assert rows[(1, 1)]["distance"] == 0.0

    def test_missing_file(self, capsys):
        assert main(["dist", "nope.scene"]) == 2


class TestSelftest:
    @pytest.fixture
    def flipped_null_contraction(self, monkeypatch):
        """The shipped Multivector products, built with e0 einf = +1 + e0^einf."""
        null = [list(row) for row in cga._NULL_PRODUCT]
        null[1][2] = {0: 1.0, 3: 1.0}
        monkeypatch.setattr(cga, "_NULL_PRODUCT", tuple(map(tuple, null)))
        cga.tables_for.cache_clear()
        yield
        cga.tables_for.cache_clear()

    def test_fresh_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        named = [ln for ln in lines if ln.startswith("ok")]
        assert len(named) >= 6

    def test_reports_distance_identity_check(self, capsys):
        main(["selftest"])
        assert "distance-identity" in capsys.readouterr().out

    def test_corrupted_metric_detected(self, flipped_null_contraction, capsys):
        assert main(["selftest"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_metric_check_list(self, flipped_null_contraction):
        checks = dict(selftest_checks())
        assert checks["null-contraction-is-minus-one"] is False
        assert checks["distance-identity"] is False


class TestArgumentParsing:
    def test_main_check_exit_codes(self, capsys):
        assert main(["check", TABLE3]) == 1
        assert main(["check", SEPARATED]) == 0
        capsys.readouterr()

    def test_scene_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_both_scene_styles_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", TABLE3, "--scene", TABLE3])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_no_all_pairs_flag(self, capsys):
        args = build_parser().parse_args(["check", TABLE3, "--no-all-pairs"])
        assert args.all_pairs is False
        args = build_parser().parse_args(["check", TABLE3])
        assert args.all_pairs is True
        capsys.readouterr()

    def test_selftest_via_main(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "distance-identity" in out


class TestEveryPairChecked:
    """Ball 0 of each robot sits on the other's; no option may drop that pair."""

    @pytest.fixture
    def coincident(self, tmp_path):
        scene = tmp_path / "coincident.scene"
        scene.write_text("robot a\nball 0 0 0 1\nball 500 0 0 1\n"
                         "robot b\nball 0 0 0 1\nball 0 500 0 1\n")
        return str(scene)

    @pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--no-all-pairs"]],
                             ids=["text", "json", "first-hit"])
    def test_check_reports_the_collision(self, coincident, flags, capsys):
        assert main(["check", *flags, coincident]) == 1
        out = capsys.readouterr().out
        if "json" in flags:
            hits = [(p["i"], p["j"]) for p in json.loads(out)["pairs"] if p["colliding"]]
            assert hits == [(0, 0)]
        else:
            assert "pair i=0 j=0" in out and "verdict: collision" in out

    @pytest.mark.parametrize("subcommand", ["check", "dist"])
    def test_pair_filter_flag_refused(self, coincident, subcommand, capsys):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--skip-adjacent", coincident])
        assert exc.value.code == 2
        assert "unrecognized arguments: --skip-adjacent" in capsys.readouterr().err


class TestSubprocessInvocation:
    def test_module_invocation_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from cgacollide.cli import entrypoint; entrypoint()",
             "check", TABLE3],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "verdict: collision" in proc.stdout

    @pytest.mark.parametrize("path, code", [(TABLE3, 1), (SEPARATED, 0)],
                             ids=["table3", "separated"])
    def test_python_dash_m_cli_check(self, path, code, capsys):
        # `python -m cgacollide.cli check` once printed nothing and exited 0 on contact
        proc = subprocess.run([sys.executable, "-m", "cgacollide.cli", "check", path],
                              capture_output=True, text=True)
        assert main(["check", path]) == code
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestCutStdout:
    """A reader that stops early (`check scene | head -1`) cuts the output,
    not the exit code, and no traceback reaches stderr."""

    @pytest.mark.parametrize("args, code", [
        (["check", SEPARATED], 0), (["check", TABLE3], 1),
        (["check", "--format", "json", TABLE3], 1), (["dist", TABLE3], 0), (["selftest"], 0),
    ], ids=["separated", "table3", "table3-json", "dist", "selftest"])
    def test_exit_code_keeps_the_verdict(self, args, code, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(args) == code
        assert sys.stdout.name == os.devnull  # the rest, final flush included, goes there
        sys.stdout.close()
        assert capsys.readouterr().err == ""

    def test_pipe_closed_by_the_reader(self, tmp_path):
        # 1600 pair lines, more than a pipe buffer holds, so the writer meets
        # the closed pipe; the clear verdict still exits 0
        balls = "".join(f"ball {10 * i} 0 0 1\n" for i in range(40))
        scene = tmp_path / "clear.scene"
        scene.write_text(f"robot a\n{balls}robot b\n{balls.replace(' 0 0 1', ' 1000 0 1')}")
        with subprocess.Popen([sys.executable, "-m", "cgacollide.cli", "check", str(scene)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == f"scene: {scene}\n".encode()
            proc.stdout.close()
            assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")


class TestPinnedOutput:
    """Every byte `check` and `dist` write, and every exit code, stays fixed."""

    MATRIX = [
        *(["check", *flags] for flags in (
            [], ["--format", "json"], ["--no-all-pairs"],
            ["--no-all-pairs", "--format", "json"],
        )),
        *(["dist", *flags] for flags in ([], ["--format", "json"])),
    ]

    def test_output_bytes(self, tmp_path, monkeypatch, capsys):
        for name in ("table3.scene", "separated.scene"):
            shutil.copy(bundled_scene_path(name), tmp_path / name)
        monkeypatch.chdir(tmp_path)  # relative names keep paths out of the bytes
        runs = [[*args, name] for name in ("table3.scene", "separated.scene")
                for args in self.MATRIX]
        runs += [["check", "no-such.scene"], ["dist", "no-such.scene"]]
        h = hashlib.sha256()
        for args in runs:
            code = main(args)
            out, err = capsys.readouterr()
            h.update(repr((args, code, out, err)).encode())
        assert h.hexdigest() == (
            "486fc30e66d89b332a9f1adab35414b594046c9bf0b447a1e87e123cb8e101a0"
        )
