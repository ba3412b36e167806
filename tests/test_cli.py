import functools
import hashlib
import json
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

    @pytest.mark.parametrize("subcommand", ["check", "dist"])
    def test_huge_coordinate_exits_two(self, tmp_path, subcommand, capsys):
        # two coincident balls at 1e155 once gave a NaN distance and exit 0
        huge = tmp_path / "huge.scene"
        huge.write_text("robot a\nball 1e155 0 0 1\nrobot b\nball 1e155 0 0 1\n")
        assert main([subcommand, "--format", "json", str(huge)]) == 2
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
            assert abs(sq - p["squared_distance"]) <= 1e-6 * max(1.0, p["squared_distance"])
            assert thr == p["threshold"]

    def test_first_hit_mode_reports_single_pair(self, capsys):
        code = main(["check", "--no-all-pairs", TABLE3])
        assert code == 1
        assert capsys.readouterr().out.count("pair i=") == 1

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
    def all_positive_metric(self, monkeypatch):
        """The shipped Multivector products, built on signature (+,+,+,+,+)."""
        monkeypatch.setattr(cga, "tables_for", functools.partial(cga.tables_for, (1.0,) * 5))

    def test_fresh_build_passes(self, capsys):
        assert main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        named = [ln for ln in lines if ln.startswith("ok")]
        assert len(named) >= 6

    def test_reports_distance_identity_check(self, capsys):
        main(["selftest"])
        assert "distance-identity" in capsys.readouterr().out

    def test_corrupted_metric_detected(self, all_positive_metric, capsys):
        assert main(["selftest"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_metric_check_list(self, all_positive_metric):
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
            "3619c0d684346d261f8f3e6e1650c8dcfaf62d0b1df74b23d04ebb0afac8d486"
        )
