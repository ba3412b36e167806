import hashlib
import math
import os
import re

import numpy as np
import pytest

import cgacollide.scene as scene_module
from cgacollide.collision import RobotModel
from cgacollide.primitives import Capsule, ClosedBall, Segment
from cgacollide.scene import (
    Scene,
    SceneError,
    bundled_scene_path,
    load_scene,
    load_table3,
    parse_scene,
    serialize_scene,
)
from oracle import robots_equal


def scenes_equal(a: Scene, b: Scene) -> bool:
    if len(a.robots) != len(b.robots):
        return False
    for ra, rb in zip(a.robots, b.robots):
        if ra.name != rb.name or not robots_equal(ra, rb, tol=0.0):
            return False
    return True


class TestParse:
    def test_bundled_table3(self):
        scene = load_table3()
        assert len(scene.robots) == 2
        for robot in scene.robots:
            assert len(robot) == 7
            caps = [c for c in robot.components if isinstance(c, Capsule)]
            balls = [c for c in robot.components if isinstance(c, ClosedBall)]
            assert len(caps) == 6 and all(c.radius == 15.0 for c in caps)
            assert len(balls) == 1 and balls[0].radius == 16.0
        assert np.array_equal(scene.robots[0].components[6].center, (70, 90, 130))
        assert np.array_equal(scene.robots[1].components[6].center, (70, 30, 130))

    def test_empty_input(self):
        with pytest.raises(SceneError, match="no robots"):
            parse_scene("")

    def test_negative_radius(self):
        text = "robot r\ncapsule 0 0 0 0 0 65 -1\n"
        with pytest.raises(SceneError, match="negative radius") as exc:
            parse_scene(text)
        assert exc.value.line == 2

    def test_component_before_robot(self):
        with pytest.raises(SceneError, match="before any robot") as exc:
            parse_scene("ball 0 0 0 1\n")
        assert exc.value.line == 1

    def test_bad_number_reports_line(self):
        text = "robot r\nball 0 0 zero 1\n"
        with pytest.raises(SceneError, match="could not convert string to float: 'zero'") as exc:
            parse_scene(text)
        assert exc.value.line == 2

    def test_nonfinite_number_rejected(self):
        with pytest.raises(SceneError, match="non-finite"):
            parse_scene("robot r\nball 0 0 inf 1\n")
        with pytest.raises(SceneError, match="non-finite") as exc:
            parse_scene("robot r\nball 0 0 0 inf\n")
        assert exc.value.line == 2

    def test_huge_finite_number_rejected(self):
        # a coincident pair at 1e155 would square to inf and read as clear
        for text in ("robot r\nball 1e155 0 0 1\n", "robot r\nball 0 0 0 1e155\n",
                     "robot r\ncapsule 0 0 0 0 -1e155 0 1\n"):
            with pytest.raises(SceneError, match="beyond") as exc:
                parse_scene(text)
            assert exc.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(SceneError, match="takes 7 numbers"):
            parse_scene("robot r\ncapsule 0 0 0 1\n")

    def test_unknown_record(self):
        with pytest.raises(SceneError, match="unknown record") as exc:
            parse_scene("robot r\nball 0 0 0 1\ncylinder 1 2 3\n")
        assert exc.value.line == 3

    def test_duplicate_robot_names(self):
        text = "robot r\nball 0 0 0 1\nrobot r\nball 1 1 1 1\n"
        with pytest.raises(SceneError, match="duplicate"):
            parse_scene(text)

    def test_scene_rejects_duplicate_robot_names(self):
        # the parser stops a repeated name first, so this is Scene's own rule
        robot = RobotModel("r", (ClosedBall((0, 0, 0), 1.0),))
        with pytest.raises(SceneError, match="duplicate robot name"):
            Scene([robot, robot])

    def test_robot_without_components(self):
        with pytest.raises(SceneError, match="no components") as exc:
            parse_scene("robot a\nrobot b\nball 0 0 0 1\n")
        assert exc.value.line == 1

    def test_last_robot_without_components(self):
        with pytest.raises(SceneError, match="no components") as exc:
            parse_scene("robot a\nball 0 0 0 1\nrobot b\n")
        assert exc.value.line == 3

    def test_line_errors_come_before_model_errors(self):
        # every line is read before any robot is built, so the unknown record
        # on line 4 wins over robot a's missing components on line 1
        with pytest.raises(SceneError, match="unknown record 'cylinder'") as exc:
            parse_scene("robot a\nrobot b\nball 0 0 0 1\ncylinder 1 2 3\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize(
        "robots",
        [("x", "y"), (RobotModel("a", (ClosedBall((0, 0, 0), 1.0),)), 5)],
        ids=["text", "model-and-int"],
    )
    def test_scene_holds_only_robot_models(self, robots):
        with pytest.raises(SceneError, match="RobotModel"):
            Scene(robots)

    @pytest.mark.parametrize(
        "robots",
        [5, None, 1.5, {RobotModel("a", (ClosedBall((0, 0, 0), 1.0),))},
         frozenset({RobotModel("a", (ClosedBall((0, 0, 0), 1.0),))}),
         {RobotModel("a", (ClosedBall((0, 0, 0), 1.0),)): None}],
        ids=["int", "none", "float", "set", "frozenset", "dict"],
    )
    def test_non_iterable_robots_rejected(self, robots):
        with pytest.raises(SceneError, match="iterable"):
            Scene(robots)

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\nrobot r  # trailing\n  ball 0 0 0 1\n\n"
        scene = parse_scene(text)
        assert len(scene.robots) == 1
        assert len(scene.robots[0]) == 1

    def test_single_ball_robot_two_lines(self):
        scene = parse_scene("robot solo\nball 1 2 3 4\n")
        out = serialize_scene(scene)
        assert out.splitlines() == ["robot solo", "ball 1.0 2.0 3.0 4.0"]


# Characters str.splitlines() breaks at that a text-mode read keeps inside a line.
NOT_LINE_ENDS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEnds:
    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=repr)
    def test_comment_runs_to_the_real_line_end(self, sep):
        scene = parse_scene(f"robot a\nball 0 0 0 1 # was{sep}ball 5 5 5 1\n")
        assert len(scene.robots[0]) == 1

    @pytest.mark.parametrize("sep", NOT_LINE_ENDS, ids=repr)
    def test_error_lines_count_real_lines(self, sep):
        with pytest.raises(SceneError, match="unknown record 'cylinder'") as exc:
            parse_scene(f"robot a\n# c{sep}c\nball 0 0 0 1\ncylinder 1 2 3\n")
        assert exc.value.line == 4

    @pytest.mark.parametrize("sep", ["\n", "\r\n", "\r"] + NOT_LINE_ENDS, ids=repr)
    def test_parse_ends_lines_where_load_does(self, sep, tmp_path):
        text = f"robot a{sep}ball 0 0 0 1 # c{sep}ball 5 5 5 1\nrobot a\n"
        path = tmp_path / "s.scene"
        path.write_bytes(text.encode("utf-8"))
        errors = []
        for parse in (lambda: parse_scene(text), lambda: load_scene(path)):
            with pytest.raises(SceneError) as exc:
                parse()
            errors.append((str(exc.value), exc.value.line))
        assert errors[0] == errors[1]

    def test_load_drops_utf8_bom(self, tmp_path):
        # a BOM once read as part of the first record: "unknown record '\ufeffrobot'"
        text = "robot a\nball 0 0 0 1\nrobot b\ncapsule 0 0 0 0 0 65 15\n"
        path = tmp_path / "bom.scene"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert scenes_equal(load_scene(path), parse_scene(text))


class TestNumberGrammar:
    """A component line is ASCII without '_', and no number written non-zero reads as 0.0."""

    @pytest.mark.parametrize("tok", ["1_000", "\u0661\u0662\u0663", "\uff11\uff12"], ids=repr)
    @pytest.mark.parametrize("at", [0, 3])
    def test_non_ascii_or_underscore_token_rejected_at_its_line(self, tok, at):
        args = ["0", "0", "0", "1"]
        args[at] = tok
        with pytest.raises(SceneError, match="ASCII without '_'") as exc:
            parse_scene(f"robot a\nball 0 0 0 1\nball {' '.join(args)}\n")
        assert exc.value.line == 3

    def test_non_ascii_whitespace_in_a_component_line_rejected(self):
        with pytest.raises(SceneError, match="ASCII") as exc:
            parse_scene("robot a\nball 0\u20280 0 1\n")
        assert exc.value.line == 2

    def test_ascii_whitespace_comments_and_names_stay_free(self):
        scene = parse_scene("robot \u00e9\nball 0\f0\v0 1 # \u00e9_1\n")
        assert scene.robots[0].name == "\u00e9"
        assert scene.robots[0].components[0] == ClosedBall((0, 0, 0), 1)

    @pytest.mark.parametrize("tok", ["1e-400", "-1e-400", "1E-400", "0.0001e-400", "100e-400"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_non_zero_token_that_flushes_to_zero_rejected_at_its_line(self, tok, at):
        args = ["0", "0", "0", "1"]
        args[at] = tok
        with pytest.raises(SceneError, match=f"{tok!r} is not zero but reads as 0.0") as exc:
            parse_scene(f"robot a\nball 1 2 3 4\n\nball {' '.join(args)}\n")
        assert exc.value.line == 4

    def test_subnormal_token_keeps_its_value(self):
        ball = parse_scene("robot a\nball 1e-320 0 0 1\n").robots[0].components[0]
        assert ball.center[0] == 1e-320 > 0.0

    @pytest.mark.parametrize("tok, sign", [("0", 1.0), ("-0", -1.0), ("0.0", 1.0), ("0e5", 1.0),
                                           ("0.0e-999", 1.0), ("-.0E+3", -1.0), ("+00.000", 1.0)])
    def test_zero_tokens_read_as_zero(self, tok, sign):
        capsule = parse_scene(f"robot a\ncapsule {tok} 0 0 0 0 1 {tok}\n").robots[0].components[0]
        x, radius = capsule.axis.start[0], capsule.radius
        assert x == radius == 0.0
        assert math.copysign(1.0, x) == math.copysign(1.0, radius) == sign

    @pytest.mark.parametrize("name", ["table3.scene", "separated.scene"])
    def test_bundled_scenes_round_trip_unchanged(self, name):
        scene = load_scene(bundled_scene_path(name))
        text = serialize_scene(scene)
        again = parse_scene(text)
        assert scenes_equal(scene, again) and serialize_scene(again) == text


class TestRoundTrip:
    def test_table3_round_trips(self):
        scene = load_table3()
        again = parse_scene(serialize_scene(scene))
        assert scenes_equal(scene, again)

    def test_fractional_values_bit_exact(self):
        scene = parse_scene("robot r\ncapsule 0 0 65 0 0 130 15\nball 0 0 97.5 1.25\n")
        again = parse_scene(serialize_scene(scene))
        ball = again.robots[0].components[1]
        assert ball.center[2] == 97.5
        assert ball.radius == 1.25

    def test_randomized_scenes_round_trip(self):
        rng = np.random.default_rng(301)
        for case in range(100):
            robots = []
            for rid in range(int(rng.integers(1, 4))):
                comps = []
                for _ in range(int(rng.integers(1, 6))):
                    if rng.random() < 0.5:
                        comps.append(
                            ClosedBall(rng.uniform(-1e4, 1e4, 3), float(rng.uniform(0, 50)))
                        )
                    else:
                        comps.append(
                            Capsule(
                                Segment(
                                    rng.uniform(-1e4, 1e4, 3), rng.uniform(-1e4, 1e4, 3)
                                ),
                                float(rng.uniform(0, 50)),
                            )
                        )
                robots.append(RobotModel(f"robot{case}_{rid}", tuple(comps)))
            scene = Scene(tuple(robots))
            again = parse_scene(serialize_scene(scene))
            assert scenes_equal(scene, again)


class TestSerializeMatchesArrayPath:
    """serialize_scene writes the stored float triples; the text must equal
    repr of each value of np.array(coords, dtype=float64).tolist()."""

    @staticmethod
    def array_path_text(robots) -> str:
        lines = []
        for name, comps in robots:
            lines.append(f"robot {name}")
            for kind, coords, r in comps:
                nums = np.array(coords, dtype=np.float64).tolist()
                lines.append(" ".join([kind, *map(repr, nums), repr(float(r))]))
        return "\n".join(lines) + "\n"

    def test_table3_text_is_pinned(self):
        text = serialize_scene(load_table3())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "585b4aa0ae6a5387abc0247bc2ae1b0e80b957c14891667b6996c18cd5d41ff5"
        )

    def test_random_components_across_scales(self):
        rng = np.random.default_rng(606)
        robots, models = [], []
        for rid in range(6):
            comps, built = [], []
            for _ in range(100):  # 600 components in all
                scale = 10.0 ** rng.uniform(-8, 7)
                coords = rng.uniform(-1, 1, 6) * scale
                coords[rng.random(6) < 0.1] = -0.0
                r = -0.0 if rng.random() < 0.05 else float(rng.uniform(0, 1) * scale)
                if rng.random() < 0.5:
                    comps.append(("ball", coords[:3], r))
                    built.append(ClosedBall(coords[:3], r))
                else:
                    comps.append(("capsule", coords, r))
                    built.append(Capsule(Segment(coords[:3], coords[3:]), r))
            robots.append((f"r{rid}", comps))
            models.append(RobotModel(f"r{rid}", tuple(built)))
        text = serialize_scene(Scene(tuple(models)))
        assert "-0.0" in text
        assert text == self.array_path_text(robots)


class TestSerializeRobotNames:
    """A name the parser would split or cut at '#' must not be written."""

    @pytest.mark.parametrize(
        "names",
        [("a#",), ("arm #1", "arm #2"), ("left arm",), ("",)],
        ids=["hash", "hash-suffixes", "space", "empty"],
    )
    def test_unreadable_name_rejected(self, names):
        ball = ClosedBall((0, 0, 0), 1.0)
        scene = Scene(tuple(RobotModel(n, (ball,)) for n in names))
        with pytest.raises(SceneError, match=re.escape(repr(names[0]))):
            serialize_scene(scene)

    def test_readable_names_still_round_trip(self):
        ball = ClosedBall((0, 0, 0), 1.0)
        scene = Scene((RobotModel("arm-1", (ball,)), RobotModel("arm_2.b", (ball,))))
        again = parse_scene(serialize_scene(scene))
        assert [r.name for r in again.robots] == ["arm-1", "arm_2.b"]


class TestBundles:
    def test_both_bundles_exist(self):
        for name in ("table3.scene", "separated.scene"):
            scene = load_scene(bundled_scene_path(name))
            assert len(scene.robots) == 2

    def test_unknown_bundle(self):
        with pytest.raises(FileNotFoundError):
            bundled_scene_path("missing.scene")

    @pytest.mark.parametrize("name", ["../cli.py", "../data/table3.scene", "data/table3.scene",
                                      "..", ".", "", pytest.param(os.path.abspath(scene_module.__file__),
                                                                  id="absolute-module-path")])
    def test_only_plain_names_in_data(self, name):
        with pytest.raises(FileNotFoundError):
            bundled_scene_path(name)

    def test_separated_scene_is_translation(self):
        base = load_table3()
        far = load_scene(bundled_scene_path("separated.scene"))
        shift = np.array([0.0, 10000.0, 0.0])
        for c1, c2 in zip(base.robots[1].components, far.robots[1].components):
            if isinstance(c1, ClosedBall):
                assert np.array_equal(c1.center + shift, c2.center)
            else:
                assert np.array_equal(c1.axis.start + shift, c2.axis.start)
                assert np.array_equal(c1.axis.end + shift, c2.axis.end)
