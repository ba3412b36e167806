"""Spans around the package's public functions, installed from outside it.

Each target function is replaced by a wrapper in every `cgacollide` module
namespace that holds it, so calls made inside the package are traced too
(`point` is rebound in `cgacollide.objects`, `cgacollide.distance` and the
package itself).  A span records name, start, end and parent; after each op
the spans are folded into per-name call counts and self time, which is the
span's duration minus the durations of its child spans.

A target missing from the package under test is reported as absent and
counts zero, so the benchmark keeps working while the API changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

PACKAGE = "cgacollide"


def _parse_lines(args, kwargs, result, counts):
    text = args[0] if args else kwargs.get("text", "")
    counts["scene.lines"] += len(text.splitlines())


def _pairs_available(args, kwargs, result, counts):
    r1, r2 = args[:2]
    counts["collision.pairs_available"] += len(r1.components) * len(r2.components)


def _fc_branch(args, kwargs, result, counts):
    s1, s2 = getattr(result, "s1", None), getattr(result, "s2", None)
    if s1 is not None and 0.0 < s1 < 1.0 and 0.0 < s2 < 1.0:
        counts["distance.fc_interior"] += 1


# (module, attribute, span name, hook run after the call).  "Class.__init__"
# traces construction of that class.
TARGETS = (
    ("cga", "inner", "cga.inner", None),
    ("objects", "point", "objects.point", None),
    ("objects", "as_coords", "objects.as_coords", None),
    ("primitives", "ClosedBall.__init__", "primitives.build", None),
    ("primitives", "Segment.__init__", "primitives.build", None),
    ("primitives", "Capsule.__init__", "primitives.build", None),
    ("distance", "center_dist_fa", "distance.fa", None),
    ("distance", "center_dist_fb", "distance.fb", None),
    ("distance", "center_dist_fc", "distance.fc", _fc_branch),
    ("collision", "components_collide", "collision.pair", None),
    ("collision", "robots_collide", "collision.robots", _pairs_available),
    ("collision", "robots_collide_any", "collision.robots", _pairs_available),
    ("scene", "parse_scene", "scene.parse", _parse_lines),
    ("scene", "serialize_scene", "scene.serialize", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_check", "cli.run_check", None),
)


class Tracer:
    """Installs span wrappers; use as a context manager to restore them."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result, counts)
            return result

        return traced

    def __enter__(self):
        owners = {}
        for module_name, *_ in TARGETS:
            try:
                owners[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for module_name, attr, name, hook in TARGETS:
            module = owners.get(module_name)
            if module is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._undo.append((cls, method, vars(cls)[method]))
                setattr(cls, method, self._wrap(vars(cls)[method], name, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def fold(self):
        """Fold the spans of the op just run into counts and self time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            self.calls[name] += 1
            self.self_s[name] += end - start - inner
        self.spans.clear()

    def metrics(self, ops: int) -> dict:
        """Per-op layer metrics as name -> (value, unit)."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def per_op(x):
            return x / ops

        def us(*names):
            return (per_op(sum(self_s[n] for n in names)) * 1e6, "us")

        def ratio(num, den):
            return (num / den if den else 0.0, "ratio")

        out = {
            "cga.inner_calls": (per_op(calls["cga.inner"]), "count"),
            "cga.inner_us": us("cga.inner"),
            "objects.point_calls": (per_op(calls["objects.point"]), "count"),
            "objects.point_us": us("objects.point"),
            "objects.as_coords_calls": (per_op(calls["objects.as_coords"]), "count"),
            "objects.as_coords_us": us("objects.as_coords"),
            "primitives.built": (per_op(calls["primitives.build"]), "count"),
            "primitives.build_us": us("primitives.build"),
        }
        for k in ("fa", "fb", "fc"):
            out[f"distance.{k}_calls"] = (per_op(calls[f"distance.{k}"]), "count")
            out[f"distance.{k}_us"] = us(f"distance.{k}")
        out["distance.fb_per_fc"] = ratio(calls["distance.fb"], calls["distance.fc"])
        out["distance.fc_interior_frac"] = ratio(counts["distance.fc_interior"], calls["distance.fc"])
        out["collision.pairs"] = (per_op(calls["collision.pair"]), "count")
        out["collision.dispatch_us"] = us("collision.pair", "collision.robots")
        out["collision.pairs_evaluated_frac"] = ratio(
            calls["collision.pair"], counts["collision.pairs_available"]
        )
        out["scene.lines"] = (per_op(counts["scene.lines"]), "count")
        out["scene.parse_us"] = us("scene.parse")
        out["scene.serialize_us"] = us("scene.serialize")
        out["cli.main_us"] = us("cli.main")
        out["cli.run_check_us"] = us("cli.run_check")
        return out
