"""Whole-robot collision check on the bundled two-arm scenario.

Each arm is six capsule links (radius 15 mm) plus a ball end effector
(radius 16 mm).  Two robots collide iff some component pair does; the
report lists the evidence for every pair.

Run:  python3 demos/04_two_arm_collision.py
"""

from cgacollide import (
    Capsule,
    ClosedBall,
    RobotModel,
    Segment,
    load_table3,
    robots_collide,
    serialize_scene,
)
from cgacollide.scene import Scene

scene = load_table3()
r1, r2 = scene.robots
print(f"{r1.name}: {len(r1)} components;  {r2.name}: {len(r2)} components")

report = robots_collide(r1, r2)
print(f"\nverdict: {'COLLISION' if report.verdict else 'clear'}")
print("colliding pairs (i, j, squared distance, squared threshold):")
for p in report.pairs:
    if p.colliding:
        print(f"  ({p.i}, {p.j})  {p.squared_distance:10.4g}  <= {p.threshold:g}")

# The tightest contact: the first arm's end effector sits exactly on the
# second arm's forearm axis.
hit = next(p for p in report.pairs if (p.i, p.j) == (6, 5))
print(f"\nend effector vs forearm: squared distance {hit.squared_distance:g}")

# ----------------------------------------------------------------------
# Negative control: translate the second robot 10 meters away in y and
# every pair separates.
# ----------------------------------------------------------------------
def shifted(p):
    x, y, z = p
    return (x, y + 10000.0, z)


def translated(component):
    if isinstance(component, ClosedBall):
        return ClosedBall(shifted(component.center), component.radius)
    return Capsule(
        Segment(shifted(component.axis.start), shifted(component.axis.end)),
        component.radius,
    )


moved = RobotModel(r2.name, tuple(translated(c) for c in r2.components))
clear = robots_collide(r1, moved)
print(f"\nafter +10 m translation: verdict {'COLLISION' if clear.verdict else 'clear'}, "
      f"{sum(p.colliding for p in clear.pairs)} colliding pairs out of {len(clear.pairs)}")

# Scenes round-trip through the plain-text format bit-exactly.
text = serialize_scene(Scene((r1, moved)))
print("\nserialized scene head:")
print("\n".join(text.splitlines()[:4]))
