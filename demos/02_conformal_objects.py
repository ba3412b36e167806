"""The conformal object zoo: spheres, planes, circles, lines.

Inner-product (IPNS) objects answer "is this point inside / how far" via a
single inner product; outer-product (OPNS) objects are built by wedging
the points that span them.

Run:  python3 demos/02_conformal_objects.py
"""

from cgacollide import (
    circle_ipns,
    circle_opns,
    line_ipns,
    line_opns,
    plane,
    plane_opns,
    point,
    sphere,
    sphere_opns,
)

# ----------------------------------------------------------------------
# IPNS sphere: the sign of point | sphere classifies inside vs outside.
# ----------------------------------------------------------------------
s = sphere((0.0, 0.0, 0.0), 10.0)
print("sphere r=10 at origin:", s)
for x in [(0, 0, 0), (0, 0, 9.999), (0, 0, 10.0), (0, 0, 10.001)]:
    val = (point(x) | s).scalar
    where = "inside" if val >= 0 else "outside"
    print(f"  x={x}: P|S = {val:10.4f}  -> {where}")

# ----------------------------------------------------------------------
# IPNS plane: point | plane is the signed distance to the plane.
# ----------------------------------------------------------------------
pi = plane((0.0, 0.0, 1.0), 5.0)  # z = 5
print("\nplane z=5:", pi)
for x in [(0, 0, 0), (3, 4, 5), (0, 0, 12)]:
    print(f"  x={x}: signed distance = {(point(x) | pi).scalar:g}")

# ----------------------------------------------------------------------
# OPNS constructions: wedge the spanning points.  Repeating a point
# collapses the object to zero, and collinear points degenerate a circle
# into the line through them.
# ----------------------------------------------------------------------
p1, p2, p3, p4 = point((1, 0, 0)), point((0, 1, 0)), point((0, 0, 1)), point((0, 0, 0))
print("\ncircle through 3 points :", circle_opns(p1, p2, p3))
print("line through 2 points   :", line_opns(p1, p2))
print("plane through 3 points  :", plane_opns(p1, p2, p3))
print("sphere through 4 points :", sphere_opns(p1, p2, p3, p4))
print("repeated point wedge    :", line_opns(p1, p1))

a, b, c = point((0, 0, 0)), point((0, 0, 1)), point((0, 0, 2))
print("\ncollinear circle equals the line:", circle_opns(a, b, c) == line_opns(a, b))

# ----------------------------------------------------------------------
# IPNS intersections: a circle as the meet pencil of two spheres, a line
# as the meet pencil of two planes.
# ----------------------------------------------------------------------
z = circle_ipns(sphere((0, 0, 0), 1.0), sphere((2, 0, 0), 1.0))
print("\ntouching spheres pencil (grade 2):", not z.is_zero())
l = line_ipns(plane((1, 0, 0), 0.0), plane((0, 1, 0), 0.0))
print("z-axis as plane meet:", l)
