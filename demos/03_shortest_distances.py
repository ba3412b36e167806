"""The three squared-distance kernels and their case analysis.

All values are SQUARED millimeters: every collision test downstream
compares against a squared radius sum, so the square root is never needed
on the hot path.

Run:  python3 demos/03_shortest_distances.py
"""

from cgacollide import Segment, center_dist_fa, center_dist_fb, center_dist_fc


def dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def cross(x, y):
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])


# ----------------------------------------------------------------------
# Point vs point: straight from the conformal inner product.
# ----------------------------------------------------------------------
print("fa((0,0,0), (0,0,65))       =", center_dist_fa((0, 0, 0), (0, 0, 65)))
print("fa((70,90,130),(70,30,130)) =", center_dist_fa((70, 90, 130), (70, 30, 130)))

# ----------------------------------------------------------------------
# Point vs segment: the projection parameter decides between the two
# endpoints and the interior foot point.
# ----------------------------------------------------------------------
seg = Segment((0, 0, 65), (0, 0, 130))
for p in [(0, 0, 0), (0, 0, 200), (3, 4, 100)]:
    r = center_dist_fb(p, seg)
    print(f"fb({p}) -> squared {r.squared_distance:g} at s={r.s2:g}, closest {r.q2}")

# ----------------------------------------------------------------------
# Segment vs segment.  Non-parallel pairs may have a stationary point of
# the distance quadratic in the parameter square: there the gap q1 - q2 is
# perpendicular to both directions.  One chain covers every pair: clamp s1
# of the stationary point to [0, 1], solve s2 from there, and only if s2
# leaves [0, 1], clamp it and re-solve s1.  Parallel pairs (zero cross
# product) have no single stationary point; the clamp then starts from the
# end of segment 1 that the sign of s1's numerator picks, and any start
# gives a parallel pair the same distance.
# ----------------------------------------------------------------------
skew1 = Segment((0, 0, 0), (1, 0, 0))
skew2 = Segment((0, 1, 1), (0, -1, 1))
r = center_dist_fc(skew1, skew2)
gap = (r.q1[0] - r.q2[0], r.q1[1] - r.q2[1], r.q1[2] - r.q2[2])
print("\nskew pair: gap perpendicular to both directions:",
      dot(gap, skew1.direction) == dot(gap, skew2.direction) == 0.0,
      f"-> stationary point ({r.s1:g}, {r.s2:g})")
print(f"fc = {r.squared_distance:g} at (s1, s2) = ({r.s1:g}, {r.s2:g})")

par1 = Segment((0, 0, 0), (0, 0, 130))
par2 = Segment((0, 120, 0), (0, 120, 130))
print("\nparallel pair: direction1 x direction2 =", cross(par1.direction, par2.direction))
print("no single stationary point: fc starts at an end of segment 1 and solves s2 from it")
r = center_dist_fc(par1, par2)
print(f"fc = {r.squared_distance:g} at (s1, s2) = ({r.s1:g}, {r.s2:g}) (constant gap 120)")
