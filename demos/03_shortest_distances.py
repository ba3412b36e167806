"""The three squared-distance kernels and their case analysis.

All values are SQUARED millimeters: every collision test downstream
compares against a squared radius sum, so the square root is never needed
on the hot path.

Run:  python3 demos/03_shortest_distances.py
"""

from cgacollide import (
    Segment,
    center_dist_fa,
    center_dist_fb,
    center_dist_fc,
    segment_pair_coefficients,
    stationary_point,
)

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
# Segment vs segment.  Non-parallel pairs may have an interior stationary
# point of the distance quadratic; otherwise the minimum sits on the
# boundary of the parameter square and four clamped 1-D problems find it.
# ----------------------------------------------------------------------
skew1 = Segment((0, 0, 0), (1, 0, 0))
skew2 = Segment((0, 1, 1), (0, -1, 1))
co = segment_pair_coefficients(skew1, skew2)
st = stationary_point(co)
print("\nskew pair: stationary point exists:", st.exists, f"at ({st.s1k:g}, {st.s2k:g})")
r = center_dist_fc(skew1, skew2)
print(f"fc = {r.squared_distance:g} at (s1, s2) = ({r.s1:g}, {r.s2:g})")

par1 = Segment((0, 0, 0), (0, 0, 130))
par2 = Segment((0, 120, 0), (0, 120, 130))
co = segment_pair_coefficients(par1, par2)
print("\nparallel pair: a*c - b^2 =", co.a * co.c - co.b * co.b)
print("stationary point exists:", stationary_point(co).exists)
r = center_dist_fc(par1, par2)
print(f"fc = {r.squared_distance:g} (constant gap 120)")
