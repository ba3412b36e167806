"""Conformal-geometric-algebra collision checking for robots modeled as
unions of closed balls and capsules.

The package is organized bottom-up:

* primitives: the input rules; closed balls, axis segments, capsules
* cga:        dense multivector arithmetic over the 5D conformal algebra
* objects:    conformal points, spheres, planes, circles, lines
* distance:   the three squared-distance kernels (point-point,
              point-segment, segment-segment) with full case analysis
* collision:  the one pair dispatch, membership, robot models, evidence reports
* scene:      plain-text scene files plus the bundled two-arm scenario
* cli:        `cgacollide check|dist|selftest`

All distances are SQUARED millimeters unless a name says otherwise.
Input is checked once, where it enters: primitives.as_triple (coordinates)
and primitives.as_radius (radius >= 0) back every primitive and accept
only real numbers within MAX_MM of zero, so no kernel overflows; scene
parsing checks syntax only.  A coordinate has one form, the float triple:
primitives hold it and the kernels return it, and a multivector holds a
tuple of 32 floats, so the package needs nothing beyond the standard
library.  Only the pipeline and the paper's models ship; test-only helpers
do not.
"""

from .cga import (
    BLADE_COUNT,
    DIMENSION,
    Multivector,
    mbasis,
    null_inf,
    null_zero,
    scalar,
    zero,
)
from .collision import (
    CollisionReport,
    Component,
    PairCheck,
    RobotModel,
    components_collide,
    contains,
    robot_union_fold,
    robots_collide,
    robots_collide_any,
)
from .distance import (
    ClosestPair,
    center_dist_fa,
    center_dist_fb,
    center_dist_fc,
)
from .objects import (
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
from .primitives import (
    Capsule,
    ClosedBall,
    Segment,
    segment_point_at,
)
from .scene import (
    Scene,
    SceneError,
    bundled_scene_path,
    load_scene,
    load_table3,
    parse_scene,
    serialize_scene,
)

__version__ = "0.1.0"
