"""
Two routes to the geometry of the sphere
========================================

Every manifold kind carries closed-form exponential, logarithm and
parallel-transport maps next to generic RK4 integrators with per-step
reprojection.  The two routes are independent implementations of the same
geometry, so each one certifies the other.
"""

import numpy as np

from loopspace_lab import (
    LocalAdditionSpec, Sphere2, TangentAtPoint, exp_map, log_by_shooting,
    log_map, parallel_transport, project_tangent,
)

sphere = Sphere2()
north = np.array([0.0, 0.0, 1.0])

# projecting an ambient vector onto the tangent plane at the north pole
v = project_tangent(sphere, north, np.array([1.0, 2.0, 3.0]))
print("projection of (1,2,3) at the pole:", v.vector)

# the integrated exponential against the great-circle closed form
quarter = TangentAtPoint(sphere, north, np.array([np.pi / 2, 0.0, 0.0]))
integrated = exp_map(sphere, quarter, steps=200)
closed = sphere.exp(north, quarter.vector)
print("integrated exp:", integrated)
print("closed-form exp:", closed, " gap:", np.max(np.abs(integrated - closed)))

# log by shooting on the integrated exponential vs the closed form
target = sphere.exp(north, np.array([0.9, 0.4, 0.0]))
shot = log_by_shooting(sphere, north, target)
direct = log_map(sphere, north, target)
print("shooting vs closed-form log gap:",
      np.max(np.abs(shot.vector - direct.vector)))

# parallel transport along a quarter great circle rotates tangent vectors
# (the rotation-by-pi/2 oracle) and fixes the normal of the plane
theta = np.linspace(0, np.pi / 2, 201)
path = np.stack([np.sin(theta), np.zeros_like(theta), np.cos(theta)], axis=-1)
moved = parallel_transport(sphere, path,
                           TangentAtPoint(sphere, north, np.array([1.0, 0, 0])))
fixed = parallel_transport(sphere, path,
                           TangentAtPoint(sphere, north, np.array([0.0, 1, 0])))
print("transported (1,0,0):", moved.vector, " (expect (0,0,-1))")
print("transported (0,1,0):", fixed.vector, " (stays put)")

# the local addition compresses the whole tangent plane into a metric ball
spec = LocalAdditionSpec(sphere)
big = TangentAtPoint(sphere, north, np.array([40.0, -9.0, 0.0]))
q = spec.forward(north, big.vector)
print("eta(p, huge v) stays within", sphere.dist(north, q), "< pi/2")
print("inverse recovers v to",
      np.max(np.abs(spec.inverse(north, q) - big.vector)))

# nearest-point projection: the tubular map of the embedding
print("projection of (0,0,2):", sphere.project_point([0.0, 0.0, 2.0]))
