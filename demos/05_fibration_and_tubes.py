"""
The based fibration and coincidence tubes
=========================================

Evaluation at time zero fibers the loop space over the manifold.  Flows of
compactly supported bump fields split this fibration locally, and the same
flow idea, run vertically in a normal bundle, builds tubular neighbourhoods
of the loops-through-a-point and pairs-coinciding-at-zero submanifolds.
"""

import numpy as np

from loopspace_lab import (
    SampledLoop, Sphere2, based_detrivialize, based_trivialize,
    diagonal_tube_forward, diagonal_tube_inverse,
    point_tube_forward, point_tube_inverse, pou_section, random_section,
    random_tangent,
)
from loopspace_lab.manifolds import LocalAdditionSpec, TangentAtPoint

sphere = Sphere2()
rng = np.random.default_rng(2)
north = np.array([0.0, 0.0, 1.0])
n = 128

# a loop near the north pole, split into (based loop, base point)
seed = random_section(rng, sphere, SampledLoop.constant(north, n), scale=0.25)
gamma = SampledLoop(sphere.exp(np.tile(north, (n, 1)), seed.vectors))
omega, u = based_trivialize(sphere, north, gamma)
print("omega(0) is the pole:", np.max(np.abs(omega.samples[0] - north)))
back = based_detrivialize(sphere, north, omega, u)
print("fibration roundtrip residual:",
      np.max(np.abs(back.samples - gamma.samples)))

# partition-of-unity sections reproduce their seed and are linear in it
v = random_tangent(sphere, rng, north, 0.4)
s = pou_section(sphere, v)
print("s(v) at the seed point reproduces v:",
      np.max(np.abs(s(north) - v.vector)))

# the tube around loops through the pole: flow the seed vector outward
based = seed.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
alpha = SampledLoop(sphere.exp(np.tile(north, (n, 1)), based))
w = TangentAtPoint(sphere, north, v.vector / max(v.norm, 1e-12) * 0.4)
beta = point_tube_forward(sphere, north, alpha, w)
nu_w = sphere.exp(north, LocalAdditionSpec(sphere).compress(w.vector))
print("tube map covers nu under evaluation at 0:",
      np.max(np.abs(beta.samples[0] - nu_w)))
alpha2, w2 = point_tube_inverse(sphere, north, beta)
print("point-tube roundtrip:", np.max(np.abs(alpha2.samples - alpha.samples)),
      np.max(np.abs(w2.vector - w.vector)))

# the diagonal tube moves only the second loop of a coinciding pair
shift = random_section(rng, sphere, alpha, scale=0.15)
second = SampledLoop(sphere.exp(
    alpha.samples, shift.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2))
b1, b2 = diagonal_tube_forward(sphere, (alpha, second), w)
print("anchor loop unchanged:", np.array_equal(b1.samples, alpha.samples))
(_, c2), w3 = diagonal_tube_inverse(sphere, (b1, b2))
print("diagonal-tube roundtrip:", np.max(np.abs(c2.samples - second.samples)))
