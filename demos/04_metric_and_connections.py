"""
The L^2 metric and looped connections
=====================================

The weak Riemannian metric on the loop space integrates pointwise inner
products around the circle.  Its Levi-Civita connection, geodesics, parallel
transport and torsion are all loops of their finite-dimensional
counterparts: evaluation at any circle node intertwines the two levels.
"""

import numpy as np

from loopspace_lab import (
    ConnectionSpec, SampledLoop, Sphere2, TangentSection, bundle_chart,
    frame_from_module_map, l2_inner, loop_geodesic,
    loop_parallel_transport, random_section, rotation_matrix_loop, torsion,
)
from loopspace_lab.loops import random_bandlimited_loop
from loopspace_lab.manifolds import Flat

sphere = Sphere2()
conn = ConnectionSpec(sphere)
rng = np.random.default_rng(1)

t = np.arange(128) / 128
alpha = SampledLoop(np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
                              np.zeros(128)], axis=-1))

# a loop geodesic is a batch of pointwise geodesics
nu = random_section(rng, sphere, alpha, scale=0.5)
path = loop_geodesic(conn, alpha, nu, time=1.0, steps=200)
oracle = sphere.exp(alpha.samples, nu.vectors)
print("geodesic endpoint vs pointwise oracle:",
      np.max(np.abs(path.values[-1] - oracle)))

# transport along the path preserves the L^2 metric
sigma = random_section(rng, sphere, alpha)
moved = loop_parallel_transport(conn, path, sigma)
print("L^2 norm before/after transport:",
      l2_inner(alpha, sigma, sigma), l2_inner(moved.base, moved, moved))

# a flat connection with prescribed torsion: the loop of the cross product
flat = Flat(3)
tconn = ConnectionSpec(flat, torsion=lambda p, u, v: np.cross(u, v))
a = random_bandlimited_loop(rng, 3, 128)
b = random_section(rng, flat, a)
c = random_section(rng, flat, a)
tau = torsion(tconn, a, b, c)
print("torsion equals the pointwise cross product:",
      np.array_equal(tau.vectors, np.cross(b.vectors, c.vectors)))

# bundle charts transport fibers along the shift; linear in the fiber slot
beta = random_section(rng, sphere, alpha, scale=0.4)
theta = bundle_chart(conn, alpha, beta, sigma)
print("bundle chart preserves fiber norms:",
      np.max(np.abs(np.linalg.norm(theta.vectors, axis=1)
                    - np.linalg.norm(sigma.vectors, axis=1))))

# an L R-module endomorphism of loop space is a loop of matrices,
# recovered by probing with the constant basis loops
rot = rotation_matrix_loop(128, 1.0)
frame = frame_from_module_map(rot.apply, 2, 128)
print("recovered rotation frame residual:",
      np.max(np.abs(frame.matrices - rot.matrices)))
