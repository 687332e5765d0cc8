"""
Equivariant averaging and the circle action
===========================================

Near the fixed set of a cyclic subgroup of the circle action, a loop splits
into a periodic part (the coset-wise local average, projected back to the
manifold) plus normal data with vanishing linearized coset means.  On flat
space with the full circle group this is exactly the Fourier split into the
constant mode and the rest.
"""

import numpy as np

from loopspace_lab import (
    FinitePointMap, SampledLoop, Sphere2, coset_mean_residual,
    equivariant_decompose, equivariant_recompose, local_average,
    random_section,
)
from loopspace_lab.loops import random_bandlimited_loop, rotate
from loopspace_lab.manifolds import Flat

sphere = Sphere2()
rng = np.random.default_rng(3)
n, m = 128, 2

# local averaging of a finite point cloud: project the Euclidean mean
cloud = FinitePointMap(sphere, 2, np.array([[0.6, 0.0, 0.8],
                                            [-0.6, 0.0, 0.8]]))
print("average of the symmetric pair:", local_average(sphere, cloud))

# a nearly half-periodic loop on the sphere
base = sphere.random_loop(rng, n // m, wobble=0.25, bandwidth=2)
periodic = SampledLoop(np.tile(base.samples, (m, 1)))
noise = random_section(rng, sphere, periodic, scale=0.1)
gamma = SampledLoop(sphere.exp(periodic.samples, noise.vectors))

fixed, normal = equivariant_decompose(sphere, m, gamma)
print("fixed part has period 1/2:",
      np.array_equal(fixed.samples, np.roll(fixed.samples, n // m, axis=0)))
print("linearized coset means:", coset_mean_residual(sphere, m, gamma, fixed))
rec = equivariant_recompose(sphere, fixed, normal)
print("roundtrip residual:", np.max(np.abs(rec.samples - gamma.samples)))

# the decomposition commutes with rotating the loop
shift = 37
fr, nr = equivariant_decompose(sphere, m, rotate(gamma, shift / n))
print("commutes with rotation:",
      np.max(np.abs(fr.samples - rotate(fixed, shift / n).samples)))

# flat circle-group averaging is the Fourier mode-0 projection
flat = Flat(3)
a = random_bandlimited_loop(rng, 3, n)
f, nrm = equivariant_decompose(flat, 1, a)
mode0 = np.fft.fft(a.samples, axis=0)[0].real / n
print("flat average vs Fourier mode 0:", np.max(np.abs(f.samples - mode0)))
