"""Every check must be able to fail: a table of defects that the suites catch.

A check that passes on working code shows nothing unless some defect makes
it fail.  Each row of DEFECTS names a check, a defect (a ``monkeypatch`` of
one method or constant, made in process) and the manifold it runs on; the
check's suite, run at N = 32 and seed 0, must fail that check with the
defect and pass it without.  This is mutation testing in miniature
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978).
"""

import functools

import numpy as np
import pytest

from loopspace_lab import geometry, manifolds, polarization
from loopspace_lab.suites import ExperimentConfig, run_checks


def zero_projector_derivative(mp):
    """Transport along a curved path drops the Levi-Civita term.  The
    per-factor formula lives in the component-major method, which the
    public map and the transport integrator both call."""
    mp.setattr(manifolds.RoundSpheres, "_projector_derivative",
               lambda self, p, w, v: np.zeros_like(v))


def scale_geodesic_acceleration(mp):
    """The geodesic acceleration is 0.99 times its value, which the
    geodesic integrator reads through the kind's component-major formula."""
    acceleration = manifolds.RoundSpheres._geodesic_acceleration
    mp.setattr(manifolds.RoundSpheres, "_geodesic_acceleration",
               lambda self, p, v: 0.99 * acceleration(self, p, v))


def flip_half_torsion(mp):
    """The connector subtracts the half-torsion term instead of adding it."""
    def connector(self, p, e, pdot, edot):
        out = self.manifold.project_tangent_vector(p, np.asarray(edot, dtype=np.float64))
        if self.torsion is not None:
            out = out - 0.5 * self.torsion(p, pdot, e)
        return out

    mp.setattr(geometry.ConnectionSpec, "connector", connector)


def skew_rk4_weights(mp):
    """RK4 combines its stages with weights (1, 3, 1, 1)/6, not (1, 2, 2, 1)/6."""
    def rk4(rhs, y, t, h, steps, after_step=None):
        for step in range(1, steps + 1):
            k1 = rhs(t, y)
            k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 3 * k2 + k3 + k4)
            t += h
            if after_step is not None:
                y = after_step(step, t, y)
        return y

    mp.setattr(manifolds, "_rk4", rk4)


def forward_time_derivative(mp):
    """Time derivatives along paths are first-order forward differences."""
    def forward(values, s_grid):
        h = s_grid[1] - s_grid[0]
        out = np.empty_like(values)
        out[:-1] = (values[1:] - values[:-1]) / h
        out[-1] = (values[-1] - values[-2]) / h
        return out

    mp.setattr(geometry, "_time_derivative", forward)


def mix_compress_rows(mp):
    """The local addition compresses with the max of |v|^2 and that of the
    neighbouring row on axis 0, which mixes the trials of a stack."""
    def compress(self, v):
        v = np.asarray(v, dtype=np.float64)
        r2 = np.sum(v * v, axis=-1, keepdims=True)
        return self.epsilon * v / np.sqrt(1.0 + np.maximum(r2, np.roll(r2, 1, axis=0)))

    mp.setattr(manifolds.LocalAdditionSpec, "compress", compress)


def ascending_profile(mp):
    """Compactness profiles list the singular values in ascending order."""
    profile = polarization.compactness_profile
    mp.setattr(polarization, "compactness_profile",
               lambda blocks: {name: s[::-1] for name, s in profile(blocks).items()})


#: (suite/check-id, manifold, defect) rows; the defect must fail the check
DEFECTS = [
    ("transport-pointwise/pointwise-oracle", "sphere2", zero_projector_derivative),
    ("transport-pointwise/pointwise-oracle", "torus2", zero_projector_derivative),
    ("transport-pointwise/l2-isometry", "sphere2", zero_projector_derivative),
    ("transport-pointwise/l2-isometry", "torus2", zero_projector_derivative),
    ("torsion-loop/cross-product", "sphere2", flip_half_torsion),
    ("torsion-loop/fd-estimate", "sphere2", flip_half_torsion),
    ("geodesic-pointwise/pointwise-oracle", "sphere2", skew_rk4_weights),
    ("geodesic-pointwise/pointwise-oracle", "torus2", skew_rk4_weights),
    ("transport-pointwise/pointwise-oracle", "sphere2", skew_rk4_weights),
    ("geodesic-pointwise/pointwise-oracle", "sphere2", scale_geodesic_acceleration),
    ("geodesic-pointwise/pointwise-oracle", "torus2", scale_geodesic_acceleration),
    ("geodesic-pointwise/energy", "sphere2", scale_geodesic_acceleration),
    ("geodesic-pointwise/energy", "torus2", scale_geodesic_acceleration),
    ("covderiv-adjoint/connector-vs-transport", "sphere2", forward_time_derivative),
    ("covderiv-adjoint/metric-compat", "sphere2", forward_time_derivative),
    # transition-cocycle/dphi-linear passes this defect (1.8e-11 on sphere2):
    # the max mixes trials at one node, where the scalar loop nu scales every
    # trial alike, so the derivative stays L R-linear.  On one loop, whose
    # rows are nodes, it fails (7.7e-4).
    ("transition-cocycle/pointwise", "sphere2", mix_compress_rows),
    ("transition-cocycle/pointwise", "torus2", mix_compress_rows),
    ("chart-roundtrip/psi-roundtrip", "sphere2", mix_compress_rows),
    ("chart-roundtrip/psi-roundtrip", "torus2", mix_compress_rows),
    # tube-lp's trials share axis 0, the axis this compress mixes
    ("tube-lp/point-eval", "sphere2", mix_compress_rows),
    ("tube-lp/point-roundtrip", "sphere2", mix_compress_rows),
    ("tube-lp/pair-eval", "sphere2", mix_compress_rows),
    ("tube-lp/pair-roundtrip", "sphere2", mix_compress_rows),
    ("tube-lp/point-eval", "torus2", mix_compress_rows),
    ("tube-lp/point-roundtrip", "torus2", mix_compress_rows),
    ("tube-lp/pair-eval", "torus2", mix_compress_rows),
    ("tube-lp/pair-roundtrip", "torus2", mix_compress_rows),
    ("compactness/sorted", "sphere2", ascending_profile),
    ("compactness/superpolynomial-decay", "sphere2", ascending_profile),
]


@functools.lru_cache(maxsize=None)
def passed(suite: str, manifold: str, defect=None) -> dict:
    """check id: whether it passed, for the suite at N = 32, seed 0."""
    cfg = ExperimentConfig(suite=suite, manifold=manifold, resolution=32).validated()
    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            defect(mp)
        records = run_checks(cfg)
    return {r.check_id: r.passed for r in records}


@pytest.mark.parametrize("identity, manifold, defect", DEFECTS,
                         ids=[f"{i}-{m}-{d.__name__}" for i, m, d in DEFECTS])
def test_defect_fails_its_check(identity, manifold, defect):
    suite, check_id = identity.split("/")
    assert passed(suite, manifold)[check_id], "the check fails without the defect"
    assert not passed(suite, manifold, defect)[check_id], "the defect is not caught"
