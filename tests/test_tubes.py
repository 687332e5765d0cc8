"""Tubular neighbourhoods: bump flows, the based fibration, partitions of
unity, coincidence tubes, and equivariant averaging."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from loopspace_lab.charts import TangentSection, random_section
from loopspace_lab.errors import (
    OffManifold,
    OutsideAveragingDomain,
    OutsidePatch,
    OutsideTube,
)
from loopspace_lab.loops import SampledLoop, random_bandlimited_loop, rotate
from loopspace_lab.manifolds import (
    Flat,
    FlatTorus2,
    LocalAdditionSpec,
    Sphere2,
    TangentAtPoint,
    random_tangent,
)
from loopspace_lab.tubes import (
    FinitePointMap,
    FlowDiffeo,
    _bump,
    _flow_constant_direction,
    based_detrivialize,
    based_trivialize,
    coset_mean_residual,
    diagonal_tube_forward,
    diagonal_tube_inverse,
    equivariant_decompose,
    equivariant_recompose,
    local_average,
    point_tube_forward,
    point_tube_inverse,
    pou_section,
)

SPHERE = Sphere2()
TORUS = FlatTorus2()
NORTH = np.array([0.0, 0.0, 1.0])


class TestBumpProfile:
    def test_plateau_and_support(self):
        vals = _bump(np.array([-3.0, 0.0, 1.0, 2.0, 5.0]))
        assert np.array_equal(vals[[0, 1, 2]], [1.0, 1.0, 1.0])
        assert np.array_equal(vals[[3, 4]], [0.0, 0.0])

    def test_monotone_on_band(self):
        x = np.linspace(1.0, 2.0, 200)
        vals = _bump(x)
        assert np.all(np.diff(vals) <= 0)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_smooth_across_junctions(self):
        rho = _bump
        h = 1e-4
        for x0 in (1.0, 2.0):
            left = (rho(np.array([x0 - h]))[0] - rho(np.array([x0 - 2 * h]))[0]) / h
            right = (rho(np.array([x0 + 2 * h]))[0] - rho(np.array([x0 + h]))[0]) / h
            assert abs(left) < 1e-2 and abs(right) < 1e-2


class TestFlowDiffeo:
    def test_origin_flows_to_seed(self):
        v = np.array([0.5, 0.0, 0.0])
        assert np.max(np.abs(FlowDiffeo(v).forward(np.zeros(3)) - v)) < 1e-10

    def test_zero_field_is_identity(self):
        fd = FlowDiffeo(np.zeros(2))
        u = np.array([0.3, -0.7])
        assert np.array_equal(fd.forward(u), u)

    def test_far_points_fixed(self):
        fd = FlowDiffeo(np.array([0.05, 0.0]))
        u = np.array([1.6, 0.0])  # |u| >= sqrt(2), trajectory stays outside
        assert np.array_equal(fd.forward(u), u)

    def test_invertibility(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            v = rng.normal(size=3)
            v *= rng.uniform(0.1, 0.9) / np.linalg.norm(v)
            fd = FlowDiffeo(v)
            u = rng.normal(size=3) * rng.uniform(0, 1.5)
            worst = max(worst, float(np.max(np.abs(fd.inverse(fd.forward(u)) - u))))
        assert worst < 1e-7

    @pytest.mark.parametrize("steps", [0, -2])
    def test_rejects_steps_below_one(self, steps):
        fd = FlowDiffeo(np.array([0.5, 0.0, 0.0]), steps=steps)
        band = np.array([[1.2, 0.0, 0.0]])  # |u|^2 in the transition band
        with pytest.raises(ValueError, match="at least one integration step"):
            fd.forward(band)


def _rows_with_norms(rng, count, lo, hi):
    w = rng.normal(size=(count, 3))
    return w * (rng.uniform(lo, hi, size=(count, 1))
                / np.linalg.norm(w, axis=1, keepdims=True))


class TestFlowRowClasses:
    """Rows on the plateau translate exactly, rows beyond the support stay
    exactly fixed, and only rows in the transition band are integrated."""

    def test_plateau_rows_translate_exactly(self):
        rng = np.random.default_rng(30)
        c = np.array([0.3, -0.2, 0.1])
        w = _rows_with_norms(rng, 50, 0.0, 0.6)  # |w|, |w + c| <= 0.98 < 1
        assert np.array_equal(FlowDiffeo(c).forward(w), w + c)
        assert np.array_equal(FlowDiffeo(c).inverse(w), w - c)

    def test_rows_beyond_support_are_fixed(self):
        rng = np.random.default_rng(31)
        w = _rows_with_norms(rng, 50, np.sqrt(2.0), 3.0)
        c = -0.9 * w  # even a field pointing inward never starts them
        fd = FlowDiffeo(np.array([0.9, 0.0, 0.0]))
        assert np.array_equal(fd.forward(w), w)
        assert np.array_equal(FlowDiffeo(np.zeros(3)).forward(w), w)
        assert np.array_equal(_flow_constant_direction(w, c, 100), w)

    def test_band_rows_match_vector_ode(self):
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(10):
            c = rng.normal(size=3)
            c *= rng.uniform(0.1, 0.9) / np.linalg.norm(c)
            w = _rows_with_norms(rng, 8, 1.05, 1.4)  # 1 < |w|^2 < 2: in the band
            out = FlowDiffeo(c, steps=200).forward(w)
            for w0, got in zip(w, out):
                sol = solve_ivp(lambda t, y: _bump(y @ y) * c, (0.0, 1.0), w0,
                                method="DOP853", rtol=1e-12, atol=1e-12)
                worst = max(worst, float(np.max(np.abs(sol.y[:, -1] - got))))
        assert worst < 1e-9

    def mixed_batch(self):
        rng = np.random.default_rng(33)
        w = np.concatenate([_rows_with_norms(rng, 10, 0.0, 0.4),
                            _rows_with_norms(rng, 10, 0.8, 1.45),
                            _rows_with_norms(rng, 10, 1.5, 2.5)])
        return w[rng.permutation(len(w))]

    def test_mixed_batch_equals_rows_one_at_a_time(self):
        w = self.mixed_batch()
        fd = FlowDiffeo(np.array([0.4, 0.2, -0.3]))
        rows = np.stack([fd.forward(row) for row in w])
        assert np.array_equal(fd.forward(w), rows)

    def test_mixed_batch_inverts(self):
        w = self.mixed_batch()
        fd = FlowDiffeo(np.array([0.4, 0.2, -0.3]))
        assert np.max(np.abs(fd.inverse(fd.forward(w)) - w)) < 1e-7


class TestBasedTrivialize:
    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_roundtrip_and_fiber_conditions(self, manifold):
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = manifold.random_point(rng)
            seed = random_section(rng, manifold,
                                  SampledLoop.constant(x, 64), scale=0.25)
            gamma = SampledLoop(manifold.exp(np.tile(x, (64, 1)), seed.vectors))
            omega, u = based_trivialize(manifold, x, gamma)
            assert np.max(np.abs(omega.samples[0] - x)) < 1e-8
            assert np.max(np.abs(u - gamma.samples[0])) == 0.0
            back = based_detrivialize(manifold, x, omega, u)
            assert np.max(np.abs(back.samples - gamma.samples)) < 1e-7
            assert np.max(np.abs(back.samples[0] - u)) < 1e-8

    @staticmethod
    def at_distance(manifold, x, radii, rng):
        """Points exp_x(r e) for unit tangents e at x, one per radius."""
        e = np.stack([random_tangent(manifold, rng, x).vector for _ in radii])
        e /= np.linalg.norm(e, axis=-1, keepdims=True)
        return manifold.exp(np.tile(x, (len(radii), 1)),
                            np.asarray(radii)[:, None] * e)

    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_nodes_beyond_support_stay_bit_for_bit(self, manifold):
        rng = np.random.default_rng(6)
        x = manifold.random_point(rng)
        radii = np.concatenate([[0.5], rng.uniform(0.0, 1.3, 31),
                                rng.uniform(1.5, 3.0, 32)])
        samples = self.at_distance(manifold, x, radii, rng)
        if manifold is SPHERE:
            # the antipode, where log about x raises, and a node next to it
            samples[-2] = -x
            samples[-1] = SPHERE.project_point(-x + 1e-6 * rng.normal(size=3))
        if manifold is TORUS:
            samples[-1] = -x
        far = manifold.dist(x, samples) > np.sqrt(2.0)
        assert np.sum(far) == 32
        gamma = SampledLoop(samples)
        omega, u = based_trivialize(manifold, x, gamma)
        back = based_detrivialize(manifold, x, gamma, u)
        for moved in (omega, back):
            assert np.array_equal(moved.samples[far], samples[far])
            assert not np.array_equal(moved.samples[~far], samples[~far])

    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_patch_radius_is_one(self, manifold):
        rng = np.random.default_rng(7)
        x = manifold.random_point(rng)
        inside, outside = self.at_distance(manifold, x, [0.99, 1.01], rng)
        omega = SampledLoop.constant(x, 64)
        gamma = based_detrivialize(manifold, x, omega, inside)
        assert np.max(np.abs(gamma.samples[0] - inside)) < 1e-12
        based, _ = based_trivialize(manifold, x, gamma)
        assert np.max(np.abs(based.samples - x)) < 1e-12
        with pytest.raises(OutsidePatch):
            based_detrivialize(manifold, x, omega, outside)
        with pytest.raises(OutsidePatch):
            based_trivialize(manifold, x, SampledLoop.constant(outside, 64))

    def test_already_based_loop(self):
        x = NORTH
        seed = random_section(np.random.default_rng(2), SPHERE,
                              SampledLoop.constant(x, 64), scale=0.2)
        based = seed.vectors * np.sin(np.pi * np.arange(64) / 64)[:, None] ** 2
        gamma = SampledLoop(SPHERE.exp(np.tile(x, (64, 1)), based))
        omega, u = based_trivialize(SPHERE, x, gamma)
        assert np.max(np.abs(u - x)) < 1e-12
        assert np.max(np.abs(omega.samples - gamma.samples)) < 1e-9

    def test_outside_patch_rejected(self):
        far = SampledLoop.constant(
            np.array([0.0, np.sin(2.5), np.cos(2.5)]), 64)
        with pytest.raises(OutsidePatch):
            based_trivialize(SPHERE, NORTH, far)

    def test_nan_target_rejected(self):
        # a NaN coordinate norm must not compare as inside the patch
        omega = SampledLoop.constant(NORTH, 64)
        with pytest.raises(OutsidePatch):
            based_detrivialize(SPHERE, NORTH, omega, [np.nan, np.nan, np.nan])

    @pytest.mark.parametrize("manifold,center", [
        (SPHERE, [0.0, 0.0, 2.0]), (TORUS, [1.0, 0.0, 0.0, 2.0]),
        (Flat(3), [0.0, 0.0])])
    def test_off_manifold_center_rejected(self, manifold, center):
        gamma = SampledLoop.constant(manifold.random_point(np.random.default_rng(0)), 64)
        with pytest.raises(OffManifold):
            based_trivialize(manifold, center, gamma)
        with pytest.raises(OffManifold):
            based_detrivialize(manifold, center, gamma, gamma.samples[0])

    @pytest.mark.parametrize("manifold,u", [
        (SPHERE, [0.0, 0.0, 1.5]), (TORUS, [1.0, 0.0, 1.2, 0.0])])
    def test_off_manifold_base_point_rejected(self, manifold, u):
        x = manifold.project_point(np.asarray(u))
        omega = SampledLoop.constant(x, 64)
        with pytest.raises(OffManifold):
            based_detrivialize(manifold, x, omega, u)


class TestPouSection:
    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_reproduces_seed_and_linearity(self, manifold):
        rng = np.random.default_rng(3)
        probes = np.stack([manifold.random_point(rng) for _ in range(25)])
        squares = sum(weight(probes) ** 2 for weight, _ in manifold.tangent_partition())
        assert np.max(np.abs(squares - 1.0)) <= 1e-10
        for _ in range(10):
            p = manifold.random_point(rng)
            v = random_tangent(manifold, rng, p, 0.7)
            w = random_tangent(manifold, rng, p, 0.7)
            sv = pou_section(manifold, v)
            assert np.max(np.abs(sv(p) - v.vector)) < 1e-10
            a, b = rng.normal(size=2)
            comb = TangentAtPoint(manifold, p, a * v.vector + b * w.vector)
            scomb = pou_section(manifold, comb)
            q = manifold.random_point(rng)
            lhs = scomb(q)
            rhs = a * pou_section(manifold, v)(q) + b * pou_section(manifold, w)(q)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_zero_seed_gives_zero_section(self):
        rng = np.random.default_rng(4)
        p = SPHERE.random_point(rng)
        zero = TangentAtPoint(SPHERE, p, np.zeros(3))
        s = pou_section(SPHERE, zero)
        for _ in range(5):
            q = SPHERE.random_point(rng)
            assert np.max(np.abs(s(q))) == 0.0

    def test_values_are_tangent(self):
        rng = np.random.default_rng(5)
        p = SPHERE.random_point(rng)
        v = random_tangent(SPHERE, rng, p, 0.5)
        s = pou_section(SPHERE, v)
        pts = np.stack([SPHERE.random_point(rng) for _ in range(20)])
        vals = s(pts)
        res = SPHERE.project_tangent_vector(pts, vals) - vals
        assert np.max(np.abs(res)) < 1e-12


class TestTangentPartition:
    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_frames_orthonormal_and_tangent_where_weighted(self, manifold):
        rng = np.random.default_rng(23)
        pts = np.stack([manifold.random_point(rng) for _ in range(100)])
        eye = np.eye(manifold.intrinsic_dim)
        for weight, frame in manifold.tangent_partition():
            live = pts[weight(pts) != 0.0]
            cols = np.swapaxes(frame(live), -1, -2)  # (..., n, k)
            gram = np.einsum("...ik,...jk->...ij", cols, cols)
            assert np.max(np.abs(gram - eye)) <= 1e-14
            tangent = manifold.project_tangent_vector(live[:, None, :], cols)
            assert np.max(np.abs(tangent - cols)) <= 1e-14

    def test_sphere_frames_are_transported_pole_bases(self):
        rng = np.random.default_rng(24)
        pts = np.stack([SPHERE.random_point(rng) for _ in range(100)])
        for pole, (_, frame) in zip((NORTH, -NORTH), SPHERE.tangent_partition()):
            cols = np.swapaxes(frame(pole[None]), -1, -2)[0]  # the pole basis
            logs = SPHERE.log(pole, pts)
            moved = np.stack([SPHERE.geodesic_transport(pole, logs, np.broadcast_to(
                b, pts.shape)) for b in cols], axis=-1)
            assert np.max(np.abs(frame(pts) - moved)) <= 1e-14

    def test_sphere_section_finite_at_both_poles(self):
        poles = np.stack([NORTH, -NORTH])
        for i, pole in enumerate(poles):
            v = TangentAtPoint(SPHERE, pole, np.array([0.3, -0.2, 0.0]))
            vals = pou_section(SPHERE, v)(poles)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals[i] - v.vector)) < 1e-15


class TestPointTube:
    def based_loop(self, manifold, x0, rng, scale=0.3, n=64):
        seed = random_section(rng, manifold, SampledLoop.constant(x0, n), scale=scale)
        based = seed.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
        return SampledLoop(manifold.exp(np.tile(x0, (n, 1)), based))

    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_forward_inverse_roundtrip(self, manifold):
        rng = np.random.default_rng(6)
        spec = LocalAdditionSpec(manifold)
        for _ in range(5):
            x0 = manifold.random_point(rng)
            alpha = self.based_loop(manifold, x0, rng)
            raw = random_tangent(manifold, rng, x0)
            v = TangentAtPoint(manifold, x0,
                               raw.vector / max(raw.norm, 1e-9) * 0.45)
            beta = point_tube_forward(manifold, x0, alpha, v)
            nu_v = manifold.exp(x0, spec.compress(v.vector))
            assert np.max(np.abs(beta.samples[0] - nu_v)) < 1e-9
            alpha2, v2 = point_tube_inverse(manifold, x0, beta)
            assert np.max(np.abs(alpha2.samples - alpha.samples)) < 1e-6
            assert np.max(np.abs(v2.vector - v.vector)) < 1e-6

    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_equals_the_diagonal_tube_over_the_constant_loop(self, manifold):
        rng = np.random.default_rng(25)
        for _ in range(3):
            x0 = manifold.random_point(rng)
            alpha = self.based_loop(manifold, x0, rng)
            const = SampledLoop.constant(x0, alpha.resolution)
            raw = random_tangent(manifold, rng, x0)
            v = TangentAtPoint(manifold, x0, raw.vector / max(raw.norm, 1e-9) * 0.45)
            beta = point_tube_forward(manifold, x0, alpha, v)
            _, beta2 = diagonal_tube_forward(manifold, (const, alpha), v)
            assert np.array_equal(beta.samples, beta2.samples)
            alpha_back, v_back = point_tube_inverse(manifold, x0, beta)
            (_, alpha_back2), v_back2 = diagonal_tube_inverse(manifold, (const, beta))
            assert np.array_equal(alpha_back.samples, alpha_back2.samples)
            assert np.array_equal(v_back.vector, v_back2.vector)

    def test_zero_seed_is_identity(self):
        rng = np.random.default_rng(7)
        x0 = SPHERE.random_point(rng)
        alpha = self.based_loop(SPHERE, x0, rng)
        zero = TangentAtPoint(SPHERE, x0, np.zeros(3))
        out = point_tube_forward(SPHERE, x0, alpha, zero)
        assert np.array_equal(out.samples, alpha.samples)

    def test_seed_outside_ball_rejected(self):
        rng = np.random.default_rng(8)
        x0 = SPHERE.random_point(rng)
        alpha = self.based_loop(SPHERE, x0, rng)
        raw = random_tangent(SPHERE, rng, x0)
        big = TangentAtPoint(SPHERE, x0, raw.vector / max(raw.norm, 1e-9) * 1.5)
        with pytest.raises(OutsideTube):
            point_tube_forward(SPHERE, x0, alpha, big)

    def test_nan_point_rejected(self):
        # a NaN distance to the submanifold point must not compare as based
        alpha = self.based_loop(SPHERE, NORTH, np.random.default_rng(9))
        v = TangentAtPoint(SPHERE, NORTH, np.array([0.3, 0.0, 0.0]))
        with pytest.raises(OutsideTube):
            point_tube_forward(SPHERE, [np.nan, 0.0, 1.0], alpha, v)


class TestDiagonalTube:
    @pytest.mark.parametrize("manifold", [Flat(2), SPHERE])
    def test_structure_and_roundtrip(self, manifold):
        rng = np.random.default_rng(9)
        spec = LocalAdditionSpec(manifold)
        n = 64
        for _ in range(5):
            if isinstance(manifold, Flat):
                a1 = random_bandlimited_loop(rng, 2, n)
            else:
                center = manifold.random_point(rng)
                noise = random_section(rng, manifold,
                                       SampledLoop.constant(center, n), scale=0.2)
                a1 = SampledLoop(manifold.exp(np.tile(center, (n, 1)), noise.vectors))
            shift = random_section(rng, manifold, a1, scale=0.15)
            based = shift.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
            a2 = SampledLoop(manifold.exp(a1.samples, based))
            raw = random_tangent(manifold, rng, a1.samples[0])
            v = TangentAtPoint(manifold, a1.samples[0],
                               raw.vector / max(raw.norm, 1e-9) * 0.4)
            b1, b2 = diagonal_tube_forward(manifold, (a1, a2), v)
            # the anchor never moves and the basepoints land in the tube V
            assert np.array_equal(b1.samples, a1.samples)
            nu_v = manifold.exp(a1.samples[0], spec.compress(v.vector))
            assert np.max(np.abs(b2.samples[0] - nu_v)) < 1e-9
            assert manifold.dist(b1.samples[0], b2.samples[0]) < spec.epsilon
            (c1, c2), v2 = diagonal_tube_inverse(manifold, (b1, b2))
            assert np.max(np.abs(c2.samples - a2.samples)) < 1e-6
            assert np.max(np.abs(v2.vector - v.vector)) < 1e-6

    def test_non_coincident_pair_rejected(self):
        rng = np.random.default_rng(10)
        a1 = SampledLoop.constant(NORTH, 64)
        a2 = SampledLoop.constant(np.array([1.0, 0.0, 0.0]), 64)
        v = random_tangent(SPHERE, rng, NORTH, 0.1)
        with pytest.raises(OutsideTube):
            diagonal_tube_forward(SPHERE, (a1, a2), v)


class TestLocalAverage:
    def test_constant_map(self):
        p = SPHERE.random_point(np.random.default_rng(11))
        beta = FinitePointMap(SPHERE, 4, np.tile(p, (4, 1)))
        assert np.max(np.abs(local_average(SPHERE, beta) - p)) < 1e-12

    def test_symmetric_pair_on_sphere(self):
        a, c = 0.6, 0.8
        beta = FinitePointMap(SPHERE, 2,
                              np.array([[a, 0, c], [-a, 0, c]]))
        out = local_average(SPHERE, beta)
        assert np.max(np.abs(out - NORTH)) < 1e-12

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(12)
        base = SPHERE.random_point(rng)
        pts = np.stack([SPHERE.exp(base, random_tangent(SPHERE, rng, base, 0.2).vector)
                        for _ in range(6)])
        b1 = FinitePointMap(SPHERE, 6, pts)
        b2 = FinitePointMap(SPHERE, 6, np.roll(pts, 2, axis=0))
        assert np.max(np.abs(local_average(SPHERE, b1)
                             - local_average(SPHERE, b2))) < 1e-12

    def test_antipodal_pair_rejected(self):
        beta = FinitePointMap(SPHERE, 2, np.array([NORTH, -NORTH]))
        with pytest.raises(OutsideTube):
            local_average(SPHERE, beta)

    def test_circle_map_uses_quadrature_mean(self):
        t = np.arange(16) / 16
        pts = np.stack([np.sin(0.3) * np.cos(2 * np.pi * t),
                        np.sin(0.3) * np.sin(2 * np.pi * t),
                        np.cos(0.3) * np.ones(16)], axis=-1)
        beta = FinitePointMap(SPHERE, 0, pts)
        assert np.max(np.abs(local_average(SPHERE, beta) - NORTH)) < 1e-12


class TestEquivariantDecompose:
    def periodic_plus_wiggle(self, manifold, m, rng, n=128, wiggle=0.1):
        base = manifold.random_loop(rng, n // m, wobble=0.25, bandwidth=2)
        periodic = SampledLoop(np.tile(base.samples, (m, 1)))
        noise = random_section(rng, manifold, periodic, scale=wiggle)
        return SampledLoop(manifold.exp(periodic.samples, noise.vectors)), periodic

    def test_fixed_loop_decomposes_trivially(self):
        rng = np.random.default_rng(13)
        _, periodic = self.periodic_plus_wiggle(SPHERE, 2, rng)
        fixed, normal = equivariant_decompose(SPHERE, 2, periodic)
        assert np.max(np.abs(fixed.samples - periodic.samples)) < 1e-12
        assert np.max(np.abs(normal.vectors)) < 1e-12

    @pytest.mark.parametrize("m", [2, 4])
    def test_roundtrip_and_period(self, m):
        rng = np.random.default_rng(14)
        gamma, _ = self.periodic_plus_wiggle(SPHERE, m, rng)
        fixed, normal = equivariant_decompose(SPHERE, m, gamma)
        assert np.array_equal(fixed.samples,
                              np.roll(fixed.samples, 128 // m, axis=0))
        rec = equivariant_recompose(SPHERE, fixed, normal)
        assert np.max(np.abs(rec.samples - gamma.samples)) < 1e-6
        assert coset_mean_residual(SPHERE, m, gamma, fixed) < 1e-8

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(15)
        gamma, _ = self.periodic_plus_wiggle(SPHERE, 2, rng)
        for shift in (3, 64, 97):
            rotated = rotate(gamma, shift / 128)
            fixed_r, normal_r = equivariant_decompose(SPHERE, 2, rotated)
            fixed, normal = equivariant_decompose(SPHERE, 2, gamma)
            assert np.max(np.abs(fixed_r.samples
                                 - rotate(fixed, shift / 128).samples)) < 1e-7
            assert np.max(np.abs(normal_r.vectors
                                 - np.roll(normal.vectors, -shift, axis=0))) < 1e-7

    def test_flat_circle_average_is_fourier_mode_zero(self):
        flat = Flat(3)
        a = random_bandlimited_loop(np.random.default_rng(16), 3, 128)
        fixed, normal = equivariant_decompose(flat, 1, a)
        mode0 = np.fft.fft(a.samples, axis=0)[0].real / 128
        assert np.max(np.abs(fixed.samples - mode0)) < 1e-12
        assert np.max(np.abs(normal.vectors - (a.samples - mode0))) < 1e-12

    def test_flat_even_coset_means_vanish(self):
        flat = Flat(2)
        a = random_bandlimited_loop(np.random.default_rng(17), 2, 128)
        fixed, normal = equivariant_decompose(flat, 2, a)
        means = (normal.vectors[:64] + normal.vectors[64:]) / 2
        assert np.max(np.abs(means)) < 1e-10

    def test_fixed_part_is_the_local_average_of_each_coset(self):
        rng = np.random.default_rng(26)
        gamma, _ = self.periodic_plus_wiggle(SPHERE, 4, rng)
        fixed, _ = equivariant_decompose(SPHERE, 4, gamma)
        for j in (0, 5, 31):
            coset = FinitePointMap(SPHERE, 4, gamma.samples[j::32])
            assert np.max(np.abs(fixed.samples[j] - local_average(SPHERE, coset))) <= 1e-15

    def test_negative_order_rejected(self):
        rng = np.random.default_rng(27)
        gamma, _ = self.periodic_plus_wiggle(SPHERE, 2, rng)
        fixed, _ = equivariant_decompose(SPHERE, 2, gamma)
        with pytest.raises(ValueError, match="order"):
            equivariant_decompose(SPHERE, -2, gamma)
        with pytest.raises(ValueError, match="order"):
            coset_mean_residual(SPHERE, -2, gamma, fixed)

    def test_spread_coset_rejected(self):
        # each coset holds an antipodal pair, whose mean has no projection
        pts = np.vstack([np.tile(NORTH, (64, 1)), np.tile(-NORTH, (64, 1))])
        gamma = SampledLoop(pts)
        with pytest.raises(OutsideAveragingDomain):
            equivariant_decompose(SPHERE, 2, gamma)


class TestHundredRoundtrips:
    """Every forward/inverse pair closes on 100 random in-domain inputs."""

    def test_point_tube(self):
        rng = np.random.default_rng(20)
        n = 32
        worst = 0.0
        for _ in range(100):
            x0 = SPHERE.random_point(rng)
            seed = random_section(rng, SPHERE, SampledLoop.constant(x0, n),
                                  scale=0.25)
            based = seed.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
            alpha = SampledLoop(SPHERE.exp(np.tile(x0, (n, 1)), based))
            raw = random_tangent(SPHERE, rng, x0)
            v = TangentAtPoint(SPHERE, x0, raw.vector / max(raw.norm, 1e-9)
                               * rng.uniform(0.05, 0.6))
            beta = point_tube_forward(SPHERE, x0, alpha, v)
            alpha2, v2 = point_tube_inverse(SPHERE, x0, beta)
            worst = max(worst,
                        float(np.max(np.abs(alpha2.samples - alpha.samples))),
                        float(np.max(np.abs(v2.vector - v.vector))))
        assert worst < 1e-6

    def test_based_trivialization(self):
        rng = np.random.default_rng(21)
        n = 32
        worst = 0.0
        for _ in range(100):
            x = SPHERE.random_point(rng)
            seed = random_section(rng, SPHERE, SampledLoop.constant(x, n),
                                  scale=0.2)
            gamma = SampledLoop(SPHERE.exp(np.tile(x, (n, 1)), seed.vectors))
            omega, u = based_trivialize(SPHERE, x, gamma)
            back = based_detrivialize(SPHERE, x, omega, u)
            worst = max(worst, float(np.max(np.abs(back.samples - gamma.samples))))
        assert worst < 1e-6

    def test_equivariant(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(100):
            m = int(rng.choice([2, 4]))
            base = random_section(rng, SPHERE,
                                  SampledLoop.constant(SPHERE.random_point(rng),
                                                       64 // m), scale=0.3)
            periodic = SampledLoop(
                np.tile(SPHERE.exp(base.base.samples, base.vectors), (m, 1)))
            noise = random_section(rng, SPHERE, periodic, scale=0.1)
            gamma = SampledLoop(SPHERE.exp(periodic.samples, noise.vectors))
            fixed, normal = equivariant_decompose(SPHERE, m, gamma)
            rec = equivariant_recompose(SPHERE, fixed, normal)
            worst = max(worst, float(np.max(np.abs(rec.samples - gamma.samples))))
        assert worst < 1e-6


def stack_trials(manifold, count, n=32, seed=23):
    """Per-trial inputs near random centers x: the center, a loop based at
    x, a second loop agreeing with it at time 0, and a seed vector at x."""
    rng = np.random.default_rng(seed)
    bump = np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
    trials = []
    for _ in range(count):
        x = manifold.random_point(rng)
        shift = random_section(rng, manifold, SampledLoop.constant(x, n), scale=0.2)
        alpha = SampledLoop(manifold.exp(np.tile(x, (n, 1)), bump * shift.vectors))
        wiggle = random_section(rng, manifold, alpha, scale=0.2)
        other = SampledLoop(manifold.exp(alpha.samples, bump * wiggle.vectors))
        raw = random_tangent(manifold, rng, x)
        v = TangentAtPoint(manifold, x, raw.vector * 0.4 / raw.norm)
        trials.append((x, alpha, other, v))
    return trials


def stacked(trials):
    """The trials as one stack: centers (B, 1, k), loops (B, N, k), seeds (B, k)."""
    x, alpha, other, v = zip(*trials)
    manifold = v[0].manifold
    return (np.stack(x)[:, None], SampledLoop(np.stack([a.samples for a in alpha])),
            SampledLoop(np.stack([a.samples for a in other])),
            TangentAtPoint(manifold, np.stack(x), np.stack([s.vector for s in v])))


def unstack(result):
    """The arrays of a tube result, in order, through pairs and tuples."""
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in unstack(item)]
    if isinstance(result, SampledLoop):
        return [result.samples]
    if isinstance(result, TangentSection):
        return [result.base.samples, result.vectors]
    if isinstance(result, TangentAtPoint):
        return [result.base, result.vector]
    return [np.asarray(result)]


#: each tube entry point on (manifold, center, loop, second loop, seed)
STACK_CALLS = {
    "based_trivialize": lambda m, x, a, b, v: based_trivialize(m, x, a),
    "based_detrivialize": lambda m, x, a, b, v: based_detrivialize(
        m, x, a, m.exp(v.base, v.vector)),
    "point_tube_forward": lambda m, x, a, b, v: point_tube_forward(m, x, a, v),
    "point_tube_inverse": lambda m, x, a, b, v: point_tube_inverse(
        m, x, point_tube_forward(m, x, a, v)),
    "diagonal_tube_forward": lambda m, x, a, b, v: diagonal_tube_forward(m, (a, b), v),
    "diagonal_tube_inverse": lambda m, x, a, b, v: diagonal_tube_inverse(
        m, diagonal_tube_forward(m, (a, b), v)),
    "equivariant_decompose": lambda m, x, a, b, v: equivariant_decompose(m, 2, b),
    "pou_section": lambda m, x, a, b, v: pou_section(m, v)(b.samples),
}


@pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS], ids=repr)
@pytest.mark.parametrize("call", STACK_CALLS.values(), ids=STACK_CALLS.keys())
def test_a_stack_equals_its_trials_bit_for_bit(call, manifold):
    trials = stack_trials(manifold, 3)
    singles = [unstack(call(manifold, *trial)) for trial in trials]
    together = unstack(call(manifold, *stacked(trials)))
    assert len(together) == len(singles[0])
    for b, single in enumerate(singles):
        for whole, part in zip(together, single):
            assert whole[b].shape == part.shape
            assert np.array_equal(whole[b], part)


#: each tube entry point with one argument that does not fit a 2-trial
#: stack, and the name the error must give
MISFITS = {
    "based_trivialize": (lambda x3, a, b, v: based_trivialize(SPHERE, x3, a), "center"),
    "based_detrivialize": (
        lambda x3, a, b, v: based_detrivialize(SPHERE, x3[:2], a, x3[:, 0]), "u"),
    "point_tube_forward": (lambda x3, a, b, v: point_tube_forward(SPHERE, x3, a, v), "x0"),
    "point_tube_forward-seed": (
        lambda x3, a, b, v: point_tube_forward(SPHERE, x3[:2], a, TangentAtPoint(
            SPHERE, x3[:, 0], np.zeros((3, 3)))), "v"),
    "point_tube_inverse": (lambda x3, a, b, v: point_tube_inverse(SPHERE, x3, a), "x0"),
    "diagonal_tube_forward": (lambda x3, a, b, v: diagonal_tube_forward(
        SPHERE, (a, SampledLoop(b.samples[0])), v), "alpha_pair"),
    "diagonal_tube_inverse": (lambda x3, a, b, v: diagonal_tube_inverse(
        SPHERE, (SampledLoop(a.samples[0]), b)), "beta_pair"),
}


@pytest.mark.parametrize("call, name", MISFITS.values(), ids=MISFITS.keys())
def test_a_misfit_shape_is_rejected_by_name(call, name):
    x3, *_ = stacked(stack_trials(SPHERE, 3))
    _, a, b, v = stacked(stack_trials(SPHERE, 2))
    with pytest.raises(ValueError, match=rf"^{name} (of shape|holds loops of shapes) "):
        call(x3, a, b, v)
