"""Loop-space geometry: the L^2 metric, covariant derivatives, geodesics,
transport, torsion, bundle charts, frame extraction, and the witness that
the loop exponential map is not surjective."""

import numpy as np
import pytest

from loopspace_lab.charts import TangentSection, random_section, zero_section
from loopspace_lab.errors import (
    BaseMismatch,
    GridTooCoarse,
    NotPointwiseLinear,
    SingularFrame,
)
from loopspace_lab.geometry import (
    ConnectionSpec,
    LoopPath,
    MatrixLoop,
    bundle_chart,
    cov_deriv_along_path,
    curve_of_loops_derivative,
    exp_nonsurjectivity_witness,
    frame_from_module_map,
    l2_inner,
    levi_civita,
    loop_geodesic,
    loop_parallel_transport,
    matrix_loop_from_dict,
    matrix_loop_to_dict,
    path_from_dict,
    path_to_dict,
    rotation_matrix_loop,
    torsion,
)
from loopspace_lab.loops import SampledLoop, random_bandlimited_loop
from loopspace_lab.manifolds import Flat, LocalAdditionSpec, Sphere2

SPHERE = Sphere2()
NORTH = np.array([0.0, 0.0, 1.0])


def unit_circle_loop(n=128):
    t = np.arange(n) / n
    return SampledLoop(np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
                                 np.zeros(n)], axis=-1))


class TestL2Inner:
    def test_constant_unit_section(self):
        flat = Flat(2)
        base = SampledLoop.constant(np.zeros(2), 64)
        unit = TangentSection(flat, base, np.tile([1.0, 0.0], (64, 1)))
        assert l2_inner(base, unit, unit) == pytest.approx(1.0, abs=1e-15)

    def test_circle_section_energy(self):
        flat = Flat(2)
        base = SampledLoop.constant(np.zeros(2), 64)
        t = base.nodes
        beta = TangentSection(flat, base, np.stack(
            [np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1))
        assert l2_inner(base, beta, beta) == pytest.approx(1.0, abs=1e-13)

    def test_symmetry_is_exact(self):
        flat = Flat(3)
        base = random_bandlimited_loop(np.random.default_rng(0), 3, 64)
        b = random_section(np.random.default_rng(1), flat, base)
        c = random_section(np.random.default_rng(2), flat, base)
        assert l2_inner(base, b, c) == l2_inner(base, c, b)

    def test_base_mismatch(self):
        flat = Flat(2)
        a = SampledLoop.constant(np.zeros(2), 64)
        b = SampledLoop.constant(np.ones(2), 64)
        with pytest.raises(BaseMismatch):
            l2_inner(b, zero_section(flat, a), zero_section(flat, a))

    def test_base_resolution_mismatch(self):
        # a section over 128 nodes against a 64-node loop is a base
        # mismatch, not a numpy broadcasting error
        flat = Flat(2)
        fine = SampledLoop.constant(np.zeros(2), 128)
        coarse = SampledLoop.constant(np.zeros(2), 64)
        with pytest.raises(BaseMismatch):
            l2_inner(coarse, zero_section(flat, fine), zero_section(flat, fine))
        with pytest.raises(BaseMismatch):
            l2_inner(fine, zero_section(flat, fine), zero_section(flat, coarse))

    def test_orthogonal_frame_invariance(self):
        flat = Flat(2)
        base = SampledLoop.constant(np.zeros(2), 64)
        rng = np.random.default_rng(3)
        rot = rotation_matrix_loop(64, 2.0)
        for _ in range(10):
            b = random_section(rng, flat, base)
            c = random_section(rng, flat, base)
            rb = TangentSection(flat, base, rot.apply(b.vectors))
            rc = TangentSection(flat, base, rot.apply(c.vectors))
            assert abs(l2_inner(base, rb, rc) - l2_inner(base, b, c)) < 1e-9


class TestCovDeriv:
    def make_flat_path(self, n=64, grid=32):
        flat = Flat(3)
        rng = np.random.default_rng(4)
        a = random_bandlimited_loop(rng, 3, n)
        b = random_section(rng, flat, a)
        s = np.linspace(0, 1, grid + 1)
        lps = tuple(SampledLoop(a.samples + si * b.vectors) for si in s)
        return flat, LoopPath(flat, s, lps)

    def test_constant_field_kills(self):
        flat, path = self.make_flat_path()
        c = random_section(np.random.default_rng(5), flat, path.loops[0])
        field = [TangentSection(flat, lp, c.vectors) for lp in path.loops]
        out = cov_deriv_along_path(levi_civita(flat), path, field)
        assert max(float(np.max(np.abs(d.vectors))) for d in out) < 1e-10

    def test_linear_ramp_product_rule(self):
        flat, path = self.make_flat_path()
        c = random_section(np.random.default_rng(6), flat, path.loops[0])
        s = path.s_grid
        field = [TangentSection(flat, lp, (2.0 + 3.0 * si) * c.vectors)
                 for si, lp in zip(s, path.loops)]
        out = cov_deriv_along_path(levi_civita(flat), path, field)
        for d in out:  # central differences are exact on linear data
            assert np.max(np.abs(d.vectors - 3.0 * c.vectors)) < 1e-9

    def test_grid_too_coarse(self):
        flat = Flat(2)
        a = SampledLoop.constant(np.zeros(2), 64)
        s = np.linspace(0, 1, 3)
        path = LoopPath(flat, s, tuple([a] * 3))
        field = [zero_section(flat, a)] * 3
        with pytest.raises(GridTooCoarse):
            cov_deriv_along_path(levi_civita(flat), path, field)

    def test_metric_compatibility_on_sphere(self):
        rng = np.random.default_rng(7)
        conn = levi_civita(SPHERE)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.2)
        grid = 128
        s = np.linspace(0, 1, grid + 1)
        lps = tuple(SampledLoop(SPHERE.exp(alpha.samples, si * nu.vectors))
                    for si in s)
        path = LoopPath(SPHERE, s, lps)
        w1 = random_section(rng, SPHERE, alpha, scale=0.1)
        w2 = random_section(rng, SPHERE, alpha, scale=0.1)

        def field(seed):
            out = []
            for si, lp in zip(s, path.loops):
                vec = SPHERE.project_tangent_vector(
                    lp.samples, (1 + 0.1 * np.sin(np.pi * si)) * seed.vectors)
                out.append(TangentSection(SPHERE, lp, vec))
            return out

        f1, f2 = field(w1), field(w2)
        d1 = cov_deriv_along_path(conn, path, f1)
        d2 = cov_deriv_along_path(conn, path, f2)
        inner = np.array([l2_inner(path.loops[i], f1[i], f2[i])
                          for i in range(grid + 1)])
        h = s[1] - s[0]
        for i in range(1, grid):
            lhs = (inner[i + 1] - inner[i - 1]) / (2 * h)
            rhs = l2_inner(path.loops[i], d1[i], f2[i]) + \
                l2_inner(path.loops[i], f1[i], d2[i])
            assert abs(lhs - rhs) < 1e-5


class TestLoopGeodesic:
    def test_flat_straight_lines(self):
        flat = Flat(2)
        a = random_bandlimited_loop(np.random.default_rng(8), 2, 64)
        b = random_section(np.random.default_rng(9), flat, a)
        path = loop_geodesic(levi_civita(flat), a, b, 1.0, 16)
        for si, lp in zip(path.s_grid, path.loops):
            assert np.max(np.abs(lp.samples - (a.samples + si * b.vectors))) < 1e-12

    def test_constant_loops_follow_the_point_geodesic(self):
        alpha = SampledLoop.constant(NORTH, 64)
        nu = TangentSection(SPHERE, alpha,
                            np.tile([np.pi / 2, 0.0, 0.0], (64, 1)))
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        assert np.max(np.abs(path.loops[-1].samples - [1.0, 0.0, 0.0])) < 1e-8

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(10)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        for idx in (50, 200):
            s = path.s_grid[idx]
            oracle = SPHERE.exp(alpha.samples, s * nu.vectors)
            assert np.max(np.abs(path.loops[idx].samples - oracle)) < 1e-7

    def test_energy_constant(self):
        rng = np.random.default_rng(11)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.4)
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        vals = path.values
        h = path.s_grid[1] - path.s_grid[0]
        vel = (vals[2:] - vals[:-2]) / (2 * h)
        energy = np.sum(vel * vel, axis=(1, 2)) / 64
        assert np.max(np.abs(energy - energy[0])) < 1e-5


class TestLoopTransport:
    def test_flat_identity(self):
        flat = Flat(3)
        a = random_bandlimited_loop(np.random.default_rng(12), 3, 64)
        b = random_section(np.random.default_rng(13), flat, a)
        path = loop_geodesic(levi_civita(flat), a, b, 1.0, 16)
        sigma = random_section(np.random.default_rng(14), flat, a)
        out = loop_parallel_transport(levi_civita(flat), path, sigma)
        assert np.max(np.abs(out.vectors - sigma.vectors)) < 1e-9

    def test_constant_loop_quarter_circle(self):
        alpha = SampledLoop.constant(NORTH, 64)
        nu = TangentSection(SPHERE, alpha, np.tile([np.pi / 2, 0, 0], (64, 1)))
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        sigma = TangentSection(SPHERE, alpha, np.tile([0.0, 1.0, 0.0], (64, 1)))
        out = loop_parallel_transport(levi_civita(SPHERE), path, sigma)
        assert np.max(np.abs(out.vectors - [0.0, 1.0, 0.0])) < 1e-8

    def test_l2_isometry(self):
        rng = np.random.default_rng(15)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        sigma = random_section(rng, SPHERE, alpha)
        out = loop_parallel_transport(levi_civita(SPHERE), path, sigma)
        assert abs(l2_inner(path.loops[-1], out, out)
                   - l2_inner(alpha, sigma, sigma)) < 1e-7

    def test_transport_commutes_with_evaluation(self):
        from loopspace_lab.manifolds import parallel_transport, project_tangent
        rng = np.random.default_rng(16)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(levi_civita(SPHERE), alpha, nu, 1.0, 200)
        sigma = random_section(rng, SPHERE, alpha)
        out = loop_parallel_transport(levi_civita(SPHERE), path, sigma)
        for j in (0, 17, 40):
            trace = path.values[:, j, :]
            single = parallel_transport(
                SPHERE, trace, project_tangent(SPHERE, trace[0], sigma.vectors[j]))
            assert np.max(np.abs(single.vector - out.vectors[j])) < 1e-7


class TestTorsion:
    def test_levi_civita_is_torsion_free(self):
        rng = np.random.default_rng(17)
        alpha = unit_circle_loop(64)
        b = random_section(rng, SPHERE, alpha)
        c = random_section(rng, SPHERE, alpha)
        out = torsion(levi_civita(SPHERE), alpha, b, c)
        assert np.max(np.abs(out.vectors)) == 0.0

    def test_cross_product_torsion(self):
        flat = Flat(3)
        conn = ConnectionSpec(flat, torsion=lambda p, u, v: np.cross(u, v))
        rng = np.random.default_rng(18)
        alpha = random_bandlimited_loop(rng, 3, 64)
        b = random_section(rng, flat, alpha)
        c = random_section(rng, flat, alpha)
        out = torsion(conn, alpha, b, c)
        assert np.array_equal(out.vectors, np.cross(b.vectors, c.vectors))
        swapped = torsion(conn, alpha, c, b)
        assert np.array_equal(out.vectors, -swapped.vectors)

    def test_torsion_on_curved_base_rejected(self):
        with pytest.raises(ValueError):
            ConnectionSpec(SPHERE, torsion=lambda p, u, v: np.cross(u, v))

    def test_torsion_affects_transport(self):
        # transporting with the cross-product torsion rotates the vector
        flat = Flat(3)
        conn = ConnectionSpec(flat, torsion=lambda p, u, v: np.cross(u, v))
        a = SampledLoop.constant(np.zeros(3), 64)
        b = TangentSection(flat, a, np.tile([1.0, 0.0, 0.0], (64, 1)))
        path = loop_geodesic(conn, a, b, 1.0, 64)
        sigma = TangentSection(flat, a, np.tile([0.0, 1.0, 0.0], (64, 1)))
        out = loop_parallel_transport(conn, path, sigma, steps=400)
        # solves v' = -0.5 (e1 x v): rotation by -1/2 about e1
        expected = np.array([0.0, np.cos(0.5), -np.sin(0.5)])
        assert np.max(np.abs(out.vectors - expected)) < 1e-8


class TestBundleChart:
    def test_zero_shift_is_identity(self):
        rng = np.random.default_rng(19)
        alpha = unit_circle_loop(64)
        gamma = random_section(rng, SPHERE, alpha)
        out = bundle_chart(levi_civita(SPHERE), alpha,
                           zero_section(SPHERE, alpha), gamma)
        assert np.max(np.abs(out.vectors - gamma.vectors)) < 1e-12
        assert np.max(np.abs(out.base.samples - alpha.samples)) == 0.0

    def test_flat_translation(self):
        flat = Flat(2)
        rng = np.random.default_rng(20)
        alpha = random_bandlimited_loop(rng, 2, 64)
        beta = random_section(rng, flat, alpha)
        gamma = random_section(rng, flat, alpha)
        out = bundle_chart(levi_civita(flat), alpha, beta, gamma)
        assert np.max(np.abs(out.vectors - gamma.vectors)) < 1e-14
        spec = LocalAdditionSpec(flat)
        expected_base = alpha.samples + spec.compress(beta.vectors)
        assert np.max(np.abs(out.base.samples - expected_base)) < 1e-14

    def test_scalar_loop_linearity_in_second_slot(self):
        rng = np.random.default_rng(21)
        alpha = unit_circle_loop(64)
        beta = random_section(rng, SPHERE, alpha, scale=0.5)
        g1 = random_section(rng, SPHERE, alpha)
        g2 = random_section(rng, SPHERE, alpha)
        nu = 0.4 + 0.3 * np.sin(2 * np.pi * alpha.nodes)
        conn = levi_civita(SPHERE)
        lhs = bundle_chart(conn, alpha, beta, g1.scaled(nu) + g2)
        rhs_vec = nu[:, None] * bundle_chart(conn, alpha, beta, g1).vectors \
            + bundle_chart(conn, alpha, beta, g2).vectors
        assert np.max(np.abs(lhs.vectors - rhs_vec)) < 1e-8

    def test_transport_leg_is_isometric(self):
        rng = np.random.default_rng(22)
        alpha = unit_circle_loop(64)
        beta = random_section(rng, SPHERE, alpha, scale=0.8)
        gamma = random_section(rng, SPHERE, alpha)
        out = bundle_chart(levi_civita(SPHERE), alpha, beta, gamma)
        assert np.max(np.abs(np.linalg.norm(out.vectors, axis=1)
                             - np.linalg.norm(gamma.vectors, axis=1))) < 1e-12


class TestFrameExtraction:
    def test_identity_operator(self):
        frame = frame_from_module_map(lambda s: s, 3, 32)
        assert np.max(np.abs(frame.matrices - np.eye(3))) == 0.0

    def test_rotation_loop_recovered(self):
        rot = rotation_matrix_loop(64, 1.0)
        frame = frame_from_module_map(rot.apply, 2, 64)
        assert np.max(np.abs(frame.matrices - rot.matrices)) < 1e-10

    def test_scalar_loop_recovered(self):
        nu = 1.5 + 0.4 * np.sin(2 * np.pi * np.arange(32) / 32)
        frame = frame_from_module_map(lambda s: nu[:, None] * s, 2, 32)
        assert np.max(np.abs(frame.matrices - nu[:, None, None] * np.eye(2))) < 1e-12

    def test_reconstruction_on_random_probes(self):
        rng = np.random.default_rng(23)
        t = np.arange(64) / 64
        mats = np.tile(2.0 * np.eye(2), (64, 1, 1))
        mats += 0.3 * np.sin(2 * np.pi * t)[:, None, None] * rng.normal(size=(2, 2))
        truth = MatrixLoop(mats)
        frame = frame_from_module_map(truth.apply, 2, 64)
        for _ in range(100):
            s = rng.normal(size=(64, 2))
            assert np.max(np.abs(frame.apply(s) - truth.apply(s))) < 1e-8

    def test_convolution_rejected(self):
        with pytest.raises(NotPointwiseLinear):
            frame_from_module_map(lambda s: np.roll(s, 8, axis=0), 2, 64)

    def test_spectral_multiplier_rejected(self):
        def smoother(s):
            c = np.fft.fft(s, axis=0)
            k = np.abs(np.fft.fftfreq(64, 1 / 64))
            return np.fft.ifft(c * np.exp(-0.1 * k)[:, None], axis=0).real
        with pytest.raises(NotPointwiseLinear):
            frame_from_module_map(smoother, 2, 64)

    def test_singular_frame_rejected(self):
        nu = np.sin(2 * np.pi * np.arange(64) / 64)  # vanishes at two nodes
        with pytest.raises(SingularFrame):
            frame_from_module_map(lambda s: nu[:, None] * s, 2, 64)


class TestWitness:
    def through_circle(self, n=128):
        t = np.arange(n) / n
        return SampledLoop(np.stack([np.sin(2 * np.pi * t), np.zeros(n),
                                     -np.cos(2 * np.pi * t)], axis=-1))

    def latitude_circle(self, radius, n=128):
        t = np.arange(n) / n
        return SampledLoop(np.stack([
            np.sin(radius) * np.cos(2 * np.pi * t),
            np.sin(radius) * np.sin(2 * np.pi * t),
            -np.cos(radius) * np.ones(n)], axis=-1))

    def test_great_circle_through_pole_jumps(self):
        report = exp_nonsurjectivity_witness(SPHERE, self.through_circle())
        assert report["jump_magnitude"] >= 1.0
        assert report["offset"] == pytest.approx(1 / 256)

    def test_distant_circle_lifts_continuously(self):
        report = exp_nonsurjectivity_witness(SPHERE, self.latitude_circle(0.2))
        assert report["jump_magnitude"] <= 0.1

    def test_constant_target(self):
        const = SampledLoop.constant(np.array([1.0, 0.0, 0.0]), 128)
        report = exp_nonsurjectivity_witness(SPHERE, const)
        assert report["jump_magnitude"] < 1e-12


class TestCurveDerivative:
    def test_flat_polynomial(self):
        a = random_bandlimited_loop(np.random.default_rng(24), 2, 32)
        b = random_section(np.random.default_rng(25), Flat(2), a)
        curve = lambda s: SampledLoop(a.samples + s * b.vectors)
        out = curve_of_loops_derivative(curve, 0.3, h=1e-4)
        assert np.max(np.abs(out - b.vectors)) < 1e-9


class TestSerialization:
    def test_matrix_loop_round_trip_real_and_complex(self):
        rot = rotation_matrix_loop(16, 1.0)
        again = matrix_loop_from_dict(matrix_loop_to_dict(rot))
        assert np.array_equal(again.matrices, rot.matrices)
        t = np.arange(16) / 16
        cm = MatrixLoop(np.exp(2j * np.pi * t)[:, None, None])
        again = matrix_loop_from_dict(matrix_loop_to_dict(cm))
        assert np.array_equal(again.matrices, cm.matrices)

    def test_path_round_trip(self):
        flat = Flat(2)
        a = random_bandlimited_loop(np.random.default_rng(26), 2, 16)
        b = random_section(np.random.default_rng(27), flat, a)
        path = loop_geodesic(levi_civita(flat), a, b, 1.0, 8)
        again = path_from_dict(path_to_dict(path))
        assert np.array_equal(again.s_grid, path.s_grid)
        assert all(np.array_equal(x.samples, y.samples)
                   for x, y in zip(again.loops, path.loops))
