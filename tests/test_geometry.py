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
    OffManifold,
    OutOfInjectivityDomain,
    SingularFrame,
)
from loopspace_lab.geometry import (
    FRAME_PROBES,
    ConnectionSpec,
    LoopPath,
    MatrixLoop,
    bundle_chart,
    cov_deriv_along_path,
    curve_of_loops_derivative,
    exp_nonsurjectivity_witness,
    frame_from_module_map,
    l2_inner,
    l2_pairing,
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
from loopspace_lab.manifolds import Flat, FlatTorus2, LocalAdditionSpec, Sphere2

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

    def test_batched_pairing_is_the_inner_product_per_loop(self):
        # the stack's pairing must be bit for bit l2_inner, loop by loop
        rng = np.random.default_rng(4)
        flat = Flat(3)
        b, c = rng.normal(size=(2, 9, 64, 3))
        batched = l2_pairing(b, c)
        for i in range(9):
            base = SampledLoop(np.zeros((64, 3)))
            bi, ci = TangentSection(flat, base, b[i]), TangentSection(flat, base, c[i])
            assert batched[i] == l2_inner(base, bi, ci)

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


class TestLoopPath:
    S = np.linspace(0, 1, 5)

    def test_accepts_a_path_on_the_manifold(self):
        values = np.broadcast_to(unit_circle_loop(16).samples, (5, 16, 3))
        path = LoopPath(SPHERE, self.S, values)
        assert path.grid_size == 4 and path.values.shape == (5, 16, 3)

    @pytest.mark.parametrize("s_grid", [[0, 0.25, 0.25, 0.75, 1], [0, 0.5, 0.25, 0.75, 1]])
    def test_rejects_a_non_increasing_grid(self, s_grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            LoopPath(Flat(2), s_grid, np.zeros((5, 16, 2)))

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(ValueError, match="one loop per time node"):
            LoopPath(Flat(2), self.S, np.zeros((4, 16, 2)))

    def test_rejects_a_resolution_that_is_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            LoopPath(Flat(2), self.S, np.zeros((5, 12, 2)))

    def test_rejects_a_nan_sample_on_flat_space(self):
        # Flat's constraint residual is 0 on NaN, so finiteness is its own check
        values = np.zeros((5, 16, 2))
        values[3, 7, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LoopPath(Flat(2), self.S, values)

    def test_rejects_samples_of_the_wrong_dimension_on_flat_space(self):
        with pytest.raises(OffManifold):
            LoopPath(Flat(2), self.S, np.zeros((5, 16, 3)))

    def test_rejects_an_off_sphere_loop(self):
        values = np.tile(unit_circle_loop(16).samples, (5, 1, 1))
        values[2] *= 1.01
        with pytest.raises(OffManifold):
            LoopPath(SPHERE, self.S, values)

    def test_accepts_a_stack_of_paths(self):
        values = np.broadcast_to(unit_circle_loop(16).samples, (5, 3, 16, 3))
        path = LoopPath(SPHERE, self.S, values)
        assert path.grid_size == 4 and path.values.shape == (5, 3, 16, 3)

    def test_rejects_values_without_a_circle_axis(self):
        with pytest.raises(ValueError, match="one loop per time node"):
            LoopPath(Flat(2), self.S, np.zeros((5, 16)))

    @pytest.mark.parametrize("case", ["grid", "length", "resolution", "nan",
                                      "dimension", "off-sphere"])
    def test_rejects_each_bad_input_on_a_stack_of_paths(self, case):
        # the tests above hold the same rejections for a single path
        manifold, s_grid, values = Flat(2), self.S, np.zeros((5, 3, 16, 2))
        error, match = ValueError, None
        if case == "grid":
            s_grid, match = [0, 0.5, 0.25, 0.75, 1], "strictly increasing"
        elif case == "length":
            values, match = np.zeros((4, 3, 16, 2)), "one loop per time node"
        elif case == "resolution":
            values, match = np.zeros((5, 3, 12, 2)), "power of two"
        elif case == "nan":
            values[3, 1, 7, 1] = np.nan
            match = "finite"
        elif case == "dimension":
            values, error = np.zeros((5, 3, 16, 3)), OffManifold
        else:
            manifold, error = SPHERE, OffManifold
            values = np.tile(unit_circle_loop(16).samples, (5, 3, 1, 1))
            values[2, 1] *= 1.01
        with pytest.raises(error, match=match):
            LoopPath(manifold, s_grid, values)


class TestCovDeriv:
    def make_flat_path(self, n=64, grid=32):
        flat = Flat(3)
        rng = np.random.default_rng(4)
        a = random_bandlimited_loop(rng, 3, n)
        b = random_section(rng, flat, a)
        s = np.linspace(0, 1, grid + 1)
        return flat, LoopPath(flat, s, a.samples + s[:, None, None] * b.vectors)

    def test_constant_field_kills(self):
        flat, path = self.make_flat_path()
        c = random_section(np.random.default_rng(5), flat, SampledLoop(path.values[0]))
        field = np.broadcast_to(c.vectors, path.values.shape)
        out = cov_deriv_along_path(ConnectionSpec(flat), path, field)
        assert out.shape == path.values.shape
        assert np.max(np.abs(out)) < 1e-10

    def test_linear_ramp_product_rule(self):
        flat, path = self.make_flat_path()
        c = random_section(np.random.default_rng(6), flat, SampledLoop(path.values[0]))
        field = (2.0 + 3.0 * path.s_grid[:, None, None]) * c.vectors
        out = cov_deriv_along_path(ConnectionSpec(flat), path, field)
        # central differences are exact on linear data
        assert np.max(np.abs(out - 3.0 * c.vectors)) < 1e-9

    def test_non_uniform_grid_rejected(self):
        # one spacing for every node would give 1.2 at s = 0.2, not 2 s = 0.4
        flat = Flat(2)
        s = np.array([0.0, 0.1, 0.2, 0.5, 0.6, 0.8, 1.0])
        path = LoopPath(flat, s, np.zeros((7, 8, 2)))
        field = np.zeros((7, 8, 2))
        field[..., 1] = s[:, None] ** 2
        with pytest.raises(ValueError, match="uniform time grid"):
            cov_deriv_along_path(ConnectionSpec(flat), path, field)

    def test_grid_too_coarse(self):
        flat = Flat(2)
        path = LoopPath(flat, np.linspace(0, 1, 3), np.zeros((3, 64, 2)))
        with pytest.raises(GridTooCoarse):
            cov_deriv_along_path(ConnectionSpec(flat), path, np.zeros((3, 64, 2)))

    def test_field_of_the_wrong_shape(self):
        flat, path = self.make_flat_path()
        with pytest.raises(ValueError, match="one tangent vector per path sample"):
            cov_deriv_along_path(ConnectionSpec(flat), path, path.values[:-1])

    def test_field_not_tangent(self):
        s = np.linspace(0, 1, 9)
        alpha = unit_circle_loop(64)
        path = LoopPath(SPHERE, s, np.broadcast_to(alpha.samples, (9, 64, 3)))
        # the radial field is normal to the sphere everywhere
        with pytest.raises(ValueError, match="not tangent"):
            cov_deriv_along_path(ConnectionSpec(SPHERE), path, path.values)

    def test_result_must_be_tangent(self):
        class Unprojected(ConnectionSpec):
            # the ambient derivative: not tangent where a field turns with the sphere
            def connector(self, p, e, pdot, edot):
                return np.asarray(edot, dtype=np.float64)

        s = np.linspace(0, 1, 9)
        ang = np.pi / 2 * s[:, None, None] * np.ones((1, 16, 1))
        values = np.concatenate([np.sin(ang), 0 * ang, np.cos(ang)], axis=-1)
        velocity = np.concatenate([np.cos(ang), 0 * ang, -np.sin(ang)], axis=-1)
        path = LoopPath(SPHERE, s, values)
        with pytest.raises(ValueError, match="not tangent"):
            cov_deriv_along_path(Unprojected(SPHERE), path, velocity)

    def test_metric_compatibility_on_sphere(self):
        rng = np.random.default_rng(7)
        conn = ConnectionSpec(SPHERE)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.2)
        grid = 128
        s = np.linspace(0, 1, grid + 1)
        path = LoopPath(SPHERE, s, SPHERE.exp(alpha.samples,
                                              s[:, None, None] * nu.vectors))
        w1 = random_section(rng, SPHERE, alpha, scale=0.1)
        w2 = random_section(rng, SPHERE, alpha, scale=0.1)

        def field(seed):
            return SPHERE.project_tangent_vector(
                path.values, (1 + 0.1 * np.sin(np.pi * s[:, None, None])) * seed.vectors)

        def sections(vectors):
            return [TangentSection(SPHERE, SampledLoop(x), v)
                    for x, v in zip(path.values, vectors)]

        f1, f2 = field(w1), field(w2)
        d1 = sections(cov_deriv_along_path(conn, path, f1))
        d2 = sections(cov_deriv_along_path(conn, path, f2))
        f1, f2 = sections(f1), sections(f2)
        inner = np.array([l2_inner(f1[i].base, f1[i], f2[i])
                          for i in range(grid + 1)])
        h = s[1] - s[0]
        for i in range(1, grid):
            lhs = (inner[i + 1] - inner[i - 1]) / (2 * h)
            rhs = l2_inner(f1[i].base, d1[i], f2[i]) + \
                l2_inner(f1[i].base, f1[i], d2[i])
            assert abs(lhs - rhs) < 1e-5


class TestLoopGeodesic:
    def test_flat_straight_lines(self):
        flat = Flat(2)
        a = random_bandlimited_loop(np.random.default_rng(8), 2, 64)
        b = random_section(np.random.default_rng(9), flat, a)
        path = loop_geodesic(ConnectionSpec(flat), a, b, 1.0, 16)
        for si, x in zip(path.s_grid, path.values):
            assert np.max(np.abs(x - (a.samples + si * b.vectors))) < 1e-12

    def test_constant_loops_follow_the_point_geodesic(self):
        alpha = SampledLoop.constant(NORTH, 64)
        nu = TangentSection(SPHERE, alpha,
                            np.tile([np.pi / 2, 0.0, 0.0], (64, 1)))
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
        assert np.max(np.abs(path.values[-1] - [1.0, 0.0, 0.0])) < 1e-8

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(10)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
        for idx in (50, 200):
            s = path.s_grid[idx]
            oracle = SPHERE.exp(alpha.samples, s * nu.vectors)
            assert np.max(np.abs(path.values[idx] - oracle)) < 1e-7

    def test_energy_constant(self):
        rng = np.random.default_rng(11)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.4)
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
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
        path = loop_geodesic(ConnectionSpec(flat), a, b, 1.0, 16)
        sigma = random_section(np.random.default_rng(14), flat, a)
        out = loop_parallel_transport(ConnectionSpec(flat), path, sigma)
        assert np.max(np.abs(out.vectors - sigma.vectors)) < 1e-9

    def test_constant_loop_quarter_circle(self):
        alpha = SampledLoop.constant(NORTH, 64)
        nu = TangentSection(SPHERE, alpha, np.tile([np.pi / 2, 0, 0], (64, 1)))
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
        sigma = TangentSection(SPHERE, alpha, np.tile([0.0, 1.0, 0.0], (64, 1)))
        out = loop_parallel_transport(ConnectionSpec(SPHERE), path, sigma)
        assert np.max(np.abs(out.vectors - [0.0, 1.0, 0.0])) < 1e-8

    def test_l2_isometry(self):
        rng = np.random.default_rng(15)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
        sigma = random_section(rng, SPHERE, alpha)
        out = loop_parallel_transport(ConnectionSpec(SPHERE), path, sigma)
        assert abs(l2_inner(out.base, out, out)
                   - l2_inner(alpha, sigma, sigma)) < 1e-7

    def test_transport_commutes_with_evaluation(self):
        from loopspace_lab.manifolds import parallel_transport, project_tangent
        rng = np.random.default_rng(16)
        alpha = unit_circle_loop(64)
        nu = random_section(rng, SPHERE, alpha, scale=0.5)
        path = loop_geodesic(ConnectionSpec(SPHERE), alpha, nu, 1.0, 200)
        sigma = random_section(rng, SPHERE, alpha)
        out = loop_parallel_transport(ConnectionSpec(SPHERE), path, sigma)
        for j in (0, 17, 40):
            trace = path.values[:, j, :]
            single = parallel_transport(
                SPHERE, trace, project_tangent(SPHERE, trace[0], sigma.vectors[j]))
            assert np.max(np.abs(single.vector - out.vectors[j])) < 1e-7


class TestTrialAxis:
    """Loop geodesics and transports of a (B, N, k) stack of trials are the
    per-trial calls, bit for bit: the integration acts node by node."""

    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, FlatTorus2()],
                             ids=lambda m: m.kind)
    def test_batched_equals_per_trial_bit_for_bit(self, manifold):
        rng = np.random.default_rng(21)
        conn = ConnectionSpec(manifold)
        alphas = [manifold.random_loop(rng, 64) for _ in range(3)]
        nus = [random_section(rng, manifold, a, scale=0.5) for a in alphas]
        sigmas = [random_section(rng, manifold, a, scale=0.8) for a in alphas]
        alpha = SampledLoop(np.stack([a.samples for a in alphas]))
        nu = TangentSection(manifold, alpha, np.stack([v.vectors for v in nus]))
        sigma = TangentSection(manifold, alpha, np.stack([v.vectors for v in sigmas]))
        path = loop_geodesic(conn, alpha, nu, 1.0, 40)
        moved = loop_parallel_transport(conn, path, sigma)
        assert path.values.shape == (41, 3, 64, manifold.ambient_dim)
        assert moved.vectors.shape == (3, 64, manifold.ambient_dim)
        assert np.array_equal(moved.base.samples, path.values[-1])
        norms = l2_inner(alpha, sigma, sigma)
        assert norms.shape == (3,)
        for trial in range(3):
            assert norms[trial] == l2_inner(alphas[trial], sigmas[trial], sigmas[trial])
            single = loop_geodesic(conn, alphas[trial], nus[trial], 1.0, 40)
            assert np.array_equal(path.values[:, trial], single.values)
            out = loop_parallel_transport(conn, single, sigmas[trial])
            assert np.array_equal(moved.base.samples[trial], out.base.samples)
            assert np.array_equal(moved.vectors[trial], out.vectors)

    def test_each_trial_must_be_based(self):
        rng = np.random.default_rng(22)
        conn = ConnectionSpec(SPHERE)
        alpha = SampledLoop(np.stack([SPHERE.random_loop(rng, 32).samples
                                      for _ in range(2)]))
        nu = random_section(rng, SPHERE, alpha, scale=0.3)
        swapped = SampledLoop(alpha.samples[::-1])
        other = TangentSection(SPHERE, swapped, nu.vectors[::-1])
        with pytest.raises(BaseMismatch):
            loop_geodesic(conn, alpha, other)
        path = loop_geodesic(conn, alpha, nu, 1.0, 16)
        with pytest.raises(BaseMismatch):
            loop_parallel_transport(conn, path, other)


class TestTorsion:
    def test_levi_civita_is_torsion_free(self):
        rng = np.random.default_rng(17)
        alpha = unit_circle_loop(64)
        b = random_section(rng, SPHERE, alpha)
        c = random_section(rng, SPHERE, alpha)
        out = torsion(ConnectionSpec(SPHERE), alpha, b, c)
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
        out = bundle_chart(ConnectionSpec(SPHERE), alpha,
                           zero_section(SPHERE, alpha), gamma)
        assert np.max(np.abs(out.vectors - gamma.vectors)) < 1e-12
        assert np.max(np.abs(out.base.samples - alpha.samples)) == 0.0

    def test_flat_translation(self):
        flat = Flat(2)
        rng = np.random.default_rng(20)
        alpha = random_bandlimited_loop(rng, 2, 64)
        beta = random_section(rng, flat, alpha)
        gamma = random_section(rng, flat, alpha)
        out = bundle_chart(ConnectionSpec(flat), alpha, beta, gamma)
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
        conn = ConnectionSpec(SPHERE)
        lhs = bundle_chart(conn, alpha, beta, g1.scaled(nu) + g2)
        rhs_vec = nu[:, None] * bundle_chart(conn, alpha, beta, g1).vectors \
            + bundle_chart(conn, alpha, beta, g2).vectors
        assert np.max(np.abs(lhs.vectors - rhs_vec)) < 1e-8

    def test_transport_leg_is_isometric(self):
        rng = np.random.default_rng(22)
        alpha = unit_circle_loop(64)
        beta = random_section(rng, SPHERE, alpha, scale=0.8)
        gamma = random_section(rng, SPHERE, alpha)
        out = bundle_chart(ConnectionSpec(SPHERE), alpha, beta, gamma)
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
        # the FFT runs along the circle axis -2; on axis 0 it would filter
        # across the probes of a stack, and act pointwise on the circle
        def smoother(s):
            c = np.fft.fft(s, axis=-2)
            k = np.abs(np.fft.fftfreq(64, 1 / 64))
            return np.fft.ifft(c * np.exp(-0.1 * k)[:, None], axis=-2).real
        with pytest.raises(NotPointwiseLinear):
            frame_from_module_map(smoother, 2, 64)

    def test_operator_mixing_probes_rejected(self):
        # pointwise on the circle, but it mixes the loops of a probe stack
        with pytest.raises(NotPointwiseLinear):
            frame_from_module_map(lambda s: np.roll(s, 1, axis=0), 2, 64)

    def test_g_is_called_once_on_the_basis_and_once_on_the_probes(self):
        shapes = []

        def g(s):
            shapes.append(s.shape)
            return 2.0 * s

        frame_from_module_map(g, 3, 32)
        assert shapes == [(3, 32, 3), (FRAME_PROBES, 32, 3)]

    def test_probe_stack_is_the_sequence_of_single_draws(self):
        probes = []

        def g(s):
            probes.append(s)
            return 2.0 * s

        frame_from_module_map(g, 2, 32, rng=np.random.default_rng(4))
        rng = np.random.default_rng(4)
        singles = np.stack([rng.normal(size=(32, 2)) for _ in range(FRAME_PROBES)])
        assert np.array_equal(probes[1], singles)

    def test_nan_probe_image_rejected(self):
        # g(s) = 2s, but its probe call has a NaN at probe 2, node 7
        calls = []

        def g(s):
            calls.append(None)
            out = 2.0 * s
            if len(calls) == 2:
                out[2, 7, 0] = np.nan
            return out

        with pytest.raises(NotPointwiseLinear):
            frame_from_module_map(g, 2, 32)
        assert len(calls) == 2

    def test_image_of_another_shape_rejected(self):
        with pytest.raises(ValueError, match=r"g returned shape \(32, 2\)"):
            frame_from_module_map(lambda s: np.ones((32, 2)), 2, 32)

    def test_singular_frame_rejected(self):
        nu = np.sin(2 * np.pi * np.arange(64) / 64)  # vanishes at two nodes
        with pytest.raises(SingularFrame):
            frame_from_module_map(lambda s: nu[:, None] * s, 2, 64)


class TestMatrixLoopApply:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("complex_matrices", [False, True])
    def test_stack_equals_probe_calls_and_einsum(self, n, complex_matrices):
        rng = np.random.default_rng(28)
        mats = rng.normal(size=(64, n, n))
        if complex_matrices:
            mats = mats + 1j * rng.normal(size=(64, n, n))
        loop = MatrixLoop(mats)
        probes = rng.normal(size=(FRAME_PROBES, 64, n))
        stacked = loop.apply(probes)
        assert np.array_equal(stacked, np.stack([loop.apply(s) for s in probes]))
        assert np.array_equal(stacked, np.einsum("tij,...tj->...ti", loop.matrices, probes))

    @pytest.mark.parametrize("n", [3, 4])
    def test_wider_stack_equals_probe_calls(self, n):
        # from three columns einsum sums in its own lane order, so it agrees
        # to rounding only
        rng = np.random.default_rng(29)
        loop = MatrixLoop(rng.normal(size=(32, n, n)) + 1j * rng.normal(size=(32, n, n)))
        probes = rng.normal(size=(5, 32, n)) + 1j * rng.normal(size=(5, 32, n))
        stacked = loop.apply(probes)
        assert np.array_equal(stacked, np.stack([loop.apply(s) for s in probes]))
        assert np.allclose(stacked, np.einsum("tij,...tj->...ti", loop.matrices, probes),
                           rtol=0.0, atol=1e-13)


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

    def test_target_on_the_antipode_at_every_offset(self):
        # the constant loop at the north pole sits on the cut locus of the
        # south pole at every node offset
        with pytest.raises(OutOfInjectivityDomain):
            exp_nonsurjectivity_witness(SPHERE, SampledLoop.constant(NORTH, 128))


class TestCurveDerivative:
    def test_flat_polynomial(self):
        a = random_bandlimited_loop(np.random.default_rng(24), 2, 32)
        b = random_section(np.random.default_rng(25), Flat(2), a)
        curve = lambda s: SampledLoop(a.samples + s * b.vectors)
        out = curve_of_loops_derivative(curve, 0.3)
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
        path = loop_geodesic(ConnectionSpec(flat), a, b, 1.0, 8)
        again = path_from_dict(path_to_dict(path))
        assert np.array_equal(again.s_grid, path.s_grid)
        assert np.array_equal(again.values, path.values)
