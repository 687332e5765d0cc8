"""Embedded manifolds: projectors, geodesics, transport, local additions.

The integrated routes (RK4 with reprojection) are checked against the
closed-form maps, and the closed forms against independently coded oracles
(great-circle formulas, rotation matrices, angle arithmetic).
"""

import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from loopspace_lab.errors import (
    IntegrationDiverged,
    OffManifold,
    OutOfInjectivityDomain,
    OutOfV,
    OutsideTube,
    ShootingFailed,
)
from loopspace_lab import manifolds
from loopspace_lab.loops import random_bandlimited_loop
from loopspace_lab.manifolds import (
    Flat,
    FlatTorus2,
    LocalAdditionSpec,
    RoundSpheres,
    Sphere2,
    TangentAtPoint,
    exp_map,
    integrate_geodesic,
    integrate_transport,
    log_by_shooting,
    log_map,
    manifold_from_tag,
    parallel_transport,
    project_tangent,
    random_tangent,
)

SPHERE = Sphere2()
TORUS = FlatTorus2()
NORTH = np.array([0.0, 0.0, 1.0])


def great_circle_exp(p, v):
    """Independent oracle: exp on the round sphere by the geodesic formula."""
    theta = np.linalg.norm(v)
    if theta == 0:
        return p.copy()
    return np.cos(theta) * p + np.sin(theta) * v / theta


def rotation_about_axis(axis, angle):
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


class TestProjectors:
    @pytest.mark.parametrize("manifold", [Flat(3), SPHERE, TORUS])
    def test_projector_symmetric_idempotent_trace(self, manifold):
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = manifold.random_point(rng)
            basis = np.eye(manifold.ambient_dim)
            lam = manifold.project_tangent_vector(np.broadcast_to(p, basis.shape), basis).T
            assert np.max(np.abs(lam - lam.T)) < 1e-12
            assert np.max(np.abs(lam @ lam - lam)) < 1e-10
            assert abs(np.trace(lam) - manifold.intrinsic_dim) < 1e-10
            assert manifold.constraint_residual(p) < 1e-10

    def test_project_tangent_closed_form(self):
        out = project_tangent(SPHERE, NORTH, np.array([1.0, 2.0, 3.0]))
        assert np.max(np.abs(out.vector - [1.0, 2.0, 0.0])) < 1e-14

    def test_normal_direction_killed(self):
        rng = np.random.default_rng(1)
        p = SPHERE.random_point(rng)
        out = project_tangent(SPHERE, p, 2.7 * p)
        assert np.max(np.abs(out.vector)) < 1e-12

    def test_flat_projection_is_identity(self):
        flat = Flat(4)
        w = np.arange(4.0)
        out = project_tangent(flat, np.zeros(4), w)
        assert np.array_equal(out.vector, w)

    def test_off_manifold_rejected(self):
        with pytest.raises(OffManifold):
            project_tangent(SPHERE, np.array([0.0, 0.0, 1.5]), np.ones(3))

    def test_flat_base_of_the_wrong_dimension_rejected(self):
        with pytest.raises(OffManifold):
            TangentAtPoint(Flat(2), np.zeros(3), np.zeros(3))

    def test_nan_point_rejected(self):
        # a NaN constraint residual must not compare as within tolerance
        with pytest.raises(OffManifold):
            SPHERE.require_on_manifold(np.array([np.nan, 0.0, 0.0]))

    def test_nan_vector_rejected(self):
        # a NaN tangency residual must not compare as within tolerance
        with pytest.raises(ValueError):
            TangentAtPoint(SPHERE, NORTH, np.array([np.nan, 0.0, 0.0]))

    def test_projector_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for manifold in (SPHERE, TORUS):
            p = manifold.random_point(rng)
            w = random_tangent(manifold, rng, p).vector
            h = 1e-6
            v = rng.normal(size=manifold.ambient_dim)
            fd = (manifold.project_tangent_vector(p + h * w, v)
                  - manifold.project_tangent_vector(p - h * w, v)) / (2 * h)
            exact = manifold.projector_derivative(p, w, v)
            assert np.max(np.abs(fd - exact)) < 1e-7


class TestExpMap:
    def test_quarter_circle(self):
        v = TangentAtPoint(SPHERE, NORTH, np.array([np.pi / 2, 0.0, 0.0]))
        out = exp_map(SPHERE, v, steps=200)
        assert np.max(np.abs(out - [1.0, 0.0, 0.0])) < 1e-8

    def test_zero_vector(self):
        p = SPHERE.random_point(np.random.default_rng(3))
        out = exp_map(SPHERE, TangentAtPoint(SPHERE, p, np.zeros(3)))
        assert np.max(np.abs(out - p)) < 1e-14

    def test_flat_is_translation(self):
        flat = Flat(3)
        p, v = np.ones(3), np.array([1.0, -2.0, 0.5])
        out = exp_map(flat, TangentAtPoint(flat, p, v), steps=10)
        assert np.max(np.abs(out - (p + v))) < 1e-12

    def test_integrated_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = SPHERE.random_point(rng)
            v = random_tangent(SPHERE, rng, p)
            v = TangentAtPoint(SPHERE, p, v.vector / max(v.norm, 1e-9)
                               * rng.uniform(0.1, np.pi - 0.1))
            out = exp_map(SPHERE, v, steps=200)
            assert np.max(np.abs(out - great_circle_exp(p, v.vector))) < 1e-7

    def test_closed_form_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = SPHERE.random_point(rng)
            v = random_tangent(SPHERE, rng, p, 1.2)
            assert np.max(np.abs(SPHERE.exp(p, v.vector)
                                 - great_circle_exp(p, v.vector))) < 1e-13

    def test_constant_speed(self):
        rng = np.random.default_rng(6)
        p = SPHERE.random_point(rng)
        v = random_tangent(SPHERE, rng, p, 0.8)
        for t in (0.25, 0.5, 0.75, 1.0):
            _, vel = integrate_geodesic(SPHERE, p, v.vector, t, 200)
            assert abs(np.linalg.norm(vel) - v.norm) < 1e-7

    def test_wild_velocity_diverges(self):
        v = TangentAtPoint(SPHERE, NORTH, np.array([40.0, 0.0, 0.0]))
        with pytest.raises(IntegrationDiverged):
            exp_map(SPHERE, v, steps=8)

    def test_nan_velocity_diverges(self):
        with pytest.raises(IntegrationDiverged):
            integrate_geodesic(SPHERE, NORTH, np.array([np.nan, 0.0, 0.0]),
                               steps=8)

    def test_torus_wraps_each_circle(self):
        p = TORUS.random_point(np.random.default_rng(7))
        f1, f2 = TORUS.tangent_frame(p).T
        v = TangentAtPoint(TORUS, p, 0.7 * f1 - 0.3 * f2)
        out = exp_map(TORUS, v, steps=200)
        assert np.max(np.abs(out - TORUS.exp(p, v.vector))) < 1e-8


class TestLogMap:
    def test_sphere_quarter(self):
        out = log_map(SPHERE, NORTH, np.array([1.0, 0.0, 0.0]))
        assert np.max(np.abs(out.vector - [np.pi / 2, 0.0, 0.0])) < 1e-12

    def test_same_point(self):
        p = SPHERE.random_point(np.random.default_rng(8))
        assert np.max(np.abs(log_map(SPHERE, p, p).vector)) < 1e-12

    def test_flat_difference(self):
        flat = Flat(2)
        out = log_map(flat, np.array([1.0, 1.0]), np.array([4.0, -1.0]))
        assert np.array_equal(out.vector, [3.0, -2.0])

    def test_inverse_of_exp(self):
        rng = np.random.default_rng(9)
        for manifold in (SPHERE, TORUS, Flat(3)):
            for _ in range(10):
                p = manifold.random_point(rng)
                v = random_tangent(manifold, rng, p, 0.8)
                q = manifold.exp(p, v.vector)
                back = log_map(manifold, p, q)
                assert np.max(np.abs(back.vector - v.vector)) < 1e-10

    def test_antipodes_rejected(self):
        with pytest.raises(OutOfInjectivityDomain):
            log_map(SPHERE, NORTH, -NORTH)
        p = TORUS.random_point(np.random.default_rng(10))
        f1 = TORUS.tangent_frame(p)[..., 0]
        q = TORUS.exp(p, np.pi * f1)
        with pytest.raises(OutOfInjectivityDomain):
            log_map(TORUS, p, q)

    def test_nan_target_rejected(self):
        # a NaN angle must not compare as short of the cut locus
        with pytest.raises(OutOfInjectivityDomain):
            FlatTorus2().log(np.array([1.0, 0.0, 1.0, 0.0]),
                             np.array([np.nan, 0.0, 1.0, 0.0]))

    def test_shooting_agrees_with_closed_form(self):
        # independent route: iterate the integrated exponential
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = SPHERE.random_point(rng)
            v = random_tangent(SPHERE, rng, p)
            v = TangentAtPoint(SPHERE, p, v.vector / max(v.norm, 1e-9)
                               * rng.uniform(0.2, 1.4))
            q = great_circle_exp(p, v.vector)
            shot = log_by_shooting(SPHERE, p, q, steps=100)
            assert np.max(np.abs(shot.vector - v.vector)) < 1e-7

    def test_shooting_gives_up(self):
        with pytest.raises(ShootingFailed):
            log_by_shooting(SPHERE, NORTH, np.array([1.0, 0.0, 0.0]), max_iter=1)


class TestParallelTransport:
    def quarter_circle_path(self, steps=200):
        th = np.linspace(0, np.pi / 2, steps + 1)
        return np.stack([np.sin(th), np.zeros_like(th), np.cos(th)], axis=-1)

    def test_flat_transport_fixes_vectors(self):
        flat = Flat(3)
        path = np.linspace([0, 0, 0], [3.0, 1.0, -2.0], 50)
        v = TangentAtPoint(flat, path[0], np.array([1.0, 2.0, 3.0]))
        out = parallel_transport(flat, path, v)
        assert np.max(np.abs(out.vector - v.vector)) < 1e-12

    def test_normal_vector_is_fixed(self):
        path = self.quarter_circle_path()
        v = TangentAtPoint(SPHERE, path[0], np.array([0.0, 1.0, 0.0]))
        out = parallel_transport(SPHERE, path, v)
        assert np.max(np.abs(out.vector - [0.0, 1.0, 0.0])) < 1e-8

    def test_rotation_oracle(self):
        # transport along the xz great circle is rotation about the y axis
        path = self.quarter_circle_path()
        v = TangentAtPoint(SPHERE, path[0], np.array([1.0, 0.0, 0.0]))
        out = parallel_transport(SPHERE, path, v)
        expected = rotation_about_axis(np.array([0.0, 1.0, 0.0]), np.pi / 2) @ v.vector
        assert np.max(np.abs(out.vector - expected)) < 1e-8
        assert np.max(np.abs(out.vector - [0.0, 0.0, -1.0])) < 1e-8

    def test_isometry_of_pairs(self):
        rng = np.random.default_rng(12)
        p = NORTH
        traj, _ = integrate_geodesic(SPHERE, p, np.array([0.9, 0.4, 0.0]), 1.0, 200)
        v = random_tangent(SPHERE, rng, p)
        w = random_tangent(SPHERE, rng, p)
        pv = parallel_transport(SPHERE, traj, v)
        pw = parallel_transport(SPHERE, traj, w)
        assert abs(pv.vector @ pw.vector - v.vector @ w.vector) < 1e-8

    def test_closed_form_transport_matches_integrated(self):
        rng = np.random.default_rng(13)
        for manifold in (SPHERE, TORUS):
            p = manifold.random_point(rng)
            u = random_tangent(manifold, rng, p, 0.9)
            w = random_tangent(manifold, rng, p, 1.1)
            traj, _ = integrate_geodesic(manifold, p, u.vector, 1.0, 200)
            integrated = parallel_transport(manifold, traj, w)
            closed = manifold.geodesic_transport(p, u.vector, w.vector)
            assert np.max(np.abs(integrated.vector - closed)) < 1e-7

    def test_transport_reads_the_path_once_per_stage_time(self, monkeypatch):
        reads = []
        make_spline = manifolds._path_spline

        def counted(s_grid, points):
            at = make_spline(s_grid, points)

            def read(s):
                reads.append(s)
                return at(s)
            return read

        monkeypatch.setattr(manifolds, "_path_spline", counted)
        path = self.quarter_circle_path(20)
        s_grid = np.linspace(0.0, 1.0, 21)
        v = np.array([0.3, 1.0, 0.0])
        steps = 16
        out = manifolds.integrate_transport(SPHERE, s_grid, path, v, steps=steps)
        assert len(reads) == 2 * steps + 1

        # the same transport reading the path at every stage
        at = make_spline(s_grid, path)

        def rhs(s, vec):
            x, xdot = at(s)
            return SPHERE.projector_derivative(x, xdot, vec)

        def after_step(step, s, vec):
            return SPHERE.project_tangent_vector(at(s)[0], vec)

        assert np.array_equal(out, manifolds._rk4(rhs, v, 0.0, 1.0 / steps, steps,
                                                  after_step))

    def test_diverging_path_rejected(self):
        path = self.quarter_circle_path(20)
        path[7] *= 1.5  # push one node off the sphere
        v = TangentAtPoint(SPHERE, path[0], np.array([0.0, 1.0, 0.0]))
        with pytest.raises(IntegrationDiverged):
            parallel_transport(SPHERE, path, v)


class TestIntegratorArguments:
    """Step counts below 1 are rejected before any integration, and a
    divergence names the step, the trial and the node of its worst
    residual."""

    @pytest.mark.parametrize("steps", [0, -3])
    def test_geodesic_rejects_steps_below_one(self, steps):
        with pytest.raises(ValueError, match="at least one integration step"):
            integrate_geodesic(SPHERE, NORTH, np.array([0.5, 0.0, 0.0]), steps=steps)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_transport_rejects_steps_below_one(self, steps):
        path = np.tile(NORTH, (5, 1))
        with pytest.raises(ValueError, match="at least one integration step"):
            integrate_transport(SPHERE, np.linspace(0.0, 1.0, 5), path,
                                np.array([0.0, 1.0, 0.0]), steps=steps)

    def test_geodesic_divergence_names_step_trial_and_node(self):
        p = np.broadcast_to(NORTH, (2, 8, 3))
        v = np.zeros((2, 8, 3))
        v[1, 5] = [3.0, 0.0, 0.0]
        with pytest.raises(IntegrationDiverged,
                           match=r"mid-flow at step 1/2, trial 1, node 5$"):
            integrate_geodesic(SPHERE, p, v, steps=2)

    def test_transport_divergence_names_step_trial_and_node(self):
        s_grid = np.linspace(0.0, 1.0, 5)
        path = np.broadcast_to(NORTH, (5, 2, 8, 3)).copy()
        angle = np.pi * s_grid  # four knots a quarter turn apart
        path[:, 1, 5] = np.stack([np.sin(angle), 0.0 * angle, np.cos(angle)], -1)
        with pytest.raises(IntegrationDiverged,
                           match=r"^path off manifold: .* at step 1/8, trial 1, node 5$"):
            integrate_transport(SPHERE, s_grid, path, np.zeros((2, 8, 3)))

    def test_a_single_loop_names_the_node_only(self):
        v = np.zeros((8, 3))
        v[6] = [3.0, 0.0, 0.0]
        with pytest.raises(IntegrationDiverged, match=r"at step 1/2, node 6$"):
            integrate_geodesic(SPHERE, np.broadcast_to(NORTH, (8, 3)), v, steps=2)


class TestIntegratorMemory:
    """On a (201, 3, 1024, 4) torus path, the size of three trials of the
    battery at N = 1024, each integrator holds one array of the path's size:
    the geodesic its preallocated trajectory, the transport the spline's
    knot slopes.  tracemalloc sees numpy's data buffers."""

    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def start(self):
        rng = np.random.default_rng(40)
        p = TORUS.from_angles(rng.uniform(0.0, 2 * np.pi, size=(3, 1024, 2)))
        v = 0.5 * TORUS.project_tangent_vector(p, rng.normal(size=p.shape))
        w = TORUS.project_tangent_vector(p, rng.normal(size=p.shape))
        return p, v, w

    def test_geodesic_peak_is_its_trajectory(self, start):
        p, v, _ = start
        (traj, _), peak = self.traced_peak(integrate_geodesic, TORUS, p, v, 1.0, 200)
        assert traj.shape == (201, 3, 1024, 4)
        assert peak <= 1.25 * traj.nbytes

    def test_transport_peak_above_its_path_is_one_path(self, start):
        p, v, w = start
        traj, _ = integrate_geodesic(TORUS, p, v, 1.0, 200)
        _, peak = self.traced_peak(integrate_transport, TORUS,
                                   np.linspace(0.0, 1.0, 201), traj, w)
        assert peak <= 1.25 * traj.nbytes


class TestIntegratorLayout:
    """The integrators hold their state component major; what they return
    is C-contiguous and row major, and a stack of trials integrates to the
    bits of its trials integrated one by one."""

    @pytest.mark.parametrize("manifold", [SPHERE, TORUS], ids=lambda m: m.kind)
    def test_stack_equals_its_trials_bit_for_bit(self, manifold):
        rng = np.random.default_rng(41)
        p = np.stack([manifold.random_loop(rng, 16).samples for _ in range(3)])
        v = 0.5 * manifold.project_tangent_vector(p, rng.normal(size=p.shape))
        w = manifold.project_tangent_vector(p, rng.normal(size=p.shape))
        s_grid = np.linspace(0.0, 1.0, 33)
        traj, u = integrate_geodesic(manifold, p, v, 1.0, 32)
        out = integrate_transport(manifold, s_grid, traj, w)
        assert all(a.flags.c_contiguous for a in (traj, u, out))
        for i in range(len(p)):
            traj_i, u_i = integrate_geodesic(manifold, p[i], v[i], 1.0, 32)
            assert np.array_equal(traj_i, traj[:, i]) and np.array_equal(u_i, u[i])
            assert np.array_equal(integrate_transport(manifold, s_grid, traj_i, w[i]), out[i])

    @pytest.mark.parametrize("manifold", [SPHERE, TORUS], ids=lambda m: m.kind)
    def test_a_point_broadcasts_against_a_stack_of_vectors(self, manifold):
        rng = np.random.default_rng(42)
        p = manifold.random_point(rng)
        v = 0.5 * manifold.project_tangent_vector(p, rng.normal(size=(4, p.size)))
        traj, u = integrate_geodesic(manifold, p, v, 1.0, 16)
        assert traj.shape == (17, 4, p.size) and u.shape == (4, p.size)
        assert traj.flags.c_contiguous and u.flags.c_contiguous
        whole, _ = integrate_geodesic(manifold, np.broadcast_to(p, v.shape), v, 1.0, 16)
        assert np.array_equal(traj, whole)
        out = integrate_transport(manifold, np.linspace(0.0, 1.0, 17), traj[:, 0], v)
        assert out.shape == v.shape and out.flags.c_contiguous


class TestPathSpline:
    """The in-repo not-a-knot path spline against scipy's ``CubicSpline``,
    whose default end condition is not-a-knot, on random batched data."""

    @pytest.mark.parametrize("grid", ["uniform", "graded"])
    @pytest.mark.parametrize("n", [4, 5, 17, 129, 201])
    def test_matches_scipy_cubic_spline(self, n, grid):
        rng = np.random.default_rng(n)
        if grid == "uniform":
            s_grid = np.linspace(0.0, 1.0, n)
        else:  # unequal spacings tell the lower diagonal from the upper one
            s_grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
        points = rng.standard_normal((n, 5, 64, 4))
        s0, s1 = s_grid[0], s_grid[-1]
        # one ulp past s1 is where RK4's `t += h` can land; both extrapolate
        s = np.concatenate([rng.uniform(s0, s1, 20), [s0, s1, np.nextafter(s1, np.inf)]])
        at = manifolds._path_spline(s_grid, points)
        fits = [at(si) for si in s]  # (value, slope) pairs
        oracle = CubicSpline(s_grid, points, axis=0)
        for part, ref, tol in ((0, oracle, 1e-13), (1, oracle.derivative(), 1e-10)):
            assert np.max(np.abs(np.stack([fit[part] for fit in fits]) - ref(s))) <= tol

    @staticmethod
    def whole_array_spline(x, y):
        """The same sweep on whole (T, ...) arrays of interval slopes and
        coefficients: the reference for the row-by-row spline's bits."""
        n, dx = len(x), np.diff(x)
        dxr = dx.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dxr
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        lower = np.concatenate(([0.0], dx[1:], [d1]))
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([d0], dx[:-1], [0.0]))
        m = np.empty_like(y)
        m[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
        m[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
        m[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
        for i in range(1, n):
            w = lower[i] / diag[i - 1]
            diag[i] -= w * upper[i - 1]
            m[i] -= w * m[i - 1]
        m[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            m[i] = (m[i] - upper[i] * m[i + 1]) / diag[i]
        t = (m[:-1] + m[1:] - 2 * slope) / dxr
        a, b, c, d = t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1]

        def at(s):
            i = min(max(np.searchsorted(x, s, "right") - 1, 0), n - 2)
            z = s - x[i]
            return (((a[i] * z + b[i]) * z + c[i]) * z + d[i],
                    (3 * a[i] * z + 2 * b[i]) * z + c[i])

        return at

    @pytest.mark.parametrize("n", [4, 5, 17, 201])
    def test_matches_the_whole_array_formulas_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        s_grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n - 1))])
        points = rng.standard_normal((n, 3, 16, 4))
        at = manifolds._path_spline(s_grid, points)
        ref = self.whole_array_spline(s_grid, points)
        times = np.concatenate([rng.uniform(-0.5, s_grid[-1] + 0.5, 40), s_grid])
        for s in np.concatenate([times, times[::-1]]):  # enter intervals both ways
            for got, want in zip(at(s), ref(s)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_short_grids_rejected(self, n):
        with pytest.raises(ValueError, match="at least 4 samples"):
            manifolds._path_spline(np.linspace(0.0, 1.0, n), np.zeros((n, 3)))
        path = np.stack([np.zeros(n), np.zeros(n), np.ones(n)], axis=-1)
        with pytest.raises(ValueError, match="at least 4 samples"):
            parallel_transport(SPHERE, path, TangentAtPoint(SPHERE, path[0], [1.0, 0.0, 0.0]))


class TestTorusAngleOracle:
    """The torus closed forms against angle arithmetic on each circle:
    exp adds angles, log and dist take wrapped angle differences, and
    transport keeps the coordinates in the rotating frame."""

    @staticmethod
    def point(angles):
        return np.stack([np.cos(angles[..., 0]), np.sin(angles[..., 0]),
                         np.cos(angles[..., 1]), np.sin(angles[..., 1])], axis=-1)

    @staticmethod
    def tangent(angles, coords):
        """coords[..., i] times the unit tangent (-sin, cos) of circle i."""
        return np.stack([-coords[..., 0] * np.sin(angles[..., 0]),
                         coords[..., 0] * np.cos(angles[..., 0]),
                         -coords[..., 1] * np.sin(angles[..., 1]),
                         coords[..., 1] * np.cos(angles[..., 1])], axis=-1)

    @staticmethod
    def wrap(d):
        return (d + np.pi) % (2 * np.pi) - np.pi

    def test_closed_forms_match_angle_arithmetic(self):
        rng = np.random.default_rng(20)
        a = rng.uniform(0, 2 * np.pi, size=(50, 2))
        t = rng.uniform(-2.0, 2.0, size=(50, 2))
        c = rng.normal(size=(50, 2))
        b = a + rng.uniform(-3.0, 3.0, size=(50, 2)) + 2 * np.pi * rng.integers(-1, 2, (50, 2))
        p, q = self.point(a), self.point(b)
        v, w = self.tangent(a, t), self.tangent(a, c)
        d = self.wrap(b - a)
        assert np.max(np.abs(TORUS.exp(p, v) - self.point(a + t))) < 1e-12
        assert np.max(np.abs(TORUS.log(p, q) - self.tangent(a, d))) < 1e-12
        assert np.max(np.abs(TORUS.dist(p, q) - np.hypot(d[:, 0], d[:, 1]))) < 1e-12
        assert np.max(np.abs(TORUS.geodesic_transport(p, v, w)
                             - self.tangent(a + t, c))) < 1e-12


def reduction_maps(factors):
    """The RoundSpheres maps as written with numpy reductions over the
    per-factor axes, before those sums were unrolled: the bitwise oracle."""
    def view(x):
        x = np.asarray(x, dtype=np.float64)
        return x.reshape(x.shape[:-1] + (factors, -1))

    def unview(x):
        return x.reshape(x.shape[:-2] + (-1,))

    def dot(a, b):
        return np.sum(a * b, axis=-1, keepdims=True)

    def norm(x):
        return np.linalg.norm(x, axis=-1, keepdims=True)

    def chord(p, q):
        c = np.clip(dot(p, q), -1.0, 1.0)
        w = q - c * p
        nw = norm(w)
        return w, nw, np.arctan2(nw, c)

    def log(p, q):
        w, nw, theta = chord(view(p), view(q))
        scale = np.where(nw > 1e-300, theta / np.where(nw > 1e-300, nw, 1.0), 1.0)
        return unview(scale * w)

    def geodesic_transport(p, v, w):
        p, v, w = view(p), view(v), view(w)
        theta = norm(v)
        safe = np.where(theta > 1e-300, theta, 1.0)
        u = np.where(theta > 1e-300, v / safe, 0.0 * v)
        a = dot(w, u)
        return unview(w + a * (-np.sin(theta) * p + (np.cos(theta) - 1.0) * u))

    def exp(p, v):
        p, v = view(p), view(v)
        theta = norm(v)
        return unview(np.cos(theta) * p + np.sinc(theta / np.pi) * v)

    return {
        "constraint_residual": lambda x: np.max(
            np.abs(np.linalg.norm(view(x), axis=-1) - 1.0), axis=-1),
        "project_tangent_vector": lambda p, w: unview(
            view(w) - view(p) * dot(view(p), view(w))),
        "projector_derivative": lambda p, w, v: unview(
            -(view(w) * dot(view(p), view(v)) + view(p) * dot(view(w), view(v)))),
        "project_point": lambda x: unview(view(x) / norm(view(x))),
        "geodesic_acceleration": lambda p, v: unview(-dot(view(v), view(v)) * view(p)),
        "exp": exp,
        "log": log,
        "geodesic_transport": geodesic_transport,
        "dist": lambda p, q: np.linalg.norm(chord(view(p), view(q))[2][..., 0], axis=-1),
    }


MAP_ARGS = {
    "constraint_residual": "x", "project_tangent_vector": "pw",
    "projector_derivative": "pwv", "project_point": "x",
    "geodesic_acceleration": "pv", "exp": "pv", "log": "pq",
    "geodesic_transport": "pvw", "dist": "pq",
}


def extreme_values(rng, shape):
    """Order-one values, with magnitudes 1e-200 .. 1e200, signed zeros,
    NaN and infinities mixed in."""
    x = rng.uniform(-1.0, 1.0, size=shape)
    big = rng.random(shape) < 0.3
    x[big] *= 10.0 ** rng.integers(-200, 201, size=int(big.sum()))
    special = rng.random(shape) < 0.1
    x[special] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf], size=int(special.sum()))
    return x


def same_bits(got, want) -> bool:
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def component_major(x):
    """The (factors, m, ...) view of an array whose last two axes are
    (factors, m); a 1-D array is one factor."""
    x = x.reshape((1,) * (2 - x.ndim) + x.shape)
    return np.moveaxis(x, (-2, -1), (0, 1))


class TestUnrolledSums:
    """RoundSpheres sums each factor component by component, on the
    component-major layout; every result must carry the bits of the numpy
    reduction it replaced, taken on the row-major last axis."""

    @pytest.mark.parametrize("shape", [(3,), (128, 1, 3), (201, 1024, 1, 3), (1024, 2, 2)])
    def test_dot_and_norm_match_numpy_reductions(self, shape):
        rng = np.random.default_rng(sum(shape))
        a, b = extreme_values(rng, shape), extreme_values(rng, shape)
        lead_a, lead_b = component_major(a), component_major(b)
        with np.errstate(all="ignore"):
            assert same_bits(RoundSpheres._dot(lead_a, lead_b),
                             component_major(np.sum(a * b, axis=-1, keepdims=True)))
            assert same_bits(RoundSpheres._norm(lead_a),
                             component_major(np.linalg.norm(a, axis=-1, keepdims=True)))

    def test_all_negative_zero_products_sum_to_positive_zero(self):
        # a zero vector against negative coordinates: every product is -0.0,
        # and np.sum starts from +0.0 where a bare p0 + p1 + p2 keeps -0.0
        p = np.array([-0.6, -0.0, -0.8])
        zero = np.zeros(3)
        products = p * zero
        assert np.signbit(products[0] + products[1] + products[2])
        got = RoundSpheres._dot(component_major(p), component_major(zero))
        assert same_bits(got, component_major(np.sum(products, axis=-1, keepdims=True)))
        assert not np.signbit(got[0, 0])

    @staticmethod
    def inputs(manifold, rng, batch):
        """Points (a third with every coordinate negative), tangent vectors
        (some +0.0, some -0.0), ambient vectors, targets and off-manifold
        points, all of shape batch + (k,)."""
        k = manifold.ambient_dim
        if manifold.factors == 1:
            p = rng.normal(size=batch + (k,))
            p /= np.linalg.norm(p, axis=-1, keepdims=True)
            negative = rng.random(batch) < 1 / 3
            p = np.where(negative[..., None], -np.abs(p), p)
        else:
            turn = np.where(rng.random(batch + (2,)) < 1 / 3, np.pi, 0.0)
            p = manifold.from_angles(rng.uniform(0.0, np.pi / 2, batch + (2,)) + turn)
        v = manifold.project_tangent_vector(p, rng.normal(size=batch + (k,)))
        zero = rng.choice([1.0, 0.0, -0.0], size=batch + (1,), p=[0.6, 0.2, 0.2])
        v = np.where(zero == 1.0, v, zero * np.abs(v))
        w = rng.normal(size=batch + (k,)) * rng.choice([1.0, 0.0, -0.0], size=batch + (1,))
        q = manifold.exp(p, 0.7 * manifold.project_tangent_vector(p, rng.normal(size=batch + (k,))))
        x = p * rng.uniform(0.5, 2.0, size=batch + (1,))
        return {"p": p, "v": v, "w": w, "q": q, "x": x}

    @pytest.mark.parametrize("batch", [(), (128,), (5, 64)])
    def test_maps_match_reduction_formulas(self, batch):
        for manifold in (SPHERE, TORUS):
            oracle = reduction_maps(manifold.factors)
            args = self.inputs(manifold, np.random.default_rng(len(batch) + 30), batch)
            for name, names in MAP_ARGS.items():
                values = [args[c] for c in names]
                got = getattr(manifold, name)(*values)
                assert same_bits(got, oracle[name](*values)), (manifold.kind, name)


class TestLocalAddition:
    def test_zero_section_identity(self):
        rng = np.random.default_rng(14)
        for manifold in (Flat(2), SPHERE, TORUS):
            spec = LocalAdditionSpec(manifold)
            p = manifold.random_point(rng)
            v = TangentAtPoint(manifold, p, np.zeros(manifold.ambient_dim))
            assert np.max(np.abs(spec.forward(v.base, v.vector) - p)) == 0.0

    def test_flat_line_compression_value(self):
        flat = Flat(1)
        spec = LocalAdditionSpec(flat, 1.0)
        v = TangentAtPoint(flat, np.zeros(1), np.ones(1))
        out = spec.forward(v.base, v.vector)
        assert abs(out[0] - 0.70710678) < 1e-8
        assert abs(out[0] - 1 / np.sqrt(2)) < 1e-12

    def test_roundtrip_large_vectors(self):
        rng = np.random.default_rng(15)
        for manifold in (Flat(3), SPHERE):
            spec = LocalAdditionSpec(manifold)
            for _ in range(50):
                p = manifold.random_point(rng)
                v = random_tangent(manifold, rng, p)
                v = TangentAtPoint(manifold, p,
                                   v.vector / max(v.norm, 1e-9) * rng.uniform(0, 10))
                q = spec.forward(p, v.vector)
                back = spec.inverse(p, q)
                assert np.max(np.abs(back - v.vector)) < 1e-7

    def test_compressed_radius_bound(self):
        spec = LocalAdditionSpec(SPHERE)
        rng = np.random.default_rng(16)
        for _ in range(20):
            v = rng.normal(size=3) * rng.uniform(0, 100)
            assert np.linalg.norm(spec.compress(v)) < spec.epsilon

    def test_injective_per_fiber(self):
        rng = np.random.default_rng(17)
        for manifold in (Flat(2), SPHERE):
            spec = LocalAdditionSpec(manifold)
            p = manifold.random_point(rng)
            for _ in range(1000):
                v = random_tangent(manifold, rng, p, 2.0).vector
                w = random_tangent(manifold, rng, p, 2.0).vector
                if np.linalg.norm(v - w) < 1e-3:
                    continue
                dq = np.linalg.norm(spec.forward(p, v) - spec.forward(p, w))
                assert dq >= 1e-6

    @pytest.mark.parametrize("manifold", [SPHERE, TORUS])
    def test_epsilon_beyond_injectivity_radius_rejected(self, manifold):
        # with eps = 4 the inverse of forward(p, 50 e1) at the north pole
        # of S^2 would return -0.6955 e1
        assert manifold.injectivity_radius == np.pi
        LocalAdditionSpec(manifold, np.pi)
        with pytest.raises(ValueError, match="injectivity radius"):
            LocalAdditionSpec(manifold, 4.0)
        with pytest.raises(ValueError, match="injectivity radius"):
            LocalAdditionSpec(manifold, np.nan)

    def test_flat_epsilon_is_unbounded(self):
        assert Flat(2).injectivity_radius == np.inf
        assert LocalAdditionSpec(Flat(2), 1e6).epsilon == 1e6

    def test_out_of_reach_rejected(self):
        spec = LocalAdditionSpec(SPHERE)
        with pytest.raises(OutOfV):
            spec.inverse(NORTH, np.array([0.0, 0.0, -1.0]))

    def test_nan_target_rejected(self):
        # NaN distances and radii must not compare as within reach
        spec = LocalAdditionSpec(SPHERE)
        with pytest.raises(OutOfV):
            spec.inverse(NORTH, np.array([np.nan, 0.0, 1.0]))
        with pytest.raises(OutOfV):
            spec.decompress(np.array([np.nan, 0.0, 0.0]))


class TestTubularProjection:
    def test_sphere_radial(self):
        out = SPHERE.project_point(np.array([0.0, 0.0, 2.0]))
        assert np.max(np.abs(out - NORTH)) < 1e-14

    def test_already_on_manifold(self):
        p = SPHERE.random_point(np.random.default_rng(18))
        assert np.max(np.abs(SPHERE.project_point(p) - p)) < 1e-14

    def test_flat_identity(self):
        x = np.array([3.0, -1.0])
        assert np.array_equal(Flat(2).project_point(x), x)

    def test_residual_is_orthogonal(self):
        rng = np.random.default_rng(19)
        for manifold in (SPHERE, TORUS):
            p = manifold.random_point(rng)
            x = p + 0.3 * rng.normal(size=manifold.ambient_dim)
            q = manifold.project_point(x)
            residual = x - q
            assert np.max(np.abs(manifold.project_tangent_vector(q, residual))) < 1e-8

    def test_outside_tube_rejected(self):
        with pytest.raises(OutsideTube):
            SPHERE.project_point(np.array([0.0, 0.0, 0.05]))
        with pytest.raises(OutsideTube):
            TORUS.project_point(np.zeros(4))

    def test_nan_point_rejected(self):
        # a NaN radius must not compare as above the projection floor
        with pytest.raises(OutsideTube):
            Sphere2().project_point(np.array([np.nan, 0.0, 0.0]))


class TestRandomLoops:
    """A random loop is its generator draw, then an array build that takes
    a stack of draws."""

    @staticmethod
    def reference(manifold, rng, n, wobble, bandwidth):
        """Each kind's loop written out trial by trial."""
        if manifold.kind == "sphere2":
            center = rng.normal(size=3)
            center = center / np.linalg.norm(center)
            noise = random_bandlimited_loop(rng, 3, n, bandwidth, wobble).samples
            spread = float(np.max(np.linalg.norm(noise, axis=1)))
            clamp = min(1.0, 0.55 / max(spread, 1e-12))
            return manifold.project_point(center + clamp * noise)
        if manifold.kind == "torus2":
            base = rng.uniform(0, 2 * np.pi, size=2)
            noise = random_bandlimited_loop(rng, 2, n, bandwidth, wobble).samples
            return manifold.from_angles(base + noise)
        return random_bandlimited_loop(rng, manifold.ambient_dim, n, bandwidth).samples

    @pytest.mark.parametrize("tag", ["sphere2", "torus2", "flat:3"])
    @pytest.mark.parametrize("n, wobble, bandwidth", [(64, 0.4, 3), (16, 0.25, 2),
                                                      (128, 3.0, 3)])
    def test_stacked_draws_build_the_single_loops(self, tag, n, wobble, bandwidth):
        manifold = manifold_from_tag(tag)
        rng = np.random.default_rng(43)
        singles = [manifold.random_loop(rng, n, wobble, bandwidth) for _ in range(5)]
        after = rng.normal()
        rng = np.random.default_rng(43)
        draws = [manifold.loop_draw(rng, bandwidth) for _ in range(5)]
        assert rng.normal() == after
        stack = manifold.loop_from_draw(tuple(map(np.stack, zip(*draws))), n, wobble)
        assert np.array_equal(stack.samples, np.stack([a.samples for a in singles]))
        rng = np.random.default_rng(43)
        for loop in singles:
            assert np.array_equal(loop.samples,
                                  self.reference(manifold, rng, n, wobble, bandwidth))

    def test_flat_ignores_wobble(self):
        draw = Flat(3).loop_draw(np.random.default_rng(44))
        assert np.array_equal(Flat(3).loop_from_draw(draw, 32, 0.1).samples,
                              Flat(3).loop_from_draw(draw, 32, 5.0).samples)


class TestTags:
    def test_round_trip_tags(self):
        for tag in ("flat:5", "sphere2", "torus2"):
            assert manifold_from_tag(tag).kind == tag

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            manifold_from_tag("hyperbolic3")
