"""Charts on the loop space: forward/inverse, transitions, looped maps,
and the vertical-derivative law."""

import numpy as np
import pytest

from loopspace_lab.charts import (
    Chart,
    TangentSection,
    chart_forward,
    chart_from_dict,
    chart_inverse,
    chart_membership,
    chart_to_dict,
    loop_map,
    random_section,
    section_from_ambient,
    section_from_dict,
    section_to_dict,
    transition,
    vertical_derivative,
    zero_section,
)
from loopspace_lab.errors import BaseMismatch, NotInChartDomain, NotInOverlap
from loopspace_lab.loops import SampledLoop, evaluate, random_bandlimited_loop
from loopspace_lab.manifolds import Flat, FlatTorus2, LocalAdditionSpec, Sphere2

SPHERE = Sphere2()
NORTH = np.array([0.0, 0.0, 1.0])


def unit_circle_loop(n=128):
    t = np.arange(n) / n
    return SampledLoop(np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
                                 np.zeros(n)], axis=-1))


def sphere_chart(center_loop):
    return Chart(center_loop, LocalAdditionSpec(SPHERE))


class TestChartForward:
    def test_zero_section_maps_to_center(self):
        center = unit_circle_loop()
        chart = sphere_chart(center)
        out = chart_forward(chart, zero_section(SPHERE, center))
        assert np.array_equal(out.samples, center.samples)

    def test_flat_pointwise_compression(self):
        flat = Flat(2)
        alpha = random_bandlimited_loop(np.random.default_rng(0), 2, 64)
        chart = Chart(alpha, LocalAdditionSpec(flat, 1.0))
        beta = random_section(np.random.default_rng(1), flat, alpha, scale=1.0)
        out = chart_forward(chart, beta)
        r2 = np.sum(beta.vectors ** 2, axis=1, keepdims=True)
        expected = alpha.samples + beta.vectors / np.sqrt(1 + r2)
        assert np.max(np.abs(out.samples - expected)) < 1e-14

    def test_constant_center_constant_section(self):
        center = SampledLoop.constant(NORTH, 64)
        chart = sphere_chart(center)
        v = np.array([0.4, -0.2, 0.0])
        beta = TangentSection(SPHERE, center, np.tile(v, (64, 1)))
        out = chart_forward(chart, beta)
        spec = chart.addition
        expected = SPHERE.exp(NORTH, spec.compress(v))
        assert np.max(np.abs(out.samples - expected)) < 1e-13

    def test_result_on_manifold(self):
        center = unit_circle_loop()
        chart = sphere_chart(center)
        beta = random_section(np.random.default_rng(2), SPHERE, center, scale=3.0)
        out = chart_forward(chart, beta)
        assert np.max(SPHERE.constraint_residual(out.samples)) < 1e-12

    def test_wrong_base_rejected(self):
        center = unit_circle_loop()
        other = SampledLoop.constant(NORTH, 128)
        chart = sphere_chart(center)
        beta = zero_section(SPHERE, other)
        with pytest.raises(BaseMismatch):
            chart_forward(chart, beta)

    def test_wrong_resolution_rejected(self):
        chart = sphere_chart(unit_circle_loop(64))
        beta = zero_section(SPHERE, unit_circle_loop(128))
        with pytest.raises(BaseMismatch):
            chart_forward(chart, beta)


class TestMembership:
    def test_center_is_member(self):
        center = unit_circle_loop()
        assert chart_membership(sphere_chart(center), center)

    def test_antipodal_constant_loops(self):
        chart = sphere_chart(SampledLoop.constant(NORTH, 64))
        south = SampledLoop.constant(-NORTH, 64)
        assert not chart_membership(chart, south)

    def test_flat_beyond_compression_range(self):
        flat = Flat(2)
        alpha = SampledLoop.constant(np.zeros(2), 64)
        chart = Chart(alpha, LocalAdditionSpec(flat, 1.0))
        far = SampledLoop.constant(np.array([5.0, 0.0]), 64)
        assert not chart_membership(chart, far)
        with pytest.raises(NotInChartDomain):
            chart_inverse(chart, far)


class TestChartInverse:
    def test_center_inverts_to_zero(self):
        center = unit_circle_loop()
        chart = sphere_chart(center)
        out = chart_inverse(chart, center)
        assert np.max(np.abs(out.vectors)) < 1e-12

    def test_flat_decompression(self):
        flat = Flat(2)
        alpha = SampledLoop.constant(np.zeros(2), 64)
        chart = Chart(alpha, LocalAdditionSpec(flat, 1.0))
        gamma = SampledLoop.constant(np.array([0.5, 0.0]), 64)
        out = chart_inverse(chart, gamma)
        expected = 0.5 / np.sqrt(1 - 0.25)
        assert np.max(np.abs(out.vectors[:, 0] - expected)) < 1e-13

    def test_roundtrip_random_sections(self):
        rng = np.random.default_rng(3)
        center = unit_circle_loop()
        chart = sphere_chart(center)
        worst = 0.0
        for _ in range(100):
            beta = random_section(rng, SPHERE, center, scale=rng.uniform(0.2, 2.0))
            out = chart_inverse(chart, chart_forward(chart, beta))
            worst = max(worst, float(np.max(np.abs(out.vectors - beta.vectors))))
        assert worst < 1e-7


class TestTransition:
    def make_charts(self, rng):
        center1 = unit_circle_loop()
        shift = random_section(rng, SPHERE, center1, scale=0.05)
        center2 = SampledLoop(SPHERE.exp(center1.samples, shift.vectors))
        chart1 = Chart(center1, LocalAdditionSpec(SPHERE, np.pi / 2))
        chart2 = Chart(center2, LocalAdditionSpec(SPHERE, np.pi / 3))
        return chart1, chart2

    def test_same_chart_is_identity(self):
        chart1, _ = self.make_charts(np.random.default_rng(4))
        beta = random_section(np.random.default_rng(5), SPHERE, chart1.center,
                              scale=0.3)
        out = transition(chart1, chart1, beta)
        assert np.max(np.abs(out.vectors - beta.vectors)) < 1e-9

    def test_inverse_composition(self):
        rng = np.random.default_rng(6)
        chart1, chart2 = self.make_charts(rng)
        beta = random_section(rng, SPHERE, chart1.center, scale=0.15)
        out = transition(chart2, chart1, transition(chart1, chart2, beta))
        assert np.max(np.abs(out.vectors - beta.vectors)) < 1e-7

    def test_flat_two_compressions_closed_form(self):
        flat = Flat(1)
        alpha = SampledLoop.constant(np.zeros(1), 64)
        chart1 = Chart(alpha, LocalAdditionSpec(flat, 1.0))
        chart2 = Chart(alpha, LocalAdditionSpec(flat, 2.0))
        v = 0.8
        beta = TangentSection(flat, alpha, np.full((64, 1), v))
        out = transition(chart1, chart2, beta)
        w = v / np.sqrt(1 + v * v)  # eta_1 lands at distance w from 0
        expected = w / (2.0 * np.sqrt(1 - (w / 2.0) ** 2))
        assert np.max(np.abs(out.vectors - expected)) < 1e-13

    def test_out_of_overlap_rejected(self):
        flat = Flat(1)
        alpha = SampledLoop.constant(np.zeros(1), 64)
        beta_center = SampledLoop.constant(np.array([5.0]), 64)
        chart1 = Chart(alpha, LocalAdditionSpec(flat, 10.0))
        chart2 = Chart(beta_center, LocalAdditionSpec(flat, 1.0))
        big = TangentSection(flat, alpha, np.full((64, 1), 0.4))
        with pytest.raises(NotInOverlap):
            transition(chart1, chart2, big)

    def test_cocycle(self):
        rng = np.random.default_rng(7)
        center1 = unit_circle_loop()
        charts_list = [Chart(center1, LocalAdditionSpec(SPHERE))]
        for _ in range(2):
            shift = random_section(rng, SPHERE, center1, scale=0.08)
            center = SampledLoop(SPHERE.exp(center1.samples, shift.vectors))
            charts_list.append(Chart(center, LocalAdditionSpec(SPHERE)))
        c1, c2, c3 = charts_list
        beta = random_section(rng, SPHERE, center1, scale=0.1)
        via2 = transition(c2, c3, transition(c1, c2, beta))
        direct = transition(c1, c3, beta)
        assert np.max(np.abs(via2.vectors - direct.vectors)) < 1e-6


class TestLoopMap:
    def test_identity(self):
        gamma = unit_circle_loop()
        out = loop_map(lambda pts: pts, gamma)
        assert np.array_equal(out.samples, gamma.samples)

    def test_constant_embedding_then_evaluation(self):
        x = np.array([0.3, -0.4, 0.5])
        iota = SampledLoop.constant(x, 64)
        for t in (0.0, 0.37, 0.99):
            assert np.max(np.abs(evaluate(iota, t) - x)) < 1e-12

    def test_antipodal_map(self):
        gamma = unit_circle_loop()
        out = loop_map(lambda pts: -pts, gamma)
        assert np.array_equal(out.samples, -gamma.samples)

    def test_non_vectorized_evaluator(self):
        gamma = unit_circle_loop(16)
        out = loop_map(lambda p: p * 2.0, gamma)
        assert np.max(np.abs(out.samples - 2 * gamma.samples)) < 1e-14


class TestVerticalDerivative:
    def test_linear_map_reproduced(self):
        flat = Flat(2)
        alpha = random_bandlimited_loop(np.random.default_rng(8), 2, 64)
        beta = random_section(np.random.default_rng(9), flat, alpha)
        A = np.array([[1.0, 2.0], [0.0, -1.0]])
        out = vertical_derivative(lambda t, v: v @ A.T, alpha, beta)
        assert np.max(np.abs(out.vectors - beta.vectors @ A.T)) < 1e-9

    def test_quadratic_scalar_fiber(self):
        flat = Flat(1)
        alpha = random_bandlimited_loop(np.random.default_rng(10), 1, 64)
        beta = random_section(np.random.default_rng(11), flat, alpha)
        out = vertical_derivative(lambda t, v: v + v ** 2, alpha, beta)
        expected = beta.vectors + 2 * alpha.samples * beta.vectors
        assert np.max(np.abs(out.vectors - expected)) < 1e-6

    def test_scalar_loop_linearity(self):
        flat = Flat(2)
        alpha = random_bandlimited_loop(np.random.default_rng(12), 2, 64)
        beta = random_section(np.random.default_rng(13), flat, alpha)
        psi = lambda t, v: np.sin(v) + v * np.exp(-v ** 2)
        nu = 0.6 + 0.3 * np.cos(2 * np.pi * alpha.nodes)
        lhs = vertical_derivative(psi, alpha, beta.scaled(nu))
        rhs = vertical_derivative(psi, alpha, beta).scaled(nu)
        assert np.max(np.abs(lhs.vectors - rhs.vectors)) < 1e-6

    def test_richardson_tightens_quadratic_error(self):
        flat = Flat(1)
        alpha = SampledLoop.constant(np.array([0.3]), 16)
        beta = TangentSection(flat, alpha, np.ones((16, 1)))
        psi = lambda t, v: np.exp(v)
        plain = vertical_derivative(psi, alpha, beta, h=1e-3)
        refined = vertical_derivative(psi, alpha, beta, h=1e-3, richardson=True)
        exact = np.exp(0.3)
        assert abs(refined.vectors[0, 0] - exact) < abs(plain.vectors[0, 0] - exact)


class TestConstantLoopEmbedding:
    def test_chart_restricts_to_manifold_chart(self):
        # on constant loops the chart map is the fiberwise local addition
        center = SampledLoop.constant(NORTH, 64)
        chart = sphere_chart(center)
        rng = np.random.default_rng(14)
        for _ in range(10):
            v = SPHERE.project_tangent_vector(NORTH, rng.normal(size=3))
            beta = TangentSection(SPHERE, center, np.tile(v, (64, 1)))
            image = chart_forward(chart, beta)
            pointwise = chart.addition.forward(NORTH, v)
            assert np.max(np.abs(image.samples - pointwise)) < 1e-8
            assert np.max(np.abs(image.samples - image.samples[0])) < 1e-12


class TestSectionArithmetic:
    def test_projection_constructor(self):
        center = unit_circle_loop()
        w = np.random.default_rng(15).normal(size=(128, 3))
        sec = section_from_ambient(SPHERE, center, w)
        res = SPHERE.project_tangent_vector(center.samples, sec.vectors) - sec.vectors
        assert np.max(np.abs(res)) < 1e-12

    def test_non_tangent_rejected(self):
        center = SampledLoop.constant(NORTH, 64)
        with pytest.raises(ValueError):
            TangentSection(SPHERE, center, np.tile(NORTH, (64, 1)))

    def test_base_mismatch_rejected(self):
        flat = Flat(2)
        a = SampledLoop.constant(np.zeros(2), 64)
        b = SampledLoop.constant(np.ones(2), 64)
        with pytest.raises(BaseMismatch):
            zero_section(flat, a) + zero_section(flat, b)


class TestSerialization:
    def test_chart_round_trip(self):
        chart = sphere_chart(unit_circle_loop(32))
        data = chart_to_dict(chart)
        again = chart_from_dict(data)
        assert np.array_equal(again.center.samples, chart.center.samples)
        assert again.addition.epsilon == chart.addition.epsilon
        assert isinstance(again.manifold, Sphere2)

    def test_section_round_trip(self):
        torus = FlatTorus2()
        rng = np.random.default_rng(16)
        t = np.arange(32) / 32
        base = SampledLoop(np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t),
                                     np.ones(32), np.zeros(32)], axis=-1))
        sec = random_section(rng, torus, base)
        data = section_to_dict(sec)
        again = section_from_dict(data)
        assert np.array_equal(again.vectors, sec.vectors)
        assert np.array_equal(again.base.samples, sec.base.samples)
