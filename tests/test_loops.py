"""Sampled loops: interpolation, spectral calculus, circle action, files."""

import json

import numpy as np
import pytest

from loopspace_lab.geometry import exp_nonsurjectivity_witness
from loopspace_lab.loops import (
    FourierRep,
    SampledLoop,
    _fourier_table,
    _split_spectrum,
    ck_seminorm,
    derivative,
    evaluate,
    load_loop,
    loop_from_dict,
    loop_to_csv,
    loop_to_dict,
    noise_draw,
    noise_loop,
    noise_samples,
    random_bandlimited_loop,
    rotate,
    save_loop,
    to_fourier,
    to_samples,
)
from loopspace_lab.manifolds import Sphere2
from loopspace_lab.polarization import fourier_split


def circle_loop(n=64):
    t = np.arange(n) / n
    return SampledLoop(np.stack([np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], axis=-1))


class TestEvaluate:
    def test_constant_loop(self):
        loop = SampledLoop.constant([2.0, 0.0], 16)
        assert np.allclose(evaluate(loop, 0.37), [2.0, 0.0], atol=1e-13)

    def test_circle_closed_form(self):
        # degree-1 trig signals are reproduced exactly by the interpolant
        loop = circle_loop(64)
        val = evaluate(loop, 1 / 8)
        assert np.max(np.abs(val - np.sqrt(2) / 2)) < 1e-12

    def test_periodicity(self):
        loop = random_bandlimited_loop(np.random.default_rng(0), 3, 32)
        for t in np.random.default_rng(1).uniform(0, 1, 10):
            assert np.allclose(evaluate(loop, t), evaluate(loop, t + 1.0), atol=1e-12)

    def test_exact_at_nodes(self):
        loop = random_bandlimited_loop(np.random.default_rng(2), 2, 64)
        vals = evaluate(loop, loop.nodes)
        assert np.max(np.abs(vals - loop.samples)) < 1e-12

    def test_interpolation_exact_below_quarter_band(self):
        # loops with support in |k| <= N/4 match their closed form anywhere
        rng = np.random.default_rng(3)
        n = 64
        coeffs = {k: rng.normal(size=2) for k in range(n // 4 + 1)}
        sines = {k: rng.normal(size=2) for k in range(1, n // 4 + 1)}

        def closed_form(t):
            out = np.zeros(2)
            for k, a in coeffs.items():
                out = out + a * np.cos(2 * np.pi * k * t)
            for k, b in sines.items():
                out = out + b * np.sin(2 * np.pi * k * t)
            return out

        loop = SampledLoop(np.stack([closed_form(tt) for tt in np.arange(n) / n]))
        for t in rng.uniform(0, 1, 20):
            assert np.max(np.abs(evaluate(loop, t) - closed_form(t))) < 1e-10


class TestDerivative:
    def test_constant_is_flat(self):
        loop = SampledLoop.constant([1.0, -2.0, 3.0], 16)
        assert np.max(np.abs(derivative(loop).samples)) < 1e-12

    def test_circle_first_derivative(self):
        loop = circle_loop(64)
        d = derivative(loop, 1)
        assert np.max(np.abs(d.samples[0] - [0.0, 2 * np.pi])) < 1e-10

    def test_circle_second_derivative(self):
        loop = circle_loop(64)
        d2 = derivative(loop, 2)
        assert np.max(np.abs(d2.samples + (2 * np.pi) ** 2 * loop.samples)) < 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        loop = random_bandlimited_loop(rng, 2, 128, bandwidth=4)
        d = derivative(loop, 1)
        h = 1e-5
        for t in rng.uniform(0, 1, 12):
            fd = (evaluate(loop, t + h) - evaluate(loop, t - h)) / (2 * h)
            exact = evaluate(d, t)
            assert np.max(np.abs(fd - exact)) < 1e-6

    def test_order_capped(self):
        with pytest.raises(ValueError):
            derivative(circle_loop(), 5)


class TestSeminorms:
    def test_constant(self):
        assert ck_seminorm(SampledLoop.constant([2.0, 0.0], 8), 0) == pytest.approx(2.0)

    def test_circle_speed(self):
        assert abs(ck_seminorm(circle_loop(64), 1) - 2 * np.pi) < 1e-10

    def test_zero_loop(self):
        zero = SampledLoop(np.zeros((16, 3)))
        for k in range(5):
            assert ck_seminorm(zero, k) == 0.0


class TestRotate:
    def test_identity(self):
        loop = circle_loop()
        assert np.array_equal(rotate(loop, 0.0).samples, loop.samples)

    def test_group_law(self):
        loop = random_bandlimited_loop(np.random.default_rng(5), 2, 64)
        rng = np.random.default_rng(6)
        for _ in range(5):
            s, u = rng.uniform(0, 1, 2)
            lhs = rotate(rotate(loop, s), u)
            rhs = rotate(loop, s + u)
            assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-10

    def test_exact_shift_at_node_multiples(self):
        loop = random_bandlimited_loop(np.random.default_rng(7), 3, 32)
        rolled = rotate(loop, 5 / 32)
        assert np.array_equal(rolled.samples, np.roll(loop.samples, -5, axis=0))

    def test_circle_quarter_turn(self):
        val = evaluate(rotate(circle_loop(64), 0.25), 0.0)
        assert np.max(np.abs(val - [0.0, 1.0])) < 1e-12

    def test_seminorm_isometry_node_shifts(self):
        loop = random_bandlimited_loop(np.random.default_rng(8), 2, 64)
        for k in range(3):
            base = ck_seminorm(loop, k)
            assert ck_seminorm(rotate(loop, 7 / 64), k) == pytest.approx(base, abs=1e-12)

    def test_seminorm_isometry_off_grid(self):
        # the node-sup seminorm sees off-grid shifts only through sampling
        # drift, which vanishes for loops with constant jet norms
        loop = circle_loop(64)
        for k in range(3):
            base = ck_seminorm(loop, k)
            assert abs(ck_seminorm(rotate(loop, 0.1234), k) - base) < 1e-10

    def test_fft_shift_matches_dense_evaluation(self):
        # reference: the dense interpolant of evaluate at the shifted nodes.
        # Only the complex full-spectrum loop sees the Nyquist fold: on real
        # data taking the real part hides a dropped cos(pi N s) factor.
        rng = np.random.default_rng(14)
        for n in (8, 64, 1024):
            for loop in (random_bandlimited_loop(rng, 3, n, bandwidth=min(8, n // 4)),
                         SampledLoop(rng.normal(size=(n, 3))),
                         SampledLoop(rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2)))):
                off = int(rng.integers(n)) + rng.uniform(0.1, 0.9)
                for s in (off / n, -off / n):
                    err = np.max(np.abs(rotate(loop, s).samples - evaluate(loop, loop.nodes + s)))
                    assert err <= 1e-12 * np.max(np.abs(loop.samples)), (n, s)

    def test_sweep_to_n_16384_against_closed_form(self):
        # p(t) = sum_k a_k cos(2 pi k t) + b_k sin(2 pi k t), degree 8
        rng = np.random.default_rng(15)
        a, b = rng.normal(size=(2, 9, 3))
        modes = np.arange(9)

        def closed_form(t):
            arg = 2 * np.pi * np.outer(t, modes)
            return np.cos(arg) @ a + np.sin(arg) @ b

        for n in 2 ** np.arange(7, 15):
            loop = SampledLoop(closed_form(np.arange(n) / n))
            s = (int(rng.integers(n)) + rng.uniform(0.1, 0.9)) / n
            shifted = rotate(loop, s)
            assert np.max(np.abs(shifted.samples - closed_form(loop.nodes + s))) <= 1e-12, n
            back = rotate(shifted, -s)
            assert np.max(np.abs(back.samples - loop.samples)) <= 1e-12, n


class TestFourier:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            loop = random_bandlimited_loop(rng, 3, 64, bandwidth=10)
            back = to_samples(to_fourier(loop))
            scale = max(1.0, np.max(np.abs(loop.samples)))
            assert np.max(np.abs(back.samples - loop.samples)) / scale < 1e-12

    def test_reality_condition(self):
        loop = random_bandlimited_loop(np.random.default_rng(10), 2, 32)
        rep = to_fourier(loop)
        modes = rep.modes
        for k in range(1, 16):
            ck = rep.coefficients[modes == k][0]
            cmk = rep.coefficients[modes == -k][0]
            assert np.max(np.abs(cmk - np.conj(ck))) < 1e-13

    def test_mode_range(self):
        rep = to_fourier(circle_loop(32))
        assert rep.modes[0] == -15 and rep.modes[-1] == 16

    def test_split_spectrum_matches_direct_fft(self):
        # reference: the symmetric grid indexed straight out of the FFT
        rng = np.random.default_rng(13)
        for n in (8, 64, 256):
            for samples in (rng.normal(size=(n, 3)),
                            rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))):
                loop = SampledLoop(samples)
                c = np.fft.fft(loop.samples, axis=0) / n
                modes = np.arange(-n // 2, n // 2 + 1)
                coeffs = c[modes % n].astype(np.complex128)
                coeffs[0] *= 0.5
                coeffs[-1] *= 0.5
                got_modes, got = _split_spectrum(loop)
                assert np.array_equal(got_modes, modes)
                assert np.array_equal(got, coeffs)


class TestFourierNoise:
    def test_table_rows_match_the_direct_sum(self):
        # reference: each mode's cosine and sine computed at the call
        def direct(rng, n, dim, bandwidth, amplitude):
            t = np.arange(n) / n
            vals = np.zeros((n, dim))
            for k in range(bandwidth + 1):
                a = rng.normal(size=dim) * amplitude / (1 + k)
                b = rng.normal(size=dim) * amplitude / (1 + k)
                vals += np.outer(np.cos(2 * np.pi * k * t), a)
                if k > 0:
                    vals += np.outer(np.sin(2 * np.pi * k * t), b)
            return vals

        for n, dim, bandwidth in ((8, 3, 2), (128, 3, 4), (1024, 2, 3)):
            for seed in range(3):
                draw = noise_draw(np.random.default_rng(seed), dim, bandwidth)
                got = noise_samples(draw, n, 0.4)
                want = direct(np.random.default_rng(seed), n, dim, bandwidth, 0.4)
                assert np.array_equal(got, want)
        assert not _fourier_table(128, 4).flags.writeable

    def test_a_stack_of_draws_equals_its_draws(self):
        # one amplitude per draw, and a leading axis beyond the trial axis
        rng = np.random.default_rng(28)
        draws = np.stack([noise_draw(rng, 3, 4) for _ in range(6)]).reshape(2, 3, 5, 2, 3)
        amplitude = rng.uniform(0.05, 2.0, size=(2, 3))
        got = noise_samples(draws, 64, amplitude)
        assert got.shape == (2, 3, 64, 3) and got.flags.c_contiguous
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], noise_samples(draws[i, j], 64, amplitude[i, j]))
        assert np.array_equal(noise_loop(draws, 64).samples, noise_samples(draws, 64))

    def test_bandwidth_above_a_quarter_rejected(self):
        draw = noise_draw(np.random.default_rng(0), 2, 5)
        with pytest.raises(ValueError, match="N/4"):
            noise_loop(draw, 16)
        with pytest.raises(ValueError, match="N/4"):
            random_bandlimited_loop(np.random.default_rng(0), 2, 16, bandwidth=5)
        assert noise_loop(draw, 32).resolution == 32


class TestInvariants:
    def test_resolution_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            SampledLoop(np.zeros((12, 2)))
        with pytest.raises(ValueError):
            SampledLoop(np.zeros((4, 2)))

    def test_samples_must_be_finite(self):
        bad = np.zeros((8, 2))
        bad[3, 1] = np.nan
        with pytest.raises(ValueError):
            SampledLoop(bad)


class TestStack:
    """A (B, N, d) stack of B loops in R^d is one loop in (R^d)^B: each
    function acts on it as on every one of its loops."""

    def test_stack_equals_the_per_loop_calls(self, tmp_path):
        rng = np.random.default_rng(26)
        sphere = Sphere2()
        singles = [sphere.random_loop(rng, 64) for _ in range(4)]
        stack = SampledLoop(np.stack([a.samples for a in singles]))
        assert (stack.resolution, stack.dim) == (64, 3)

        def per_loop(f):
            return np.stack([f(a) for a in singles])

        for s in (3 / 64, 0.137):  # on and off the node grid
            assert np.array_equal(rotate(stack, s).samples,
                                  per_loop(lambda a: rotate(a, s).samples))
        for order in (1, 2):
            assert np.array_equal(derivative(stack, order).samples,
                                  per_loop(lambda a: derivative(a, order).samples))
        rep = to_fourier(stack)
        assert np.array_equal(rep.coefficients,
                              per_loop(lambda a: to_fourier(a).coefficients))
        assert np.array_equal(to_samples(rep).samples,
                              per_loop(lambda a: to_samples(to_fourier(a)).samples))
        assert np.array_equal(fourier_split(stack).minus,
                              per_loop(lambda a: fourier_split(a).minus))
        for t in (0.3, np.array([[0.1, 0.7], [0.25, 0.9]])):
            assert np.array_equal(evaluate(stack, t), per_loop(lambda a: evaluate(a, t)))
        for k in (0, 1):
            assert ck_seminorm(stack, k) == max(ck_seminorm(a, k) for a in singles)
        witness = exp_nonsurjectivity_witness(sphere, stack)
        reports = [exp_nonsurjectivity_witness(sphere, a) for a in singles]
        assert all(r["offset"] == witness["offset"] for r in reports)
        assert witness["jump_magnitude"] == max(r["jump_magnitude"] for r in reports)
        with pytest.raises(ValueError, match="one loop"):
            loop_to_csv(stack, tmp_path / "stack.csv")

    def test_to_samples_decides_real_per_loop(self):
        # one real and one complex loop: the real one comes back with a zero
        # imaginary part, as its own call returns it real
        rng = np.random.default_rng(27)
        real = rng.normal(size=(16, 2))
        cplx = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        stack = to_samples(to_fourier(SampledLoop(np.stack([real, cplx]))))
        assert stack.samples.shape == (2, 16, 2)
        alone = [to_samples(to_fourier(SampledLoop(a))) for a in (real, cplx)]
        assert alone[0].is_real and not alone[1].is_real
        assert np.array_equal(stack.samples[0].imag, np.zeros((16, 2)))
        assert np.array_equal(stack.samples[0].real, alone[0].samples)
        assert np.array_equal(stack.samples[1], alone[1].samples)
        assert to_samples(to_fourier(SampledLoop(np.stack([real, real])))).is_real


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        loop = random_bandlimited_loop(np.random.default_rng(11), 3, 16)
        path = tmp_path / "loop.json"
        save_loop(loop, path)
        again = load_loop(path)
        assert np.array_equal(again.samples, loop.samples)
        data = json.loads(path.read_text())
        assert set(data) == {"dim", "n", "samples"}
        assert data["dim"] == 3 and data["n"] == 16

    def test_header_mismatch_rejected(self):
        data = loop_to_dict(circle_loop(16))
        data["dim"] = 5
        with pytest.raises(ValueError):
            loop_from_dict(data)

    def test_csv_export(self, tmp_path):
        loop = circle_loop(16)
        path = tmp_path / "loop.csv"
        loop_to_csv(loop, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2"
        assert len(lines) == 17
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
