"""Fourier polarization: mode splitting, Toeplitz blocks, the numerical
Fredholm index against the winding oracle, and compactness profiles."""

import numpy as np
import pytest

from loopspace_lab.errors import IndexUnstable, SingularSymbol
from loopspace_lab.geometry import MatrixLoop
from loopspace_lab.loops import SampledLoop, to_fourier
from loopspace_lab.polarization import (
    STABILITY_STEP,
    _block,
    _numerical_kernel_dim,
    _require_invertible,
    active_bandwidth,
    compactness_profile,
    fourier_split,
    fredholm_data,
    fredholm_index,
    profile_to_csv,
    symbol_coefficients,
    toeplitz_blocks,
    winding_number,
)
from loopspace_lab.suites import symbol_battery


def monomial(m, n_nodes=64, n=1):
    t = np.arange(n_nodes) / n_nodes
    vals = np.exp(2j * np.pi * m * t)[:, None, None] * np.eye(n)
    return MatrixLoop(vals)


def product_oracle_error(symbol, K, support, rng):
    """Max error of the assembled operator against pointwise multiplication.

    Independent oracle: a loop with random Fourier coefficients on modes
    |m| <= support is multiplied by the symbol node by node in sample space,
    and the product's coefficients on modes -K..K are read back off the FFT.
    """
    n_nodes, n = symbol.resolution, symbol.n
    modes = np.arange(-K, K + 1)
    coeffs = rng.normal(size=(2 * K + 1, n)) + 1j * rng.normal(size=(2 * K + 1, n))
    coeffs[np.abs(modes) > support] = 0.0
    t = np.arange(n_nodes) / n_nodes
    f_samples = np.exp(2j * np.pi * np.outer(t, modes)) @ coeffs
    product = np.einsum("tij,tj->ti", symbol.matrices, f_samples)
    oracle = (np.fft.fft(product, axis=0) / n_nodes)[modes % n_nodes]
    via_blocks = toeplitz_blocks(symbol, K).assembled() @ coeffs.reshape(-1)
    return np.max(np.abs(via_blocks - oracle.reshape(-1)))


class TestFourierSplit:
    def test_constant_loop(self):
        loop = SampledLoop(np.full((16, 1), 3.0 + 0.0j))
        split = fourier_split(loop)
        assert 0 in split.plus_modes
        nonzero_plus = np.abs(split.plus).max(axis=1) > 1e-13
        assert np.array_equal(split.plus_modes[nonzero_plus], [0])
        assert np.max(np.abs(split.minus)) < 1e-13

    def test_laurent_bookkeeping(self):
        # 3 + 2 z^{-1} + z^2
        t = np.arange(16) / 16
        z = np.exp(2j * np.pi * t)
        loop = SampledLoop((3 + 2 / z + z ** 2)[:, None])
        split = fourier_split(loop)
        plus = dict(zip(split.plus_modes, split.plus[:, 0]))
        minus = dict(zip(split.minus_modes, split.minus[:, 0]))
        assert abs(plus[0] - 3) < 1e-13 and abs(plus[2] - 1) < 1e-13
        assert abs(minus[-1] - 2) < 1e-13
        others = [abs(v) for k, v in plus.items() if k not in (0, 2)]
        assert max(others) < 1e-13

    def test_real_loop_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        from loopspace_lab.loops import random_bandlimited_loop
        loop = random_bandlimited_loop(rng, 1, 32)
        split = fourier_split(loop)
        plus = dict(zip(split.plus_modes, split.plus[:, 0]))
        minus = dict(zip(split.minus_modes, split.minus[:, 0]))
        for k, c in minus.items():
            assert abs(c - np.conj(plus[-k])) < 1e-13

    def test_recombination_exact(self):
        # minus then plus side, in mode order, is the full spectrum exactly
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(32, 2)) + 1j * rng.normal(size=(32, 2))
        loop = SampledLoop(samples)
        split = fourier_split(loop)
        rep = to_fourier(loop)
        assert np.array_equal(np.concatenate([split.minus_modes, split.plus_modes]),
                              rep.modes)
        assert np.array_equal(np.concatenate([split.minus, split.plus]),
                              rep.coefficients)


class TestToeplitzBlocks:
    def test_constant_identity_symbol(self):
        blocks = toeplitz_blocks(monomial(0, n=2), 6)
        assert np.max(np.abs(blocks.pp - np.eye(14))) < 1e-14
        assert np.max(np.abs(blocks.mm - np.eye(12))) < 1e-14
        assert np.max(np.abs(blocks.pm)) < 1e-14
        assert np.max(np.abs(blocks.mp)) < 1e-14

    def test_shift_structure(self):
        blocks = toeplitz_blocks(monomial(1), 8)
        pp = blocks.pp
        expected = np.zeros((9, 9))
        expected[1:, :-1] = np.eye(8)  # mode m feeds mode m+1
        assert np.max(np.abs(pp - expected)) < 1e-13
        pm = blocks.pm
        nz = np.argwhere(np.abs(pm) > 1e-13)
        assert nz.shape == (1, 2)
        assert tuple(nz[0]) == (0, 7)  # mode -1 feeds mode 0

    def test_assembly_matches_full_operator(self):
        # the battery's scalar and 2x2 symbols against the sample-space product
        rng = np.random.default_rng(2)
        symbols = symbol_battery(rng, count=4)
        assert {symbol.n for symbol in symbols} == {1, 2}
        for symbol in symbols:
            assert product_oracle_error(symbol, 16, 16, rng) < 1e-12

    def test_assembled_operator_multiplies(self):
        t = np.arange(64) / 64
        z = np.exp(2j * np.pi * t)
        symbol = MatrixLoop((z ** 2 + 0.5 / z + 0.25)[:, None, None])
        # a loop supported well inside the truncation window
        assert product_oracle_error(symbol, 8, 5, np.random.default_rng(7)) < 1e-12

    def test_projections_split_exactly(self):
        # plus and minus coefficient masks are complementary idempotents
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(32, 1)) + 1j * rng.normal(size=(32, 1))
        loop = SampledLoop(samples)
        split = fourier_split(loop)
        assert len(np.intersect1d(split.plus_modes, split.minus_modes)) == 0
        assert len(split.plus_modes) + len(split.minus_modes) == 32

    def test_truncation_below_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_blocks(monomial(3), 2)

    def test_single_harmonic_rank(self):
        for m in (1, 2, 3):
            blocks = toeplitz_blocks(monomial(m, n=2), 8)
            svals = np.linalg.svd(blocks.pm, compute_uv=False)
            assert svals[2 * m - 1] > 0.9
            assert np.max(svals[2 * m:]) < 1e-14


class TestFredholmIndex:
    def test_shift_has_index_minus_one(self):
        assert fredholm_index(toeplitz_blocks(monomial(1), 8)) == -1

    def test_inverse_shift_has_index_plus_one(self):
        assert fredholm_index(toeplitz_blocks(monomial(-1), 8)) == 1

    def test_constant_invertible_symbol(self):
        sym = MatrixLoop(np.tile(np.array([[2.0 + 0j, 1.0], [0.0, 1.0]]), (64, 1, 1)))
        assert fredholm_index(toeplitz_blocks(sym, 8)) == 0

    def test_diag_z_zinv_kernel_and_cokernel(self):
        t = np.arange(64) / 64
        mats = np.zeros((64, 2, 2), dtype=complex)
        mats[:, 0, 0] = np.exp(2j * np.pi * t)
        mats[:, 1, 1] = np.exp(-2j * np.pi * t)
        idx, ker, coker = fredholm_data(toeplitz_blocks(MatrixLoop(mats), 8))
        assert (idx, ker, coker) == (0, 1, 1)

    def test_index_equals_minus_winding_on_battery(self):
        rng = np.random.default_rng(4)
        for symbol in symbol_battery(rng):
            idx = fredholm_index(toeplitz_blocks(symbol, 16))
            assert idx == -winding_number(symbol)

    def test_index_sweep_to_k_512(self):
        # the finite sections keep the index at -winding as K grows
        # (Boettcher and Silbermann, ch. 2-3); 2x2 symbols stop at K = 256,
        # where one section already costs about as much as a scalar at 512
        rng = np.random.default_rng(0)
        for symbol in symbol_battery(rng, n_nodes=2048, count=5):
            winding = winding_number(symbol)
            for k in (128, 256, 512) if symbol.n == 1 else (128, 256):
                assert fredholm_index(toeplitz_blocks(symbol, k)) == -winding, k

    def test_additivity_for_monomials(self):
        for a in (-3, -1, 2):
            for b in (-2, 1, 3):
                product = MatrixLoop(monomial(a).matrices * monomial(b).matrices)
                ia = fredholm_index(toeplitz_blocks(monomial(a), 8))
                ib = fredholm_index(toeplitz_blocks(monomial(b), 8))
                iab = fredholm_index(toeplitz_blocks(product, 8))
                assert iab == ia + ib

    def test_singular_symbol_rejected(self):
        t = np.arange(64) / 64
        vals = (np.exp(2j * np.pi * t) - 1.0)[:, None, None]  # vanishes at t=0
        with pytest.raises(SingularSymbol):
            fredholm_index(toeplitz_blocks(MatrixLoop(vals), 8))

    def test_marginal_kernel_decay_flagged_unstable(self):
        # kernel data decaying like 0.28^k crosses the rank threshold
        # between the two stabilizing truncations
        t = np.arange(64) / 64
        vals = (np.exp(2j * np.pi * t) - 0.28)[:, None, None]
        with pytest.raises(IndexUnstable):
            fredholm_index(toeplitz_blocks(MatrixLoop(vals), 10))

    def test_mode_flip_adjoint_matches_adjoint_fft(self):
        # reference: the adjoint's table as the FFT of the adjoint symbol
        def kernel_dim(symbol, k, pad):
            if 2 * (k + pad) > symbol.resolution:
                raise ValueError("stabilized truncation beyond the Nyquist range")
            rows, cols = np.arange(0, k + pad + 1), np.arange(0, k + 1)
            return _numerical_kernel_dim(_block(symbol_coefficients(symbol), rows, cols))

        def reference(blocks):
            symbol = blocks.symbol
            _require_invertible(symbol)
            pad = max(1, active_bandwidth(symbol_coefficients(symbol)))
            adj = MatrixLoop(np.conj(np.swapaxes(symbol.matrices, 1, 2)))
            results = []
            for k in (blocks.truncation, blocks.truncation + STABILITY_STEP):
                ker, coker = kernel_dim(symbol, k, pad), kernel_dim(adj, k, pad)
                results.append((ker - coker, ker, coker))
            if results[0] != results[1]:
                raise IndexUnstable("kernel counts differ across truncations")
            return results[0]

        def outcome(route, blocks):
            try:
                return route(blocks)
            except (IndexUnstable, SingularSymbol, ValueError) as exc:
                return type(exc)

        triples = 0
        for symbol in symbol_battery(np.random.default_rng(12), count=10):
            for K in (8, 16, 32):
                try:
                    blocks = toeplitz_blocks(symbol, K)
                except ValueError:  # K below the symbol's bandwidth
                    continue
                new = outcome(fredholm_data, blocks)
                assert new == outcome(reference, blocks)
                triples += isinstance(new, tuple)
        assert triples >= 20

    def test_rotation_covariance(self):
        rng = np.random.default_rng(5)
        symbol = symbol_battery(rng, count=1)[0]
        base = fredholm_index(toeplitz_blocks(symbol, 16))
        for shift in (5, 31):
            rolled = MatrixLoop(np.roll(symbol.matrices, -shift, axis=0))
            assert fredholm_index(toeplitz_blocks(rolled, 16)) == base


class TestWinding:
    def test_monomials(self):
        for m in range(-3, 4):
            assert winding_number(monomial(m)) == m

    def test_matrix_determinant(self):
        t = np.arange(64) / 64
        mats = np.zeros((64, 2, 2), dtype=complex)
        mats[:, 0, 0] = np.exp(4j * np.pi * t)
        mats[:, 1, 1] = np.exp(-2j * np.pi * t)
        mats[:, 0, 1] = 0.3
        assert winding_number(MatrixLoop(mats)) == 1


class TestCompactness:
    def test_constant_symbol_profile_vanishes(self):
        sym = MatrixLoop(np.tile(np.diag([1.0 + 0j, 3.0]), (64, 1, 1)))
        prof = compactness_profile(toeplitz_blocks(sym, 8))
        assert prof["plus_minus"][0] < 1e-14
        assert prof["minus_plus"][0] < 1e-14

    def test_single_harmonic_finite_rank(self):
        prof = compactness_profile(toeplitz_blocks(monomial(2, n=2), 8))
        s = prof["plus_minus"]
        assert s[3] > 0.9 and s[4] < 1e-14

    def test_entire_symbol_decay(self):
        from loopspace_lab.suites import _entire_rotation_symbol
        blocks = toeplitz_blocks(_entire_rotation_symbol(), 64)
        s = compactness_profile(blocks)["plus_minus"]
        assert s[8] / s[16] >= 1e3
        assert s[16] / s[24] >= 1e3

    def test_profile_csv(self, tmp_path):
        prof = compactness_profile(toeplitz_blocks(monomial(1), 4))
        path = tmp_path / "profile.csv"
        profile_to_csv(prof, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "block,j,singular_value"
        assert len(lines) == 1 + len(prof["plus_minus"]) + len(prof["minus_plus"])


class TestBandwidth:
    def test_monomial_bandwidth(self):
        assert active_bandwidth(symbol_coefficients(monomial(3))) == 3

    def test_blocks_carry_the_coefficient_table(self):
        sym = monomial(3, n=2)
        assert np.array_equal(toeplitz_blocks(sym, 8).coeffs, symbol_coefficients(sym))

    def test_coefficients_match_fft(self):
        rng = np.random.default_rng(6)
        sym = symbol_battery(rng, count=1)[0]
        coeffs = symbol_coefficients(sym)
        n_nodes = sym.resolution
        t = np.arange(n_nodes) / n_nodes
        for m in (-2, 0, 1):
            direct = (sym.matrices * np.exp(-2j * np.pi * m * t)[:, None, None]
                      ).mean(axis=0)
            assert np.max(np.abs(coeffs[m] - direct)) < 1e-12
