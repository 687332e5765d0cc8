"""Fourier polarization of complex loop spaces at finite truncation.

Loops in C^n split into the spans of the nonnegative and negative Fourier
modes (the constant loops sit on the plus side).  Multiplication by a loop
of matrices mixes the two sides only a little: the diagonal blocks of the
truncated operator are Fredholm with index minus the winding number of the
determinant, and the off-diagonal blocks have rapidly decaying singular
values when the symbol is smooth.  This module builds the blocks, computes
the index from numerical kernel dimensions, and measures the decay.

Finite square sections of a Toeplitz block always have matching kernel and
cokernel counts, so kernel dimensions are computed on boundary-extended
rectangular sections: rows run over the plus modes reachable from the
truncated columns (padded by the symbol bandwidth).  For banded symbols this
reproduces the kernels of the semi-infinite operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import IndexUnstable, SingularSymbol
from .geometry import CONDITION_LIMIT, RANK_THRESHOLD, MatrixLoop
from .loops import SampledLoop, to_fourier

STABILITY_STEP = 4


@dataclass(frozen=True)
class FourierSplit:
    """Fourier coefficients of a loop split by mode sign (0 goes to plus)."""

    dim: int
    plus_modes: np.ndarray
    plus: np.ndarray
    minus_modes: np.ndarray
    minus: np.ndarray


def fourier_split(loop: SampledLoop) -> FourierSplit:
    """Split the loop's spectrum into the k >= 0 and k < 0 parts."""
    rep = to_fourier(loop)
    modes = rep.modes
    pos = modes >= 0
    return FourierSplit(loop.dim,
                        modes[pos], rep.coefficients[..., pos, :],
                        modes[~pos], rep.coefficients[..., ~pos, :])


# -- symbols and their coefficients ---------------------------------------------

def symbol_coefficients(symbol: MatrixLoop) -> np.ndarray:
    """Matrix Fourier coefficients of the symbol in FFT order, (N, n, n).

    Entry [m] is mode m for m in (-N/2, N/2]; negative modes sit at
    negative indices.
    """
    return np.fft.fft(symbol.matrices.astype(np.complex128), axis=0) / symbol.resolution


def active_bandwidth(coeffs: np.ndarray) -> int:
    """The largest |m| whose coefficient in the FFT-order table ``coeffs``
    (:func:`symbol_coefficients`) has an entry above 1e-12."""
    index = np.arange(len(coeffs))
    active = np.max(np.abs(coeffs), axis=(1, 2)) > 1e-12
    return int(np.max(np.minimum(index, len(coeffs) - index)[active], initial=0))


def _require_invertible(symbol: MatrixLoop):
    conds = np.linalg.cond(symbol.matrices)
    if not np.all(np.isfinite(conds)) or np.max(conds) >= CONDITION_LIMIT:
        raise SingularSymbol("symbol matrix nearly singular at some node")


# -- truncated blocks -----------------------------------------------------------

@dataclass(frozen=True)
class OperatorBlocks:
    """The four mode-sign blocks of a truncated multiplication operator.

    Plus-sector modes are 0..K ascending, minus-sector modes are -K..-1
    ascending, each inflated by the matrix size n.  ``coeffs`` is the
    symbol's coefficient table (:func:`symbol_coefficients`), from which
    the blocks are gathered; the index and its bandwidth padding read it
    instead of redoing the FFT.
    """

    symbol: MatrixLoop
    truncation: int
    coeffs: np.ndarray
    pp: np.ndarray
    pm: np.ndarray
    mp: np.ndarray
    mm: np.ndarray

    @property
    def n(self) -> int:
        return self.symbol.n

    def assembled(self) -> np.ndarray:
        """The full truncated operator, minus modes first."""
        top = np.hstack([self.mm, self.mp])
        bottom = np.hstack([self.pm, self.pp])
        return np.vstack([top, bottom])


def _block(coeffs: np.ndarray, row_modes, col_modes) -> np.ndarray:
    """Block (k, m) is the coefficient of mode k - m, or zero when k - m lies
    outside the symbol's mode range (-N/2, N/2]."""
    n_nodes, n = coeffs.shape[:2]
    diff = np.subtract.outer(row_modes, col_modes)
    out = coeffs[diff % n_nodes]
    out[(diff <= -n_nodes // 2) | (diff > n_nodes // 2)] = 0.0
    return out.transpose(0, 2, 1, 3).reshape(diff.shape[0] * n, diff.shape[1] * n)


def toeplitz_blocks(symbol: MatrixLoop, truncation: int) -> OperatorBlocks:
    """Block decomposition of multiplication by the symbol at truncation K.

    Requires K at least the active bandwidth (so no convolution mass falls
    off the ends) and 2K at most the node count (so no aliasing).
    """
    coeffs = symbol_coefficients(symbol)
    if truncation < active_bandwidth(coeffs):
        raise ValueError("truncation below the active bandwidth of the symbol")
    if 2 * truncation > symbol.resolution:
        raise ValueError("truncation beyond the Nyquist range of the symbol")
    plus = np.arange(0, truncation + 1)
    minus = np.arange(-truncation, 0)
    return OperatorBlocks(
        symbol=symbol, truncation=truncation, coeffs=coeffs,
        pp=_block(coeffs, plus, plus),
        pm=_block(coeffs, plus, minus),
        mp=_block(coeffs, minus, plus),
        mm=_block(coeffs, minus, minus),
    )


# -- Fredholm index ---------------------------------------------------------------

def _numerical_kernel_dim(matrix: np.ndarray) -> int:
    svals = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(svals <= RANK_THRESHOLD))


def fredholm_data(blocks: OperatorBlocks):
    """(index, dim kernel, dim cokernel) of the plus-plus compression.

    A kernel dimension counts the singular values at most RANK_THRESHOLD.
    Counts are taken at the block's truncation and again four modes higher;
    disagreement raises IndexUnstable.  The kernel is counted on a tall
    window (columns modes 0..K, rows every plus mode they reach) and the
    cokernel on its transpose: that wide window's conjugate transpose is the
    adjoint's tall window, with the same singular values.
    """
    _require_invertible(blocks.symbol)
    coeffs = blocks.coeffs
    pad = max(1, active_bandwidth(coeffs))
    results = []
    for k in (blocks.truncation, blocks.truncation + STABILITY_STEP):
        if 2 * (k + pad) > len(coeffs):
            raise ValueError("stabilized truncation beyond the symbol's Nyquist range")
        tall, wide = np.arange(k + pad + 1), np.arange(k + 1)
        ker = _numerical_kernel_dim(_block(coeffs, tall, wide))
        coker = _numerical_kernel_dim(_block(coeffs, wide, tall))
        results.append((ker - coker, ker, coker))
    if results[0] != results[1]:
        raise IndexUnstable(
            f"kernel counts differ across truncations: {results[0]} vs {results[1]}")
    return results[0]


def fredholm_index(blocks: OperatorBlocks) -> int:
    """dim ker - dim coker of the plus-sector compression of the symbol."""
    return fredholm_data(blocks)[0]


def winding_number(symbol: MatrixLoop) -> int:
    """Winding of det(symbol) around 0, by principal-branch phase increments.

    Node counts of 64 and up keep each increment well below pi for the
    banded symbols used here.
    """
    dets = np.linalg.det(symbol.matrices.astype(np.complex128))
    if np.min(np.abs(dets)) < 1e-12:
        raise SingularSymbol("determinant vanishes at a node")
    phases = np.angle(dets)
    steps = np.diff(np.concatenate([phases, phases[:1]]))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    total = steps.sum() / (2 * np.pi)
    rounded = int(np.round(total))
    if abs(total - rounded) > 1e-6:
        raise SingularSymbol(f"phase increments do not close up ({total:.3e})")
    return rounded


# -- compactness profiles ----------------------------------------------------------

def compactness_profile(blocks: OperatorBlocks) -> dict:
    """Descending singular values of the off-diagonal blocks, in the order
    that ``np.linalg.svd`` returns them (LAPACK sorts them descending).

    For smooth symbols these decay at the rate of the symbol's Fourier
    coefficients, which is the finite-truncation face of compactness.
    """
    return {"plus_minus": np.linalg.svd(blocks.pm, compute_uv=False),
            "minus_plus": np.linalg.svd(blocks.mp, compute_uv=False)}


def profile_to_csv(profile: dict, path) -> None:
    """CSV rows (block, index j, singular value)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "j", "singular_value"])
        for name in ("plus_minus", "minus_plus"):
            for j, s in enumerate(profile[name]):
                writer.writerow([name, j, repr(float(s))])
