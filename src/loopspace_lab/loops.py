"""Discrete loops in R^d: sampling, trigonometric interpolation, spectral
differentiation, sup-seminorms of the jet, and the circle action.

A loop is stored as N uniform samples on the unit circle R/Z, with sample j
taken at t_j = j/N.  All evaluation between nodes goes through the
band-limited trigonometric interpolant, so any identity that holds pointwise
for smooth loops holds here to spectral accuracy.
"""

from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass

import numpy as np

MIN_RESOLUTION = 8
MAX_DERIVATIVE_ORDER = 4


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _broadcasts_to(shape: tuple, target: tuple) -> bool:
    """Whether an array of ``shape`` broadcasts to ``target`` unchanged."""
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


@dataclass(frozen=True)
class SampledLoop:
    """A loop sampled at N uniform nodes of the circle R/Z.

    Parameters
    ----------
    samples : ndarray, shape (..., N, d)
        Sample j is the value at t_j = j/N.  N must be a power of two,
        N >= 8.  Real and complex loops are both supported.  A (B, N, d)
        stack of B loops in R^d is one loop in (R^d)^B.
    """

    samples: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.ndim < 2:
            raise ValueError("samples must be an array of shape (..., N, d)")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if not _is_power_of_two(arr.shape[-2]) or arr.shape[-2] < MIN_RESOLUTION:
            raise ValueError(
                f"resolution must be a power of two >= {MIN_RESOLUTION}, got {arr.shape[-2]}"
            )
        if arr.shape[-1] < 1:
            raise ValueError("dimension must be positive")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", arr)

    @property
    def resolution(self) -> int:
        return self.samples.shape[-2]

    @property
    def dim(self) -> int:
        return self.samples.shape[-1]

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)

    @property
    def nodes(self) -> np.ndarray:
        """The sample parameters t_j = j/N."""
        n = self.resolution
        return np.arange(n) / n

    @classmethod
    def constant(cls, point, n: int = 128) -> "SampledLoop":
        point = np.atleast_1d(np.asarray(point))
        return cls(np.tile(point, (n, 1)))


@dataclass(frozen=True)
class FourierRep:
    """Fourier coefficients c_k of a loop for modes -N/2 < k <= N/2.

    ``coefficients[i]`` belongs to ``modes[i]``; for a real loop,
    c_{-k} = conj(c_k) for every stored pair.
    """

    dim: int
    coefficients: np.ndarray  # (..., N, d) complex, ordered by `modes`

    @property
    def resolution(self) -> int:
        return self.coefficients.shape[-2]

    @property
    def modes(self) -> np.ndarray:
        n = self.resolution
        return np.arange(-n // 2 + 1, n // 2 + 1)


def to_fourier(loop: SampledLoop) -> FourierRep:
    """Fourier coefficients of the interpolant, modes -N/2 < k <= N/2."""
    n = loop.resolution
    c = np.fft.fft(loop.samples, axis=-2) / n
    modes = np.arange(-n // 2 + 1, n // 2 + 1)
    return FourierRep(loop.dim, c[..., modes % n, :])


def to_samples(rep: FourierRep) -> SampledLoop:
    """Inverse of :func:`to_fourier`."""
    n = rep.resolution
    c = np.zeros(rep.coefficients.shape, dtype=np.complex128)
    c[..., rep.modes % n, :] = rep.coefficients
    vals = np.fft.ifft(c * n, axis=-2)
    # real or complex is decided per loop of a stack; a real loop in a
    # complex stack keeps a zero imaginary part
    scale = np.maximum(1.0, np.max(np.abs(vals.real), axis=(-2, -1)))
    real = (np.max(np.abs(vals.imag), axis=(-2, -1)) < 1e-9 * scale)[..., None, None]
    if np.all(real):
        return SampledLoop(vals.real)
    return SampledLoop(np.where(real, vals.real, vals))


def _split_spectrum(loop: SampledLoop):
    """Spectrum on the symmetric mode grid -N/2 .. N/2 with the Nyquist
    coefficient split in half between +N/2 and -N/2.

    This is the unique representation whose interpolant is real for real
    data and whose derivative at the nodes matches spectral differentiation.
    """
    n = loop.resolution
    c = to_fourier(loop).coefficients
    coeffs = np.concatenate([c[..., -1:, :], c], axis=-2)  # mode -N/2 repeats mode N/2
    coeffs[..., 0, :] *= 0.5
    coeffs[..., -1, :] *= 0.5
    return np.arange(-n // 2, n // 2 + 1), coeffs


def evaluate(loop: SampledLoop, t) -> np.ndarray:
    """Evaluate the trigonometric interpolant at circle parameter ``t``.

    ``t`` is reduced mod 1 and may be a scalar or an array; the result has
    shape ``lead + t.shape + (d,)`` for a loop of shape ``lead + (N, d)``.
    Evaluation is exact at sample nodes.
    """
    modes, coeffs = _split_spectrum(loop)
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64)) % 1.0
    phases = np.exp(2j * np.pi * np.outer(t_arr, modes))
    out = phases @ coeffs
    if loop.is_real:
        out = out.real
    return out.reshape(out.shape[:-2] + np.shape(t) + (loop.dim,))


def derivative(loop: SampledLoop, order: int = 1) -> SampledLoop:
    """Samples of the order-th derivative of the interpolant.

    Orders above ``MAX_DERIVATIVE_ORDER`` are rejected: truncation noise is
    amplified by (2 pi N)^order.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"derivative order capped at {MAX_DERIVATIVE_ORDER}")
    n = loop.resolution
    k = np.fft.fftfreq(n, d=1.0 / n)
    if order % 2 == 1:
        k[n // 2] = 0.0  # symmetric interpolant: odd derivatives kill Nyquist
    factor = (2j * np.pi * k) ** order
    c = np.fft.fft(loop.samples, axis=-2)
    vals = np.fft.ifft(c * factor[:, None], axis=-2)
    if loop.is_real:
        vals = vals.real
    return SampledLoop(vals)


def ck_seminorm(loop: SampledLoop, k: int = 0) -> float:
    """Sup over nodes of the Euclidean norm of the k-th derivative.

    k = 0 is the sup-norm of the loop itself; a stack gives the sup over
    its loops.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > MAX_DERIVATIVE_ORDER:
        raise ValueError(f"seminorm order capped at {MAX_DERIVATIVE_ORDER}")
    vals = loop.samples if k == 0 else derivative(loop, k).samples
    return float(np.max(np.linalg.norm(vals, axis=-1)))


def rotate(loop: SampledLoop, s: float) -> SampledLoop:
    """The circle action: ``rotate(loop, s)(t) = loop(t + s)``.

    When s is a multiple of 1/N this is an exact cyclic shift of the
    samples.  Otherwise it is an FFT phase shift: mode k is multiplied by
    e^{2 pi i k s}, and the Nyquist mode by cos(pi N s), which folds the two
    half-weight +-N/2 terms of the symmetric interpolant into one, so the
    result is the interpolant of :func:`evaluate` resampled at t_j + s.
    """
    n = loop.resolution
    shift = (float(s) % 1.0) * n
    nearest = round(shift)
    if abs(shift - nearest) < 1e-12:
        return SampledLoop(np.roll(loop.samples, -int(nearest) % n, axis=-2))
    phase = np.exp(2j * np.pi * np.fft.fftfreq(n) * shift)
    phase[n // 2] = np.cos(np.pi * shift)
    vals = np.fft.ifft(np.fft.fft(loop.samples, axis=-2) * phase[:, None], axis=-2)
    if loop.is_real:
        vals = vals.real
    return SampledLoop(vals)


@functools.lru_cache(maxsize=None)
def _fourier_table(n: int, bandwidth: int) -> np.ndarray:
    """Read-only rows cos(2 pi k t_j) and sin(2 pi k t_j), k = 0..bandwidth,
    at the n nodes, as one (2, bandwidth + 1, n) block built once per
    (n, bandwidth)."""
    arg = (2 * np.pi * np.arange(bandwidth + 1))[:, None] * (np.arange(n) / n)
    table = np.stack([np.cos(arg), np.sin(arg)])
    table.flags.writeable = False
    return table


def noise_draw(rng, dim: int, bandwidth: int) -> np.ndarray:
    """The one generator call of a random trigonometric polynomial in R^dim
    of degree ``bandwidth``: its per-mode (a_k, b_k) pairs, shape
    (bandwidth + 1, 2, dim); b_0 is drawn unused."""
    return rng.normal(size=(bandwidth + 1, 2, dim))


def noise_samples(draw, n: int, amplitude=1.0) -> np.ndarray:
    """(..., n, dim) samples of the polynomials of a stack of draws
    (..., bandwidth + 1, 2, dim), of any bandwidth; mode k has amplitude
    ``amplitude / (1 + k)``, with one amplitude or one per draw (...).  Each
    draw's samples are the bits it has on its own."""
    bandwidth = draw.shape[-3] - 1
    cos, sin = _fourier_table(n, bandwidth)
    amplitude = np.asarray(amplitude, dtype=np.float64)[..., None, None, None]
    coeffs = draw * amplitude / (1 + np.arange(bandwidth + 1))[:, None, None]
    # summed component major, so that each product row is one contiguous
    # block; every element sees the same products in the same order
    vals = np.zeros(draw.shape[:-3] + (draw.shape[-1], n))
    for k in range(bandwidth + 1):
        vals += coeffs[..., k, 0, :, None] * cos[k]
        if k > 0:
            vals += coeffs[..., k, 1, :, None] * sin[k]
    return np.ascontiguousarray(np.swapaxes(vals, -1, -2))


def noise_loop(draw, n: int, amplitude=1.0) -> SampledLoop:
    """The loop (..., n, dim) of :func:`noise_samples`; a bandwidth above N/4,
    which a section's ambient noise may have, raises ValueError."""
    if draw.shape[-3] - 1 > n // 4:
        raise ValueError("bandwidth above N/4 would not survive resampling")
    return SampledLoop(noise_samples(draw, n, amplitude))


def random_bandlimited_loop(rng, dim: int, n: int = 128, bandwidth: int = 4,
                            amplitude: float = 1.0) -> SampledLoop:
    """A random real loop with Fourier support in |k| <= bandwidth."""
    return noise_loop(noise_draw(rng, dim, bandwidth), n, amplitude)


# -- serialization -------------------------------------------------------------

def loop_to_dict(loop: SampledLoop) -> dict:
    if not loop.is_real:
        raise ValueError("loop files store real loops only")
    return {"dim": loop.dim, "n": loop.resolution,
            "samples": loop.samples.tolist()}


def loop_from_dict(data: dict) -> SampledLoop:
    loop = SampledLoop(np.asarray(data["samples"], dtype=np.float64))
    if loop.dim != data["dim"] or loop.resolution != data["n"]:
        raise ValueError("loop file header disagrees with its samples")
    return loop


def save_loop(loop: SampledLoop, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(loop_to_dict(loop), fh)


def load_loop(path) -> SampledLoop:
    with open(path, encoding="utf-8") as fh:
        return loop_from_dict(json.load(fh))


def loop_to_csv(loop: SampledLoop, path) -> None:
    """One row per node: t, x_1, ..., x_d.  A stack of loops raises ValueError."""
    if loop.samples.ndim != 2:
        raise ValueError("a loop CSV file holds one loop, not a stack")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i + 1}" for i in range(loop.dim)])
        for tj, row in zip(loop.nodes, loop.samples):
            writer.writerow([repr(float(tj))] + [repr(float(x)) for x in row])
