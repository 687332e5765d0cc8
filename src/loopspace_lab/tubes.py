"""Tubular-neighbourhood machinery for loop spaces.

Four constructions, all driven by compactly supported flows:

* the splitting of the based-loop fibration through flows of bump fields in
  the exponential chart about the fiber's base point,
* partition-of-unity sections of the tangent bundle, linear in the seed
  vector and reproducing it at its base point,
* tubes around coincidence submanifolds (loops through a fixed point, and
  pairs of loops agreeing at time zero), built by flowing fiberwise in a
  normal bundle, and
* equivariant averaging: local averages of finite point clouds, and the
  decomposition of a loop near the fixed set of a cyclic or circle action
  into a periodic part plus normal data.

Each construction takes one loop or a (B, N, k) stack of B trials, which it
treats as one loop of a product.  Per-trial points that broadcast over the
nodes, such as centers, come as (B, 1, k) arrays; values at time 0, such as
base points and seed vectors, come as (B, k) arrays.  One point shared by
every trial may come as (k,).  A shape that fits no trial layout raises
ValueError naming its argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    OutOfInjectivityDomain,
    OutsideAveragingDomain,
    OutsidePatch,
    OutsideTube,
)
from .loops import SampledLoop, _broadcasts_to
from .manifolds import (
    EmbeddedManifold,
    LocalAdditionSpec,
    TangentAtPoint,
    _rk4,
    _same_point,
    _step_size,
)
from .charts import TangentSection


# -- smooth bump profile --------------------------------------------------------

#: the bump is 1 for |w|^2 <= BUMP_LOWER and 0 for |w|^2 >= BUMP_UPPER
BUMP_LOWER = 1.0
BUMP_UPPER = 2.0


def _mollifier(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    m = s > 0
    out[m] = np.exp(-1.0 / s[m])
    return out


def _bump(x) -> np.ndarray:
    """A smooth profile equal to 1 on (-inf, BUMP_LOWER] and 0 on
    [BUMP_UPPER, inf).

    Built from the standard exp(-1/x) mollifier, so it is monotone on the
    transition band.
    """
    x = np.asarray(x, dtype=np.float64)
    a = _mollifier(BUMP_UPPER - x)
    b = _mollifier(x - BUMP_LOWER)
    total = a + b
    return a / np.where(total == 0.0, 1.0, total)


def _flow_constant_direction(w, c, steps: int, sign: float = 1.0) -> np.ndarray:
    """Flow of w' = _bump(|w|^2) c over unit time, batched over rows.

    The field is parallel to c, so each row stays on the line w0 + sigma c
    with sigma' = _bump(q(sigma)), sigma(0) = 0, where
    q(sigma) = |w0 + sigma c|^2 = q0 + b sigma + a sigma^2.  As the bump
    lies in [0, 1], sigma stays in [0, 1], and q is convex, so a row with
    max(q(0), q(1)) <= BUMP_LOWER translates by exactly c, and a row with
    q(0) >= BUMP_UPPER (or c = 0) never moves.  Only the rows left in the
    transition band integrate sigma, by fixed-step RK4.
    """
    h = _step_size(1.0, steps)
    w = np.asarray(w, dtype=np.float64)
    c = sign * np.asarray(c, dtype=np.float64)
    shape = np.broadcast_shapes(w.shape, c.shape)
    w = np.broadcast_to(w, shape).reshape(-1, shape[-1])
    c = np.broadcast_to(c, shape).reshape(-1, shape[-1])
    q0 = np.sum(w * w, axis=-1)
    b = 2.0 * np.sum(w * c, axis=-1)
    a = np.sum(c * c, axis=-1)
    translate = np.maximum(q0, q0 + b + a) <= BUMP_LOWER
    band = ~translate & (q0 < BUMP_UPPER) & (a > 0.0)
    out = np.where(translate[:, None], w + c, w)
    if np.any(band):
        q0, b, a = q0[band], b[band], a[band]

        def rate(t, s):
            return _bump(q0 + s * (b + a * s))

        s = _rk4(rate, np.zeros_like(q0), 0.0, h, steps)
        out[band] = w[band] + s[:, None] * c[band]
    return out.reshape(shape)


@dataclass(frozen=True)
class FlowDiffeo:
    """The compactly supported diffeomorphism exp(X_v), X_v(u) = rho(|u|^2) v.

    Flowing for unit time from the origin lands exactly on v whenever
    |v| <= sqrt(BUMP_LOWER): the segment from 0 to v lies in the plateau,
    so the flow returns v by construction.  Inversion flows the reversed
    field.
    """

    vector: np.ndarray
    steps: int = 100

    def __post_init__(self):
        object.__setattr__(self, "vector",
                           np.asarray(self.vector, dtype=np.float64))

    def forward(self, u) -> np.ndarray:
        return _flow_constant_direction(u, self.vector, self.steps)

    def inverse(self, u) -> np.ndarray:
        return _flow_constant_direction(u, self.vector, self.steps, sign=-1.0)


def _fit(name: str, value, loop: SampledLoop, over_nodes: bool) -> np.ndarray:
    """``value`` as points or vectors for the trials of ``loop``: its axes
    before the component axis must broadcast to the loop's trial axes,
    followed by a length-1 node axis when it broadcasts over the nodes.
    Raises ValueError naming ``name`` otherwise."""
    value = np.asarray(value, dtype=np.float64)
    trials = loop.samples.shape[:-2] + (1,) * over_nodes
    if value.ndim == 0 or not _broadcasts_to(value.shape[:-1], trials):
        raise ValueError(f"{name} of shape {value.shape} does not fit loops of "
                         f"shape {loop.samples.shape}")
    return value


def _require_pair(name: str, first: SampledLoop, second: SampledLoop) -> None:
    """Raise ValueError naming ``name`` unless the two loops of a pair have
    one shape."""
    if first.samples.shape != second.samples.shape:
        raise ValueError(f"{name} holds loops of shapes {first.samples.shape} "
                         f"and {second.samples.shape}")


# -- the based fibration --------------------------------------------------------

def _patch_seed(manifold: EmbeddedManifold, center, u):
    """v = log_center(u) per trial; raises OutsidePatch unless every u lies
    within the plateau radius of its center."""
    manifold.require_on_manifold(center)
    # a NaN distance fails this test, so it must run before log
    if not np.all(manifold.dist(center, u) <= np.sqrt(BUMP_LOWER)):
        raise OutsidePatch("base point outside the trivializing patch")
    # off the manifold, log has a normal part that exp would carry along
    manifold.require_on_manifold(u)
    return manifold.log(center, u)


def _apply_patch_flow(manifold: EmbeddedManifold, center, samples: np.ndarray,
                      v: np.ndarray, steps: int, sign: float) -> np.ndarray:
    out = samples.copy()
    inside = manifold.dist(center, samples) < np.sqrt(BUMP_UPPER)
    if np.any(inside):
        c_in = np.broadcast_to(center, samples.shape)[inside]
        w = manifold.log(c_in, samples[inside])
        moved = _flow_constant_direction(w, np.broadcast_to(v, samples.shape)[inside],
                                         steps, sign=sign)
        out[inside] = manifold.exp(c_in, moved)
    return out


def based_trivialize(manifold: EmbeddedManifold, center, gamma: SampledLoop,
                     steps: int = 100):
    """Split a loop near the fiber at ``center``: gamma -> (omega, u).

    u = gamma(0); omega is gamma pushed through the inverse of the
    compactly supported diffeomorphism phi_u that carries the center to u,
    the flow of a bump field in the exponential chart about the center, so
    omega(0) is the center.  The patch of base points u is the closed ball
    of radius sqrt(BUMP_LOWER) = 1 about the center; nodes at distance
    sqrt(BUMP_UPPER) = sqrt(2) or more never move, bit for bit.  Inverse:
    :func:`based_detrivialize`.
    """
    center = _fit("center", center, gamma, over_nodes=True)
    u = gamma.samples[..., 0, :]
    v = _patch_seed(manifold, center, u[..., None, :])
    omega = _apply_patch_flow(manifold, center, gamma.samples, v, steps, -1.0)
    return SampledLoop(omega), u


def based_detrivialize(manifold: EmbeddedManifold, center, omega: SampledLoop, u,
                       steps: int = 100) -> SampledLoop:
    """Inverse of :func:`based_trivialize`: (omega, u) -> phi_u(omega)."""
    center = _fit("center", center, omega, over_nodes=True)
    u = _fit("u", u, omega, over_nodes=False)
    v = _patch_seed(manifold, center, u[..., None, :])
    moved = _apply_patch_flow(manifold, center, omega.samples, v, steps, 1.0)
    return SampledLoop(moved)


# -- partition-of-unity sections of TM -------------------------------------------

def pou_section(manifold: EmbeddedManifold, v: TangentAtPoint):
    """The global section s(v) with s(v)(base) = v, linear in v.

    Returns the map points (..., k) -> (..., k).  A stack of seeds, with
    base and vector of shape (B, k), gives the map of points (B, ..., k)
    that sends trial b through the section of seed b.  Over the squared
    partition ``manifold.tangent_partition()``, s(v)(x) is the sum over its
    (weight, frame) pairs (w, F) of w(p) w(x) F(x) F(p)^T v, with p the base
    of v.
    """
    trials = v.base.ndim - 1
    p = v.base[..., None, :]
    terms = []
    for weight, frame in manifold.tangent_partition():
        wp = weight(p)[..., 0]
        if np.any(wp != 0.0):
            coords = np.einsum("...kn,...k->...n", frame(p)[..., 0, :, :], v.vector)
            terms.append((weight, frame, wp, coords))

    def section(points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        nodes = (1,) * (points.ndim - 1 - trials)  # between trial and component axes
        out = np.zeros_like(points)
        for weight, frame, wp, coords in terms:
            wp = wp.reshape(wp.shape + nodes + (1,))
            coords = coords.reshape(coords.shape[:-1] + nodes + coords.shape[-1:])
            out += wp * weight(points)[..., None] * np.einsum(
                "...kn,...n->...k", frame(points), coords)
        return out

    return section


# -- tubes around coincidence submanifolds ----------------------------------------

TUBE_RADIUS = 1.0  # fiber-coordinate radius of exactly recoverable seeds


def _fiber_flow(manifold: EmbeddedManifold, anchors: SampledLoop, loop: SampledLoop,
                v: TangentAtPoint, steps: int, sign: float) -> SampledLoop:
    """Flow the nodes of ``loop`` vertically in the fibers over ``anchors``.

    Each point q is pulled back to w = nu^{-1}(q) in the fiber at its
    anchor a, flowed along w' = _bump(|w|^2) * s(v)(a), and pushed forward.
    Points outside the tube (or beyond the flow support) stay fixed; the
    decompression sends the tube boundary to infinity, so the extension by
    the identity is smooth.
    """
    addition = LocalAdditionSpec(manifold)
    anchors, points = anchors.samples, loop.samples
    drive = pou_section(manifold, v)(anchors)
    out = points.copy()
    # a zero field flows as the identity; skip such nodes exactly
    inside = (manifold.dist(anchors, points) < addition.epsilon * 0.999999) & \
        (np.linalg.norm(drive, axis=-1) > 0.0)
    if np.any(inside):
        a_in = anchors[inside]
        w = addition.decompress(manifold.log(a_in, points[inside]))
        moved = _flow_constant_direction(w, drive[inside], steps, sign=sign)
        out[inside] = addition.forward(a_in, moved)
    return SampledLoop(out)


def _tube_forward(manifold: EmbeddedManifold, anchors: SampledLoop,
                  loop: SampledLoop, v: TangentAtPoint, steps: int) -> SampledLoop:
    """The tube map over ``anchors`` with a seed based at the anchor at 0."""
    a0 = anchors.samples[..., 0, :]
    base = _fit("v", v.base, anchors, over_nodes=False)
    if not _same_point(np.broadcast_to(base, a0.shape), a0) or \
            not np.all(np.linalg.norm(v.vector, axis=-1) <= TUBE_RADIUS):
        raise OutsideTube("seed vector outside the tube-radius ball")
    return _fiber_flow(manifold, anchors, loop, v, steps, 1.0)


def _tube_inverse(manifold: EmbeddedManifold, anchors: SampledLoop,
                  loop: SampledLoop, steps: int):
    """Inverse of :func:`_tube_forward`; the seed is nu^{-1}(loop(0)) at anchors(0)."""
    addition = LocalAdditionSpec(manifold)
    a0, b0 = anchors.samples[..., 0, :], loop.samples[..., 0, :]
    if not np.all(manifold.dist(a0, b0) < addition.epsilon):
        raise OutsideTube("base points outside the tube")
    vec = addition.decompress(manifold.log(a0, b0))
    if not np.all(np.linalg.norm(vec, axis=-1) <= TUBE_RADIUS):
        raise OutsideTube("base points beyond the tube-radius ball")
    v = TangentAtPoint(manifold, a0, vec)
    return _fiber_flow(manifold, anchors, loop, v, steps, -1.0), v


def point_tube_forward(manifold: EmbeddedManifold, x0, alpha: SampledLoop,
                       v: TangentAtPoint, steps: int = 100) -> SampledLoop:
    """Tube map for the submanifold of loops through x0.

    Carries (alpha, v) with alpha(0) = x0 and v in T_{x0}M to a loop whose
    value at 0 is nu(v): the diagonal tube map over the constant loop at x0.
    """
    x0 = _fit("x0", x0, alpha, over_nodes=True)
    anchors = np.broadcast_to(x0, alpha.samples.shape)
    if not _same_point(alpha.samples[..., 0, :], anchors[..., 0, :]):
        raise OutsideTube("loop is not based at the submanifold point")
    return _tube_forward(manifold, SampledLoop(anchors), alpha, v, steps)


def point_tube_inverse(manifold: EmbeddedManifold, x0, beta: SampledLoop,
                       steps: int = 100):
    """Inverse tube map: beta -> (alpha based at x0, v = nu^{-1}(beta(0)))."""
    x0 = _fit("x0", x0, beta, over_nodes=True)
    anchors = SampledLoop(np.broadcast_to(x0, beta.samples.shape))
    return _tube_inverse(manifold, anchors, beta, steps)


def diagonal_tube_forward(manifold: EmbeddedManifold, alpha_pair,
                          v: TangentAtPoint, steps: int = 100):
    """Tube map for pairs of loops coinciding at time 0.

    The first loop is the anchor and never moves; the second is flowed
    vertically in the fibers over the first, driven by the
    partition-of-unity section seeded with v at the common base point.
    """
    a1, a2 = alpha_pair
    _require_pair("alpha_pair", a1, a2)
    if not _same_point(a1.samples[..., 0, :], a2.samples[..., 0, :]):
        raise OutsideTube("pair does not coincide at time 0")
    return a1, _tube_forward(manifold, a1, a2, v, steps)


def diagonal_tube_inverse(manifold: EmbeddedManifold, beta_pair,
                          steps: int = 100):
    """Inverse of :func:`diagonal_tube_forward`."""
    b1, b2 = beta_pair
    _require_pair("beta_pair", b1, b2)
    moved, v = _tube_inverse(manifold, b1, b2, steps)
    return (b1, moved), v


# -- equivariant averaging -----------------------------------------------------

@dataclass(frozen=True)
class FinitePointMap:
    """A map from a compact subgroup of the circle into M.

    ``order`` is m >= 1 for the cyclic group C_m; order 0 encodes the whole
    circle, sampled at the rows of ``values``.  Axes between the first and
    the last of ``values`` batch several maps.
    """

    manifold: EmbeddedManifold
    order: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if self.order >= 1 and vals.shape[0] != self.order:
            raise ValueError("cyclic map must have one value per group element")
        self.manifold.require_on_manifold(vals)


def local_average(manifold: EmbeddedManifold, beta: FinitePointMap) -> np.ndarray:
    """Nearest-point projection of the group average of the values.

    The finite mean for C_m, the uniform quadrature mean for the circle;
    raises OutsideTube when the Euclidean mean leaves the projection domain.
    """
    return manifold.project_point(beta.values.mean(axis=0))


def _cosets(order: int, samples: np.ndarray) -> np.ndarray:
    """The samples (..., N, k) as (m, ..., N/m, k), row i the i-th element
    of every coset of C_m; order 0 or 1 is the circle group, m = N."""
    if order < 0:
        raise ValueError("order must be >= 0")
    n = samples.shape[-2]
    m = order if order >= 2 else n
    if n % m != 0:
        raise ValueError("resolution must be divisible by the group order")
    cosets = samples.reshape(samples.shape[:-2] + (m, n // m, samples.shape[-1]))
    return np.moveaxis(cosets, -3, 0)


def equivariant_decompose(manifold: EmbeddedManifold, order: int,
                          gamma: SampledLoop):
    """Split a loop near the fixed set of a circle-subgroup action.

    For the cyclic group C_m (order m >= 2) the fixed part at t is the
    local average of gamma over the coset {t + i/m}, a loop of period 1/m;
    order 0 or 1 selects the full circle group, whose fixed part is the
    constant loop at the average.  The normal part is the nodewise log of
    gamma about the fixed part; its coset means vanish after linearization
    because the averaging residue is orthogonal to the tangent space.
    """
    cosets = _cosets(order, gamma.samples)
    m = cosets.shape[0]
    try:
        anchors = local_average(manifold, FinitePointMap(manifold, m, cosets))
        fixed_samples = np.tile(anchors, (m, 1))
        normals = manifold.log(fixed_samples, gamma.samples)
    except (OutsideTube, OutOfInjectivityDomain) as exc:
        raise OutsideAveragingDomain(str(exc)) from exc
    fixed = SampledLoop(fixed_samples)
    normal = TangentSection(manifold, fixed, normals)
    return fixed, normal


def equivariant_recompose(manifold: EmbeddedManifold, fixed: SampledLoop,
                          normal: TangentSection) -> SampledLoop:
    """Inverse of :func:`equivariant_decompose`."""
    return SampledLoop(manifold.exp(fixed.samples, normal.vectors))


def coset_mean_residual(manifold: EmbeddedManifold, order: int,
                        gamma: SampledLoop, fixed: SampledLoop) -> float:
    """Max norm of the linearized coset means of the normal data.

    Linearized normal data is the orthogonal projection of the chords onto
    the tangent spaces at the fixed part; by construction of the average
    its coset means vanish.
    """
    chords = gamma.samples - fixed.samples
    proj = manifold.project_tangent_vector(fixed.samples, chords)
    means = _cosets(order, proj).mean(axis=0)
    return float(np.max(np.linalg.norm(means, axis=-1)))
