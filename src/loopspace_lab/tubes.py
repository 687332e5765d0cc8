"""Tubular-neighbourhood machinery for loop spaces.

Four constructions, all driven by compactly supported flows:

* the splitting of the based-loop fibration through flows of bump fields in
  a chart patch,
* partition-of-unity sections of the tangent bundle, linear in the seed
  vector and reproducing it at its base point,
* tubes around coincidence submanifolds (loops through a fixed point, and
  pairs of loops agreeing at time zero), built by flowing fiberwise in a
  normal bundle, and
* equivariant averaging: local averages of finite point clouds, and the
  decomposition of a loop near the fixed set of a cyclic or circle action
  into a periodic part plus normal data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    OutOfInjectivityDomain,
    OutsideAveragingDomain,
    OutsidePatch,
    OutsideTube,
)
from .loops import SampledLoop
from .manifolds import (
    EmbeddedManifold,
    Flat,
    FlatTorus2,
    LocalAdditionSpec,
    Sphere2,
    TangentAtPoint,
    _rk4,
    tubular_projection,
)
from .charts import TangentSection


# -- smooth bump profile --------------------------------------------------------

def _mollifier(s: np.ndarray) -> np.ndarray:
    out = np.zeros_like(s)
    m = s > 0
    out[m] = np.exp(-1.0 / s[m])
    return out


@dataclass(frozen=True)
class BumpProfile:
    """A smooth profile equal to 1 on (-inf, lower] and 0 on [upper, inf).

    Built from the standard exp(-1/x) mollifier, so it is monotone on the
    transition band.
    """

    lower: float = 1.0
    upper: float = 2.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        a = _mollifier(self.upper - x)
        b = _mollifier(x - self.lower)
        total = a + b
        return a / np.where(total == 0.0, 1.0, total)


BUMP = BumpProfile()


def _flow_constant_direction(w, c, profile: BumpProfile, steps: int,
                             sign: float = 1.0) -> np.ndarray:
    """Flow of w' = profile(|w|^2) c over unit time, batched over rows.

    The field is parallel to c, so each row stays on the line w0 + sigma c
    with sigma' = profile(q(sigma)), sigma(0) = 0, where
    q(sigma) = |w0 + sigma c|^2 = q0 + b sigma + a sigma^2.  As the profile
    lies in [0, 1], sigma stays in [0, 1], and q is convex, so a row with
    max(q(0), q(1)) <= lower translates by exactly c, and a row with
    q(0) >= upper (or c = 0) never moves.  Only the rows left in the
    transition band integrate sigma, by fixed-step RK4.
    """
    w = np.asarray(w, dtype=np.float64)
    c = sign * np.asarray(c, dtype=np.float64)
    shape = np.broadcast_shapes(w.shape, c.shape)
    w = np.broadcast_to(w, shape).reshape(-1, shape[-1])
    c = np.broadcast_to(c, shape).reshape(-1, shape[-1])
    q0 = np.sum(w * w, axis=-1)
    b = 2.0 * np.sum(w * c, axis=-1)
    a = np.sum(c * c, axis=-1)
    translate = np.maximum(q0, q0 + b + a) <= profile.lower
    band = ~translate & (q0 < profile.upper) & (a > 0.0)
    out = np.where(translate[:, None], w + c, w)
    if np.any(band):
        q0, b, a = q0[band], b[band], a[band]

        def rate(t, s):
            return profile(q0 + s * (b + a * s))

        s = _rk4(rate, np.zeros_like(q0), 0.0, 1.0 / steps, steps)
        out[band] = w[band] + s[:, None] * c[band]
    return out.reshape(shape)


@dataclass(frozen=True)
class FlowDiffeo:
    """The compactly supported diffeomorphism exp(X_v), X_v(u) = rho(|u|^2) v.

    Flowing for unit time from the origin lands exactly on v whenever
    |v| <= sqrt(lower of the profile): the segment from 0 to v lies in the
    plateau, so the flow returns v by construction.  Inversion flows the
    reversed field.
    """

    vector: np.ndarray
    steps: int = 100
    profile: BumpProfile = field(default_factory=BumpProfile)

    def __post_init__(self):
        object.__setattr__(self, "vector",
                           np.asarray(self.vector, dtype=np.float64))

    def forward(self, u) -> np.ndarray:
        return _flow_constant_direction(u, self.vector, self.profile, self.steps)

    def inverse(self, u) -> np.ndarray:
        return _flow_constant_direction(u, self.vector, self.profile, self.steps,
                                        sign=-1.0)


# -- chart patches for the based fibration ---------------------------------------

class PatchChart:
    """A coordinate patch phi : R^n -> U of the manifold with phi(0) = center.

    ``mask`` marks points whose coordinates are safely below the flow
    support; everything else is left fixed by induced diffeomorphisms.
    """

    manifold: EmbeddedManifold
    center: np.ndarray

    def to_coords(self, points) -> np.ndarray:
        raise NotImplementedError

    def from_coords(self, coords) -> np.ndarray:
        raise NotImplementedError

    def mask(self, points) -> np.ndarray:
        raise NotImplementedError


class FlatChart(PatchChart):
    def __init__(self, manifold: Flat, center):
        self.manifold = manifold
        self.center = np.asarray(center, dtype=np.float64)

    def to_coords(self, points):
        return np.asarray(points, dtype=np.float64) - self.center

    def from_coords(self, coords):
        return np.asarray(coords, dtype=np.float64) + self.center

    def mask(self, points):
        points = np.asarray(points)
        return np.ones(points.shape[:-1], dtype=bool)


class SphereStereoChart(PatchChart):
    """Stereographic coordinates about a center point of S^2.

    Projection is from the antipode, so the chart covers everything except
    it; points within distance ~2pi/3 of the antipode are masked out, far
    beyond the flow support radius sqrt(2).
    """

    def __init__(self, manifold: Sphere2, center):
        self.manifold = manifold
        self.center = np.asarray(center, dtype=np.float64)
        manifold.require_on_manifold(self.center)
        seed = np.array([1.0, 0.0, 0.0])
        if abs(self.center @ seed) > 0.9:
            seed = np.array([0.0, 1.0, 0.0])
        e1 = seed - (seed @ self.center) * self.center
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(self.center, e1)
        self._basis = np.stack([e1, e2], axis=0)  # (2, 3)

    def to_coords(self, points):
        q = np.asarray(points, dtype=np.float64)
        c = q @ self.center
        denom = 1.0 + c
        denom = np.where(np.abs(denom) < 1e-12, 1e-12, denom)
        return (q @ self._basis.T) / denom[..., None]

    def from_coords(self, coords):
        w = np.asarray(coords, dtype=np.float64)
        r2 = np.sum(w * w, axis=-1, keepdims=True)
        planar = 2.0 * (w @ self._basis)
        return (planar + (1.0 - r2) * self.center) / (1.0 + r2)

    def mask(self, points):
        q = np.asarray(points, dtype=np.float64)
        return (q @ self.center) > -0.5


class TorusAngleChart(PatchChart):
    """Wrapped angle offsets about a center point of the flat torus."""

    def __init__(self, manifold: FlatTorus2, center):
        self.manifold = manifold
        self.center = np.asarray(center, dtype=np.float64)
        manifold.require_on_manifold(self.center)
        self._a0 = np.array(manifold._angles(self.center))

    def to_coords(self, points):
        a1, a2 = self.manifold._angles(np.asarray(points, dtype=np.float64))
        d1 = (a1 - self._a0[0] + np.pi) % (2 * np.pi) - np.pi
        d2 = (a2 - self._a0[1] + np.pi) % (2 * np.pi) - np.pi
        return np.stack([d1, d2], axis=-1)

    def from_coords(self, coords):
        w = np.asarray(coords, dtype=np.float64)
        n1 = self._a0[0] + w[..., 0]
        n2 = self._a0[1] + w[..., 1]
        return np.stack([np.cos(n1), np.sin(n1), np.cos(n2), np.sin(n2)], axis=-1)

    def mask(self, points):
        points = np.asarray(points)
        return np.ones(points.shape[:-1], dtype=bool)


def patch_chart(manifold: EmbeddedManifold, center) -> PatchChart:
    if isinstance(manifold, Flat):
        return FlatChart(manifold, center)
    if isinstance(manifold, Sphere2):
        return SphereStereoChart(manifold, center)
    if isinstance(manifold, FlatTorus2):
        return TorusAngleChart(manifold, center)
    raise ValueError(f"no chart construction for {manifold!r}")


def _apply_patch_flow(chart: PatchChart, samples: np.ndarray, v: np.ndarray,
                      steps: int, sign: float, profile: BumpProfile) -> np.ndarray:
    out = samples.copy()
    mask = chart.mask(samples)
    if np.any(mask):
        w = chart.to_coords(samples[mask])
        moved = _flow_constant_direction(w, v, profile, steps, sign=sign)
        out[mask] = chart.from_coords(moved)
    return out


def based_trivialize(chart: PatchChart, gamma: SampledLoop, steps: int = 100,
                     profile: BumpProfile = BUMP):
    """Split a loop near the fiber at the chart center: gamma -> (omega, u).

    u = gamma(0); omega is gamma pushed through the inverse of the
    compactly supported diffeomorphism phi_u that carries the center to u,
    so omega(0) is the center.  Inverse: :func:`based_detrivialize`.
    """
    u = gamma.samples[0]
    v = chart.to_coords(u)
    if not np.all(chart.mask(u[None])[0]) or np.linalg.norm(v) > np.sqrt(profile.lower):
        raise OutsidePatch("loop base point outside the trivializing patch")
    omega = _apply_patch_flow(chart, gamma.samples, v, steps, -1.0, profile)
    return SampledLoop(omega), u


def based_detrivialize(chart: PatchChart, omega: SampledLoop, u, steps: int = 100,
                       profile: BumpProfile = BUMP) -> SampledLoop:
    """Inverse of :func:`based_trivialize`: (omega, u) -> phi_u(omega)."""
    v = chart.to_coords(np.asarray(u, dtype=np.float64))
    if np.linalg.norm(v) > np.sqrt(profile.lower):
        raise OutsidePatch("target base point outside the trivializing patch")
    moved = _apply_patch_flow(chart, omega.samples, v, steps, 1.0, profile)
    return SampledLoop(moved)


# -- squared partitions of unity and bundle sections -------------------------------

@dataclass(frozen=True)
class BundlePatch:
    """A trivializing patch of the tangent bundle: a weight function and a
    smooth orthonormal frame on the region where the weight is nonzero."""

    weight: object  # points (..., k) -> (...,)
    frame: object   # points (..., k) -> (..., k, n)


@dataclass(frozen=True)
class SquaredPartition:
    """Patches whose squared weights sum to one."""

    patches: tuple

    def validate(self, manifold: EmbeddedManifold, rng, probes: int = 25,
                 tol: float = 1e-10) -> float:
        worst = 0.0
        for _ in range(probes):
            p = manifold.random_point(rng)
            total = sum(float(patch.weight(p[None])[0]) ** 2 for patch in self.patches)
            worst = max(worst, abs(total - 1.0))
        if worst > tol:
            raise ValueError(f"squared weights sum to 1 only to {worst:.3e}")
        return worst


def tangent_partition(manifold: EmbeddedManifold) -> SquaredPartition:
    """A squared partition of unity trivializing TM.

    Flat space and the torus are parallelizable, so a single full-weight
    patch suffices.  The sphere uses the two polar patches with the
    half-colatitude sine/cosine weights, whose squares sum to one exactly.
    """
    if isinstance(manifold, (Flat, FlatTorus2)):
        if isinstance(manifold, Flat):
            eye = np.eye(manifold.ambient_dim)

            def frame(points, eye=eye):
                points = np.asarray(points)
                return np.broadcast_to(eye, points.shape[:-1] + eye.shape).copy()
        else:
            def frame(points):
                f1, f2 = manifold._frame(np.asarray(points, dtype=np.float64))
                return np.stack([f1, f2], axis=-1)

        def weight(points):
            points = np.asarray(points)
            return np.ones(points.shape[:-1])

        return SquaredPartition((BundlePatch(weight, frame),))

    if isinstance(manifold, Sphere2):
        north = np.array([0.0, 0.0, 1.0])

        def make_patch(pole):
            chart = SphereStereoChart(manifold, pole)

            def weight(points, pole=pole):
                c = np.clip(np.asarray(points, dtype=np.float64) @ pole, -1.0, 1.0)
                return np.sqrt((1.0 + c) / 2.0)

            def frame(points, chart=chart):
                q = np.asarray(points, dtype=np.float64)
                w = chart.to_coords(q)
                r2 = np.sum(w * w, axis=-1, keepdims=True)
                basis = chart._basis  # (2, 3)
                # d(from_coords)/dw_i, normalized by the conformal factor
                cols = []
                for i in range(2):
                    wi = w[..., i:i + 1]
                    grad = (2.0 * basis[i] * (1.0 + r2)
                            - 2.0 * wi * (2.0 * (w @ basis) + (1.0 - r2) * pole)
                            - 2.0 * wi * pole * (1.0 + r2)) / (1.0 + r2) ** 2
                    cols.append(grad / np.linalg.norm(grad, axis=-1, keepdims=True))
                return np.stack(cols, axis=-1)

            return BundlePatch(weight, frame)

        return SquaredPartition((make_patch(north), make_patch(-north)))

    raise ValueError(f"no partition construction for {manifold!r}")


class PouSection:
    """A compactly supported section of TM, linear in its seed vector."""

    def __init__(self, manifold: EmbeddedManifold, partition: SquaredPartition,
                 base_point, vector):
        self.manifold = manifold
        self.partition = partition
        self.base_point = np.asarray(base_point, dtype=np.float64)
        self.vector = np.asarray(vector, dtype=np.float64)
        manifold.require_on_manifold(self.base_point)

    def __call__(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        single = points.ndim == 1
        pts = points[None] if single else points
        out = np.zeros_like(pts)
        p = self.base_point[None]
        for patch in self.partition.patches:
            wp = float(patch.weight(p)[0])
            if wp == 0.0:
                continue
            coords = np.einsum("kn,k->n", patch.frame(p)[0], self.vector)
            wx = patch.weight(pts)
            fx = patch.frame(pts)
            out += wp * wx[..., None] * np.einsum("...kn,n->...k", fx, coords)
        return out[0] if single else out


def pou_section(manifold: EmbeddedManifold, v: TangentAtPoint,
                partition: SquaredPartition | None = None) -> PouSection:
    """The global section s(v) with s(v)(base) = v, linear in v."""
    if partition is None:
        partition = tangent_partition(manifold)
    return PouSection(manifold, partition, v.base, v.vector)


# -- tubes around coincidence submanifolds ----------------------------------------

TUBE_RADIUS = 1.0  # fiber-coordinate radius of exactly recoverable seeds


def _fiber_flow(manifold, addition: LocalAdditionSpec, anchors, points, drive,
                steps: int, sign: float, profile: BumpProfile):
    """Flow points of M vertically in the fibers over the anchors.

    Each point q is pulled back to w = nu^{-1}(q) in the fiber at its
    anchor, flowed along w' = tau(|w|^2) * drive, and pushed forward again.
    Points outside the tube (or beyond the flow support) stay fixed; the
    decompression sends the tube boundary to infinity, so the extension by
    the identity is smooth.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    drive = np.asarray(drive, dtype=np.float64)
    out = points.copy()
    dist = manifold.dist(anchors, points)
    # a zero field flows as the identity; skip such nodes exactly
    inside = (dist < addition.epsilon * 0.999999) & \
        (np.linalg.norm(drive, axis=-1) > 0.0)
    if not np.any(inside):
        return out
    a_in = anchors[inside]
    w = addition.decompress(manifold.log(a_in, points[inside]))
    moved = _flow_constant_direction(w, drive[inside], profile, steps, sign=sign)
    out[inside] = manifold.exp(a_in, addition.compress(moved))
    return out


def point_tube_forward(manifold: EmbeddedManifold, x0, alpha: SampledLoop,
                       v: TangentAtPoint, steps: int = 100,
                       profile: BumpProfile = BUMP) -> SampledLoop:
    """Tube map for the submanifold of loops through x0.

    Carries (alpha, v) with alpha(0) = x0 and v in T_{x0}M to a loop whose
    value at 0 is nu(v), by flowing every node vertically in the fiber
    coordinates of the local addition at x0.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if np.max(np.abs(alpha.samples[0] - x0)) > 1e-9:
        raise OutsideTube("loop is not based at the submanifold point")
    if np.max(np.abs(v.base - x0)) > 1e-9 or v.norm > TUBE_RADIUS:
        raise OutsideTube("seed vector outside the tube-radius ball")
    addition = LocalAdditionSpec(manifold)
    anchors = np.broadcast_to(x0, alpha.samples.shape)
    drive = np.broadcast_to(v.vector, alpha.samples.shape)
    out = _fiber_flow(manifold, addition, anchors, alpha.samples, drive,
                      steps, 1.0, profile)
    return SampledLoop(out)


def point_tube_inverse(manifold: EmbeddedManifold, x0, beta: SampledLoop,
                       steps: int = 100, profile: BumpProfile = BUMP):
    """Inverse tube map: beta -> (alpha based at x0, v = nu^{-1}(beta(0)))."""
    x0 = np.asarray(x0, dtype=np.float64)
    addition = LocalAdditionSpec(manifold)
    if manifold.dist(x0, beta.samples[0]) >= addition.epsilon:
        raise OutsideTube("loop base point outside the tube")
    vec = addition.decompress(manifold.log(x0, beta.samples[0]))
    if np.linalg.norm(vec) > TUBE_RADIUS:
        raise OutsideTube("loop base point beyond the tube-radius ball")
    anchors = np.broadcast_to(x0, beta.samples.shape)
    drive = np.broadcast_to(vec, beta.samples.shape)
    out = _fiber_flow(manifold, addition, anchors, beta.samples, drive,
                      steps, -1.0, profile)
    return SampledLoop(out), TangentAtPoint(manifold, x0, vec)


def diagonal_tube_forward(manifold: EmbeddedManifold, alpha_pair,
                          v: TangentAtPoint, steps: int = 100,
                          profile: BumpProfile = BUMP):
    """Tube map for pairs of loops coinciding at time 0.

    The first loop is the anchor and never moves; the second is flowed
    vertically in the fibers over the first, driven by the
    partition-of-unity section seeded with v at the common base point.
    """
    a1, a2 = alpha_pair
    if np.max(np.abs(a1.samples[0] - a2.samples[0])) > 1e-9:
        raise OutsideTube("pair does not coincide at time 0")
    if np.max(np.abs(v.base - a1.samples[0])) > 1e-9 or v.norm > TUBE_RADIUS:
        raise OutsideTube("seed vector outside the tube-radius ball")
    addition = LocalAdditionSpec(manifold)
    section = pou_section(manifold, v)
    drive = section(a1.samples)
    out = _fiber_flow(manifold, addition, a1.samples, a2.samples, drive,
                      steps, 1.0, profile)
    return a1, SampledLoop(out)


def diagonal_tube_inverse(manifold: EmbeddedManifold, beta_pair,
                          steps: int = 100, profile: BumpProfile = BUMP):
    """Inverse of :func:`diagonal_tube_forward`."""
    b1, b2 = beta_pair
    addition = LocalAdditionSpec(manifold)
    if manifold.dist(b1.samples[0], b2.samples[0]) >= addition.epsilon:
        raise OutsideTube("pair base points outside the diagonal tube")
    vec = addition.decompress(manifold.log(b1.samples[0], b2.samples[0]))
    if np.linalg.norm(vec) > TUBE_RADIUS:
        raise OutsideTube("pair base points beyond the tube-radius ball")
    v = TangentAtPoint(manifold, b1.samples[0], vec)
    section = pou_section(manifold, v)
    drive = section(b1.samples)
    out = _fiber_flow(manifold, addition, b1.samples, b2.samples, drive,
                      steps, -1.0, profile)
    return (b1, SampledLoop(out)), v


# -- equivariant averaging -----------------------------------------------------

@dataclass(frozen=True)
class FinitePointMap:
    """A map from a compact subgroup of the circle into M.

    ``order`` is m >= 1 for the cyclic group C_m; order 0 encodes the whole
    circle, sampled at the rows of ``values``.
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
    """Tubular projection of the group average of the values.

    The finite mean for C_m, the uniform quadrature mean for the circle;
    raises OutsideTube when the Euclidean mean leaves the projection domain.
    """
    mean = beta.values.mean(axis=0)
    return tubular_projection(manifold, mean)


def _coset_view(samples: np.ndarray, m: int) -> np.ndarray:
    n = samples.shape[0]
    if n % m != 0:
        raise ValueError("resolution must be divisible by the group order")
    return samples.reshape(m, n // m, samples.shape[1])


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
    m = order if order >= 2 else gamma.resolution
    samples = gamma.samples
    cosets = _coset_view(samples, m)
    means = cosets.mean(axis=0)
    try:
        anchors = manifold.project_point(means)
        fixed_samples = np.tile(anchors, (m, 1))
        normals = manifold.log(fixed_samples, samples)
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
    m = order if order >= 2 else gamma.resolution
    chords = gamma.samples - fixed.samples
    proj = manifold.project_tangent_vector(fixed.samples, chords)
    means = _coset_view(proj, m).mean(axis=0)
    return float(np.max(np.linalg.norm(means, axis=-1)))
