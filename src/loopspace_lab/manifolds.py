"""Embedded Riemannian manifolds: flat space, the unit sphere in R^3, and the
flat torus in R^4.

The sphere S^2 and the torus S^1 x S^1 are products of round unit spheres,
so both are one class, :class:`RoundSpheres`, which applies the unit-sphere
formulas factor by factor; each kind adds only its random draws and its
frames of TM (two polar patches on the sphere, a parallel frame on the
torus).

Each kind carries two routes to its geometry:

* closed-form maps (``exp``, ``log``, ``geodesic_transport``, ``dist``),
  vectorized over leading axes, used by the chart machinery, and
* generic integrators (:func:`exp_map`, :func:`parallel_transport`) that solve
  the geodesic and transport ODEs with a fixed-step 4th-order scheme and
  per-step reprojection; transport reads the sampled path through an in-repo
  not-a-knot cubic spline, so the module needs numpy only.

The two routes are independent, so one can serve as the oracle for the other.
Tangent vectors use the linear convention: v in T_pM is an ambient vector
fixed by the orthogonal projector at p.  Projectors and their derivatives
are applied to vectors, never built as matrices.  Each kind also builds what
the tubular constructions need from it: a squared partition of unity
trivializing TM, and random loops.  No kind carries a second chart: the
based fibration flows in the exponential chart that ``exp`` and ``log``
give about its center.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    IntegrationDiverged,
    OffManifold,
    OutOfInjectivityDomain,
    OutOfV,
    OutsideTube,
    ShootingFailed,
)
from .loops import SampledLoop, noise_draw, noise_loop

ON_MANIFOLD_TOL = 1e-8
TANGENT_TOL = 1e-10
MIDFLOW_TOL = 1e-6


def _same_point(a, b) -> bool:
    """One shape, and entrywise agreement to 1e-9; a NaN agrees with nothing."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.max(np.abs(a - b)) <= 1e-9)


class EmbeddedManifold:
    """Base class: an n-manifold embedded in R^k with orthogonal projectors.

    Subclasses write the constraint, the tangent projector and its
    directional derivative in apply form, the geodesic acceleration and the
    nearest-point projection once, as the underscored methods, on
    component-major arrays: the component axis leads, split into
    (factors, m) with factors * m = k, and the batch axes follow.  The
    public maps take points of shape (..., k) and apply those formulas
    through :meth:`_lead` and :meth:`_trail`; the integrators hold their
    state component major and call them directly.  Subclasses also provide
    closed-form exp/log/transport where available.
    """

    kind: str = "abstract"
    ambient_dim: int = 0
    intrinsic_dim: int = 0
    #: number of leading blocks the component axis splits into
    factors: int = 1
    #: compression scale of the default local addition
    local_addition_epsilon: float = 1.0
    #: radius of the balls on which exp is injective (every kind sets it)
    injectivity_radius: float = 0.0
    #: lower bound of the nearest-point projection domain (distance scale)
    projection_floor: float = 0.0

    # -- layout ---------------------------------------------------------------

    def _lead(self, *arrays):
        """Component-major views (factors, m, ...) of (..., k) arrays.  The
        arrays are broadcast against each other first: moved on its own, a
        (k,) point would not line up with a (B, N, k) vector."""
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        shapes = [a.shape for a in arrays]
        if shapes.count(shapes[0]) < len(shapes):
            arrays = np.broadcast_arrays(*arrays)
        shape = arrays[0].shape
        axes = (len(shape) - 1,) + tuple(range(len(shape) - 1))
        lead = (self.factors, shape[-1] // self.factors) + shape[:-1]
        return [a.transpose(axes).reshape(lead) for a in arrays]

    @staticmethod
    def _trail(x):
        """The C-contiguous (..., k) array of a component-major one."""
        x = x.reshape((-1,) + x.shape[2:])
        return np.ascontiguousarray(x.transpose(tuple(range(1, x.ndim)) + (0,)))

    # -- constraint and projectors ------------------------------------------

    def constraint_residual(self, p) -> np.ndarray:
        """How far each point is from the manifold, shape (...)."""
        return self._constraint_residual(*self._lead(p))

    def project_tangent_vector(self, p, w) -> np.ndarray:
        """P(p) w, the orthogonal projection of an ambient vector onto T_pM."""
        return self._trail(self._project_tangent_vector(*self._lead(p, w)))

    def projector_derivative(self, p, w, v) -> np.ndarray:
        """(dP[w]) v: the derivative of the projector field at p along w,
        applied to v."""
        return self._trail(self._projector_derivative(*self._lead(p, w, v)))

    def project_point(self, x) -> np.ndarray:
        """Nearest-point projection onto the manifold: x - result is normal
        at the result.  Raises OutsideTube outside the projection domain."""
        return self._trail(self._project_point(*self._lead(x)))

    def geodesic_acceleration(self, p, v) -> np.ndarray:
        """Ambient acceleration of the geodesic through (p, v)."""
        return self._trail(self._geodesic_acceleration(*self._lead(p, v)))

    def _constraint_residual(self, p):
        raise NotImplementedError

    def _project_tangent_vector(self, p, w):
        raise NotImplementedError

    def _projector_derivative(self, p, w, v):
        raise NotImplementedError

    def _project_point(self, x):
        raise NotImplementedError

    def _geodesic_acceleration(self, p, v):
        raise NotImplementedError

    # -- closed-form maps -----------------------------------------------------

    def exp(self, p, v) -> np.ndarray:
        """exp_p(v).  ``v`` must be tangent at p: it is not projected first,
        so a normal part would enter the result."""
        raise NotImplementedError

    def log(self, p, q) -> np.ndarray:
        raise NotImplementedError

    def geodesic_transport(self, p, v, w) -> np.ndarray:
        """Parallel transport of w along s -> exp(p, s v) to exp(p, v)."""
        raise NotImplementedError

    def dist(self, p, q) -> np.ndarray:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def require_on_manifold(self, p) -> None:
        res = np.max(np.atleast_1d(self.constraint_residual(p)))
        if not res <= ON_MANIFOLD_TOL:
            raise OffManifold(f"constraint residual {res:.3e} exceeds {ON_MANIFOLD_TOL:.1e}")

    def require_tangent(self, p, v) -> None:
        """Raise ValueError unless v is tangent at p; a NaN is not tangent."""
        res = np.max(np.abs(self.project_tangent_vector(p, v) - v))
        if not res <= TANGENT_TOL:
            raise ValueError(f"vector not tangent at its base (residual {res:.3e})")

    def random_point(self, rng) -> np.ndarray:
        raise NotImplementedError

    def loop_draw(self, rng, bandwidth: int = 3) -> tuple:
        """The generator calls of one random loop, in order: a tuple of arrays."""
        raise NotImplementedError

    def loop_from_draw(self, draw, n: int, wobble: float = 0.4) -> SampledLoop:
        """The loops (..., n, k) of a stack of :meth:`loop_draw` tuples, each
        part stacked on the same leading axes; each loop has its own bits."""
        raise NotImplementedError

    def random_loop(self, rng, n: int, wobble: float = 0.4,
                    bandwidth: int = 3) -> SampledLoop:
        """A random smooth loop on the manifold with O(1) geometry."""
        return self.loop_from_draw(self.loop_draw(rng, bandwidth), n, wobble)

    # -- frames for the tubular constructions ---------------------------------

    def tangent_frame(self, points) -> np.ndarray:
        """A global orthonormal frame of TM, shape (..., k, n)."""
        raise NotImplementedError

    def tangent_partition(self) -> tuple:
        """A squared partition of unity trivializing TM: ``(weight, frame)``
        pairs whose squared weights sum to one.  A weight maps points
        (..., k) to (...,), and its frame is a smooth orthonormal frame
        (..., k, n) where the weight is nonzero.

        A parallelizable kind needs a single full-weight patch over its
        global frame.
        """
        def weight(points):
            return np.ones(np.shape(points)[:-1])

        return ((weight, self.tangent_frame),)

    def __repr__(self):
        return f"{self.__class__.__name__}()"


class Flat(EmbeddedManifold):
    """R^n with the Euclidean metric."""

    projection_floor = -np.inf
    injectivity_radius = np.inf

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.kind = f"flat:{n}"
        self.ambient_dim = n
        self.intrinsic_dim = n

    def _constraint_residual(self, p):
        """Zero, or infinite for points with the wrong number of components."""
        return np.full(p.shape[2:], 0.0 if p.shape[1] == self.ambient_dim else np.inf)

    def _project_tangent_vector(self, p, w):
        return w.copy()

    def _projector_derivative(self, p, w, v):
        return np.zeros_like(v)

    def _project_point(self, x):
        return x.copy()

    def _geodesic_acceleration(self, p, v):
        return np.zeros_like(v)

    def exp(self, p, v):
        return np.asarray(p, dtype=np.float64) + v

    def log(self, p, q):
        return np.asarray(q, dtype=np.float64) - p

    def geodesic_transport(self, p, v, w):
        return np.asarray(w, dtype=np.float64).copy()

    def dist(self, p, q):
        return np.linalg.norm(np.asarray(q, dtype=np.float64) - p, axis=-1)

    def random_point(self, rng):
        return rng.normal(size=self.ambient_dim)

    def loop_draw(self, rng, bandwidth=3):
        return (noise_draw(rng, self.ambient_dim, bandwidth),)

    def loop_from_draw(self, draw, n, wobble=0.4):
        """The band-limited noise loops themselves, at amplitude 1: ``wobble``
        is ignored."""
        return noise_loop(draw[0], n)

    def tangent_frame(self, points):
        eye = np.eye(self.ambient_dim)
        return np.broadcast_to(eye, np.shape(points)[:-1] + eye.shape)

    def __repr__(self):
        return f"Flat({self.ambient_dim})"


class RoundSpheres(EmbeddedManifold):
    """A product of ``factors`` round unit spheres in R^m, embedded in R^k
    with k = factors * m and carrying the product metric.

    Every map is the unit-sphere formula applied to each factor, written
    once on component-major (factors, m, ...) arrays (see
    :class:`EmbeddedManifold`), so that one component of every point is one
    slice on axis 1.  Projectors are applied, never built: P v = v - p<p,v>
    and (dP[w]) v = -(w<p,v> + p<w,v>) per factor.

    The per-factor sums (inner products, norms, and the max and norm across
    the factors) are unrolled into slice-and-add arithmetic: the axis is 2 or
    3 long, where a numpy reduction costs far more per call than the adds,
    and the integrators call these maps thousands of times per run.  They
    add from +0.0 in component order, as ``np.sum`` does on the last axis
    with fewer than eight terms, so every result is bit for bit the
    row-major reduction's, signed zeros included.  Reductions over an
    ambient or a long axis stay ``np.sum`` and ``np.linalg.norm``: from eight
    terms numpy sums pairwise, in an order unrolled adds would not repeat.
    """

    factors: int = 1
    projection_floor = 0.1
    injectivity_radius = np.pi
    #: log precondition: every factor distance is below pi - CUT_MARGIN
    CUT_MARGIN = 1e-6

    @staticmethod
    def _dot(a, b):
        """<a, b> per factor, on axis 1 of (factors, m, ...) arrays and kept
        as length 1: the bits of np.sum on the row-major last axis."""
        p = a * b
        s = 0.0 + p[:, 0:1]
        for i in range(1, p.shape[1]):
            s += p[:, i:i + 1]
        return s

    @classmethod
    def _norm(cls, x):
        """|x| per factor, kept as length 1: np.linalg.norm's bits."""
        return np.sqrt(cls._dot(x, x))

    @classmethod
    def _chord(cls, p, q):
        """Per factor: q - <p,q> p, its norm and the angle from p to q."""
        c = np.clip(cls._dot(p, q), -1.0, 1.0)
        w = q - c * p
        nw = cls._norm(w)
        # arctan2 keeps the angle accurate at both ends of [0, pi]
        return w, nw, np.arctan2(nw, c)

    def _constraint_residual(self, p):
        r = self._norm(p)[:, 0]
        worst = np.abs(r[0] - 1.0)
        for i in range(1, self.factors):
            worst = np.maximum(worst, np.abs(r[i] - 1.0))
        return worst

    def _project_tangent_vector(self, p, w):
        return w - p * self._dot(p, w)

    def _projector_derivative(self, p, w, v):
        return -(w * self._dot(p, v) + p * self._dot(w, v))

    def _project_point(self, x):
        r = self._norm(x)
        if not np.all(r > self.projection_floor):
            raise OutsideTube("point too close to the centre of a sphere factor")
        return x / r

    def _geodesic_acceleration(self, p, v):
        return -self._dot(v, v) * p

    def exp(self, p, v):
        p, v = self._lead(p, v)
        theta = self._norm(v)
        return self._trail(np.cos(theta) * p + np.sinc(theta / np.pi) * v)

    def log(self, p, q):
        w, nw, theta = self._chord(*self._lead(p, q))
        if not np.all(theta < np.pi - self.CUT_MARGIN):
            raise OutOfInjectivityDomain("target at or beyond the antipode")
        scale = np.where(nw > 1e-300, theta / np.where(nw > 1e-300, nw, 1.0), 1.0)
        return self._trail(scale * w)

    def geodesic_transport(self, p, v, w):
        p, v, w = self._lead(p, v, w)
        theta = self._norm(v)
        safe = np.where(theta > 1e-300, theta, 1.0)
        u = np.where(theta > 1e-300, v / safe, 0.0 * v)
        a = self._dot(w, u)
        return self._trail(w + a * (-np.sin(theta) * p + (np.cos(theta) - 1.0) * u))

    def dist(self, p, q):
        _, _, theta = self._chord(*self._lead(p, q))
        theta = np.swapaxes(theta, 0, 1)  # the factor angles on the summed axis
        return np.sqrt(self._dot(theta, theta)[0, 0])


class Sphere2(RoundSpheres):
    """The unit sphere S^2 in R^3 with the round metric: one factor."""

    kind = "sphere2"
    ambient_dim = 3
    intrinsic_dim = 2
    factors = 1
    local_addition_epsilon = np.pi / 2

    def random_point(self, rng):
        x = rng.normal(size=3)
        return x / np.linalg.norm(x)

    def loop_draw(self, rng, bandwidth=3):
        # the center is normalized here: a 1-D norm is a dot product, whose
        # bits a norm along an axis of a stack need not repeat
        return self.random_point(rng), noise_draw(rng, 3, bandwidth)

    def loop_from_draw(self, draw, n, wobble=0.4):
        center, noise = draw
        noise = noise_loop(noise, n, wobble).samples
        spread = np.max(np.linalg.norm(noise, axis=-1), axis=-1)
        clamp = np.minimum(1.0, 0.55 / np.maximum(spread, 1e-12))
        return SampledLoop(self.project_point(
            center[..., None, :] + clamp[..., None, None] * noise))

    def tangent_partition(self):
        """The two polar patches with the half-colatitude sine/cosine
        weights, whose squares sum to one exactly.  Each frame is its pole's
        basis moved by parallel transport along the meridian, in closed form
        (a reflection).  A pole's basis is the rows (e1, pole x e1), with e1
        the first axis."""
        north = np.array([0.0, 0.0, 1.0])

        def make_patch(pole, basis):
            basis = np.array(basis)

            def weight(points):
                c = np.clip(np.asarray(points, dtype=np.float64) @ pole, -1.0, 1.0)
                return np.sqrt((1.0 + c) / 2.0)

            def frame(points):
                # B - <q,B> s / (|s|^2/2) with s = q + pole: the reflection
                # across s, orthonormal to rounding up to the floored antipode
                q = np.asarray(points, dtype=np.float64)
                s = q + pole
                denom = np.maximum(0.5 * np.sum(s * s, axis=-1), 1e-12)[..., None, None]
                return basis.T - (q @ basis.T)[..., None, :] * s[..., :, None] / denom

            return weight, frame

        return (make_patch(north, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                make_patch(-north, [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]))


class FlatTorus2(RoundSpheres):
    """The flat torus S^1 x S^1 embedded in R^4 as a product of unit circles."""

    kind = "torus2"
    ambient_dim = 4
    intrinsic_dim = 2
    factors = 2
    local_addition_epsilon = 1.0

    @staticmethod
    def from_angles(angles) -> np.ndarray:
        """The point whose circles sit at the given angles, shape (..., 4)."""
        a = np.asarray(angles, dtype=np.float64)
        return np.stack([np.cos(a), np.sin(a)], axis=-1).reshape(a.shape[:-1] + (4,))

    def random_point(self, rng):
        return self.from_angles(rng.uniform(0, 2 * np.pi, size=2))

    def loop_draw(self, rng, bandwidth=3):
        return rng.uniform(0, 2 * np.pi, size=2), noise_draw(rng, 2, bandwidth)

    def loop_from_draw(self, draw, n, wobble=0.4):
        base, noise = draw
        return SampledLoop(self.from_angles(
            base[..., None, :] + noise_loop(noise, n, wobble).samples))

    def tangent_frame(self, points):
        """The parallel frame: column i is the unit tangent of circle i."""
        p = np.asarray(points, dtype=np.float64)
        p = p.reshape(p.shape[:-1] + (2, 2))
        turned = np.stack([-p[..., 1], p[..., 0]], axis=-1)  # (..., 2, 2)
        cols = turned[..., :, :, None] * np.eye(2)[:, None, :]
        return cols.reshape(p.shape[:-2] + (4, 2))


def manifold_from_tag(tag: str) -> EmbeddedManifold:
    """Build a manifold from its experiment-config tag.

    Recognized tags: ``"flat:<n>"``, ``"sphere2"``, ``"torus2"``.
    """
    if tag == "sphere2":
        return Sphere2()
    if tag == "torus2":
        return FlatTorus2()
    if tag.startswith("flat:"):
        return Flat(int(tag.split(":", 1)[1]))
    raise ValueError(f"unknown manifold tag {tag!r}")


# -- tangent vectors ------------------------------------------------------------

@dataclass(frozen=True)
class TangentAtPoint:
    """A tangent vector v in T_pM, stored as an ambient vector at p."""

    manifold: EmbeddedManifold
    base: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        base = np.asarray(self.base, dtype=np.float64)
        vector = np.asarray(self.vector, dtype=np.float64)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "vector", vector)
        self.manifold.require_on_manifold(base)
        self.manifold.require_tangent(base, vector)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def project_tangent(manifold: EmbeddedManifold, p, w) -> TangentAtPoint:
    """Orthogonal projection of an ambient vector onto T_pM."""
    manifold.require_on_manifold(p)
    v = manifold.project_tangent_vector(p, np.asarray(w, dtype=np.float64))
    return TangentAtPoint(manifold, p, v)


def random_tangent(manifold: EmbeddedManifold, rng, p, scale: float = 1.0) -> TangentAtPoint:
    w = rng.normal(size=manifold.ambient_dim) * scale
    return project_tangent(manifold, p, w)


# -- geodesic integration ------------------------------------------------------

def _step_size(span: float, steps: int) -> float:
    """The fixed RK4 step span / steps of every integrator in the lab; a
    step count below 1 raises ValueError."""
    if not steps >= 1:
        raise ValueError(f"need at least one integration step, got {steps}")
    return span / steps


def _require_mid_flow(manifold: EmbeddedManifold, x, what: str, step: int, steps: int) -> None:
    """Raise IntegrationDiverged unless the component-major points x lie on
    the manifold to MIDFLOW_TOL after RK4 step ``step``.  The message names
    the step and where the worst (or first NaN) residual sits: the last
    batch axis is the circle node, any axes before it the trial."""
    res = manifold._constraint_residual(x)
    if np.max(res) <= MIDFLOW_TOL:
        return
    where = np.unravel_index(np.argmax(res), np.shape(res))
    place = [f"step {step}/{steps}"]
    if len(where) > 1:
        place.append("trial " + ",".join(str(int(i)) for i in where[:-1]))
    if where:
        place.append(f"node {int(where[-1])}")
    raise IntegrationDiverged(f"{what} {np.max(res):.3e} mid-flow at {', '.join(place)}")


def _rk4(rhs, y, t, h, steps, after_step=None):
    """Fixed-step classical RK4 for y' = rhs(t, y), starting at time t.

    ``after_step(step, t, y)``, if given, runs after every step, numbered
    from 1, at the new time and returns the state to continue from
    (reprojected, say).  Time advances by ``t += h``, not ``t0 + i * h``:
    the transport spline is evaluated at these times, so the other form
    would move transport residuals in the last bits.
    """
    for step in range(1, steps + 1):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if after_step is not None:
            y = after_step(step, t, y)
    return y


def integrate_geodesic(manifold: EmbeddedManifold, p, v, time: float = 1.0,
                       steps: int = 200):
    """RK4 integration of the geodesic ODE with per-step reprojection.

    ``p`` and ``v`` may carry leading batch axes.  Returns the trajectory,
    of shape (steps+1,) + p.shape, and the velocity at the end, both
    C-contiguous and row major.

    The RK4 state (p, v) is held component major, (2, factors, m) + batch,
    so each component of every trial and node is one contiguous block for
    the kind's per-factor formulas; in a row-major (..., k) array the same
    component is every k-th float.  The formulas are elementwise, so the
    layout moves no float.  Each reprojected point is written into the
    preallocated row-major trajectory, so the trajectory is the only array
    of its size, and what reads it later (a pairwise ``np.sum``, whose order
    follows memory) sees the layout it always did.
    """
    h = _step_size(float(time), steps)
    y = np.ascontiguousarray(manifold._lead(p, v))
    traj = np.empty((steps + 1,) + y.shape[3:] + (y.shape[1] * y.shape[2],))
    manifold._lead(traj[0])[0][...] = y[0]
    acc = manifold._geodesic_acceleration

    def rhs(t, y):
        out = np.empty_like(y)
        out[0], out[1] = y[1], acc(y[0], y[1])
        return out

    def after_step(step, t, y):
        _require_mid_flow(manifold, y[0], "constraint residual", step, steps)
        x = manifold._project_point(y[0])
        manifold._lead(traj[step])[0][...] = x
        out = np.empty_like(y)
        out[0], out[1] = x, manifold._project_tangent_vector(x, y[1])
        return out

    _, u = _rk4(rhs, y, 0.0, h, steps, after_step)
    return traj, manifold._trail(u)


def exp_map(manifold: EmbeddedManifold, tangent: TangentAtPoint,
            steps: int = 200) -> np.ndarray:
    """Endpoint at time 1 of the integrated geodesic with data (p, v)."""
    traj, _ = integrate_geodesic(manifold, tangent.base, tangent.vector, 1.0, steps)
    return traj[-1]


def log_map(manifold: EmbeddedManifold, p, q) -> TangentAtPoint:
    """v with exp(p, v) = q, by the closed form of the manifold kind."""
    manifold.require_on_manifold(p)
    manifold.require_on_manifold(q)
    return TangentAtPoint(manifold, p, manifold.log(p, q))


def log_by_shooting(manifold: EmbeddedManifold, p, q, steps: int = 200,
                    tol: float = 1e-8, max_iter: int = 100) -> TangentAtPoint:
    """Generic log via shooting on the integrated exponential.

    Iteratively corrects v by the tangential part of the endpoint defect.
    Kept independent of the closed forms so it can cross-check them.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    v = manifold.project_tangent_vector(p, q - p)
    best = np.inf
    for _ in range(max_iter):
        traj, _ = integrate_geodesic(manifold, p, v, 1.0, steps)
        defect = q - traj[-1]
        err = float(np.linalg.norm(defect))
        if err < tol:
            return TangentAtPoint(manifold, p, v)
        if err > 4 * best:
            break
        best = min(best, err)
        v = v + manifold.project_tangent_vector(p, defect)
    raise ShootingFailed(f"no convergence after {max_iter} iterations")


# -- parallel transport --------------------------------------------------------

def _path_spline(s_grid, points):
    """The not-a-knot cubic spline through ``points`` (axis 0) at ``s_grid``.

    The knot slopes m solve a tridiagonal system whose first and last rows
    make the third derivative continuous at the second and second-to-last
    knots (de Boor, A Practical Guide to Splines, rev. ed. 2001, ch. IV).
    The rows are those of the common banded layout, so the tests can hold
    the result to a library spline as the oracle.  A Thomas sweep runs over
    the knots, vectorized over the batch axes; it builds each inner row of
    the right-hand side from the interval slopes (y[i+1] - y[i]) / dx[i]
    just before eliminating it.  Fewer than 4 samples are rejected: with 3 the
    two not-a-knot conditions coincide, with 2 there is no inner knot.

    Returns ``at(s) -> (x(s), x'(s))``: one interval lookup, then the
    Horner sums ((a z + b) z + c) z + d and (3a z + 2b) z + c in
    z = s - knot.  Only the slopes m are kept beside the points: the
    interval's coefficients are formed from y and m at its two knots, and
    kept for the next call on the same interval.  Times outside the knots
    use the end pieces, so a stage time one rounding past the last knot
    extrapolates the end cubic.
    """
    x = np.asarray(s_grid, dtype=np.float64)
    y = np.asarray(points, dtype=np.float64)
    n = len(x)
    if n < 4:
        raise ValueError(f"a not-a-knot path spline needs at least 4 samples, got {n}")
    dx = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    lower = np.concatenate(([0.0], dx[1:], [d1]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    upper = np.concatenate(([d0], dx[:-1], [0.0]))

    def slope(i):
        return (y[i + 1] - y[i]) / dx[i]

    m = np.empty_like(y)
    m[0] = ((dx[0] + 2 * d0) * dx[1] * slope(0) + dx[0] ** 2 * slope(1)) / d0
    m[-1] = (dx[-1] ** 2 * slope(n - 3) + (2 * d1 + dx[-1]) * dx[-2] * slope(n - 2)) / d1
    for i in range(1, n):  # forward elimination, each inner row built first
        if i < n - 1:
            m[i] = 3 * (dx[i] * slope(i - 1) + dx[i - 1] * slope(i))
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        m[i] -= w * m[i - 1]
    m[-1] /= diag[-1]
    for i in range(n - 2, -1, -1):  # back substitution
        m[i] = (m[i] - upper[i] * m[i + 1]) / diag[i]
    piece = [None, None]

    def at(s: float):
        i = min(max(np.searchsorted(x, s, "right") - 1, 0), n - 2)
        if piece[0] != i:
            sl = slope(i)
            t = (m[i] + m[i + 1] - 2 * sl) / dx[i]
            a, b = t / dx[i], (sl - m[i]) / dx[i] - t
            piece[:] = i, (a, b, 3 * a, 2 * b)
        a, b, a3, b2 = piece[1]
        z = s - x[i]
        return ((a * z + b) * z + m[i]) * z + y[i], (a3 * z + b2) * z + m[i]

    return at


def integrate_transport(manifold: EmbeddedManifold, s_grid, points, v,
                        steps: int | None = None, torsion=None):
    """Solve the transport ODE v' = (d lambda)[x'] v along a sampled path.

    ``points`` has shape (len(s_grid),) + batch + (k,) and the path between
    samples is the not-a-knot cubic spline through them (:func:`_path_spline`).
    After every step the vector is reprojected to the tangent space; norms and
    inner products are not imposed and hold to integration accuracy.
    An optional ``torsion(x, xdot, v)`` term adds -0.5 T(xdot, v), the
    transport law of a connection with prescribed torsion tensor T; it takes
    and returns row-major arrays.

    The vector and the RK4 stages are held component major, as in
    :func:`integrate_geodesic`.  The spline is built on the row-major knots,
    with no copy of the path, and the point and velocity read at each
    distinct stage time are moved to component major once, in the path
    memo.  The result is C-contiguous and row major.
    """
    s0, s1 = float(s_grid[0]), float(s_grid[-1])
    if steps is None:
        steps = max(2 * (len(s_grid) - 1), 8)
    h = _step_size(s1 - s0, steps)
    at = _path_spline(s_grid, points)
    v = np.asarray(v, dtype=np.float64)
    batch = np.broadcast_shapes(np.shape(points)[1:], v.shape)

    def lead(x):
        """A contiguous component-major copy of x over the whole batch."""
        if x.shape != batch:
            x = np.broadcast_to(x, batch)
        return np.ascontiguousarray(manifold._lead(x)[0])

    # The RK4 stages and after_step visit each stage time twice in a row
    # (t += h gives the float of t + h), so with a one-entry memo the path
    # is read 2 * steps + 1 times.
    memo = [None, None]

    def path(s):
        if memo[0] != s:
            memo[:] = s, [lead(x) for x in at(s)]
        return memo[1]

    def rhs(s, vec):
        x, xdot = path(s)
        out = manifold._projector_derivative(x, xdot, vec)
        if torsion is not None:
            rows = [manifold._trail(a) for a in (x, xdot, vec)]
            out = out - 0.5 * manifold._lead(torsion(*rows))[0]
        return out

    def after_step(step, s, vec):
        x, _ = path(s)
        _require_mid_flow(manifold, x, "path off manifold: residual", step, steps)
        return manifold._project_tangent_vector(x, vec)

    return manifold._trail(_rk4(rhs, lead(v), s0, h, steps, after_step))


def parallel_transport(manifold: EmbeddedManifold, path, v: TangentAtPoint,
                       steps: int | None = None) -> TangentAtPoint:
    """Levi-Civita parallel transport of v along a discretized curve.

    ``path`` is an (m, k) array of on-manifold points with m >= 4 (the
    not-a-knot path spline needs four samples; fewer raise ValueError); v
    must be tangent at path[0].  The vector is reprojected after every step;
    its norm and inner products hold to integration accuracy.
    """
    path = np.asarray(path, dtype=np.float64)
    manifold.require_on_manifold(path[0])
    if not _same_point(path[0], v.base):
        raise ValueError("vector is not based at the start of the path")
    s_grid = np.linspace(0.0, 1.0, path.shape[0])
    out = integrate_transport(manifold, s_grid, path, v.vector, steps=steps)
    return TangentAtPoint(manifold, path[-1], out)


# -- local additions -----------------------------------------------------------

@dataclass(frozen=True)
class LocalAdditionSpec:
    """A local addition eta(p, v) = exp_p(eps * phi(|v|) * v/|v|).

    The compression phi(r) = r / sqrt(1 + r^2) maps [0, inf) into [0, 1), so
    every tangent vector is admissible and the reachable ball has radius
    eps(p); eps is constant per manifold kind (pi/2 on the sphere, 1
    elsewhere); one beyond ``manifold.injectivity_radius`` raises ValueError.
    """

    manifold: EmbeddedManifold
    epsilon: float = field(default=None)

    def __post_init__(self):
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", float(self.manifold.local_addition_epsilon))
        if not 0 < self.epsilon <= self.manifold.injectivity_radius:
            raise ValueError(f"epsilon {self.epsilon} is not in (0, the injectivity radius "
                             f"{self.manifold.injectivity_radius}] of {self.manifold!r}")

    def compress(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        r2 = np.sum(v * v, axis=-1, keepdims=True)
        return self.epsilon * v / np.sqrt(1.0 + r2)

    def decompress(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        u = np.linalg.norm(w, axis=-1, keepdims=True) / self.epsilon
        if not np.all(u < 1.0):
            raise OutOfV("target beyond the compressed radius")
        return w / (self.epsilon * np.sqrt(1.0 - u * u))

    def forward(self, p, v) -> np.ndarray:
        """eta(p, v); defined for every tangent v, with eta(p, 0) = p exactly."""
        return self.manifold.exp(np.asarray(p, dtype=np.float64), self.compress(v))

    def inverse(self, p, q) -> np.ndarray:
        """The v with eta(p, v) = q, for q within reach of p."""
        d = np.max(np.atleast_1d(self.manifold.dist(p, q)))
        if not d < self.epsilon:
            raise OutOfV(f"dist {d:.3f} is not below the reach {self.epsilon:.3f}")
        return self.decompress(self.manifold.log(p, q))

