"""Embedded Riemannian manifolds: flat space, the unit sphere in R^3, and the
flat torus in R^4.

Each kind carries two routes to its geometry:

* closed-form maps (``exp``, ``log``, ``geodesic_transport``, ``dist``),
  vectorized over leading axes, used by the chart machinery, and
* generic integrators (:func:`exp_map`, :func:`parallel_transport`) that solve
  the geodesic and transport ODEs with a fixed-step 4th-order scheme and
  per-step reprojection.

The two routes are independent, so one can serve as the oracle for the other.
Tangent vectors use the linear convention: v in T_pM is an ambient vector
fixed by the orthogonal projector at p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import (
    IntegrationDiverged,
    OffManifold,
    OutOfInjectivityDomain,
    OutOfV,
    OutsideTube,
    ShootingFailed,
)

ON_MANIFOLD_TOL = 1e-8
TANGENT_TOL = 1e-10
MIDFLOW_TOL = 1e-6


class EmbeddedManifold:
    """Base class: an n-manifold embedded in R^k with orthogonal projectors.

    Subclasses provide the constraint, the tangent projector and its
    directional derivative, the geodesic acceleration, the nearest-point
    projection, and closed-form exp/log/transport where available.
    All point arguments are arrays of shape (..., k).
    """

    kind: str = "abstract"
    ambient_dim: int = 0
    intrinsic_dim: int = 0
    #: compression scale of the default local addition
    local_addition_epsilon: float = 1.0
    #: lower bound of the nearest-point projection domain (distance scale)
    projection_floor: float = 0.0

    # -- constraint and projectors ------------------------------------------

    def constraint_residual(self, p) -> np.ndarray:
        raise NotImplementedError

    def tangent_projector(self, p) -> np.ndarray:
        raise NotImplementedError

    def projector_derivative(self, p, w) -> np.ndarray:
        """Directional derivative of the projector field at p along w."""
        raise NotImplementedError

    def project_point(self, x) -> np.ndarray:
        """Nearest-point projection onto the manifold."""
        raise NotImplementedError

    def geodesic_acceleration(self, p, v) -> np.ndarray:
        """Ambient acceleration of the geodesic through (p, v)."""
        raise NotImplementedError

    # -- closed-form maps -----------------------------------------------------

    def exp(self, p, v) -> np.ndarray:
        raise NotImplementedError

    def log(self, p, q) -> np.ndarray:
        raise NotImplementedError

    def geodesic_transport(self, p, v, w) -> np.ndarray:
        """Parallel transport of w along s -> exp(p, s v) to exp(p, v)."""
        raise NotImplementedError

    def dist(self, p, q) -> np.ndarray:
        raise NotImplementedError

    # -- helpers --------------------------------------------------------------

    def project_tangent_vector(self, p, w) -> np.ndarray:
        proj = self.tangent_projector(p)
        return np.einsum("...ij,...j->...i", proj, w)

    def require_on_manifold(self, p, tol: float = ON_MANIFOLD_TOL) -> None:
        res = np.max(np.atleast_1d(self.constraint_residual(p)))
        if res > tol:
            raise OffManifold(f"constraint residual {res:.3e} exceeds {tol:.1e}")

    def random_point(self, rng) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"{self.__class__.__name__}()"


class Flat(EmbeddedManifold):
    """R^n with the Euclidean metric."""

    projection_floor = -np.inf

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.kind = f"flat:{n}"
        self.ambient_dim = n
        self.intrinsic_dim = n

    def constraint_residual(self, p):
        p = np.asarray(p)
        return np.zeros(p.shape[:-1])

    def tangent_projector(self, p):
        p = np.asarray(p)
        eye = np.eye(self.ambient_dim)
        return np.broadcast_to(eye, p.shape[:-1] + eye.shape).copy()

    def projector_derivative(self, p, w):
        p = np.asarray(p)
        return np.zeros(p.shape[:-1] + (self.ambient_dim, self.ambient_dim))

    def project_point(self, x):
        return np.asarray(x, dtype=np.float64).copy()

    def geodesic_acceleration(self, p, v):
        return np.zeros_like(np.asarray(v, dtype=np.float64))

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

    def __repr__(self):
        return f"Flat({self.ambient_dim})"


class Sphere2(EmbeddedManifold):
    """The unit sphere S^2 in R^3 with the round metric."""

    kind = "sphere2"
    ambient_dim = 3
    intrinsic_dim = 2
    local_addition_epsilon = np.pi / 2
    projection_floor = 0.1
    #: log_map precondition: dist(p, q) < pi - CUT_MARGIN
    CUT_MARGIN = 1e-6

    def constraint_residual(self, p):
        p = np.asarray(p, dtype=np.float64)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def tangent_projector(self, p):
        p = np.asarray(p, dtype=np.float64)
        eye = np.eye(3)
        return eye - p[..., :, None] * p[..., None, :]

    def projector_derivative(self, p, w):
        p = np.asarray(p, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        return -(w[..., :, None] * p[..., None, :] + p[..., :, None] * w[..., None, :])

    def project_point(self, x):
        x = np.asarray(x, dtype=np.float64)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        if np.any(r <= self.projection_floor):
            raise OutsideTube("point too close to the centre of the sphere")
        return x / r

    def geodesic_acceleration(self, p, v):
        v = np.asarray(v, dtype=np.float64)
        speed2 = np.sum(v * v, axis=-1, keepdims=True)
        return -speed2 * np.asarray(p, dtype=np.float64)

    def exp(self, p, v):
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        theta = np.linalg.norm(v, axis=-1, keepdims=True)
        return np.cos(theta) * p + np.sinc(theta / np.pi) * v

    def log(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        c = np.clip(np.sum(p * q, axis=-1, keepdims=True), -1.0, 1.0)
        w = q - c * p
        nw = np.linalg.norm(w, axis=-1, keepdims=True)
        # arctan2 keeps the angle accurate at both ends of [0, pi]
        theta = np.arctan2(nw, c)
        if np.any(theta >= np.pi - self.CUT_MARGIN):
            raise OutOfInjectivityDomain("target at or beyond the antipode")
        scale = np.where(nw > 1e-300, theta / np.where(nw > 1e-300, nw, 1.0), 1.0)
        return scale * w

    def geodesic_transport(self, p, v, w):
        p = np.asarray(p, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        theta = np.linalg.norm(v, axis=-1, keepdims=True)
        safe = np.where(theta > 1e-300, theta, 1.0)
        u = np.where(theta > 1e-300, v / safe, 0.0 * v)
        a = np.sum(w * u, axis=-1, keepdims=True)
        return w + a * (-np.sin(theta) * p + (np.cos(theta) - 1.0) * u)

    def dist(self, p, q):
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        c = np.clip(np.sum(p * q, axis=-1), -1.0, 1.0)
        nw = np.linalg.norm(q - c[..., None] * p, axis=-1)
        return np.arctan2(nw, c)

    def random_point(self, rng):
        x = rng.normal(size=3)
        return x / np.linalg.norm(x)


class FlatTorus2(EmbeddedManifold):
    """The flat torus S^1 x S^1 embedded in R^4 as a product of unit circles."""

    kind = "torus2"
    ambient_dim = 4
    intrinsic_dim = 2
    local_addition_epsilon = 1.0
    projection_floor = 0.1
    CUT_MARGIN = 1e-6

    @staticmethod
    def _pairs(x):
        x = np.asarray(x, dtype=np.float64)
        return x[..., 0:2], x[..., 2:4]

    def _frame(self, p):
        """The parallel orthonormal frame rotating with each circle."""
        a, b = self._pairs(p)
        f1 = np.concatenate([-a[..., 1:2], a[..., 0:1],
                             np.zeros_like(a)], axis=-1)
        f2 = np.concatenate([np.zeros_like(b),
                             -b[..., 1:2], b[..., 0:1]], axis=-1)
        return f1, f2

    def constraint_residual(self, p):
        a, b = self._pairs(p)
        ra = np.abs(np.linalg.norm(a, axis=-1) - 1.0)
        rb = np.abs(np.linalg.norm(b, axis=-1) - 1.0)
        return np.maximum(ra, rb)

    def tangent_projector(self, p):
        p = np.asarray(p, dtype=np.float64)
        a, b = self._pairs(p)
        out = np.zeros(p.shape[:-1] + (4, 4))
        eye2 = np.eye(2)
        out[..., 0:2, 0:2] = eye2 - a[..., :, None] * a[..., None, :]
        out[..., 2:4, 2:4] = eye2 - b[..., :, None] * b[..., None, :]
        return out

    def projector_derivative(self, p, w):
        p = np.asarray(p, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        a, b = self._pairs(p)
        wa, wb = self._pairs(w)
        out = np.zeros(p.shape[:-1] + (4, 4))
        out[..., 0:2, 0:2] = -(wa[..., :, None] * a[..., None, :]
                               + a[..., :, None] * wa[..., None, :])
        out[..., 2:4, 2:4] = -(wb[..., :, None] * b[..., None, :]
                               + b[..., :, None] * wb[..., None, :])
        return out

    def project_point(self, x):
        a, b = self._pairs(x)
        ra = np.linalg.norm(a, axis=-1, keepdims=True)
        rb = np.linalg.norm(b, axis=-1, keepdims=True)
        if np.any(ra <= self.projection_floor) or np.any(rb <= self.projection_floor):
            raise OutsideTube("point too close to a circle axis")
        return np.concatenate([a / ra, b / rb], axis=-1)

    def geodesic_acceleration(self, p, v):
        a, b = self._pairs(p)
        va, vb = self._pairs(v)
        sa = np.sum(va * va, axis=-1, keepdims=True)
        sb = np.sum(vb * vb, axis=-1, keepdims=True)
        return np.concatenate([-sa * a, -sb * b], axis=-1)

    def _angles(self, p):
        a, b = self._pairs(p)
        return (np.arctan2(a[..., 1], a[..., 0]),
                np.arctan2(b[..., 1], b[..., 0]))

    def exp(self, p, v):
        f1, f2 = self._frame(p)
        t1 = np.sum(np.asarray(v) * f1, axis=-1)
        t2 = np.sum(np.asarray(v) * f2, axis=-1)
        a1, a2 = self._angles(p)
        n1, n2 = a1 + t1, a2 + t2
        return np.stack([np.cos(n1), np.sin(n1), np.cos(n2), np.sin(n2)], axis=-1)

    def log(self, p, q):
        a1, a2 = self._angles(p)
        b1, b2 = self._angles(q)
        d1 = (b1 - a1 + np.pi) % (2 * np.pi) - np.pi
        d2 = (b2 - a2 + np.pi) % (2 * np.pi) - np.pi
        if np.any(np.abs(d1) >= np.pi - self.CUT_MARGIN) or \
           np.any(np.abs(d2) >= np.pi - self.CUT_MARGIN):
            raise OutOfInjectivityDomain("angle difference at or beyond pi")
        f1, f2 = self._frame(p)
        return d1[..., None] * f1 + d2[..., None] * f2

    def geodesic_transport(self, p, v, w):
        f1, f2 = self._frame(p)
        c1 = np.sum(np.asarray(w) * f1, axis=-1)
        c2 = np.sum(np.asarray(w) * f2, axis=-1)
        q = self.exp(p, v)
        g1, g2 = self._frame(q)
        return c1[..., None] * g1 + c2[..., None] * g2

    def dist(self, p, q):
        a1, a2 = self._angles(p)
        b1, b2 = self._angles(q)
        d1 = (b1 - a1 + np.pi) % (2 * np.pi) - np.pi
        d2 = (b2 - a2 + np.pi) % (2 * np.pi) - np.pi
        return np.sqrt(d1 * d1 + d2 * d2)

    def random_point(self, rng):
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        return np.array([np.cos(t1), np.sin(t1), np.cos(t2), np.sin(t2)])


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
        res = np.max(np.abs(self.manifold.project_tangent_vector(base, vector) - vector))
        if res > TANGENT_TOL:
            raise ValueError(f"vector not tangent at base (residual {res:.3e})")

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

def _rk4(rhs, y, t, h, steps, after_step=None):
    """Fixed-step classical RK4 for y' = rhs(t, y), starting at time t.

    ``after_step(t, y)``, if given, runs after every step at the new time and
    returns the state to continue from (reprojected, say).  Time advances by
    ``t += h``, not ``t0 + i * h``: the transport spline is evaluated at these
    times, so the other form would move transport residuals in the last bits.
    """
    for _ in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if after_step is not None:
            y = after_step(t, y)
    return y


def integrate_geodesic(manifold: EmbeddedManifold, p, v, time: float = 1.0,
                       steps: int = 200, record: bool = False):
    """RK4 integration of the geodesic ODE with per-step reprojection.

    ``p`` and ``v`` may carry leading batch axes.  With ``record=True``
    returns the full trajectory of shape (steps+1,) + p.shape, otherwise the
    endpoint (and, as second output, the transported velocity).
    """
    y = np.stack(np.broadcast_arrays(np.asarray(p, dtype=np.float64),
                                     np.asarray(v, dtype=np.float64)))
    acc = manifold.geodesic_acceleration
    traj = [y[0]] if record else None

    def rhs(t, y):
        return np.stack([y[1], acc(y[0], y[1])])

    def after_step(t, y):
        res = np.max(np.atleast_1d(manifold.constraint_residual(y[0])))
        if res > MIDFLOW_TOL:
            raise IntegrationDiverged(f"constraint residual {res:.3e} mid-flow")
        x = manifold.project_point(y[0])
        if record:
            traj.append(x)
        return np.stack([x, manifold.project_tangent_vector(x, y[1])])

    x, u = _rk4(rhs, y, 0.0, float(time) / steps, steps, after_step)
    if record:
        return np.asarray(traj)
    return x, u


def exp_map(manifold: EmbeddedManifold, tangent: TangentAtPoint,
            steps: int = 200) -> np.ndarray:
    """Endpoint at time 1 of the integrated geodesic with data (p, v)."""
    x, _ = integrate_geodesic(manifold, tangent.base, tangent.vector, 1.0, steps)
    return x


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
        endpoint, _ = integrate_geodesic(manifold, p, v, 1.0, steps)
        defect = q - endpoint
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
    s_grid = np.asarray(s_grid, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    if len(s_grid) >= 4:
        return CubicSpline(s_grid, points, axis=0)
    return CubicSpline(s_grid, points, axis=0, bc_type="natural")


def integrate_transport(manifold: EmbeddedManifold, s_grid, points, v,
                        steps: int | None = None, torsion=None):
    """Solve the transport ODE v' = (d lambda)[x'] v along a sampled path.

    ``points`` has shape (len(s_grid),) + batch + (k,) and the path between
    samples is the interpolating cubic spline.  After every step the vector
    is reprojected to the tangent space and rescaled to its initial norm.
    An optional ``torsion(x, xdot, v)`` term adds -0.5 T(xdot, v), the
    transport law of a connection with prescribed torsion tensor T.
    """
    spline = _path_spline(s_grid, points)
    dspline = spline.derivative()
    s0, s1 = float(s_grid[0]), float(s_grid[-1])
    if steps is None:
        steps = max(2 * (len(s_grid) - 1), 8)
    h = (s1 - s0) / steps
    v = np.asarray(v, dtype=np.float64)
    norms0 = np.linalg.norm(v, axis=-1, keepdims=True)

    def rhs(s, vec):
        x = spline(s)
        xdot = dspline(s)
        dP = manifold.projector_derivative(x, xdot)
        out = np.einsum("...ij,...j->...i", dP, vec)
        if torsion is not None:
            out = out - 0.5 * torsion(x, xdot, vec)
        return out

    def after_step(s, vec):
        x = spline(s)
        res = np.max(np.atleast_1d(manifold.constraint_residual(x)))
        if res > MIDFLOW_TOL:
            raise IntegrationDiverged(f"path off manifold (residual {res:.3e})")
        if torsion is not None:
            return vec
        vec = manifold.project_tangent_vector(x, vec)
        norms = np.linalg.norm(vec, axis=-1, keepdims=True)
        return np.where(norms > 1e-300,
                        vec * (norms0 / np.where(norms > 1e-300, norms, 1.0)), vec)

    return _rk4(rhs, v, s0, h, steps, after_step)


def parallel_transport(manifold: EmbeddedManifold, path, v: TangentAtPoint,
                       steps: int | None = None) -> TangentAtPoint:
    """Levi-Civita parallel transport of v along a discretized curve.

    ``path`` is an (m, k) array of on-manifold points; v must be tangent at
    path[0].  The transport preserves the norm exactly (renormalized) and
    inner products to integration accuracy.
    """
    path = np.asarray(path, dtype=np.float64)
    manifold.require_on_manifold(path[0])
    if np.max(np.abs(path[0] - v.base)) > 1e-9:
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
    elsewhere) to stay inside the injectivity radius.
    """

    manifold: EmbeddedManifold
    epsilon: float = field(default=None)

    def __post_init__(self):
        if self.epsilon is None:
            object.__setattr__(self, "epsilon", float(self.manifold.local_addition_epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    def compress(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        r2 = np.sum(v * v, axis=-1, keepdims=True)
        return self.epsilon * v / np.sqrt(1.0 + r2)

    def decompress(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        u = np.linalg.norm(w, axis=-1, keepdims=True) / self.epsilon
        if np.any(u >= 1.0):
            raise OutOfV("target beyond the compressed radius")
        return w / (self.epsilon * np.sqrt(1.0 - u * u))

    def forward(self, p, v) -> np.ndarray:
        """eta(p, v); defined for every tangent v, with eta(p, 0) = p exactly."""
        p = np.asarray(p, dtype=np.float64)
        c = self.compress(v)
        out = self.manifold.exp(p, c)
        at_zero = np.linalg.norm(c, axis=-1) == 0.0
        if np.any(at_zero):
            out = np.where(at_zero[..., None], np.broadcast_to(p, out.shape), out)
        return out

    def inverse(self, p, q) -> np.ndarray:
        """The v with eta(p, v) = q, for q within reach of p."""
        d = np.max(np.atleast_1d(self.manifold.dist(p, q)))
        if d >= self.epsilon:
            raise OutOfV(f"dist {d:.3f} is not below the reach {self.epsilon:.3f}")
        return self.decompress(self.manifold.log(p, q))


def local_addition(spec: LocalAdditionSpec, v: TangentAtPoint) -> np.ndarray:
    return spec.forward(v.base, v.vector)


def local_addition_inv(spec: LocalAdditionSpec, p, q) -> TangentAtPoint:
    return TangentAtPoint(spec.manifold, p, spec.inverse(p, q))


def tubular_projection(manifold: EmbeddedManifold, x) -> np.ndarray:
    """Nearest-point projection of an ambient point onto the manifold.

    The residual x - result is orthogonal to the tangent space at the
    result; raises OutsideTube below the manifold's reach.
    """
    return manifold.project_point(np.asarray(x, dtype=np.float64))
