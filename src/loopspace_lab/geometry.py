"""Riemannian structure of the loop space: the L^2 metric, connectors and
covariant derivatives, loop geodesics and parallel transport, bundle charts
by transport, frame extraction from module maps, and the witness that the
loop-space exponential map misses targets.

The guiding fact is that every one of these objects is the loop of its
finite-dimensional counterpart: connectors, geodesics, transports and
torsion all act node by node under evaluation.  The implementations exploit
that (batched over circle nodes) while the test oracles recompute each
identity through an independent route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GridTooCoarse,
    NotPointwiseLinear,
    OutOfInjectivityDomain,
    SingularFrame,
)
from .loops import MIN_RESOLUTION, SampledLoop, _is_power_of_two, rotate
from .manifolds import (
    EmbeddedManifold,
    Flat,
    LocalAdditionSpec,
    Sphere2,
    integrate_geodesic,
    integrate_transport,
)
from .charts import TangentSection, require_based

CONNECTOR_LINEARITY_TOL = 1e-8
FRAME_RECONSTRUCTION_TOL = 1e-6
CONDITION_LIMIT = 1e8
RANK_THRESHOLD = 1e-8
FRAME_PROBES = 100


@dataclass(frozen=True)
class LoopPath:
    """A discretized path [0, 1] -> LM, stored as its adjoint on a
    (time x circle) grid: ``values[i]`` is the loop at time ``s_grid[i]``,
    a (T+1, N, k) array.  A stack of B paths over one time grid is a
    (T+1, B, N, k) array, with ``values[i, b]`` the loop of trial b."""

    manifold: EmbeddedManifold
    s_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=np.float64)
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "values", v)
        if s.ndim != 1 or len(s) < 2 or v.ndim < 3 or len(v) != len(s):
            raise ValueError("need one loop per time node, at least two")
        if np.any(np.diff(s) <= 0):
            raise ValueError("time grid must be strictly increasing")
        if not _is_power_of_two(v.shape[-2]) or v.shape[-2] < MIN_RESOLUTION:
            raise ValueError(f"resolution must be a power of two >= {MIN_RESOLUTION}")
        # checked on its own: Flat's constraint residual is 0 on NaN
        if not np.all(np.isfinite(v)):
            raise ValueError("path samples must be finite")
        # one trial at a time: the residual's temporaries scale with a trial
        for trial in v.reshape(len(v), -1, *v.shape[-2:]).swapaxes(0, 1):
            self.manifold.require_on_manifold(trial)

    @property
    def grid_size(self) -> int:
        return len(self.s_grid) - 1


@dataclass(frozen=True)
class ConnectionSpec:
    """A connection given through its connector.

    For the Levi-Civita connection of an embedded manifold the connector
    applied to a curve of tangent vectors is the tangential projection of
    the ordinary derivative.  An explicit torsion tensor ``torsion(p, u, v)``
    (flat base only) adds the half-torsion term, producing the connection
    whose torsion is exactly that tensor.
    """

    manifold: EmbeddedManifold
    torsion: object = None

    def __post_init__(self):
        if self.torsion is not None and not isinstance(self.manifold, Flat):
            raise ValueError("explicit torsion tensors are supported on flat space only")
        self._probe_linearity()

    def _probe_linearity(self):
        # the derivative slot is the whole tangent vector (pdot, edot)
        rng = np.random.default_rng(1729)
        k = self.manifold.ambient_dim
        p = self.manifold.random_point(rng)
        e = self.manifold.project_tangent_vector(p, rng.normal(size=k))
        for _ in range(3):
            p1, p2 = rng.normal(size=(2, k))
            e1, e2 = rng.normal(size=(2, k))
            a, b = rng.normal(size=2)
            lhs = self.connector(p, e, a * p1 + b * p2, a * e1 + b * e2)
            rhs = a * self.connector(p, e, p1, e1) + b * self.connector(p, e, p2, e2)
            if np.max(np.abs(lhs - rhs)) > CONNECTOR_LINEARITY_TOL:
                raise ValueError("connector is not linear in the derivative slot")

    def connector(self, p, e, pdot, edot) -> np.ndarray:
        """K applied to the tangent vector (pdot, edot) at e over p."""
        out = self.manifold.project_tangent_vector(p, np.asarray(edot, dtype=np.float64))
        if self.torsion is not None:
            out = out + 0.5 * self.torsion(p, pdot, e)
        return out


# -- the weak Riemannian L^2 metric ---------------------------------------------

def l2_pairing(b: np.ndarray, c: np.ndarray):
    """The L^2 pairing of two (..., N, k) arrays of vectors over N circle
    nodes, batched over any leading axes.

    Uniform-node quadrature of the pointwise inner product; for periodic
    integrands this is spectrally accurate.
    """
    return np.sum(b * c, axis=(-2, -1)) / b.shape[-2]


def l2_inner(alpha: SampledLoop, beta: TangentSection, gamma: TangentSection):
    """The L^2 inner product of two sections along alpha: a scalar for one
    loop, one value per trial for a stack of loops."""
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    return l2_pairing(beta.vectors, gamma.vectors)


# -- covariant differentiation ---------------------------------------------------

def _time_derivative(values: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a uniform grid (every spacing
    within 1e-9 h of the first, else ValueError), one-sided at ends."""
    h = s_grid[1] - s_grid[0]
    if not np.all(np.abs(np.diff(s_grid) - h) <= 1e-9 * h):
        raise ValueError("finite differences need a uniform time grid")
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return out


def cov_deriv_along_path(conn: ConnectionSpec, path: LoopPath, field) -> np.ndarray:
    """Covariant derivative of a vector field along a path of loops.

    ``field`` has the shape of ``path.values``, and ``field[i, j]`` is
    tangent at ``path.values[i, j]``; so is the result.  The connector is
    applied to the time derivative of the adjoint data over the whole
    (time x circle) grid, which realizes the looped covariant derivative
    node by node.
    """
    if path.grid_size < 4:
        raise GridTooCoarse("need a path grid with at least 4 steps")
    field = np.asarray(field, dtype=np.float64)
    if field.shape != path.values.shape:
        raise ValueError("need one tangent vector per path sample")
    conn.manifold.require_tangent(path.values, field)
    out = conn.connector(path.values, field,
                         _time_derivative(path.values, path.s_grid),
                         _time_derivative(field, path.s_grid))
    conn.manifold.require_tangent(path.values, out)
    return out


# -- geodesics and transport in LM ----------------------------------------------

def loop_geodesic(conn: ConnectionSpec, alpha: SampledLoop, nu: TangentSection,
                  time: float = 1.0, steps: int = 200) -> LoopPath:
    """The loop-space geodesic with initial data (alpha, nu).

    Evaluation at each circle node is the manifold geodesic with the
    nodewise initial data, so the whole path is one batched integration.
    A loop with its section gives a (T+1, N, k) path; a (B, N, k) stack of
    trials with its stacked section gives one (T+1, B, N, k) path.
    The half-torsion correction is antisymmetric and does not affect
    geodesics.
    """
    require_based(nu, alpha)
    traj, _ = integrate_geodesic(conn.manifold, alpha.samples, nu.vectors,
                                 time=time, steps=steps)
    return LoopPath(conn.manifold, np.linspace(0.0, time, steps + 1), traj)


def loop_parallel_transport(conn: ConnectionSpec, path: LoopPath, sigma: TangentSection,
                            steps: int | None = None) -> TangentSection:
    """Parallel transport in LM along a path: nodewise manifold transport.

    ``sigma`` is a section over the path's first loop, stacked like it
    along a (T+1, B, N, k) path; the result is the transported section over
    the path's last loop.
    """
    require_based(sigma, SampledLoop(path.values[0]))
    out = integrate_transport(conn.manifold, path.s_grid, path.values,
                              sigma.vectors, steps=steps, torsion=conn.torsion)
    return TangentSection(conn.manifold, SampledLoop(path.values[-1]), out)


def torsion(conn: ConnectionSpec, alpha: SampledLoop, beta: TangentSection,
            gamma: TangentSection) -> TangentSection:
    """The torsion of the looped connection, read off its connector node by
    node: nabla_beta gamma - nabla_gamma beta for fields through beta and
    gamma whose derivatives project to zero, so that their bracket vanishes."""
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    zero = np.zeros_like(beta.vectors)
    vec = (conn.connector(alpha.samples, gamma.vectors, beta.vectors, zero)
           - conn.connector(alpha.samples, beta.vectors, gamma.vectors, zero))
    return TangentSection(conn.manifold, alpha, vec)


def bundle_chart(conn: ConnectionSpec, alpha: SampledLoop, beta: TangentSection,
                 gamma: TangentSection) -> TangentSection:
    """The bundle chart by parallel transport.

    Each fiber vector gamma(t) is transported along the geodesic
    u -> exp(u * compress(beta(t))) from alpha(t) to the shifted base, with
    the manifold's default local addition; the output is a section over the
    chart image of beta.  Transport is linear fiberwise, which is what makes
    the chart L R-linear in gamma.
    """
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    compressed = LocalAdditionSpec(conn.manifold).compress(beta.vectors)
    new_base = SampledLoop(conn.manifold.exp(alpha.samples, compressed))
    moved = conn.manifold.geodesic_transport(alpha.samples, compressed, gamma.vectors)
    return TangentSection(conn.manifold, new_base, moved)


# -- module maps and frames -------------------------------------------------------

@dataclass(frozen=True)
class MatrixLoop:
    """A loop of n x n matrices: the concrete form of an L R-module map."""

    matrices: np.ndarray  # (N, n, n), real or complex

    def __post_init__(self):
        m = np.asarray(self.matrices)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (N, n, n)")
        dtype = np.complex128 if np.iscomplexobj(m) else np.float64
        object.__setattr__(self, "matrices", np.ascontiguousarray(m, dtype=dtype))

    @property
    def resolution(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Pointwise action on an (..., N, n) array of loop samples, along
        axis -2: a stack of loops in R^n is one loop in a product of copies.

        The sum over columns is unrolled into slice products: on a stack, an
        einsum with an ellipsis costs several times the adds.  With two
        columns and real samples, as everywhere in the lab, the adds give
        its bits; from three columns einsum sums in another order."""
        m = self.matrices
        samples = np.asarray(samples)
        out = m[:, :, 0] * samples[..., 0:1]
        for j in range(1, self.n):
            out += m[:, :, j] * samples[..., j:j + 1]
        return out


def rotation_matrix_loop(n_nodes: int, turns: float = 1.0) -> MatrixLoop:
    """The loop of 2x2 rotations t -> rot(2 pi turns t)."""
    t = np.arange(n_nodes) / n_nodes
    ang = 2 * np.pi * turns * t
    mats = np.zeros((n_nodes, 2, 2))
    mats[:, 0, 0] = np.cos(ang)
    mats[:, 0, 1] = -np.sin(ang)
    mats[:, 1, 0] = np.sin(ang)
    mats[:, 1, 1] = np.cos(ang)
    return MatrixLoop(mats)


def frame_from_module_map(g, n: int, resolution: int, rng=None) -> MatrixLoop:
    """Extract the matrix loop of a black-box pointwise-linear operator.

    ``g`` maps loops in R^n to loops in R^n, acting on (..., N, n) sample
    arrays along axis -2, as every ``loops`` function does: a stack of P
    loops is one loop in (R^n)^P.  The columns come from one call on the n
    constant standard-basis loops; the reconstruction is then verified in
    one call on FRAME_PROBES random loops, rejecting operators that are
    linear but not pointwise (e.g. convolutions, or operators that mix the
    loops of a stack).  A frame that is singular or ill-conditioned at some
    node raises SingularFrame.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    def image_of(samples):
        out = np.asarray(g(samples), dtype=np.float64)
        if out.shape != samples.shape:
            raise ValueError(f"g returned shape {out.shape} for samples of shape "
                             f"{samples.shape}")
        return out

    basis = np.zeros((n, resolution, n))
    basis[np.arange(n), :, np.arange(n)] = 1.0
    # (N, n, n), column j = g(e_j)(t)
    frame = MatrixLoop(np.moveaxis(image_of(basis), 0, -1))
    probes = rng.normal(size=(FRAME_PROBES, resolution, n))
    image = image_of(probes)
    scale = np.maximum(1.0, np.max(np.abs(image), axis=(-2, -1)))
    worst = np.max(np.max(np.abs(image - frame.apply(probes)), axis=(-2, -1)) / scale)
    if not worst <= FRAME_RECONSTRUCTION_TOL:
        raise NotPointwiseLinear(
            f"reconstruction residual {worst:.3e} exceeds {FRAME_RECONSTRUCTION_TOL:.1e}")
    svals = np.linalg.svd(frame.matrices, compute_uv=False)
    if np.min(svals) <= RANK_THRESHOLD or \
            np.max(svals[..., 0] / svals[..., -1]) >= CONDITION_LIMIT:
        raise SingularFrame("extracted frame is singular at some node")
    return frame


# -- curves of loops and the tangent identification -------------------------------

def curve_of_loops_derivative(curve, s0: float = 0.0) -> np.ndarray:
    """Central difference, step 1e-4, of a curve of loops at s0, as node data.

    ``curve(s)`` returns a SampledLoop; the result is the (N, d) array of
    nodewise derivatives, i.e. the image of the curve's velocity under the
    identification of T LM with loops in TM.
    """
    return (curve(s0 + 1e-4).samples - curve(s0 - 1e-4).samples) / 2e-4


# -- non-surjectivity of the loop exponential --------------------------------------

def exp_nonsurjectivity_witness(manifold: Sphere2, target: SampledLoop) -> dict:
    """Maximal node-to-node jump of the nodewise log lift of each target loop
    about the constant loop at the south pole (0, 0, -1) of S^2.

    Lifting a loop through the exponential map at a constant base loop
    requires a continuous choice of logarithm.  For a great circle through
    the base point no such choice exists: adjacent lifts near the cut locus
    land close to +pi and -pi times the same direction, so the jump is of
    order 2 pi.  For loops staying away from the cut locus the lift is
    continuous and the jump is O(1/N).  Nodes falling exactly on the
    antipode are avoided by re-sampling at half-step offsets.  A (B, N, 3)
    stack gets one jump per loop and one offset, the first that keeps every
    loop off the antipode; one loop gets an ``np.float64`` jump.
    """
    p = np.array([0.0, 0.0, -1.0])
    n = target.resolution
    offset = 0.0
    samples = target.samples
    for candidate in (0.0, 0.5 / n, 0.25 / n):
        pts = samples if candidate == 0.0 else rotate(target, candidate).samples
        pts = manifold.project_point(pts)
        d = manifold.dist(np.broadcast_to(p, pts.shape), pts)
        if np.max(d) < np.pi - manifold.CUT_MARGIN:
            offset = candidate
            samples = pts
            break
    else:
        raise OutOfInjectivityDomain("could not avoid the antipode at any node offset")
    logs = manifold.log(np.broadcast_to(p, samples.shape), samples)
    jumps = np.linalg.norm(np.roll(logs, -1, axis=-2) - logs, axis=-1)
    return {"jump_magnitude": np.max(jumps, axis=-1), "offset": float(offset)}


# -- serialization ------------------------------------------------------------------

def matrix_loop_to_dict(m: MatrixLoop) -> dict:
    out = {"n": m.n, "resolution": m.resolution,
           "matrices_re": m.matrices.real.tolist()}
    if np.iscomplexobj(m.matrices):
        out["matrices_im"] = m.matrices.imag.tolist()
    return out


def matrix_loop_from_dict(data: dict) -> MatrixLoop:
    re = np.asarray(data["matrices_re"], dtype=np.float64)
    if "matrices_im" in data:
        mats = re + 1j * np.asarray(data["matrices_im"], dtype=np.float64)
    else:
        mats = re
    m = MatrixLoop(mats)
    if m.n != data["n"] or m.resolution != data["resolution"]:
        raise ValueError("matrix loop header disagrees with its data")
    return m


def path_to_dict(path: LoopPath) -> dict:
    n, dim = path.values.shape[-2:]
    return {"dim": dim, "n": n,
            "manifold": path.manifold.kind,
            "s_grid": path.s_grid.tolist(),
            "path": path.values.tolist()}


def path_from_dict(data: dict) -> LoopPath:
    from .manifolds import manifold_from_tag
    manifold = manifold_from_tag(data["manifold"])
    return LoopPath(manifold, data["s_grid"], data["path"])
