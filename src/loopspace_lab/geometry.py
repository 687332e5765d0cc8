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

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridTooCoarse,
    NotPointwiseLinear,
    SingularFrame,
    SingularSymbol,
)
from .loops import SampledLoop, evaluate
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
FRAME_CONDITION_LIMIT = 1e8
RANK_THRESHOLD = 1e-8


@dataclass(frozen=True)
class LoopPath:
    """A discretized path [0, 1] -> LM, stored as its adjoint on a
    (time x circle) grid: one loop per time node."""

    manifold: EmbeddedManifold
    s_grid: np.ndarray
    loops: tuple

    def __post_init__(self):
        s = np.asarray(self.s_grid, dtype=np.float64)
        object.__setattr__(self, "s_grid", s)
        object.__setattr__(self, "loops", tuple(self.loops))
        if len(self.loops) != len(s) or len(s) < 2:
            raise ValueError("need one loop per time node, at least two")
        if np.any(np.diff(s) <= 0):
            raise ValueError("time grid must be strictly increasing")
        res = {loop.resolution for loop in self.loops}
        if len(res) != 1:
            raise ValueError("all loops on a path must share one resolution")
        for loop in self.loops:
            self.manifold.require_on_manifold(loop.samples)

    @property
    def grid_size(self) -> int:
        return len(self.s_grid) - 1

    @property
    def resolution(self) -> int:
        return self.loops[0].resolution

    @property
    def values(self) -> np.ndarray:
        """All samples as a (T+1, N, k) array."""
        return np.stack([loop.samples for loop in self.loops])


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


def levi_civita(manifold: EmbeddedManifold) -> ConnectionSpec:
    return ConnectionSpec(manifold)


# -- the weak Riemannian L^2 metric ---------------------------------------------

def l2_inner(alpha: SampledLoop, beta: TangentSection, gamma: TangentSection) -> float:
    """The L^2 inner product of two sections along alpha.

    Uniform-node quadrature of the pointwise inner product; for periodic
    integrands this is spectrally accurate.
    """
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    n = alpha.resolution
    return float(np.sum(beta.vectors * gamma.vectors) / n)


# -- covariant differentiation ---------------------------------------------------

def _time_derivative(values: np.ndarray, s_grid: np.ndarray) -> np.ndarray:
    """Second-order finite differences on a uniform grid, one-sided at ends."""
    h = s_grid[1] - s_grid[0]
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return out


def cov_deriv_along_path(conn: ConnectionSpec, path: LoopPath, sections) -> list:
    """Covariant derivative of a section field along a path of loops.

    ``sections[i]`` must be based at ``path.loops[i]``.  At each time node
    the connector is applied to the time derivative of the adjoint data,
    which realizes the looped covariant derivative node by node.
    """
    if path.grid_size < 4:
        raise GridTooCoarse("need a path grid with at least 4 steps")
    if len(sections) != len(path.loops):
        raise ValueError("need one section per path time node")
    for sec, loop in zip(sections, path.loops):
        require_based(sec, loop)
    values = np.stack([sec.vectors for sec in sections])
    dvalues = _time_derivative(values, path.s_grid)
    xdot = _time_derivative(path.values, path.s_grid)
    out = []
    for i, loop in enumerate(path.loops):
        vec = conn.connector(loop.samples, values[i], xdot[i], dvalues[i])
        out.append(TangentSection(conn.manifold, loop, vec))
    return out


# -- geodesics and transport in LM ----------------------------------------------

def loop_geodesic(conn: ConnectionSpec, alpha: SampledLoop, nu: TangentSection,
                  time: float = 1.0, steps: int = 200) -> LoopPath:
    """The loop-space geodesic with initial data (alpha, nu).

    Evaluation at each circle node is the manifold geodesic with the
    nodewise initial data, so the whole path is one batched integration.
    The half-torsion correction is antisymmetric and does not affect
    geodesics.
    """
    require_based(nu, alpha)
    traj = integrate_geodesic(conn.manifold, alpha.samples, nu.vectors,
                              time=time, steps=steps, record=True)
    loops = tuple(SampledLoop(x) for x in traj)
    return LoopPath(conn.manifold, np.linspace(0.0, time, steps + 1), loops)


def loop_parallel_transport(conn: ConnectionSpec, path: LoopPath,
                            sigma: TangentSection,
                            steps: int | None = None) -> TangentSection:
    """Parallel transport in LM along a path: nodewise manifold transport."""
    require_based(sigma, path.loops[0])
    out = integrate_transport(conn.manifold, path.s_grid, path.values,
                              sigma.vectors, steps=steps,
                              torsion=conn.torsion)
    return TangentSection(conn.manifold, path.loops[-1], out)


def torsion(conn: ConnectionSpec, alpha: SampledLoop, beta: TangentSection,
            gamma: TangentSection) -> TangentSection:
    """The torsion of the looped connection: the pointwise tensor, nodewise."""
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    if conn.torsion is None:
        vec = np.zeros_like(beta.vectors)
    else:
        vec = np.asarray(conn.torsion(alpha.samples, beta.vectors, gamma.vectors),
                         dtype=np.float64)
    return TangentSection(conn.manifold, alpha, vec)


def bundle_chart(conn: ConnectionSpec, alpha: SampledLoop, beta: TangentSection,
                 gamma: TangentSection,
                 addition: LocalAdditionSpec | None = None) -> TangentSection:
    """The bundle chart by parallel transport.

    Each fiber vector gamma(t) is transported along the geodesic
    u -> exp(u * compress(beta(t))) from alpha(t) to the shifted base; the
    output is a section over the chart image of beta.  Transport is linear
    fiberwise, which is what makes the chart L R-linear in gamma.
    """
    require_based(beta, alpha)
    require_based(gamma, beta.base)
    if addition is None:
        addition = LocalAdditionSpec(conn.manifold)
    compressed = addition.compress(beta.vectors)
    new_base = SampledLoop(conn.manifold.exp(alpha.samples, compressed))
    moved = conn.manifold.geodesic_transport(alpha.samples, compressed, gamma.vectors)
    return TangentSection(conn.manifold, new_base, moved)


# -- module maps and frames -------------------------------------------------------

@dataclass(frozen=True)
class MatrixLoop:
    """A loop of n x n matrices: the concrete form of an L R-module map."""

    matrices: np.ndarray  # (N, n, n), real or complex
    check_invertible: bool = field(default=False)

    def __post_init__(self):
        m = np.asarray(self.matrices)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (N, n, n)")
        dtype = np.complex128 if np.iscomplexobj(m) else np.float64
        object.__setattr__(self, "matrices", np.ascontiguousarray(m, dtype=dtype))
        if self.check_invertible:
            conds = np.linalg.cond(self.matrices)
            if not np.all(np.isfinite(conds)) or np.max(conds) >= FRAME_CONDITION_LIMIT:
                raise SingularSymbol("a node matrix has condition number >= 1e8")

    @property
    def resolution(self) -> int:
        return self.matrices.shape[0]

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Pointwise action on an (N, n) array of loop samples."""
        return np.einsum("tij,tj->ti", self.matrices, samples)


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


def frame_from_module_map(g, n: int, resolution: int, probes: int = 100,
                          rng=None, require_invertible: bool = True) -> MatrixLoop:
    """Extract the matrix loop of a black-box pointwise-linear operator.

    ``g`` maps loops in R^n, given as (N, n) sample arrays, to loops in R^n.
    Columns come from probing with the constant standard-basis loops; the
    reconstruction is then verified on random loops, rejecting operators
    that are linear but not pointwise (e.g. convolutions).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cols = []
    for j in range(n):
        basis = np.zeros((resolution, n))
        basis[:, j] = 1.0
        cols.append(np.asarray(g(basis), dtype=np.float64))
    mats = np.stack(cols, axis=-1)  # (N, n, n), column j = g(e_j)(t)
    frame = MatrixLoop(mats)
    worst = 0.0
    for _ in range(probes):
        s = rng.normal(size=(resolution, n))
        image = np.asarray(g(s), dtype=np.float64)
        rebuilt = frame.apply(s)
        scale = max(1.0, float(np.max(np.abs(image))))
        worst = max(worst, float(np.max(np.abs(image - rebuilt))) / scale)
    if worst > FRAME_RECONSTRUCTION_TOL:
        raise NotPointwiseLinear(
            f"reconstruction residual {worst:.3e} exceeds {FRAME_RECONSTRUCTION_TOL:.1e}")
    if require_invertible:
        svals = np.linalg.svd(mats, compute_uv=False)
        if np.min(svals) <= RANK_THRESHOLD or \
                np.max(svals[..., 0] / svals[..., -1]) >= FRAME_CONDITION_LIMIT:
            raise SingularFrame("extracted frame is singular at some node")
    return frame


# -- curves of loops and the tangent identification -------------------------------

def curve_of_loops_derivative(curve, s0: float = 0.0, h: float = 1e-4) -> np.ndarray:
    """Finite-difference derivative of a curve of loops at s0, as node data.

    ``curve(s)`` returns a SampledLoop; the result is the (N, d) array of
    nodewise derivatives, i.e. the image of the curve's velocity under the
    identification of T LM with loops in TM.
    """
    plus = curve(s0 + h).samples
    minus = curve(s0 - h).samples
    return (plus - minus) / (2.0 * h)


# -- non-surjectivity of the loop exponential --------------------------------------

def exp_nonsurjectivity_witness(manifold: Sphere2, target: SampledLoop,
                                base_point=(0.0, 0.0, -1.0)) -> dict:
    """Maximal node-to-node jump of the nodewise log lift of a target loop.

    Lifting a loop through the exponential map at a constant base loop
    requires a continuous choice of logarithm.  For a great circle through
    the base point no such choice exists: adjacent lifts near the cut locus
    land close to +pi and -pi times the same direction, so the jump is of
    order 2 pi.  For loops staying away from the cut locus the lift is
    continuous and the jump is O(1/N).  Nodes falling exactly on the
    antipode are avoided by re-sampling at half-step offsets.
    """
    p = np.asarray(base_point, dtype=np.float64)
    manifold.require_on_manifold(p)
    n = target.resolution
    offset = 0.0
    samples = target.samples
    for candidate in (0.0, 0.5 / n, 0.25 / n):
        pts = samples if candidate == 0.0 else evaluate(target, (np.arange(n) + candidate * n) / n)
        pts = manifold.project_point(pts)
        d = manifold.dist(np.broadcast_to(p, pts.shape), pts)
        if np.max(d) < np.pi - manifold.CUT_MARGIN:
            offset = candidate
            samples = pts
            break
    else:
        raise AssertionError("could not avoid the antipode at any node offset")
    logs = manifold.log(np.broadcast_to(p, samples.shape), samples)
    jumps = np.linalg.norm(np.roll(logs, -1, axis=0) - logs, axis=1)
    return {"jump_magnitude": float(np.max(jumps)), "offset": float(offset)}


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
    first = path.loops[0]
    return {"dim": first.dim, "n": first.resolution,
            "manifold": path.manifold.kind,
            "s_grid": path.s_grid.tolist(),
            "path": [loop.samples.tolist() for loop in path.loops]}


def path_from_dict(data: dict) -> LoopPath:
    from .manifolds import manifold_from_tag
    manifold = manifold_from_tag(data["manifold"])
    loops = tuple(SampledLoop(np.asarray(x, dtype=np.float64)) for x in data["path"])
    return LoopPath(manifold, np.asarray(data["s_grid"], dtype=np.float64), loops)
