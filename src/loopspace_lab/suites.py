"""Verification suites: each one exercises a family of loop-space identities
against independent oracles and reports residuals with pinned tolerances.

Suites are deterministic functions of the experiment configuration: all
randomness flows through the seeded generator, and summation orders are
fixed, so rerunning a configuration reproduces the report byte for byte.
Each suite is ``suite(cfg, rng, out)``: it tracks its residuals into the
ledger ``out`` and returns nothing.  :func:`run_checks` is the one way to
run a suite in process.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import charts, geometry, loops, manifolds, polarization, tubes
from .errors import (
    ConfigInvalid,
    LoopspaceError,
    NotPointwiseLinear,
    SingularFrame,
    UnknownSuite,
)


# -- configuration and report records -------------------------------------------

#: the values each annotation of ExperimentConfig accepts
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by all suites; flags and config files both build this."""

    suite: str
    manifold: str = "sphere2"
    resolution: int = 128
    path_grid: int = 128
    ode_steps: int = 200
    oracle_tol: float = 1e-7
    seed: int = 0
    out_dir: str = "reports"
    samples: int = 100

    def validated(self) -> "ExperimentConfig":
        """The checked configuration, with the tolerance as a float, so that
        ``1`` from a config file and ``--tol 1`` echo the same value."""
        for f in fields(self):
            value = getattr(self, f.name)
            # a bool is an int to isinstance, but never a count or a seed
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ConfigInvalid(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.resolution < loops.MIN_RESOLUTION or \
                not loops._is_power_of_two(self.resolution):
            raise ConfigInvalid("resolution must be a power of two >= 8")
        try:
            tolerance = float(self.oracle_tol)
        except OverflowError:
            tolerance = np.inf  # an integer beyond the float range
        if not 0 < tolerance < np.inf:
            raise ConfigInvalid("tolerance must be finite and positive")
        if self.seed < 0:
            raise ConfigInvalid("seed must be non-negative")
        if self.path_grid < 16:
            raise ConfigInvalid("path grid must be at least 16")
        if self.ode_steps < 8:
            raise ConfigInvalid("ode steps must be at least 8")
        if self.samples < 1:
            raise ConfigInvalid("sample count must be positive")
        try:
            kind = manifolds.manifold_from_tag(self.manifold).kind
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        if kind != self.manifold:  # "flat:03" would run and echo as Flat(3)
            raise ConfigInvalid(f"manifold tag {self.manifold!r} is not canonical; "
                                f"write {kind!r}")
        if self.suite not in SUITES:
            raise UnknownSuite(f"unknown suite {self.suite!r}")
        return replace(self, oracle_tol=tolerance)


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


#: the tolerance of a check that the config's ``oracle_tol`` sets
ORACLE = None
#: the tolerance of a pass/fail flag, which tracks ``not ok``: residual 0 or 1
FLAG = 0.5

#: "suite/check-id": (identity, tolerance[, method order p, C]) in report order;
#: a discretization error is about C h^p for h = 1/r, r ode steps = path grid
#: (r = N on away-from-pole), C fitted on sphere2 at seed 0 and N = 32.
CHECKS = {
    "chart-roundtrip/psi-roundtrip": ("Psi_alpha^{-1}(Psi_alpha(beta)) = beta", 1e-6),
    "chart-roundtrip/zero-section": ("Psi_alpha(0) = alpha", 1e-12),
    "chart-roundtrip/membership": ("Psi_alpha(beta) lies in U_alpha", FLAG),
    "transition-cocycle/inverse": ("Phi_21(Phi_12(beta)) = beta", 1e-7),
    "transition-cocycle/cocycle": ("Phi_23(Phi_12(beta)) = Phi_13(beta)", 1e-6),
    "transition-cocycle/pointwise": ("transitions act node by node", FLAG),
    "transition-cocycle/dphi-linear": (
        "d Phi_12 commutes with multiplication by scalar loops", 1e-5),
    "vertical-derivative/fd-agreement": ("d(psi^L) equals the loop of d_v psi", 1e-5),
    "vertical-derivative/lr-linear": ("d(psi^L)(nu beta) = nu d(psi^L)(beta)", 1e-6),
    "vertical-derivative/linear-map": (
        "linear fiber maps differentiate to themselves", 1e-9),
    "tangent-identification/exp-family": (
        "d/ds of a loop curve = loop of pointwise d/ds", 1e-5),
    "tangent-identification/flat-quadratic": (
        "loop curve velocity matches the exact polynomial rate", 1e-8),
    "metric/constant-one": ("<unit, unit> over a constant loop is 1", 1e-14),
    "metric/circle-energy": ("integral of cos^2 + sin^2 is 1", 1e-13),
    "metric/symmetry": ("<beta, gamma> = <gamma, beta>", 0.0),
    "metric/bilinearity": ("the pairing is bilinear", 1e-12),
    "metric/positive": ("nonzero sections have positive norm", FLAG),
    "metric/frame-invariance": ("orthogonal matrix loops preserve the metric", 1e-9),
    "covderiv-adjoint/connector-vs-transport": (
        "looped covariant derivative matches the transport difference quotient",
        1e-4, 2, 0.0991),
    "covderiv-adjoint/metric-compat": ("d/ds<V,W> = <DV,W> + <V,DW>", 1e-5, 2, 0.00229),
    "covderiv-adjoint/flat-constant": (
        "constant fields have zero covariant derivative", 1e-10),
    "geodesic-pointwise/pointwise-oracle": (
        "e_t of the loop geodesic is the geodesic of e_t data", ORACLE, 4, 0.0299),
    "geodesic-pointwise/energy": (
        "L^2 energy is constant along geodesics", 1e-5, 4, 0.0183),
    "geodesic-pointwise/flat-lines": ("flat loop geodesics are straight lines", 1e-12),
    "transport-pointwise/pointwise-oracle": (
        "loop transport corresponds to manifold transport under evaluation",
        ORACLE, 4, 0.109),
    "transport-pointwise/l2-isometry": (
        "transport preserves the L^2 inner product", 1e-7, 4, 0.00282),
    "transport-pointwise/flat-invariance": (
        "flat transport leaves sections unchanged", 1e-9),
    "torsion-loop/cross-product": ("looped torsion equals the pointwise tensor", 0.0),
    "torsion-loop/antisymmetry": ("tau(beta, gamma) = -tau(gamma, beta)", 0.0),
    "torsion-loop/levi-civita-zero": (
        "Levi-Civita loops to a torsion-free connection", 0.0),
    "torsion-loop/fd-estimate": (
        "nabla_X Y - nabla_Y X - [X, Y] reproduces the tensor", 1e-4),
    "frame-extract/reconstruction": ("basis-column probing recovers the matrix loop", 1e-8),
    "frame-extract/rotation": ("a rotation loop is recovered exactly", 1e-10),
    "frame-extract/scalar": ("scalar loops extract to nu(t) I", 1e-12),
    "frame-extract/reject-convolution": (
        "operators that are linear but not pointwise are rejected", FLAG),
    "frame-extract/reject-singular": ("frames singular at a node are rejected", FLAG),
    "fibration/roundtrip": ("trivialize then detrivialize is the identity", 1e-6),
    "fibration/based": ("the fiber part is based at the center", 1e-8),
    "fibration/evaluation": ("phi_u carries the center to u", 1e-8),
    "fibration/flow-hits-seed": ("exp(X_v)(0) = v", 1e-10),
    "fibration/flow-zero": ("exp(X_0) is the identity", 0.0),
    "fibration/flow-support": ("points outside the bump support never move", 0.0),
    "fibration/flow-bijection": ("forward then reversed flow returns the input", 1e-7),
    "tube-lp/point-eval": ("the tube map covers nu under evaluation at 0", ORACLE),
    "tube-lp/point-roundtrip": ("point-tube forward then inverse is the identity", 1e-6),
    "tube-lp/point-zero": ("zero seeds flow to the identity", 0.0),
    "tube-lp/pair-anchor": ("the anchor loop of a pair never moves", 0.0),
    "tube-lp/pair-eval": ("evaluation at 0 of the moved pair lands on nu(v)", ORACLE),
    "tube-lp/pair-roundtrip": ("diagonal-tube forward then inverse is the identity", 1e-6),
    "tube-lp/partition-squares": ("the squared weights sum to one", 1e-10),
    "tube-lp/pou-reproduces": ("s(v) evaluated at the seed base is v", 1e-10),
    "tube-lp/pou-linear": ("s is linear in its seed vector", 1e-10),
    "equivariant/roundtrip": ("decompose then recompose is the identity", 1e-6),
    "equivariant/period": ("the fixed part has period 1/m", 0.0),
    "equivariant/coset-mean": ("linearized normal data has zero coset means", 1e-8),
    "equivariant/rotation-commute": ("decomposition commutes with the circle action", 1e-7),
    "equivariant/flat-fourier": (
        "circle averaging on flat loops is the mode-0 split", 1e-12),
    "exp-nonsurjective/through-pole": ("no continuous lift across the cut locus", 1.0),
    "exp-nonsurjective/away-from-pole": (
        "lifts of circles off the cut locus are continuous", 0.1, 1, 11.9),
    "exp-nonsurjective/constant-target": (
        "constant targets lift to constant vectors", 1e-12),
    "polarization-index/index-vs-winding": ("index of the plus block = -winding(det)", 0.5),
    "polarization-index/shift": ("the index of multiplication by z is -1", 0.5),
    "polarization-index/additivity": ("index(z^a z^b) = index(z^a) + index(z^b)", 0.5),
    "polarization-index/diag-kernels": (
        "diag(z, 1/z) has a one-dimensional kernel and cokernel", FLAG),
    "polarization-index/rotation-covariance": (
        "rotating the symbol preserves the index", 0.5),
    "compactness/constant-symbol": ("constant symbols do not mix the splitting", 1e-14),
    "compactness/finite-rank": (
        "single harmonics give rank n*m off-diagonal blocks", 1e-14),
    "compactness/superpolynomial-decay": (
        "singular values drop by 1e3 across each 8 modes", 1.0),
    "compactness/sorted": ("profiles are reported in decreasing order", FLAG),
}


class Checks:
    """The worst residual of each check that ``CHECKS`` declares for the
    configured suite, folded in by ``track``."""

    def __init__(self, cfg: ExperimentConfig):
        prefix = f"{cfg.suite}/"
        self._declared = {key[len(prefix):]: entry for key, entry in CHECKS.items()
                          if key.startswith(prefix)}
        self._oracle_tol = float(cfg.oracle_tol)
        self._worst: dict[str, float] = {}

    def track(self, check_id: str, diff, *more) -> None:
        """Fold max |d| of ``diff`` and of each of ``more`` in turn into the
        running worst residual of a check: one call per identity, which
        gives the floats of one call per difference.

        A NaN anywhere in a difference makes the residual NaN for good, so
        the check fails instead of silently dropping the trial.
        """
        if check_id not in self._declared:
            raise KeyError(f"check {check_id!r} is not declared in CHECKS")
        worst = self._worst.get(check_id, 0.0)
        for d in (diff, *more):
            worst = float(np.maximum(worst, np.max(np.abs(d))))
        self._worst[check_id] = worst

    @property
    def records(self) -> list[CheckRecord]:
        """One record per declared check, in catalogue order."""
        missing = self._declared.keys() - self._worst.keys()
        if missing:
            raise KeyError(f"declared checks never tracked: {sorted(missing)}")
        return [CheckRecord(check_id, identity, self._worst[check_id],
                            self._oracle_tol if tol is ORACLE else float(tol))
                for check_id, (identity, tol, *_) in self._declared.items()]


# -- random geometry generators ---------------------------------------------------

def _trials(rng, count: int, draw) -> list:
    """``count`` calls of ``draw(rng)`` in order, each slot stacked on a new
    axis 0 as an array; a tuple slot (a loop draw) is stacked part by part."""
    return [tuple(map(np.stack, zip(*slot))) if isinstance(slot[0], tuple) else np.stack(slot)
            for slot in zip(*[draw(rng) for _ in range(count)])]


def _loop_and_sections(rng, manifold, n: int, count: int, *scales):
    """``count`` trials of a random loop, then one random section along it
    per scale: drawn trial by trial, built as one stack."""
    loop, *noise = _trials(rng, count, lambda rng: (
        manifold.loop_draw(rng), *[charts.section_draw(rng, manifold) for _ in scales]))
    alpha = manifold.loop_from_draw(loop, n)
    return alpha, *[charts.section_from_draw(manifold, alpha, w, s)
                    for w, s in zip(noise, scales)]


def _scaled_tangents(manifold, point, length, direction) -> manifolds.TangentAtPoint:
    """A stack of tangent vectors (B, k): each ambient direction projected
    at its point and scaled to its length, by one 1-D norm (a dot product)
    per trial, the bits a norm of that vector alone has."""
    v = manifold.project_tangent_vector(point, direction)
    norm = np.array([np.linalg.norm(row) for row in v])
    scale = length / np.maximum(norm, 1e-12)
    return manifolds.TangentAtPoint(manifold, point, scale[:, None] * v)


# -- suite implementations ---------------------------------------------------------

def suite_chart_roundtrip(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Psi_alpha is a bijection onto U_alpha, inverted exactly by the
    nodewise inversion of the local addition."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)

    # drawn in the order loop, scale, section noise, which the reports depend on
    loop, scale, noise = _trials(rng, cfg.samples, lambda rng: (
        manifold.loop_draw(rng), rng.uniform(0.2, 2.0), charts.section_draw(rng, manifold)))
    center = manifold.loop_from_draw(loop, cfg.resolution)
    beta = charts.section_from_draw(manifold, center, noise, scale)
    chart = charts.Chart(center, manifolds.LocalAdditionSpec(manifold))
    image = charts.chart_forward(chart, beta)
    out.track("membership", not charts.chart_membership(chart, image))
    back = charts.chart_inverse(chart, image)
    out.track("psi-roundtrip", back.vectors - beta.vectors)
    zero_img = charts.chart_forward(chart, charts.zero_section(manifold, center))
    out.track("zero-section", zero_img.samples - center.samples)


def suite_transition_cocycle(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Transition functions compose to the identity, satisfy the cocycle
    law, act pointwise in t, and have L R-linear derivatives."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    n = cfg.resolution

    def draw(rng):
        return (manifold.loop_draw(rng), *[charts.section_draw(rng, manifold) for _ in range(3)],
                rng.integers(0, n), rng.normal(size=manifold.ambient_dim),
                charts.section_draw(rng, manifold))

    loop, *noise, j, kick, delta = _trials(rng, max(1, cfg.samples // 10), draw)
    center1 = manifold.loop_from_draw(loop, n, wobble=0.3)
    shift, shift3, beta = (charts.section_from_draw(manifold, center1, w, scale)
                           for w, scale in zip(noise, (0.05, 0.05, 0.1)))
    delta = charts.section_from_draw(manifold, center1, delta, 0.05)
    # each trial's section with one node j nudged along its tangent space
    node = (np.arange(len(j)), j)
    bumped = beta.vectors.copy()
    bumped[node] += manifold.project_tangent_vector(center1.samples[node], 0.01 * kick)
    bumped = charts.TangentSection(manifold, center1, bumped)
    eps1 = manifold.local_addition_epsilon
    shifted = lambda section: loops.SampledLoop(manifold.exp(center1.samples, section.vectors))
    chart1 = charts.Chart(center1, manifolds.LocalAdditionSpec(manifold, eps1))
    chart2 = charts.Chart(shifted(shift), manifolds.LocalAdditionSpec(manifold, eps1 * 0.8))
    chart3 = charts.Chart(shifted(shift3), manifolds.LocalAdditionSpec(manifold, eps1 * 0.9))

    t12 = charts.transition(chart1, chart2, beta)
    t21 = charts.transition(chart2, chart1, t12)
    out.track("inverse", t21.vectors - beta.vectors)

    t13 = charts.transition(chart1, chart3, beta)
    t23 = charts.transition(chart2, chart3, t12)
    out.track("cocycle", t23.vectors - t13.vectors)

    changed = charts.transition(chart1, chart2, bumped).vectors != t12.vectors
    changed[node] = False
    out.track("pointwise", np.any(changed))

    nu = 0.5 + 0.3 * np.sin(2 * np.pi * center1.nodes)
    h = 1e-5

    def dphi(direction):
        step = direction.scaled(h)
        plus = charts.transition(chart1, chart2, beta + step)
        minus = charts.transition(chart1, chart2, beta - step)
        return (plus.vectors - minus.vectors) / (2 * h)

    lhs = dphi(delta.scaled(nu))
    rhs = nu[:, None] * dphi(delta)
    out.track("dphi-linear", lhs - rhs)


def _fiber_map(lin, quad, cubic, wave, freq):
    """The smooth nonlinear fiberwise maps psi(t, v) on R^d fibers with
    these stacked parameters, map b acting on the loop v[b]."""
    freq, cubic, wave = freq[:, None, None], cubic[:, None], wave[:, None]

    def psi(t, v):
        tv = np.asarray(t)[:, None]
        out = v @ lin.swapaxes(-1, -2)
        out = out + (v @ quad.swapaxes(-1, -2)) * np.cos(2 * np.pi * freq * tv)
        out = out + cubic * np.sin(v)
        out = out + 0.2 * wave * np.sin(2 * np.pi * tv)
        return out

    return psi


def suite_vertical_derivative(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The derivative of a looped fiberwise map is the loop of vertical
    derivatives, and it commutes with the scalar-loop action."""
    d = 3
    manifold = manifolds.Flat(d)
    n = cfg.resolution
    t = np.arange(n) / n

    def draw(rng):
        return (rng.normal(size=(d, d)) * 0.8, rng.normal(size=(d, d)) * 0.4,
                rng.normal(size=d) * 0.3, rng.normal(size=d), int(rng.integers(1, 4)),
                loops.noise_draw(rng, d, 4), charts.section_draw(rng, manifold))

    *params, alpha, beta = _trials(rng, max(10, cfg.samples // 2), draw)
    alpha = loops.noise_loop(alpha, n, 0.8)
    beta = charts.section_from_draw(manifold, alpha, beta, 0.8)
    psi = _fiber_map(*params)
    vd = charts.vertical_derivative(psi, alpha, beta, h=1e-5)

    # independent route: difference quotient of the looped map itself
    s = 2e-5
    looped = (np.asarray(psi(t, alpha.samples + s * beta.vectors))
              - np.asarray(psi(t, alpha.samples - s * beta.vectors))) / (2 * s)
    out.track("fd-agreement", vd.vectors - looped)

    nu = 0.7 + 0.25 * np.sin(2 * np.pi * t) + 0.1 * np.cos(4 * np.pi * t)
    lhs = charts.vertical_derivative(psi, alpha, beta.scaled(nu), h=1e-5)
    rhs = vd.scaled(nu)
    out.track("lr-linear", lhs.vectors - rhs.vectors)
    lin = rng.normal(size=(d, d))
    psi_lin = lambda t_, v: v @ lin.T
    alpha = loops.random_bandlimited_loop(rng, d, n)
    beta = charts.random_section(rng, manifolds.Flat(d), alpha)
    vd = charts.vertical_derivative(psi_lin, alpha, beta)
    out.track("linear-map", vd.vectors - beta.vectors @ lin.T)


def suite_tangent_identification(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Velocities of curves of loops are loops of pointwise velocities."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    n = cfg.resolution
    reps = max(1, cfg.samples // 10)
    alpha, u = _loop_and_sections(rng, manifold, n, reps, 0.5)
    curve = lambda s: loops.SampledLoop(manifold.exp(alpha.samples, s * u.vectors))
    vel = geometry.curve_of_loops_derivative(curve, 0.0)
    out.track("exp-family", vel - u.vectors)
    flat = manifolds.Flat(3)

    a, b, c, s0 = _trials(rng, reps, lambda rng: (
        loops.noise_draw(rng, 3, 4), *[charts.section_draw(rng, flat) for _ in range(2)],
        rng.uniform(-0.5, 0.5, size=(1, 1))))
    a = loops.noise_loop(a, n)
    b, c = (charts.section_from_draw(flat, a, w) for w in (b, c))
    curve = lambda s: loops.SampledLoop(a.samples + s * b.vectors + s * s * c.vectors)
    vel = geometry.curve_of_loops_derivative(curve, s0)
    out.track("flat-quadratic", vel - (b.vectors + 2 * s0 * c.vectors))


def suite_metric(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The weak L^2 metric: closed-form values, symmetry, bilinearity,
    positivity, and invariance under orthogonal frame loops."""
    n = cfg.resolution
    flat2 = manifolds.Flat(2)
    const = loops.SampledLoop.constant(np.zeros(2), n)
    unit = charts.TangentSection(flat2, const,
                                 np.tile(np.array([1.0, 0.0]), (n, 1)))
    out.track("constant-one", geometry.l2_inner(const, unit, unit) - 1.0)
    t = np.arange(n) / n
    wave = charts.TangentSection(flat2, const,
                                 np.stack([np.cos(2 * np.pi * t),
                                           np.sin(2 * np.pi * t)], axis=-1))
    out.track("circle-energy", geometry.l2_inner(const, wave, wave) - 1.0)
    rot = geometry.rotation_matrix_loop(n, 1.0)

    b, c, d, x, y = _trials(rng, max(1, cfg.samples // 5), lambda rng: (
        *[charts.section_draw(rng, flat2) for _ in range(3)], *rng.normal(size=2)))
    base = loops.SampledLoop(np.broadcast_to(const.samples, (len(x), n, 2)))
    b, c, d = (charts.section_from_draw(flat2, base, w) for w in (b, c, d))
    bc = geometry.l2_inner(base, b, c)
    out.track("symmetry", bc - geometry.l2_inner(base, c, b))
    combo = b.scaled(x[:, None]) + c.scaled(y[:, None])
    lhs = geometry.l2_inner(base, combo, d)
    rhs = x * geometry.l2_inner(base, b, d) + y * geometry.l2_inner(base, c, d)
    out.track("bilinearity", lhs - rhs)
    nb = geometry.l2_inner(base, b, b)
    scale = np.maximum(1e-300, np.max(np.abs(b.vectors), axis=(-2, -1)) ** 2)
    out.track("positive", ~(nb / scale > 1e-6))
    rb, rc = (charts.TangentSection(flat2, base, rot.apply(s.vectors)) for s in (b, c))
    out.track("frame-invariance", geometry.l2_inner(base, rb, rc) - bc)


def suite_covderiv_adjoint(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The looped covariant derivative is the nodewise connector applied to
    adjoint data; checked against a transport-based difference quotient and
    for metric compatibility."""
    manifold = manifolds.Sphere2()
    conn = geometry.ConnectionSpec(manifold)
    n = cfg.resolution
    grid = cfg.path_grid
    s_grid = np.linspace(0.0, 1.0, grid + 1)
    s_col = s_grid[:, None, None]
    for _ in range(3):  # per trial: a stack would multiply the N = 1024 peak of the fields
        alpha = manifold.random_loop(rng, n, wobble=0.3)
        nu = charts.random_section(rng, manifold, alpha, scale=0.2)
        w = charts.random_section(rng, manifold, alpha, scale=0.1)
        w2 = charts.random_section(rng, manifold, alpha, scale=0.1)

        def field(s, nodes=slice(None)):
            """The closed-form geodesic family at time(s) s and the fields
            built from w and w2 along it, at the given circle nodes."""
            pos = manifold.exp(alpha.samples[nodes], s * nu.vectors[nodes])
            factor = 1.0 + 0.1 * np.sin(np.pi * s)
            return pos, *(manifold.project_tangent_vector(pos, factor * v.vectors[nodes])
                          for v in (w, w2))

        pos, fieldV, fieldW = field(s_col)
        path = geometry.LoopPath(manifold, s_grid, pos)
        derivV = geometry.cov_deriv_along_path(conn, path, fieldV)
        derivW = geometry.cov_deriv_along_path(conn, path, fieldW)

        # oracle: transport-based difference quotient at random grid nodes,
        # both times s +- h of each (time, circle) node in one call
        h = 1e-4
        i, j = np.array([(rng.integers(1, grid), rng.integers(0, n))
                         for _ in range(10)]).T
        at_pos, at_vec, _ = field(s_grid[i, None] + np.array([h, -h])[:, None, None], j)
        pulled = manifold.geodesic_transport(
            at_pos, manifold.log(at_pos, path.values[i, j]), at_vec)
        oracle = (pulled[0] - pulled[1]) / (2 * h)
        out.track("connector-vs-transport", derivV[i, j] - oracle)

        inner = geometry.l2_pairing(fieldV, fieldW)
        dinner = geometry._time_derivative(inner[:, None], s_grid)[:, 0]
        rhs = geometry.l2_pairing(derivV, fieldW) + geometry.l2_pairing(fieldV, derivW)
        out.track("metric-compat", dinner[1:-1] - rhs[1:-1])

    flat = manifolds.Flat(3)
    fconn = geometry.ConnectionSpec(flat)
    a = loops.random_bandlimited_loop(rng, 3, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.LoopPath(flat, s_grid, a.samples + s_col * b.vectors)
    c = charts.random_section(rng, flat, a)
    constant = np.broadcast_to(c.vectors, fpath.values.shape)
    out.track("flat-constant", geometry.cov_deriv_along_path(fconn, fpath, constant))


def suite_geodesic_pointwise(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Loop-space geodesics evaluate to manifold geodesics node by node and
    keep their L^2 energy."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    conn = geometry.ConnectionSpec(manifold)
    n = cfg.resolution
    alpha, nu = _loop_and_sections(rng, manifold, n, 3, 0.5)
    path = geometry.loop_geodesic(conn, alpha, nu, 1.0, cfg.ode_steps)
    idx = np.array([cfg.ode_steps // 2, cfg.ode_steps])
    oracle = manifold.exp(alpha.samples, path.s_grid[idx, None, None, None] * nu.vectors)
    out.track("pointwise-oracle", path.values[idx] - oracle)
    for trial in range(len(alpha.samples)):
        # per trial: a velocity of the whole stack would double its memory
        vel = geometry._time_derivative(path.values[:, trial], path.s_grid)
        energy = geometry.l2_pairing(vel, vel)
        interior = energy[1:-1]
        out.track("energy", interior - interior[0])
    flat = manifolds.Flat(2)
    fconn = geometry.ConnectionSpec(flat)
    a = loops.random_bandlimited_loop(rng, 2, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.loop_geodesic(fconn, a, b, 1.0, 32)
    out.track("flat-lines", fpath.values[-1] - (a.samples + b.vectors))


def suite_transport_pointwise(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Loop-space parallel transport agrees with the nodewise closed-form
    transport and preserves the L^2 metric."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    conn = geometry.ConnectionSpec(manifold)
    n = cfg.resolution
    alpha, nu, sigma = _loop_and_sections(rng, manifold, n, 3, 0.5, 0.8)
    path = geometry.loop_geodesic(conn, alpha, nu, 1.0, cfg.ode_steps)
    moved = geometry.loop_parallel_transport(conn, path, sigma)
    oracle = manifold.geodesic_transport(alpha.samples, nu.vectors, sigma.vectors)
    out.track("pointwise-oracle", moved.vectors - oracle)
    out.track("l2-isometry", geometry.l2_inner(moved.base, moved, moved)
              - geometry.l2_inner(alpha, sigma, sigma))
    flat = manifolds.Flat(3)
    fconn = geometry.ConnectionSpec(flat)
    a = loops.random_bandlimited_loop(rng, 3, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.loop_geodesic(fconn, a, b, 1.0, 32)
    sig = charts.random_section(rng, flat, a)
    fmoved = geometry.loop_parallel_transport(fconn, fpath, sig)
    out.track("flat-invariance", fmoved.vectors - sig.vectors)


def suite_torsion_loop(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The torsion of a looped connection is the loop of the torsion."""
    n = cfg.resolution
    flat = manifolds.Flat(3)
    cross = lambda p, u, v: np.cross(u, v)
    conn_t = geometry.ConnectionSpec(flat, torsion=cross)
    alpha = loops.random_bandlimited_loop(rng, 3, n)
    beta = charts.random_section(rng, flat, alpha)
    gamma = charts.random_section(rng, flat, alpha)
    looped = geometry.torsion(conn_t, alpha, beta, gamma)
    direct = np.cross(beta.vectors, gamma.vectors)
    out.track("cross-product", looped.vectors - direct)
    swapped = geometry.torsion(conn_t, alpha, gamma, beta)
    out.track("antisymmetry", looped.vectors + swapped.vectors)

    sphere = manifolds.Sphere2()
    lc = geometry.ConnectionSpec(sphere)
    s_alpha = sphere.random_loop(rng, n)
    s_beta = charts.random_section(rng, sphere, s_alpha)
    s_gamma = charts.random_section(rng, sphere, s_alpha)
    zero = geometry.torsion(lc, s_alpha, s_beta, s_gamma)
    out.track("levi-civita-zero", zero.vectors)

    # finite-difference torsion estimate at five sample nodes, one row each
    def fd_torsion(manifold_, conn_, p, u, v, h=1e-5):
        def extend(vec):
            return lambda q: manifold_.project_tangent_vector(
                manifold_.project_point(q), vec)

        X, Y = extend(u), extend(v)

        def ambient_jacobian_apply(F, direction):
            return (F(p + h * direction) - F(p - h * direction)) / (2 * h)

        dYX = ambient_jacobian_apply(Y, X(p))
        dXY = ambient_jacobian_apply(X, Y(p))
        bracket = dYX - dXY
        covXY = conn_.connector(p, Y(p), X(p), dYX)
        covYX = conn_.connector(p, X(p), Y(p), dXY)
        return covXY - covYX - bracket

    j = [int(rng.integers(0, n)) for _ in range(5)]
    out.track("fd-estimate", fd_torsion(sphere, lc, s_alpha.samples[j],
                                        s_beta.vectors[j], s_gamma.vectors[j]),
              fd_torsion(flat, conn_t, alpha.samples[j], beta.vectors[j], gamma.vectors[j])
              - direct[j])


def _raises(error, call) -> bool:
    """Whether ``call()`` raises ``error``."""
    try:
        call()
    except error:
        return True
    return False


def suite_frame_extract(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Pointwise-linear operators on loop spaces are matrix loops, recovered
    by probing with constant basis loops."""
    n = min(cfg.resolution, 64)
    d = 2
    for _ in range(20):  # per trial: frame_from_module_map takes one matrix loop
        t = np.arange(n) / n
        mats = np.tile(np.eye(d) * rng.uniform(1.5, 2.5), (n, 1, 1))
        for k in range(1, 3):
            mats += rng.normal(size=(d, d)) * 0.1 * np.cos(2 * np.pi * k * t)[:, None, None]
            mats += rng.normal(size=(d, d)) * 0.1 * np.sin(2 * np.pi * k * t)[:, None, None]
        truth = geometry.MatrixLoop(mats)
        frame = geometry.frame_from_module_map(truth.apply, d, n,
                                               rng=np.random.default_rng(cfg.seed + 1))
        out.track("reconstruction", frame.matrices - truth.matrices)

    rot = geometry.rotation_matrix_loop(n, 1.0)
    frame = geometry.frame_from_module_map(rot.apply, 2, n)
    out.track("rotation", frame.matrices - rot.matrices)

    nu = 1.5 + 0.5 * np.sin(2 * np.pi * np.arange(n) / n)
    scalar_op = lambda s: nu[:, None] * s
    frame = geometry.frame_from_module_map(scalar_op, d, n)
    expected = nu[:, None, None] * np.eye(d)
    out.track("scalar", frame.matrices - expected)

    convolution = lambda s: np.roll(s, n // 4, axis=-2)
    out.track("reject-convolution", not _raises(
        NotPointwiseLinear, lambda: geometry.frame_from_module_map(convolution, d, n)))

    vanishing = np.sin(2 * np.pi * np.arange(n) / n)
    singular_op = lambda s: vanishing[:, None] * s
    out.track("reject-singular", not _raises(
        SingularFrame, lambda: geometry.frame_from_module_map(singular_op, d, n)))


def suite_fibration(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The based-loop fibration trivializes locally through bump flows."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    n = cfg.resolution

    x, seed = _trials(rng, max(1, cfg.samples // 10), lambda rng: (
        manifold.random_point(rng)[None], charts.section_draw(rng, manifold)))
    base = np.broadcast_to(x, (len(x), n, manifold.ambient_dim))
    seed = charts.section_from_draw(manifold, loops.SampledLoop(base), seed, 0.25)
    # keep the base point inside the trivializing patch radius sqrt(lower);
    # one 1-D norm per trial, a dot product, as each trial had on its own
    norm = np.array([np.linalg.norm(v) for v in seed.vectors[:, 0]])
    clamp = np.minimum(1.0, 0.9 / np.maximum(norm, 1e-12))[:, None, None]
    gamma = loops.SampledLoop(manifold.exp(base, clamp * seed.vectors))
    omega, u = tubes.based_trivialize(manifold, x, gamma, steps=cfg.ode_steps)
    out.track("based", omega.samples[:, :1] - x)
    back = tubes.based_detrivialize(manifold, x, omega, u, steps=cfg.ode_steps)
    out.track("roundtrip", back.samples - gamma.samples)
    out.track("evaluation", back.samples[:, 0] - u)

    # flow properties in the model space
    v = rng.normal(size=3)
    v *= 0.5 / np.linalg.norm(v)
    fd = tubes.FlowDiffeo(v)
    out.track("flow-hits-seed", fd.forward(np.zeros(3)) - v)
    fd0 = tubes.FlowDiffeo(np.zeros(3))
    u0 = rng.normal(size=3)
    out.track("flow-zero", fd0.forward(u0) - u0)
    far = np.array([2.0, 0.0, 0.0])
    small = tubes.FlowDiffeo(np.array([0.05, 0.0, 0.0]))
    out.track("flow-support", small.forward(far) - far)
    probes = np.stack([rng.normal(size=3) * rng.uniform(0.0, 1.5)
                       for _ in range(20)])
    out.track("flow-bijection", fd.inverse(fd.forward(probes)) - probes)


def suite_tube_lp(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Tubes around coincidence submanifolds: loops through a point, and
    pairs of loops agreeing at time zero."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    spec = manifolds.LocalAdditionSpec(manifold)
    n, k = cfg.resolution, manifold.ambient_dim
    bump = np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
    steps = cfg.ode_steps

    x0, shift, length, direction = _trials(rng, max(1, cfg.samples // 20), lambda rng: (
        manifold.random_point(rng)[None], charts.section_draw(rng, manifold),
        rng.uniform(0.1, 0.6), rng.normal(size=k)))
    base = np.broadcast_to(x0, (len(x0), n, k))
    shift = charts.section_from_draw(manifold, loops.SampledLoop(base), shift, 0.3)
    alpha = loops.SampledLoop(manifold.exp(base, bump * shift.vectors))
    v = _scaled_tangents(manifold, x0[:, 0], length, direction)
    beta = tubes.point_tube_forward(manifold, x0, alpha, v, steps=steps)
    nu_v = manifold.exp(x0[:, 0], spec.compress(v.vector))
    out.track("point-eval", beta.samples[:, 0] - nu_v)
    alpha2, v2 = tubes.point_tube_inverse(manifold, x0, beta, steps=steps)
    out.track("point-roundtrip", alpha2.samples - alpha.samples, v2.vector - v.vector)
    zero = manifolds.TangentAtPoint(manifold, v.base, np.zeros_like(v.vector))
    same = tubes.point_tube_forward(manifold, x0, alpha, zero, steps=steps)
    out.track("point-zero", same.samples - alpha.samples)

    loop, shift, length, direction = _trials(rng, max(1, cfg.samples // 20), lambda rng: (
        manifold.loop_draw(rng), charts.section_draw(rng, manifold),
        rng.uniform(0.1, 0.6), rng.normal(size=k)))
    a1 = manifold.loop_from_draw(loop, n, wobble=0.3)
    shift = charts.section_from_draw(manifold, a1, shift, 0.2)
    a2 = loops.SampledLoop(manifold.exp(a1.samples, bump * shift.vectors))
    v = _scaled_tangents(manifold, a1.samples[:, 0], length, direction)
    b1, b2 = tubes.diagonal_tube_forward(manifold, (a1, a2), v, steps=steps)
    out.track("pair-anchor", b1.samples - a1.samples)
    nu_v = manifold.exp(a1.samples[:, 0], spec.compress(v.vector))
    out.track("pair-eval", b2.samples[:, 0] - nu_v)
    (c1, c2), v2 = tubes.diagonal_tube_inverse(manifold, (b1, b2), steps=steps)
    out.track("pair-roundtrip", c2.samples - a2.samples, v2.vector - v.vector)

    # partition-of-unity sections; each point goes through the weights as a
    # (1, k) row, as a single call would pass it
    p, = _trials(rng, 25, lambda rng: (manifold.random_point(rng)[None],))
    out.track("partition-squares",
              sum(weight(p) ** 2 for weight, _ in manifold.tangent_partition()) - 1.0)

    p, v, w, x, y, q = _trials(rng, 10, lambda rng: (
        manifold.random_point(rng), rng.normal(size=k), rng.normal(size=k),
        *rng.normal(size=2), manifold.random_point(rng)))
    v, w = (manifolds.TangentAtPoint(manifold, p, manifold.project_tangent_vector(p, 0.5 * vec))
            for vec in (v, w))
    sv = tubes.pou_section(manifold, v)
    sw = tubes.pou_section(manifold, w)
    out.track("pou-reproduces", sv(p) - v.vector)
    x, y = x[:, None], y[:, None]
    comb = manifolds.TangentAtPoint(manifold, p, x * v.vector + y * w.vector)
    scomb = tubes.pou_section(manifold, comb)
    out.track("pou-linear", scomb(q) - x * sv(q) - y * sw(q))


def suite_equivariant(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Equivariant averaging: decomposition near the fixed sets of circle
    subgroups, its inverse, rotation equivariance, and the flat Fourier
    oracle."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    n = cfg.resolution
    for m in (2, 4):
        loop, wiggle, shift = _trials(rng, max(1, cfg.samples // 25), lambda rng: (
            manifold.loop_draw(rng, bandwidth=2), charts.section_draw(rng, manifold),
            rng.integers(1, n)))
        base = manifold.loop_from_draw(loop, n // m, wobble=0.25)
        periodic = loops.SampledLoop(np.tile(base.samples, (1, m, 1)))
        wiggle = charts.section_from_draw(manifold, periodic, wiggle, 0.1)
        gamma = loops.SampledLoop(manifold.exp(periodic.samples, wiggle.vectors))
        fixed, normal = tubes.equivariant_decompose(manifold, m, gamma)
        rec = tubes.equivariant_recompose(manifold, fixed, normal)
        out.track("roundtrip", rec.samples - gamma.samples)
        out.track("period", fixed.samples - np.roll(fixed.samples, n // m, axis=-2))
        out.track("coset-mean", tubes.coset_mean_residual(manifold, m, gamma, fixed))
        # the circle action by shift/N, a whole number of nodes, per trial
        nodes = ((np.arange(n) + shift[:, None]) % n)[..., None]
        rotated = lambda a: np.take_along_axis(a, nodes, axis=-2)
        fixed_r, normal_r = tubes.equivariant_decompose(
            manifold, m, loops.SampledLoop(rotated(gamma.samples)))
        out.track("rotation-commute", fixed_r.samples - rotated(fixed.samples),
                  normal_r.vectors - rotated(normal.vectors))

    # flat circle-group case against the Fourier oracle
    flat = manifolds.Flat(3)
    a = loops.random_bandlimited_loop(rng, 3, n)
    fixed, normal = tubes.equivariant_decompose(flat, 1, a)
    coeffs = np.fft.fft(a.samples, axis=0) / n
    mode0 = coeffs[0].real
    out.track("flat-fourier", fixed.samples - mode0, normal.vectors - (a.samples - mode0))


def _latitude_circles(radius: np.ndarray, n: int) -> np.ndarray:
    """(B, N, 3): one circle per radius about the south pole."""
    radius, t = radius[:, None], np.arange(n) / n
    return np.stack([np.sin(radius) * np.cos(2 * np.pi * t),
                     np.sin(radius) * np.sin(2 * np.pi * t),
                     -np.cos(radius) * np.ones(n)], axis=-1)


def _tilted_great_circles(min_dist: np.ndarray, azimuth: np.ndarray, n: int) -> np.ndarray:
    """(B, N, 3): one great circle per pair, passing min_dist from the south
    pole at that azimuth."""
    a = np.pi / 2 - min_dist
    u = np.stack([np.cos(a) * np.cos(azimuth), np.cos(a) * np.sin(azimuth),
                  -np.sin(a)], axis=-1)
    w = np.stack([-np.sin(azimuth), np.cos(azimuth), np.zeros_like(azimuth)], axis=-1)
    t = 2 * np.pi * (np.arange(n) / n)[:, None]
    return np.cos(t) * u[:, None] + np.sin(t) * w[:, None]


def suite_exp_nonsurjective(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Great circles through the base point admit no continuous log lift;
    circles staying away from the cut locus do."""
    manifold = manifolds.Sphere2()
    n = cfg.resolution
    witness = lambda samples: geometry.exp_nonsurjectivity_witness(
        manifold, loops.SampledLoop(samples))["jump_magnitude"]
    through = _tilted_great_circles(np.zeros(5), rng.uniform(0, 2 * np.pi, size=5), n)
    # circles through the pole must jump: the residual is 1/jump
    out.track("through-pole", 1.0 / witness(through))
    away = np.concatenate([_latitude_circles(np.array([0.2, 0.7, 1.2]), n),
                           _tilted_great_circles(np.array([np.pi / 2, 1.3]),
                                                 rng.uniform(0, 2 * np.pi, size=2), n)])
    out.track("away-from-pole", witness(away))
    out.track("constant-target", witness(np.tile(manifold.random_point(rng), (n, 1))))


def _monomial_symbol(m: int, n_nodes: int) -> geometry.MatrixLoop:
    t = np.arange(n_nodes) / n_nodes
    vals = np.exp(2j * np.pi * m * t)[:, None, None]
    return geometry.MatrixLoop(vals)


def symbol_battery(rng, n_nodes: int = 128, count: int = 20) -> list:
    """Random banded invertible symbols with known winding numbers.

    Scalar entries are monomials times exponentials of small bandwidth-one
    loops (so semi-infinite kernel data decays factorially and is captured
    at small truncations); matrix entries are unitary conjugates of
    triangular polynomial symbols, whose kernels are exactly finitely
    supported.
    """
    t = np.arange(n_nodes) / n_nodes
    z = np.exp(2j * np.pi * t)
    battery = []
    for i in range(count):
        if i % 5 < 3:
            m = int(rng.integers(-3, 4))
            a = (rng.normal() + 1j * rng.normal()) * 0.15
            b = (rng.normal() + 1j * rng.normal()) * 0.15
            vals = (z ** m) * np.exp(a * z + b * np.conj(z))
            battery.append(geometry.MatrixLoop(vals[:, None, None]))
        else:
            p = int(rng.integers(-2, 3))
            q = int(rng.integers(-2, 3))
            c = (rng.normal() + 1j * rng.normal()) * 0.5
            mats = np.zeros((n_nodes, 2, 2), dtype=np.complex128)
            mats[:, 0, 0] = z ** p
            mats[:, 1, 1] = z ** q
            mats[:, 0, 1] = c * z ** int(rng.integers(-1, 2))
            herm = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u = np.linalg.qr(herm)[0]
            battery.append(geometry.MatrixLoop(
                np.einsum("ij,tjk,kl->til", u, mats, u.conj().T)))
    return battery


def _index(symbol: geometry.MatrixLoop, truncation: int) -> int:
    return polarization.fredholm_index(polarization.toeplitz_blocks(symbol, truncation))


def suite_polarization_index(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """The plus-sector compression of an invertible symbol is Fredholm with
    index minus the winding of the determinant."""
    out.track("index-vs-winding", [_index(symbol, 16) + polarization.winding_number(symbol)
                                   for symbol in symbol_battery(rng)])
    out.track("shift", _index(_monomial_symbol(1, 64), 8) + 1)

    pairs = [(_monomial_symbol(a, 64), _monomial_symbol(b, 64))
             for a, b in rng.integers(-3, 4, size=(6, 2)).tolist()]
    out.track("additivity", [_index(geometry.MatrixLoop(za.matrices * zb.matrices), 8)
                             - _index(za, 8) - _index(zb, 8) for za, zb in pairs])

    t = np.arange(64) / 64
    mats = np.zeros((64, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = np.exp(2j * np.pi * t)
    mats[:, 1, 1] = np.exp(-2j * np.pi * t)
    diag = geometry.MatrixLoop(mats)
    idx, ker, coker = polarization.fredholm_data(
        polarization.toeplitz_blocks(diag, 8))
    out.track("diag-kernels", (idx, ker, coker) != (0, 1, 1))

    symbol = symbol_battery(rng, count=1)[0]
    base_idx = _index(symbol, 16)
    out.track("rotation-covariance", [
        _index(geometry.MatrixLoop(np.roll(symbol.matrices, -shift, axis=0)), 16) - base_idx
        for shift in (7, 19)])


def _entire_rotation_symbol() -> geometry.MatrixLoop:
    t = np.arange(256) / 256
    ang = 8.0 * np.sin(2 * np.pi * t)
    mats = np.zeros((256, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = np.cos(ang)
    mats[:, 0, 1] = np.sin(ang)
    mats[:, 1, 0] = -np.sin(ang)
    mats[:, 1, 1] = np.cos(ang)
    return geometry.MatrixLoop(mats)


def suite_compactness(cfg: ExperimentConfig, rng, out: Checks) -> None:
    """Off-diagonal blocks are compact: finite rank for banded symbols and
    rapidly decaying singular values for entire ones."""
    profile = lambda symbol, truncation: polarization.compactness_profile(
        polarization.toeplitz_blocks(symbol, truncation))

    const = geometry.MatrixLoop(np.tile(np.diag([1.0 + 0j, 2.0]), (64, 1, 1)))
    prof = profile(const, 8)
    out.track("constant-symbol", prof["plus_minus"][0], prof["minus_plus"][0])

    harmonic = lambda m: geometry.MatrixLoop(_monomial_symbol(m, 64).matrices * np.eye(2))
    out.track("finite-rank", [profile(harmonic(m), 8)["plus_minus"][2 * m] for m in (1, 2, 3)])

    s = profile(_entire_rotation_symbol(), 64)["plus_minus"]
    out.track("superpolynomial-decay", 1e3 / float(s[8] / s[16]), 1e3 / float(s[16] / s[24]))
    out.track("sorted", not np.all(np.diff(s) <= 1e-15))


SUITES = {
    "chart-roundtrip": suite_chart_roundtrip,
    "transition-cocycle": suite_transition_cocycle,
    "vertical-derivative": suite_vertical_derivative,
    "tangent-identification": suite_tangent_identification,
    "metric": suite_metric,
    "covderiv-adjoint": suite_covderiv_adjoint,
    "geodesic-pointwise": suite_geodesic_pointwise,
    "transport-pointwise": suite_transport_pointwise,
    "torsion-loop": suite_torsion_loop,
    "frame-extract": suite_frame_extract,
    "fibration": suite_fibration,
    "tube-lp": suite_tube_lp,
    "equivariant": suite_equivariant,
    "exp-nonsurjective": suite_exp_nonsurjective,
    "polarization-index": suite_polarization_index,
    "compactness": suite_compactness,
}


def run_checks(cfg: ExperimentConfig) -> list[CheckRecord]:
    """The records of one run of ``cfg.suite`` on a validated configuration,
    with the generator seeded by ``cfg.seed``.

    ``SUITES`` is read at call time, so an entry swapped in by a tracer or a
    test is the one that runs.
    """
    out = Checks(cfg)
    try:
        SUITES[cfg.suite](cfg, np.random.default_rng(cfg.seed), out)
    except (LoopspaceError, ValueError) as exc:
        # a numerical failure inside an accepted configuration is a failed
        # check with a report, not an invalid configuration
        return [CheckRecord("suite-error", f"{type(exc).__name__}: {exc}", 1.0, FLAG)]
    return out.records
