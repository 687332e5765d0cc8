"""Verification suites: each one exercises a family of loop-space identities
against independent oracles and reports residuals with pinned tolerances.

Suites are deterministic functions of the experiment configuration: all
randomness flows through the seeded generator, and summation orders are
fixed, so rerunning a configuration reproduces the report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charts, geometry, loops, manifolds, polarization, tubes
from .errors import (
    ConfigInvalid,
    NotPointwiseLinear,
    SingularFrame,
    UnknownSuite,
)


# -- configuration and report records -------------------------------------------

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
        if self.resolution < loops.MIN_RESOLUTION or \
                (self.resolution & (self.resolution - 1)) != 0:
            raise ConfigInvalid("resolution must be a power of two >= 8")
        if self.oracle_tol <= 0:
            raise ConfigInvalid("tolerance must be positive")
        if self.path_grid < 16:
            raise ConfigInvalid("path grid must be at least 16")
        if self.ode_steps < 8:
            raise ConfigInvalid("ode steps must be at least 8")
        if self.samples < 1:
            raise ConfigInvalid("sample count must be positive")
        try:
            manifolds.manifold_from_tag(self.manifold)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc
        if self.suite not in SUITES:
            raise UnknownSuite(f"unknown suite {self.suite!r}")
        return self


@dataclass(frozen=True)
class CheckRecord:
    check_id: str
    anchor: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


class Checks:
    """Accumulator for check records within one suite run."""

    def __init__(self):
        self.records: list[CheckRecord] = []
        self._worst: dict[str, float] = {}

    def track(self, check_id: str, diff) -> None:
        """Fold max |diff| into the running worst residual of a check.

        A NaN anywhere in ``diff`` makes the residual NaN for good, so the
        check fails instead of silently dropping the trial.
        """
        worst = self._worst.get(check_id, 0.0)
        self._worst[check_id] = float(np.maximum(worst, np.max(np.abs(diff))))

    def add(self, check_id: str, anchor: str, tolerance: float,
            residual: float | None = None):
        """Record a check; the residual defaults to the tracked worst."""
        if residual is None:
            residual = self._worst.pop(check_id)
        self.records.append(CheckRecord(check_id, anchor, float(residual),
                                        float(tolerance)))

    def add_flag(self, check_id: str, anchor: str, ok: bool):
        self.records.append(CheckRecord(check_id, anchor,
                                        0.0 if ok else 1.0, 0.5))


# -- random geometry generators ---------------------------------------------------

def clamped_tangent(rng, manifold, point, norm: float) -> manifolds.TangentAtPoint:
    """A random tangent vector rescaled to a fixed norm."""
    raw = manifolds.random_tangent(manifold, rng, point, 1.0)
    scale = norm / max(raw.norm, 1e-12)
    return manifolds.TangentAtPoint(manifold, point, raw.vector * scale)


def random_manifold_loop(rng, manifold, n: int, wobble: float = 0.4,
                         bandwidth: int = 3) -> loops.SampledLoop:
    """A random smooth loop on the manifold with O(1) geometry."""
    if isinstance(manifold, manifolds.Flat):
        return loops.random_bandlimited_loop(rng, manifold.ambient_dim, n,
                                             bandwidth=bandwidth)
    if isinstance(manifold, manifolds.Sphere2):
        center = manifold.random_point(rng)
        noise = loops.random_bandlimited_loop(rng, 3, n, bandwidth=bandwidth,
                                              amplitude=wobble)
        spread = float(np.max(np.linalg.norm(noise.samples, axis=1)))
        clamp = min(1.0, 0.55 / max(spread, 1e-12))
        return loops.SampledLoop(
            manifold.project_point(center + clamp * noise.samples))
    if isinstance(manifold, manifolds.FlatTorus2):
        base = rng.uniform(0, 2 * np.pi, size=2)
        noise = loops.random_bandlimited_loop(rng, 2, n, bandwidth=bandwidth,
                                              amplitude=wobble)
        a = base[0] + noise.samples[:, 0]
        b = base[1] + noise.samples[:, 1]
        return loops.SampledLoop(
            np.stack([np.cos(a), np.sin(a), np.cos(b), np.sin(b)], axis=-1))
    raise ConfigInvalid(f"no loop generator for {manifold!r}")


# -- suite implementations ---------------------------------------------------------

def suite_chart_roundtrip(cfg: ExperimentConfig, rng) -> list:
    """Psi_alpha is a bijection onto U_alpha, inverted exactly by the
    nodewise inversion of the local addition."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    spec = manifolds.LocalAdditionSpec(manifold)
    out = Checks()
    members = True
    for _ in range(cfg.samples):
        center = random_manifold_loop(rng, manifold, cfg.resolution)
        chart = charts.Chart(center, spec)
        beta = charts.random_section(rng, manifold, center,
                                     scale=rng.uniform(0.2, 2.0))
        image = charts.chart_forward(chart, beta)
        members = members and charts.chart_membership(chart, image)
        back = charts.chart_inverse(chart, image)
        out.track("psi-roundtrip", back.vectors - beta.vectors)
        zero_img = charts.chart_forward(chart, charts.zero_section(manifold, center))
        out.track("zero-section", zero_img.samples - center.samples)
    out.add("psi-roundtrip", "Psi_alpha^{-1}(Psi_alpha(beta)) = beta", 1e-6)
    out.add("zero-section", "Psi_alpha(0) = alpha", 1e-12)
    out.add_flag("membership", "Psi_alpha(beta) lies in U_alpha", members)
    return out.records


def suite_transition_cocycle(cfg: ExperimentConfig, rng) -> list:
    """Transition functions compose to the identity, satisfy the cocycle
    law, act pointwise in t, and have L R-linear derivatives."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    out = Checks()
    n = cfg.resolution
    pointwise_ok = True
    reps = max(1, cfg.samples // 10)
    for _ in range(reps):
        center1 = random_manifold_loop(rng, manifold, n, wobble=0.3)
        eps1 = manifold.local_addition_epsilon
        spec1 = manifolds.LocalAdditionSpec(manifold, eps1)
        spec2 = manifolds.LocalAdditionSpec(manifold, eps1 * 0.8)
        spec3 = manifolds.LocalAdditionSpec(manifold, eps1 * 0.9)
        shift = charts.random_section(rng, manifold, center1, scale=0.05)
        center2 = loops.SampledLoop(manifold.exp(center1.samples, shift.vectors))
        shift3 = charts.random_section(rng, manifold, center1, scale=0.05)
        center3 = loops.SampledLoop(manifold.exp(center1.samples, shift3.vectors))
        chart1 = charts.Chart(center1, spec1)
        chart2 = charts.Chart(center2, spec2)
        chart3 = charts.Chart(center3, spec3)
        beta = charts.random_section(rng, manifold, center1, scale=0.1)

        t12 = charts.transition(chart1, chart2, beta)
        t21 = charts.transition(chart2, chart1, t12)
        out.track("inverse", t21.vectors - beta.vectors)

        t13 = charts.transition(chart1, chart3, beta)
        t23 = charts.transition(chart2, chart3, t12)
        out.track("cocycle", t23.vectors - t13.vectors)

        # locality: a one-node change must influence only that node
        j = int(rng.integers(0, n))
        bumped = beta.vectors.copy()
        bumped[j] += manifold.project_tangent_vector(center1.samples[j],
                                                     0.01 * rng.normal(size=manifold.ambient_dim))
        t12b = charts.transition(chart1, chart2,
                                 charts.TangentSection(manifold, center1, bumped))
        others = np.delete(np.arange(n), j)
        pointwise_ok = pointwise_ok and bool(
            np.array_equal(t12b.vectors[others], t12.vectors[others]))

        # finite-difference derivative of the transition is L R-linear
        delta = charts.random_section(rng, manifold, center1, scale=0.05)
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
    out.add("inverse", "Phi_21(Phi_12(beta)) = beta", 1e-7)
    out.add("cocycle", "Phi_23(Phi_12(beta)) = Phi_13(beta)", 1e-6)
    out.add_flag("pointwise", "transitions act node by node", pointwise_ok)
    out.add("dphi-linear", "d Phi_12 commutes with multiplication by scalar loops",
            1e-5)
    return out.records


def _random_fiber_map(rng, d: int):
    """A random smooth nonlinear fiberwise map psi(t, v) on R^d fibers."""
    lin = rng.normal(size=(d, d)) * 0.8
    quad = rng.normal(size=(d, d)) * 0.4
    cubic = rng.normal(size=d) * 0.3
    wave = rng.normal(size=d)
    freq = int(rng.integers(1, 4))

    def psi(t, v):
        tv = np.asarray(t)[:, None]
        out = v @ lin.T
        out = out + (v @ quad.T) * np.cos(2 * np.pi * freq * tv)
        out = out + cubic * np.sin(v)
        out = out + 0.2 * wave * np.sin(2 * np.pi * tv)
        return out

    return psi


def suite_vertical_derivative(cfg: ExperimentConfig, rng) -> list:
    """The derivative of a looped fiberwise map is the loop of vertical
    derivatives, and it commutes with the scalar-loop action."""
    d = 3
    manifold = manifolds.Flat(d)
    out = Checks()
    n = cfg.resolution
    maps = max(10, cfg.samples // 2)
    t = np.arange(n) / n
    for _ in range(maps):
        psi = _random_fiber_map(rng, d)
        alpha = loops.random_bandlimited_loop(rng, d, n, amplitude=0.8)
        beta = charts.random_section(rng, manifold, alpha, scale=0.8)
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
    # linear maps are reproduced exactly
    lin = rng.normal(size=(d, d))
    psi_lin = lambda t_, v: v @ lin.T
    alpha = loops.random_bandlimited_loop(rng, d, n)
    beta = charts.random_section(rng, manifolds.Flat(d), alpha)
    vd = charts.vertical_derivative(psi_lin, alpha, beta)
    out.add("fd-agreement", "d(psi^L) equals the loop of d_v psi", 1e-5)
    out.add("lr-linear", "d(psi^L)(nu beta) = nu d(psi^L)(beta)", 1e-6)
    out.add("linear-map", "linear fiber maps differentiate to themselves", 1e-9,
            np.max(np.abs(vd.vectors - beta.vectors @ lin.T)))
    return out.records


def suite_tangent_identification(cfg: ExperimentConfig, rng) -> list:
    """Velocities of curves of loops are loops of pointwise velocities."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    out = Checks()
    n = cfg.resolution
    reps = max(1, cfg.samples // 10)
    for _ in range(reps):
        alpha = random_manifold_loop(rng, manifold, n)
        u = charts.random_section(rng, manifold, alpha, scale=0.5)
        curve = lambda s: loops.SampledLoop(manifold.exp(alpha.samples, s * u.vectors))
        vel = geometry.curve_of_loops_derivative(curve, 0.0, h=1e-4)
        out.track("exp-family", vel - u.vectors)
    flat = manifolds.Flat(3)
    for _ in range(reps):
        a = loops.random_bandlimited_loop(rng, 3, n)
        b = charts.random_section(rng, flat, a, scale=1.0)
        c = charts.random_section(rng, flat, a, scale=1.0)
        s0 = float(rng.uniform(-0.5, 0.5))
        curve = lambda s: loops.SampledLoop(a.samples + s * b.vectors + s * s * c.vectors)
        vel = geometry.curve_of_loops_derivative(curve, s0, h=1e-4)
        exact = b.vectors + 2 * s0 * c.vectors
        out.track("flat-quadratic", vel - exact)
    out.add("exp-family", "d/ds of a loop curve = loop of pointwise d/ds", 1e-5)
    out.add("flat-quadratic", "loop curve velocity matches the exact polynomial rate",
            1e-8)
    return out.records


def suite_metric(cfg: ExperimentConfig, rng) -> list:
    """The weak L^2 metric: closed-form values, symmetry, bilinearity,
    positivity, and invariance under orthogonal frame loops."""
    out = Checks()
    n = cfg.resolution
    flat2 = manifolds.Flat(2)
    const = loops.SampledLoop.constant(np.zeros(2), n)
    unit = charts.TangentSection(flat2, const,
                                 np.tile(np.array([1.0, 0.0]), (n, 1)))
    out.add("constant-one", "<unit, unit> over a constant loop is 1", 1e-14,
            abs(geometry.l2_inner(const, unit, unit) - 1.0))
    t = np.arange(n) / n
    wave = charts.TangentSection(flat2, const,
                                 np.stack([np.cos(2 * np.pi * t),
                                           np.sin(2 * np.pi * t)], axis=-1))
    out.add("circle-energy", "integral of cos^2 + sin^2 is 1", 1e-13,
            abs(geometry.l2_inner(const, wave, wave) - 1.0))
    min_pos = np.inf
    rot = geometry.rotation_matrix_loop(n, 1.0)
    for _ in range(max(1, cfg.samples // 5)):
        b = charts.random_section(rng, flat2, const)
        c = charts.random_section(rng, flat2, const)
        d = charts.random_section(rng, flat2, const)
        x, y = rng.normal(size=2)
        out.track("symmetry", geometry.l2_inner(const, b, c)
                  - geometry.l2_inner(const, c, b))
        lhs = geometry.l2_inner(const, b.scaled(x) + c.scaled(y), d)
        rhs = x * geometry.l2_inner(const, b, d) + y * geometry.l2_inner(const, c, d)
        out.track("bilinearity", lhs - rhs)
        nb = geometry.l2_inner(const, b, b)
        min_pos = min(min_pos, nb / max(1e-300, float(np.max(np.abs(b.vectors))) ** 2))
        rb = charts.TangentSection(flat2, const, rot.apply(b.vectors))
        rc = charts.TangentSection(flat2, const, rot.apply(c.vectors))
        out.track("frame-invariance", geometry.l2_inner(const, rb, rc)
                  - geometry.l2_inner(const, b, c))
    out.add("symmetry", "<beta, gamma> = <gamma, beta>", 0.0)
    out.add("bilinearity", "the pairing is bilinear", 1e-12)
    out.add_flag("positive", "nonzero sections have positive norm", min_pos > 1e-6)
    out.add("frame-invariance", "orthogonal matrix loops preserve the metric", 1e-9)
    return out.records


def _analytic_geodesic_path(manifold, alpha, nu, grid: int) -> geometry.LoopPath:
    """A loop path sampled from the closed-form geodesic family."""
    s = np.linspace(0.0, 1.0, grid + 1)
    lps = tuple(loops.SampledLoop(manifold.exp(alpha.samples, si * nu.vectors))
                for si in s)
    return geometry.LoopPath(manifold, s, lps)


def suite_covderiv_adjoint(cfg: ExperimentConfig, rng) -> list:
    """The looped covariant derivative is the nodewise connector applied to
    adjoint data; checked against a transport-based difference quotient and
    for metric compatibility."""
    manifold = manifolds.Sphere2()
    conn = geometry.levi_civita(manifold)
    out = Checks()
    n = cfg.resolution
    grid = cfg.path_grid
    s_grid = np.linspace(0.0, 1.0, grid + 1)
    for _ in range(3):
        alpha = random_manifold_loop(rng, manifold, n, wobble=0.3)
        nu = charts.random_section(rng, manifold, alpha, scale=0.2)
        path = _analytic_geodesic_path(manifold, alpha, nu, grid)
        w = charts.random_section(rng, manifold, alpha, scale=0.1)
        w2 = charts.random_section(rng, manifold, alpha, scale=0.1)

        def field_values(s, seed_vec):
            pos = manifold.exp(alpha.samples, s * nu.vectors)
            factor = 1.0 + 0.1 * np.sin(np.pi * s)
            return pos, manifold.project_tangent_vector(pos, factor * seed_vec)

        def section_at(s, seed_vec):
            pos, vec = field_values(s, seed_vec)
            return charts.TangentSection(manifold, loops.SampledLoop(pos), vec)

        fieldV = [section_at(si, w.vectors) for si in s_grid]
        fieldW = [section_at(si, w2.vectors) for si in s_grid]
        derivV = geometry.cov_deriv_along_path(conn, path, fieldV)
        derivW = geometry.cov_deriv_along_path(conn, path, fieldW)

        # oracle: transport-based difference quotient at random grid nodes
        h = 1e-4
        for _ in range(10):
            i = int(rng.integers(1, grid))
            j = int(rng.integers(0, n))
            si = s_grid[i]
            pos_i = path.loops[i].samples[j]
            for_pos, for_vec = field_values(si + h, w.vectors)
            back_pos, back_vec = field_values(si - h, w.vectors)
            pulled_fwd = manifold.geodesic_transport(
                for_pos[j], manifold.log(for_pos[j], pos_i), for_vec[j])
            pulled_back = manifold.geodesic_transport(
                back_pos[j], manifold.log(back_pos[j], pos_i), back_vec[j])
            oracle = (pulled_fwd - pulled_back) / (2 * h)
            out.track("connector-vs-transport", derivV[i].vectors[j] - oracle)

        # metric compatibility d/ds <V, W> = <DV, W> + <V, DW>
        inner = np.array([geometry.l2_inner(path.loops[i], fieldV[i], fieldW[i])
                          for i in range(grid + 1)])
        dinner = geometry._time_derivative(inner[:, None], s_grid)[:, 0]
        for i in range(1, grid):
            rhs = geometry.l2_inner(path.loops[i], derivV[i], fieldW[i]) + \
                geometry.l2_inner(path.loops[i], fieldV[i], derivW[i])
            out.track("metric-compat", dinner[i] - rhs)

    # flat sanity: fields constant in path time differentiate to zero
    flat = manifolds.Flat(3)
    fconn = geometry.levi_civita(flat)
    a = loops.random_bandlimited_loop(rng, 3, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.LoopPath(flat, s_grid, tuple(
        loops.SampledLoop(a.samples + si * b.vectors) for si in s_grid))
    c = charts.random_section(rng, flat, a)
    field = [charts.TangentSection(flat, lp, c.vectors) for lp in fpath.loops]
    fderiv = geometry.cov_deriv_along_path(fconn, fpath, field)
    for d in fderiv:
        out.track("flat-constant", d.vectors)
    out.add("connector-vs-transport",
            "looped covariant derivative matches the transport difference quotient",
            1e-4)
    out.add("metric-compat", "d/ds<V,W> = <DV,W> + <V,DW>", 1e-5)
    out.add("flat-constant", "constant fields have zero covariant derivative", 1e-10)
    return out.records


def suite_geodesic_pointwise(cfg: ExperimentConfig, rng) -> list:
    """Loop-space geodesics evaluate to manifold geodesics node by node and
    keep their L^2 energy."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    conn = geometry.levi_civita(manifold)
    out = Checks()
    n = cfg.resolution
    for _ in range(3):
        alpha = random_manifold_loop(rng, manifold, n)
        nu = charts.random_section(rng, manifold, alpha, scale=0.5)
        path = geometry.loop_geodesic(conn, alpha, nu, 1.0, cfg.ode_steps)
        for idx in (cfg.ode_steps // 2, cfg.ode_steps):
            s = path.s_grid[idx]
            oracle = manifold.exp(alpha.samples, s * nu.vectors)
            out.track("pointwise-oracle", path.loops[idx].samples - oracle)
        vals = path.values
        vel = geometry._time_derivative(vals, path.s_grid)
        energy = np.sum(vel * vel, axis=(1, 2)) / n
        interior = energy[1:-1]
        out.track("energy", interior - interior[0])
    # flat geodesics are exact straight lines
    flat = manifolds.Flat(2)
    fconn = geometry.levi_civita(flat)
    a = loops.random_bandlimited_loop(rng, 2, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.loop_geodesic(fconn, a, b, 1.0, 32)
    out.add("pointwise-oracle", "e_t of the loop geodesic is the geodesic of e_t data",
            cfg.oracle_tol)
    out.add("energy", "L^2 energy is constant along geodesics", 1e-5)
    out.add("flat-lines", "flat loop geodesics are straight lines", 1e-12,
            np.max(np.abs(fpath.loops[-1].samples - (a.samples + b.vectors))))
    return out.records


def suite_transport_pointwise(cfg: ExperimentConfig, rng) -> list:
    """Loop-space parallel transport agrees with the nodewise closed-form
    transport and preserves the L^2 metric."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    conn = geometry.levi_civita(manifold)
    out = Checks()
    n = cfg.resolution
    for _ in range(3):
        alpha = random_manifold_loop(rng, manifold, n)
        nu = charts.random_section(rng, manifold, alpha, scale=0.5)
        path = geometry.loop_geodesic(conn, alpha, nu, 1.0, cfg.ode_steps)
        sigma = charts.random_section(rng, manifold, alpha, scale=0.8)
        moved = geometry.loop_parallel_transport(conn, path, sigma)
        oracle = manifold.geodesic_transport(alpha.samples, nu.vectors, sigma.vectors)
        out.track("pointwise-oracle", moved.vectors - oracle)
        out.track("l2-isometry", geometry.l2_inner(path.loops[-1], moved, moved)
                  - geometry.l2_inner(alpha, sigma, sigma))
    flat = manifolds.Flat(3)
    fconn = geometry.levi_civita(flat)
    a = loops.random_bandlimited_loop(rng, 3, n)
    b = charts.random_section(rng, flat, a)
    fpath = geometry.loop_geodesic(fconn, a, b, 1.0, 32)
    sig = charts.random_section(rng, flat, a)
    fmoved = geometry.loop_parallel_transport(fconn, fpath, sig)
    out.add("pointwise-oracle",
            "loop transport corresponds to manifold transport under evaluation",
            cfg.oracle_tol)
    out.add("l2-isometry", "transport preserves the L^2 inner product", 1e-7)
    out.add("flat-invariance", "flat transport leaves sections unchanged", 1e-9,
            np.max(np.abs(fmoved.vectors - sig.vectors)))
    return out.records


def suite_torsion_loop(cfg: ExperimentConfig, rng) -> list:
    """The torsion of a looped connection is the loop of the torsion."""
    out = Checks()
    n = cfg.resolution
    flat = manifolds.Flat(3)
    cross = lambda p, u, v: np.cross(u, v)
    conn_t = geometry.ConnectionSpec(flat, torsion=cross)
    alpha = loops.random_bandlimited_loop(rng, 3, n)
    beta = charts.random_section(rng, flat, alpha)
    gamma = charts.random_section(rng, flat, alpha)
    looped = geometry.torsion(conn_t, alpha, beta, gamma)
    direct = np.cross(beta.vectors, gamma.vectors)
    out.add("cross-product", "looped torsion equals the pointwise tensor", 0.0,
            np.max(np.abs(looped.vectors - direct)))
    swapped = geometry.torsion(conn_t, alpha, gamma, beta)
    out.add("antisymmetry", "tau(beta, gamma) = -tau(gamma, beta)", 0.0,
            np.max(np.abs(looped.vectors + swapped.vectors)))

    sphere = manifolds.Sphere2()
    lc = geometry.levi_civita(sphere)
    s_alpha = random_manifold_loop(rng, sphere, n)
    s_beta = charts.random_section(rng, sphere, s_alpha)
    s_gamma = charts.random_section(rng, sphere, s_alpha)
    zero = geometry.torsion(lc, s_alpha, s_beta, s_gamma)
    out.add("levi-civita-zero", "Levi-Civita loops to a torsion-free connection", 0.0,
            np.max(np.abs(zero.vectors)))

    # finite-difference torsion estimate at sample nodes
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
        covXY = manifold_.project_tangent_vector(p, dYX)
        covYX = manifold_.project_tangent_vector(p, dXY)
        if conn_.torsion is not None:
            covXY = covXY + 0.5 * conn_.torsion(p, X(p), Y(p))
            covYX = covYX + 0.5 * conn_.torsion(p, Y(p), X(p))
        return covXY - covYX - bracket

    for _ in range(5):
        j = int(rng.integers(0, n))
        p = s_alpha.samples[j]
        est = fd_torsion(sphere, lc, p, s_beta.vectors[j], s_gamma.vectors[j])
        out.track("fd-estimate", est)
        pf = alpha.samples[j]
        est_f = fd_torsion(flat, conn_t, pf, beta.vectors[j], gamma.vectors[j])
        out.track("fd-estimate", est_f - np.cross(beta.vectors[j], gamma.vectors[j]))
    out.add("fd-estimate", "nabla_X Y - nabla_Y X - [X, Y] reproduces the tensor",
            1e-4)
    return out.records


def suite_frame_extract(cfg: ExperimentConfig, rng) -> list:
    """Pointwise-linear operators on loop spaces are matrix loops, recovered
    by probing with constant basis loops."""
    out = Checks()
    n = min(cfg.resolution, 64)
    d = 2
    for _ in range(20):
        t = np.arange(n) / n
        mats = np.tile(np.eye(d) * rng.uniform(1.5, 2.5), (n, 1, 1))
        for k in range(1, 3):
            mats += rng.normal(size=(d, d)) * 0.1 * np.cos(2 * np.pi * k * t)[:, None, None]
            mats += rng.normal(size=(d, d)) * 0.1 * np.sin(2 * np.pi * k * t)[:, None, None]
        truth = geometry.MatrixLoop(mats)
        frame = geometry.frame_from_module_map(truth.apply, d, n,
                                               rng=np.random.default_rng(cfg.seed + 1))
        out.track("reconstruction", frame.matrices - truth.matrices)
    out.add("reconstruction", "basis-column probing recovers the matrix loop", 1e-8)

    rot = geometry.rotation_matrix_loop(n, 1.0)
    frame = geometry.frame_from_module_map(rot.apply, 2, n)
    out.add("rotation", "a rotation loop is recovered exactly", 1e-10,
            np.max(np.abs(frame.matrices - rot.matrices)))

    nu = 1.5 + 0.5 * np.sin(2 * np.pi * np.arange(n) / n)
    scalar_op = lambda s: nu[:, None] * s
    frame = geometry.frame_from_module_map(scalar_op, d, n)
    expected = nu[:, None, None] * np.eye(d)
    out.add("scalar", "scalar loops extract to nu(t) I", 1e-12,
            np.max(np.abs(frame.matrices - expected)))

    convolution = lambda s: np.roll(s, n // 4, axis=0)
    try:
        geometry.frame_from_module_map(convolution, d, n)
        rejected = False
    except NotPointwiseLinear:
        rejected = True
    out.add_flag("reject-convolution",
                 "operators that are linear but not pointwise are rejected", rejected)

    vanishing = np.sin(2 * np.pi * np.arange(n) / n)
    singular_op = lambda s: vanishing[:, None] * s
    try:
        geometry.frame_from_module_map(singular_op, d, n)
        flagged = False
    except SingularFrame:
        flagged = True
    out.add_flag("reject-singular", "frames singular at a node are rejected", flagged)
    return out.records


def suite_fibration(cfg: ExperimentConfig, rng) -> list:
    """The based-loop fibration trivializes locally through bump flows."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    out = Checks()
    n = cfg.resolution
    for _ in range(max(1, cfg.samples // 10)):
        x = manifold.random_point(rng)
        chart = tubes.patch_chart(manifold, x)
        seed = charts.random_section(
            rng, manifold, loops.SampledLoop.constant(x, n), scale=0.25)
        # keep the base point inside the trivializing patch radius sqrt(lower)
        clamp = min(1.0, 0.9 / max(float(np.linalg.norm(seed.vectors[0])), 1e-12))
        gamma = loops.SampledLoop(
            manifold.exp(np.tile(x, (n, 1)), clamp * seed.vectors))
        omega, u = tubes.based_trivialize(chart, gamma, steps=cfg.ode_steps)
        out.track("based", omega.samples[0] - x)
        back = tubes.based_detrivialize(chart, omega, u, steps=cfg.ode_steps)
        out.track("roundtrip", back.samples - gamma.samples)
        out.track("evaluation", back.samples[0] - u)
    out.add("roundtrip", "trivialize then detrivialize is the identity", 1e-6)
    out.add("based", "the fiber part is based at the center", 1e-8)
    out.add("evaluation", "phi_u carries the center to u", 1e-8)

    # flow properties in the model space
    v = rng.normal(size=3)
    v *= 0.5 / np.linalg.norm(v)
    fd = tubes.FlowDiffeo(v)
    out.add("flow-hits-seed", "exp(X_v)(0) = v", 1e-10,
            np.max(np.abs(fd.forward(np.zeros(3)) - v)))
    fd0 = tubes.FlowDiffeo(np.zeros(3))
    u0 = rng.normal(size=3)
    out.add("flow-zero", "exp(X_0) is the identity", 0.0,
            np.max(np.abs(fd0.forward(u0) - u0)))
    far = np.array([2.0, 0.0, 0.0])
    small = tubes.FlowDiffeo(np.array([0.05, 0.0, 0.0]))
    out.add("flow-support", "points outside the bump support never move", 0.0,
            np.max(np.abs(small.forward(far) - far)))
    probes = np.stack([rng.normal(size=3) * rng.uniform(0.0, 1.5)
                       for _ in range(20)])
    out.add("flow-bijection", "forward then reversed flow returns the input", 1e-7,
            np.max(np.abs(fd.inverse(fd.forward(probes)) - probes)))
    return out.records


def suite_tube_lp(cfg: ExperimentConfig, rng) -> list:
    """Tubes around coincidence submanifolds: loops through a point, and
    pairs of loops agreeing at time zero."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    spec = manifolds.LocalAdditionSpec(manifold)
    out = Checks()
    n = cfg.resolution
    for _ in range(max(1, cfg.samples // 20)):
        x0 = manifold.random_point(rng)
        seed = charts.random_section(
            rng, manifold, loops.SampledLoop.constant(x0, n), scale=0.3)
        based = seed.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
        alpha = loops.SampledLoop(manifold.exp(np.tile(x0, (n, 1)), based))
        v = clamped_tangent(rng, manifold, x0, float(rng.uniform(0.1, 0.6)))
        beta = tubes.point_tube_forward(manifold, x0, alpha, v, steps=cfg.ode_steps)
        nu_v = manifold.exp(x0, spec.compress(v.vector))
        out.track("point-eval", beta.samples[0] - nu_v)
        alpha2, v2 = tubes.point_tube_inverse(manifold, x0, beta, steps=cfg.ode_steps)
        out.track("point-roundtrip", alpha2.samples - alpha.samples)
        out.track("point-roundtrip", v2.vector - v.vector)
        zero = manifolds.TangentAtPoint(manifold, x0, np.zeros(manifold.ambient_dim))
        same = tubes.point_tube_forward(manifold, x0, alpha, zero,
                                        steps=cfg.ode_steps)
        out.track("point-zero", same.samples - alpha.samples)
    out.add("point-eval", "the tube map covers nu under evaluation at 0",
            cfg.oracle_tol)
    out.add("point-roundtrip", "point-tube forward then inverse is the identity", 1e-6)
    out.add("point-zero", "zero seeds flow to the identity", 0.0)

    for _ in range(max(1, cfg.samples // 20)):
        a1 = random_manifold_loop(rng, manifold, n, wobble=0.3)
        shift = charts.random_section(rng, manifold, a1, scale=0.2)
        based = shift.vectors * np.sin(np.pi * np.arange(n) / n)[:, None] ** 2
        a2 = loops.SampledLoop(manifold.exp(a1.samples, based))
        v = clamped_tangent(rng, manifold, a1.samples[0], float(rng.uniform(0.1, 0.6)))
        b1, b2 = tubes.diagonal_tube_forward(manifold, (a1, a2), v,
                                              steps=cfg.ode_steps)
        out.track("pair-anchor", b1.samples - a1.samples)
        nu_v = manifold.exp(a1.samples[0], spec.compress(v.vector))
        out.track("pair-eval", b2.samples[0] - nu_v)
        (c1, c2), v2 = tubes.diagonal_tube_inverse(manifold, (b1, b2),
                                                   steps=cfg.ode_steps)
        out.track("pair-roundtrip", c2.samples - a2.samples)
        out.track("pair-roundtrip", v2.vector - v.vector)
    out.add("pair-anchor", "the anchor loop of a pair never moves", 0.0)
    out.add("pair-eval", "evaluation at 0 of the moved pair lands on nu(v)",
            cfg.oracle_tol)
    out.add("pair-roundtrip", "diagonal-tube forward then inverse is the identity",
            1e-6)

    # partition-of-unity sections
    partition = tubes.tangent_partition(manifold)
    out.add("partition-squares", "the squared weights sum to one", 1e-10,
            partition.validate(manifold, rng, tol=np.inf))
    for _ in range(10):
        p = manifold.random_point(rng)
        v = manifolds.random_tangent(manifold, rng, p, 0.5)
        w = manifolds.random_tangent(manifold, rng, p, 0.5)
        sv = tubes.pou_section(manifold, v)
        sw = tubes.pou_section(manifold, w)
        out.track("pou-reproduces", sv(p) - v.vector)
        x, y = rng.normal(size=2)
        comb = manifolds.TangentAtPoint(manifold, p, x * v.vector + y * w.vector)
        scomb = tubes.pou_section(manifold, comb)
        q = manifold.random_point(rng)
        out.track("pou-linear", scomb(q) - x * sv(q) - y * sw(q))
    out.add("pou-reproduces", "s(v) evaluated at the seed base is v", 1e-10)
    out.add("pou-linear", "s is linear in its seed vector", 1e-10)
    return out.records


def suite_equivariant(cfg: ExperimentConfig, rng) -> list:
    """Equivariant averaging: decomposition near the fixed sets of circle
    subgroups, its inverse, rotation equivariance, and the flat Fourier
    oracle."""
    manifold = manifolds.manifold_from_tag(cfg.manifold)
    out = Checks()
    n = cfg.resolution
    for m in (2, 4):
        for _ in range(max(1, cfg.samples // 25)):
            base = random_manifold_loop(rng, manifold, n // m, wobble=0.25,
                                        bandwidth=2)
            periodic = loops.SampledLoop(np.tile(base.samples, (m, 1)))
            wiggle = charts.random_section(rng, manifold, periodic, scale=0.1)
            gamma = loops.SampledLoop(manifold.exp(periodic.samples, wiggle.vectors))
            fixed, normal = tubes.equivariant_decompose(manifold, m, gamma)
            rec = tubes.equivariant_recompose(manifold, fixed, normal)
            out.track("roundtrip", rec.samples - gamma.samples)
            out.track("period", fixed.samples - np.roll(fixed.samples, n // m, axis=0))
            out.track("coset-mean", tubes.coset_mean_residual(manifold, m, gamma, fixed))
            shift = int(rng.integers(1, n))
            rot_gamma = loops.rotate(gamma, shift / n)
            fixed_r, normal_r = tubes.equivariant_decompose(manifold, m, rot_gamma)
            out.track("rotation-commute",
                      fixed_r.samples - loops.rotate(fixed, shift / n).samples)
            out.track("rotation-commute",
                      normal_r.vectors - np.roll(normal.vectors, -shift, axis=0))
    out.add("roundtrip", "decompose then recompose is the identity", 1e-6)
    out.add("period", "the fixed part has period 1/m", 0.0)
    out.add("coset-mean", "linearized normal data has zero coset means", 1e-8)
    out.add("rotation-commute", "decomposition commutes with the circle action", 1e-7)

    # flat circle-group case against the Fourier oracle
    flat = manifolds.Flat(3)
    a = loops.random_bandlimited_loop(rng, 3, n)
    fixed, normal = tubes.equivariant_decompose(flat, 1, a)
    coeffs = np.fft.fft(a.samples, axis=0) / n
    mode0 = coeffs[0].real
    out.track("flat-fourier", fixed.samples - mode0)
    out.track("flat-fourier", normal.vectors - (a.samples - mode0))
    out.add("flat-fourier", "circle averaging on flat loops is the mode-0 split", 1e-12)
    return out.records


def _latitude_circle(radius: float, n: int) -> loops.SampledLoop:
    t = np.arange(n) / n
    return loops.SampledLoop(np.stack([
        np.sin(radius) * np.cos(2 * np.pi * t),
        np.sin(radius) * np.sin(2 * np.pi * t),
        -np.cos(radius) * np.ones(n)], axis=-1))


def _tilted_great_circle(min_dist: float, azimuth: float, n: int) -> loops.SampledLoop:
    a = np.pi / 2 - min_dist
    u = np.array([np.cos(a) * np.cos(azimuth), np.cos(a) * np.sin(azimuth),
                  -np.sin(a)])
    w = np.array([-np.sin(azimuth), np.cos(azimuth), 0.0])
    t = np.arange(n) / n
    return loops.SampledLoop(np.outer(np.cos(2 * np.pi * t), u)
                             + np.outer(np.sin(2 * np.pi * t), w))


def suite_exp_nonsurjective(cfg: ExperimentConfig, rng) -> list:
    """Great circles through the base point admit no continuous log lift;
    circles staying away from the cut locus do."""
    manifold = manifolds.Sphere2()
    out = Checks()
    n = cfg.resolution
    for _ in range(5):
        azimuth = float(rng.uniform(0, 2 * np.pi))
        circle = _tilted_great_circle(0.0, azimuth, n)
        report = geometry.exp_nonsurjectivity_witness(manifold, circle)
        # circles through the pole must jump: the residual is 1/jump
        out.track("through-pole", 1.0 / report["jump_magnitude"])
    out.add("through-pole", "no continuous lift across the cut locus", 1.0)

    for radius in (0.2, 0.7, 1.2):
        circle = _latitude_circle(radius, n)
        report = geometry.exp_nonsurjectivity_witness(manifold, circle)
        out.track("away-from-pole", report["jump_magnitude"])
    for min_dist in (np.pi / 2, 1.3):
        circle = _tilted_great_circle(float(min_dist),
                                      float(rng.uniform(0, 2 * np.pi)), n)
        report = geometry.exp_nonsurjectivity_witness(manifold, circle)
        out.track("away-from-pole", report["jump_magnitude"])
    out.add("away-from-pole", "lifts of circles off the cut locus are continuous", 0.1)

    target = manifold.random_point(rng)
    const = loops.SampledLoop.constant(target, n)
    report = geometry.exp_nonsurjectivity_witness(manifold, const)
    out.add("constant-target", "constant targets lift to constant vectors", 1e-12,
            report["jump_magnitude"])
    return out.records


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


def suite_polarization_index(cfg: ExperimentConfig, rng) -> list:
    """The plus-sector compression of an invertible symbol is Fredholm with
    index minus the winding of the determinant."""
    out = Checks()
    truncation = 16
    for symbol in symbol_battery(rng):
        blocks = polarization.toeplitz_blocks(symbol, truncation)
        idx = polarization.fredholm_index(blocks)
        wind = polarization.winding_number(symbol)
        out.track("index-vs-winding", idx + wind)
    out.add("index-vs-winding", "index of the plus block = -winding(det)", 0.5)

    shift = _monomial_symbol(1, 64)
    out.add("shift", "the index of multiplication by z is -1", 0.5,
            abs(polarization.fredholm_index(polarization.toeplitz_blocks(shift, 8)) + 1))

    for _ in range(6):
        a = int(rng.integers(-3, 4))
        b = int(rng.integers(-3, 4))
        sym_a = _monomial_symbol(a, 64)
        sym_b = _monomial_symbol(b, 64)
        product = geometry.MatrixLoop(sym_a.matrices * sym_b.matrices)
        ia = polarization.fredholm_index(polarization.toeplitz_blocks(sym_a, 8))
        ib = polarization.fredholm_index(polarization.toeplitz_blocks(sym_b, 8))
        iab = polarization.fredholm_index(polarization.toeplitz_blocks(product, 8))
        out.track("additivity", iab - ia - ib)
    out.add("additivity", "index(z^a z^b) = index(z^a) + index(z^b)", 0.5)

    t = np.arange(64) / 64
    mats = np.zeros((64, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = np.exp(2j * np.pi * t)
    mats[:, 1, 1] = np.exp(-2j * np.pi * t)
    diag = geometry.MatrixLoop(mats)
    idx, ker, coker = polarization.fredholm_data(
        polarization.toeplitz_blocks(diag, 8))
    out.add_flag("diag-kernels",
                 "diag(z, 1/z) has a one-dimensional kernel and cokernel",
                 (idx, ker, coker) == (0, 1, 1))

    symbol = symbol_battery(rng)[0]
    base_idx = polarization.fredholm_index(polarization.toeplitz_blocks(symbol, 16))
    for shift_nodes in (7, 19):
        rolled = geometry.MatrixLoop(np.roll(symbol.matrices, -shift_nodes, axis=0))
        idx_r = polarization.fredholm_index(polarization.toeplitz_blocks(rolled, 16))
        out.track("rotation-covariance", idx_r - base_idx)
    out.add("rotation-covariance", "rotating the symbol preserves the index", 0.5)
    return out.records


def _entire_rotation_symbol(n_nodes: int = 256, amplitude: float = 8.0) -> geometry.MatrixLoop:
    t = np.arange(n_nodes) / n_nodes
    ang = amplitude * np.sin(2 * np.pi * t)
    mats = np.zeros((n_nodes, 2, 2), dtype=np.complex128)
    mats[:, 0, 0] = np.cos(ang)
    mats[:, 0, 1] = np.sin(ang)
    mats[:, 1, 0] = -np.sin(ang)
    mats[:, 1, 1] = np.cos(ang)
    return geometry.MatrixLoop(mats)


def suite_compactness(cfg: ExperimentConfig, rng) -> list:
    """Off-diagonal blocks are compact: finite rank for banded symbols and
    rapidly decaying singular values for entire ones."""
    out = Checks()
    const = geometry.MatrixLoop(np.tile(np.diag([1.0 + 0j, 2.0]), (64, 1, 1)))
    prof = polarization.compactness_profile(polarization.toeplitz_blocks(const, 8))
    out.track("constant-symbol", prof["plus_minus"][0])
    out.track("constant-symbol", prof["minus_plus"][0])
    out.add("constant-symbol", "constant symbols do not mix the splitting", 1e-14)

    for m in (1, 2, 3):
        t = np.arange(64) / 64
        mats = np.exp(2j * np.pi * m * t)[:, None, None] * np.eye(2)
        blocks = polarization.toeplitz_blocks(geometry.MatrixLoop(mats), 8)
        prof = polarization.compactness_profile(blocks)
        out.track("finite-rank", prof["plus_minus"][2 * m])
    out.add("finite-rank", "single harmonics give rank n*m off-diagonal blocks", 1e-14)

    blocks = polarization.toeplitz_blocks(_entire_rotation_symbol(), 64)
    prof = polarization.compactness_profile(blocks)
    s = prof["plus_minus"]
    ratio1 = float(s[8] / s[16])
    ratio2 = float(s[16] / s[24])
    out.track("superpolynomial-decay", 1e3 / ratio1)
    out.track("superpolynomial-decay", 1e3 / ratio2)
    out.add("superpolynomial-decay",
            "singular values drop by 1e3 across each 8 modes", 1.0)
    sorted_ok = bool(np.all(np.diff(s) <= 1e-15))
    out.add_flag("sorted", "profiles are reported in decreasing order", sorted_ok)
    return out.records


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
