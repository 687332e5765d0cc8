"""The chart atlas of the loop space of an embedded manifold.

A chart at a center loop alpha sends a section of the pulled-back tangent
bundle (a loop of tangent vectors along alpha) to the loop obtained by
applying the local addition node by node.  Transition maps between charts,
pointwise-looped maps, and the vertical-derivative law live here too.

Everything is pointwise in the circle parameter, which is exactly what makes
the transition functions diffeomorphisms: they are loops of fiberwise maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatch, NotInChartDomain, NotInOverlap
from .loops import SampledLoop, loop_from_dict, loop_to_dict
from .manifolds import (
    EmbeddedManifold,
    Flat,
    LocalAdditionSpec,
    manifold_from_tag,
)

SECTION_TANGENT_TOL = 1e-10
BASE_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class TangentSection:
    """A loop of tangent vectors along a base loop: an element of T_alpha LM.

    ``vectors[j]`` is tangent to the manifold at ``base.samples[j]``.
    """

    manifold: EmbeddedManifold
    base: SampledLoop
    vectors: np.ndarray

    def __post_init__(self):
        vec = np.ascontiguousarray(self.vectors, dtype=np.float64)
        object.__setattr__(self, "vectors", vec)
        if vec.shape != self.base.samples.shape:
            raise ValueError("vectors must match the base loop sample for sample")
        self.manifold.require_on_manifold(self.base.samples)
        proj = self.manifold.project_tangent_vector(self.base.samples, vec)
        res = np.max(np.abs(proj - vec))
        if res > SECTION_TANGENT_TOL:
            raise ValueError(f"section not tangent to the base (residual {res:.3e})")

    @property
    def resolution(self) -> int:
        return self.base.resolution

    def scaled(self, nu) -> "TangentSection":
        """The action of L R: multiply by a scalar (or scalar loop) nu."""
        nu = np.asarray(nu, dtype=np.float64)
        if nu.ndim == 0:
            factor = nu
        else:
            factor = nu.reshape(-1, 1)
            if factor.shape[0] != self.resolution:
                raise ValueError("scalar loop resolution mismatch")
        return TangentSection(self.manifold, self.base, factor * self.vectors)

    def __add__(self, other: "TangentSection") -> "TangentSection":
        require_based(other, self.base)
        return TangentSection(self.manifold, self.base, self.vectors + other.vectors)

    def __sub__(self, other: "TangentSection") -> "TangentSection":
        require_based(other, self.base)
        return TangentSection(self.manifold, self.base, self.vectors - other.vectors)


def require_based(section: TangentSection, loop: SampledLoop) -> None:
    """Raise BaseMismatch unless ``section`` lives over ``loop``."""
    if section.base.samples.shape != loop.samples.shape or \
            np.max(np.abs(section.base.samples - loop.samples)) > BASE_MATCH_TOL:
        raise BaseMismatch("section is not based at the given loop")


def zero_section(manifold: EmbeddedManifold, base: SampledLoop) -> TangentSection:
    return TangentSection(manifold, base, np.zeros_like(base.samples))


def section_from_ambient(manifold: EmbeddedManifold, base: SampledLoop, w) -> TangentSection:
    """Project an arbitrary loop of ambient vectors into the tangent spaces."""
    w = np.asarray(w, dtype=np.float64)
    return TangentSection(manifold, base,
                          manifold.project_tangent_vector(base.samples, w))


def random_section(rng, manifold: EmbeddedManifold, base: SampledLoop,
                   scale: float = 1.0, bandwidth: int = 4) -> TangentSection:
    """A random smooth section: band-limited ambient noise, projected."""
    n = base.resolution
    t = base.nodes
    w = np.zeros((n, manifold.ambient_dim))
    for k in range(bandwidth + 1):
        a = rng.normal(size=manifold.ambient_dim) * scale / (1 + k)
        b = rng.normal(size=manifold.ambient_dim) * scale / (1 + k)
        w += np.outer(np.cos(2 * np.pi * k * t), a)
        if k > 0:
            w += np.outer(np.sin(2 * np.pi * k * t), b)
    return section_from_ambient(manifold, base, w)


@dataclass(frozen=True)
class Chart:
    """A chart of LM centered at a loop, built from a local addition."""

    center: SampledLoop
    addition: LocalAdditionSpec

    def __post_init__(self):
        self.manifold.require_on_manifold(self.center.samples)

    @property
    def manifold(self) -> EmbeddedManifold:
        return self.addition.manifold

    @property
    def radius(self) -> float:
        """Metric radius of the chart codomain U_alpha, pointwise in t."""
        return self.addition.epsilon


def chart_forward(chart: Chart, beta: TangentSection) -> SampledLoop:
    """Psi_alpha: apply the local addition at every node of the section."""
    require_based(beta, chart.center)
    return SampledLoop(chart.addition.forward(chart.center.samples, beta.vectors))


def chart_membership(chart: Chart, gamma: SampledLoop) -> bool:
    """Whether gamma lies in U_alpha: every node within the chart radius."""
    chart.manifold.require_on_manifold(gamma.samples)
    if gamma.resolution != chart.center.resolution:
        return False
    d = chart.manifold.dist(chart.center.samples, gamma.samples)
    return bool(np.all(d < chart.radius))


def chart_inverse(chart: Chart, gamma: SampledLoop) -> TangentSection:
    """Psi_alpha^{-1}: nodewise inversion of the local addition."""
    if not chart_membership(chart, gamma):
        raise NotInChartDomain("loop is not in the chart codomain")
    vec = chart.addition.inverse(chart.center.samples, gamma.samples)
    return TangentSection(chart.manifold, chart.center, vec)


def transition(chart1: Chart, chart2: Chart, beta: TangentSection) -> TangentSection:
    """The transition function between two charts, pointwise in t.

    Sends a section in chart1 coordinates to the section over chart2's
    center describing the same loop.
    """
    image = chart_forward(chart1, beta)
    if not chart_membership(chart2, image):
        raise NotInOverlap("section image leaves the second chart")
    return chart_inverse(chart2, image)


def loop_map(f, gamma: SampledLoop) -> SampledLoop:
    """The loop of a pointwise map: f^L(gamma) = f o gamma.

    ``f`` maps an (N, d) array of points to an (N, d') array; a non-vectorized
    point evaluator also works.
    """
    try:
        vals = np.asarray(f(gamma.samples), dtype=np.float64)
        if vals.shape[0] != gamma.resolution or vals.ndim != 2:
            raise ValueError
    except Exception:
        vals = np.asarray([f(p) for p in gamma.samples], dtype=np.float64)
    return SampledLoop(vals)


def vertical_derivative(psi, alpha: SampledLoop, beta: TangentSection,
                        h: float = 1e-5, richardson: bool = False) -> TangentSection:
    """The derivative of a looped fiberwise map psi^L, computed pointwise.

    ``psi(t, v)`` takes the node parameters (N,) and fiber values (N, d) and
    returns (N, d').  The derivative of psi^L at alpha in the direction beta
    is the loop of vertical derivatives d_v psi(t, alpha(t)) beta(t),
    realized by central differences of step ``h`` (with one step of
    Richardson extrapolation if requested).
    """
    t = alpha.nodes
    a = alpha.samples
    b = beta.vectors

    def central(step):
        return (np.asarray(psi(t, a + step * b)) -
                np.asarray(psi(t, a - step * b))) / (2.0 * step)

    d = central(h)
    if richardson:
        d = (4.0 * central(h / 2.0) - d) / 3.0
    base = SampledLoop(np.asarray(psi(t, a), dtype=np.float64))
    return TangentSection(Flat(base.dim), base, d)


# -- serialization -------------------------------------------------------------

def chart_to_dict(chart: Chart) -> dict:
    return {
        "center": loop_to_dict(chart.center),
        "manifold": chart.manifold.kind,
        "epsilon": chart.addition.epsilon,
        "compression": {"kind": "radial_inverse_sqrt"},
    }


def chart_from_dict(data: dict) -> Chart:
    if data.get("compression", {}).get("kind") != "radial_inverse_sqrt":
        raise ValueError("unknown compression kind")
    manifold = manifold_from_tag(data["manifold"])
    spec = LocalAdditionSpec(manifold, float(data["epsilon"]))
    return Chart(loop_from_dict(data["center"]), spec)


def section_to_dict(section: TangentSection) -> dict:
    out = loop_to_dict(section.base)
    out["manifold"] = section.manifold.kind
    out["vectors"] = section.vectors.tolist()
    return out


def section_from_dict(data: dict) -> TangentSection:
    manifold = manifold_from_tag(data["manifold"])
    base = loop_from_dict({k: data[k] for k in ("dim", "n", "samples")})
    return TangentSection(manifold, base, np.asarray(data["vectors"], dtype=np.float64))
