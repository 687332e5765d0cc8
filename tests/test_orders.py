"""Convergence orders: each discretization error must shrink at its method's order.

A check at one setting shows that the error is small there, not that it
comes from the claimed method; a wrong RK4 stage weight or spline end
condition can still pass at 200 steps.  Here each error is measured at three
refinements h = 1/r and the least-squares slope p of log(error) against
log(h) is bounded below:

* RK4 is order 4 (Hairer, Norsett and Wanner, Solving Ordinary Differential
  Equations I, 2nd ed., 1993, sec. II.4); the geodesic energy drift is
  measured at order 5 and bounded as RK4;
* the not-a-knot cubic path spline is O(h^4) in value and O(h^3) in slope
  (de Boor, A Practical Guide to Splines, rev. ed., 2001, ch. IV);
* ``covderiv-adjoint`` differentiates along the path grid by central
  differences, order 2;
* ``exp-nonsurjective`` bounds the largest jump of a continuous lift
  between neighbouring nodes, which is O(1/N).

``suites.CHECKS`` records the method order p and the fitted constant C of
C * h**p for each discretization check of the suites, and ORDERS those of
the path spline, so that a minimum setting can be read off for a tolerance;
a fit more than a factor 2 away from its recorded C fails, so the tables
cannot go stale.
"""

import functools

import numpy as np
import pytest

from loopspace_lab import manifolds
from loopspace_lab.suites import CHECKS, ORACLE, ExperimentConfig, run_checks

#: identity: (method order p, fitted C) of the path spline
ORDERS = {
    "path-spline/value": (4, 2.60),
    "path-spline/derivative": (3, 16.6),
}
#: "suite/check-id": (p, C) of each suite check that declares an order; the
#: suites run on sphere2 at seed 0, with N = 32 unless N is the refinement.
SUITE_ORDERS = {key: tuple(order) for key, (_, _, *order) in CHECKS.items() if order}
#: suite: its RK4 check against the oracle, the one at the config's tolerance
ORACLE_CHECKS = {key.split("/")[0]: key for key in SUITE_ORDERS if CHECKS[key][1] is ORACLE}
#: method order: the least observed order that passes
MIN_ORDER = {4: 3.5, 3: 2.5, 2: 1.8, 1: 0.9}
REFINEMENTS = (32, 64, 128)  # ode steps = path grid, or N for exp-nonsurjective
SPLINE_GRIDS = (16, 32, 64)


def assert_order(identity: str, refinements, errors) -> None:
    order, c = ORDERS[identity] if identity in ORDERS else SUITE_ORDERS[identity]
    p, log_c = np.polyfit(-np.log(refinements), np.log(errors), 1)
    assert p >= MIN_ORDER[order], f"{identity}: observed order {p:.2f}"
    assert c / 2 <= np.exp(log_c) <= 2 * c, f"{identity}: fitted C {np.exp(log_c):.3g}"


@functools.lru_cache(maxsize=None)
def suite_residuals(suite: str, refinement: int) -> dict:
    if suite == "exp-nonsurjective":
        settings = dict(resolution=refinement)
    else:
        settings = dict(resolution=32, ode_steps=refinement, path_grid=refinement)
    cfg = ExperimentConfig(suite=suite, manifold="sphere2", seed=0, **settings).validated()
    return {r.check_id: r.residual for r in run_checks(cfg)}


def assert_suite_order(identity: str) -> None:
    suite, check_id = identity.split("/")
    assert_order(identity, REFINEMENTS,
                 [suite_residuals(suite, r)[check_id] for r in REFINEMENTS])


@pytest.mark.parametrize("suite", list(ORACLE_CHECKS))
def test_rk4_pointwise_oracle_order(suite):
    assert_suite_order(ORACLE_CHECKS[suite])


@pytest.mark.parametrize("identity", [k for k in SUITE_ORDERS
                                      if k not in ORACLE_CHECKS.values()])
def test_suite_order(identity):
    assert_suite_order(identity)


@pytest.mark.parametrize("kind", ["value", "derivative"])
def test_path_spline_order(kind):
    """The path spline through a half great circle of S^2, against the circle."""
    north = np.array([0.0, 0.0, 1.0])
    east = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)

    def circle(s, derivative):
        th = np.pi * s[:, None]
        if derivative:
            return np.pi * (np.cos(th) * east - np.sin(th) * north)
        return np.cos(th) * north + np.sin(th) * east

    s = np.linspace(0.0, 1.0, 1001)
    errors = []
    for grid in SPLINE_GRIDS:
        knots = np.linspace(0.0, 1.0, grid + 1)
        at = manifolds._path_spline(knots, circle(knots, False))
        part = 1 if kind == "derivative" else 0  # at(s) is (value, slope)
        fitted = np.stack([at(si)[part] for si in s])
        errors.append(np.max(np.abs(fitted - circle(s, kind == "derivative"))))
    assert_order(f"path-spline/{kind}", SPLINE_GRIDS, errors)
