"""Convergence orders: each RK4 residual must shrink at the method's order.

A check at one step count shows that the error is small there, not that it
comes from the claimed method; a wrong stage weight can still pass at 200
steps.  Here the ``pointwise-oracle`` residual of a suite is measured at
three step counts and the log-log slope of residual against step count is
bounded below (classical RK4 is order 4; Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, 2nd ed., 1993, sec. II.4).
"""

import numpy as np
import pytest

from loopspace_lab.suites import SUITES, ExperimentConfig

STEPS = (32, 64, 128)
RK4_MIN_ORDER = 3.5  # measured 3.9-4.0 on sphere2 at N = 32, seed 0


def observed_order(suite: str, check_id: str) -> float:
    """Least-squares slope of -log(residual) against log(steps)."""
    residuals = []
    for steps in STEPS:
        cfg = ExperimentConfig(suite=suite, manifold="sphere2", resolution=32,
                               ode_steps=steps, path_grid=steps, seed=0).validated()
        records = SUITES[suite](cfg, np.random.default_rng(cfg.seed))
        residuals.append(next(r.residual for r in records if r.check_id == check_id))
    slope = np.polyfit(np.log(STEPS), np.log(residuals), 1)[0]
    return -float(slope)


@pytest.mark.parametrize("suite", ["geodesic-pointwise", "transport-pointwise"])
def test_rk4_pointwise_oracle_order(suite):
    order = observed_order(suite, "pointwise-oracle")
    assert order >= RK4_MIN_ORDER, f"{suite}: observed order {order:.2f}"
