"""Every check must be able to fail: a table of defects that the suites catch.

A check that passes on working code shows nothing unless some defect makes
it fail.  Each row of DEFECTS names a check, a defect (a ``monkeypatch`` of
one method or constant, made in process) and the manifold it runs on; the
check's suite, run at N = 32 and seed 0, must fail that check with the
defect and pass it without.  This is mutation testing in miniature
(DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11(4), 1978).
"""

import functools

import numpy as np
import pytest

from loopspace_lab import manifolds
from loopspace_lab.suites import SUITES, ExperimentConfig


def zero_projector_derivative(mp):
    """Transport along a curved path drops the Levi-Civita term."""
    mp.setattr(manifolds.RoundSpheres, "projector_derivative",
               lambda self, p, w, v: np.zeros_like(v, dtype=np.float64))


#: (suite/check-id, manifold, defect) rows; the defect must fail the check
DEFECTS = [
    ("transport-pointwise/pointwise-oracle", "sphere2", zero_projector_derivative),
    ("transport-pointwise/pointwise-oracle", "torus2", zero_projector_derivative),
    ("transport-pointwise/l2-isometry", "sphere2", zero_projector_derivative),
    ("transport-pointwise/l2-isometry", "torus2", zero_projector_derivative),
]


@functools.lru_cache(maxsize=None)
def passed(suite: str, manifold: str, defect=None) -> dict:
    """check id: whether it passed, for the suite at N = 32, seed 0."""
    cfg = ExperimentConfig(suite=suite, manifold=manifold, resolution=32).validated()
    with pytest.MonkeyPatch.context() as mp:
        if defect is not None:
            defect(mp)
        records = SUITES[suite](cfg, np.random.default_rng(cfg.seed))
    return {r.check_id: r.passed for r in records}


@pytest.mark.parametrize("identity, manifold, defect", DEFECTS,
                         ids=[f"{i}-{m}-{d.__name__}" for i, m, d in DEFECTS])
def test_defect_fails_its_check(identity, manifold, defect):
    suite, check_id = identity.split("/")
    assert passed(suite, manifold)[check_id], "the check fails without the defect"
    assert not passed(suite, manifold, defect)[check_id], "the defect is not caught"
