"""The suites' residual bookkeeping: a non-finite residual must fail its check."""

import numpy as np

from loopspace_lab import charts
from loopspace_lab.manifolds import Sphere2
from loopspace_lab.suites import SUITES, Checks, ExperimentConfig


def test_track_keeps_the_running_max():
    out = Checks()
    out.track("c", np.array([0.5, -2.0]))
    out.track("c", 1.0)
    out.add("c", "anchor", 3.0)
    assert out.records[0].residual == 2.0 and out.records[0].passed


def test_track_propagates_nan():
    out = Checks()
    out.track("c", 1e-3)
    out.track("c", np.array([0.0, np.nan]))
    out.track("c", 1e-4)
    out.add("c", "anchor", 1.0)
    assert np.isnan(out.records[0].residual)
    assert not out.records[0].passed


def test_add_reduces_a_difference_and_propagates_nan():
    out = Checks()
    out.add("c", "anchor", 3.0, np.array([0.5, -2.0]))
    out.add("d", "anchor", 1.0, np.array([0.0, np.nan, -0.5]))
    assert out.records[0].residual == 2.0 and out.records[0].passed
    assert np.isnan(out.records[1].residual)
    assert not out.records[1].passed


def test_nan_trial_fails_chart_roundtrip(monkeypatch):
    # one NaN node on the 2nd of 5 trials must not drop out of psi-roundtrip
    real_inverse = charts.chart_inverse
    calls = []

    def inverse_with_nan(chart, gamma):
        section = real_inverse(chart, gamma)
        calls.append(None)
        if len(calls) != 2:
            return section
        # the constructor rejects a NaN node, so put it in after the fact
        vectors = section.vectors.copy()
        vectors[3] = np.nan
        object.__setattr__(section, "vectors", vectors)
        return section

    monkeypatch.setattr(charts, "chart_inverse", inverse_with_nan)
    cfg = ExperimentConfig(suite="chart-roundtrip", resolution=32, samples=5,
                           seed=3).validated()
    records = SUITES[cfg.suite](cfg, np.random.default_rng(cfg.seed))
    assert len(calls) == 5
    roundtrip = [r for r in records if r.check_id == "psi-roundtrip"][0]
    assert np.isnan(roundtrip.residual)
    assert not roundtrip.passed


def test_nan_weight_fails_partition_squares(monkeypatch):
    # each partition's first weight returns NaN on its 3rd call: in the one
    # partition-squares draws, at the 3rd of its 25 probes, which must not
    # drop out of the fold
    real_partition = Sphere2.tangent_partition

    def partition_with_nan(manifold):
        (first, frame), *rest = real_partition(manifold)
        calls = []

        def weight(points):
            calls.append(None)
            out = first(points)
            return np.full_like(out, np.nan) if len(calls) == 3 else out

        return ((weight, frame), *rest)

    monkeypatch.setattr(Sphere2, "tangent_partition", partition_with_nan)
    cfg = ExperimentConfig(suite="tube-lp", resolution=32, samples=1,
                           seed=5).validated()
    records = SUITES[cfg.suite](cfg, np.random.default_rng(cfg.seed))
    squares = [r for r in records if r.check_id == "partition-squares"][0]
    assert np.isnan(squares.residual)
    assert not squares.passed
