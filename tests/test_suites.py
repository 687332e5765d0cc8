"""The suites' residual bookkeeping: a non-finite residual must fail its check,
every check is declared in the catalogue, and ``run_checks`` gives the
records that the runner reports."""

import numpy as np
import pytest

from loopspace_lab import charts, geometry, manifolds, suites
from loopspace_lab.cli import run_suite
from loopspace_lab.errors import IntegrationDiverged
from loopspace_lab.manifolds import Sphere2
from loopspace_lab.suites import (FLAG, ORACLE, SUITES, CheckRecord, Checks,
                                  ExperimentConfig, run_checks)


def checks_for_s():
    return Checks(ExperimentConfig(suite="s", oracle_tol=1.0))


@pytest.fixture
def out(monkeypatch):
    """Checks for suite "s", whose catalogue declares c, d and a flag f."""
    monkeypatch.setattr(suites, "CHECKS", {
        "s/c": ("anchor c", 3.0), "s/d": ("anchor d", ORACLE),
        "s/f": ("a flag", FLAG), "t/c": ("another suite's c", 9.0)})
    return checks_for_s()


def track_rest(out, *check_ids):
    for check_id in check_ids:
        out.track(check_id, 0.0)


def track_in_one_call(*diffs):
    """The records of "s" with ``diffs`` passed to one ``track("c", ...)``."""
    out = checks_for_s()
    out.track("c", *diffs)
    track_rest(out, "d", "f")
    return out.records


def test_track_keeps_the_running_max(out):
    diffs = 1.0, np.array([0.5, -2.0]), np.array([[-1.5], [0.25]])
    for diff in diffs:
        out.track("c", diff)
    track_rest(out, "d", "f")
    assert out.records[0].residual == 2.0 and out.records[0].passed
    assert track_in_one_call(*diffs) == out.records


def test_track_propagates_nan(out):
    diffs = 1e-3, np.array([0.0, np.nan]), 1e-4
    for diff in diffs:
        out.track("c", diff)
    track_rest(out, "d", "f")
    assert np.isnan(out.records[0].residual)
    assert not out.records[0].passed
    one_call = track_in_one_call(*diffs)
    assert np.isnan(one_call[0].residual) and not one_call[0].passed
    assert one_call[1:] == out.records[1:]


def test_track_reduces_a_difference_and_propagates_nan(out):
    out.track("c", np.array([0.5, -2.0]))
    out.track("d", np.array([0.0, np.nan, -0.5]))
    track_rest(out, "f")
    assert out.records[0].residual == 2.0 and out.records[0].passed
    assert np.isnan(out.records[1].residual)
    assert not out.records[1].passed


def test_records_follow_the_catalogue(out):
    out.track("f", False)
    out.track("d", 0.5)
    out.track("c", 4.0)
    assert [(r.check_id, r.anchor, r.residual, r.tolerance) for r in out.records] == [
        ("c", "anchor c", 4.0, 3.0), ("d", "anchor d", 0.5, 1.0), ("f", "a flag", 0.0, 0.5)]


def test_undeclared_id_raises(out):
    with pytest.raises(KeyError, match="'e' is not declared"):
        out.track("e", 0.0)


def test_untracked_declared_id_raises(out):
    out.track("c", 0.0)
    out.track("f", True)
    with pytest.raises(KeyError, match=r"never tracked: \['d'\]"):
        out.records


@pytest.mark.parametrize("ok,residual", [(True, 0.0), (False, 1.0)])
def test_flag_residual_is_0_or_1(out, ok, residual):
    out.track("f", not ok)
    track_rest(out, "c", "d")
    flag = out.records[2]
    assert (flag.residual, flag.tolerance, flag.passed) == (residual, 0.5, ok)


def test_nan_trial_fails_chart_roundtrip(monkeypatch):
    # one NaN node (trial 2, node 3) of the one stacked inverse call must not
    # drop out of psi-roundtrip
    real_inverse = charts.chart_inverse
    calls = []

    def inverse_with_nan(chart, gamma):
        section = real_inverse(chart, gamma)
        calls.append(None)
        # the constructor rejects a NaN node, so put it in after the fact
        vectors = section.vectors.copy()
        vectors[2, 3] = np.nan
        object.__setattr__(section, "vectors", vectors)
        return section

    monkeypatch.setattr(charts, "chart_inverse", inverse_with_nan)
    cfg = ExperimentConfig(suite="chart-roundtrip", resolution=32, samples=5,
                           seed=3).validated()
    records = run_checks(cfg)
    assert len(calls) == 1
    roundtrip = [r for r in records if r.check_id == "psi-roundtrip"][0]
    assert np.isnan(roundtrip.residual)
    assert not roundtrip.passed


def test_nan_weight_fails_partition_squares(monkeypatch):
    # each partition's first weight returns NaN at the 3rd of the points of
    # a call: in the one partition-squares draws, at the 3rd of its 25
    # probes, which must not drop out of the fold
    real_partition = Sphere2.tangent_partition

    def partition_with_nan(manifold):
        (first, frame), *rest = real_partition(manifold)

        def weight(points):
            out = first(points)
            if out.size >= 3:
                out.flat[2] = np.nan
            return out

        return ((weight, frame), *rest)

    monkeypatch.setattr(Sphere2, "tangent_partition", partition_with_nan)
    cfg = ExperimentConfig(suite="tube-lp", resolution=32, samples=1,
                           seed=5).validated()
    records = run_checks(cfg)
    squares = [r for r in records if r.check_id == "partition-squares"][0]
    assert np.isnan(squares.residual)
    assert not squares.passed


def test_nan_norm_fails_metric_positive(monkeypatch):
    # a NaN squared norm must fail the positivity flag, not drop out of it
    real_inner = geometry.l2_inner
    monkeypatch.setattr(geometry, "l2_inner",
                        lambda base, b, c: np.nan if b is c else real_inner(base, b, c))
    cfg = ExperimentConfig(suite="metric", resolution=32, samples=5, seed=1).validated()
    records = run_checks(cfg)
    positive = [r for r in records if r.check_id == "positive"][0]
    assert positive.residual == 1.0 and not positive.passed


def test_run_checks_gives_the_records_of_the_report(tmp_path):
    cfg = ExperimentConfig(suite="metric", resolution=32, seed=7,
                           out_dir=str(tmp_path)).validated()
    assert run_checks(cfg) == list(run_suite(cfg).checks)


def test_run_checks_records_a_suite_error(monkeypatch):
    def diverging(cfg, rng, out):
        out.track("symmetry", 0.0)
        raise IntegrationDiverged("RK4 step 3 of 16 left the manifold")

    monkeypatch.setitem(SUITES, "metric", diverging)
    cfg = ExperimentConfig(suite="metric", resolution=32).validated()
    assert run_checks(cfg) == [CheckRecord(
        "suite-error", "IntegrationDiverged: RK4 step 3 of 16 left the manifold", 1.0, FLAG)]


def test_trials_stack_each_slot_and_a_tuple_slot_part_by_part():
    # three draws, each an array, a scalar and a loop draw (a tuple)
    def draw(rng):
        return rng.normal(size=2), rng.integers(0, 9), (rng.normal(size=3), rng.normal())

    rng = np.random.default_rng(31)
    singles = [draw(rng) for _ in range(3)]
    after = rng.normal()
    rng = np.random.default_rng(31)
    arrays, ints, (parts, scalars) = suites._trials(rng, 3, draw)
    assert rng.normal() == after
    assert np.array_equal(arrays, np.stack([s[0] for s in singles]))
    assert np.array_equal(ints, [s[1] for s in singles])
    assert parts.shape == (3, 3) and scalars.shape == (3,)
    assert np.array_equal(parts, np.stack([s[2][0] for s in singles]))
    assert np.array_equal(scalars, [s[2][1] for s in singles])


@pytest.mark.parametrize("tag", ["sphere2", "torus2", "flat:3"])
def test_stacked_seeds_are_the_single_clamped_tangents(tag):
    # the reference, trial by trial: a random tangent at scale 1, rescaled
    # to its drawn length by its own 1-D norm
    manifold = manifolds.manifold_from_tag(tag)
    rng = np.random.default_rng(23)
    singles = []
    for _ in range(5):
        point, length = manifold.random_point(rng), rng.uniform(0.1, 0.6)
        raw = manifolds.random_tangent(manifold, rng, point, 1.0)
        singles.append(raw.vector * (length / max(raw.norm, 1e-12)))
    after = rng.normal()
    rng = np.random.default_rng(23)
    point, length, direction = suites._trials(rng, 5, lambda rng: (
        manifold.random_point(rng), rng.uniform(0.1, 0.6),
        rng.normal(size=manifold.ambient_dim)))
    assert rng.normal() == after
    seeds = suites._scaled_tangents(manifold, point, length, direction)
    assert seeds.vector.shape == (5, manifold.ambient_dim)
    assert np.array_equal(seeds.vector, np.stack(singles))
