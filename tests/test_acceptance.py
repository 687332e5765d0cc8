"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single pass/fail line (run pytest with -s to see them
inline).  Tolerances are pinned here, independent of any configuration
knobs, so loosening a suite would fail the gate.
"""

import time

import numpy as np
import pytest

from loopspace_lab.cli import run_suite
from loopspace_lab.suites import SUITES, ExperimentConfig


def _line(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _records(report):
    return {c.check_id: c for c in report.checks}


@pytest.fixture(autouse=True)
def _reports_in_tmp_path(tmp_path, monkeypatch):
    # run_suite writes under the default out_dir, relative to the working directory
    monkeypatch.chdir(tmp_path)


def _run(suite, **kw):
    return run_suite(ExperimentConfig(suite=suite, **kw))


def test_criterion_01_chart_roundtrip_and_transition_inverse():
    t0 = time.perf_counter()
    ok = True
    for manifold in ("sphere2", "flat:3"):
        rep = _records(_run("chart-roundtrip", manifold=manifold,
                            resolution=128, samples=100))
        rt = rep["psi-roundtrip"]
        ok &= rt.passed and rt.tolerance <= 1e-6 and rt.residual <= 1e-6
        trans = _records(_run("transition-cocycle", manifold=manifold,
                              resolution=128, samples=1000))
        inv = trans["inverse"]
        ok &= inv.passed and inv.residual <= 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 10.0
    _line(1, f"chart and transition roundtrips <= 1e-6 on 100 samples "
             f"({elapsed:.1f}s <= 10s)", ok)


def test_criterion_02_vertical_derivative_law():
    rep = _records(_run("vertical-derivative", samples=100))
    fd = rep["fd-agreement"]
    lin = rep["lr-linear"]
    ok = fd.passed and fd.tolerance == 1e-5 and \
        lin.passed and lin.tolerance == 1e-6
    _line(2, "vertical-derivative law <= 1e-5 on 50 maps, "
             "scalar-loop linearity <= 1e-6", ok)


def test_criterion_03_tangent_identification():
    ok = True
    for manifold in ("sphere2", "flat:3"):
        rep = _records(_run("tangent-identification", manifold=manifold))
        rec = rep["exp-family"]
        ok &= rec.passed and rec.tolerance == 1e-5
    _line(3, "curve-of-loops velocity = loop of pointwise velocities <= 1e-5", ok)


def test_criterion_04_covariant_derivative_adjunction():
    rep = _records(_run("covderiv-adjoint"))
    rec = rep["connector-vs-transport"]
    ok = rec.passed and rec.tolerance == 1e-4
    _line(4, "looped connector vs finite-difference covariant derivative "
             "<= 1e-4 at 10 random nodes", ok)


def test_criterion_05_geodesics_and_transport_pointwise():
    geo = _records(_run("geodesic-pointwise", manifold="sphere2", ode_steps=200))
    tra = _records(_run("transport-pointwise", manifold="sphere2", ode_steps=200))
    ok = geo["pointwise-oracle"].passed and geo["pointwise-oracle"].tolerance == 1e-7
    ok &= geo["energy"].passed and geo["energy"].tolerance == 1e-5
    ok &= tra["pointwise-oracle"].passed and tra["pointwise-oracle"].tolerance == 1e-7
    _line(5, "loop geodesics/transport match sphere oracles <= 1e-7 at 200 "
             "steps, energy drift <= 1e-5", ok)


def test_criterion_06_torsion_looping():
    rep = _records(_run("torsion-loop"))
    exact = rep["cross-product"]
    fd = rep["fd-estimate"]
    ok = exact.passed and exact.residual == 0.0
    ok &= fd.passed and fd.tolerance == 1e-4
    _line(6, "looped torsion equals the pointwise tensor exactly; "
             "finite-difference estimate <= 1e-4", ok)


def test_criterion_07_frame_extraction():
    rep = _records(_run("frame-extract"))
    rec = rep["reconstruction"]
    ok = rec.passed and rec.tolerance == 1e-8
    ok &= rep["reject-convolution"].passed
    _line(7, "20 pointwise operators reconstructed <= 1e-8; "
             "convolution rejected as not pointwise", ok)


def test_criterion_08_fibration_and_tubes():
    fib = _records(_run("fibration", manifold="sphere2"))
    tub = _records(_run("tube-lp", manifold="sphere2"))
    eqv = _records(_run("equivariant", manifold="sphere2"))
    ok = fib["roundtrip"].passed and fib["roundtrip"].tolerance == 1e-6
    ok &= tub["point-roundtrip"].passed and tub["point-roundtrip"].tolerance == 1e-6
    ok &= tub["pair-roundtrip"].passed and tub["pair-roundtrip"].tolerance == 1e-6
    ok &= eqv["roundtrip"].passed and eqv["roundtrip"].tolerance == 1e-6
    ok &= eqv["rotation-commute"].passed and eqv["rotation-commute"].tolerance == 1e-7
    ok &= eqv["flat-fourier"].passed and eqv["flat-fourier"].tolerance == 1e-12
    _line(8, "fibration/tube roundtrips <= 1e-6, equivariant decomposition "
             "<= 1e-6 with rotation commutation <= 1e-7 and Fourier oracle "
             "<= 1e-12", ok)


def test_criterion_09_exp_nonsurjectivity_witness():
    rep = _records(_run("exp-nonsurjective", resolution=128))
    through = rep["through-pole"]
    away = rep["away-from-pole"]
    ok = through.passed and through.residual <= 1.0  # 1/jump: jump >= 1.0
    ok &= away.passed and away.tolerance == 0.1
    _line(9, "lift jump >= 1.0 through the pole, <= 0.1 for circles at "
             "distance >= 0.2, at N = 128", ok)


def test_criterion_10_polarization():
    t0 = time.perf_counter()
    idx = _records(_run("polarization-index"))
    cmp_rep = _records(_run("compactness"))
    elapsed = time.perf_counter() - t0
    ok = idx["index-vs-winding"].passed and idx["index-vs-winding"].residual == 0.0
    ok &= cmp_rep["superpolynomial-decay"].passed
    ok &= elapsed <= 30.0
    _line(10, f"index = -winding on the 20-symbol battery (stable across "
              f"truncations), off-diagonal decay >= 1e3 per 8 modes "
              f"({elapsed:.1f}s <= 30s)", ok)


def test_criterion_11_determinism_and_wall_time(tmp_path):
    t0 = time.perf_counter()
    dirs = (tmp_path / "run1", tmp_path / "run2")
    for d in dirs:
        for suite in SUITES:
            run_suite(ExperimentConfig(suite=suite, seed=7, out_dir=str(d)))
    elapsed = time.perf_counter() - t0
    identical = True
    for suite in SUITES:
        for ext in (".json", ".csv"):
            b1 = (dirs[0] / f"{suite}-7{ext}").read_bytes()
            b2 = (dirs[1] / f"{suite}-7{ext}").read_bytes()
            identical &= b1 == b2
    ok = identical and elapsed <= 300.0
    _line(11, f"byte-identical reports across reruns; full battery twice in "
              f"{elapsed:.1f}s (<= 300s)", ok)
