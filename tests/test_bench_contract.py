"""The benchmark's tracer still finds the API it counts work through.

``perfbench/tracer.py`` wraps the public functions of the lab by name and
computes its work counters from the arguments of a few of them.  A renamed
function or parameter would silently zero a counter, so one small traced
pass must wrap every counted name and move every counter.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from loopspace_lab import cli, loops, manifolds, polarization

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_reads_every_counter(tmp_path):
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    loop = loops.random_bandlimited_loop(np.random.default_rng(0), 3, 64)
    tracer.install()
    try:
        tracer.begin_pass(0)
        for suite in ("fibration", "tube-lp", "geodesic-pointwise",
                      "polarization-index"):
            code = cli.main(["run", "--suite", suite, "--resolution", "32",
                             "--seed", "7", "--out", str(tmp_path), "--quiet"])
            assert code == 0, suite
        # rotate shifts by FFT and no suite calls evaluate, so call it here
        loops.evaluate(loop, np.array([0.1, 0.3, 0.7]) / 64)
        metrics = tracer.end_pass(1.0)
    finally:
        tracer.uninstall()
    assert set(tracer_module.COUNTERS) <= set(tracer.names)
    for name in tracer_module.COUNTER_METRICS:
        assert metrics[name] > 0, name


def test_svd_counters_match_the_svds_polarization_runs(tmp_path, monkeypatch):
    """The tracer sizes each SVD from call arguments and the nested
    ``active_bandwidth`` result; hold both counters to the SVDs that
    ``polarization`` really runs."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == polarization.__name__:
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    tracer.install()
    try:
        tracer.begin_pass(0)
        for suite in ("polarization-index", "compactness"):
            code = cli.main(["run", "--suite", suite, "--seed", "7",
                             "--out", str(tmp_path), "--quiet"])
            assert code == 0, suite
        metrics = tracer.end_pass(1.0)
    finally:
        tracer.uninstall()
    assert shapes
    assert metrics["polarization.svd_count"] == len(shapes)
    assert metrics["polarization.svd_flops"] == sum(
        tracer_module.svd_flops(m, n) for m, n in shapes)


def test_rk4_steps_match_the_integrations_manifolds_runs(tmp_path, monkeypatch):
    """The tracer counts RK4 steps from the integrators' arguments; hold the
    count to the steps that ``manifolds._rk4`` really takes.  Each pointwise
    suite integrates its three trials at once: one geodesic of 200 steps,
    one transport of 400, and the flat run of 32 and 64."""
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    steps = []
    rk4 = manifolds._rk4

    def recording(rhs, y, t, h, count, after_step=None):
        steps.append(count)
        return rk4(rhs, y, t, h, count, after_step)

    monkeypatch.setattr(manifolds, "_rk4", recording)
    tracer.install()
    try:
        tracer.begin_pass(0)
        for suite in ("geodesic-pointwise", "transport-pointwise"):
            code = cli.main(["run", "--suite", suite, "--resolution", "32",
                             "--seed", "7", "--out", str(tmp_path), "--quiet"])
            assert code == 0, suite
        metrics = tracer.end_pass(1.0)
    finally:
        tracer.uninstall()
    assert steps == [200, 32, 200, 400, 32, 64]
    assert metrics["manifolds.rk4_steps"] == sum(steps) == 928
