"""One workload process of the benchmark: set up, run timed passes, check.

``run.py`` starts this file in a fresh interpreter with BLAS pinned to one
thread and ``src/`` of the checkout on the path.  Every workload is a closed
loop: one caller issues each lab call after the previous one returns.

    python perfbench/worker.py --workload W --seed S --setup-only
        builds the first pass's inputs, then prints {"ready": <perf_counter>}
        and exits; the caller times a cold start with it.
    python perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
        runs passes until T seconds have elapsed (with --trace 1, each pass
        untraced and then traced, until 2T/3 have elapsed), checks every
        output outside the timed region, and prints one JSON line with the
        raw per-pass figures.  Reports and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

ROTATION_RESOLUTIONS = (1024, 4096)
ROTATION_BANDWIDTH = 8
ROTATION_TOL = 1e-10
SYMBOL_NODES = 512
SYMBOL_COUNT = 5
TRUNCATIONS = (16, 64, 128)
INDEX_TOL = 0.5  # integer index identity: |index + winding| must be 0


def _attempt(call):
    """The call's result, or the exception it raised (counted as a failure)."""
    try:
        return call()
    except Exception as exc:  # every failure is recorded, none is retried
        return exc


class PassCheck:
    """Outcome of checking one pass: operations, failures and observations.

    Every failure counts towards ``fail_share`` and fails the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.worst_ratio = 0.0
        self.report_bytes = 0

    def op(self, label: str, problem: str = "") -> None:
        self.attempted += 1
        if problem:
            self.failures.append({"op": label, "problem": problem})

    def ratio(self, residual: float, tolerance: float) -> None:
        if tolerance > 0:
            self.worst_ratio = max(self.worst_ratio, residual / tolerance)


class Battery:
    """All 16 suites through ``cli.main`` at one manifold and resolution."""

    def __init__(self, seed: int, manifold: str, resolution: int, out_dir: Path):
        import numpy as np
        from loopspace_lab import cli, suites
        self.np, self.cli = np, cli
        self.seed = seed
        self.manifold = manifold
        self.resolution = resolution
        self.out_dir = out_dir
        self.suite_names = list(suites.SUITES)

    def inputs(self, pass_id: int) -> list:
        """(suite, suite seed, argv) per suite; seeds drawn from (seed, pass)."""
        rng = self.np.random.default_rng([self.seed, pass_id])
        seeds = rng.integers(0, 2 ** 31, size=len(self.suite_names))
        return [(suite, int(s), ["run", "--suite", suite, "--seed", str(int(s)),
                                 "--manifold", self.manifold,
                                 "--resolution", str(self.resolution),
                                 "--out", str(self.out_dir), "--quiet"])
                for suite, s in zip(self.suite_names, seeds)]

    def run(self, inputs: list, laps: list) -> list:
        results = []
        for _, _, argv in inputs:
            results.append(_attempt(lambda: self.cli.main(argv)))
            laps.append(time.perf_counter())
        return results

    def check(self, inputs: list, results: list) -> PassCheck:
        out = PassCheck()
        for (suite, seed, _), rc in zip(inputs, results):
            files = [self.out_dir / f"{suite}-{seed}{ext}"
                     for ext in (".json", ".csv", ".meta.json")]
            self._check_run(out, suite, seed, rc, files)
            for f in files:
                f.unlink(missing_ok=True)
        return out

    def _check_run(self, out: PassCheck, suite: str, seed: int, rc, files: list):
        label = f"{suite} seed {seed}"
        if rc != 0:
            out.op(label, f"exit {rc!r}")
            return
        try:
            with open(files[0], encoding="utf-8") as fh:
                report = json.load(fh)
            out.report_bytes += sum(f.stat().st_size for f in files)
        except (OSError, json.JSONDecodeError) as exc:
            out.op(label, f"report unreadable: {exc}")
            return
        problems = []
        config = report.get("config", {})
        expected = {"suite": suite, "seed": seed, "manifold": self.manifold,
                    "resolution": self.resolution}
        if any(config.get(k) != v for k, v in expected.items()):
            problems.append(f"config echo {config}")
        if report.get("all_pass") is not True:
            problems.append("all_pass is not true")
        checks = report.get("checks", [])
        if not checks:
            problems.append("no checks")
        for c in checks:
            if not c["residual"] <= c["tolerance"]:
                problems.append(f"{c['check_id']} residual {c['residual']!r} "
                                f"> tolerance {c['tolerance']!r}")
            out.ratio(c["residual"], c["tolerance"])
        out.op(label, "; ".join(problems))


class Spectral:
    """Rotation round trips and Toeplitz index/compactness through the API."""

    def __init__(self, seed: int):
        import numpy as np
        from loopspace_lab import loops, polarization, suites
        self.np, self.loops, self.pol, self.suites = np, loops, polarization, suites
        self.seed = seed

    def inputs(self, pass_id: int):
        np = self.np
        rng = np.random.default_rng([self.seed, pass_id])
        rotations = []
        for n in ROTATION_RESOLUTIONS:
            loop = self.loops.random_bandlimited_loop(rng, 3, n,
                                                      bandwidth=ROTATION_BANDWIDTH)
            # a quarter to three quarters of a node spacing off the grid
            shift = (int(rng.integers(n)) + float(rng.uniform(0.25, 0.75))) / n
            rotations.append((loop, shift))
        symbols = self.suites.symbol_battery(rng, n_nodes=SYMBOL_NODES,
                                             count=SYMBOL_COUNT)
        return rotations, symbols

    def run(self, inputs, laps: list) -> tuple:
        loops, pol = self.loops, self.pol
        rotations, symbols = inputs
        trips = []
        for loop, s in rotations:
            trips.append(_attempt(lambda: loops.rotate(loops.rotate(loop, s), -s)))
            laps.append(time.perf_counter())
        spectra = []
        for symbol in symbols:
            winding = _attempt(lambda: pol.winding_number(symbol))
            for k in TRUNCATIONS:
                blocks = _attempt(lambda: pol.toeplitz_blocks(symbol, k))
                if isinstance(blocks, Exception):
                    index = profile = blocks
                else:
                    index = _attempt(lambda: pol.fredholm_index(blocks))
                    profile = _attempt(lambda: pol.compactness_profile(blocks))
                spectra.append((k, winding, blocks, index, profile))
                laps.append(time.perf_counter())
        return trips, spectra

    def check(self, inputs, results) -> PassCheck:
        np = self.np
        out = PassCheck()
        rotations, _ = inputs
        trips, spectra = results
        for (loop, shift), trip in zip(rotations, trips):
            label = f"rotate round trip N={loop.resolution} s={shift!r}"
            if isinstance(trip, Exception):
                out.op(label, repr(trip))
                continue
            err = float(np.max(np.abs(trip.samples - loop.samples)))
            out.ratio(err, ROTATION_TOL)
            out.op(label, "" if err <= ROTATION_TOL else f"error {err!r} > {ROTATION_TOL}")
        for i, (k, winding, blocks, index, profile) in enumerate(spectra):
            label = f"symbol {i // len(TRUNCATIONS)} K={k}"
            if isinstance(blocks, Exception):
                out.op(f"{label} toeplitz_blocks", repr(blocks))
            else:
                n = blocks.n
                ok = blocks.pp.shape == ((k + 1) * n,) * 2 and \
                    blocks.mm.shape == (k * n,) * 2
                out.op(f"{label} toeplitz_blocks",
                       "" if ok else f"block shapes {blocks.pp.shape}, {blocks.mm.shape}")
            bad = next((x for x in (winding, index) if isinstance(x, Exception)), None)
            if bad is not None:
                out.op(f"{label} fredholm_index", repr(bad))
            else:
                out.ratio(abs(index + winding), INDEX_TOL)
                out.op(f"{label} fredholm_index", "" if index == -winding
                       else f"index {index} != -winding {-winding}")
            if isinstance(profile, Exception):
                out.op(f"{label} compactness_profile", repr(profile))
            else:
                ok = all(len(s) == k * blocks.n and bool(np.all(np.diff(s) <= 0))
                         for s in profile.values())
                out.op(f"{label} compactness_profile", "" if ok
                       else "profile not descending or of the wrong length")
        return out


WORKLOADS = {
    "battery-n128": lambda seed, out_dir: Battery(seed, "sphere2", 128, out_dir),
    "battery-n1024-torus2": lambda seed, out_dir: Battery(seed, "torus2", 1024, out_dir),
    "spectral-scale": lambda seed, out_dir: Spectral(seed),
}


def timed_pass(workload, pass_id: int, inputs, tracer=None) -> dict:
    """Run one pass, then check it; only the pass itself is timed."""
    if tracer is not None:
        tracer.begin_pass(pass_id)
    laps = [time.perf_counter()]
    results = workload.run(inputs, laps)
    wall = time.perf_counter() - laps[0]
    layers = tracer.end_pass(wall) if tracer is not None else None
    check = workload.check(inputs, results)
    return {"pass": pass_id, "traced": tracer is not None, "seconds": wall,
            "steps": [b - a for a, b in zip(laps, laps[1:])],
            "attempted": check.attempted, "failures": check.failures,
            "worst_ratio": check.worst_ratio, "report_bytes": check.report_bytes,
            "layers": layers}


def run_passes(workload, first_inputs, budget_s: float, tracer=None) -> list:
    """Passes until the budget has elapsed; the last one may overrun it.

    With a tracer, each pass runs twice back to back, untraced and then
    traced, so that the two sides of ``trace.overhead`` see the same inputs
    and nearly the same state of the shared machine.
    """
    records = []
    begin = time.perf_counter()
    pass_id = 0
    while True:
        inputs = first_inputs if pass_id == 0 else workload.inputs(pass_id)
        records.append(timed_pass(workload, pass_id, inputs))
        if tracer is not None:
            tracer.install()
            records.append(timed_pass(workload, pass_id, inputs, tracer))
            tracer.uninstall()
        pass_id += 1
        if time.perf_counter() - begin >= budget_s:
            return records


def blas_threads() -> dict:
    """OpenBLAS thread count of every OpenBLAS library loaded in-process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(cfg):
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "blas_thread_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import loopspace_lab.cli  # the cold import that every `loopspace-lab run` pays
    source = Path(loopspace_lab.cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"loopspace_lab imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    report_dir = OUT / f"reports-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, report_dir)
    first_inputs = workload.inputs(0)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    report_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            # pairs of passes: stop at two thirds so the run ends near T
            records = run_passes(workload, first_inputs, args.seconds * 2 / 3, tracer)
            spans_file = OUT / f"spans-{args.workload}.csv.gz"
            tracer.write(spans_file)
        else:
            records = run_passes(workload, first_inputs, args.seconds)
            spans_file = None
    finally:
        shutil.rmtree(report_dir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"ready": ready, "passes": records, "peak_rss_mb": peak_rss_mb,
                      "env": environment(),
                      "spans_file": str(spans_file) if spans_file else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
