"""Each suite's in-process cost on one source tree: wall time and memory peak.

    python3 tools/suite_costs.py <src> [--manifold M] [--resolution N] \\
        [--seed S] [--repeats R]

``<src>`` is a directory that holds the ``loopspace_lab`` package (the
``src/`` directory of a checkout); it goes first on ``sys.path``.  Every
suite runs at the defaults of ``ExperimentConfig`` apart from the manifold,
the resolution and the seed given, through ``suites.run_checks``, as
``loopspace-lab run`` does, but writing no report.  Each suite runs
R times untraced, for the minimum wall time, then once under
``tracemalloc`` for the peak of the memory allocated during the run (numpy
reports its data buffers to ``tracemalloc``).  One line per
suite, slowest first, gives both, whether every check passed, and the
suite's tightest check: the one with the largest residual / tolerance,
with that ratio (0/0 reads as 0, x/0 and a NaN residual as inf), e.g.
``pass (away-from-pole 0.938)``; a suite that raised shows its failing
``suite-error`` record.  A last line gives the sums of the times and the
largest peak.  The exit code is 1 if a suite failed a check.  The tree must
have ``suites.run_checks``.

The peaks show each suite's share of the benchmark's ``peak_rss_mb`` before
a benchmark run: a change that stacks more work into one array shows here
first.
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path)
    parser.add_argument("--manifold", default="sphere2")
    parser.add_argument("--resolution", type=int, default=128)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    from loopspace_lab.suites import SUITES, ExperimentConfig, run_checks

    def ratio(record) -> float:
        if record.residual == 0:
            return 0.0
        if record.tolerance == 0 or np.isnan(record.residual):
            return np.inf
        return record.residual / record.tolerance

    def run(name: str):
        cfg = ExperimentConfig(suite=name, manifold=args.manifold,
                               resolution=args.resolution, seed=args.seed).validated()
        records = run_checks(cfg)
        tightest = max(records, key=ratio)
        return (f"{'pass' if all(r.passed for r in records) else 'FAIL'} "
                f"({tightest.check_id} {ratio(tightest):.3f})")

    rows = []
    for name in SUITES:
        best = np.inf
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            run(name)
            best = min(best, time.perf_counter() - t0)
        tracemalloc.start()
        try:
            outcome = run(name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows.append((best, peak, name, outcome))
    print(f"# {args.src}: {args.manifold}, N = {args.resolution}, seed {args.seed}, "
          f"min of {args.repeats}")
    print(f"{'suite':<24} {'wall_s':>8} {'peak_mb':>8}  outcome")
    for best, peak, name, outcome in sorted(rows, reverse=True):
        print(f"{name:<24} {best:8.4f} {peak / 2**20:8.2f}  {outcome}")
    print(f"{'total':<24} {sum(r[0] for r in rows):8.4f} "
          f"{max(r[1] for r in rows) / 2**20:8.2f}  (sum of times, largest peak)")
    return 0 if all(r[3].startswith("pass ") for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
