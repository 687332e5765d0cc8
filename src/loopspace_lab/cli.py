"""Configuration-driven experiment runner.

``loopspace-lab run --suite <name> --config <file> [overrides]`` executes one
verification suite and writes a machine-readable report; ``loopspace-lab
list-suites`` enumerates the suites.  Reports are deterministic functions of
the configuration: the wall time is segregated into a sidecar file so the
main report is byte-identical across reruns with the same seed.

Exit codes: 0 all checks pass, 1 a check failed (report still written),
2 unknown suite, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid, LoopspaceError, UnknownSuite
from .suites import SUITES, ExperimentConfig

REPORT_SCHEMA = "loopspace-lab/report-v1"


@dataclasses.dataclass(frozen=True)
class Report:
    suite: str
    config: dict
    checks: tuple
    all_pass: bool

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "suite": self.suite,
            "config": self.config,
            "checks": [
                {"check_id": c.check_id, "anchor": c.anchor,
                 "residual": c.residual, "tolerance": c.tolerance,
                 "pass": c.passed}
                for c in self.checks
            ],
            "all_pass": self.all_pass,
        }


def _config_echo(cfg: ExperimentConfig) -> dict:
    # the output directory locates the report, it does not shape it
    return {k: getattr(cfg, k) for k in sorted(
        f.name for f in dataclasses.fields(ExperimentConfig))
        if k != "out_dir"}


def run_suite(cfg: ExperimentConfig, write: bool = True,
              verbose: bool = False) -> Report:
    """Execute one suite and (optionally) write the report pair.

    Writes ``<out>/<suite>-<seed>.json`` and ``.csv`` plus a ``.meta.json``
    sidecar carrying the wall time, which is kept out of the main report so
    that equal configurations produce byte-identical reports.
    """
    cfg = cfg.validated()
    rng = np.random.default_rng(cfg.seed)
    t0 = time.perf_counter()
    checks = SUITES[cfg.suite](cfg, rng)
    wall = time.perf_counter() - t0
    report = Report(cfg.suite, _config_echo(cfg), tuple(checks),
                    all(c.passed for c in checks))
    if verbose:
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(f"[{status}] {cfg.suite}/{c.check_id}: "
                  f"residual {c.residual:.3e} <= {c.tolerance:.3e} ({c.anchor})")
    if write:
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = out / f"{cfg.suite}-{cfg.seed}"
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")
        with open(f"{stem}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check_id", "anchor", "residual", "tolerance", "pass"])
            for c in checks:
                writer.writerow([c.check_id, c.anchor, repr(c.residual),
                                 repr(c.tolerance), c.passed])
        with open(f"{stem}.meta.json", "w", encoding="utf-8") as fh:
            json.dump({"wall_time_s": wall}, fh)
            fh.write("\n")
    return report


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    """Build the configuration from an optional JSON file plus flag
    overrides; flags win over the file."""
    data: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigInvalid("config file must hold a JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigInvalid(f"unknown config keys: {sorted(unknown)}")
    if "suite" not in data:
        raise ConfigInvalid("a suite name is required (--suite or config file)")
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise ConfigInvalid(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopspace-lab",
        description="verification suites for loop-space geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one verification suite")
    run.add_argument("--suite", help="suite name (see list-suites)")
    run.add_argument("--config", help="JSON config file; flags win over it")
    run.add_argument("--manifold", help="manifold tag: flat:<n>, sphere2, torus2")
    run.add_argument("--resolution", type=int, help="circle nodes (power of two)")
    run.add_argument("--path-grid", type=int, dest="path_grid",
                     help="time grid for loop paths")
    run.add_argument("--ode-steps", type=int, dest="ode_steps",
                     help="fixed steps for geodesic/transport integration")
    run.add_argument("--seed", type=int, help="random seed")
    run.add_argument("--out", dest="out_dir", help="report output directory")
    run.add_argument("--tol", type=float, dest="oracle_tol",
                     help="oracle-agreement tolerance")
    run.add_argument("--samples", type=int, help="number of random trials")
    run.add_argument("--quiet", action="store_true", help="suppress check lines")

    sub.add_parser("list-suites", help="print the available suite names")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-suites":
        for name in SUITES:
            print(name)
        return 0

    overrides = {k: getattr(args, k) for k in
                 ("suite", "manifold", "resolution", "path_grid", "ode_steps",
                  "seed", "out_dir", "oracle_tol", "samples")}
    try:
        cfg = load_config(args.config, overrides)
        report = run_suite(cfg, verbose=not args.quiet)
    except UnknownSuite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LoopspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not report.all_pass:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
