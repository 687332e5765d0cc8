"""Benchmark of loopspace-lab: three closed-loop workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a checkout.  Each run starts one workload process
(``worker.py``) that runs timed passes and checks every output, and, some
before and the rest after it, SETUP_PROBES fresh interpreters that import
``loopspace_lab.cli`` and build the workload's first inputs (``setup_s``, and
``-X importtime`` for the ``import.*`` metrics).  With ``--trace 0`` the run
reports the end-to-end metrics, with ``--trace 1`` the per-layer metrics; the
names and units are those of BENCHMARK.json.  Every metric is printed on its
own line with its unit, the environment on an ``env`` line, and the last line
is one JSON object.  The exit code is 1 when any operation or output check
failed.  Raw figures go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
RUN_MARGIN_S = 140.0  # setup probes, the overrun of the last pass, the checks
SELF_TIME_TOL = 0.01  # share of a traced pass left outside the layers' self times
IMPORT_METRICS = {"import.loopspace_lab_s": "loopspace_lab",
                  "import.scipy_interpolate_s": "scipy.interpolate"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the single-threaded baseline
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def worker(args: list, deadline: float, importtime: bool = False):
    """Start worker.py; return (perf_counter at start, stdout JSON, stderr)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + \
        [str(HERE / "worker.py")] + args
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_seconds(stderr: str) -> dict:
    """Cumulative import time of the IMPORT_METRICS modules, in seconds."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line[len("import time:"):].split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return {metric: cumulative.get(module, 0.0)
            for metric, module in IMPORT_METRICS.items()}


def median_pass(passes: list) -> float:
    """The median pass, assembled step by step.

    The sum over the steps of a pass (one suite run, one rotation round trip,
    or one symbol at one truncation) of each step's median over the passes.
    A slow spell of the shared machine that covers part of one pass moves
    this less than it moves the median of whole-pass times.
    """
    return sum(statistics.median(step) for step in zip(*(p["steps"] for p in passes)))


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def revision() -> dict:
    """Git revision when run in a git clone, and a digest of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    rev = "unknown (not a git clone)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or rev
    return {"git_revision": rev, "src_sha256": digest.hexdigest()}


def layer_metrics(passes: list, probes: list) -> dict:
    """Per-layer metrics: medians over the traced passes."""
    traced = [p for p in passes if p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead"] = median_pass(traced) / median_pass(
        [p for p in passes if not p["traced"]]) - 1.0
    out["suites.worst_ratio"] = max(p["worst_ratio"] for p in passes)
    out["cli.report_bytes"] = statistics.median(p["report_bytes"] for p in traced)
    for metric in IMPORT_METRICS:
        out[metric] = statistics.median(probe[metric] for probe in probes)
    return out


def self_time_gaps(passes: list) -> list:
    """Traced passes whose layer self times do not add up to the pass time.

    The self times may fall short of the traced wall time by the benchmark's
    loop between lab calls, at most SELF_TIME_TOL of the pass, and may not
    exceed it.
    """
    gaps = []
    for p in passes:
        if p["traced"]:
            layers = p["layers"]
            total = sum(layers[k] for k in layers if k.endswith(".self_s"))
            wall = layers["trace.pass_s"]
            if not -1e-9 <= wall - total <= SELF_TIME_TOL * wall:
                gaps.append(f"pass {p['pass']}: self times sum to {total!r} s, "
                            f"the traced pass took {wall!r} s")
    return gaps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "loopspace_lab" / "__init__.py").is_file() \
            or not spec_file.is_file():
        print(f"no loopspace_lab sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    deadline = time.perf_counter() + args.seconds + RUN_MARGIN_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def probe() -> dict:
        started, ready, stderr = worker(common + ["--setup-only"], deadline,
                                        importtime=True)
        return {"setup_s": ready["ready"] - started, **import_seconds(stderr)}

    # probes on both sides of the workload see more of the machine's drift
    probes = [probe() for _ in range(SETUP_PROBES // 2)]
    _, result, _ = worker(common + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], deadline)
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    passes = result["passes"]

    findings = [f"pass {p['pass']}{' (traced)' if p['traced'] else ''}: "
                f"{f['op']}: {f['problem']}"
                for p in passes for f in p["failures"]]
    findings += self_time_gaps(passes)
    correct = not findings
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    untraced = [p for p in passes if not p["traced"]]
    plain = [p["seconds"] for p in untraced]
    setups = [probe["setup_s"] for probe in probes]
    if args.trace:
        metrics = layer_metrics(passes, probes)
    else:
        metrics = {"pass_s": median_pass(untraced),
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": result["peak_rss_mb"]}
    if set(metrics) != set(declared):
        print(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 2

    env = {**revision(), **result["env"]}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for msg in findings:
        print(f"FAILED {msg}")
    q1, med, q3 = quartiles(plain)
    print(f"# untraced passes: {len(plain)}, whole-pass median {med:.4f} s, "
          f"quartiles {q1:.4f} .. {q3:.4f} s")
    s1, smed, s3 = quartiles(setups)
    print(f"# fresh-interpreter setups: {len(setups)}, median {smed:.4f} s, "
          f"quartiles {s1:.4f} .. {s3:.4f} s")
    print(f"fail_share {failed / attempted!r} share ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"{name} {value!r} {declared[name]}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "probes": probes, "passes": passes,
              "metrics": metrics,
              "findings": findings,
              "spans_file": result["spans_file"]}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]}
                    for name in declared}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
