"""Alternating before/after runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py <checkout-a> <checkout-b> --workload W [W ...] \\
        --pairs P --seed0 N --save BENCH_<label>.json

Checkout a is the before side and b the after side.  Both must hold
byte-identical ``perfbench/`` directories and ``BENCHMARK.json``; if they do
not, nothing runs and the exit code is 2.  Pair i runs each checkout's own
``perfbench/run.py --trace 0`` at seed N + i for the ``run_seconds`` that
BENCHMARK.json sets, from that checkout's root, a first on even i and b
first on odd i, and reads the last line of each run's output as JSON.

For each workload and each end-to-end metric of BENCHMARK.json the saved file
holds both sides' values, medians and quartiles, the pairs each side won
(ties count for neither), b's median relative to a's with the metric's bound,
and ``gain``: there were at least ten pairs, b failed no more operations
than a, b won at least nine tenths of the pairs and the medians differ by
more than the distance between a's quartiles.  It also holds each side's
failed and attempted operation counts and the ``env`` line of its first run.
The exit code is 1 if any run failed an operation or output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("a", "b")
GAIN_SHARE = 0.9
GAIN_MIN_PAIRS = 10
RUN_MARGIN_S = 600.0  # setup probes and checks on top of run_seconds


def files(root: Path) -> dict:
    """The benchmark's files under a checkout, by relative path."""
    found = {Path("BENCHMARK.json"): (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            found[path.relative_to(root)] = path.read_bytes()
    return found


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its final JSON record plus its env line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=seconds + RUN_MARGIN_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    env = next(line[len("env "):] for line in lines if line.startswith("env "))
    record["env"] = json.loads(env)
    return record


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summary(runs: list, declared: list) -> dict:
    """Per-metric comparison of the b side against the a side."""
    failed = {side: sum(r[side]["failed"] for r in runs) for side in SIDES}
    countable = len(runs) >= GAIN_MIN_PAIRS and failed["b"] <= failed["a"]
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[side]["metrics"][name]["value"] for r in runs]
                  for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        wins = {side: 0 for side in SIDES}
        for va, vb in zip(values["a"], values["b"]):
            if va != vb:
                wins["b" if (vb < va) == lower else "a"] += 1
        med_a, med_b = stats["a"]["median"], stats["b"]["median"]
        spread_a = stats["a"]["q3"] - stats["a"]["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            **{side: {"values": values[side], **stats[side]} for side in SIDES},
            "wins": wins,
            "b_over_a": med_b / med_a - 1.0 if med_a else None,
            "gain": countable and wins["b"] >= GAIN_SHARE * len(runs)
            and abs(med_b - med_a) > spread_a,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--save", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"a": args.checkout_a.resolve(), "b": args.checkout_b.resolve()}
    try:
        bench = {side: files(root) for side, root in checkouts.items()}
    except FileNotFoundError as exc:
        print(f"not a benchmark checkout: {exc}", file=sys.stderr)
        return 2
    if bench["a"] != bench["b"]:
        differ = sorted(str(p) for p in set(bench["a"]) | set(bench["b"])
                        if bench["a"].get(p) != bench["b"].get(p))
        print("the checkouts' benchmarks differ: " + ", ".join(differ),
              file=sys.stderr)
        return 2
    benchmark = json.loads(bench["a"][Path("BENCHMARK.json")])
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    result = {"pairs": args.pairs, "seconds": seconds, "seed0": args.seed0,
              "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": args.seed0 + i, "first": order[0]}
            for side in order:
                pair[side] = run(checkouts[side], workload, pair["seed"], seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs} seed {pair['seed']}: " +
                  ", ".join(f"{side} pass_s {pair[side]['metrics']['pass_s']['value']:.4f}"
                            for side in SIDES), flush=True)
        metrics = summary(runs, declared)
        result["workloads"][workload] = {
            "metrics": metrics,
            **{key: {side: sum(r[side][key] for r in runs) for side in SIDES}
               for key in ("failed", "attempted")},
            "correct": {side: all(r[side]["correct"] for r in runs) for side in SIDES},
            "env": {side: runs[0][side]["env"] for side in SIDES},
        }
        for name, m in metrics.items():
            print(f"{workload} {name}: a {m['a']['median']:.4g} "
                  f"[{m['a']['q1']:.4g}, {m['a']['q3']:.4g}], b {m['b']['median']:.4g} "
                  f"[{m['b']['q1']:.4g}, {m['b']['q3']:.4g}] {m['unit']}, "
                  f"b wins {m['wins']['b']}/{args.pairs}, gain {m['gain']}")
    args.save.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0 if all(all(w["correct"].values()) for w in result["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
