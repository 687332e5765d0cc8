"""Compare the seed-7 reports of two source trees byte for byte.

    python3 tools/compare_reports.py <src-a> <src-b>

Each argument is a directory that holds the ``loopspace_lab`` package (the
``src/`` directory of a checkout).  For every suite and every entry of RUNS,
``loopspace-lab run --seed 7`` runs once against each tree, in a fresh
interpreter with that tree on ``PYTHONPATH``, writing into a temporary
directory.  RUNS holds the default resolution on each of three manifolds,
then torus2 at N = 1024, the size of the ``battery-n1024-torus2`` benchmark
workload, where the integrators see large arrays, then sphere2 at a
path grid and a step count away from their defaults, and last each manifold
at N = 8, the smallest accepted resolution, where the N/4 bandwidth guard
of random loops ends ten suites with a suite-error report while the
suites that build only sections run through: 128 runs per tree.  Every
``.json`` and ``.csv`` report that differs, or exists for one tree only, is
printed, and so is every run that wrote no report.  Under each ``.json``
report that differs and exists for both trees, one line per check whose
residual, tolerance or pass differs gives the value of tree a, the value of
tree b and, for numbers, |b - a|; a check found in one report only is
printed too.  The exit code is 1 if any report differs or any run wrote
none, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

#: (output directory, run arguments)
RUNS = (("sphere2", ("--manifold", "sphere2")),
        ("torus2", ("--manifold", "torus2")),
        ("flat:3", ("--manifold", "flat:3")),
        ("torus2-n1024", ("--manifold", "torus2", "--resolution", "1024")),
        ("sphere2-grid48-steps64", ("--manifold", "sphere2", "--path-grid", "48",
                                    "--ode-steps", "64")),
        ("sphere2-n8", ("--manifold", "sphere2", "--resolution", "8")),
        ("torus2-n8", ("--manifold", "torus2", "--resolution", "8")),
        ("flat:3-n8", ("--manifold", "flat:3", "--resolution", "8")))
SEED = "7"
CLI = "import sys; from loopspace_lab.cli import main; sys.exit(main(sys.argv[1:]))"


def cli(src: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", CLI, *args], env=env,
                          capture_output=True, text=True)


def run_tree(src: Path, suites: list, out: Path) -> int:
    """Run every suite for every entry of RUNS; return the number of runs
    that wrote no report."""
    def one(job) -> bool:
        suite, (name, args) = job
        proc = cli(src, "run", "--suite", suite, *args,
                   "--seed", SEED, "--out", str(out / name), "--quiet")
        if proc.returncode in (0, 1):  # 1 is a failed check, still reported
            return True
        print(f"{src}: {suite} on {name} exited {proc.returncode}: "
              f"{proc.stderr.strip()[-300:]}")
        return False

    with ThreadPoolExecutor(max_workers=2) as pool:
        return list(pool.map(one, [(s, r) for r in RUNS for s in suites])).count(False)


def reports(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.suffix in (".json", ".csv") and not p.name.endswith(".meta.json")}


def check_changes(a: bytes, b: bytes) -> list:
    """One line per check whose residual, tolerance or pass differs
    between the JSON reports a and b."""
    before = {c["check_id"]: c for c in json.loads(a).get("checks", [])}
    after = {c["check_id"]: c for c in json.loads(b).get("checks", [])}
    lines = []
    for check_id in sorted(set(before) | set(after)):
        if check_id not in before or check_id not in after:
            lines.append(f"  {check_id}: only in {'b' if check_id in after else 'a'}")
            continue
        for key in ("residual", "tolerance", "pass"):
            old, new = before[check_id][key], after[check_id][key]
            if repr(old) == repr(new):
                continue
            line = f"  {check_id} {key}: {old!r} -> {new!r}"
            if isinstance(old, float) and isinstance(new, float):
                line += f"  |d| {abs(new - old):.3g}"
            lines.append(line)
    return lines


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py <src-a> <src-b>", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    suites = cli(trees[0], "list-suites").stdout.split()
    if not suites:
        print(f"{argv[0]}: list-suites printed no suite", file=sys.stderr)
        return 2
    failed = 0
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, src in enumerate(trees):
            out = Path(tmp) / str(i)
            failed += run_tree(src, suites, out)
            found.append(reports(out))
    a, b = found
    differ = sorted(name for name in set(a) | set(b) if a.get(name) != b.get(name))
    for name in differ:
        missing = "" if name in a and name in b else \
            f" (missing from {argv[1] if name in a else argv[0]})"
        print(f"differs: {name}{missing}")
        if name.suffix == ".json" and not missing:
            for line in check_changes(a[name], b[name]):
                print(line)
    print(f"{len(set(a) | set(b)) - len(differ)} identical, {len(differ)} differ, "
          f"{failed} runs wrote no report")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
