"""Measure one `relsynth` command in fresh child processes.

Usage:
    python3 tools/child_stats.py [-n RUNS] [--work DIR] TREE [TREE]
        -- COMMAND...

`TREE` is a source checkout (its `src/` is put first on the child's
path) and `COMMAND` the arguments of `relsynth`, for example
`abstract --config vehicle.yaml`.  Each run starts a fresh child in a
new directory of its own and appends `--out out`.  Arguments that name
an existing path are made absolute first.  With two trees the runs
alternate between them, A B A B, so both see the same machine load.

Every child reports its own peak resident size (`VmHWM` of
`/proc/self/status`) and its CPU seconds (user + system, from
`getrusage`); the launcher times its wall seconds from spawn to exit.
`ru_maxrss` from `os.wait4` is not used, because on Linux it also
counts the peak of the process that spawned the child.

Prints one line per run, then the medians per tree, then byte-compares
every run's output directory with the first run's.  The comparison
ignores the `*_seconds` keys of `meta:` lines (build seconds) and CSV
columns named `seconds` or `*_seconds`.  Exits 1 if a child fails or an
output differs.  Standard library only; the launcher never imports
relsynth.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WRAPPER = r"""
import json, os, resource, sys
stats, tree = sys.argv[1], sys.argv[2]
sys.path.insert(0, os.path.join(tree, "src"))
from relsynth.cli import main
code = main(sys.argv[3:])
ru = resource.getrusage(resource.RUSAGE_SELF)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
with open(stats, "w") as fh:
    json.dump({"hwm_mb": hwm_kb / 1024.0,
               "cpu_s": ru.ru_utime + ru.ru_stime}, fh)
sys.exit(code)
"""

METRICS = ("hwm_mb", "cpu_s", "wall_s")


def run_child(tree, command, run_dir):
    """Run `relsynth COMMAND --out out` from `tree` in `run_dir`; return
    the child's own report with its exit status and wall seconds."""
    os.makedirs(run_dir)
    stats = os.path.join(run_dir, "stats.json")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", WRAPPER, stats, tree] + command
        + ["--out", "out"], cwd=run_dir, stdout=subprocess.DEVNULL)
    report = {"exit": proc.returncode,
              "wall_s": time.perf_counter() - t0, "hwm_mb": 0.0, "cpu_s": 0.0}
    if os.path.exists(stats):  # a child that crashed wrote none
        with open(stats) as fh:
            report.update(json.load(fh))
    return report


def _untimed(line):
    """A `meta:` line without the `*_seconds` keys of its JSON object;
    any other line as it is."""
    if not line.startswith(b"meta:"):
        return line
    meta = json.loads(line[len(b"meta:"):])
    return b"meta: " + json.dumps(
        {k: v for k, v in meta.items() if not k.endswith("_seconds")},
        sort_keys=True).encode()


def normalized(path):
    """The bytes of an output file without its timing: the `*_seconds`
    keys of `meta:` lines dropped, and in a CSV the `seconds` and
    `*_seconds` columns."""
    with open(path, "rb") as fh:
        lines = [_untimed(line) for line in fh.read().split(b"\n")]
    if path.endswith(".csv") and lines:
        keep = [i for i, col in enumerate(lines[0].split(b","))
                if col != b"seconds" and not col.endswith(b"_seconds")]
        lines = [b",".join(cells[i] for i in keep if i < len(cells))
                 for cells in (line.split(b",") for line in lines)]
    return b"\n".join(lines)


def outputs(out_dir):
    """Map from relative path to normalized bytes of every output."""
    found = {}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            found[os.path.relpath(path, out_dir)] = normalized(path)
    return found


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit("usage: child_stats.py [-n RUNS] [--work DIR] TREE [TREE]"
                 " -- COMMAND...")
    split = argv.index("--")
    p = argparse.ArgumentParser(prog="child_stats.py")
    p.add_argument("trees", nargs="+", metavar="TREE")
    p.add_argument("-n", "--runs", type=int, default=5,
                   help="runs per tree (default 5)")
    p.add_argument("--work", metavar="DIR",
                   help="keep the run directories here (default: a "
                        "temporary directory, removed at the end)")
    args = p.parse_args(argv[:split])
    if len(args.trees) > 2 or args.runs < 1:
        p.error("give one or two trees and at least one run")
    trees = [os.path.abspath(t) for t in args.trees]
    command = [os.path.abspath(a) if os.path.exists(a) else a
               for a in argv[split + 1:]]
    work = args.work or tempfile.mkdtemp(prefix="child_stats-")
    os.makedirs(work, exist_ok=True)
    reports = [[] for _ in trees]
    first, failed = None, False
    print("tree run exit hwm_mb cpu_s wall_s")
    try:
        for k in range(args.runs):
            for t, tree in enumerate(trees):
                run_dir = os.path.join(work, "t%d-r%d" % (t, k))
                r = run_child(tree, command, run_dir)
                reports[t].append(r)
                print("%s %d %d %.1f %.3f %.3f" % ("AB"[t], k, r["exit"],
                      r["hwm_mb"], r["cpu_s"], r["wall_s"]), flush=True)
                if r["exit"] != 0:
                    failed = True
                    continue
                got = outputs(os.path.join(run_dir, "out"))
                if first is None:
                    first = got
                elif got != first:
                    failed = True
                    diff = sorted(n for n in set(got) | set(first)
                                  if got.get(n) != first.get(n))
                    print("  outputs differ from the first run: %s"
                          % ", ".join(diff))
        for t, tree in enumerate(trees):
            meds = [statistics.median(r[m] for r in reports[t])
                    for m in METRICS]
            print("median %s %s: hwm_mb %.1f cpu_s %.3f wall_s %.3f"
                  % ("AB"[t], tree, *meds))
        print("outputs: %s" % ("differ or a run failed" if failed
                               else "identical"))
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
