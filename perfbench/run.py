"""relsynth benchmark: `abstract` then `solve` on the built-in vehicle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--trace 1]     # every workload

Each command of a workload runs in a fresh child process, one at a time:
a closed loop with a single client, since the program is
single-threaded.  A cycle is one `abstract` and the `solve` commands on
the interface files it wrote; a run repeats cycles until `--seconds`
have passed (at least one) and reports medians over them.  Every command
plus the checks on its outputs is one operation; the checks (see
`check.py`) share no code with relsynth.

The seed feeds the checker's draws only (the `random_rects` plan is
fixed, see `reach6_rects8000`); relsynth sees nothing but the generated
configuration files.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one
untraced cycle and then one traced cycle, prints the per-layer metrics
of the traced one and its overhead against the untraced one, and writes
the spans to `.perfbench/trace-<workload>-<seed>.json`.

With `--workload`, the last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

# one budget for every solve; above the 47 iterations of solvers6 (c)
MAX_ITERS = 60
# setup rounds per run: the real cycle plus setup-only spawns
SETUP_ROUNDS = 5
ABSTRACT_DRAWS = 400
LOOP_DRAWS = 4000
# children still running this long after a run starts are killed, so
# that a run ends within 180 s
RUN_DEADLINE_S = 170.0

COMPONENTS = ("px", "py", "theta")
BOX = {"px": [-0.5, 0.5], "py": [-0.5, 0.5]}
REACH = {"objective": "reach", "box": BOX}


class Solve:
    """One `solve` command of a cycle and what its outputs must show."""

    def __init__(self, label, cfg, args, spec):
        self.label, self.cfg, self.args, self.spec = label, cfg, args, spec


def reach7_exhaustive(seed):
    base = {"bits": 7}
    return base, [Solve("reach", base, [], dict(REACH, paper_basin=True))]


def reach6_rects8000(seed):
    # One fixed plan: with the plan seed taken from the run seed, the work
    # itself changed from seed to seed (solve_s quartile spread 0.18 of
    # its median over five seeds), which no bound could absorb.
    base = {"bits": 6,
            "plan": {"kind": "random_rects", "count": 8000, "seed": 1}}
    return base, [Solve("reach", base, [], REACH)]


def solvers6(seed):
    base = {"bits": 6, "length": 0.7}
    whole = {"px": [-2, 2], "py": [-2, 2]}
    return base, [
        Solve("a_safe",
              dict(base, objective={"kind": "safe", "box": whole}), [],
              {"objective": "safe", "box": whole}),
        # cycles under coarsening (iterate 20 equals iterate 18) and
        # stops on the budget: the defect cycle detection is meant to fix
        Solve("b_coarsen", base, ["--coarsen-threshold", "1500"],
              dict(REACH, known_defect="stop=budget")),
        Solve("c_downsample", dict(base, solver={"downsample": [4, 5, 6]}),
              [], REACH),
    ]


WORKLOADS = {
    "reach7_exhaustive": reach7_exhaustive,
    "reach6_rects8000": reach6_rects8000,
    "solvers6": solvers6,
}

END_TO_END = [("setup_s", "s"), ("abstract_s", "s"), ("solve_s", "s"),
              ("total_s", "s"), ("abstract_rss_mb", "MB"),
              ("solve_rss_mb", "MB")]


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- children -------------------------------------------------------------------

class Command:
    """Timing, memory and output of one child process."""

    def __init__(self, spawn, exit_code, wall, cpu, rss_mb, stdout, stats):
        self.exit_code = exit_code
        self.wall = wall
        self.cpu = cpu
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.stats = stats
        end = stats.get("setup_end")
        self.setup = end - spawn if end is not None else None


def spawn(work, tag, mode, args, deadline):
    """Run one child to completion and reap it with `os.wait4`, so that
    its peak RSS is its own.  The child is killed at `deadline`."""
    stats_path = os.path.join(work, tag + ".stats.json")
    log_path = os.path.join(work, tag + ".log")
    with open(log_path, "w") as log:
        t0 = now()
        p = subprocess.Popen([sys.executable, CHILD, stats_path, mode, "--"]
                             + args, stdout=log, stderr=subprocess.STDOUT,
                             cwd=work)
        fd = os.pidfd_open(p.pid)
        try:
            if not select.select([fd], [], [], max(deadline - now(), 0))[0]:
                p.kill()
        except BaseException:
            p.kill()
            os.wait4(p.pid, 0)
            p.returncode = -9
            raise
        finally:
            os.close(fd)
        _, status, ru = os.wait4(p.pid, 0)
        t1 = now()
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path) as fh:
        stdout = fh.read()
    try:
        with open(stats_path) as fh:
            stats = json.load(fh)
    except (OSError, ValueError):  # the child died before writing it
        stats = {}
    return Command(t0, p.returncode, t1 - t0,
                   ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, stdout,
                   stats)


def write_config(work, name, cfg):
    path = os.path.join(work, name + ".yaml")
    with open(path, "w") as fh:
        json.dump(cfg, fh)  # JSON is YAML
    return path


# -- one cycle ------------------------------------------------------------------

class Op:
    """One command plus the checks on its outputs."""

    def __init__(self, label, cmd, fails, counts):
        self.label, self.cmd, self.fails, self.counts = (label, cmd, fails,
                                                         counts)
        self.known_defect = None

    def record(self):
        """The outputs that must repeat exactly across cycles."""
        keys = ("basin", "iterations", "stop", "digest_cells",
                "digest_winning", "digest_controller", "digest_interfaces")
        rec = {k: self.counts[k] for k in keys if k in self.counts}
        if self.cmd is not None:
            rec["store_peak_nodes"] = self.cmd.stats.get("store_peak")
        return rec


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f))
               for f in os.listdir(path))


def command_args(work, cmd_name, tag, cfg, extra, files=()):
    out = os.path.join(work, tag)
    return out, [cmd_name, "--config", write_config(work, tag, cfg),
                 "--out", out] + extra + list(files)


def run_cycle(wl, seed, work, mode, deadline):
    base, solves = WORKLOADS[wl](seed)
    bits, length = base["bits"], base.get("length", 1.4)
    rng = random.Random("%d:%s" % (seed, wl))
    ops = []
    absdir, args = command_args(work, "abstract", "abstract", base, [])
    cmd = spawn(work, "abstract", mode, args, deadline)
    counts = {}
    fails = [] if cmd.exit_code == 0 else ["abstract: exit %d"
                                            % cmd.exit_code]
    if not fails:
        fails = check.check_abstraction(absdir, bits, length, rng,
                                        ABSTRACT_DRAWS, counts)
    files = [os.path.join(absdir, "interface_%s.txt" % c)
             for c in COMPONENTS]
    if not fails:
        counts["digest_interfaces"] = [check.body_digest(f) for f in files]
    ops.append(Op("abstract", cmd, fails, counts))
    grid = check.Grid(bits)
    for s in solves:
        out, args = command_args(work, "solve", s.label, s.cfg,
                                 ["--max-iters", str(MAX_ITERS)] + s.args,
                                 files)
        if ops[0].fails:
            ops.append(Op(s.label, None, ["abstract failed"], {}))
            continue
        cmd = spawn(work, s.label, mode, args, deadline)
        counts = {}
        if cmd.exit_code != 0:
            fails = ["solve: exit %d" % cmd.exit_code]
        else:
            fails = check.check_solve(out, cmd.stdout, s.spec, grid, length,
                                      rng, LOOP_DRAWS, counts)
            counts["output_bytes"] = dir_bytes(out)
        op = Op(s.label, cmd, fails, counts)
        known = s.spec.get("known_defect")
        if known and fails == ["solve: %s" % known]:
            op.known_defect, op.fails = known, []
        ops.append(op)
    return ops


def setup_round(wl, seed, work, deadline):
    """The cycle's commands again, each stopped once setup ends."""
    base, solves = WORKLOADS[wl](seed)
    cmds = [["abstract", "--config", write_config(work, "abstract", base)]]
    for s in solves:
        cmds.append(["solve", "--config", write_config(work, s.label, s.cfg)]
                    + s.args)
    setups = [spawn(work, "setup", "setup", c, deadline).setup
              for c in cmds]
    return None if None in setups else sum(setups)


def cycle_metrics(ops):
    cmds = [op.cmd for op in ops if op.cmd is not None]
    solves = cmds[1:]
    return {
        "setup_s": sum(c.setup for c in cmds),
        "abstract_s": cmds[0].wall - cmds[0].setup,
        "solve_s": sum(c.wall - c.setup for c in solves),
        "total_s": sum(c.wall for c in cmds),
        "abstract_rss_mb": cmds[0].rss_mb,
        "solve_rss_mb": max(c.rss_mb for c in solves),
    }


# -- per-layer metrics --------------------------------------------------------

BDD_OPS = ("and", "or", "implies", "not", "exists", "forall", "and_exists",
           "implies_forall", "rename", "sat_count", "sat_runs",
           "node_count", "sweep", "to_text", "from_text")


def layer_metrics(ops, overhead):
    """Per-layer metrics of one traced cycle, summed over its commands."""
    agg, counts = {}, {}
    for op in ops:
        for k, v in op.cmd.stats.get("agg", {}).items():
            a = agg.setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                a[i] += v[i]
        for k, v in op.cmd.stats.get("counts", {}).items():
            counts[k] = counts.get(k, 0) + v

    def calls(k):
        return agg.get(k, [0, 0.0, 0.0])[0]

    def secs(k):
        return agg.get(k, [0, 0.0, 0.0])[1]

    def self_s(k):
        return agg.get(k, [0, 0.0, 0.0])[2]

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for op in BDD_OPS:
        put("bdd.%s.calls" % op, calls("bdd." + op), "count")
        put("bdd.%s.self_s" % op, self_s("bdd." + op), "s")
    put("bdd.nodes_created", counts.get("bdd.nodes_created", 0), "count")
    put("bdd.store_peak_nodes",
        max(op.cmd.stats.get("store_peak", 0) for op in ops), "count")
    put("bdd.sweep.freed", counts.get("bdd.sweep.freed", 0), "count")
    for fn in ("code_range", "encode_set"):
        put("spaces.%s.calls" % fn, calls("spaces." + fn), "count")
        put("spaces.%s.self_s" % fn, self_s("spaces." + fn), "s")
    for c in COMPONENTS:
        key = "abstraction.%s" % c
        put(key + ".traverse_s", secs(key + ".traverse"), "s")
        put(key + ".nodes", counts.get(key + ".nodes", 0), "count")
        put(key + ".accepted_ratio", counts.get(key + ".accepted", 0)
            / max(counts.get(key + ".samples", 0), 1), "1")
    put("abstraction.store_nodes", ops[0].cmd.stats.get("store_final", 0),
        "count")
    for c in COMPONENTS:
        put("games.cpre.%s.s" % c, secs("games.cpre." + c), "s")
        put("games.cpre.%s.nodes_created" % c,
            counts.get("games.cpre.%s.nodes_created" % c, 0), "count")
    put("games.project.s", secs("games.project"), "s")
    put("games.coarsen.s", secs("games.coarsen"), "s")
    put("games.coarsen.events", counts.get("games.coarsen.events", 0),
        "count")
    put("games.coarsen_component.s", secs("games.coarsen_component"), "s")
    solves = ops[1:]
    iter_s = [t for op in solves for t in op.counts.get("iter_seconds", [])]
    nodes = [n for op in solves for n in op.counts.get("iter_nodes", [])]
    put("games.iterations", sum(op.counts.get("iterations", 0)
                                for op in solves), "count")
    put("games.budget_stops", sum(op.counts.get("stop") == "budget"
                                  for op in solves), "count")
    put("games.iter_s.p50", statistics.median(iter_s) if iter_s else 0.0,
        "s")
    put("games.iter_s.max", max(iter_s, default=0.0), "s")
    put("games.iterate_nodes.max", max(nodes, default=0), "count")
    put("games.basin_states", sum(op.counts.get("basin", 0)
                                  for op in solves), "count")
    put("interfaces.save.s", secs("interfaces.save"), "s")
    put("interfaces.load.s", secs("interfaces.load"), "s")
    put("interfaces.bytes", counts.get("interfaces.bytes", 0), "B")
    put("cli.setup.s", secs("cli.load_config") + secs("cli.build_system"),
        "s")
    write = 0.0
    for op in solves:
        st = op.cmd.stats
        for span in st.get("spans", ()):
            if span[0] == "cli.cmd_solve" and st.get("solver_end"):
                write += span[2] - st["solver_end"]
    put("cli.write.s", write, "s")
    put("cli.output_bytes", sum(op.counts.get("output_bytes", 0)
                                for op in solves), "B")
    put("trace.overhead", overhead, "1")
    return out


# -- a run ------------------------------------------------------------------

def environment():
    mem = "unknown"
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem = " ".join(line.split()[1:])
    except OSError:
        pass
    commit = "none (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return ("python %s, cpus %s, MemTotal %s, commit %s"
            % (platform.python_version(), os.cpu_count(), mem, commit))


def run_workload(wl, seed, seconds, trace):
    """All cycles of one run: (result line, op counts, report lines)."""
    start = now()
    deadline = start + RUN_DEADLINE_S
    work = os.path.join(SCRATCH, "work-%s-%d-%d" % (wl, seed, os.getpid()))
    cycles, setups = [], []
    try:
        while True:
            cwork = os.path.join(work, "cycle%d" % len(cycles))
            os.makedirs(cwork)
            mode = "trace" if trace and cycles else "run"
            cycles.append(run_cycle(wl, seed, cwork, mode, deadline))
            per_cycle = [cycle_metrics(ops) for ops in cycles
                         if all(op.cmd is not None and op.cmd.setup is not None
                                for op in ops)]
            elapsed = now() - start
            done = len(cycles) == 2 if trace else elapsed >= seconds
            if done or now() + 1.5 * elapsed / len(cycles) > deadline:
                break
        setups = [c["setup_s"] for c in per_cycle]
        if not trace:
            swork = os.path.join(work, "setup")
            os.makedirs(swork)
            for _ in range(SETUP_ROUNDS - len(setups)):
                setups.append(setup_round(wl, seed, swork, deadline))
            setups = [s for s in setups if s is not None]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = []
    first = {op.label: op.record() for op in cycles[0]}
    for ops in cycles[1:]:
        for op in ops:
            if not op.fails and op.record() != first.get(op.label):
                op.fails.append("outputs differ from the first cycle")
    attempted = sum(len(ops) for ops in cycles)
    failed = sum(1 for ops in cycles for op in ops if op.fails)
    known = sum(1 for ops in cycles for op in ops if op.known_defect)
    for i, ops in enumerate(cycles):
        for op in ops:
            for f in op.fails:
                lines.append("FAIL %s cycle %d %s: %s" % (wl, i, op.label, f))
            if op.known_defect:
                lines.append("known defect %s cycle %d %s: %s (not counted "
                             "as failed)" % (wl, i, op.label,
                                             op.known_defect))
    for i, ops in enumerate(cycles):
        for op in ops:
            if op.cmd is not None:
                lines.append("command %s cycle %d %s: wall %.3f s, cpu %.3f s, "
                             "setup %s s, peak rss %.1f MB"
                             % (wl, i, op.label, op.cmd.wall, op.cmd.cpu,
                                op.cmd.setup, op.cmd.rss_mb))
    for op in cycles[0]:
        rec = op.record()
        tally = {k: v for k, v in op.counts.items()
                 if k.startswith(("loop_", "abstraction_", "goal_"))}
        lines.append("record %s %s: %s %s" % (wl, op.label,
                                              json.dumps(rec, sort_keys=True),
                                              json.dumps(tally)))
    if trace and len(per_cycle) == 2:
        untraced, traced = per_cycle
        metrics = layer_metrics(cycles[1], traced["total_s"]
                                / untraced["total_s"] - 1.0)
        write_spans(wl, seed, cycles[1])
    elif per_cycle and not trace:
        metrics = {name: (statistics.median(c[name] for c in per_cycle),
                          unit) for name, unit in END_TO_END}
        metrics["setup_s"] = (statistics.median(setups), "s")
    else:
        metrics = {}
    summary = {"ops": attempted, "failed": failed, "known_defect": known,
               "fail_ratio": (failed + known) / attempted,
               "cycles": len(cycles), "run_wall_s": now() - start}
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return result, summary, lines


def write_spans(wl, seed, ops):
    """Spans of the traced cycle, times relative to each child's spawn."""
    out = {}
    for op in ops:
        st = op.cmd.stats
        base = st.get("setup_end", 0.0) - op.cmd.setup
        out[op.label] = [{"name": n, "start": s - base, "end": e - base,
                          "parent": p} for n, s, e, p in st.get("spans", ())]
    path = os.path.join(SCRATCH, "trace-%s-%d.json" % (wl, seed))
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # a terminated run still kills and reaps its child and cleans up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.exists(os.path.join(ROOT, "src", "relsynth", "cli.py")):
        sys.exit("perfbench: no relsynth sources under %s/src" % ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    print("env: " + environment())
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = []
    for wl in names:
        result, summary, lines = run_workload(wl, args.seed, args.seconds,
                                              bool(args.trace))
        for line in lines:
            print(line)
        results.append((wl, result, summary))
    print_table(results)
    if args.workload:
        print(json.dumps(results[0][1]))


COUNTS = ("ops", "failed", "known_defect", "fail_ratio", "cycles",
          "run_wall_s")


def print_table(results):
    """End-to-end metrics: one row per workload.  Per-layer metrics: one
    row per metric, one column per workload."""
    keys = []
    for _, r, _ in results:
        keys.extend(k for k in r["metrics"] if k not in keys)
    units = {k: r["metrics"][k]["unit"] for _, r, _ in results
             for k in r["metrics"]}

    def cell(r, k):
        return "%.6g" % r["metrics"][k]["value"] if k in r["metrics"] \
            else "-"

    if set(keys) <= {name for name, _ in END_TO_END}:
        rows = [["workload"] + ["%s [%s]" % (k, units[k]) for k in keys]
                + list(COUNTS)]
        for wl, r, summary in results:
            rows.append([wl] + [cell(r, k) for k in keys]
                        + ["%.4g" % summary[k] for k in COUNTS])
    else:
        rows = [["metric [unit]"] + [wl for wl, _, _ in results]]
        rows += [["%s [%s]" % (k, units[k])] + [cell(r, k)
                                                 for _, r, _ in results]
                 for k in keys]
        rows += [[k] + ["%.4g" % summary[k] for _, _, summary in results]
                 for k in COUNTS]
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(c.ljust(w) if i == 0 else c.rjust(w)
                        for i, (c, w) in enumerate(zip(row, widths))))


if __name__ == "__main__":
    main()
