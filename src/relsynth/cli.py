"""Command-line front end: abstract, solve, experiment.

Configuration comes from one YAML file; command-line flags override the
handful of knobs that vary between runs (seed, output directory,
iteration budget, coarsening threshold).  One table holds each key's
default and its check, with a small table per nested mapping, and one
walker checks and fills every level.  Every run writes `config.yaml`
— the fully resolved configuration plus the tool version — next to its
results, so an output directory is self-describing and a run can be
repeated byte-for-byte from it (timing columns excepted); reading it
back ignores the version.

Exit codes: 0 success, 2 configuration or input error, 3 node store
exhausted or out of memory.  A command creates its output directory
only after its work has succeeded, so a failed run leaves none behind.
"""

import argparse
import logging
import math
import os
import sys
import time

import yaml

from relsynth import __version__
from relsynth.abstraction import (DUBINS_LENGTH, DynamicsComponent,
                                  Exhaustive, RandomRects, ShiftedGrids,
                                  dubins_components, traverse)
from relsynth.bdd import BddError, CapacityError, OrderError
from relsynth.games import Game, downsample_schedule, solve
from relsynth.interfaces import comp, load_interface, save_interface
from relsynth.spaces import Dimension, Encoding, _finite


class ConfigError(Exception):
    """Configuration that fails validation; exits with status 2."""


# -- configuration ----------------------------------------------------------
#
# Each table maps a key to its default and its check.  A check takes the
# value and the key's name and returns the value, with the defaults of a
# nested mapping filled in, or raises ConfigError.  The library checks
# the fields it owns (node cap, dimension fields, plan and view ranges),
# and the configuration maps its BddError to ConfigError.

def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(mapping, allowed, where):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError("unknown %s key(s): %s"
                          % (where, ", ".join(sorted(unknown))))


def _walk(raw, table, where, fill=True):
    """The mapping `raw` checked against `table`, with the defaults of
    its absent keys filled in if `fill`.  `where` names the mapping
    ("" for the configuration itself)."""
    _require(isinstance(raw, dict),
             "%s must be a mapping" % (where or "config"))
    _check_keys(raw, table, where or "config")
    return {key: check(raw.get(key, dflt), (where + " " + key).lstrip())
            for key, (dflt, check) in table.items() if fill or key in raw}


def _is(pred, what):
    """The check that `pred` holds of a value, which must be `what`."""
    def check(x, name):
        _require(pred(x), "%s must be %s" % (name, what))
        return x
    return check


def _library(x, name):
    """No check here: the library checks this value."""
    return x


def _choice(*names):
    return _is(lambda x: x in names,
               "%s or %s" % (", ".join(names[:-1]), names[-1]))


def _int(lo=-math.inf, hi=math.inf):
    """An integer in lo..hi, and not a boolean (YAML `true` is a Python
    int)."""
    return lambda x: (isinstance(x, int) and not isinstance(x, bool)
                      and lo <= x <= hi)


_ANY_INT, _NONNEG, _BITS = _int(), _int(0), _int(1, 24)


def _opt(pred):
    return lambda x: x is None or pred(x)


def _map(pred):
    """A mapping whose values all satisfy `pred`."""
    return lambda x: isinstance(x, dict) and all(map(pred, x.values()))


def _list(pred, empty=False):
    """A list, nonempty unless `empty`, whose items all satisfy `pred`."""
    return lambda x: (isinstance(x, list) and (empty or x != [])
                      and all(map(pred, x)))


def _table(table, fill=True):
    """The check of a nested mapping: `_walk` against `table`."""
    return lambda x, name: _walk(x, table, name, fill)


def _entries(table):
    """The check of a list of mappings, each checked against `table`
    with no default filled in: the reader fills them."""
    def check(x, name):
        _require(x is None or isinstance(x, list), "%s must be a list" % name)
        for entry in x or ():
            _walk(entry, table, name + " entry", fill=False)
        return x
    return check


def _plan(plan, name, fill=False):
    """A plan checked against the table of its kind (exhaustive if it
    names none).  Only the kind is filled in, unless `fill`: the written
    configuration leaves out the other defaults, and `build_plan` fills
    them."""
    kind = plan.get("kind", "exhaustive") if isinstance(plan, dict) else None
    _require(isinstance(kind, str) and kind in _PLANS,
             "%s must be a mapping with a kind in %s" % (name, sorted(_PLANS)))
    rest = {k: v for k, v in plan.items() if k != "kind"}
    return dict(_walk(rest, _PLANS[kind], name, fill), kind=kind)


_BIT_MAP = _is(_opt(_map(_NONNEG)),
               "a mapping of names to nonnegative integers")

_PLANS = {
    "exhaustive": {"bits": (None, _BIT_MAP)},
    # a plan seed of None is the run's seed
    "random_rects": {"count": (1000, _is(_NONNEG, "a nonnegative integer")),
                     "seed": (None, _is(_opt(_ANY_INT), "an integer"))},
    "shifted_grids": {"sizes": ([4, 5], _is(_list(_int(1)),
                                            "a nonempty list of positive "
                                            "integers"))},
}

_OBJECTIVE = {
    "kind": ("reach", _choice("reach", "safe")),
    "box": ({"px": [-0.5, 0.5], "py": [-0.5, 0.5]},
            _is(_map(lambda iv: isinstance(iv, list) and len(iv) == 2
                     and all(map(_finite, iv))),
                "a mapping of names to [lo, hi] with finite numbers")),
    "encode": ("inner", _choice("inner", "outer")),
}

_SOLVER = {
    "max_iters": (1000000, _is(_NONNEG, "a nonnegative integer")),
    "coarsen_threshold": (None, _is(_opt(_int(1)), "a positive integer")),
    "downsample": (None, _is(_opt(_list(lambda lv: _NONNEG(lv)
                                        or _map(_NONNEG)(lv))),
                             "a nonempty list of levels, each an integer "
                             "or a mapping of names to bits")),
}

# custom grid entries: `Dimension` checks the fields but the bits range
# and that the values come as a list
_DIM = {"name": (None, _library), "lo": (None, _library),
        "hi": (None, _library),
        "bits": (None, _is(_BITS, "an integer in 1..24")),
        "periodic": (False, _library)}
_CONTROL = {"name": (None, _library),
            "values": (None, _is(lambda x: isinstance(x, list), "a list"))}

_EXPERIMENT = {
    "counts": ([500, 1000, 2000, 4000, 8000, 16000, 32000],
               _is(_list(_NONNEG, empty=True),
                   "a list of nonnegative integers")),
}

_KEYS = {
    "system": ("dubins", _choice("dubins", "toy1d", "custom")),
    "bits": (7, _is(lambda x: _BITS(x) or _map(_BITS)(x),
                    "an integer in 1..24 or a mapping of names to such "
                    "integers")),
    "length": (DUBINS_LENGTH, _is(lambda x: _finite(x) and x > 0,
                                  "a positive number")),
    "view": (None, _BIT_MAP),
    "dims": (None, _entries(_DIM)),
    "controls": (None, _entries(_CONTROL)),
    "plan": ({}, _plan),
    "objective": ({}, _table(_OBJECTIVE)),
    "solver": ({}, _table(_SOLVER)),
    "seed": (0, _is(_ANY_INT, "an integer")),
    "cap": (None, _library),
    "out": ("relsynth-out", _is(lambda x: isinstance(x, str) and x != "",
                                "a directory path")),
    "images": (True, _is(lambda x: isinstance(x, bool), "true or false")),
    "experiment": ({}, _table(_EXPERIMENT, fill=False)),
}

DEFAULTS = _walk({}, _KEYS, "")


def load_config(path, overrides=None):
    """Parse, check and default-fill a run configuration.

    `overrides` maps keys of the configuration or of its `solver` to
    values that replace the file's; None leaves the file's value.
    """
    if path is None:
        raw = {}
    else:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as e:
            raise ConfigError("cannot read config: %s" % e)
        except yaml.YAMLError as e:
            raise ConfigError("malformed config: %s" % e)
    _require(isinstance(raw, dict), "config root must be a mapping")
    # a written config.yaml records the tool version, which is no setting
    raw.pop("version", None)
    for key, val in (overrides or {}).items():
        where = raw.setdefault("solver", {}) if key in _SOLVER else raw
        # a solver that is no mapping fails the walk below
        if val is not None and isinstance(where, dict):
            where[key] = val
    cfg = _walk(raw, _KEYS, "")
    if cfg["system"] == "custom":
        _require(cfg["dims"], "a custom system needs a dims list")
    sol = cfg["solver"]
    if sol["downsample"] is not None:
        _require(cfg["objective"]["kind"] == "reach",
                 "solver downsample applies to reach objectives only")
        _require(sol["coarsen_threshold"] is None,
                 "downsample and coarsen_threshold cannot be combined")
    return cfg


def _dim_bits(cfg, name):
    bits = cfg["bits"]
    if isinstance(bits, dict):
        return bits.get(name, DEFAULTS["bits"])
    return bits


def build_system(cfg):
    """Encoding and dynamics components for the configured system.

    Custom systems carry no evaluators; their abstractions must come
    from saved interface files, so the component list is None.  A
    `bits` or `view` map may name only state dimensions of the system,
    and exhaustive plan bits only its dimensions and controls, at most
    a dimension's own bits.

    The vehicle's heading feeds all three components, so its block and
    the controls sit above the position blocks in the variable order;
    the other systems keep the declaration order.
    """
    order = None
    try:
        if cfg["system"] == "dubins":
            dims = [
                Dimension.continuous("px", -2.0, 2.0, _dim_bits(cfg, "px")),
                Dimension.continuous("py", -2.0, 2.0, _dim_bits(cfg, "py")),
                Dimension.continuous("theta", -math.pi, math.pi,
                                     _dim_bits(cfg, "theta"), periodic=True),
            ]
            ctrl = [Dimension.discrete("v", (0.25, 0.5)),
                    Dimension.discrete("omega", (-1.5, 0.0, 1.5))]
            comps = dubins_components(length=cfg["length"], view=cfg["view"])
            order = ("theta", "v", "omega", "px", "py")
        elif cfg["system"] == "toy1d":
            dims = [Dimension.continuous("x", 0.0, 1.0, _dim_bits(cfg, "x"))]
            ctrl = [Dimension.discrete("u", (0.0, 1.0))]
            comps = [DynamicsComponent("hold", ("x",), (), "x",
                                       lambda box: box["x"])]
        else:
            dims = [Dimension.continuous(**_walk(d, _DIM, "dims entry"))
                    for d in cfg["dims"]]
            ctrl = [Dimension.discrete(**_walk(c, _CONTROL, "controls entry"))
                    for c in cfg["controls"] or ()]
            comps = None
        for key in ("bits", "view"):
            if isinstance(cfg[key], dict):
                _check_keys(cfg[key], {d.name for d in dims}, key)
        plan_bits = cfg["plan"].get("bits") or {}
        _check_keys(plan_bits, {d.name for d in dims + ctrl}, "plan bits")
        for d in dims:
            _require(plan_bits.get(d.name, 0) <= d.bits,
                     "plan bits %s must be at most %d" % (d.name, d.bits))
        return Encoding(dims, ctrl, cap=cfg["cap"], level_order=order), comps
    except CapacityError:
        raise
    except BddError as e:
        raise ConfigError(str(e))


def build_plan(cfg):
    plan = _plan(cfg["plan"], "plan", fill=True)
    if plan["kind"] == "exhaustive":
        return Exhaustive(bits=plan["bits"])
    if plan["kind"] == "random_rects":
        seed = cfg["seed"] if plan["seed"] is None else plan["seed"]
        return RandomRects(plan["count"], seed=seed)
    return ShiftedGrids(tuple(plan["sizes"]))


def build_goal(cfg, enc):
    """State predicate for the objective box (unnamed dims stay free)."""
    obj = cfg["objective"]
    box = obj["box"]
    try:
        return enc.state_box({name: tuple(map(float, box[name]))
                              for name in sorted(box)}, obj["encode"])
    except CapacityError:
        raise
    except BddError as e:
        raise ConfigError("objective box: %s" % e)


def _start_output(cfg):
    """Create the output directory, write the resolved `config.yaml`
    (with the tool version) into it and return its path.

    Each command calls this once, after its work has succeeded and just
    before it writes its results, so a run that fails (exit 2 or 3)
    leaves no output directory behind.  A directory that cannot be
    made is a configuration error.
    """
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "config.yaml"), "w") as fh:
            yaml.safe_dump(dict(cfg, version=__version__), fh,
                           sort_keys=True, default_flow_style=False)
    except OSError as e:
        raise ConfigError("cannot write output directory: %s" % e)
    return out


# -- subcommands ------------------------------------------------------------

def cmd_abstract(cfg):
    """Build every dynamics component's interface, then write one
    interface file per component."""
    enc, comps = _setup(cfg, "abstract")
    interfaces, seconds = _build(enc, comps, [build_plan(cfg)] * len(comps))
    out = _start_output(cfg)
    for c, f, build_s in zip(comps, interfaces, seconds):
        meta = {
            "component": c.name,
            "output": c.output,
            "system": cfg["system"],
            "bits": cfg["bits"],
            "plan": cfg["plan"],
            "seed": cfg["seed"],
            "view": cfg["view"],
            "build_seconds": round(build_s, 6),
            "version": __version__,
        }
        path = os.path.join(out, "interface_%s.txt" % c.name)
        with open(path, "w") as fh:
            save_interface(f, fh, meta=meta)
        print("wrote %s (%d nodes, %.2fs)"
              % (path, enc.m.node_count(f.pred), build_s))


def _load_components(enc, paths):
    """The interfaces saved in `paths`.  A file fits the system when its
    variables do: the manager refuses a name it lacks, and the game
    refuses components that leave next-state bits uncovered."""
    m = enc.m
    comps = []
    for path in paths:
        try:
            with open(path) as fh:
                f, _ = load_interface(m, fh)
        except OSError as e:
            raise ConfigError("cannot read interface file: %s" % e)
        except CapacityError:
            raise
        except OrderError:
            raise ConfigError(
                "%s: the file's variable order differs from this system's; "
                "an interface file is tied to the order it was written in, "
                "so re-run `relsynth abstract` to rebuild it" % path)
        except BddError as e:
            raise ConfigError("%s: %s" % (path, e))
        comps.append(f)
    return comps


def _write_csv(path, header, rows):
    """Write a `header` line, then one line per row: floats as `%.6f`,
    every other value through `str`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.6f" % v if isinstance(v, float) else str(v)
                              for v in row) + "\n")


_TRACE_HEADER = "iter,nodes,states,seconds,coarsen_events"


def _trace_rows(trace):
    """The `_TRACE_HEADER` columns of a solve's trace rows."""
    return [(r.iteration, r.nodes, r.states, r.seconds, r.coarsen_events)
            for r in trace.rows]


def _write_slices(enc, runs, out):
    """One binary PGM per heading bin: white = winning (px across,
    py up).

    `runs` are the winning cell runs from `Encoding.cell_runs`, whose
    codes follow the declaration order whatever the BDD order.
    """
    state_names = [d.name for d in enc.state_dims]
    if state_names != ["px", "py", "theta"]:
        return 0
    nx = enc.dims["px"].cells
    ny = enc.dims["py"].cells
    nt = enc.dims["theta"].cells
    # pixel values indexed by cell code, in declaration order: px bits,
    # py bits, theta bits, so the cells (x, y, t) for x = 0, 1, ... are
    # ny * nt apart and each image row is one strided slice
    flat = bytearray(nx * ny * nt)
    for start, length in runs:
        flat[start:start + length] = b"\xff" * length
    for t in range(nt):
        path = os.path.join(out, "slice_theta_%03d.pgm" % t)
        with open(path, "wb") as fh:
            fh.write(b"P5\n# heading bin %d of %d\n%d %d\n255\n"
                     % (t, nt, nx, ny))
            for y in range(ny - 1, -1, -1):
                fh.write(flat[y * nt + t::ny * nt])
    return nt


def _setup(cfg, what):
    """Encoding and dynamics components of the configured system.

    `what` names the run if it samples the dynamics itself, which a
    custom system (no evaluator) cannot do, and is None if it reads
    interface files instead.
    """
    enc, comps = build_system(cfg)
    if what is not None and comps is None:
        raise ConfigError(
            "%s needs a built-in system: custom systems have no evaluator, "
            "so supply interface files to `solve` instead" % what)
    return enc, comps


def _build(enc, comps, plans, keep=()):
    """The interface of each component under its plan, and each build's
    seconds.  The store is swept down to `keep` and the protected
    handles before the first build, and after each build down to those
    and the interfaces built so far, so no build's garbage outlives it.
    A component abstracted to bottom (no sample accepted) is warned of.
    """
    m = enc.m
    m.sweep(keep)
    interfaces, seconds = [], []
    for c, plan in zip(comps, plans):
        t0 = time.perf_counter()
        f = traverse(c, plan, enc)
        seconds.append(time.perf_counter() - t0)
        interfaces.append(f)
        if f.pred == m.false:
            print("warning: component %s abstracted to bottom "
                  "(no samples accepted)" % c.name, file=sys.stderr)
        m.sweep([*keep, *(g.pred for g in interfaces)])
    return interfaces, seconds


def solve_game(cfg, enc, interfaces, goal, **solver):
    """Solve the configured objective with the configured solver.

    Keyword arguments override keys of `cfg["solver"]`.  Returns the
    result, the basin size in state cells and the solve seconds.
    """
    sol = dict(cfg["solver"], **solver)
    game = Game(enc, interfaces, cfg["objective"]["kind"], goal)
    t0 = time.perf_counter()
    if sol["downsample"]:
        res = downsample_schedule(game, sol["downsample"],
                                  max_iters=sol["max_iters"])
    else:
        res = solve(game, max_iters=sol["max_iters"],
                    coarsen_threshold=sol["coarsen_threshold"])
    seconds = time.perf_counter() - t0
    return res, enc.count_states(res.winning.pred), seconds


def cmd_solve(cfg, files=()):
    """Solve the configured game; write winning set, controller, trace."""
    enc, comps = _setup(cfg, None if files else
                        "solve without interface files")
    goal = build_goal(cfg, enc)
    interfaces = (_load_components(enc, files) if files else _build(
        enc, comps, [build_plan(cfg)] * len(comps), [goal])[0])
    res, basin, _ = solve_game(cfg, enc, interfaces, goal)
    goal_states = enc.count_states(goal)
    out = _start_output(cfg)
    _write_csv(os.path.join(out, "trace.csv"), _TRACE_HEADER,
               _trace_rows(res.trace))
    runs = enc.cell_runs(res.winning.pred)
    _write_csv(os.path.join(out, "winning_cells.csv"), "start,length", runs)
    run_meta = {"objective": cfg["objective"]["kind"],
                "basin_states": basin, "goal_states": goal_states,
                "iterations": res.iterations,
                "stop": res.trace.stop_reason, "version": __version__}
    with open(os.path.join(out, "winning.txt"), "w") as fh:
        save_interface(res.winning, fh, meta=run_meta)
    with open(os.path.join(out, "controller.txt"), "w") as fh:
        save_interface(res.controller, fh, meta=run_meta)
    if cfg["images"]:
        _write_slices(enc, runs, out)
    print("%s: basin %d states (goal %d), %d iterations, stop=%s"
          % (cfg["objective"]["kind"], basin, goal_states,
             res.iterations, res.trace.stop_reason))
    return res


# -- experiments ------------------------------------------------------------
#
# Every experiment solves the configured objective with the configured
# solver (`solve_game`); only what it varies differs from `solve`.

def experiment_basin_vs_samples(cfg, enc, comps, goal, counts):
    """Basin growth with random sample count, against the exhaustive
    reference (the rising curve with its upper bound)."""
    runs = [("random", n, [RandomRects(n, seed=cfg["seed"] + i)
                           for i in range(len(comps))]) for n in counts]
    runs.append(("exhaustive", "", [Exhaustive()] * len(comps)))
    rows = []
    results = {}
    for kind, count, plans in runs:
        # the earlier solves protected their results
        interfaces = _build(enc, comps, plans, [goal])[0]
        res, basin, seconds = solve_game(cfg, enc, interfaces, goal)
        rows.append((kind, count, basin,
                     enc.m.node_count(res.winning.pred), seconds))
        results[count if kind == "random" else kind] = res
    return rows, results


_VARIANTS = (
    ("monolithic", (("px", "py", "theta"),)),
    ("fyt_fx", (("py", "theta"), ("px",))),
    ("fxt_fy", (("px", "theta"), ("py",))),
    ("fxy_ft", (("px", "py"), ("theta",))),
    ("decomposed", (("px",), ("py",), ("theta",))),
)


def experiment_decomp_vs_mono(cfg, enc, comps, goal):
    """Solve the same game under every grouping of the components, from
    one monolithic relation to the fully decomposed set."""
    _require({c.name for c in comps} == {"px", "py", "theta"},
             "decomp_vs_mono needs the dubins system")
    built = _build(enc, comps, [build_plan(cfg)] * len(comps), [goal])[0]
    parts = {c.name: f for c, f in zip(comps, built)}
    # a solve frees what its own game does not reach, and the monolithic
    # game reaches none of the parts the later groupings compose
    for f in parts.values():
        enc.m.protect(f.pred)
    rows = []
    results = {}
    for variant, groups in _VARIANTS:
        t0 = time.perf_counter()
        interfaces = []
        for group in groups:
            f = parts[group[0]]
            for name in group[1:]:
                f = comp(f, parts[name])
            interfaces.append(f)
        compose_s = time.perf_counter() - t0
        res, basin, solve_s = solve_game(cfg, enc, interfaces, goal)
        rows.append((variant, basin, enc.m.node_count(res.winning.pred),
                     solve_s, compose_s, res.iterations))
        results[variant] = res
    return rows, results


def experiment_greedy_cap(cfg, enc, comps, goal):
    """Solves with and without the node-count cap; a capped reach basin
    must stay under the exact one."""
    # the capped solve is the configured one with a threshold, which a
    # downsample schedule would ignore
    _require(cfg["solver"]["downsample"] is None,
             "greedy_cap cannot run under a downsample schedule")
    threshold = cfg["solver"]["coarsen_threshold"] or 3000
    interfaces = _build(enc, comps, [build_plan(cfg)] * len(comps), [goal])[0]
    rows = []
    results = {}
    for variant, thr in (("exact", None), ("capped", threshold)):
        res = solve_game(cfg, enc, interfaces, goal,
                         coarsen_threshold=thr)[0]
        results[variant] = res
        rows.extend((variant, *row) for row in _trace_rows(res.trace))
    return rows, results, threshold


# each experiment's function, CSV header and the table of the
# `experiment` keys it reads; the function takes the configuration, the
# encoding, the components and the goal, then those keys by name
EXPERIMENTS = {
    "basin_vs_samples": (experiment_basin_vs_samples,
                         "plan,samples,basin,nodes,seconds", _EXPERIMENT),
    "decomp_vs_mono": (experiment_decomp_vs_mono,
                       "variant,basin,nodes,seconds,compose_seconds,"
                       "iterations", {}),
    "greedy_cap": (experiment_greedy_cap, "variant," + _TRACE_HEADER, {}),
}


def cmd_experiment(name, cfg):
    if name not in EXPERIMENTS:
        raise ConfigError("unknown experiment %r (have: %s)"
                          % (name, ", ".join(sorted(EXPERIMENTS))))
    fn, header, table = EXPERIMENTS[name]
    params = _walk(cfg["experiment"], table, "experiment")
    enc, comps = _setup(cfg, name)
    outcome = fn(cfg, enc, comps, build_goal(cfg, enc), **params)
    rows = outcome[0]
    path = os.path.join(_start_output(cfg), "%s.csv" % name)
    _write_csv(path, header, rows)
    print("wrote %s (%d rows)" % (path, len(rows)))
    return outcome


# -- entry point ------------------------------------------------------------

def _parser():
    p = argparse.ArgumentParser(
        prog="relsynth",
        description="Symbolic controller synthesis from sampled "
                    "finite abstractions.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="YAML run configuration")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (default from config)")
    common.add_argument("--seed", type=int, metavar="N")
    common.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="log lines shown on stderr (default: warning; "
                             "debug shows each build and iteration)")

    pa = sub.add_parser("abstract", parents=[common],
                        help="sample dynamics into interface files")
    ps = sub.add_parser("solve", parents=[common],
                        help="solve the configured game")
    ps.add_argument("files", nargs="*", metavar="INTERFACE",
                    help="abstraction files (default: build per config)")
    ps.add_argument("--max-iters", type=int, metavar="N")
    ps.add_argument("--coarsen-threshold", type=int, metavar="N")
    pe = sub.add_parser("experiment", parents=[common],
                        help="run a named experiment")
    pe.add_argument("name", choices=sorted(EXPERIMENTS))
    pe.add_argument("--max-iters", type=int, metavar="N")
    pe.add_argument("--coarsen-threshold", type=int, metavar="N")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("relsynth").setLevel(args.log_level.upper())
    overrides = {"out": args.out, "seed": args.seed,
                 "max_iters": getattr(args, "max_iters", None),
                 "coarsen_threshold": getattr(args, "coarsen_threshold",
                                              None)}
    try:
        cfg = load_config(args.config, overrides)
        if args.command == "abstract":
            cmd_abstract(cfg)
        elif args.command == "solve":
            cmd_solve(cfg, tuple(args.files))
        else:
            cmd_experiment(args.name, cfg)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except (CapacityError, MemoryError, RecursionError) as e:
        print("resource limit: %s" % e, file=sys.stderr)
        return 3
    except BddError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
