"""One relsynth command in its own process, timed from the inside.

    python3 perfbench/child.py STATS MODE -- RELSYNTH-ARGS...

MODE is `run` (time setup only), `setup` (stop as soon as setup ends)
or `trace` (also time the calls into every layer).  The child imports
relsynth from the checkout's `src/`, runs `relsynth.cli.main` on the
arguments and writes a JSON stats file to STATS when it ends.

Timestamps come from CLOCK_MONOTONIC, which every process on the host
shares, so the parent can subtract its spawn time from the child's
`setup_end`.  The only wrapper in `run` mode is around `build_system`
(to stamp the end of setup) and `BDD.sweep` (to read the store size
before nodes are freed); both run a handful of times per command.

In `trace` mode the wrappers below record, for each layer:
- coarse calls (setup, traverse, save/load, the solver, coarsening) as
  spans with name, start, end and parent, kept in memory;
- kernel and range-encoding calls, which number in the millions, as
  per-name aggregates (calls, inclusive and self seconds) under the same
  self-time rule, since one span per call would cost more memory than
  the program under test.
A call's self time is its duration minus the time of the traced calls
it makes.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised in `setup` mode once setup has been timed."""


class Tracer:
    """Spans and aggregates of the calls made through `wrap`."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.agg = {}       # name -> [calls, seconds, self seconds]
        self.stack = []     # [child seconds, span index or None]
        self.counts = {}

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name, fn, span=False):
        """`fn` timed under `name`; `name` may be a function of the args."""
        stack, agg, spans = self.stack, self.agg, self.spans

        def traced(*args, **kw):
            key = name(*args, **kw) if callable(name) else name
            parent = -1
            for frame in reversed(stack):
                if frame[1] is not None:
                    parent = frame[1]
                    break
            idx = None
            if span:
                idx = len(spans)
                spans.append([key, 0.0, 0.0, parent])
            frame = [0.0, idx]
            stack.append(frame)
            t0 = now()
            try:
                return fn(*args, **kw)
            finally:
                t1 = now()
                stack.pop()
                dur = t1 - t0
                a = agg.get(key)
                if a is None:
                    a = agg[key] = [0, 0.0, 0.0]
                a[0] += 1
                a[1] += dur
                a[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return traced


_BDD_OPS = ("implies", "exists", "forall", "and_exists", "implies_forall",
            "rename", "sat_count", "sat_runs", "node_count", "to_text",
            "from_text")


def install_tracer(tr, cli, state):
    """Wrap the public calls into each layer of relsynth."""
    import relsynth.abstraction as abstraction
    import relsynth.games as games
    from relsynth.bdd import BDD

    node_count = BDD.node_count  # untraced, for the tracer's own use

    # bdd: kernels, with node creation counted at the outermost call
    depth = [0]

    def kernel(name, fn):
        timed = tr.wrap(name, fn)

        def counted(m, *args, **kw):
            if depth[0]:
                return timed(m, *args, **kw)
            depth[0] = 1
            before = m.size
            try:
                return timed(m, *args, **kw)
            finally:
                depth[0] = 0
                tr.add("bdd.nodes_created", m.size - before)
        return counted

    BDD.apply = kernel(lambda m, op, *a, **k: "bdd." + op.lower(),
                       BDD.apply)
    for op in _BDD_OPS:
        setattr(BDD, op, kernel("bdd." + op, getattr(BDD, op)))
    sweep = tr.wrap("bdd.sweep", BDD.sweep)

    def traced_sweep(m, *args, **kw):
        live, freed = sweep(m, *args, **kw)
        tr.add("bdd.sweep.freed", freed)
        return live, freed
    BDD.sweep = traced_sweep

    # games: cpre steps keyed by output block, control projection
    impall = BDD.implies_forall
    cpre = tr.wrap(lambda m, names, f, g:
                   "games.cpre.%s" % names[0].split("+")[0],
                   impall, span=True)

    def cpre_step(m, names, f, g):
        if not state["solving"]:
            return impall(m, names, f, g)
        before = m.size
        try:
            return cpre(m, names, f, g)
        finally:
            tr.add("games.cpre.%s.nodes_created" % names[0].split("+")[0],
                   m.size - before)
    BDD.implies_forall = cpre_step
    exists = BDD.exists
    project = tr.wrap("games.project", exists)

    def project_step(m, names, f):
        if state["solving"] and set(names) == state["controls"]:
            return project(m, names, f)
        return exists(m, names, f)
    BDD.exists = project_step

    coarsen = tr.wrap("games.coarsen", games.greedy_coarsen, span=True)

    def traced_coarsen(game, z, threshold):
        z, events = coarsen(game, z, threshold)
        tr.add("games.coarsen.events", events)
        return z, events
    games.greedy_coarsen = traced_coarsen
    games.coarsen_component = tr.wrap("games.coarsen_component",
                                      games.coarsen_component, span=True)
    for solver in ("solve", "downsample_schedule"):
        timed = tr.wrap("games.solve", getattr(cli, solver), span=True)

        def solving(*args, _timed=timed, **kw):
            state["solving"] = True
            try:
                return _timed(*args, **kw)
            finally:
                state["solving"] = False
                state["solver_end"] = now()
        setattr(cli, solver, solving)

    # spaces: the range encoders, where abstraction looks them up
    for name in ("code_range", "encode_set"):
        setattr(abstraction, name,
                tr.wrap("spaces." + name, getattr(abstraction, name)))

    # abstraction: traverse per component, with its accepted samples
    traverse = tr.wrap(lambda comp, plan, enc:
                       "abstraction.%s.traverse" % comp.name,
                       cli.traverse, span=True)

    def traced_traverse(comp, plan, enc):
        key = "abstraction.%s" % comp.name
        implies = tr.agg.get("bdd.implies", [0])[0]
        f = traverse(comp, plan, enc)
        tr.add(key + ".accepted", tr.agg.get("bdd.implies", [0])[0] - implies)
        tr.add(key + ".samples", plan_samples(comp, plan, enc))
        tr.add(key + ".nodes", node_count(enc.m, f.pred))
        return f
    cli.traverse = traced_traverse

    # interfaces: persistence, with the bytes moved
    save = tr.wrap("interfaces.save", cli.save_interface, span=True)
    load = tr.wrap("interfaces.load", cli.load_interface, span=True)

    def traced_save(f, stream, meta=None):
        start = stream.tell()
        save(f, stream, meta)
        tr.add("interfaces.bytes", stream.tell() - start)

    def traced_load(m, stream):
        out = load(m, stream)
        tr.add("interfaces.bytes", stream.tell())
        return out
    cli.save_interface, cli.load_interface = traced_save, traced_load

    # cli: configuration and command bodies
    cli.load_config = tr.wrap("cli.load_config", cli.load_config, span=True)
    for cmd in ("cmd_abstract", "cmd_solve"):
        setattr(cli, cmd, tr.wrap("cli." + cmd, getattr(cli, cmd),
                                  span=True))


def plan_samples(comp, plan, enc):
    """Boxes the plan draws for one component."""
    count = getattr(plan, "count", None)
    if count is not None:
        return count
    n = 1
    for name in comp.input_names():
        d = enc.dims[name]
        if d.is_discrete:
            n *= len(d.values)
        else:
            n *= 1 << (getattr(plan, "bits", None) or {}).get(
                name, comp.view_bits(d))
    return n


def main():
    stats_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import relsynth.cli as cli
    from relsynth.bdd import BDD
    if not os.path.abspath(cli.__file__).startswith(ROOT + os.sep):
        sys.exit("relsynth was not imported from this checkout")

    stats = {"mode": mode, "sweep_peaks": []}
    state = {"solving": False}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install_tracer(tracer, cli, state)

    build = cli.build_system
    if tracer is not None:
        build = tracer.wrap("cli.build_system", build, span=True)

    def build_system(cfg):
        enc, comps = build(cfg)
        stats["setup_end"] = now()
        state["m"] = enc.m
        state["controls"] = set(enc.all_control_vars)
        if mode == "setup":
            raise SetupDone
        return enc, comps
    cli.build_system = build_system

    sweep = BDD.sweep

    def sweep_peak(m, *args, **kw):
        stats["sweep_peaks"].append(m.size)
        return sweep(m, *args, **kw)
    BDD.sweep = sweep_peak

    code = 1
    try:
        code = cli.main(argv)
    except SetupDone:
        code = 0
    finally:
        m = state.get("m")
        if m is not None:
            stats["store_final"] = m.size
            stats["store_peak"] = max(stats["sweep_peaks"] + [m.size])
        if tracer is not None:
            stats["solver_end"] = state.get("solver_end")
            stats["spans"] = tracer.spans
            stats["agg"] = tracer.agg
            stats["counts"] = tracer.counts
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
