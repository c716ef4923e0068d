"""Game solver checks against enumeration oracles and hand examples."""

import random

import pytest

import relsynth.games as games
from relsynth.abstraction import Exhaustive, traverse
from relsynth.bdd import BddError
from relsynth.cli import DEFAULTS, build_goal, build_system
from relsynth.games import (Game, coarsen_component, cpre,
                            downsample_schedule, greedy_coarsen, solve)
from relsynth.interfaces import Interface, comp, ihide, is_refinement, ohide, sink
from relsynth.spaces import Dimension, Encoding
from util import assignments, rand_pred


def idx_cube(m, bit_vars, idx):
    """Minterm of `idx` over an msb-first bit vector."""
    asg = {v: bool((idx >> (len(bit_vars) - 1 - k)) & 1)
           for k, v in enumerate(bit_vars)}
    return m.cube(asg)


def cells_pred(enc, name, cells):
    m = enc.m
    f = m.false
    for c in cells:
        f = m.apply("or", f, idx_cube(m, enc.state_vars(name), c))
    return f


def table_component(enc, rule):
    """Single-state-dim dynamics from `rule(x_idx, u_idx) -> next idxs`.

    The encoding must have exactly one state dimension and one control
    dimension; every index of either grid is visited.
    """
    m = enc.m
    (sd,) = enc.state_dims
    (cd,) = enc.control_dims
    xv, nv, uv = (enc.state_vars(sd.name), enc.next_vars(sd.name),
                  enc.control_vars(cd.name))
    pred = m.false
    for x in range(sd.cells):
        for u in range(cd.cells):
            nxt = m.false
            for n in rule(x, u):
                nxt = m.apply("or", nxt, idx_cube(m, nv, n))
            here = m.apply("and", idx_cube(m, xv, x), idx_cube(m, uv, u))
            pred = m.apply("or", pred, m.apply("and", here, nxt))
    return Interface(m, xv + uv, nv, pred)


def identity_component(enc):
    """All state dimensions copied to their next-state blocks."""
    m = enc.m
    pred = m.true
    for d in enc.state_dims:
        for c, n in zip(enc.state_vars(d.name), enc.next_vars(d.name)):
            eq = m.apply("not", m.apply("xor", m.var(c), m.var(n)))
            pred = m.apply("and", pred, eq)
    ins = enc.all_state_vars + enc.all_control_vars
    return Interface(m, ins, enc.all_next_vars, pred)


def cpre_oracle(enc, comps, z):
    """Controlled predecessors by exhaustive enumeration."""
    m = enc.m
    xs, us, ns = (enc.all_state_vars, enc.all_control_vars,
                  enc.all_next_vars)
    udom = enc.control_domain()
    win = m.false
    for xa in assignments(xs):
        ok = False
        for ua in assignments(us):
            if not m.eval(udom, ua):
                continue
            seen, inside = False, True
            for na in assignments(ns):
                full = {**xa, **ua, **na}
                if all(m.eval(f.pred, full) for f in comps):
                    seen = True
                    cur = {enc.unprime_map[k]: v for k, v in na.items()}
                    if not m.eval(z, cur):
                        inside = False
                        break
            if seen and inside:
                ok = True
                break
        if ok:
            win = m.apply("or", win, m.cube(xa))
    return win


def small_encoding():
    return Encoding(
        [Dimension.continuous("px", 0.0, 4.0, 2),
         Dimension.continuous("py", 0.0, 4.0, 2)],
        [Dimension.continuous("u", 0.0, 2.0, 1)])


def counter_encoding(bits=3):
    return Encoding([Dimension.continuous("px", 0.0, 1.0, bits)],
                    [Dimension.discrete("u", (0.0, 1.0))])


def test_cpre_hand_example():
    enc = Encoding([Dimension.continuous("px", 0.0, 2.0, 1)],
                   [Dimension.continuous("u", 0.0, 2.0, 1)])
    m = enc.m
    f = table_component(enc, lambda x, u: [x & u])
    game = Game(enc, [f], "reach", m.false)
    one = idx_cube(m, enc.state_vars("px"), 1)
    assert cpre(game, one) == one
    assert cpre(game, m.true) == m.true
    assert cpre(game, m.false) == m.false


def test_cpre_equals_pipeline_and_direct_form():
    rng = random.Random(73)
    for _ in range(25):
        enc = small_encoding()
        m = enc.m
        xs, us, ns = (enc.all_state_vars, enc.all_control_vars,
                      enc.all_next_vars)
        f1 = Interface(m, xs + us, enc.next_vars("px"),
                       rand_pred(m, rng, xs + us + enc.next_vars("px"), 10))
        f2 = Interface(m, xs + us, enc.next_vars("py"),
                       rand_pred(m, rng, xs + us + enc.next_vars("py"), 10))
        z = rand_pred(m, rng, xs, 8)
        game = Game(enc, [f1, f2], "reach", z)
        got = cpre(game, z)

        # hide-compose pipeline on the composed dynamics
        zp = m.rename(z, enc.prime_map)
        whole = comp(f1, f2)
        piped = ihide(us, ohide(ns, comp(whole, sink(m, ns, zp))))
        assert piped.pred == got

        # one-shot quantification over the conjoined relation
        fpred = m.apply("and", f1.pred, f2.pred)
        direct = m.exists(us, m.apply(
            "and", m.exists(ns, fpred),
            m.forall(ns, m.apply("implies", fpred, zp))))
        assert direct == got

        assert cpre_oracle(enc, [f1, f2], z) == got


def test_cpre_component_order_is_irrelevant():
    rng = random.Random(74)
    for _ in range(15):
        enc = small_encoding()
        m = enc.m
        xs, us = enc.all_state_vars, enc.all_control_vars
        f1 = Interface(m, xs + us, enc.next_vars("px"),
                       rand_pred(m, rng, xs + us + enc.next_vars("px"), 9))
        f2 = Interface(m, xs + us, enc.next_vars("py"),
                       rand_pred(m, rng, xs + us + enc.next_vars("py"), 9))
        z = rand_pred(m, rng, xs, 8)
        a = cpre(Game(enc, [f1, f2], "reach", z), z)
        b = cpre(Game(enc, [f2, f1], "reach", z), z)
        c = cpre(Game(enc, [comp(f1, f2)], "reach", z), z)
        assert a == b == c


def test_cpre_monotone_in_target():
    rng = random.Random(75)
    enc = small_encoding()
    m = enc.m
    xs, us = enc.all_state_vars, enc.all_control_vars
    f = Interface(m, xs + us, enc.all_next_vars,
                  rand_pred(m, rng, xs + us + enc.all_next_vars, 14))
    game = Game(enc, [f], "reach", m.false)
    for _ in range(20):
        z1 = rand_pred(m, rng, xs, 8)
        z2 = m.apply("or", z1, rand_pred(m, rng, xs, 8))
        assert m.leq(cpre(game, z1), cpre(game, z2))


def test_cpre_shrinks_under_component_abstraction():
    rng = random.Random(76)
    for _ in range(10):
        enc = small_encoding()
        m = enc.m
        xs, us = enc.all_state_vars, enc.all_control_vars
        f = Interface(m, xs + us, enc.all_next_vars,
                      rand_pred(m, rng, xs + us + enc.all_next_vars, 14))
        game = Game(enc, [f], "reach", m.false)
        fc = coarsen_component(game, f, {"px": 1})
        assert is_refinement(fc, f)
        coarse_game = Game(enc, [fc], "reach", m.false)
        z = rand_pred(m, rng, xs, 8)
        assert m.leq(cpre(coarse_game, z), cpre(game, z))


def test_reach_identity_dynamics():
    enc = small_encoding()
    m = enc.m
    f = identity_component(enc)
    goal = m.apply("and", m.nvar("px_0"), m.nvar("py_0"))
    res = solve(Game(enc, [f], "reach", goal))
    assert res.winning.pred == goal
    assert res.trace.stop_reason == "fixed_point"
    assert res.iterations == 2
    assert ihide(enc.all_control_vars, res.controller).pred == goal


def test_reach_counter_fills_up_monotonically():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [max(x - 1, 0)])
    goal = cells_pred(enc, "px", [0])
    game = Game(enc, [f], "reach", goal)
    res = solve(game)
    assert res.winning.pred == m.true
    assert res.trace.stop_reason == "fixed_point"
    assert res.iterations == 9
    states = [r.states for r in res.trace.rows]
    assert states == [1, 2, 3, 4, 5, 6, 7, 8, 8]
    # a solve stopped on its budget returns its last iterate
    iterates = [solve(game, max_iters=k).winning.pred for k in range(1, 10)]
    for prev, cur in zip(iterates, iterates[1:]):
        assert m.leq(prev, cur)


def test_reach_respects_demonic_nondeterminism():
    enc = counter_encoding(3)
    m = enc.m
    # successor set ignores the control entirely
    f = table_component(enc, lambda x, u: {x, max(x - 1, 0)})
    goal = cells_pred(enc, "px", [0])
    res = solve(Game(enc, [f], "reach", goal))
    assert res.winning.pred == goal


def test_reach_controller_certifies_one_step():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [x] if u == 0 else [max(x - 1, 0)])
    goal = cells_pred(enc, "px", [0])
    res = solve(Game(enc, [f], "reach", goal))
    assert res.winning.pred == m.true
    c = res.controller.pred
    assert ihide(enc.all_control_vars, res.controller).pred == \
        cpre(Game(enc, [f], "reach", goal), res.winning.pred)
    # controller pairs are nonblocking and keep successors winning
    assert m.leq(c, m.exists(enc.all_next_vars, f.pred))
    zp = m.rename(res.winning.pred, enc.prime_map)
    assert m.leq(m.apply("and", c, f.pred), zp)


def test_safe_identity_keeps_everything():
    enc = small_encoding()
    m = enc.m
    f = identity_component(enc)
    safe = m.apply("or", m.var("px_0"), m.var("py_1"))
    res = solve(Game(enc, [f], "safe", safe))
    assert res.winning.pred == safe
    assert res.trace.stop_reason == "fixed_point"
    assert res.iterations == 1


def test_safe_drift_empties_strict_band():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [max(x - 1, 0)])
    res = solve(Game(enc, [f], "safe", cells_pred(enc, "px", range(2, 8))))
    assert res.winning.pred == m.false
    assert res.trace.stop_reason == "fixed_point"
    assert res.iterations == 7
    res = solve(Game(enc, [f], "safe", m.true))
    assert res.winning.pred == m.true


def test_solve_budget_stops():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [max(x - 1, 0)])
    goal = cells_pred(enc, "px", [0])
    us = enc.all_control_vars
    reach = Game(enc, [f], "reach", goal)
    res = solve(reach, max_iters=3)
    assert res.trace.stop_reason == "budget"
    assert res.iterations == 3
    assert res.winning.pred == cells_pred(enc, "px", [0, 1, 2])
    assert ihide(us, res.controller).pred == cpre(reach, res.winning.pred)
    res = solve(reach, max_iters=0)
    assert res.trace.stop_reason == "budget"
    assert res.iterations == 0
    assert res.winning.pred == m.false
    assert ihide(us, res.controller).pred == cpre(reach, res.winning.pred)
    safe = Game(enc, [f], "safe", goal)
    res = solve(safe, max_iters=0)
    assert res.winning.pred == goal
    assert ihide(us, res.controller).pred == cpre(safe, res.winning.pred)


def trivial_game(enc):
    return Game(enc, [identity_component(enc)], "reach", enc.m.false)


def test_greedy_coarsen_leaves_small_sets_alone():
    enc = small_encoding()
    m = enc.m
    game = trivial_game(enc)
    z = m.apply("and", m.nvar("px_0"), m.nvar("py_0"))
    out, events = greedy_coarsen(game, z, m.node_count(z))
    assert out == z and events == 0


def test_greedy_coarsen_exhausts_support():
    enc = small_encoding()
    m = enc.m
    game = trivial_game(enc)
    out, events = greedy_coarsen(game, m.true, -1)
    assert out == m.true and events == 0
    out, events = greedy_coarsen(game, m.false, -1)
    assert out == m.false and events == 0


def test_greedy_coarsen_picks_cheapest_dimension():
    enc = small_encoding()
    m = enc.m
    game = trivial_game(enc)
    z = m.apply("and", cells_pred(enc, "px", [0, 1, 2]),
                cells_pred(enc, "py", [0, 1]))
    assert m.node_count(z) == 3
    out, events = greedy_coarsen(game, z, 2)
    assert events == 1
    # dropping px's low bit loses one cell; dropping py's bit loses all
    assert out == m.apply("and", m.nvar("px_0"), m.nvar("py_0"))


def test_greedy_coarsen_breaks_ties_on_first_dimension():
    enc = small_encoding()
    m = enc.m
    game = trivial_game(enc)
    z = m.apply("or", m.nvar("px_0"), m.nvar("py_0"))
    out, events = greedy_coarsen(game, z, 1)
    assert events == 1
    assert out == m.nvar("py_0")
    # a reach game takes no step that drops a goal state; a safe game's
    # goal filters nothing
    goal = m.apply("and", cells_pred(enc, "px", [0]),
                   cells_pred(enc, "py", [2]))
    f = identity_component(enc)
    out, events = greedy_coarsen(Game(enc, [f], "reach", goal), z, 1)
    assert (out, events) == (m.nvar("px_0"), 1)
    out, events = greedy_coarsen(Game(enc, [f], "safe", goal), z, 1)
    assert (out, events) == (m.nvar("py_0"), 1)


def test_coarsened_vehicle_reach_keeps_its_goal():
    """At 3 bits a threshold of 8 nodes is below the goal's own size;
    coarsening once emptied the first iterate and the solve stopped with
    an empty basin, reported as a fixed point."""
    cfg = dict(DEFAULTS, bits=3)
    enc, comps = build_system(cfg)
    m = enc.m
    parts = [traverse(c, Exhaustive(), enc) for c in comps]
    goal = build_goal(cfg, enc)
    res = solve(Game(enc, parts, "reach", goal), coarsen_threshold=8)
    assert m.leq(goal, res.winning.pred)
    assert enc.count_states(res.winning.pred) == enc.count_states(goal) == 32
    assert (res.iterations, res.trace.stop_reason) == (2, "fixed_point")


def test_greedy_coarsen_result_is_subset():
    rng = random.Random(78)
    enc = small_encoding()
    m = enc.m
    game = trivial_game(enc)
    for _ in range(20):
        z = rand_pred(m, rng, enc.all_state_vars, 10)
        out, _ = greedy_coarsen(game, z, 1)
        assert m.leq(out, z)
        assert m.node_count(out) <= 1 or not (
            set(m.support(out)) & set(enc.all_state_vars))


def test_solve_with_coarsening_stays_inside_exact_basin():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [max(x - 1, 0)])
    # a coarsened row meets the threshold unless that needs dropping a
    # goal state: cells 0-3 are one node, cells 0-1 two
    for cells, cap in (([0, 1, 2, 3], 1), ([0, 1], 2)):
        goal = cells_pred(enc, "px", cells)
        exact = solve(Game(enc, [f], "reach", goal))
        coarse = solve(Game(enc, [f], "reach", goal), coarsen_threshold=1)
        assert m.leq(coarse.winning.pred, exact.winning.pred)
        assert coarse.winning.pred == goal
        assert any(row.coarsen_events for row in coarse.trace.rows)
        for row in coarse.trace.rows:
            if row.coarsen_events:
                assert row.nodes <= cap


def test_solve_with_coarsening_stops_on_cycle():
    # from the goal {6, 7} the iteration adds cell 5, then cell 2; cells
    # 2, 5, 6 and 7 take five nodes, and coarsening them to a threshold
    # of 3 gives back the goal, an earlier iterate.  Without the cycle
    # stop it runs until the budget
    enc = counter_encoding(3)
    m = enc.m
    xs, us = enc.all_state_vars, enc.all_control_vars
    f = table_component(enc, lambda x, u: [{2: 5, 5: 6}.get(x, x)])
    goal = cells_pred(enc, "px", [6, 7])
    game = Game(enc, [f], "reach", goal)
    res = solve(game, max_iters=40, coarsen_threshold=3)
    assert res.trace.stop_reason == "cycle"
    assert [r.states for r in res.trace.rows] == [2, 3, 2]
    assert res.winning.pred == goal
    assert m.leq(res.winning.pred, solve(game).winning.pred)
    last = res.trace.rows[-1]
    assert (last.nodes, last.states) == (m.node_count(res.winning.pred),
                                         m.sat_count(res.winning.pred, xs))
    assert ihide(us, res.controller).pred == cpre(game, res.winning.pred)


def test_coarsen_component_full_level_is_identity():
    rng = random.Random(79)
    enc = small_encoding()
    m = enc.m
    xs, us = enc.all_state_vars, enc.all_control_vars
    f = Interface(m, xs + us, enc.all_next_vars,
                  rand_pred(m, rng, xs + us + enc.all_next_vars, 12))
    game = Game(enc, [f], "reach", m.false)
    same = coarsen_component(game, f, {})
    assert same.pred == f.pred
    with pytest.raises(BddError):
        coarsen_component(game, f, {"pz": 1})
    with pytest.raises(BddError):
        coarsen_component(game, f, {"px": 3})


def test_coarsen_component_drops_low_bits():
    rng = random.Random(80)
    for _ in range(10):
        enc = small_encoding()
        m = enc.m
        xs, us = enc.all_state_vars, enc.all_control_vars
        f = Interface(m, xs + us, enc.all_next_vars,
                      rand_pred(m, rng, xs + us + enc.all_next_vars, 14))
        game = Game(enc, [f], "reach", m.false)
        fc = coarsen_component(game, f, {"px": 1, "py": 0})
        assert is_refinement(fc, f)
        dropped = {"px_1", "px+_1", "py_0", "py_1", "py+_0", "py+_1"}
        assert not (m.support(fc.pred) & dropped)


def test_downsample_schedule_matches_plain_solve():
    enc = counter_encoding(3)
    m = enc.m
    f = table_component(enc, lambda x, u: [x] if u == 0 else [max(x - 1, 0)])
    goal = cells_pred(enc, "px", [0])
    game = Game(enc, [f], "reach", goal)
    plain = solve(game)
    staged = downsample_schedule(game, [1, 2, {}])
    assert staged.winning.pred == plain.winning.pred
    assert staged.controller.pred == plain.controller.pred
    assert staged.trace.stop_reason == "fixed_point"
    clipped = downsample_schedule(game, [1, 2, {}], max_iters=2)
    assert clipped.trace.stop_reason == "budget"
    with pytest.raises(BddError):
        downsample_schedule(Game(enc, [f], "safe", goal), [{}])
    with pytest.raises(BddError):
        downsample_schedule(game, [])


def test_solve_results_do_not_depend_on_sweeps(monkeypatch):
    """A solve frees only nodes that its game, its iterates and the
    protected handles do not reach, so sweeping after every iteration
    leaves every result as it is."""
    enc, comps = build_system(dict(DEFAULTS, bits=4))
    m = enc.m
    parts = [traverse(c, Exhaustive(), enc) for c in comps]
    target = m.protect(enc.state_box({"px": (-0.5, 0.5), "py": (-0.5, 0.5)}))
    safe = m.protect(enc.state_box({"px": (-1.5, 1.5), "py": (-1.5, 1.5)}))

    def results():
        reach = Game(enc, parts, "reach", target)
        return [solve(reach), solve(Game(enc, parts, "safe", safe)),
                solve(reach, coarsen_threshold=60),
                downsample_schedule(reach, [2, 3, {}])]

    sweeps = []
    sweep = m.sweep
    monkeypatch.setattr(m, "sweep", lambda roots: sweeps.append(1)
                        or sweep(roots))
    monkeypatch.setattr(games, "SWEEP_SLACK", 0)
    swept = results()
    assert len(sweeps) > 4
    monkeypatch.undo()
    for a, b in zip(swept, results()):
        assert a.winning.pred == b.winning.pred
        assert a.controller.pred == b.controller.pred
        assert [r.states for r in a.trace.rows] == \
            [r.states for r in b.trace.rows]


def test_sweeps_keep_only_the_current_level(monkeypatch):
    """Sweeping after every step, a schedule hands each sweep only the
    current level's iterates and the handles of `game` and of the level's
    own game: no earlier level's iterate and no cpre stage."""
    enc, comps = build_system(dict(DEFAULTS, bits=4))
    m = enc.m
    parts = [traverse(c, Exhaustive(), enc) for c in comps]
    target = m.protect(enc.state_box({"px": (-0.5, 0.5), "py": (-0.5, 0.5)}))
    reach = Game(enc, parts, "reach", target)
    steps, sweeps = [], []  # (level, iterate); (steps before, roots)
    stage, sweep = games._cpre_stage, m.sweep
    monkeypatch.setattr(games, "_cpre_stage", lambda sub, z: steps.append(
        (sub, z)) or stage(sub, z))
    monkeypatch.setattr(m, "sweep", lambda roots: sweeps.append(
        (len(steps), set(roots))) or sweep(roots))
    monkeypatch.setattr(games, "SWEEP_SLACK", 0)
    downsample_schedule(reach, [2, 3, {}])
    for n, roots in sweeps:
        # the step after a sweep reads the iterate the sweep kept
        sub = steps[n][0]
        iterates = {z for level, z in steps[:n + 1] if level is sub}
        assert roots <= iterates | set(reach.roots()) | set(sub.roots())
    # the last level sweeps, with two levels' iterates before it
    levels = list(dict.fromkeys(sub for sub, _ in steps))
    assert len(levels) == 3 and steps[sweeps[-1][0]][0] is levels[-1]


def test_game_validation():
    enc = small_encoding()
    m = enc.m
    f = identity_component(enc)
    with pytest.raises(BddError):
        Game(enc, [f], "chase", m.false)
    with pytest.raises(BddError):
        Game(enc, [f, f], "reach", m.false)  # outputs collide
    only_px = Interface(m, enc.all_state_vars, enc.next_vars("px"),
                        m.exists(enc.next_vars("py"), f.pred))
    with pytest.raises(BddError):
        Game(enc, [only_px], "reach", m.false)  # py+ uncovered
    with pytest.raises(BddError):
        Game(enc, [f], "reach", m.var("px+_0"))  # goal over next bits
    bad_in = Interface(m, enc.all_state_vars + ["px+_0"],
                       enc.next_vars("py"), m.true)
    with pytest.raises(BddError):
        Game(enc, [bad_in, only_px], "reach", m.false)

