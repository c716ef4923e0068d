"""Abstraction sampler checks against dense numeric oracles."""

import dataclasses
import itertools
import logging
import math
import random

import pytest

from relsynth.abstraction import (DynamicsComponent, Exhaustive, RandomRects,
                                  ShiftedGrids, _plan_blocks,
                                  dubins_components, iadd, icos, imul,
                                  isin, sample_to_interface, traverse)
from relsynth.bdd import BddError
from relsynth.interfaces import Interface, is_refinement, nb, refine
from relsynth.spaces import (Dimension, Encoding, cell_box, cell_range,
                             code_range, encode_set, point_cell)

TWO_PI = 2.0 * math.pi


def idx_assign(bit_vars, idx):
    """Assignment of `idx` over an msb-first bit vector."""
    return {v: bool((idx >> (len(bit_vars) - 1 - k)) & 1)
            for k, v in enumerate(bit_vars)}


def dubins_encoding(bits, cap=None, level_order=None):
    dims = [Dimension.continuous("px", -2.0, 2.0, bits),
            Dimension.continuous("py", -2.0, 2.0, bits),
            Dimension.continuous("theta", -math.pi, math.pi, bits,
                                 periodic=True)]
    ctrl = [Dimension.discrete("v", (0.25, 0.5)),
            Dimension.discrete("omega", (-1.5, 0.0, 1.5))]
    return Encoding(dims, ctrl, cap=cap, level_order=level_order)


def dubins_point_step(name, point, length=1.4):
    """Exact successor of one component at a concrete point."""
    if name == "px":
        return point["px"] + point["v"] * math.cos(point["theta"])
    if name == "py":
        return point["py"] + point["v"] * math.sin(point["theta"])
    nxt = point["theta"] + point["v"] / length * math.sin(point["omega"])
    return -math.pi + (nxt + math.pi) % TWO_PI


def dense_range(fn, lo, hi, n=2001):
    vals = [fn(lo + (hi - lo) * i / (n - 1)) for i in range(n)]
    return min(vals), max(vals)


def rand_box(rng, comp, enc):
    """A random in-domain input box for `comp`."""
    box = {}
    for name in comp.input_names():
        d = enc.dims[name]
        if d.is_discrete:
            box[name] = rng.choice(d.values)
            continue
        a = rng.uniform(d.lo, d.hi)
        b = rng.uniform(d.lo, d.hi)
        box[name] = (min(a, b), max(a, b))
    return box


# -- interval arithmetic ----------------------------------------------------

def test_interval_primitives():
    assert iadd((1.0, 2.0), (-0.5, 3.0)) == (0.5, 5.0)
    assert imul((-1.0, 2.0), (3.0, 4.0)) == (-4.0, 8.0)
    assert imul((-2.0, -1.0), (-3.0, 5.0)) == (-10.0, 6.0)


def test_trig_ranges_examples():
    lo, hi = icos(-0.1, 0.1)
    assert hi == 1.0 and lo == pytest.approx(math.cos(0.1), abs=1e-12)
    lo, hi = isin(-1.5, 1.5)
    assert lo == pytest.approx(math.sin(-1.5), abs=1e-12)
    assert hi == pytest.approx(math.sin(1.5), abs=1e-12)
    assert icos(0.0, 7.0) == (-1.0, 1.0)
    assert icos(3.0, 3.5) == (-1.0, math.cos(3.5))
    assert icos(2.0, 3.0) == (math.cos(3.0), math.cos(2.0))
    assert isin(1.0, 2.0) == (min(math.sin(1.0), math.sin(2.0)), 1.0)


def test_trig_ranges_match_dense_sampling():
    rng = random.Random(4)
    for _ in range(200):
        lo = rng.uniform(-10.0, 10.0)
        hi = lo + rng.uniform(0.0, 8.0)
        for ifn, fn in ((icos, math.cos), (isin, math.sin)):
            got = ifn(lo, hi)
            ref = dense_range(fn, lo, hi)
            assert got[0] <= ref[0] + 1e-12 and ref[1] <= got[1] + 1e-12
            assert got[0] == pytest.approx(ref[0], abs=1e-5)
            assert got[1] == pytest.approx(ref[1], abs=1e-5)


def test_vehicle_interval_examples():
    px, _, theta = (c.evaluator for c in dubins_components())
    out = px({"px": (0.0, 0.03125), "theta": (-math.pi, math.pi),
              "v": 0.5})
    assert out == (-0.5, 0.53125)
    out = px({"px": (0.0, 0.5), "theta": (0.0, math.pi / 2), "v": 0.25})
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == pytest.approx(0.75, abs=1e-12)
    out = theta({"theta": (0.2, 0.3), "v": 0.25, "omega": 0.0})
    assert out[0] == pytest.approx(0.2, abs=1e-12)
    assert out[1] == pytest.approx(0.3, abs=1e-12)


def test_vehicle_interval_against_point_sweep():
    """The interval extension bounds a dense sweep of exact successors."""
    rng = random.Random(9)
    enc = dubins_encoding(3)
    comps = {c.name: c for c in dubins_components()}
    for _ in range(60):
        name = rng.choice(("px", "py", "theta"))
        box = rand_box(rng, comps[name], enc)
        lo, hi = comps[name].evaluator(box)
        for _ in range(40):
            point = {k: (v if not isinstance(v, tuple)
                         else rng.uniform(v[0], v[1]))
                     for k, v in box.items()}
            succ = dubins_point_step(name, point)
            if name == "theta":
                # member of the interval, modulo one period
                off = (succ - lo) % TWO_PI
                assert off <= hi - lo + 1e-9
            else:
                assert lo - 1e-9 <= succ <= hi + 1e-9


def test_evaluators_inclusion_monotone():
    """Nested input boxes give nested output intervals."""
    rng = random.Random(21)
    enc = dubins_encoding(3)
    comps = {c.name: c for c in dubins_components()}
    for _ in range(120):
        name = rng.choice(("px", "py", "theta"))
        outer_box = rand_box(rng, comps[name], enc)
        inner_box = {}
        for k, v in outer_box.items():
            if isinstance(v, tuple):
                a = rng.uniform(v[0], v[1])
                b = rng.uniform(v[0], v[1])
                inner_box[k] = (min(a, b), max(a, b))
            else:
                inner_box[k] = v
        lo_o, hi_o = comps[name].evaluator(outer_box)
        lo_i, hi_i = comps[name].evaluator(inner_box)
        if name == "theta":
            # containment modulo the period
            if hi_o - lo_o >= TWO_PI - 1e-9:
                continue
            off = (lo_i - lo_o) % TWO_PI
            assert off + (hi_i - lo_i) <= hi_o - lo_o + 1e-9
        else:
            assert lo_o - 1e-12 <= lo_i and hi_i <= hi_o + 1e-12


# -- single samples ---------------------------------------------------------

def test_zero_turn_sample_is_identity_on_cells():
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["theta"]
    d = enc.dims["theta"]
    for i in range(d.cells):
        box = cell_box(d, i)
        f = sample_to_interface(
            comp, {"theta": box, "v": 0.25, "omega": 0.0}, enc)
        here = code_range(m, enc.state_vars("theta"), i, i)
        got = m.exists(enc.state_vars("theta") + enc.all_control_vars,
                       m.apply("and", f.pred, here))
        assert got == code_range(m, enc.next_vars("theta"), i, i)


def test_sample_signature_and_blocking():
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["px"]
    f = sample_to_interface(
        comp, {"px": (0.0, 0.5), "theta": (0.0, 0.5), "v": 0.25}, enc)
    assert set(f.inputs) == set(enc.state_vars("px")
                                + enc.state_vars("theta")
                                + enc.control_vars("v"))
    assert set(f.outputs) == set(enc.next_vars("px"))
    # inputs outside the box block
    outside = idx_assign(enc.state_vars("px"), enc.dims["px"].cells - 1)
    assert m.apply("and", m.cube(outside), nb(f).pred) == m.false


def test_sample_box_validation():
    enc = dubins_encoding(3)
    comp = {c.name: c for c in dubins_components()}["px"]
    with pytest.raises(BddError):
        sample_to_interface(
            comp, {"px": (2.5, 3.0), "theta": (0.0, 0.5), "v": 0.25}, enc)
    with pytest.raises(BddError):
        sample_to_interface(comp, {"px": (0.0, 0.5), "v": 0.25}, enc)
    with pytest.raises(BddError):
        sample_to_interface(
            comp, {"px": (0.0, 0.5), "theta": (0.0, 0.5), "py": (0.0, 0.5),
                   "v": 0.25}, enc)
    with pytest.raises(BddError):
        sample_to_interface(
            comp, {"px": (0.0, 0.5), "theta": (0.0, 0.5), "v": 0.3}, enc)
    with pytest.raises(BddError):
        sample_to_interface(
            comp, {"px": (0.0, 0.5), "theta": (0.0, 0.5),
                   "v": (0.25, 0.5)}, enc)
    # the cell table checks every input value once, as it enters
    for px in ((0.5, 0.0), (float("nan"), 0.5)):
        with pytest.raises(BddError):
            sample_to_interface(
                comp, {"px": px, "theta": (0.0, 0.5), "v": 0.25}, enc)


def test_escaping_successors_block_the_sample():
    """A box whose successors leave the position domain maps to bottom."""
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["px"]
    d = enc.dims["px"]
    box = cell_box(d, d.cells - 1)
    f = sample_to_interface(
        comp, {"px": box, "theta": (-0.1, 0.1), "v": 0.5}, enc)
    assert f.pred == m.false
    # the same berth pointed inward stays nonblocking
    f = sample_to_interface(
        comp, {"px": box, "theta": (math.pi - 0.1, math.pi + 0.1),
               "v": 0.5}, enc)
    assert f.pred != m.false


def test_periodic_input_box_wraps_the_seam():
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["theta"]
    d = enc.dims["theta"]
    # one cell width on each side of the seam at pi == -pi
    w = d.width
    f = sample_to_interface(
        comp, {"theta": (math.pi - w, math.pi + w), "v": 0.25, "omega": 0.0},
        enc)
    accepted = m.exists(enc.next_vars("theta") + enc.all_control_vars,
                        f.pred)
    assert accepted == m.apply(
        "or",
        code_range(m, enc.state_vars("theta"), 0, 0),
        code_range(m, enc.state_vars("theta"), d.cells - 1, d.cells - 1))


def test_sample_soundness_random_points():
    """Concrete points in the box reach cells the sample's output allows."""
    rng = random.Random(33)
    enc = dubins_encoding(4)
    m = enc.m
    comps = {c.name: c for c in dubins_components()}
    checked = 0
    for _ in range(80):
        name = rng.choice(("px", "py", "theta"))
        comp = comps[name]
        box = rand_box(rng, comp, enc)
        f = sample_to_interface(comp, box, enc)
        if f.pred == m.false:
            continue
        for _ in range(15):
            point = {k: (v if not isinstance(v, tuple)
                         else rng.uniform(v[0], v[1]))
                     for k, v in box.items()}
            succ = dubins_point_step(name, point)
            asg = {}
            for k, v in point.items():
                d = enc.dims[k]
                role = "control" if k in comp.control_inputs else "state"
                bit_vars = (enc.control_vars(k) if role == "control"
                            else enc.state_vars(k))
                asg.update(idx_assign(bit_vars, point_cell(d, v)))
            asg.update(idx_assign(enc.next_vars(name),
                                  point_cell(enc.dims[name], succ)))
            assert m.eval(f.pred, asg)
            checked += 1
    assert checked > 500


# -- traversal plans --------------------------------------------------------

def plan_boxes(comp, plan, enc):
    """Every sample box of `plan`: its blocks flattened."""
    for block in _plan_blocks(comp, plan, enc):
        for combo in itertools.product(*block.values()):
            yield dict(zip(block, combo))


def oracle_sample(comp, box, enc):
    """One in-domain box as the interface `I and O`, built cell range by
    cell range from the range encoders: `I` is the product of the cells
    each input value meets, `O` the cells of the successors of their
    closure, both at the view precision; a box that escapes a plain
    output domain, or has an input that meets no cell, is bottom."""
    m = enc.m
    blocked = bottom(comp, enc)

    def cells(vd, rng, bit_vars):
        if rng is None:
            return m.false
        if rng[1] < vd.cells:
            return code_range(m, bit_vars, *rng)
        return m.apply("or", code_range(m, bit_vars, rng[0], vd.cells - 1),
                       code_range(m, bit_vars, 0, rng[1] - vd.cells))

    def view(d):
        return Dimension(d.name, comp.view_bits(d), d.lo, d.hi, d.periodic)

    ins, ev = m.true, {}
    for name in comp.input_names():
        d = enc.dims[name]
        bit_vars = (enc.control_vars(name) if name in comp.control_inputs
                    else enc.state_vars(name))
        x = box[name]
        lo, hi = x if isinstance(x, tuple) else (x, x)
        if d.is_discrete:
            ins = m.apply("and", ins,
                          encode_set(m, d, (lo, hi), bit_vars, "outer"))
            ev[name] = lo
            continue
        vd = view(d)
        rng = cell_range(vd, (lo, hi), "half_open")
        ins = m.apply("and", ins, cells(vd, rng, bit_vars[:vd.bits]))
        if rng is not None:
            i, j = rng
            ev[name] = (d.lo + i * vd.width,
                        d.hi if j + 1 == vd.cells
                        else d.lo + (j + 1) * vd.width)
    d = enc.dims[comp.output]
    vd = view(d)
    if ins == m.false:
        return blocked
    a, b = comp.evaluator(ev)
    if not d.periodic and (a < d.lo or b > d.hi):
        return blocked
    outs = cells(vd, cell_range(vd, (a, b), "half_open"),
                 enc.next_vars(comp.output)[:vd.bits])
    return Interface(m, blocked.inputs, blocked.outputs,
                     m.apply("and", ins, outs))


def bottom(comp, enc):
    """The interface of `comp` that blocks every input."""
    ins = [v for n in comp.state_inputs for v in enc.state_vars(n)]
    ins += [v for n in comp.control_inputs for v in enc.control_vars(n)]
    return Interface(enc.m, ins, enc.next_vars(comp.output), enc.m.false)


def oracle_fold(comp, plan, enc):
    """`refine` folded over the oracle samples of `plan`, starting from
    the universal abstraction; also the number of bottom samples."""
    folded, blocked = bottom(comp, enc), 0
    for box in plan_boxes(comp, plan, enc):
        f = oracle_sample(comp, box, enc)
        blocked += f.pred == enc.m.false
        folded = refine(folded, f)
    return folded, blocked


def toy_identity_setup(bits=2):
    enc = Encoding([Dimension.continuous("x", 0.0, 4.0, bits)])
    comp = DynamicsComponent("move", ("x",), (), "x",
                             lambda box: box["x"])
    return enc, comp


def test_exhaustive_identity_toy():
    enc, comp = toy_identity_setup()
    m = enc.m
    f = traverse(comp, Exhaustive(), enc)
    want = m.false
    for i in range(enc.dims["x"].cells):
        want = m.apply("or", want, m.apply(
            "and",
            code_range(m, enc.state_vars("x"), i, i),
            code_range(m, enc.next_vars("x"), i, i)))
    assert f.pred == want


def test_point_box_samples_the_cell_that_holds_it():
    """A point input box covers the cell `point_cell` puts it in, also on
    a cell boundary and at the top of the domain, and so does its point
    successor."""
    enc, comp = toy_identity_setup()
    m = enc.m
    d = enc.dims["x"]
    for x in (0.5, 1.0, 4.0):
        i = point_cell(d, x)
        f = sample_to_interface(comp, {"x": (x, x)}, enc)
        assert f.pred == m.apply(
            "and", code_range(m, enc.state_vars("x"), i, i),
            code_range(m, enc.next_vars("x"), i, i)), x


def test_empty_plan_is_bottom():
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["py"]
    f = traverse(comp, RandomRects(0, seed=5), enc)
    assert f.pred == m.false
    assert set(f.outputs) == set(enc.next_vars("py"))


def test_plan_validation():
    enc, comp = toy_identity_setup()
    with pytest.raises(BddError):
        traverse(comp, RandomRects(-1), enc)
    with pytest.raises(BddError):
        traverse(comp, ShiftedGrids(()), enc)
    with pytest.raises(BddError):
        traverse(comp, ShiftedGrids((0,)), enc)
    with pytest.raises(BddError):
        traverse(comp, Exhaustive(bits={"x": 9}), enc)
    with pytest.raises(BddError):
        traverse(comp, Exhaustive(bits={"y": 1}), enc)


def test_traverse_equals_refine_fold():
    """The cell table matches folding refine over the oracle samples
    from the universal abstraction: in both variable orders, on every
    plan, with a view coarser than the plan's boxes, and with samples
    whose successors leave the domain.  The plans take both rules: one
    random box, one grid and plain `Exhaustive` are single blocks of
    disjoint values, and plan bits finer than the view make a single
    block that covers a cell with two values."""
    for level_order in (None, ("theta", "v", "omega", "px", "py")):
        enc = dubins_encoding(3, level_order=level_order)
        for view in (None, {"px": 2, "theta": 2}):
            comps = {c.name: c for c in dubins_components(view=view)}
            blocked = 0
            for name in ("px", "theta"):
                comp = comps[name]
                for plan in (RandomRects(25, seed=7), RandomRects(1, seed=5),
                             ShiftedGrids((4,)), ShiftedGrids((4, 5)),
                             ShiftedGrids((3, 5)), Exhaustive(),
                             Exhaustive(bits={"px": 2}),
                             Exhaustive(bits={"px": 3})):
                    folded, bottoms = oracle_fold(comp, plan, enc)
                    blocked += bottoms
                    closed = traverse(comp, plan, enc)
                    assert closed.pred == folded.pred, (name, plan, view)
                    assert closed.inputs == folded.inputs
                    assert closed.outputs == folded.outputs
            assert blocked > 0


def test_traverse_equals_refine_fold_at_four_bits():
    """Larger tables: random boxes, overlapping grids and plan bits that
    give one value several cells, on every component, in both variable
    orders, with and without a coarser view.  A single grid of 5 slices,
    and plan bits finer than the view, are single blocks that cover a
    cell with two values."""
    for level_order in (None, ("theta", "v", "omega", "px", "py")):
        enc = dubins_encoding(4, level_order=level_order)
        for view in (None, {"px": 2, "theta": 3}):
            for comp in dubins_components(view=view):
                for plan in (RandomRects(2000, seed=11),
                             ShiftedGrids((3, 5, 7)), ShiftedGrids((5,)),
                             Exhaustive(bits={"px": 2}),
                             Exhaustive(bits={"px": 4})):
                    folded, _ = oracle_fold(comp, plan, enc)
                    assert traverse(comp, plan, enc).pred == folded.pred, (
                        comp.name, plan, view, level_order)


VEHICLE_ORDER = ("theta", "v", "omega", "px", "py")


def without_increment(comp):
    """`comp` built by its evaluator alone: the per-cell rule."""
    return dataclasses.replace(comp, increment=None)


@pytest.mark.parametrize("bits", [3, 4, 5, 6, 7])
def test_shift_path_equals_the_cell_table(bits):
    """The shift relation is handle-equal to the per-cell table: in both
    variable orders (the declaration order puts px and py above theta,
    so they fall back), with coarser views of the positions, and with
    plan bits coarser than the view (one value per two cells, so they
    fall back)."""
    for level_order in (None, VEHICLE_ORDER):
        enc = dubins_encoding(bits, level_order=level_order)
        for view in (None, {"px": 2}, {"px": 3, "py": 3}):
            for comp in dubins_components(view=view):
                plans = [Exhaustive()]
                if view is None:
                    plans.append(Exhaustive(bits={"px": bits - 1,
                                                  "py": bits - 1}))
                for plan in plans:
                    got = traverse(comp, plan, enc).pred
                    want = traverse(without_increment(comp), plan, enc).pred
                    assert got == want, (comp.name, plan, view, level_order)


def test_shift_path_falls_back_in_the_snap_gray_band(caplog):
    """An offset `g / w` that lies within the per-cell snap tolerance of
    a whole number for some cells but not for others is no shift: the
    key of `u = 1` (offset 3 + 5e-8 cells) takes the per-cell rule and
    the key of `u = 0` (offset 0) the shift relation, and both match the
    cell table."""
    enc = Encoding([Dimension.continuous("x", 0.0, 1.0, 7)],
                   [Dimension.discrete("u", (0.0, 1.0))],
                   level_order=("u", "x"))
    w = enc.dims["x"].width

    def increment(box):
        g = box["u"] * (3 + 5e-8) * w
        return g, g
    comp = DynamicsComponent("drift", ("x",), ("u",), "x",
                             lambda box: iadd(box["x"], increment(box)),
                             increment=increment)
    with caplog.at_level(logging.DEBUG, logger="relsynth.abstraction"):
        got = traverse(comp, Exhaustive(), enc).pred
    assert got == traverse(without_increment(comp), Exhaustive(), enc).pred
    assert "traverse drift: shift path, 1 of 2 keys fell back" \
        in caplog.messages


def test_vehicle_positions_take_the_shift_path():
    """In the vehicle order px and py call their evaluator only on the
    cells that settle the ends of the unblocked run, at most 4 per
    (theta cell, v) key; in the declaration order they fall back and
    call it once per cell."""
    enc = dubins_encoding(5, level_order=VEHICLE_ORDER)
    plain = dubins_encoding(5)
    keys, cells = 32 * 2, 32
    for comp in dubins_components()[:2]:
        for e, most in ((enc, 4 * keys), (plain, cells * keys)):
            calls = []

            def counted(box, _evaluator=comp.evaluator):
                calls.append(1)
                return _evaluator(box)
            traverse(dataclasses.replace(comp, evaluator=counted),
                     Exhaustive(), e)
            if e is enc:
                assert 0 < len(calls) <= most, comp.name
            else:
                assert len(calls) == most, comp.name


def test_traverse_streams_the_plan(monkeypatch):
    """The plan is drawn as its boxes are evaluated, not ahead of them:
    box k is evaluated once at most k + 2 blocks are drawn."""
    drawn = []

    def counting(comp, plan, enc):
        for block in _plan_blocks(comp, plan, enc):
            drawn.append(block)
            yield block
    monkeypatch.setattr("relsynth.abstraction._plan_blocks", counting)
    seen = []
    enc, _ = toy_identity_setup(bits=3)
    comp = DynamicsComponent("move", ("x",), (), "x",
                             lambda box: seen.append(len(drawn)) or box["x"])
    traverse(comp, RandomRects(50, seed=3), enc)
    assert len(drawn) == len(seen) == 50
    assert all(n <= k + 2 for k, n in enumerate(seen)), seen


def test_a_bad_late_block_fails_traverse(monkeypatch):
    """A block that lacks an input fails the traversal also when it is
    drawn after the rule is chosen."""
    enc, comp = toy_identity_setup()
    blocks = [{"x": [(0.0, 1.0)]}, {"x": [(1.0, 3.0)]}, {"y": [(0.0, 1.0)]}]
    monkeypatch.setattr("relsynth.abstraction._plan_blocks",
                        lambda comp, plan, enc: iter(blocks))
    with pytest.raises(BddError):
        traverse(comp, RandomRects(3), enc)
    blocks[2] = {}
    with pytest.raises(BddError):
        traverse(comp, RandomRects(3), enc)


def toy_periodic_setup(evaluator):
    """One periodic dimension `x` in [0, 8) at 3 bits, so cell `i` is
    `[i, i + 1)`, and a component with successors `evaluator(box)`."""
    enc = Encoding([Dimension.continuous("x", 0.0, 8.0, 3, periodic=True)])
    return enc, DynamicsComponent("move", ("x",), (), "x", evaluator)


def successors_of_cell(enc, f, i):
    """The output predicate of `f` on input cell `i` of `x`."""
    m = enc.m
    here = code_range(m, enc.state_vars("x"), i, i)
    return m.exists(enc.state_vars("x"), m.apply("and", f.pred, here))


def test_periodic_successor_arcs_meet_in_two_pieces():
    """The whole-domain box sends x to the arc [6, 11), cells 6, 7, 0, 1
    and 2; each half-domain box sends it to [1, 7), cells 1 to 6.  The
    arcs meet in cells 1, 2 and 6, two pieces, on every cell both cover."""
    enc, comp = toy_periodic_setup(
        lambda box: (6.0, 11.0) if box["x"][1] - box["x"][0] > 4.0
        else (1.0, 7.0))
    m = enc.m
    plan = ShiftedGrids((1, 2))
    f = traverse(comp, plan, enc)
    assert f.pred == oracle_fold(comp, plan, enc)[0].pred
    nxt = enc.next_vars("x")
    for i in range(8):
        assert successors_of_cell(enc, f, i) == m.apply(
            "or", code_range(m, nxt, 1, 2), code_range(m, nxt, 6, 6))


def test_disjoint_successors_block_a_covered_cell():
    """Two boxes cover every cell, and their successor ranges share no
    cell: the table blocks every input, as the fold does."""
    enc, _ = toy_identity_setup()
    comp = DynamicsComponent(
        "move", ("x",), (), "x",
        lambda box: (0.0, 1.0) if box["x"][1] - box["x"][0] > 3.0
        else (3.0, 4.0))
    plan = ShiftedGrids((1, 2))
    f = traverse(comp, plan, enc)
    assert f.pred == enc.m.false
    assert f.pred == oracle_fold(comp, plan, enc)[0].pred
    # with the whole-domain pass alone, every cell is accepted
    assert nb(traverse(comp, ShiftedGrids((1,)), enc)).pred == enc.m.true


def test_input_boxes_wrapping_the_seam_match_the_fold():
    """Random heading boxes run past pi and wrap on to -pi; the table
    covers both ends of each, as the fold of the oracle samples does."""
    for level_order in (None, ("theta", "v", "omega", "px", "py")):
        enc = dubins_encoding(3, level_order=level_order)
        d = enc.dims["theta"]
        for comp in dubins_components():
            plan = RandomRects(60, seed=13)
            wraps = sum(box["theta"][1] > d.hi
                        for box in plan_boxes(comp, plan, enc))
            assert wraps > 5
            folded, _ = oracle_fold(comp, plan, enc)
            assert traverse(comp, plan, enc).pred == folded.pred, comp.name
    # a one-cell box on each side of the seam, through one covering box
    enc, comp = toy_periodic_setup(lambda box: box["x"])
    f = sample_to_interface(comp, {"x": (7.0, 9.0)}, enc)
    assert f.pred == oracle_sample(comp, {"x": (7.0, 9.0)}, enc).pred
    m = enc.m
    wrapped = m.apply("or", code_range(m, enc.next_vars("x"), 7, 7),
                      code_range(m, enc.next_vars("x"), 0, 0))
    for i in range(8):
        assert successors_of_cell(enc, f, i) == (
            wrapped if i in (0, 7) else m.false)


def test_traverse_rejects_bad_successor_intervals():
    """An evaluator that returns NaN or an inverted interval fails the
    traversal instead of encoding some cells."""
    enc, _ = toy_identity_setup()
    for bad in ((float("nan"), 1.0), (2.0, 1.0), float("nan")):
        comp = DynamicsComponent("bad", ("x",), (), "x",
                                 lambda box, bad=bad: bad)
        for plan in (Exhaustive(), RandomRects(3, seed=1),
                     ShiftedGrids((3,))):
            with pytest.raises(BddError):
                traverse(comp, plan, enc)


def test_overlapping_samples_stay_consistent():
    """The merged abstraction refines every constituent sample, however
    the random boxes overlap or misalign."""
    enc = dubins_encoding(3)
    m = enc.m
    comps = {c.name: c for c in dubins_components()}
    for name, seed in (("px", 2), ("py", 3), ("theta", 4)):
        comp = comps[name]
        plan = RandomRects(35, seed=seed)
        merged = traverse(comp, plan, enc)
        for box in plan_boxes(comp, plan, enc):
            f = oracle_sample(comp, box, enc)
            if f.pred == m.false:
                continue
            assert is_refinement(f, merged)


def test_random_and_shifted_below_exhaustive():
    enc = dubins_encoding(4)
    comps = {c.name: c for c in dubins_components()}
    for name in ("px", "py", "theta"):
        ex = traverse(comps[name], Exhaustive(), enc)
        rnd = traverse(comps[name], RandomRects(120, seed=17), enc)
        grid = traverse(comps[name], ShiftedGrids((4, 5)), enc)
        assert is_refinement(rnd, ex)
        assert is_refinement(grid, ex)


def test_more_samples_refine_fewer():
    """Extending the sample set moves the result up the refinement
    order; a fixed seed makes the shorter run a prefix of the longer."""
    enc = dubins_encoding(3)
    comps = {c.name: c for c in dubins_components()}
    for name in ("px", "theta"):
        comp = comps[name]
        small = traverse(comp, RandomRects(20, seed=29), enc)
        large = traverse(comp, RandomRects(60, seed=29), enc)
        assert is_refinement(small, large)
        one_pass = traverse(comp, ShiftedGrids((4,)), enc)
        two_pass = traverse(comp, ShiftedGrids((4, 5)), enc)
        assert is_refinement(one_pass, two_pass)


def test_shifted_grids_cover_with_fewer_samples():
    """4x4 plus 5x5 passes accept the whole 8x8 grid from 41 boxes."""
    enc = Encoding([Dimension.continuous("x", 0.0, 8.0, 3),
                    Dimension.continuous("y", 0.0, 8.0, 3)])
    m = enc.m
    comp = DynamicsComponent("hold", ("x", "y"), (), "x",
                             lambda box: box["x"])
    plan = ShiftedGrids((4, 5))
    assert sum(1 for _ in plan_boxes(comp, plan, enc)) == 41
    f = traverse(comp, plan, enc)
    assert nb(f).pred == m.true


def test_exhaustive_with_coarser_bits():
    """Plan-level bit overrides sample bigger aligned boxes."""
    enc, comp = toy_identity_setup(bits=3)
    m = enc.m
    plan = Exhaustive(bits={"x": 1})
    assert sum(1 for _ in plan_boxes(comp, plan, enc)) == 2
    f = traverse(comp, plan, enc)
    # half-domain boxes still land on full-precision output cells
    lowhalf = code_range(m, enc.state_vars("x"), 0, 3)
    got = m.exists(enc.state_vars("x"), m.apply("and", f.pred, lowhalf))
    assert got == code_range(m, enc.next_vars("x"), 0, 3)
    assert nb(f).pred == m.true


def test_component_views_use_leading_bits():
    """A coarse view constrains only the most significant bits."""
    enc = dubins_encoding(5)
    m = enc.m
    comp = {c.name: c for c in dubins_components(
        view={"px": 3, "py": 3, "theta": 3})}["px"]
    f = traverse(comp, Exhaustive(), enc)
    kept = set(enc.state_vars("px")[:3] + enc.state_vars("theta")[:3]
               + enc.next_vars("px")[:3] + enc.control_vars("v"))
    assert set(m.support(f.pred)) <= kept
    with pytest.raises(BddError):
        bad = {c.name: c for c in dubins_components(
            view={"px": 9})}["px"]
        traverse(bad, Exhaustive(), enc)


def test_saved_abstraction_round_trips():
    import io
    from relsynth.interfaces import load_interface, save_interface
    enc = dubins_encoding(3)
    m = enc.m
    comp = {c.name: c for c in dubins_components()}["px"]
    f = traverse(comp, RandomRects(10, seed=1), enc)
    buf = io.StringIO()
    save_interface(f, buf, meta={"plan": "random_rects", "count": 10,
                                 "seed": 1})
    buf.seek(0)
    g, meta = load_interface(m, buf)
    assert g.pred == f.pred and meta["seed"] == 1
