"""Space encoding tests against per-cell enumeration oracles."""

import gc
import math
import random

import pytest

from relsynth.bdd import BDD, BddError
from relsynth.interfaces import is_refinement
from relsynth.spaces import (Dimension, Encoding, cell_box, cell_range,
                             code_range, encode_set, point_cell, quantizer)
from util import build_expr, rand_expr


def bits_vars(m, dim, prefix="x"):
    return ["%s%d" % (prefix, k) for k in range(dim.bits)]


def cells_by_enumeration(dim, a, b, mode):
    """Oracle: test every half-open cell against the closed interval."""
    w = dim.width
    if dim.periodic:
        period = dim.period
        if b - a >= period:
            return set(range(dim.cells))
        a = dim.lo + (a - dim.lo) % period
        b = dim.lo + (b - dim.lo) % period
        arcs = [(a, b)] if a <= b else [(a, dim.hi), (dim.lo, b)]
    else:
        arcs = [(a, b)]
    out = set()
    for lo_a, hi_a in arcs:
        for i in range(dim.cells):
            c0 = dim.lo + i * w
            c1 = dim.lo + (i + 1) * w
            if mode == "inner":
                if c0 >= lo_a and c1 <= hi_a:
                    out.add(i)
            else:
                if c0 <= hi_a and c1 > lo_a:
                    out.add(i)
    return out


def pred_cells(m, dim, vs, f):
    got = set()
    for i in range(dim.cells):
        asg = {v: bool((i >> (dim.bits - 1 - k)) & 1)
               for k, v in enumerate(vs)}
        if m.eval(f, asg):
            got.add(i)
    return got


def test_dimension_validation():
    with pytest.raises(BddError):
        Dimension.continuous("x", 1.0, 1.0, 3)
    with pytest.raises(BddError):
        Dimension.continuous("x", 2.0, 1.0, 3)
    with pytest.raises(BddError):
        Dimension.discrete("u", [0.5, 0.5])
    with pytest.raises(BddError):
        Dimension.discrete("u", [1, 2, 3], bits=1)
    with pytest.raises(BddError):
        Dimension("x", 2, values=(1.0,), periodic=True)
    # library input is checked as the configuration is
    for bits in (2.5, "3", None, True):
        with pytest.raises(BddError):
            Dimension.continuous("x", 0.0, 1.0, bits)
    for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
        with pytest.raises(BddError):
            Dimension.continuous("x", lo, hi, 3)
    for values in ([1.0, math.nan], [1.0, math.inf], [1.0, "a"],
                   [True, 2.0]):
        with pytest.raises(BddError):
            Dimension.discrete("u", values)
    # bounds are checked before float() converts them
    for lo in ("a", "1.5", None):
        with pytest.raises(BddError):
            Dimension.continuous("x", lo, 2, 3)
    for bad in (lambda: Dimension.discrete("u", 5),
                lambda: Dimension.discrete("u", None),
                lambda: Dimension(5, 3, 0.0, 1.0),
                lambda: Dimension.continuous(None, 0, 1, 3),
                lambda: Dimension.continuous("x", 0, 1, 3, periodic="no"),
                lambda: Dimension.continuous("x", 0, 1, 3, periodic=1)):
        with pytest.raises(BddError):
            bad()
    d = Dimension.continuous("x", 0, 1, 3)
    assert (d.lo, d.hi) == (0.0, 1.0) and isinstance(d.lo, float)
    d = Dimension.discrete("u", [7.0])
    assert d.bits == 0 and d.cells == 1


def test_cell_box_and_point_cell():
    d = Dimension.continuous("x", -2.0, 2.0, 3)
    assert d.width == 0.5
    assert cell_box(d, 0) == (-2.0, -1.5)
    assert cell_box(d, 7) == (1.5, 2.0)
    with pytest.raises(BddError):
        cell_box(d, 8)
    assert point_cell(d, -2.0) == 0
    assert point_cell(d, -1.5) == 1  # boundary points go right
    assert point_cell(d, 2.0) == 7   # top of the domain joins the last cell
    with pytest.raises(BddError):
        point_cell(d, 2.5)
    # cells tile the domain: every point lands in the box of its cell
    rng = random.Random(200)
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0)
        i = point_cell(d, x)
        c0, c1 = cell_box(d, i)
        assert c0 <= x and (x < c1 or (i == d.cells - 1 and x <= c1))


def test_point_cell_periodic_wraps():
    d = Dimension.continuous("t", -math.pi, math.pi, 3, periodic=True)
    assert point_cell(d, math.pi) == 0  # wraps to -pi
    assert point_cell(d, -math.pi) == 0
    assert point_cell(d, 3 * math.pi / 4 + 0.01) == 7
    assert point_cell(d, 2 * math.pi - 0.01) == point_cell(d, -0.01)
    # no wrap for a point that is no finite number
    for x in (float("nan"), float("inf"), -float("inf"), 10 ** 400):
        with pytest.raises(BddError):
            point_cell(d, x)


def test_encode_cell_msb_first():
    """The code of one cell is a single state, its index msb-first."""
    m = BDD(["x0", "x1"])
    f = code_range(m, ["x0", "x1"], 2, 2)  # binary 10: msb set
    assert f == m.apply("and", m.var("x0"), m.apply("not", m.var("x1")))
    # a code beyond the bits names no state
    assert code_range(m, ["x0", "x1"], 4, 4) == m.false


def test_encode_decode_identity():
    d = Dimension.continuous("x", -1.0, 3.0, 4)
    m = BDD(["x%d" % k for k in range(4)])
    vs = bits_vars(m, d)
    for i in range(d.cells):
        f = code_range(m, vs, i, i)
        assert m.sat_count(f, vs) == 1
        mid = sum(cell_box(d, i)) / 2
        assert point_cell(d, mid) == i
        asg = {v: bool((i >> (3 - k)) & 1) for k, v in enumerate(vs)}
        assert m.eval(f, asg)


def test_code_range_brute_force():
    m = BDD(["b%d" % k for k in range(5)])
    vs = ["b%d" % k for k in range(5)]
    rng = random.Random(201)
    for _ in range(40):
        a = rng.randint(-2, 33)
        b = rng.randint(-2, 33)
        f = code_range(m, vs, a, b)
        want = {i for i in range(32) if a <= i <= b}
        got = {i for i in range(32)
               if m.eval(f, {v: bool((i >> (4 - k)) & 1)
                             for k, v in enumerate(vs)})}
        assert got == want
    with pytest.raises(BddError):
        code_range(m, vs[::-1], 0, 3)


def test_single_calls_leave_no_reference_cycles():
    # a recursive helper that stays bound to itself after the call is a
    # reference cycle that only the cyclic garbage collector frees
    bits = ["a", "b", "c"]
    m = BDD(bits + ["a+", "b+", "c+"])
    f = code_range(m, bits, 2, 5)
    px = Dimension.continuous("px", 0, 1, 2)
    py = Dimension.continuous("py", 0, 1, 1)
    enc = Encoding([px, py], level_order=["py", "px"])
    g = enc.state_box({"px": (0.25, 1), "py": (0.5, 1)})
    calls = {
        "code_range": lambda: code_range(m, bits, 1, 6),
        "rename": lambda: m.rename(f, {v: v + "+" for v in bits}),
        "sat_count": lambda: m.sat_count(f),
        "sat_runs": lambda: m.sat_runs(f, bits),
        "cell_runs": lambda: enc.cell_runs(g),
        "to_text": lambda: m.to_text(f),
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            call()
        finally:
            gc.enable()
        assert gc.collect() == 0, name


def test_encode_set_frozen_values():
    # [-2, 2] at 7 bits has cell width 0.03125; the band [-0.4, 0.4]
    # spans fractional cells 51.2 .. 76.8, so full cells 52..75 lie
    # inside (24) and touched cells are 51..76 (26), by enumeration.
    d = Dimension.continuous("x", -2.0, 2.0, 7)
    m = BDD(["x%d" % k for k in range(7)])
    vs = bits_vars(m, d)
    inner = encode_set(m, d, (-0.4, 0.4), vs, "inner")
    outer = encode_set(m, d, (-0.4, 0.4), vs, "outer")
    assert m.sat_count(inner, vs) == 24
    assert m.sat_count(outer, vs) == 26
    assert m.leq(inner, outer)
    # boundary-aligned band: both endpoints on cell edges
    inner5 = encode_set(m, d, (-0.5, 0.5), vs, "inner")
    assert m.sat_count(inner5, vs) == 32


def test_encode_set_against_enumeration():
    rng = random.Random(202)
    m = BDD(["x%d" % k for k in range(6)])
    for _ in range(60):
        periodic = rng.random() < 0.5
        lo = rng.uniform(-5, 0)
        hi = lo + rng.uniform(1, 6)
        d = Dimension.continuous("x", lo, hi, 6, periodic=periodic)
        vs = bits_vars(m, d)
        if periodic:
            a = rng.uniform(lo - 10, hi + 10)
            b = a + rng.uniform(0, (hi - lo) * 1.5)
        else:
            a = rng.uniform(lo, hi)
            b = rng.uniform(a, hi)
        for mode in ("inner", "outer"):
            f = encode_set(m, d, (a, b), vs, mode)
            assert pred_cells(m, d, vs, f) == \
                cells_by_enumeration(d, a, b, mode), (lo, hi, a, b, mode)


def test_encode_set_inner_implies_outer():
    m = BDD(["x%d" % k for k in range(5)])
    d = Dimension.continuous("x", 0.0, 10.0, 5)
    vs = bits_vars(m, d)
    rng = random.Random(203)
    for _ in range(40):
        a = rng.uniform(0, 10)
        b = rng.uniform(a, 10)
        assert m.leq(encode_set(m, d, (a, b), vs, "inner"),
                     encode_set(m, d, (a, b), vs, "outer"))


def test_encode_set_edge_cases():
    m = BDD(["x%d" % k for k in range(4)])
    d = Dimension.continuous("x", 0.0, 1.0, 4)
    vs = bits_vars(m, d)
    assert encode_set(m, d, (0.3, 0.3), vs, "inner") == m.false
    deg = encode_set(m, d, (0.3, 0.3), vs, "outer")
    assert m.sat_count(deg, vs) == 1
    assert encode_set(m, d, (0.0, 1.0), vs, "inner") == m.true
    with pytest.raises(BddError):
        encode_set(m, d, (0.5, 0.4), vs)
    with pytest.raises(BddError):
        encode_set(m, d, (-0.5, 0.4), vs)
    with pytest.raises(BddError):
        encode_set(m, d, (0.1, float("nan")), vs)
    t = Dimension.continuous("x", -math.pi, math.pi, 4, periodic=True)
    assert encode_set(m, t, (0.0, 7.0), vs) == m.true  # full wrap
    wrap = encode_set(m, t, (math.pi / 2, -math.pi / 2 - 0.01), vs, "outer")
    assert pred_cells(m, t, vs, wrap) == \
        cells_by_enumeration(t, math.pi / 2, -math.pi / 2 - 0.01, "outer")
    # an end within the snap of the seam is read as on the seam, on
    # either side of it: the closed interval touches the first cell too
    t3 = Dimension.continuous("t", -math.pi, math.pi, 3, periodic=True)
    vs3 = vs[:3]
    for b in (math.pi - 1e-11, math.pi, math.pi + 1e-11):
        f = encode_set(m, t3, (2.5, b), vs3, "outer")
        assert pred_cells(m, t3, vs3, f) == {0, 7}, b
    # the top of a plain domain lies in the last cell, as a touched
    # point and as a successor within the snap below it
    d3 = Dimension.continuous("x", 0.0, 1.0, 3)
    top = encode_set(m, d3, (1.0, 1.0), vs3, "outer")
    assert pred_cells(m, d3, vs3, top) == {point_cell(d3, 1.0)} == {7}
    assert encode_set(m, d3, (1.0, 1.0), vs3, "inner") == m.false
    assert cell_range(d3, (1 - 1e-12, 1.0), "half_open") == (7, 7)
    # non-finite ends are refused on every side, periodic or not
    inf, nan = float("inf"), float("nan")
    for dim, iv in ((t3, (inf, inf)), (t3, (0.0, inf)), (t3, (-inf, 0.0)),
                    (t3, (nan, 0.0)), (d3, (0.5, nan))):
        with pytest.raises(BddError):
            encode_set(m, dim, iv, vs3, "outer")
        for side in ("inner", "outer", "half_open"):
            with pytest.raises(BddError):
                cell_range(dim, iv, side)


def _t(x, dim):
    """Cell coordinate of `x`, moved onto a boundary within 1e-6 of it."""
    t = (x - dim.lo) / dim.width
    return round(t) if abs(t - round(t)) < 1e-6 else t


def cells_by_points(dim, a, b, side):
    """Oracle: the cells `cell_range` must give, by point membership.

    Works in cell coordinates, where cell `i` is `[i, i + 1)` and, on a
    periodic dimension, repeats every `cells`; the interval is unrolled
    to `[A, A + width]`.  `inner` keeps a cell whose closure lies in
    `[A, B]`, `outer` one that holds a point of `[A, B]`, and
    `half_open` one that holds a point of `[A, B)`, or the cell that
    holds `A` if `A == B`.  On a plain dimension the top of the domain
    lies in the last cell (`outer` and `half_open`).
    """
    n = dim.cells
    if dim.periodic:
        if b - a >= dim.period:
            return set(range(n))
        A = _t(dim.lo + (a - dim.lo) % dim.period, dim)
        B = _t(dim.lo + A * dim.width + (b - a) % dim.period, dim)
        copies = (0, n)
    else:
        A, B = _t(a, dim), _t(b, dim)
        copies = (0,)
    out = set()
    for i in range(n):
        for c0 in (i + k for k in copies):
            x = max(A, c0)   # the leftmost point of the interval in the cell
            if side == "inner":
                hit = A <= c0 and c0 + 1 <= B
            elif side == "outer":
                hit = x < c0 + 1 and x <= B
            elif A == B:
                hit = c0 <= A < c0 + 1
            else:
                hit = x < c0 + 1 and x < B
            if hit:
                out.add(i)
    if not dim.periodic and side != "inner" and A == n:
        out.add(n - 1)
    return out


def range_cells(dim, rng):
    if rng is None:
        return set()
    i, j = rng
    assert 0 <= i < dim.cells and i <= j < i + dim.cells
    assert dim.periodic or j < dim.cells
    return {k % dim.cells for k in range(i, j + 1)}


def test_cell_range_against_point_oracle():
    rng = random.Random(204)
    full = [Dimension.continuous("x", -2.0, 2.0, 5),
            Dimension.continuous("t", -math.pi, math.pi, 5, periodic=True),
            Dimension.continuous("y", 0.3, 1.7, 4, periodic=True)]
    # the same domains at a reduced view of 2 bits, with ends still
    # drawn on the full-precision grid
    views = [Dimension(d.name, 2, d.lo, d.hi, d.periodic) for d in full]
    for d, grid in list(zip(full, full)) + list(zip(views, full)):
        edges = [grid.lo + i * grid.width for i in range(grid.cells + 1)]

        def end():
            if rng.random() < 0.7:
                return rng.choice(edges) + rng.choice((-1e-11, 0, 1e-11))
            x = rng.uniform(d.lo, d.hi)   # redrawn if near a boundary
            return x if _t(x, grid) != round(_t(x, grid)) else end()
        for _ in range(400):
            a, b = end(), end()
            if d.periodic:
                shift = rng.choice((-1, 0, 0, 1)) * d.period
                a, b = a + shift, b + rng.choice((0, 0, 1)) * d.period
            else:
                a, b = min(a, b), max(a, b)
                a, b = max(a, d.lo), min(b, d.hi)
            if rng.random() < 0.1:
                b = a
            for side in ("inner", "outer", "half_open"):
                assert range_cells(d, cell_range(d, (a, b), side)) == \
                    cells_by_points(d, a, b, side), (d, a, b, side)
    with pytest.raises(BddError):
        cell_range(full[0], (0.0, 1.0), "closed")


def test_encode_set_discrete():
    m = BDD(["u0", "u1"])
    d = Dimension.discrete("u", [-1.5, 0.0, 1.5])
    f = encode_set(m, d, (-0.1, 2.0), ["u0", "u1"])
    assert pred_cells(m, d, ["u0", "u1"], f) == {1, 2}
    assert point_cell(d, 1.5) == 2
    with pytest.raises(BddError):
        point_cell(d, 0.7)


def test_discrete_domain_predicate():
    """A discrete control's domain holds the codes of its values only."""
    px = Dimension.continuous("x", 0.0, 1.0, 2)
    d = Dimension.discrete("u", [-1.5, 0.0, 1.5])
    enc = Encoding([px], [d])
    vs = enc.all_control_vars
    dom = enc.control_domain()
    assert enc.m.sat_count(dom, vs) == 3
    assert pred_cells(enc.m, d, vs, dom) == {0, 1, 2}


def test_quantizer_identity_and_top():
    m = BDD(["f0", "c0", "f1", "c1"])
    q0 = quantizer(m, ["f0", "f1"], ["c0", "c1"], 0)
    assert q0.pred == m.true
    q2 = quantizer(m, ["f0", "f1"], ["c0", "c1"], 2)
    for i in range(4):
        for j in range(4):
            asg = {"c0": bool(i & 2), "c1": bool(i & 1),
                   "f0": bool(j & 2), "f1": bool(j & 1)}
            assert m.eval(q2.pred, asg) == (i == j)
    with pytest.raises(BddError):
        quantizer(m, ["f0"], ["c0", "c1"], 1)
    with pytest.raises(BddError):
        quantizer(m, ["f0", "f1"], ["c0", "c1"], 3)


def test_quantizer_precision_chain():
    n = 4
    names = []
    for k in range(n):
        names += ["f%d" % k, "c%d" % k]
    m = BDD(names)
    fine = ["f%d" % k for k in range(n)]
    coarse = ["c%d" % k for k in range(n)]
    qs = [quantizer(m, fine, coarse, k) for k in range(n + 1)]
    for a in range(n + 1):
        for b in range(n + 1):
            assert is_refinement(qs[a], qs[b]) == (a <= b)


def test_encoding_layout():
    px = Dimension.continuous("px", -2, 2, 3)
    th = Dimension.continuous("th", -math.pi, math.pi, 2, periodic=True)
    v = Dimension.discrete("v", [0.25, 0.5])
    enc = Encoding([px, th], [v])
    m = enc.m
    # interleaving: current bit k immediately above its next-state twin
    for name in ("px", "th"):
        for c, n in zip(enc.state_vars(name), enc.next_vars(name)):
            assert m.level_of(n) == m.level_of(c) + 1
    # control bits after all state bits
    for u in enc.all_control_vars:
        assert m.level_of(u) > max(m.level_of(s)
                                   for s in enc.all_next_vars)
    assert enc.control_domain() == m.true  # two values fill one bit
    f = enc.state_box({"px": (-1.0, 1.0)}, "inner")
    assert enc.count_states(f) == 4 * 4  # 4 of 8 px cells, th free
    g = m.rename(f, enc.prime_map)
    assert m.support(g) <= set(enc.all_next_vars)
    assert m.rename(g, enc.unprime_map) == f


def test_encoding_level_order():
    px = Dimension.continuous("px", -2, 2, 2)
    py = Dimension.continuous("py", -2, 2, 3)
    th = Dimension.continuous("th", -math.pi, math.pi, 2, periodic=True)
    v = Dimension.discrete("v", [0.25, 0.5])
    w = Dimension.discrete("w", [-1.0, 0.0, 1.0])
    enc = Encoding([px, py, th], [v, w], level_order=["th", "v", "w", "px",
                                                     "py"])
    m = enc.m
    assert m.var_names == [
        "th_0", "th+_0", "th_1", "th+_1", "v_0", "w_0", "w_1",
        "px_0", "px+_0", "px_1", "px+_1",
        "py_0", "py+_0", "py_1", "py+_1", "py_2", "py+_2"]
    # every state block stays interleaved
    for name in ("px", "py", "th"):
        for c, n in zip(enc.state_vars(name), enc.next_vars(name)):
            assert m.level_of(n) == m.level_of(c) + 1
    # the variable lists keep the declaration order
    assert enc.state_vars("py") == ["py_0", "py_1", "py_2"]
    assert enc.all_state_vars == ["px_0", "px_1", "py_0", "py_1", "py_2",
                                  "th_0", "th_1"]
    assert enc.all_next_vars == [x.replace("_", "+_")
                                 for x in enc.all_state_vars]
    assert enc.all_control_vars == ["v_0", "w_0", "w_1"]
    # the default is the declaration order, controls after the states
    plain = Encoding([px, py, th], [v, w])
    assert plain.m.var_names == [
        x for d in ("px", "py", "th") for pair in zip(
            plain.state_vars(d), plain.next_vars(d)) for x in pair] \
        + ["v_0", "w_0", "w_1"]
    for bad in (["th", "v", "w", "px"], ["th", "v", "w", "px", "px"],
                ["th", "v", "w", "px", "pz"]):
        with pytest.raises(BddError):
            Encoding([px, py, th], [v, w], level_order=bad)


def test_cell_runs_read_the_declaration_order():
    """Under any level order, cell runs equal plain `sat_runs` over the
    state bits of a declaration-order encoding of the same system."""
    px = Dimension.continuous("px", -2, 2, 2)
    py = Dimension.continuous("py", -2, 2, 1)
    th = Dimension.continuous("th", -math.pi, math.pi, 2, periodic=True)
    z = Dimension.continuous("z", 0, 1, 0)  # one cell, no bits
    v = Dimension.discrete("v", [0.25, 0.5])
    rng = random.Random(77)
    systems = [
        ([px, py, th], (["th", "v", "px", "py"], ["py", "th", "px", "v"],
                        ["v", "px", "py", "th"])),
        # the lowest state block is 1 bit wide and not last declared
        ([py, px, th], (["th", "px", "py", "v"], ["px", "v", "th", "py"])),
        ([px, z, py, th], (["z", "th", "v", "px", "py"],
                           ["th", "px", "py", "z", "v"],
                           ["py", "z", "v", "px", "th"])),
    ]
    for states, orders in systems:
        plain = Encoding(states, [v])
        xs = plain.all_state_vars
        for order in orders:
            enc = Encoding(states, [v], level_order=order)
            for _ in range(25):
                e = rand_expr(rng, xs, 12)
                f = build_expr(enc.m, e)
                want = plain.m.sat_runs(build_expr(plain.m, e), xs)
                assert enc.cell_runs(f) == want
                assert plain.cell_runs(build_expr(plain.m, e)) == want
            assert enc.cell_runs(enc.m.true) == [(0, 32)]
            assert enc.cell_runs(enc.m.false) == []


def test_cell_runs_make_no_node_and_no_manager(monkeypatch):
    """A reordered encoding reads its cells off its own diagram."""
    px = Dimension.continuous("px", -2, 2, 3)
    py = Dimension.continuous("py", -2, 2, 2)
    th = Dimension.continuous("th", -math.pi, math.pi, 3, periodic=True)
    plain = Encoding([px, py, th])
    enc = Encoding([px, py, th], level_order=["th", "px", "py"])
    box = {"px": (-1.5, 0.5), "py": (-1, 2), "th": (2, -2)}
    f = enc.state_box(box, "outer")
    want = plain.m.sat_runs(plain.state_box(box, "outer"),
                            plain.all_state_vars)
    assert len(want) > 1

    def no_manager(*args, **kwargs):
        raise AssertionError("cell_runs built a manager")
    monkeypatch.setattr("relsynth.spaces.BDD", no_manager)
    size = enc.m.size
    assert enc.cell_runs(f) == want
    assert enc.m.size == size


def test_encoding_assignments():
    px = Dimension.continuous("px", -2, 2, 3)
    v = Dimension.discrete("v", [0.25, 0.5])
    enc = Encoding([px], [v])
    asg = enc.state_assignment({"px": 0.1})
    assert asg == {"px_0": True, "px_1": False, "px_2": False}
    f = enc.state_box({"px": (0.0, 0.5)}, "outer")
    assert enc.m.eval(f, asg)
    uasg = enc.control_assignment({"v": 0.5})
    assert uasg == {"v_0": True}
    odd = Dimension.discrete("w", [1.0, 2.0, 3.0])
    enc2 = Encoding([px], [odd])
    # three values in two bits: the domain holds codes 0..2, not 3
    dom = enc2.control_domain()
    assert enc2.m.sat_count(dom, enc2.all_control_vars) == 3
    assert pred_cells(enc2.m, odd, enc2.all_control_vars, dom) == {0, 1, 2}
