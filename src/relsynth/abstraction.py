"""Finite interface abstractions of continuous dynamics.

A dynamics component is sampled over boxes of its input space; interval
arithmetic produces a guaranteed superset of the successors, and both
sides are coarsened onto the bit grid by `spaces.cell_range`, the one
routine that maps intervals to cells.  Boxes and grid cells share
half-open `[lo, hi)` semantics, and both sides are read alike
(`half_open`): the input predicate covers exactly the cells a box
intersects, the evaluator runs on the closure of those cells (so every
accepted cell's concrete points are accounted for), and the successor
interval is read back as right-open.  A point, as a box or as a
successor, keeps the cell that holds it.
Treating the evaluator's upper bound as excluded is sound whenever no
covered point attains it exactly on a cell boundary; the built-in
vehicle components guarantee this because each is strictly increasing
in its own state coordinate, so the supremum over a half-open input
range is never reached.  Samples merge through shared refinement
starting from the universal abstraction; because each sample soundly
over-approximates the same concrete map, overlapping or misaligned
boxes always satisfy the shared-refinability condition.

For input-output samples `I_k and O_k` the refinement fold has the
closed form

    (OR_k I_k) and AND_k (I_k -> O_k)

over the accepted samples.  A plan yields product blocks: one list of
values per input, whose boxes are every combination of one value per
input (one block for `Exhaustive`, one per size for `ShiftedGrids`, a
single box per block for `RandomRects`).  Each `I_k` is a product of
cell ranges, one per input at view precision, so the closed form only
says, for each tuple of input cells, whether some accepted box covers
it and which output cells every covering box allows.  The cells of an
input partition its codes (a discrete input's cells are its values;
codes naming no value are in no cell), so one recursion over the
inputs in BDD level order builds it as

    pred = OR_c (C_c and pred_c)

where `C_c` is one cell of the current input (or a run of cells that
lead to the same `pred_c`), and a leaf is the predicate of the allowed
output cells, or false on a tuple that no box covers.  A BDD is
canonical, so the result is handle-equal to the closed form however it
is built; the tests pin the equality with a fold of `refine` over
samples built box by box.  Every value is mapped to cells by
`cell_range` alone, and no diagram is built per box.  A leaf is filled
by one of two rules:

- a plan of one block in which each input cell is covered by at most
  one of the block's values (`Exhaustive` unless its `bits` are finer
  than the view) covers each cell tuple with at most one box, and the
  leaf is the cells of that box's successors, evaluated on the closure
  of its values.  The condition is read off the covers that `_cover`
  builds for each input's values: none has two bits set;
- any other plan numbers its accepted boxes and keeps, per input cell,
  the bitset (a Python int) of the boxes that cover it, built from
  start and end marks by a running XOR.  The recursion ANDs the
  bitsets and skips a cell no box covers.  At a plain output, the
  intersection of the covering boxes' successor ranges runs from the
  greatest lower end to the least upper end, and each is the lowest set
  bit of the bitset in its own rank order (boxes by lower end
  descending, and by upper end ascending).  At a periodic output the
  successor arcs can meet in two pieces, so the leaf keeps the cells of
  the first covering box's arc that no covering box excludes, as an
  `or` of code ranges.  An empty intersection blocks the cell.

Under rule 1, a component that declares an `increment` `g`, with
`evaluator(box) == box[output] + g(box)`, can skip the per-cell leaves
of its output's own axis.  That needs a plain continuous output that is
also the lowest input axis, one plan value per view cell of it, and its
current and next bits interleaved at the same view (the vehicle's `px`
and `py` in its own order; its periodic `theta`, and the positions in
the declaration order, keep the cell table).  The join then stops above
that axis, and each leaf evaluates `g` once on the upper axes' values.
With `w` the cell width and `e = g / w`, cell `i` goes to cells
`i + k_lo .. i + k_hi`, where `k_lo` is `e_lo` snapped down and `k_hi`
is `e_hi` snapped up (at least `k_lo`), and the unblocked cells form one
run `i0 .. i1`.  The leaf is `i0 <= x <= i1 and k_lo <= x+ - x <= k_hi`,
built by one memoized carry recursion over the interleaved bits (as
Bartzis and Bultan build linear constraints).  It is handle-equal to the
cell table by construction, guarded in two places:

- the per-cell snap tolerance is relative to `|i + e|`, so a key keeps
  the per-cell leaves unless each `e` is within 1e-12 of a whole number
  or farther than `1e-9 * (cells + |e| + 2)` from every one;
- the per-cell domain check is an exact float compare.  The closed
  forms `i0 = ceil(-e_lo)` and `i1 = floor(cells - 1 - e_hi)` are only
  a first guess: each end of the run is monotone in the cell, so the
  evaluator and that check on the cells next to each guess settle it.

An increment that is NaN or inverted raises `BddError`, and one with a
non-finite end blocks every cell, as the per-cell domain check would.

A plan is streamed.  Its blocks are drawn one at a time, and the rule is
chosen after at most two of them, since rule 1 needs exactly one.  Every
later block is mapped to cells, evaluated and folded into the accepted
boxes (their input cell ranges and successor range) as it is drawn, so a
build holds the accepted boxes' ranges but never the whole plan.

Each interval value is checked once, where it enters the cell table:
`_value_cells` checks every plan input value and `successors` every
evaluator result.  NaN or an inverted interval raises `BddError`, as
does a non-finite end that reaches `cell_range`.  The evaluator gets a
continuous input as a `(lo, hi)` pair of floats and a discrete control
as a number, and the interval operations `iadd`, `imul`, `icos` and
`isin` are plain arithmetic on such pairs.  A successor interval at a
periodic output is not wrapped by its evaluator: `cell_range` alone
maps it onto the turn.

Samples whose successor interval escapes a non-periodic state domain
(an infinite end included) yield the bottom interface: the abstraction
blocks those inputs, which keeps every synthesized controller inside
the modeled region.
"""

import itertools
import logging
import math
import random
from dataclasses import dataclass

from relsynth.bdd import BddError
from relsynth.interfaces import Interface
from relsynth.spaces import (Dimension, _snap, cell_range, code_range,
                             encode_set)

log = logging.getLogger(__name__)

DUBINS_LENGTH = 1.4

_TWO_PI = 2.0 * math.pi


# -- interval arithmetic ---------------------------------------------------

def _as_interval(x):
    if isinstance(x, (tuple, list)):
        lo, hi = float(x[0]), float(x[1])
    else:
        lo = hi = float(x)
    if math.isnan(lo) or math.isnan(hi) or lo > hi:
        raise BddError("bad interval: %r" % (x,))
    return lo, hi


def iadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def imul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def _contains_multiple(lo, hi, offset):
    """Does [lo, hi] contain offset + 2 pi k for some integer k?"""
    return (math.ceil((lo - offset) / _TWO_PI)
            <= math.floor((hi - offset) / _TWO_PI))


def icos(lo, hi):
    """Exact range of cos over [lo, hi]."""
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    vals = [math.cos(lo), math.cos(hi)]
    if _contains_multiple(lo, hi, 0.0):
        vals.append(1.0)
    if _contains_multiple(lo, hi, math.pi):
        vals.append(-1.0)
    return min(vals), max(vals)


def isin(lo, hi):
    """Exact range of sin over [lo, hi]."""
    return icos(lo - math.pi / 2.0, hi - math.pi / 2.0)


# -- dynamics components ---------------------------------------------------

@dataclass(frozen=True)
class DynamicsComponent:
    """One block of a factored transition map.

    `evaluator` maps a dict of input values to a `(lo, hi)` superset
    interval of the output dimension's next value, and must be
    inclusion-monotone.  A continuous input's value is a `(lo, hi)` pair
    of floats and a discrete control's value is a number.  The cell
    table checks each input value and each result once (see the module
    notes), so an evaluator need not check them, nor wrap a result at a
    periodic output.  `view` optionally lowers the bit precision used
    for named dimensions; kept bits are the most significant ones and
    default to full precision.

    `increment` optionally declares the map a translation of its own
    output: an interval `g(box)` with `evaluator(box) == iadd(box[output],
    g(box))`, that does not read `box[output]`.  The cell table may then
    build the output's own axis as a shift relation (see the module
    notes); `evaluator` stays the reference for every other use.
    """

    name: str
    state_inputs: tuple
    control_inputs: tuple
    output: str
    evaluator: object
    view: dict = None
    increment: object = None

    def input_names(self):
        return tuple(self.state_inputs) + tuple(self.control_inputs)

    def view_bits(self, dim):
        k = (self.view or {}).get(dim.name, dim.bits)
        if not 0 <= k <= dim.bits:
            raise BddError("view %r out of range for %s" % (k, dim.name))
        return k


def _dubins_px(box, length):
    v = box["v"]
    return imul((v, v), icos(*box["theta"]))


def _dubins_py(box, length):
    v = box["v"]
    return imul((v, v), isin(*box["theta"]))


def _dubins_theta(box, length):
    v = box["v"] / length
    return imul((v, v), isin(box["omega"], box["omega"]))


# each component's increment, state inputs and control inputs
_DUBINS = {
    "px": (_dubins_px, ("px", "theta"), ("v",)),
    "py": (_dubins_py, ("py", "theta"), ("v",)),
    "theta": (_dubins_theta, ("theta",), ("v", "omega")),
}


def dubins_components(length=DUBINS_LENGTH, view=None):
    """The three planar-vehicle blocks: position pair and heading.  Each
    is its own state plus an increment, and its evaluator is derived
    from that increment."""
    out = []
    for name, (fn, sin, cin) in _DUBINS.items():
        inc = (lambda b, _fn=fn: _fn(b, length))
        out.append(DynamicsComponent(
            name, sin, cin, name,
            (lambda b, _name=name, _inc=inc: iadd(b[_name], _inc(b))),
            view, inc))
    return out


# -- sampling --------------------------------------------------------------

def _view_dim(d, k):
    if k == d.bits:
        return d
    return Dimension(d.name, k, d.lo, d.hi, d.periodic, d.values)


def _signature(comp, enc):
    ins = []
    for n in comp.state_inputs:
        ins.extend(enc.state_vars(n))
    for n in comp.control_inputs:
        ins.extend(enc.control_vars(n))
    return ins, enc.next_vars(comp.output)


def _range_pred(m, vd, rng, bit_vars, memo):
    """Predicate of a `cell_range` result: None is no cell, and a range
    that passes the last cell wraps on to the first.

    `memo` keeps the predicates already built, keyed on the view
    dimension, the range and the bits; it must not outlive a sweep.
    """
    key = (vd, rng, tuple(bit_vars))
    f = memo.get(key)
    if f is not None:
        return f
    if rng is None:
        f = m.false
    elif rng[1] < vd.cells:
        f = code_range(m, bit_vars, *rng)
    else:
        f = m.apply("or", code_range(m, bit_vars, rng[0], vd.cells - 1),
                    code_range(m, bit_vars, 0, rng[1] - vd.cells))
    memo[key] = f
    return f


def _input_axes(comp, enc):
    """One `(name, dim, view dim, cell bits)` per input of `comp`, taken
    by the level of its first bit, top first.  A discrete input keeps all
    its bits and its cells are its values; a continuous one keeps the
    leading bits of its view."""
    m = enc.m
    axes = []
    for names, vars_of in ((comp.state_inputs, enc.state_vars),
                           (comp.control_inputs, enc.control_vars)):
        for name in names:
            d, bit_vars = enc.dims[name], vars_of(name)
            vd = d if d.is_discrete else _view_dim(d, comp.view_bits(d))
            axes.append((m.level_of(bit_vars[0]) if bit_vars else -1,
                         (name, d, vd, bit_vars[:vd.bits])))
    axes.sort(key=lambda axis: axis[0])
    return [axis for _, axis in axes]


def _value_cells(name, d, vd, value):
    """`(cell range, evaluator value)` of one value of input `name`.

    A continuous value is a half-open box side: it covers the cells it
    meets at the view precision, and the evaluator gets the closure of
    those cells, so every accepted cell's points are accounted for.  The
    range is None if the value covers no cell.  A discrete value must be
    one of the dimension's values, and its cell is its index.
    """
    lo, hi = _as_interval(value)
    if d.is_discrete:
        if lo != hi or lo not in d.values:
            raise BddError("discrete input %s needs a single valid value"
                           % name)
        i = d.values.index(lo)
        return (i, i), lo
    if not d.periodic and (lo < d.lo - 1e-9 or hi > d.hi + 1e-9):
        raise BddError("input box for %s is outside its domain" % name)
    rng = cell_range(vd, (lo, hi), "half_open")
    if rng is None:
        return None, None
    i, j = rng
    return rng, (d.lo + i * vd.width,
                 d.hi if j + 1 == vd.cells else d.lo + (j + 1) * vd.width)


def _cells_pred(m, axis, rng, memo):
    """Predicate of the cells `rng` of an input axis: the value's code
    for a discrete input, a code range for a continuous one."""
    _, d, vd, bit_vars = axis
    if d.is_discrete:
        v = d.values[rng[0]]
        return encode_set(m, d, (v, v), bit_vars, "outer")
    return _range_pred(m, vd, rng, bit_vars, memo)


def _cover(ranges, cells):
    """Per cell, the bitset (an int) of the boxes whose cell range holds
    it, where entry `k` of `ranges` is the range `(i, j)` of box `k` (`j`
    may pass the last cell and wrap on to the first) and bit `k` is that
    box.  Each range toggles its bit in a mark where it starts and where
    it ends, and a running XOR of the marks gives the cells' bitsets, so
    the cost is O(boxes + cells)."""
    marks = [0] * (cells + 1)
    for k, (i, j) in enumerate(ranges):
        if j >= cells:  # wraps: cells 0..j - cells, then i..cells - 1
            marks[0] ^= 1 << k
            j -= cells
        marks[i] ^= 1 << k
        marks[j + 1] ^= 1 << k
    run, out = 0, []
    for mark in marks[:cells]:
        run ^= mark
        out.append(run)
    return out


def _join(m, axes, step, leaf, state):
    """`OR_c (C_c and pred_c)` over the segments `(C_c, key)` of each
    axis in turn, where `pred_c` is the join of the axes below under
    `step(state, key)` (None skips the segment) and `leaf(state)` ends
    the recursion.  The segments of an axis are disjoint."""
    false = m.false

    def rec(k, st):
        if k == len(axes):
            return leaf(st)
        parts = []
        for cells, key in axes[k]:
            sub = step(st, key)
            if sub is not None:
                sub = rec(k + 1, sub)
                if sub != false:
                    parts.append(m.apply("and", cells, sub))
        if not parts:
            return false
        while len(parts) > 1:
            parts = [parts[i] if i + 1 == len(parts)
                     else m.apply("or", parts[i], parts[i + 1])
                     for i in range(0, len(parts), 2)]
        return parts[0]
    f = rec(0, state)
    del rec  # rec refers to itself; free it without the cyclic collector
    return f


def _arc_leaf(m, vd, out_vars, boxes, memo):
    """`(order, leaf)` of the accepted `boxes` at a periodic output: bit
    `k` of a mask is box `k`, and the leaf is the output cells that
    every covering box allows, looked up within the arc of its first
    covering box.  Two arcs can meet in two pieces, so the leaf is an
    `or` of code ranges over the runs of those cells."""
    n = len(boxes)
    excl = [((1 << n) - 1) ^ c
            for c in _cover([o for _, o in boxes], vd.cells)]

    def leaf(mask):
        i, j = boxes[(mask & -mask).bit_length() - 1][1]
        cells = sorted(c % vd.cells for c in range(i, j + 1)
                       if not mask & excl[c % vd.cells])
        f = m.false
        for _, run in itertools.groupby(enumerate(cells),
                                        lambda t: t[1] - t[0]):
            run = [c for _, c in run]
            f = m.apply("or", f, _range_pred(
                m, vd, (run[0], run[-1]), out_vars, memo))
        return f
    return list(range(n)), leaf


def _range_leaf(m, vd, out_vars, boxes, memo):
    """`(order, leaf)` of the accepted `boxes` at a plain output: bits
    `0..n-1` of a mask number the boxes by lower end descending and bits
    `n..2n-1` by upper end ascending, so the lowest set bit of each half
    gives one end of the intersection of the covering boxes' ranges."""
    n = len(boxes)
    ends = [o for _, o in boxes]
    order = sorted(range(n), key=lambda k: -ends[k][0])
    order += sorted(range(n), key=lambda k: ends[k][1])

    def leaf(mask):
        top = mask >> n
        a = ends[order[(mask & -mask).bit_length() - 1]][0]
        b = ends[order[n + (top & -top).bit_length() - 1]][1]
        return _range_pred(m, vd, (a, b) if a <= b else None, out_vars, memo)
    return order, leaf


def _segments(m, axis, covers, memo):
    """`(cells predicate, cover)` of an input axis: one per covered
    value of a discrete input, one per run of cells with the same cover
    of a continuous one."""
    if axis[1].is_discrete:
        runs = [((c, c), cov) for c, cov in enumerate(covers)]
    else:
        runs, c = [], 0
        for cov, run in itertools.groupby(covers):
            width = sum(1 for _ in run)
            runs.append(((c, c + width - 1), cov))
            c += width
    return [(_cells_pred(m, axis, r, memo), cov) for r, cov in runs if cov]


def _shift_pred(m, levels, k, xs, ds, memo):
    """Predicate `x in xs and y - x in ds` over codes `x` and `y` whose
    msb-first bits interleave as `levels`, one `(x level, y level)` pair
    per bit, read from bit `k` on: one carry recursion that splits both
    codes on their top bit and clips both ranges to what the remaining
    bits can reach, so `memo`, keyed on the clipped state, shares it."""
    size = 1 << (len(levels) - k)
    xl, xh = max(xs[0], 0), min(xs[1], size - 1)
    dl, dh = max(ds[0], 1 - size), min(ds[1], size - 1)
    if xl > xh or dl > dh:
        return m.false
    if xl == 0 and xh == size - 1 and dl == 1 - size and dh == size - 1:
        return m.true
    key = (k, xl, xh, dl, dh)
    f = memo.get(key)
    if f is None:
        half = size >> 1
        lx, ly = levels[k]
        f = m._node(lx, *(m._node(ly, *(
            _shift_pred(m, levels, k + 1, (xl - bx * half, xh - bx * half),
                        (dl - (by - bx) * half, dh - (by - bx) * half), memo)
            for by in (0, 1))) for bx in (0, 1)))
        memo[key] = f
    return f


def _shift_leaf(comp, enc, axes, block, out_vars, per_cell, fell_back):
    """The rule-1 leaf that builds the output's own axis, the lowest
    one, as a shift relation, or None where the module notes say it does
    not apply.  `block` holds each axis's `[(cell range, value)]`,
    `per_cell(xs)` is the per-cell join of the lowest axis under the
    upper axes' values `xs`, and `fell_back` gets one entry per key that
    takes `per_cell` instead."""
    if comp.increment is None or not axes or axes[-1][0] != comp.output:
        return None
    m = enc.m
    name, d, ivd, in_vars = axes[-1]
    cells = ivd.cells
    if (d.is_discrete or d.periodic or len(in_vars) != len(out_vars)
            or [r for r, _ in block[-1]] != [(i, i) for i in range(cells)]):
        return None
    levels = [(m.level_of(x), m.level_of(y))
              for x, y in zip(in_vars, out_vars)]
    flat = [lv for pair in levels for lv in pair]
    if any(a >= b for a, b in zip(flat, flat[1:])):
        return None
    values = [x for _, x in block[-1]]
    w, memo = ivd.width, {}

    def exact(e):
        # does snapping `i + e` for every cell `i` agree with `i` plus
        # the snap of `e`?  The snap tolerance grows with `|i + e|`.
        if not math.isfinite(e):
            return False
        gap = abs(e - round(e))
        return gap <= 1e-12 or gap > 1e-9 * (cells + abs(e) + 2)

    def leaf(xs):
        box = {axis[0]: x for axis, x in zip(axes, xs)}
        g_lo, g_hi = _as_interval(comp.increment(box))
        if not (math.isfinite(g_lo) and math.isfinite(g_hi)):
            return m.false
        e_lo, e_hi = g_lo / w, g_hi / w
        if not (exact(e_lo) and exact(e_hi)):
            fell_back.append(xs)
            return per_cell(xs)
        k_lo = _snap(e_lo, math.floor)
        k_hi = max(_snap(e_hi, math.ceil), k_lo)
        seen = {}

        def inside(i):
            """(lower end in the domain, upper end in the domain) of the
            evaluator on cell `i`, as the per-cell rule checks them."""
            if i not in seen:
                box[name] = values[i]
                a, b = _as_interval(comp.evaluator(box))
                seen[i] = (a >= d.lo, b <= d.hi)
            return seen[i]
        # the closed forms give the run of cells whose successors stay in
        # the domain; each end is monotone in the cell, so the cells
        # next to the closed forms' ends settle them
        i0 = min(max(0, math.ceil(-e_lo)), cells)
        i1 = max(min(cells - 1, math.floor(cells - 1 - e_hi)), -1)
        while i0 > 0 and inside(i0 - 1)[0]:
            i0 -= 1
        while i0 < cells and not inside(i0)[0]:
            i0 += 1
        while i1 < cells - 1 and inside(i1 + 1)[1]:
            i1 += 1
        while i1 >= 0 and not inside(i1)[1]:
            i1 -= 1
        return _shift_pred(m, levels, 0, (i0, i1), (k_lo, k_hi), memo)
    return leaf


def _cell_table(comp, blocks, enc):
    """The closed form of the module notes over the boxes of `blocks`,
    an iterable of maps from every input of `comp` to a list of values
    that is drawn one block at a time, built as one cell table."""
    m = enc.m
    axes = _input_axes(comp, enc)
    names = set(comp.input_names())

    def mapped(block):
        """Per axis of `block`: [(cell range, evaluator value)]."""
        if block.keys() != names:
            raise BddError("sample box must cover exactly %s"
                           % sorted(names))
        return [[rx for rx in (_value_cells(name, d, vd, x)
                               for x in block[name])
                 if rx[0] is not None]
                for name, d, vd, _ in axes]
    values = map(mapped, blocks)
    head = list(itertools.islice(values, 2))
    d = enc.dims[comp.output]
    vd = _view_dim(d, comp.view_bits(d))
    out_vars = enc.next_vars(comp.output)[:vd.bits]
    memo = {}

    def successors(xs):
        """Cell range of the successors of the box of evaluator values
        `xs`, or False when they leave a plain output domain."""
        a, b = _as_interval(comp.evaluator(
            {axis[0]: x for axis, x in zip(axes, xs)}))
        if not d.periodic and (a < d.lo or b > d.hi):
            return False
        return cell_range(vd, (a, b), "half_open")

    if len(head) == 1 and all(
            c & (c - 1) == 0
            for axis, vals in zip(axes, head[0])
            for c in _cover([r for r, _ in vals], axis[2].cells)):
        def leaf(xs):
            rng = successors(xs)
            return m.false if rng is False else _range_pred(
                m, vd, rng, out_vars, memo)

        def step(xs, x):
            return xs + (x,)
        table = [[(_cells_pred(m, axis, r, memo), x) for r, x in vals]
                 for axis, vals in zip(axes, head[0])]
        fell_back = []
        shift = _shift_leaf(
            comp, enc, axes, head[0], out_vars,
            lambda xs: _join(m, table[-1:], step, leaf, xs), fell_back)
        if shift is None:
            return _join(m, table, step, leaf, ()), "cell table, rule 1"
        f = _join(m, table[:-1], step, shift, ())
        return f, "shift path, %d of %d keys fell back" % (
            len(fell_back), math.prod(len(t) for t in table[:-1]))
    boxes = []  # accepted: (input cell ranges, successor cell range)
    for block in itertools.chain(head, values):
        for combo in itertools.product(*block):
            rng = successors(tuple(x for _, x in combo))
            if rng is not False:
                boxes.append((tuple(r for r, _ in combo), rng))
    if not boxes:
        return m.false, "cell table, rule 2"
    order, leaf = (_arc_leaf if d.periodic else _range_leaf)(
        m, vd, out_vars, boxes, memo)
    table = [_segments(m, axis, _cover([boxes[i][0][k] for i in order],
                                       axis[2].cells), memo)
             for k, axis in enumerate(axes)]
    return _join(m, table, lambda mask, cov: mask & cov or None, leaf,
                 (1 << len(order)) - 1), "cell table, rule 2"


def sample_to_interface(comp, box, enc):
    """Abstract one input box into an interface.

    The predicate is `I and O`: `I` covers the grid cells the half-open
    box intersects and `O` the cells of the evaluator's successor
    interval, both at the component's view precision.  Inputs outside
    `I` block, and the whole sample blocks (bottom) when the successor
    interval leaves a non-periodic domain.
    """
    ins, outs = _signature(comp, enc)
    return Interface(enc.m, ins, outs, _cell_table(
        comp, [{name: [x] for name, x in box.items()}], enc)[0])


# -- traversal plans -------------------------------------------------------

@dataclass(frozen=True)
class Exhaustive:
    """Every grid cell of every input dimension, once.

    `bits` optionally coarsens the sampling grid per dimension; the
    default samples at each dimension's view precision.  Its names must
    be dimensions of the encoding, and a component ignores the names it
    does not read.  Discrete controls enumerate their values.
    """

    bits: dict = None


@dataclass(frozen=True)
class RandomRects:
    """`count` random boxes with uniform widths and offsets, clipped to
    the domain; discrete controls pick a uniform value.  Deterministic
    for a fixed seed."""

    count: int
    seed: int = 0


@dataclass(frozen=True)
class ShiftedGrids:
    """One aligned pass per entry of `sizes`, partitioning every
    continuous input dimension into that many equal slices."""

    sizes: tuple


def _grid_block(comp, enc, slices):
    """The block of every value of a discrete input and `slices(d)` equal
    half-open slices of a continuous one."""
    block = {}
    for name in comp.input_names():
        d = enc.dims[name]
        if d.is_discrete:
            block[name] = [(v, v) for v in d.values]
            continue
        n = slices(d)
        step = (d.hi - d.lo) / n
        block[name] = [(d.lo + i * step, d.lo + (i + 1) * step)
                       for i in range(n)]
    return block


def _plan_blocks(comp, plan, enc):
    """The product blocks of `plan`, each a map from every input of
    `comp` to its list of values: one block for `Exhaustive`, one per
    size for `ShiftedGrids`, and one single box per draw for
    `RandomRects`."""
    if isinstance(plan, RandomRects):
        if plan.count < 0:
            raise BddError("sample count must be nonnegative")
        rng = random.Random(plan.seed)
        for _ in range(plan.count):
            block = {}
            for name in comp.input_names():
                d = enc.dims[name]
                if d.is_discrete:
                    block[name] = [rng.choice(d.values)]
                    continue
                width = rng.uniform(0.0, d.hi - d.lo)
                off = rng.uniform(d.lo, d.hi)
                if d.periodic:
                    block[name] = [(off, off + width)]
                else:
                    block[name] = [(off, min(off + width, d.hi))]
            yield block
        return
    if isinstance(plan, Exhaustive):
        bits = plan.bits or {}
        for name, k in bits.items():
            d = enc.dims.get(name)
            if d is None:
                raise BddError("plan bits name no dimension: %r" % (name,))
            if not d.is_discrete and not 0 <= k <= d.bits:
                raise BddError("plan bits %r out of range for %s"
                               % (k, name))
        yield _grid_block(
            comp, enc, lambda d: 1 << bits.get(d.name, comp.view_bits(d)))
        return
    if not isinstance(plan, ShiftedGrids):
        raise BddError("unknown traversal plan %r" % (plan,))
    if not plan.sizes:
        raise BddError("shifted grids need at least one size")
    if any(size < 1 for size in plan.sizes):
        raise BddError("grid size must be positive")
    for size in plan.sizes:
        yield _grid_block(comp, enc, lambda d: size)


def traverse(comp, plan, enc):
    """Merge every sample of `plan` through shared refinement.

    Equivalent to folding `refine` over the samples starting from the
    universal abstraction, so the result abstracts the concrete map and
    grows in the refinement order as samples are added.  The plan's
    boxes are folded into one cell table per input, and one recursion
    over the inputs in level order joins the cells with their
    successors (see the module notes): directly from the one box of
    each cell when the plan is a single block of disjoint values (with
    the output's own axis as one shift relation per key where the
    component declares an increment), else from the bitsets of the
    boxes that cover each cell.  The plan is streamed: the rule is
    chosen after at most two blocks, every later block is mapped and
    evaluated as it is drawn, and the plan is validated as it is drawn
    too.  The path taken is logged at debug level.
    """
    ins, outs = _signature(comp, enc)
    pred, path = _cell_table(comp, _plan_blocks(comp, plan, enc), enc)
    log.debug("traverse %s: %s", comp.name, path)
    return Interface(enc.m, ins, outs, pred)
