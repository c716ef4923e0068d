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
single box per block for `RandomRects`).  With `I = C_1 and ... and C_n`
over a block's inputs, the identity `(a and b) -> o = a -> (b -> o)`
nests both parts of a block as one recursion over its inputs, in BDD
level order:

    nb = OR_c (C_c and nb_c)        io = AND_c (C_c -> io_c)

down to `(1, O)` for an accepted box and `(0, 1)` for a blocked one, so
each value is encoded once and no per-sample `and` tree is built.
`traverse` joins the blocks' parts with balanced trees as
`(OR nb) and (AND io)`; this needs no disjointness of the boxes, and
the tests pin the equality with the `refine` fold.

Samples whose successor interval escapes a non-periodic state domain
yield the bottom interface: the abstraction blocks those inputs, which
keeps every synthesized controller inside the modeled region.
"""

import itertools
import math
import random
from dataclasses import dataclass

from relsynth.bdd import BddError
from relsynth.interfaces import Interface
from relsynth.spaces import Dimension, cell_range, code_range, encode_set

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
    a, b = _as_interval(a), _as_interval(b)
    return a[0] + b[0], a[1] + b[1]


def imul(a, b):
    a, b = _as_interval(a), _as_interval(b)
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def _contains_multiple(lo, hi, offset, period=_TWO_PI):
    """Does [lo, hi] contain offset + period * k for some integer k?"""
    return (math.ceil((lo - offset) / period)
            <= math.floor((hi - offset) / period))


def icos(lo, hi):
    """Exact range of cos over [lo, hi]."""
    (lo, hi) = _as_interval((lo, hi))
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


def wrap_interval(lo, hi, dom_lo, dom_hi):
    """Shift an interval so its left end lies inside a periodic domain.

    Keeps the width; the right end may stick past `dom_hi`, which the
    set encoder interprets as crossing the seam.  Widths of a full
    period or more cover the whole domain.
    """
    period = dom_hi - dom_lo
    if hi - lo >= period:
        return dom_lo, dom_hi
    s = math.fmod(lo - dom_lo, period)
    if s < 0:
        s += period
    return dom_lo + s, dom_lo + s + (hi - lo)


# -- dynamics components ---------------------------------------------------

@dataclass(frozen=True)
class DynamicsComponent:
    """One block of a factored transition map.

    `evaluator` maps a dict of input intervals (scalars for discrete
    controls) to a superset interval of the output dimension's next
    value, and must be inclusion-monotone.  `view` optionally lowers
    the bit precision used for named dimensions; kept bits are the most
    significant ones and default to full precision.
    """

    name: str
    state_inputs: tuple
    control_inputs: tuple
    output: str
    evaluator: object
    view: dict = None

    def input_names(self):
        return tuple(self.state_inputs) + tuple(self.control_inputs)

    def view_bits(self, dim):
        k = (self.view or {}).get(dim.name, dim.bits)
        if not 0 <= k <= dim.bits:
            raise BddError("view %r out of range for %s" % (k, dim.name))
        return k


def _dubins_px(box, length):
    return iadd(box["px"], imul(box["v"], icos(*_as_interval(box["theta"]))))


def _dubins_py(box, length):
    return iadd(box["py"], imul(box["v"], isin(*_as_interval(box["theta"]))))


def _dubins_theta(box, length):
    v = _as_interval(box["v"])
    turn = imul((v[0] / length, v[1] / length),
                isin(*_as_interval(box["omega"])))
    lo, hi = iadd(box["theta"], turn)
    return wrap_interval(lo, hi, -math.pi, math.pi)


_DUBINS = {
    "px": (_dubins_px, ("px", "theta"), ("v",)),
    "py": (_dubins_py, ("py", "theta"), ("v",)),
    "theta": (_dubins_theta, ("theta",), ("v", "omega")),
}


def interval_eval_dubins(name, box, length=DUBINS_LENGTH):
    """Interval extension of one planar-vehicle component.

    `name` is 'px', 'py' or 'theta'; `box` maps that component's inputs
    to intervals or scalars.  The heading result is wrapped so its left
    end lies in [-pi, pi).
    """
    try:
        fn = _DUBINS[name][0]
    except KeyError:
        raise BddError("unknown component %r" % (name,)) from None
    return fn(box, length)


def dubins_components(length=DUBINS_LENGTH, view=None):
    """The three planar-vehicle blocks: position pair and heading."""
    out = []
    for name, (fn, sin, cin) in _DUBINS.items():
        out.append(DynamicsComponent(
            name, sin, cin, name,
            (lambda b, _fn=fn: _fn(b, length)), view))
    return out


# -- sampling --------------------------------------------------------------

def _view_dim(d, k):
    if k == d.bits:
        return d
    return Dimension(d.name, k, d.lo, d.hi, d.periodic, d.values)


def _dim_vars(enc, name, role):
    if role == "control":
        return enc.control_vars(name)
    return enc.state_vars(name)


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


def _encode_value(comp, enc, name, bit_vars, value, memo):
    """(cell predicate, evaluator value) of one value of input `name`.

    A continuous value is a half-open box side: its predicate covers the
    cells it meets at the component's view precision, and the evaluator
    gets the closure of those cells, so every accepted cell's points are
    accounted for.  The predicate is false if the value covers no cell.
    A discrete value must be one of the dimension's values.
    """
    m = enc.m
    d = enc.dims[name]
    lo, hi = _as_interval(value)
    if d.is_discrete:
        if lo != hi or lo not in d.values:
            raise BddError("discrete input %s needs a single valid value"
                           % name)
        return encode_set(m, d, (lo, hi), bit_vars, "outer"), lo
    if not d.periodic and (lo < d.lo - 1e-9 or hi > d.hi + 1e-9):
        raise BddError("input box for %s is outside its domain" % name)
    vd = _view_dim(d, comp.view_bits(d))
    rng = cell_range(vd, (lo, hi), "half_open")
    if rng is None:
        return m.false, None
    i, j = rng
    return (_range_pred(m, vd, rng, bit_vars[:vd.bits], memo),
            (d.lo + i * vd.width,
             d.hi if j + 1 == vd.cells else d.lo + (j + 1) * vd.width))


def _block_parts(comp, block, enc, memo):
    """`(nb, io)` of one product block, a map from every input of `comp`
    to a list of values: `OR I` and `AND (I -> O)` over the block's
    boxes whose successors stay in the output domain, built by the
    recursion of the module notes with each value encoded once.  The
    inputs are taken by the level of their first bit, top first, so each
    join puts one input's cell predicates above the diagrams of the
    inputs below it.  `memo` is the cell predicate memo of `_range_pred`.
    """
    m = enc.m
    if set(block) != set(comp.input_names()):
        raise BddError("sample box must cover exactly %s"
                       % sorted(comp.input_names()))
    axes = []
    for role, names in (("state", comp.state_inputs),
                        ("control", comp.control_inputs)):
        for name in names:
            bit_vars = _dim_vars(enc, name, role)
            values = [_encode_value(comp, enc, name, bit_vars, x, memo)
                      for x in block[name]]
            axes.append((m.level_of(bit_vars[0]) if bit_vars else -1, name,
                         [(c, x) for c, x in values if c != m.false]))
    axes.sort(key=lambda axis: axis[0])
    d = enc.dims[comp.output]
    vd = _view_dim(d, comp.view_bits(d))
    out_vars = enc.next_vars(comp.output)[:vd.bits]
    ev_box = {}

    def rec(k):
        if k == len(axes):
            a, b = _as_interval(comp.evaluator(dict(ev_box)))
            if not d.periodic and (a < d.lo or b > d.hi):
                return m.false, m.true
            return m.true, _range_pred(
                m, vd, cell_range(vd, (a, b), "half_open"), out_vars, memo)
        name = axes[k][1]
        nbs, ios = [], []
        for cells, x in axes[k][2]:
            ev_box[name] = x
            nb, io = rec(k + 1)
            if nb != m.false:  # then io is true: the value adds nothing
                nbs.append(m.apply("and", cells, nb))
                ios.append(m.apply("implies", cells, io))
        return _tree(m, "or", nbs, m.false), _tree(m, "and", ios, m.true)
    parts = rec(0)
    del rec  # rec refers to itself; free it without the cyclic collector
    return parts


def sample_to_interface(comp, box, enc):
    """Abstract one input box into an interface.

    The predicate is `I and O`: `I` covers the grid cells the half-open
    box intersects and `O` the cells of the evaluator's successor
    interval, both at the component's view precision.  Inputs outside
    `I` block, and the whole sample blocks (bottom) when the successor
    interval leaves a non-periodic domain.
    """
    m = enc.m
    ins, outs = _signature(comp, enc)
    nb, io = _block_parts(comp, {name: [x] for name, x in box.items()},
                          enc, {})
    return Interface(m, ins, outs, m.apply("and", nb, io))


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


def _plan_boxes(comp, plan, enc):
    """Every sample box of `plan`: its blocks flattened."""
    for block in _plan_blocks(comp, plan, enc):
        for combo in itertools.product(*block.values()):
            yield dict(zip(block, combo))


def _tree(m, op, parts, unit):
    if not parts:
        return unit
    while len(parts) > 1:
        parts = [parts[i] if i + 1 == len(parts)
                 else m.apply(op, parts[i], parts[i + 1])
                 for i in range(0, len(parts), 2)]
    return parts[0]


def traverse(comp, plan, enc):
    """Merge every sample of `plan` through shared refinement.

    Equivalent to folding `refine` over the samples starting from the
    universal abstraction, so the result abstracts the concrete map and
    grows in the refinement order as samples are added.  Each block of
    the plan gives its `(nb, io)` from one nested recursion, and
    balanced trees join the blocks as `(OR nb) and (AND io)` (see the
    module notes).
    """
    m = enc.m
    ins, outs = _signature(comp, enc)
    nb_parts, io_parts = [], []
    # cell predicates repeat across blocks; traverse never sweeps
    memo = {}
    for block in _plan_blocks(comp, plan, enc):
        nb, io = _block_parts(comp, block, enc, memo)
        nb_parts.append(nb)
        io_parts.append(io)
    pred = m.apply("and", _tree(m, "or", nb_parts, m.false),
                   _tree(m, "and", io_parts, m.true))
    return Interface(m, ins, outs, pred)
