"""Bit-vector encodings of continuous intervals and discrete value sets.

A continuous dimension `[lo, hi)` with `b` bits is split into `2**b`
half-open cells of equal width, indexed msb-first by their bit codes.  A
discrete dimension enumerates its values in order.  Periodic dimensions
wrap: the cell partition always has a power-of-two bin count, so
wrap-around lands on cell boundaries.

Conventions used throughout the package:

- cells are half-open `[c, c + w)`; a point on a boundary belongs to the
  cell on its right, and the top endpoint of a non-periodic domain
  belongs to the last cell;
- `cell_range` is the one place where a continuous interval lands on
  cells, and it reads the interval in one of three ways:
  - `inner`: the cells inside the closed interval;
  - `outer`: the cells the closed interval touches;
  - `half_open`: the cells the half-open interval `[a, b)` meets, as
    for an input box or a successor interval, except that a point keeps
    the cell that holds it;
- on every side, an interval end whose cell coordinate is within a
  relative 1e-9 of a whole number is snapped onto that cell boundary.
"""

import math
import numbers
import re
from dataclasses import dataclass

from relsynth.bdd import BDD, BddError
from relsynth.interfaces import Interface


def _snap(t, rounding, eps=1e-9):
    """`t` rounded by `rounding` (`math.floor` or `math.ceil`), or the
    whole number within a relative `eps` of it."""
    r = round(t)
    if abs(t - r) <= eps * max(1.0, abs(t)):
        return int(r)
    return rounding(t)


def _finite(x):
    """A finite real number, and not a boolean; an integer beyond the
    float range is not one."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) \
            and math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class Dimension:
    """One coordinate of a space, continuous or discrete."""

    name: str
    bits: int
    lo: float = None
    hi: float = None
    periodic: bool = False
    values: tuple = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise BddError("dimension name %r is not a string" % (self.name,))
        if not isinstance(self.bits, int) or isinstance(self.bits, bool) \
                or self.bits < 0:
            raise BddError("bits must be a nonnegative integer")
        if not isinstance(self.periodic, bool):
            raise BddError("periodic must be true or false")
        if self.values is None:
            if not (_finite(self.lo) and _finite(self.hi)
                    and self.lo < self.hi):
                raise BddError("continuous dimension %r needs finite "
                               "lo < hi" % self.name)
        else:
            if self.periodic:
                raise BddError("discrete dimensions cannot be periodic")
            if not all(map(_finite, self.values)):
                raise BddError("discrete values must be finite numbers")
            if len(set(self.values)) != len(self.values):
                raise BddError("discrete values must be distinct")
            if not 1 <= len(self.values) <= (1 << self.bits):
                raise BddError(
                    "%d values do not fit in %d bits"
                    % (len(self.values), self.bits))

    @classmethod
    def continuous(cls, name, lo, hi, bits, periodic=False):
        # convert only checked bounds: float() takes "1.5" and fails on "a"
        if _finite(lo) and _finite(hi):
            lo, hi = float(lo), float(hi)
        return cls(name, bits, lo, hi, periodic)

    @classmethod
    def discrete(cls, name, values, bits=None):
        try:
            values = tuple(values)
        except TypeError:
            raise BddError("discrete values %r are not a sequence"
                           % (values,))
        if bits is None:
            bits = max(1, math.ceil(math.log2(len(values)))) if len(values) > 1 else 0
        return cls(name, bits, values=values)

    @property
    def is_discrete(self):
        return self.values is not None

    @property
    def cells(self):
        """Number of valid cell indices."""
        if self.is_discrete:
            return len(self.values)
        return 1 << self.bits

    @property
    def width(self):
        if self.is_discrete:
            raise BddError("discrete dimensions have no cell width")
        return (self.hi - self.lo) / (1 << self.bits)

    @property
    def period(self):
        return self.hi - self.lo


def cell_box(dim, idx):
    """Closed lower / open upper bounds of cell `idx` of a continuous dim."""
    if dim.is_discrete:
        raise BddError("cell_box needs a continuous dimension")
    if not 0 <= idx < dim.cells:
        raise BddError("cell index %d out of range" % idx)
    w = dim.width
    return (dim.lo + idx * w, dim.lo + (idx + 1) * w)


def point_cell(dim, x):
    """Cell index containing the finite point `x` (half-open cells); a
    discrete dimension's value matches within a relative 1e-9."""
    if not _finite(x):
        raise BddError("point %r is not a finite number" % (x,))
    if dim.is_discrete:
        for i, v in enumerate(dim.values):
            if abs(x - v) <= 1e-9 * max(1.0, abs(v)):
                return i
        raise BddError("%r is not a value of %s" % (x, dim.name))
    if dim.periodic:
        x = dim.lo + (x - dim.lo) % dim.period
    elif not dim.lo <= x <= dim.hi:
        raise BddError("point %r outside [%r, %r]" % (x, dim.lo, dim.hi))
    return min(int((x - dim.lo) / dim.width), dim.cells - 1)


def code_range(m, bit_vars, a, b):
    """Predicate `a <= code <= b` over msb-first bit variables.

    Built in one top-down split of `[a, b]` over the bits, so only the
    nodes of the result are made; the bits must follow the manager's
    variable order.
    """
    levels = [m.level_of(v) for v in bit_vars]
    if any(x >= y for x, y in zip(levels, levels[1:])):
        raise BddError("code bits %r are not in manager order" % (bit_vars,))

    def rec(k, lo, hi):
        # codes lo..hi of the block below bit k, clipped to the block
        size = 1 << (len(levels) - k)
        lo, hi = max(lo, 0), min(hi, size - 1)
        if lo > hi:
            return m.false
        if lo == 0 and hi == size - 1:
            return m.true
        half = size >> 1
        return m._node(levels[k], rec(k + 1, lo, hi),
                       rec(k + 1, lo - half, hi - half))
    f = rec(0, a, b)
    del rec  # rec refers to itself; free it without the cyclic collector
    return f


def cell_range(dim, interval, side):
    """Cell range `(i, j)` of a continuous dimension, or None if empty.

    `side` is `inner`, `outer` or `half_open` (see the module notes).
    On periodic dimensions `a > b` crosses the seam, a whole turn gives
    every cell, and `j` may pass the last cell, in which case the range
    wraps on to the first.  On plain ones the range is clipped to the
    grid, and on the `outer` and `half_open` sides the top of the domain
    lies in the last cell; checking the interval against the domain is
    the caller's job.  Ends within the snap tolerance of a cell boundary
    count as on it.  Ends must be finite.
    """
    a, b = interval
    if not (math.isfinite(a) and math.isfinite(b)):
        raise BddError("interval %r has a non-finite end" % ((a, b),))
    cells, w = dim.cells, dim.width
    if dim.periodic:
        if b - a >= dim.period:
            return 0, cells - 1
        width = (b - a) % dim.period
        a = dim.lo + (a - dim.lo) % dim.period
        b = a + width
    ta, tb = (a - dim.lo) / w, (b - dim.lo) / w
    if side == "inner":
        i, j = _snap(ta, math.ceil), _snap(tb, math.floor) - 1
    elif side == "outer":
        i, j = _snap(ta, math.floor), _snap(tb, math.floor)
    elif side == "half_open":
        i = _snap(ta, math.floor)
        j = max(_snap(tb, math.ceil) - 1, i)
    else:
        raise BddError("side must be inner, outer or half_open")
    if not dim.periodic:
        top = cells if side == "inner" else cells - 1
        i, j = min(max(i, 0), top), min(j, cells - 1)
    elif j - i + 1 >= cells:
        return 0, cells - 1
    elif i >= cells:
        i, j = i - cells, j - cells
    return (i, j) if i <= j else None


def encode_set(m, dim, interval, bit_vars, mode="inner"):
    """Cells of `dim` covered by (`inner`) or touching (`outer`) `interval`.

    The interval is closed.  On periodic dimensions `a > b` wraps around
    the seam; on plain ones it is an error, as are endpoints outside the
    domain.  A degenerate interval has no inner cells but still has an
    outer cell.
    """
    if mode not in ("inner", "outer"):
        raise BddError("mode must be 'inner' or 'outer'")
    a, b = interval
    if dim.is_discrete:
        f = m.false
        for i, v in enumerate(dim.values):
            if a <= v <= b:
                f = m.apply("or", f, code_range(m, bit_vars, i, i))
        return f
    if not dim.periodic:
        if a > b:
            raise BddError("interval %r is inverted" % ((a, b),))
        if a < dim.lo - 1e-9 or b > dim.hi + 1e-9:
            raise BddError("interval %r outside the domain" % ((a, b),))
    rng = cell_range(dim, (a, b), mode)
    if rng is None:
        return m.false
    i, j = rng
    if j < dim.cells:
        return code_range(m, bit_vars, i, j)
    return m.apply("or", code_range(m, bit_vars, i, dim.cells - 1),
                   code_range(m, bit_vars, 0, j - dim.cells))


def quantizer(m, fine_vars, coarse_vars, keep, input_side="coarse"):
    """Interface tying the top `keep` bits of two equal-width vectors.

    The predicate is `AND_k<keep (fine_k == coarse_k)`; the remaining
    bits float free, so with `keep == 0` the quantizer is the all-true
    interface and with `keep == len(fine_vars)` it is the identity.
    `input_side` picks which vector is the input ('coarse' or 'fine').
    """
    if len(fine_vars) != len(coarse_vars):
        raise BddError("quantizer vectors must have equal width")
    if not 0 <= keep <= len(fine_vars):
        raise BddError("keep=%d out of range" % keep)
    pred = m.true
    for k in range(keep - 1, -1, -1):
        eq = m.apply("not",
                     m.apply("xor", m.var(fine_vars[k]),
                             m.var(coarse_vars[k])))
        pred = m.apply("and", eq, pred)
    if input_side == "coarse":
        return Interface(m, coarse_vars, fine_vars, pred)
    if input_side == "fine":
        return Interface(m, fine_vars, coarse_vars, pred)
    raise BddError("input_side must be 'coarse' or 'fine'")


class Encoding:
    """Variable layout for a control system over one manager.

    Each state dimension owns an interleaved block: current bit k sits
    right above next-state bit k (`px_0, px+_0, px_1, px+_1, ...`), so
    transition relations and current/next renaming stay small.  A
    control dimension owns a block of its own bits.  `level_order` lists
    every dimension name once and places the blocks in the manager's
    variable order, outermost first; by default the state blocks come in
    declaration order and the control blocks after them.

    The level order only shapes the diagrams.  Cell codes, and every
    variable list this class hands out (`state_vars`, `all_state_vars`
    and the rest), follow the declaration order of the dimension lists.
    Since the level order moves whole blocks, among the current-state
    bits each dimension's bits stay adjacent and msb-first in any order;
    `cell_runs` relies on that to read a predicate's cells in
    declaration order off the encoding's own diagram.
    """

    def __init__(self, state_dims, control_dims=(), cap=None,
                 level_order=None):
        self.state_dims = list(state_dims)
        self.control_dims = list(control_dims)
        self.dims = {}
        blocks = {}
        self._state_vars = {}
        self._next_vars = {}
        self._control_vars = {}
        for d in self.state_dims:
            if d.name in self.dims:
                raise BddError("duplicate dimension name %r" % d.name)
            self.dims[d.name] = d
            cur = ["%s_%d" % (d.name, k) for k in range(d.bits)]
            nxt = ["%s+_%d" % (d.name, k) for k in range(d.bits)]
            blocks[d.name] = [v for pair in zip(cur, nxt) for v in pair]
            self._state_vars[d.name] = cur
            self._next_vars[d.name] = nxt
        for d in self.control_dims:
            if d.name in self.dims:
                raise BddError("duplicate dimension name %r" % d.name)
            self.dims[d.name] = d
            vs = ["%s_%d" % (d.name, k) for k in range(d.bits)]
            blocks[d.name] = vs
            self._control_vars[d.name] = vs
        if level_order is None:
            level_order = list(self.dims)
        elif sorted(level_order) != sorted(self.dims):
            raise BddError("level order %r must name every dimension once"
                           % (list(level_order),))
        self.m = BDD([v for name in level_order for v in blocks[name]],
                     cap=cap)
        self.prime_map = {}
        for d in self.state_dims:
            for c, n in zip(self._state_vars[d.name], self._next_vars[d.name]):
                self.prime_map[c] = n
        self.unprime_map = {n: c for c, n in self.prime_map.items()}

    def state_vars(self, name):
        return list(self._state_vars[name])

    def next_vars(self, name):
        return list(self._next_vars[name])

    def control_vars(self, name):
        return list(self._control_vars[name])

    @property
    def all_state_vars(self):
        return [v for d in self.state_dims for v in self._state_vars[d.name]]

    @property
    def all_next_vars(self):
        return [v for d in self.state_dims for v in self._next_vars[d.name]]

    @property
    def all_control_vars(self):
        return [v for d in self.control_dims
                for v in self._control_vars[d.name]]

    def control_domain(self):
        """Codes naming actual control values (discrete dims constrain)."""
        f = self.m.true
        for d in self.control_dims:
            if d.is_discrete:
                f = self.m.apply("and", f, code_range(
                    self.m, self._control_vars[d.name], 0, d.cells - 1))
        return f

    def state_box(self, box, mode="inner", role="state"):
        """Conjunction of per-dimension set encodings over state bits.

        `box` maps dimension names to closed intervals; missing
        dimensions are unconstrained.  `role` is 'state' or 'next'.
        """
        vars_of = self._state_vars if role == "state" else self._next_vars
        f = self.m.true
        for name, iv in box.items():
            d = self.dims.get(name)
            if d is None or name not in vars_of:
                raise BddError("unknown state dimension %r" % name)
            f = self.m.apply(
                "and", f, encode_set(self.m, d, iv, vars_of[name], mode))
        return f

    def _assignment(self, point, vars_of):
        """Bit assignment (name -> bool) of the cell containing `point`,
        over the variables `vars_of` gives each dimension."""
        asg = {}
        for name, x in point.items():
            d = self.dims[name]
            idx = point_cell(d, x)
            for k, v in enumerate(vars_of[name]):
                asg[v] = bool((idx >> (d.bits - 1 - k)) & 1)
        return asg

    def state_assignment(self, point, role="state"):
        """Bit assignment of the state cell containing `point`; `role` is
        'state' or 'next'."""
        return self._assignment(point, self._state_vars if role == "state"
                                else self._next_vars)

    def control_assignment(self, point):
        """Bit assignment of the control cell containing `point`."""
        return self._assignment(point, self._control_vars)

    def cell_runs(self, pred):
        """Maximal runs `(start, length)` of the state cells in `pred`.

        Cell codes concatenate the state dimensions' bits msb-first in
        declaration order.  The level order only permutes whole state
        blocks, so `sat_runs` over the state bits in level order reads
        the same cells under a code whose blocks are permuted.  If the
        blocks sit in declaration order, those runs are the answer.
        Otherwise each run is written, one stretch of the lowest block
        at a time, into a byte map indexed by declaration code
        (`2**bits` bytes), and the runs are read back off the map.
        Either way the call makes no node.
        """
        m, xs = self.m, self._state_vars
        decl = [d for d in self.state_dims if d.bits]
        dims = sorted(decl, key=lambda d: m.level_of(xs[d.name][0]))
        runs = m.sat_runs(pred, [v for d in dims for v in xs[d.name]])
        if dims == decl:
            return runs
        # (shift, mask, weight) of each block's digit, lowest block
        # first: its place in a level-order code, its weight in a
        # declaration-order one
        digits, shift = [], 0
        for d in reversed(dims):
            low = sum(e.bits for e in decl[decl.index(d) + 1:])
            digits.append((shift, (1 << d.bits) - 1, 1 << low))
            shift += d.bits
        step, span = digits[0][2], 1 << dims[-1].bits
        cells = bytearray(1 << shift)
        for start, length in runs:
            c, end = start, start + length
            while c < end:
                n = min(end - c, span - c % span)
                base = sum((c >> s & mask) * w for s, mask, w in digits)
                cells[base:base + n * step:step] = b"\xff" * n
                c += n
        return [(r.start(), r.end() - r.start())
                for r in re.finditer(rb"\xff+", cells)]

    def count_states(self, pred):
        """Number of state cells in a predicate over current-state bits."""
        return self.m.sat_count(pred, self.all_state_vars)
