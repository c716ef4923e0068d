"""Reduced ordered binary decision diagrams over a fixed variable order.

Predicates are handles (plain ints) into a shared node store owned by a
`BDD` manager.  The constants are `0` (false) and `1` (true); every other
handle names an internal node `(var, lo, hi)` with `lo != hi` and child
variables strictly below `var` in the order.  Hash-consing makes the
representation canonical: two predicates over the same manager are
logically equivalent iff their handles are equal.

Design notes:

- The variable order is fixed at construction.  There is no dynamic
  reordering; callers choose the order when they build their spaces.
- Every operation runs on five kernel factories, each a closure over the
  node store:
  - `_make_node` becomes `m._node`, the one place nodes are made
    (reduction, hash-consing, free-list reuse and the live-node cap);
  - `_make_lattice` serves `and` and `or`, which differ only in their
    terminal cases;
  - `_make_quant` serves `exists` and `forall` (as `_make_exists` and
    `_make_forall`);
  - `_make_not`;
  - `_make_implies_forall`, the one fused kernel: `forall(cube, a -> b)`
    is the controlled-predecessor step of the solver.
- The other operations are derived: `implies` is `not a or b`, `xor` is
  `(a and not b) or (not a and b)`, `and_exists(w, f, g)` is
  `not implies_forall(w, f, not g)`, and `leq(a, b)` holds iff the fused
  kernel over every level gives 1 (it makes no nodes, since every
  result is a constant).  Canonicity makes each derived result
  handle-equal to the one a dedicated kernel would build.
- The kernels that depend on a cube (`exists`, `forall`, the fused one)
  live in one operation cache keyed on (factory, cube), built on first
  use and kept for the manager's life.  Every kernel takes any cube, the
  empty one too: quantifying over nothing is the identity, so each
  public method is a check plus one kernel call.
- The kernels capture the store containers (node arrays, unique table,
  free list, live counter and memo tables) once, when they are built.
  `sweep` therefore mutates those containers in place and never rebinds
  them; a rebound container would leave every kernel on a stale copy.
  Every memo starts empty and a sweep empties them all; no kernel seeds
  its memo, so none needs reseeding.
- One walk, `_reach`, collects the nodes reachable from a set of roots;
  `support`, `node_count` and the mark phase of `sweep` all read it.
- The recursive helpers of single calls (`rename`, `sat_count`,
  `sat_runs`, `to_text`) keep their memos local to the call, so
  `sat_count` memoizes within one call and no count outlives a sweep.
  The helpers refer to themselves, so each call deletes its helper
  before returning; otherwise every call would leave a reference cycle
  for the cyclic garbage collector.
- The kernels refer to themselves too, and live as long as the
  manager.  So a dropped manager empties the containers they captured,
  in place as `sweep` does; otherwise its whole store would wait for
  the cyclic collector.
- Memory is reclaimed only by an explicit `sweep(roots)` between solver
  iterations.  Handles passed as roots (plus any `protect`-ed handles)
  survive a sweep; every other handle becomes invalid.  No operation ever
  invalidates a handle on its own.  The rule for callers is CUDD's: a
  caller keeps a node alive by referencing it.  A solve passes its game,
  its iterates and its current stage as roots, so a handle that outlives
  a solve without belonging to its game must be `protect`-ed.
- Handles are meaningful only for the manager that produced them.  The
  manager rejects out-of-range or swept handles, which catches most
  cross-manager mix-ups; exact manager identity is enforced by the
  interface layer on top.
- A manager is single-owner: it is not thread-safe and must not be shared
  across threads without external locking.
"""

from array import array

# handle packing limits: node index fits in 28 bits, variable in 8
_MAX_NODES = (1 << 28) - 1
_MAX_VARS = 255

_SHIFT = 28
_VSHIFT = 56


class BddError(ValueError):
    """Contract violation in a manager operation."""


class CapacityError(BddError):
    """The live node count exceeded the manager's soft cap."""


class OrderError(BddError):
    """Serialized text whose variable order differs from the manager's."""


def _make_node(m):
    """The node `(v, r0, r1)`, reduced and hash-consed."""
    var, lo, hi = m._var, m._lo, m._hi
    unique = m._unique
    uget = unique.get
    free = m._free
    live = m._live

    def node(v, r0, r1):
        if r0 == r1:
            return r0
        nk = (v << _VSHIFT) | (r0 << _SHIFT) | r1
        r = uget(nk)
        if r is None:
            if free:
                r = free.pop()
                var[r] = v
                lo[r] = r0
                hi[r] = r1
            else:
                # no free slot means every slot is live: r is the live
                # count, which the cap check below keeps in _MAX_NODES
                r = len(var)
                var.append(v)
                lo.append(r0)
                hi.append(r1)
            unique[nk] = r
            live[0] += 1
            if live[0] > live[1]:
                raise CapacityError(
                    "live node count exceeded cap (%d)" % live[1])
        return r

    return node


def _make_lattice(m, zero):
    """`and` for `zero == 0`, `or` for `zero == 1`."""
    one = 1 - zero
    var, lo, hi = m._var, m._lo, m._hi
    node = m._node
    memo = {}
    m._memos.append(memo)
    memo_get = memo.get

    def rec(a, b):
        if a == zero or b == zero:
            return zero
        if a == one:
            return b
        if b == one or a == b:
            return a
        if a > b:
            a, b = b, a
        k = (a << _SHIFT) | b
        r = memo_get(k)
        if r is not None:
            return r
        va, vb = var[a], var[b]
        if va <= vb:
            v, a0, a1 = va, lo[a], hi[a]
        else:
            v, a0, a1 = vb, a, a
        if vb <= va:
            b0, b1 = lo[b], hi[b]
        else:
            b0 = b1 = b
        r = node(v, rec(a0, b0), rec(a1, b1))
        memo[k] = r
        return r

    return rec


def _make_not(m):
    var, lo, hi = m._var, m._lo, m._hi
    memo = {}
    m._memos.append(memo)
    node = m._node

    def rec(a):
        if a < 2:
            return 1 - a
        r = memo.get(a)
        if r is not None:
            return r
        r = node(var[a], rec(lo[a]), rec(hi[a]))
        memo[a] = r
        return r

    return rec


def _make_quant(m, cube, join, stop):
    """Quantify the levels in `cube` (frozenset) out: `exists` joins the
    cofactors with `or` and stops early at 1, `forall` with `and` at 0."""
    var, lo, hi = m._var, m._lo, m._hi
    maxq = max(cube, default=-1)
    node = m._node
    memo = {}
    m._memos.append(memo)

    def rec(f):
        if f < 2:
            return f
        v = var[f]
        if v > maxq:
            return f
        r = memo.get(f)
        if r is not None:
            return r
        if v in cube:
            r = rec(lo[f])
            if r != stop:
                r = join(r, rec(hi[f]))
        else:
            r = node(v, rec(lo[f]), rec(hi[f]))
        memo[f] = r
        return r

    return rec


def _make_exists(m, cube):
    return _make_quant(m, cube, m._or, 1)


def _make_forall(m, cube):
    return _make_quant(m, cube, m._and, 0)


def _make_implies_forall(m, cube):
    """Fused `forall(cube, a -> b)`; equals the composite by construction."""
    var, lo, hi = m._var, m._lo, m._hi
    and_ = m._and
    or_ = m._or
    not_ = m._not
    ex = m._op(_make_exists, cube)
    fa = m._op(_make_forall, cube)
    maxq = max(cube, default=-1)
    node = m._node
    memo = {}
    m._memos.append(memo)

    def rec(a, b):
        if a == 0 or b == 1 or a == b:
            return 1
        if a == 1:
            return fa(b)
        if b == 0:
            return not_(ex(a))
        va, vb = var[a], var[b]
        v = va if va <= vb else vb
        if v > maxq:
            return or_(not_(a), b)
        k = (a << _SHIFT) | b
        r = memo.get(k)
        if r is not None:
            return r
        if va <= vb:
            a0, a1 = lo[a], hi[a]
        else:
            a0 = a1 = a
        if vb <= va:
            b0, b1 = lo[b], hi[b]
        else:
            b0 = b1 = b
        if v in cube:
            r = rec(a0, b0)
            if r != 0:
                r = and_(r, rec(a1, b1))
        else:
            r = node(v, rec(a0, b0), rec(a1, b1))
        memo[k] = r
        return r

    return rec


class BDD:
    """Manager for reduced ordered BDDs over a fixed list of variables.

    Parameters
    ----------
    order : list of str
        Variable names, outermost first.  Names must be distinct,
        non-empty and contain no whitespace.
    cap : int, optional
        Soft limit on the number of live nodes, in `1.._MAX_NODES` (the
        default).  Operations that would push the store past the cap
        raise `CapacityError`.
    """

    def __init__(self, order, cap=None):
        names = list(order)
        if len(names) > _MAX_VARS:
            raise BddError("too many variables (%d > %d)"
                           % (len(names), _MAX_VARS))
        seen = set()
        for name in names:
            if not isinstance(name, str) or not name or name.split() != [name]:
                raise BddError("invalid variable name: %r" % (name,))
            if name in seen:
                raise BddError("duplicate variable name: %r" % (name,))
            seen.add(name)
        if cap is None:
            cap = _MAX_NODES
        elif (not isinstance(cap, int) or isinstance(cap, bool)
              or not 1 <= cap <= _MAX_NODES):
            raise BddError("cap must be an integer in 1..%d, not %r"
                           % (_MAX_NODES, cap))
        self._names = names
        self._level = {name: i for i, name in enumerate(names)}
        n = len(names)
        # slots 0/1 are the constants; their var is the terminal level n
        self._var = array('l', [n, n])
        self._lo = array('l', [0, 1])
        self._hi = array('l', [0, 1])
        self._unique = {}
        self._free = []
        # live[0] = live node count (constants included), live[1] = cap
        self._live = [2, cap]
        self._memos = []
        self._protected = {}
        self._node = _make_node(self)
        self._and = _make_lattice(self, 0)
        self._or = _make_lattice(self, 1)
        self._not = _make_not(self)
        # (factory, cube) -> kernel; see `_op`
        self._ops = {}
        # every level, for `leq`
        self._every_level = frozenset(range(n))

    # -- node store ------------------------------------------------------

    def _check(self, f):
        if not isinstance(f, int) or f < 0 or f >= len(self._var):
            raise BddError("unknown handle: %r" % (f,))
        if f >= 2 and self._lo[f] == self._hi[f]:
            raise BddError("handle %d was swept" % f)
        return f

    # -- basic constructors ----------------------------------------------

    @property
    def true(self):
        return 1

    @property
    def false(self):
        return 0

    @property
    def var_names(self):
        return list(self._names)

    @property
    def size(self):
        """Number of live nodes in the store, constants included."""
        return self._live[0]

    def var(self, name):
        """Handle of the predicate that is true iff `name` is true."""
        return self._node(self.level_of(name), 0, 1)

    def nvar(self, name):
        """Handle of the negated variable `name`."""
        return self._node(self.level_of(name), 1, 0)

    def level_of(self, name):
        try:
            return self._level[name]
        except KeyError:
            raise BddError("unknown variable: %r" % (name,)) from None

    def cube(self, values):
        """Conjunction of literals from a dict mapping name -> bool."""
        f = 1
        for name in sorted(values, key=self.level_of, reverse=True):
            v = self.level_of(name)
            f = self._node(v, 0, f) if values[name] else self._node(v, f, 0)
        return f

    # -- boolean combinators ----------------------------------------------

    def apply(self, op, a, b=None):
        """Combine predicates with `op` in {and, or, xor, implies, not}."""
        self._check(a)
        o = op.lower()
        if o == "not":
            if b is not None:
                raise BddError("'not' is unary")
            return self._not(a)
        if b is None:
            raise BddError("binary op %r needs two operands" % (op,))
        self._check(b)
        if o == "and":
            return self._and(a, b)
        if o == "or":
            return self._or(a, b)
        if o == "xor":
            return self._or(self._and(a, self._not(b)),
                            self._and(self._not(a), b))
        if o == "implies":
            return self._or(self._not(a), b)
        raise BddError("unknown op: %r" % (op,))

    def implies(self, a, b):
        return self._or(self._not(self._check(a)), self._check(b))

    def leq(self, a, b):
        """True iff `a -> b` is valid (a below b pointwise)."""
        self._check(a)
        self._check(b)
        return self._op(_make_implies_forall, self._every_level)(a, b) == 1

    # -- quantifiers -------------------------------------------------------

    def _levels(self, names):
        return frozenset(self.level_of(name) for name in names)

    def _op(self, make, cube):
        """The kernel `make(self, cube)`, built on first use."""
        op = self._ops.get((make, cube))
        if op is None:
            op = self._ops[make, cube] = make(self, cube)
        return op

    def exists(self, names, f):
        """Existentially quantify the variables `names` out of `f`."""
        self._check(f)
        return self._op(_make_exists, self._levels(names))(f)

    def forall(self, names, f):
        """Universally quantify the variables `names` out of `f`."""
        self._check(f)
        return self._op(_make_forall, self._levels(names))(f)

    def and_exists(self, names, f, g):
        """`exists(names, f & g)` without building the conjunction.

        Derived as `not forall(names, f -> not g)` on the fused kernel.
        """
        self._check(f)
        self._check(g)
        cube = self._levels(names)
        return self._not(self._op(_make_implies_forall, cube)(f, self._not(g)))

    def implies_forall(self, names, f, g):
        """`forall(names, f -> g)` without building the implication."""
        self._check(f)
        self._check(g)
        return self._op(_make_implies_forall, self._levels(names))(f, g)

    # -- structure ----------------------------------------------------------

    def rename(self, f, mapping):
        """Substitute variables per `mapping` (old name -> new name).

        The mapping must be injective and must preserve the variable
        order on the support of `f`: sorting the support by its original
        levels must also sort the substituted levels.  All uses in this
        package rename between interleaved adjacent variable blocks,
        which always satisfies the constraint.
        """
        self._check(f)
        lvl_map = {}
        for old, new in mapping.items():
            lo_, ln = self.level_of(old), self.level_of(new)
            lvl_map[lo_] = ln
        if len(set(lvl_map.values())) != len(lvl_map):
            raise BddError("rename map is not injective")
        sup = self._support_levels(f)
        eff = [lvl_map.get(l, l) for l in sorted(sup)]
        if any(x >= y for x, y in zip(eff, eff[1:])):
            raise BddError(
                "rename map must preserve the variable order on the support")
        node = self._node
        var, lo, hi = self._var, self._lo, self._hi
        memo = {0: 0, 1: 1}

        def rec(u):
            r = memo.get(u)
            if r is None:
                v = var[u]
                r = node(lvl_map.get(v, v), rec(lo[u]), rec(hi[u]))
                memo[u] = r
            return r

        r = rec(f)
        del rec
        return r

    def _reach(self, roots):
        """The set of internal nodes reachable from `roots`."""
        lo, hi = self._lo, self._hi
        seen = set()
        stack = list(roots)
        while stack:
            u = stack.pop()
            if u < 2 or u in seen:
                continue
            seen.add(u)
            stack.append(lo[u])
            stack.append(hi[u])
        return seen

    def _support_levels(self, f):
        var = self._var
        return {var[u] for u in self._reach([f])}

    def support(self, f):
        """Set of variable names `f` depends on."""
        self._check(f)
        return {self._names[l] for l in self._support_levels(f)}

    def node_count(self, f):
        """Number of internal nodes reachable from `f` (constants free)."""
        return len(self._reach([self._check(f)]))

    def sat_count(self, f, support=None):
        """Number of satisfying assignments over `support`.

        `support` defaults to the whole variable order and must contain
        the support of `f`.
        """
        self._check(f)
        n = len(self._names)
        if support is None:
            width = n
        else:
            sup_levels = frozenset(self.level_of(s) for s in support)
            width = len(sup_levels)
            if not self._support_levels(f) <= sup_levels:
                raise BddError("support does not cover the predicate")
        var, lo, hi = self._var, self._lo, self._hi
        memo = {}

        def rec(u):
            if u == 1:
                return 1
            if u == 0:
                return 0
            c = memo.get(u)
            if c is None:
                l, h = lo[u], hi[u]
                c = ((rec(l) << (var[l] - var[u] - 1))
                     + (rec(h) << (var[h] - var[u] - 1)))
                memo[u] = c
            return c

        total = rec(f) << self._var[f] if f >= 2 else (1 << n) * f
        del rec
        return total >> (n - width)

    def eval(self, f, assignment):
        """Evaluate `f` under a dict name -> bool.

        Variables encountered on the evaluation path must be assigned;
        a missing one raises `BddError`.
        """
        self._check(f)
        var, lo, hi = self._var, self._lo, self._hi
        names = self._names
        u = f
        while u >= 2:
            name = names[var[u]]
            try:
                val = assignment[name]
            except KeyError:
                raise BddError(
                    "missing assignment for variable %r" % name) from None
            u = hi[u] if val else lo[u]
        return u == 1

    def sat_runs(self, f, names):
        """Yield `(start, length)` runs of satisfying codes of `f`.

        `names` lists variables msb-first; it must cover the support of
        `f`.  Codes interpret the listed variables as an unsigned integer.
        Runs come out in increasing order and adjacent runs are merged.
        """
        self._check(f)
        levels = [self.level_of(s) for s in names]
        if any(x >= y for x, y in zip(levels, levels[1:])):
            raise BddError("sat_runs variables must be in order")
        if not self._support_levels(f) <= set(levels):
            raise BddError("support does not cover the predicate")
        var, lo, hi = self._var, self._lo, self._hi
        n = len(levels)
        pending = None

        def rec(u, pos, base):
            nonlocal pending
            if u == 0:
                return
            span = 1 << (n - pos)
            if u == 1:
                if pending is not None and pending[0] + pending[1] == base:
                    pending = (pending[0], pending[1] + span)
                else:
                    if pending is not None:
                        runs.append(pending)
                    pending = (base, span)
                return
            v = var[u]
            if pos < n and levels[pos] == v:
                rec(lo[u], pos + 1, base)
                rec(hi[u], pos + 1, base + (span >> 1))
            else:
                rec(u, pos + 1, base)
                rec(u, pos + 1, base + (span >> 1))

        runs = []
        rec(f, 0, 0)
        del rec
        if pending is not None:
            runs.append(pending)
        return runs

    # -- serialization -------------------------------------------------------

    def to_text(self, f):
        """Serialize `f` as deterministic text (see `from_text`)."""
        self._check(f)
        var, lo, hi = self._var, self._lo, self._hi
        names = self._names
        lines = ["vars: " + " ".join(names)]
        ids = {0: 0, 1: 1}

        def rec(u):
            if u in ids:
                return ids[u]
            i0 = rec(lo[u])
            i1 = rec(hi[u])
            i = len(ids)
            ids[u] = i
            lines.append("%d %s %d %d" % (i, names[var[u]], i0, i1))
            return i

        root = rec(f)
        del rec
        lines.append("root %d" % root)
        return "\n".join(lines) + "\n"

    def from_text(self, text):
        """Rebuild a predicate saved by `to_text`.

        The file's variables must all exist in this manager with the same
        relative order; extra manager variables are fine.  Returns the
        root handle.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("vars:"):
            raise BddError("missing 'vars:' header")
        file_vars = lines[0][5:].split()
        levels = []
        for name in file_vars:
            levels.append(self.level_of(name))
        if any(x >= y for x, y in zip(levels, levels[1:])):
            raise OrderError("the file's variable order differs from "
                             "this manager's")
        if not lines[-1].startswith("root "):
            raise BddError("missing 'root' line")
        try:
            root_id = int(lines[-1].split()[1])
        except (IndexError, ValueError):
            raise BddError("malformed root line: %r" % lines[-1]) from None
        ids = {0: 0, 1: 1}
        for ln in lines[1:-1]:
            parts = ln.split()
            if len(parts) != 4:
                raise BddError("malformed node line: %r" % ln)
            try:
                i, name, i0, i1 = (int(parts[0]), parts[1],
                                   int(parts[2]), int(parts[3]))
            except ValueError:
                raise BddError("malformed node line: %r" % ln) from None
            if i in ids:
                raise BddError("duplicate node id %d" % i)
            if i0 not in ids or i1 not in ids:
                raise BddError("node %d references undefined children" % i)
            v = self.level_of(name)
            r0, r1 = ids[i0], ids[i1]
            # the constants sit at the terminal level, below every variable
            if self._var[r0] <= v or self._var[r1] <= v:
                raise BddError("node %d has a child that is not below "
                               "its variable %r" % (i, name))
            ids[i] = self._node(v, r0, r1)
        if root_id not in ids:
            raise BddError("root id %d is undefined" % root_id)
        return ids[root_id]

    # -- storage management ---------------------------------------------------

    def protect(self, f):
        """Pin `f` so it survives every sweep (refcounted)."""
        self._check(f)
        self._protected[f] = self._protected.get(f, 0) + 1
        return f

    def unprotect(self, f):
        c = self._protected.get(f, 0)
        if c <= 1:
            self._protected.pop(f, None)
        else:
            self._protected[f] = c - 1

    def sweep(self, roots=()):
        """Reclaim every node not reachable from `roots` or protected.

        Handles other than the surviving ones become invalid.  Every
        kernel's memo is emptied.  Returns (live, freed) counts.
        """
        var, lo, hi = self._var, self._lo, self._hi
        keep = self._reach([*map(self._check, roots), *self._protected])
        unique = self._unique
        unique.clear()
        freed = 0
        free = self._free
        del free[:]
        for u in range(2, len(var)):
            if u in keep:
                unique[(var[u] << _VSHIFT) | (lo[u] << _SHIFT) | hi[u]] = u
            elif lo[u] != hi[u]:
                lo[u] = hi[u] = -1
                free.append(u)
                freed += 1
            else:
                free.append(u)
        for memo in self._memos:
            memo.clear()
        self._live[0] = len(keep) + 2
        return len(keep), freed

    def __del__(self):
        # the kernels sit in reference cycles; free what they captured
        if hasattr(self, "_ops"):  # not if __init__ raised
            for store in (self._var, self._lo, self._hi, self._free):
                del store[:]
            for table in (self._unique, *self._memos):
                table.clear()
