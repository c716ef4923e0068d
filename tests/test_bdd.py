"""Predicate engine tests against brute-force truth-table oracles."""

import gc
import random
import tracemalloc

import pytest

from relsynth.bdd import _MAX_NODES, BDD, BddError, CapacityError
from util import (assignments, build_expr, expr_table, rand_expr, rand_pred,
                  truth_table)


def test_constants_and_vars():
    m = BDD(["a", "b"])
    assert m.false == 0
    assert m.true == 1
    a = m.var("a")
    assert m.node_count(m.false) == 0
    assert m.node_count(a) == 1
    assert m.node_count(m.apply("and", a, m.var("b"))) == 2
    assert m.nvar("a") == m.apply("not", a)
    with pytest.raises(BddError):
        m.var("z")


def test_duplicate_and_bad_names_rejected():
    with pytest.raises(BddError):
        BDD(["a", "a"])
    with pytest.raises(BddError):
        BDD(["a", "has space"])
    with pytest.raises(BddError):
        BDD([""])


def test_apply_matches_expression_oracle():
    # the expression tree evaluator is an independent pure-Python oracle
    names = ["v%d" % i for i in range(9)]
    m = BDD(names)
    rng = random.Random(100)
    for _ in range(30):
        e = rand_expr(rng, names, 16)
        f = build_expr(m, e)
        assert truth_table(m, f, names) == expr_table(e, names)


def test_canonicity_iff_semantic_equality():
    names = ["v%d" % i for i in range(8)]
    m = BDD(names)
    rng = random.Random(101)
    preds = []
    for _ in range(25):
        e = rand_expr(rng, names, 12)
        preds.append((build_expr(m, e), expr_table(e, names)))
    for f, tf in preds:
        for g, tg in preds:
            assert (f == g) == (tf == tg)


def test_canonicity_under_rewrites():
    # structurally different builds of the same function share a handle
    names = ["v%d" % i for i in range(14)]
    m = BDD(names)
    rng = random.Random(102)
    for _ in range(40):
        xs = rng.sample(names, 5)
        f = [m.var(x) for x in xs]
        lhs = m.apply("and", f[0], m.apply("and", f[1], f[2]))
        rhs = m.apply("and", m.apply("and", f[2], f[0]), f[1])
        assert lhs == rhs
        lhs = m.apply("not", m.apply("or", f[3], f[4]))
        rhs = m.apply("and", m.apply("not", f[3]), m.apply("not", f[4]))
        assert lhs == rhs
        assert m.apply("not", m.apply("not", lhs)) == lhs
        assert m.apply("xor", f[0], f[0]) == m.false
        assert m.apply("implies", f[0], f[0]) == m.true


def test_apply_errors():
    m = BDD(["a"])
    a = m.var("a")
    with pytest.raises(BddError):
        m.apply("nand", a, a)
    with pytest.raises(BddError):
        m.apply("not", a, a)
    with pytest.raises(BddError):
        m.apply("and", a)
    with pytest.raises(BddError):
        m.apply("and", a, 99)


def test_quantifier_examples():
    m = BDD(["a", "b"])
    a, b = m.var("a"), m.var("b")
    ab = m.apply("and", a, b)
    assert m.exists(["a"], ab) == b
    assert m.exists(["a", "b"], m.apply("or", a, b)) == m.true
    assert m.forall(["a"], m.apply("or", a, b)) == b
    assert m.forall(["b"], a) == a
    assert m.exists([], ab) == ab
    assert m.forall([], ab) == ab
    # every kernel takes the empty cube, also in a manager with no
    # variables, where `leq` quantifies over no level at all
    m = BDD([])
    for a in (0, 1):
        assert m.exists([], a) == m.forall([], a) == a
        for b in (0, 1):
            assert m.leq(a, b) == (a <= b)
            assert m.implies_forall([], a, b) == int(a <= b)
            assert m.and_exists([], a, b) == (a & b)
    assert m.sat_count(1) == 1 and m.sat_count(0) == 0


def test_quantifiers_against_table_oracle():
    names = ["v%d" % i for i in range(6)]
    m = BDD(names)
    rng = random.Random(103)
    for _ in range(25):
        f = rand_pred(m, rng, names, 12)
        w = rng.sample(names, rng.randint(1, 3))
        keep = [x for x in names if x not in w]
        ex = m.exists(w, f)
        fa = m.forall(w, f)
        for asg in assignments(keep):
            vals = [m.eval(f, {**asg, **wasg}) for wasg in assignments(w)]
            assert m.eval(ex, asg) == any(vals)
            assert m.eval(fa, asg) == all(vals)


def test_exists_is_dual_of_forall():
    names = ["v%d" % i for i in range(10)]
    m = BDD(names)
    rng = random.Random(104)
    for _ in range(40):
        f = rand_pred(m, rng, names)
        w = rng.sample(names, rng.randint(1, 4))
        nf = m.apply("not", f)
        assert m.exists(w, f) == m.apply("not", m.forall(w, nf))


def test_fused_ops_match_composites():
    names = ["v%d" % i for i in range(10)]
    m = BDD(names)
    rng = random.Random(105)
    for _ in range(40):
        f = rand_pred(m, rng, names)
        g = rand_pred(m, rng, names)
        w = rng.sample(names, rng.randint(1, 4))
        assert m.and_exists(w, f, g) == m.exists(w, m.apply("and", f, g))
        assert m.implies_forall(w, f, g) == m.forall(w, m.implies(f, g))


def test_leq_matches_implication_validity():
    names = ["v%d" % i for i in range(9)]
    m = BDD(names)
    rng = random.Random(106)
    for _ in range(60):
        f = rand_pred(m, rng, names)
        g = rand_pred(m, rng, names)
        assert m.leq(f, g) == (m.implies(f, g) == m.true)
        assert m.leq(f, m.apply("or", f, g))
        assert m.leq(m.apply("and", f, g), f)


def test_sat_count_against_table():
    names = ["v%d" % i for i in range(10)]
    m = BDD(names)
    rng = random.Random(107)
    for _ in range(25):
        f = rand_pred(m, rng, names)
        table = truth_table(m, f, names)
        assert m.sat_count(f) == sum(table)
        sup = sorted(m.support(f))
        extra = rng.sample([x for x in names if x not in sup],
                           min(2, len(names) - len(sup)))
        want = sum(table) >> (len(names) - len(sup) - len(extra))
        assert m.sat_count(f, sup + extra) == want


def test_sat_count_support_error():
    m = BDD(["a", "b"])
    f = m.apply("and", m.var("a"), m.var("b"))
    assert m.sat_count(f) == 1
    assert m.sat_count(f, ["a", "b"]) == 1
    with pytest.raises(BddError):
        m.sat_count(f, ["a"])


def test_eval_missing_variable():
    m = BDD(["a", "b"])
    f = m.apply("and", m.var("a"), m.var("b"))
    with pytest.raises(BddError):
        m.eval(f, {"a": True})
    assert m.eval(f, {"a": False}) is False  # short-circuits on the path


def test_rename_examples():
    m = BDD(["a", "b", "c"])
    a, b, c = m.var("a"), m.var("b"), m.var("c")
    assert m.rename(a, {"a": "b"}) == b
    assert m.rename(m.apply("and", a, c), {"a": "b"}) == m.apply("and", b, c)
    assert m.rename(a, {}) == a
    with pytest.raises(BddError):
        m.rename(a, {"a": "z"})


def test_rename_roundtrip_interleaved():
    # x and x' interleaved per bit, the layout the game solvers use
    names = []
    for i in range(5):
        names += ["x%d" % i, "xp%d" % i]
    m = BDD(names)
    rng = random.Random(108)
    cur = ["x%d" % i for i in range(5)]
    nxt = ["xp%d" % i for i in range(5)]
    fwd = dict(zip(cur, nxt))
    back = dict(zip(nxt, cur))
    for _ in range(20):
        f = rand_pred(m, rng, cur)
        g = m.rename(f, fwd)
        assert m.support(g) <= set(nxt)
        assert m.rename(g, back) == f


def test_rename_rejects_order_violation():
    m = BDD(["a", "b", "c"])
    f = m.apply("and", m.var("a"), m.var("b"))
    # a -> c would move a below b on the support
    with pytest.raises(BddError):
        m.rename(f, {"a": "c"})
    with pytest.raises(BddError):
        m.rename(f, {"a": "c", "b": "c"})


def test_support():
    m = BDD(["a", "b", "c"])
    assert m.support(m.true) == set()
    assert m.support(m.var("b")) == {"b"}
    f = m.apply("xor", m.var("a"), m.var("c"))
    assert m.support(f) == {"a", "c"}


def test_serialization_roundtrip():
    names = ["v%d" % i for i in range(8)]
    m = BDD(names)
    rng = random.Random(109)
    for _ in range(15):
        f = rand_pred(m, rng, names)
        assert m.from_text(m.to_text(f)) == f
    assert m.from_text(m.to_text(m.false)) == m.false
    assert m.from_text(m.to_text(m.true)) == m.true


def test_serialization_into_extended_manager():
    m = BDD(["a", "c"])
    f = m.apply("xor", m.var("a"), m.var("c"))
    text = m.to_text(f)
    m2 = BDD(["a", "b", "c"])  # extra var between, same relative order
    g = m2.from_text(text)
    assert truth_table(m2, g, ["a", "c"]) == truth_table(m, f, ["a", "c"])
    m3 = BDD(["c", "a"])  # conflicting order
    with pytest.raises(BddError):
        m3.from_text(text)


def test_serialization_errors():
    m = BDD(["a", "b"])
    f = m.apply("and", m.var("a"), m.var("b"))
    text = m.to_text(f)
    lines = text.splitlines()
    with pytest.raises(BddError):
        m.from_text("\n".join(lines[1:]))  # missing header
    with pytest.raises(BddError):
        m.from_text("\n".join(lines[:-1]))  # missing root
    with pytest.raises(BddError):
        # drop a node line: children become undefined
        m.from_text("\n".join([lines[0]] + lines[2:]))
    with pytest.raises(BddError):
        m.from_text(text.replace(" a ", " z "))  # unknown variable
    with pytest.raises(BddError):
        # a child above its parent: `b ? a : 0` is `a and b` out of order
        m.from_text("vars: a b\n2 a 0 1\n3 b 0 2\nroot 3\n")


def test_sat_runs():
    m = BDD(["x0", "x1", "x2"])
    assert m.sat_runs(m.true, ["x0", "x1", "x2"]) == [(0, 8)]
    assert m.sat_runs(m.false, ["x0", "x1", "x2"]) == []
    assert m.sat_runs(m.var("x0"), ["x0", "x1", "x2"]) == [(4, 4)]
    rng = random.Random(110)
    names = ["x0", "x1", "x2"]
    for _ in range(20):
        f = rand_pred(m, rng, names, 8)
        want = [i for i, asg in enumerate(assignments(names))
                if m.eval(f, asg)]
        got = [i for s, n in m.sat_runs(f, names) for i in range(s, s + n)]
        assert got == want


def test_sweep_keeps_roots_and_frees_garbage():
    names = ["v%d" % i for i in range(8)]
    m = BDD(names)
    rng = random.Random(111)
    keep = rand_pred(m, rng, names, 20)
    text = m.to_text(keep)
    junk = [rand_pred(m, rng, names, 20) for _ in range(10)]
    before = m.size
    live, freed = m.sweep([keep])
    assert m.size <= before
    assert freed > 0
    assert m.to_text(keep) == text
    # swept handles are rejected
    dead = [j for j in junk if j >= 2 and j != keep]
    if dead:
        with pytest.raises(BddError):
            m.node_count(dead[0])
    # the store keeps working after a sweep
    f = rand_pred(m, rng, names, 20)
    assert m.apply("and", f, keep) == m.apply("and", keep, f)


def test_protect_survives_sweep():
    m = BDD(["a", "b"])
    f = m.apply("xor", m.var("a"), m.var("b"))
    m.protect(f)
    m.sweep([])
    assert m.node_count(f) == 3
    m.unprotect(f)
    m.sweep([])
    with pytest.raises(BddError):
        m.node_count(f)


def test_capacity_error():
    names = ["v%d" % i for i in range(16)]
    m = BDD(names, cap=40)
    rng = random.Random(112)
    with pytest.raises(CapacityError):
        for _ in range(200):
            rand_pred(m, rng, names, 30)
    # the cap must fit the 28-bit handle packing
    for cap in (0, -1, _MAX_NODES + 1, "40", True):
        with pytest.raises(BddError):
            BDD(["a"], cap=cap)
    assert BDD(["a"], cap=_MAX_NODES).var("a") == 2
    with pytest.raises(CapacityError):
        BDD(["a"], cap=2).var("a")


def test_a_dropped_manager_frees_its_store_at_once():
    # every kernel refers to itself and so waits for the cyclic collector;
    # the store it captured must not wait with it
    names = ["v%d" % i for i in range(24)]

    def build():
        m = BDD(names)
        rng = random.Random(114)
        f = m.false
        while m.size < 100000:
            cube = m.cube({x: rng.random() < 0.5 for x in names})
            f = m.apply("or", f, cube)
        return m.size

    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        built = build()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.enable()
    assert built >= 100000
    assert left < 1 << 20, left


def test_kernels_match_table_oracle_after_sweep():
    # the kernels are closures over the store; a sweep empties and refills
    # it in place and leaves free slots that later nodes reuse
    names = ["v%d" % i for i in range(6)]
    m = BDD(names)
    rng = random.Random(113)
    cubes = [rng.sample(names, i % 4) for i in range(12)]
    tables = {}  # live handle -> truth table, for leq

    def check(w):
        ef, eg = rand_expr(rng, names, 12), rand_expr(rng, names, 12)
        f, g = build_expr(m, ef), build_expr(m, eg)
        tf, tg = expr_table(ef, names), expr_table(eg, names)
        assert truth_table(m, f, names) == tf
        assert truth_table(m, g, names) == tg
        # a count kept across calls would go stale on reused slots
        assert m.sat_count(f) == sum(tf)
        assert m.sat_count(g) == sum(tg)
        for op, fn in (("and", lambda a, b: a and b),
                       ("or", lambda a, b: a or b),
                       ("xor", lambda a, b: a != b)):
            want = tuple(fn(a, b) for a, b in zip(tf, tg))
            assert truth_table(m, m.apply(op, f, g), names) == want
        want = tuple(not a for a in tf)
        assert truth_table(m, m.apply("not", f), names) == want
        # leq runs on the fused kernel's cache, which a sweep must clear;
        # leq, support and node_count read the store and add no node
        tables.update({f: tf, g: tg})
        tables[m.apply("and", f, g)] = tuple(a and b for a, b in zip(tf, tg))
        size = m.size
        for a, ta in tables.items():
            for b, tb in tables.items():
                assert m.leq(a, b) == all(not x or y for x, y in zip(ta, tb))
        n = len(names)
        assert m.support(f) == {v for k, v in enumerate(names)
                                if any(t != tf[i ^ (1 << (n - 1 - k))]
                                       for i, t in enumerate(tf))}
        m.node_count(f)
        assert m.size == size
        ops = {"exists": m.exists(w, f), "forall": m.forall(w, f),
               "and_exists": m.and_exists(w, f, g),
               "implies_forall": m.implies_forall(w, f, g)}
        rest = [x for x in names if x not in w]
        for asg in assignments(rest):
            rows = [{**asg, **wasg} for wasg in assignments(w)]
            fv = [m.eval(f, r) for r in rows]
            gv = [m.eval(g, r) for r in rows]
            want = {"exists": any(fv), "forall": all(fv),
                    "and_exists": any(a and b for a, b in zip(fv, gv)),
                    "implies_forall": all(not a or b
                                          for a, b in zip(fv, gv))}
            for name, h in ops.items():
                assert m.eval(h, asg) == want[name], (name, w)

    for w in cubes:
        check(w)
    keep = rand_pred(m, rng, names, 16)
    _, freed = m.sweep([keep])
    assert freed > 0
    tables.clear()
    for w in cubes:
        check(w)
