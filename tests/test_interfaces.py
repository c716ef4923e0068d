"""Interface algebra laws, checked on randomized seeded instances."""

import io
import random

import pytest

from relsynth.bdd import BDD, BddError
from relsynth.interfaces import (Interface, comp, icoarsen, ihide,
                                 is_refinement, is_shared_refinable,
                                 load_interface, nb, ocoarsen, ohide, refine,
                                 save_interface, sink, source)
from relsynth.spaces import quantizer
from util import rand_interface, rand_pred, refinable_pair, weaken


def fresh(names):
    return BDD(names)


def test_interface_validation():
    m = fresh(["a", "b"])
    with pytest.raises(BddError):
        Interface(m, ["a"], ["a"], m.true)
    with pytest.raises(BddError):
        Interface(m, ["a"], [], m.var("b"))  # support leaks the signature
    with pytest.raises(BddError):
        Interface(m, ["a"], ["z"], m.true)
    f = Interface(m, ["a"], ["b"], m.var("b"))
    assert not f.is_sink and not f.is_source
    assert sink(m, ["a"], m.var("a")).is_sink
    assert source(m, ["b"], m.var("b")).is_source


def test_nb_cases():
    m = fresh(["i", "o"])
    f = Interface(m, ["i"], ["o"], m.apply("and", m.var("i"), m.var("o")))
    g = nb(f)
    assert g.is_sink and g.inputs == frozenset({"i"})
    assert g.pred == m.var("i")
    s = sink(m, ["i"], m.var("i"))
    assert nb(s).pred == s.pred  # sinks are their own nonblocking set
    assert nb(source(m, ["o"], m.false)).pred == m.false
    assert nb(source(m, ["o"], m.var("o"))).pred == m.true


def test_ohide_and_ihide():
    m = fresh(["i", "o1", "o2"])
    f = Interface(m, ["i"], ["o1", "o2"],
                  m.apply("and", m.var("o1"), m.var("o2")))
    g = ohide(["o1"], f)
    assert g.outputs == frozenset({"o2"})
    assert g.pred == m.var("o2")
    with pytest.raises(BddError):
        ohide(["i"], f)
    s = sink(m, ["i", "o1"], m.apply("or", m.var("i"), m.var("o1")))
    h = ihide(["o1"], s)
    assert h.inputs == frozenset({"i"}) and h.pred == m.true
    with pytest.raises(BddError):
        ihide(["i"], f)  # not a sink


def test_comp_signature_and_orientation():
    m = fresh(["a", "b", "c"])
    f = Interface(m, ["a"], ["b"], m.apply("or", m.var("a"), m.var("b")))
    g = Interface(m, ["b"], ["c"], m.apply("or", m.var("b"), m.var("c")))
    fg = comp(f, g)
    assert fg.inputs == frozenset({"a"})
    assert fg.outputs == frozenset({"b", "c"})
    assert comp(g, f) == fg  # auto-orientation swaps the arguments
    with pytest.raises(BddError):
        comp(f, Interface(m, ["c"], ["b"], m.var("b")))  # shared outputs
    h = Interface(m, ["c"], ["a"], m.true)
    with pytest.raises(BddError):
        comp(fg, h)  # feedback in both directions


def test_comp_parallel_is_conjunction():
    rng = random.Random(300)
    for _ in range(25):
        m = fresh(["i1", "o1", "i2", "o2"])
        f1 = rand_interface(m, rng, ["i1"], ["o1"])
        f2 = rand_interface(m, rng, ["i2"], ["o2"])
        both = comp(f1, f2)
        assert both.pred == m.apply("and", f1.pred, f2.pred)
        assert both.inputs == frozenset({"i1", "i2"})
        assert both.outputs == frozenset({"o1", "o2"})


def test_comp_parallel_with_shared_inputs():
    rng = random.Random(301)
    for _ in range(25):
        m = fresh(["i", "o1", "o2"])
        f1 = rand_interface(m, rng, ["i"], ["o1"])
        f2 = rand_interface(m, rng, ["i"], ["o2"])
        both = comp(f1, f2)
        assert both.pred == m.apply("and", f1.pred, f2.pred)
        assert both.inputs == frozenset({"i"})
    m = fresh(["i1", "i2"])
    for _ in range(10):
        s1 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        s2 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        assert comp(s1, s2).pred == m.apply("and", s1.pred, s2.pred)


def test_comp_series_chain_is_associative():
    rng = random.Random(302)
    for _ in range(20):
        m = fresh(["a", "b", "c", "d"])
        f1 = rand_interface(m, rng, ["a"], ["b"], 10)
        f2 = rand_interface(m, rng, ["b"], ["c"], 10)
        f3 = rand_interface(m, rng, ["c"], ["d"], 10)
        left = comp(comp(f1, f2), f3)
        right = comp(f1, comp(f2, f3))
        assert left == right


def test_comp_blocks_inputs_that_can_break_the_tail():
    # one-bit pipeline: the head may emit either value on input 1, the
    # tail rejects 0, so no input survives the demonic output choice
    m = fresh(["a", "b", "c"])
    head = Interface(m, ["a"], ["b"], m.var("a"))
    tail = Interface(m, ["b"], ["c"],
                     m.apply("and", m.var("b"), m.var("c")))
    fg = comp(head, tail)
    assert nb(fg).pred == m.false


def test_refinement_partial_order():
    rng = random.Random(303)
    for _ in range(15):
        m = fresh(["i1", "i2", "o1", "o2"])
        f = rand_interface(m, rng, ["i1", "i2"], ["o1", "o2"])
        a = weaken(rng, f)
        a2 = weaken(rng, a)
        assert is_refinement(f, f)
        assert is_refinement(a, f)
        assert is_refinement(a2, a)
        assert is_refinement(a2, f)  # transitivity along the chain
        if not is_refinement(f, a):
            assert a != f
        else:
            # antisymmetry: mutual refinement collapses to equality
            assert a == f


def test_bottom_refines_everything_top_incomparable():
    rng = random.Random(304)
    m = fresh(["i", "o"])
    bot = Interface(m, ["i"], ["o"], m.false)
    top = Interface(m, ["i"], ["o"], m.true)
    for _ in range(20):
        f = rand_interface(m, rng, ["i"], ["o"])
        assert is_refinement(bot, f)
        if nb(f).pred != m.true:
            assert not is_refinement(top, f)
        if f.pred == m.true:
            assert is_refinement(top, f)
    assert is_refinement(bot, top)
    assert not is_refinement(top, bot)


def test_sink_refinement_is_subset():
    rng = random.Random(305)
    m = fresh(["i1", "i2"])
    for _ in range(25):
        s1 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        s2 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        assert is_refinement(s1, s2) == m.leq(s1.pred, s2.pred)


def test_signature_mismatch_is_not_refinement():
    m = fresh(["i", "o", "p"])
    f = Interface(m, ["i"], ["o"], m.var("o"))
    g = Interface(m, ["i"], ["p"], m.var("p"))
    assert not is_refinement(f, g)


def test_comp_monotone_under_refinement():
    rng = random.Random(306)
    for _ in range(15):
        m = fresh(["a", "b", "c"])
        f1 = rand_interface(m, rng, ["a"], ["b"], 10)
        f2 = rand_interface(m, rng, ["b"], ["c"], 10)
        a1 = weaken(rng, f1)
        a2 = weaken(rng, f2)
        assert is_refinement(comp(a1, a2), comp(f1, f2))
        assert is_refinement(comp(a1, f2), comp(f1, f2))
        assert is_refinement(comp(f1, a2), comp(f1, f2))


def test_hiding_monotone_under_refinement():
    rng = random.Random(307)
    for _ in range(15):
        m = fresh(["i", "o1", "o2"])
        f = rand_interface(m, rng, ["i"], ["o1", "o2"])
        a = weaken(rng, f)
        assert is_refinement(ohide(["o1"], a), ohide(["o1"], f))
        s = sink(m, ["i", "o1"], rand_pred(m, rng, ["i", "o1"], 8))
        t = sink(m, ["i", "o1"], m.apply("or", s.pred,
                                         rand_pred(m, rng, ["i", "o1"], 6)))
        assert is_refinement(ihide(["o1"], s), ihide(["o1"], t))


def test_refine_is_least_upper_bound():
    rng = random.Random(308)
    for _ in range(15):
        m = fresh(["i1", "i2", "o1", "o2"])
        f1, f2, c = refinable_pair(m, rng, ["i1", "i2"], ["o1", "o2"])
        r = refine(f1, f2)
        assert is_refinement(f1, r)
        assert is_refinement(f2, r)
        # least among upper bounds: both views' parent qualifies
        assert is_refinement(r, c)
        assert is_refinement(r, r)
        # and any weaker common upper bound stays above the fuse
        g = weaken(rng, c)
        if is_refinement(f1, g) and is_refinement(f2, g):
            assert is_refinement(r, g)


def test_refine_sinks_and_sources():
    rng = random.Random(309)
    m = fresh(["i1", "i2"])
    for _ in range(10):
        s1 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        s2 = sink(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        assert refine(s1, s2).pred == m.apply("or", s1.pred, s2.pred)
    for _ in range(10):
        o1 = source(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        o2 = source(m, ["i1", "i2"], rand_pred(m, rng, ["i1", "i2"], 8))
        got = refine(o1, o2).pred
        if o1.pred == m.false:
            assert got == o2.pred
        elif o2.pred == m.false:
            assert got == o1.pred
        else:
            assert got == m.apply("and", o1.pred, o2.pred)


def test_refine_with_empty_view_is_neutral():
    rng = random.Random(310)
    m = fresh(["i", "o"])
    bot = Interface(m, ["i"], ["o"], m.false)
    for _ in range(10):
        f = rand_interface(m, rng, ["i"], ["o"])
        assert refine(f, bot) == f
        assert refine(bot, f) == f


def test_refine_of_rectangle_samples():
    # two samples I -> O fuse into (I1|I2) & (I1 -> O1) & (I2 -> O2),
    # which splits by input overlap; with disjoint inputs it is the
    # plain union of the samples
    rng = random.Random(311)
    for _ in range(20):
        m = fresh(["i1", "i2", "o1", "o2"])
        ins = ["i1", "i2"]
        outs = ["o1", "o2"]
        i1 = rand_pred(m, rng, ins, 6)
        i2 = rand_pred(m, rng, ins, 6)
        o1 = rand_pred(m, rng, outs, 6)
        o2 = rand_pred(m, rng, outs, 6)
        if o1 == m.false or o2 == m.false:
            continue
        f1 = Interface(m, ins, outs, m.apply("and", i1, o1))
        f2 = Interface(m, ins, outs, m.apply("and", i2, o2))
        r = refine(f1, f2)
        want = m.apply("and", m.apply("or", i1, i2),
                       m.apply("and", m.implies(i1, o1), m.implies(i2, o2)))
        assert r.pred == want
        n1, n2 = m.apply("not", i1), m.apply("not", i2)
        split = m.apply("or",
                        m.apply("or",
                                m.apply("and", m.apply("and", i1, i2),
                                        m.apply("and", o1, o2)),
                                m.apply("and", m.apply("and", i1, n2), o1)),
                        m.apply("and", m.apply("and", n1, i2), o2))
        assert r.pred == split
        if m.apply("and", i1, i2) == m.false:
            union = m.apply("or", m.apply("and", i1, o1),
                            m.apply("and", i2, o2))
            assert r.pred == union


def test_shared_refinability_criterion():
    m = fresh(["i", "o"])
    i, o = m.var("i"), m.var("o")
    # both accept input 1 but insist on opposite outputs: not refinable
    f1 = Interface(m, ["i"], ["o"], m.apply("and", i, o))
    f2 = Interface(m, ["i"], ["o"], m.apply("and", i, m.apply("not", o)))
    assert not is_shared_refinable(f1, f2)
    r = refine(f1, f2)
    assert not is_refinement(f1, r) or not is_refinement(f2, r)
    # disjoint acceptance: trivially refinable
    f3 = Interface(m, ["i"], ["o"], m.apply("and", m.apply("not", i), o))
    assert is_shared_refinable(f1, f3)
    with pytest.raises(BddError):
        is_shared_refinable(f1, sink(m, ["i"], i))


def test_coarsen_against_closed_forms():
    # layout interleaves fine and coarse twins so renames stay legal
    rng = random.Random(312)
    names = []
    for k in range(3):
        names += ["x%d" % k, "xh%d" % k]
    names += ["o0", "o1"]
    for _ in range(15):
        m = fresh(names)
        fine = ["x%d" % k for k in range(3)]
        coarse = ["xh%d" % k for k in range(3)]
        f = rand_interface(m, rng, fine, ["o0", "o1"], 12)
        for keep in range(4):
            q = quantizer(m, fine, coarse, keep, input_side="coarse")
            g = icoarsen(f, q)
            assert g.inputs == frozenset(coarse)
            assert g.outputs == frozenset({"o0", "o1"})
            drop = fine[keep:]
            sub = dict(zip(fine[:keep], coarse[:keep]))
            nbf = m.exists(["o0", "o1"], f.pred)
            want = m.apply("and",
                           m.rename(m.exists(drop, f.pred), sub),
                           m.rename(m.forall(drop, nbf), sub))
            assert g.pred == want


def test_ocoarsen_against_closed_form():
    rng = random.Random(313)
    names = ["i0", "i1"]
    for k in range(3):
        names += ["y%d" % k, "yh%d" % k]
    for _ in range(15):
        m = fresh(names)
        fine = ["y%d" % k for k in range(3)]
        coarse = ["yh%d" % k for k in range(3)]
        f = rand_interface(m, rng, ["i0", "i1"], fine, 12)
        for keep in range(4):
            q = quantizer(m, fine, coarse, keep, input_side="fine")
            g = ocoarsen(f, q)
            assert g.inputs == frozenset({"i0", "i1"})
            assert g.outputs == frozenset(coarse)
            drop = fine[keep:]
            sub = dict(zip(fine[:keep], coarse[:keep]))
            want = m.rename(m.exists(drop, f.pred), sub)
            assert g.pred == want


def test_coarsening_monotone_in_precision():
    rng = random.Random(314)
    names = []
    for k in range(3):
        names += ["x%d" % k, "xh%d" % k]
    names += ["o0"]
    m = fresh(names)
    fine = ["x%d" % k for k in range(3)]
    coarse = ["xh%d" % k for k in range(3)]
    for _ in range(10):
        f = rand_interface(m, rng, fine, ["o0"], 10)
        gs = [icoarsen(f, quantizer(m, fine, coarse, k, "coarse"))
              for k in range(4)]
        for a in range(4):
            for b in range(a, 4):
                assert is_refinement(gs[a], gs[b])


def test_save_load_roundtrip():
    rng = random.Random(315)
    m = fresh(["i1", "i2", "o1"])
    f = rand_interface(m, rng, ["i1", "i2"], ["o1"])
    buf = io.StringIO()
    save_interface(f, buf, meta={"plan": "exhaustive", "seed": 3})
    buf.seek(0)
    g, meta = load_interface(m, buf)
    assert g == f
    assert meta == {"plan": "exhaustive", "seed": 3}
    buf2 = io.StringIO()
    save_interface(sink(m, ["i1"], m.false), buf2)
    buf2.seek(0)
    s, meta2 = load_interface(m, buf2)
    assert s.pred == m.false and meta2 == {}


def test_load_errors():
    m = fresh(["i", "o"])
    with pytest.raises(BddError):
        load_interface(m, io.StringIO("not an interface\n"))
    with pytest.raises(BddError):
        load_interface(m, io.StringIO("interface\ninputs: i\n"))
    f = Interface(m, ["i"], ["o"], m.var("o"))
    buf = io.StringIO()
    save_interface(f, buf)
    broken = buf.getvalue().replace("vars: i o", "vars: i z")
    with pytest.raises(BddError):
        load_interface(m, io.StringIO(broken))
    not_object = buf.getvalue().replace("outputs: o\n",
                                        "outputs: o\nmeta: [1]\n")
    with pytest.raises(BddError, match="JSON object"):
        load_interface(m, io.StringIO(not_object))
