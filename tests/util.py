"""Shared helpers: random expressions, oracles, interface generators."""

import itertools

from relsynth.interfaces import Interface, is_refinement, is_shared_refinable

# the vehicle's hand-picked block order before `cli.VEHICLE_ORDER` was
# measured; both put theta above px and py
HAND_ORDER = ("theta", "v", "omega", "px", "py")


def rand_expr(rng, names, n_ops=14):
    """Random expression tree over `names` as nested tuples."""
    pool = [("var", x) for x in names]
    pool.append(("const", False))
    pool.append(("const", True))
    for _ in range(n_ops):
        op = rng.choice(("and", "or", "xor", "implies", "not"))
        if op == "not":
            pool.append(("not", rng.choice(pool)))
        else:
            pool.append((op, rng.choice(pool), rng.choice(pool)))
    return pool[-1]


def eval_expr(e, asg):
    """Evaluate an expression tree under a dict name -> bool."""
    tag = e[0]
    if tag == "var":
        return asg[e[1]]
    if tag == "const":
        return e[1]
    if tag == "not":
        return not eval_expr(e[1], asg)
    a = eval_expr(e[1], asg)
    b = eval_expr(e[2], asg)
    if tag == "and":
        return a and b
    if tag == "or":
        return a or b
    if tag == "xor":
        return a != b
    if tag == "implies":
        return (not a) or b
    raise ValueError(tag)


def build_expr(m, e):
    """Build an expression tree into manager `m`."""
    tag = e[0]
    if tag == "var":
        return m.var(e[1])
    if tag == "const":
        return m.true if e[1] else m.false
    if tag == "not":
        return m.apply("not", build_expr(m, e[1]))
    return m.apply(tag, build_expr(m, e[1]), build_expr(m, e[2]))


def rand_pred(m, rng, names, n_ops=14):
    """Random predicate handle over `names` in manager `m`."""
    return build_expr(m, rand_expr(rng, names, n_ops))


def assignments(names):
    """All assignments over `names`, msb-first code order."""
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


def truth_table(m, f, names):
    """Tuple of `f`'s values over all assignments of `names`."""
    return tuple(m.eval(f, asg) for asg in assignments(names))


def expr_table(e, names):
    """Tuple of the expression tree's values over all assignments."""
    return tuple(eval_expr(e, asg) for asg in assignments(names))


def rand_interface(m, rng, inputs, outputs, n_ops=14):
    """Random interface with the given signature."""
    pred = rand_pred(m, rng, list(inputs) + list(outputs), n_ops)
    return Interface(m, inputs, outputs, pred)


def weaken(rng, f, n_ops=8):
    """Random abstraction of `f` (the result is below `f`).

    Blocks extra inputs with a random input predicate `beta` and opens
    extra outputs with a random predicate `gamma` on the inputs kept:

        (F and beta) or (NB F and beta and gamma)

    which always sits below `f` in the refinement order.
    """
    m = f.m
    beta = rand_pred(m, rng, list(f.inputs), n_ops) if f.inputs else m.true
    gamma = rand_pred(m, rng, list(f.inputs) + list(f.outputs), n_ops)
    nbf = m.exists(f.outputs, f.pred)
    pred = m.apply("or",
                   m.apply("and", f.pred, beta),
                   m.apply("and", m.apply("and", nbf, beta), gamma))
    a = Interface(m, f.inputs, f.outputs, pred)
    assert is_refinement(a, f)
    return a


def refinable_pair(m, rng, inputs, outputs, n_ops=10):
    """Two abstractions of one random interface: shared refinable."""
    c = rand_interface(m, rng, inputs, outputs, n_ops)
    f1 = weaken(rng, c, n_ops)
    f2 = weaken(rng, c, n_ops)
    assert is_shared_refinable(f1, f2)
    return f1, f2, c
