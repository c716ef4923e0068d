"""Relational interfaces and their algebra.

An interface describes a component as a single predicate over disjoint
input and output variable sets.  An input assignment is *accepted* when
some output satisfies the predicate; on accepted inputs the component may
produce any satisfying output (nondeterminism is adversarial), and on
rejected inputs its behavior is unconstrained, so rejected inputs must be
avoided by the environment.

Interfaces with no outputs (sinks) encode sets and requirements over
their inputs.  Interfaces with no inputs (sources) encode sets of
outputs.  The algebra below composes interfaces, hides variables,
decides refinement, and fuses consistent views of the same component.
"""

import json
from dataclasses import dataclass, field

from relsynth.bdd import BDD, BddError


@dataclass(frozen=True)
class Interface:
    """A component contract: predicate `pred` over `inputs | outputs`.

    Two interfaces are equal iff they share the manager, the signature
    and the predicate handle; handle equality makes the last check exact.
    """

    m: BDD = field(repr=False)
    inputs: frozenset
    outputs: frozenset
    pred: int

    def __init__(self, m, inputs, outputs, pred):
        inputs = frozenset(inputs)
        outputs = frozenset(outputs)
        if inputs & outputs:
            raise BddError("inputs and outputs overlap: %s"
                           % sorted(inputs & outputs))
        for name in inputs | outputs:
            m.level_of(name)
        m._check(pred)
        if not m.support(pred) <= (inputs | outputs):
            raise BddError("predicate depends on variables outside "
                           "the signature: %s"
                           % sorted(m.support(pred) - (inputs | outputs)))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "pred", pred)

    @property
    def is_sink(self):
        return not self.outputs

    @property
    def is_source(self):
        return not self.inputs

    def same_signature(self, other):
        return (self.m is other.m and self.inputs == other.inputs
                and self.outputs == other.outputs)


def sink(m, inputs, pred):
    """Interface with no outputs: a constraint over `inputs`."""
    return Interface(m, inputs, (), pred)


def source(m, outputs, pred):
    """Interface with no inputs: a set of output behaviors."""
    return Interface(m, (), outputs, pred)


def _same_manager(*fs):
    m = fs[0].m
    for f in fs[1:]:
        if f.m is not m:
            raise BddError("interfaces belong to different managers")
    return m


def nb(f):
    """Nonblocking inputs of `f`: the sink `exists outputs . pred`.

    For a sink this is `f` itself; for a source it collapses to a
    constant (false iff the source is empty).
    """
    return Interface(f.m, f.inputs, (), f.m.exists(f.outputs, f.pred))


def ohide(w, f):
    """Hide outputs `w`: existentially project them out."""
    w = frozenset(w)
    if not w <= f.outputs:
        raise BddError("ohide: %s are not outputs" % sorted(w - f.outputs))
    return Interface(f.m, f.inputs, f.outputs - w, f.m.exists(w, f.pred))


def ihide(w, f):
    """Hide inputs `w` of a sink: existentially project them out.

    Input hiding is only defined for sinks; with outputs present the
    projection would conflate acceptance with output choice.
    """
    w = frozenset(w)
    if f.outputs:
        raise BddError("ihide is defined for sinks only")
    if not w <= f.inputs:
        raise BddError("ihide: %s are not inputs" % sorted(w - f.inputs))
    return Interface(f.m, f.inputs - w, (), f.m.exists(w, f.pred))


def comp(f1, f2):
    """Compose two interfaces, feeding outputs of one into the other.

    The pair is oriented automatically: if `f2` feeds `f1` the arguments
    swap, and a feedback loop in both directions is an error.  Shared
    inputs are fine; shared outputs are not.  The connected variables
    `o1 & i2` stay visible as outputs of the composite, and the composite
    predicate additionally requires the environment to make `f1`'s
    outputs never block `f2` (demonic nondeterminism):

        F1 and F2 and forall o12 . (F1 -> NB F2)

    With nothing connected this reduces to `F1 and F2`.
    """
    m = _same_manager(f1, f2)
    fwd = f1.outputs & f2.inputs
    back = f2.outputs & f1.inputs
    if fwd and back:
        raise BddError("composition cycle: %s and %s"
                       % (sorted(fwd), sorted(back)))
    if back:
        f1, f2 = f2, f1
        fwd = back
    if f1.outputs & f2.outputs:
        raise BddError("shared outputs: %s" % sorted(f1.outputs & f2.outputs))
    outs = f1.outputs | f2.outputs
    ins = (f1.inputs | f2.inputs) - fwd
    nb2 = m.exists(f2.outputs, f2.pred)
    robust = m.implies_forall(outs, f1.pred, nb2)
    pred = m.apply("and", m.apply("and", f1.pred, f2.pred), robust)
    return Interface(m, ins, outs, pred)


def is_refinement(a, f):
    """True iff `f` refines `a` (written `a <= f`).

    `a` is then a sound abstraction of `f`: every input `a` accepts is
    accepted by `f`, and on those inputs `f` allows only outputs `a`
    allows, so `f` may substitute `a` anywhere.  The empty interface is
    below everything with its signature; the all-true interface is
    incomparable with anything that blocks.
    """
    if not a.same_signature(f):
        return False
    m = a.m
    nba = m.exists(a.outputs, a.pred)
    nbf = m.exists(f.outputs, f.pred)
    return (m.leq(nba, nbf)
            and m.leq(m.apply("and", nba, f.pred), a.pred))


def is_shared_refinable(f1, f2):
    """True iff some interface refines both `f1` and `f2`.

    Holds iff every input both accept admits a common output:
    `(NB F1 and NB F2) -> exists o . (F1 and F2)`.
    """
    if not f1.same_signature(f2):
        raise BddError("shared refinability needs identical signatures")
    m = f1.m
    both = m.and_exists(f1.outputs, f1.pred, f2.pred)
    nb1 = m.exists(f1.outputs, f1.pred)
    nb2 = m.exists(f2.outputs, f2.pred)
    return m.leq(m.apply("and", nb1, nb2), both)


def refine(f1, f2):
    """Fuse two views of one component:

        (NB F1 or NB F2) and (NB F1 -> F1) and (NB F2 -> F2)

    Accepts an input when either view does, and imposes both views'
    output constraints where both accept.  When the views are shared
    refinable this is their least upper bound in the refinement order;
    otherwise the result may fail to refine one of them, which
    `is_refinement` detects after the fact.  For sinks the formula
    collapses to disjunction, for sources to conjunction.
    """
    if not f1.same_signature(f2):
        raise BddError("refine needs identical signatures")
    m = f1.m
    nb1 = m.exists(f1.outputs, f1.pred)
    nb2 = m.exists(f2.outputs, f2.pred)
    pred = m.apply("and",
                   m.apply("or", nb1, nb2),
                   m.apply("and",
                           m.implies(nb1, f1.pred),
                           m.implies(nb2, f2.pred)))
    return Interface(m, f1.inputs, f1.outputs, pred)


def icoarsen(f, q):
    """Coarsen inputs of `f` through an input quantizer `q`.

    `q`'s outputs must be inputs of `f`; they get connected and hidden,
    leaving `q`'s own (coarser) inputs in their place.
    """
    if not q.outputs <= f.inputs:
        raise BddError("icoarsen: quantizer outputs must feed the interface")
    if q.inputs & (f.inputs | f.outputs):
        raise BddError("icoarsen: quantizer inputs collide with the "
                       "interface signature")
    return ohide(q.outputs, comp(q, f))


def ocoarsen(f, q):
    """Coarsen outputs of `f` through an output quantizer `q`."""
    if not q.inputs <= f.outputs:
        raise BddError("ocoarsen: quantizer inputs must be fed by the "
                       "interface")
    if q.outputs & (f.inputs | f.outputs):
        raise BddError("ocoarsen: quantizer outputs collide with the "
                       "interface signature")
    return ohide(q.inputs, comp(f, q))


# -- persistence ------------------------------------------------------------

def save_interface(f, stream, meta=None):
    """Write `f` (and optional JSON-able `meta`) to a text stream."""
    stream.write("interface\n")
    stream.write("inputs: %s\n" % " ".join(sorted(f.inputs, key=f.m.level_of)))
    stream.write("outputs: %s\n"
                 % " ".join(sorted(f.outputs, key=f.m.level_of)))
    if meta:
        stream.write("meta: %s\n" % json.dumps(meta, sort_keys=True))
    stream.write(f.m.to_text(f.pred))


def load_interface(m, stream):
    """Read an interface saved by `save_interface`; returns (interface, meta).

    `meta` is the JSON object of the `meta:` line, or `{}` without one;
    a line that holds any other JSON value raises `BddError`.

    The manager must know every variable in the stream, in the same
    relative order; a stream in another order raises `bdd.OrderError`.
    """
    lines = stream.read().splitlines()
    if not lines or lines[0].strip() != "interface":
        raise BddError("not an interface stream")
    idx = 1
    fields = {"inputs": None, "outputs": None}
    meta = {}
    while idx < len(lines):
        line = lines[idx]
        if line.startswith("inputs:"):
            fields["inputs"] = line[len("inputs:"):].split()
        elif line.startswith("outputs:"):
            fields["outputs"] = line[len("outputs:"):].split()
        elif line.startswith("meta:"):
            try:
                meta = json.loads(line[len("meta:"):])
            except json.JSONDecodeError as e:
                raise BddError("malformed meta line: %s" % e) from None
            if not isinstance(meta, dict):
                raise BddError("meta line must hold a JSON object")
        elif line.startswith("vars:"):
            break
        else:
            raise BddError("unexpected line in interface stream: %r" % line)
        idx += 1
    if fields["inputs"] is None or fields["outputs"] is None:
        raise BddError("interface stream lacks inputs/outputs lines")
    pred = m.from_text("\n".join(lines[idx:]))
    return Interface(m, fields["inputs"], fields["outputs"], pred), meta
