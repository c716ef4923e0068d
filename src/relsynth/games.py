"""Reach and safe games over interface-encoded control systems.

The controlled predecessor of a state set Z is computed by the
hide-compose pipeline

    cpre(F, Z) = ihide(u, ohide(x+, comp(F, Z+)))

where Z+ is the sink over next-state bits.  For a sink W the composite
`ohide(o, comp(F, W))` collapses to

    NB F  and  forall o . (F -> W)

because the robustness term of the composition already forces every
output into W, making the existential projection equal to the
nonblocking set.  With several components owning disjoint next-state
blocks, folding them one at a time through that collapsed step visits
each block with a quantifier over its own bits only; unfolding the
conjunctions shows the fold equals the single monolithic quantification,
so both paths produce the same predicate and the tests pin that down.

Coarsening degrades precision in place: the winning region or the
dynamics keep their variables, with low bits projected out so the
predicate is constant on coarse cells.  The coarsened object always
abstracts (sits below) the original in the refinement order.

A solve sweeps the node store between iterations.  It may free every
node that is not reachable from its game (component predicates, their
nonblocking sets, the goal), the current precision level's iterates or
a protected handle; the returned winning region and controller are
protected.  Any other handle a caller keeps across a solve must be
protected (`m.protect`) first.

The solver writes no files: it returns predicates and a trace, and the
command line (`relsynth.cli`) decides every output format.
"""

import logging
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from relsynth.bdd import BddError
from relsynth.interfaces import Interface, sink

log = logging.getLogger(__name__)

# sweep the node store once this much garbage piles up; read at each
# level of a solve, so a caller may lower it to force sweeps
SWEEP_SLACK = 2_000_000


class Game:
    """A reach or safe game on one encoding.

    Parameters
    ----------
    enc : spaces.Encoding
        Variable layout; supplies control-domain guards and renaming.
    components : list of Interface
        Dynamics with current-state and control inputs.  Their output
        blocks must be disjoint and together cover every next-state bit.
        A single entry makes the game monolithic.
    objective : str
        'reach' or 'safe'.
    goal : int
        Predicate over current-state bits: target set for reach games,
        safe set for safe games.
    """

    def __init__(self, enc, components, objective, goal):
        if objective not in ("reach", "safe"):
            raise BddError("objective must be 'reach' or 'safe'")
        m = enc.m
        covered = set()
        state_and_control = set(enc.all_state_vars) | set(
            enc.all_control_vars)
        for f in components:
            if f.m is not m:
                raise BddError("component managers differ from the encoding")
            if f.outputs & covered:
                raise BddError("components share output bits: %s"
                               % sorted(f.outputs & covered))
            covered |= f.outputs
            if not f.inputs <= state_and_control:
                raise BddError(
                    "component inputs must be state or control bits")
        nexts = set(enc.all_next_vars)
        if covered != nexts:
            raise BddError("component outputs must cover every next-state "
                           "bit and no other: missing %s, extra %s"
                           % (sorted(nexts - covered),
                              sorted(covered - nexts)))
        m._check(goal)
        if not m.support(goal) <= set(enc.all_state_vars):
            raise BddError("goal must be a current-state predicate")
        self.enc = enc
        self.m = m
        self.objective = objective
        self.components = list(components)
        self.goal = goal
        # per-component nonblocking inputs, cached for the cpre fold
        self._nb = [m.exists(f.outputs, f.pred) for f in components]

    def roots(self):
        """The handles the game owns, which a sweep during its solve keeps."""
        return [f.pred for f in self.components] + self._nb + [self.goal]


def _cpre_stage(game, z):
    """The (state, control) sink before hiding the control bits."""
    m = game.m
    w = m.rename(z, game.enc.prime_map)
    for f, nbf in zip(reversed(game.components),
                      reversed(game._nb)):
        outs = sorted(f.outputs, key=m.level_of)
        w = m.apply("and", nbf, m.implies_forall(outs, f.pred, w))
    return m.apply("and", w, game.enc.control_domain())


def cpre(game, z):
    """States with a control choice that cannot miss `z`.

    Equals `ihide(u, ohide(x+, comp(F, Z+)))` and the direct form
    `exists u . (exists x+ . F) and (forall x+ . F -> Z+)`.
    """
    m = game.m
    stage = _cpre_stage(game, z)
    return m.exists(game.enc.all_control_vars, stage)


class TraceRow(NamedTuple):
    """One iteration, in the columns of `trace.csv`."""

    iteration: int
    nodes: int
    states: int
    seconds: float
    coarsen_events: int


@dataclass
class GameTrace:
    rows: list = field(default_factory=list)
    stop_reason: str = "budget"


@dataclass
class GameResult:
    """Outcome of a game iteration.

    `winning` is a sink over current-state bits: the last iterate,
    whatever the stop reason.  `controller` is the (state, control)
    sink of that same iterate: pairs that are nonblocking and whose
    every successor stays inside the winning region; hiding its control
    bits gives back `cpre(winning)`.
    """

    winning: Interface
    controller: Interface
    trace: GameTrace

    @property
    def iterations(self):
        return len(self.trace.rows)


def greedy_coarsen(game, z, node_threshold):
    """Shrink `z`'s node count by dropping precision one bit at a time.

    Each step universally quantifies the least significant state bit the
    predicate still depends on, per dimension (so a coarse cell wins
    only when all its fine cells did), and keeps the dimension losing
    the fewest states, ties to the earliest dimension.  In a reach game
    no step may drop a goal state.  Stops once the node count is within
    `node_threshold` or no step is left.  Returns (z, events).
    """
    m = game.m
    enc = game.enc
    events = 0
    xs = enc.all_state_vars
    keep = game.goal if game.objective == "reach" else m.false
    nodes = m.node_count(z)
    while nodes > node_threshold:
        sup = m.support(z)
        best = None
        for i, d in enumerate(enc.state_dims):
            used = [v for v in enc.state_vars(d.name) if v in sup]
            if not used:
                continue
            trial = m.forall([used[-1]], z)
            if not m.leq(keep, trial):
                continue
            reward = m.sat_count(trial, xs)
            if best is None or reward > best[0]:
                best = (reward, i, used[-1], trial)
        if best is None:
            break
        _, _, bit, trial = best
        z = trial
        events += 1
        nodes = m.node_count(z)
        log.debug("coarsened away %s, %d nodes left", bit, nodes)
    return z, events


def _iterate(game, levels, max_iters, coarsen_threshold=None):
    """Run `game`'s iteration through a sequence of precision levels.

    Each level is a `Game` with `game`'s goal and objective on dynamics
    of some precision; the first level starts from the empty set (reach)
    or the safe set (safe), and each later one from the region where the
    previous level stalled.  A level ends when a step returns its input
    ('fixed_point', which moves on to the next level), returns an
    earlier iterate of the same level ('cycle'), or exhausts the shared
    budget ('budget'); the last two end the whole run.  The last iterate
    is returned with the cpre stage of that same iterate as controller.
    """
    m = game.m
    xs, us = game.enc.all_state_vars, game.enc.all_control_vars
    reach = game.objective == "reach"
    fuse = "or" if reach else "and"
    z = m.false if reach else game.goal
    trace = GameTrace()
    for sub in levels:
        seen = {z}
        limit = m.size + SWEEP_SLACK
        trace.stop_reason = "budget"
        while len(trace.rows) < max_iters:
            t0 = time.perf_counter()
            stage = _cpre_stage(sub, z)
            zn = m.apply(fuse, m.exists(us, stage), game.goal)
            events = 0
            if coarsen_threshold is not None:
                zn, events = greedy_coarsen(game, zn, coarsen_threshold)
            dt = time.perf_counter() - t0
            row = TraceRow(len(trace.rows) + 1, m.node_count(zn),
                           m.sat_count(zn, xs), dt, events)
            trace.rows.append(row)
            log.debug("iter %d: %d nodes, %d states, %.3fs, %d coarsenings",
                      row.iteration, row.nodes, row.states, dt, events)
            if zn == z:
                trace.stop_reason = "fixed_point"
                break
            z = zn
            if z in seen:
                trace.stop_reason = "cycle"
                break
            seen.add(z)
            if m.size > limit:
                live, freed = m.sweep([*seen, *game.roots(), *sub.roots()])
                log.debug("sweep kept %d nodes, freed %d", live, freed)
                limit = live + SWEEP_SLACK
        if trace.stop_reason != "fixed_point":
            # any stage so far belongs to the iterate before `z`, and a
            # sweep may have freed it
            stage = _cpre_stage(sub, z)
            break
    m.protect(z)
    m.protect(stage)
    return GameResult(sink(m, xs, z), sink(m, xs + us, stage), trace)


def solve(game, max_iters=1_000_000, coarsen_threshold=None):
    """Iterate the game to a fixed point and extract a controller.

    Reach games grow `Z` from the empty set by `cpre(Z) or goal`; safe
    games shrink it from the safe set by `cpre(Z) and goal`.  With a
    coarsening threshold the winning region is greedily downsampled
    whenever it outgrows the node budget.  Coarsening keeps every
    iterate inside the exact winning region but can drop states an
    earlier iterate had (never a goal state), so the iteration is no
    longer monotone and can revisit an earlier iterate; it then stops
    with that iterate.

    Returns a `GameResult`; its trace rows record every iteration and
    `stop_reason` is 'fixed_point', 'cycle' or 'budget'.  The winning
    and controller predicates are pinned so that later solves on the
    same manager cannot sweep them away; `m.unprotect` releases them
    once a caller is done comparing results.

    The solve may free every node that is not reachable from `game`,
    the current precision level's iterates or a protected handle.  Any
    other handle the caller keeps across it, such as an interface or a
    goal meant for a later game, must be protected first.
    """
    return _iterate(game, [game], max_iters, coarsen_threshold)


def coarsen_component(game, f, level):
    """Project a dynamics component onto a coarser grid, in place.

    `level` maps state dimension names to the bit counts to keep.  Kept
    bits are the most significant ones.  Output blocks lose their low
    bits by existential projection; input blocks additionally demand
    that every dropped input cell is nonblocking, so the result is a
    sound abstraction (it refines upward to `f`).  Control bits always
    keep full precision.
    """
    m = game.m
    enc = game.enc
    unknown = set(level) - {d.name for d in enc.state_dims}
    if unknown:
        raise BddError("unknown state dimensions in level: %s"
                       % sorted(unknown))
    drop_in, drop_out = [], []
    for d in enc.state_dims:
        keep = level.get(d.name, d.bits)
        if not 0 <= keep <= d.bits:
            raise BddError("level %r out of range for %s" % (keep, d.name))
        cur = enc.state_vars(d.name)[keep:]
        nxt = enc.next_vars(d.name)[keep:]
        drop_in.extend(v for v in cur if v in f.inputs)
        drop_out.extend(v for v in nxt if v in f.outputs)
    pred = f.pred
    if drop_out:
        pred = m.exists(drop_out, pred)
    if drop_in:
        nbf = m.exists(f.outputs, pred)
        pred = m.apply("and", m.exists(drop_in, pred),
                       m.forall(drop_in, nbf))
    return Interface(m, f.inputs, f.outputs, pred)


def downsample_schedule(game, levels, max_iters=1_000_000):
    """Solve through a coarse-to-fine precision schedule.

    Each entry of `levels` maps state dimensions to kept bits (missing
    names keep full precision); a bare integer caps every dimension at
    that many bits.  The game runs at each level until the winning
    region stalls, then seeds the next level with it.  Because each
    level's basin under-approximates the next one's and the reach
    iteration is monotone, seeding never changes the final fixed point,
    only how fast it is found.  Safe games shrink toward their fixed
    point, so seeding them from below is unsound and is rejected.
    Returns a `GameResult` over the final level.
    """
    if game.objective != "reach":
        raise BddError("downsample_schedule requires a reach game")
    if not levels:
        raise BddError("downsample_schedule needs at least one level")
    enc = game.enc

    def at(level):
        if isinstance(level, int):
            level = {d.name: min(level, d.bits) for d in enc.state_dims}
        return Game(enc, [coarsen_component(game, f, level)
                          for f in game.components], "reach", game.goal)
    # built lazily: a level's dynamics are swept once it is done
    return _iterate(game, map(at, levels), max_iters)

