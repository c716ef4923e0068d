"""Rank the vehicle's block orders by the nodes its reach solve creates.

Usage:
    PYTHONPATH=src python3 tools/rank_orders.py [--bits N]

For each of the 120 orders of the blocks `px, py, theta, v, omega`, on
a fresh `Encoding(level_order=...)`: build the N-bit (default 5)
exhaustive interfaces of the built-in vehicle through `cli._build`,
solve the default reach game through `cli.solve_game`, and record the
nodes the solve creates (the growth of the store's live count: exact
unless the solve sweeps, which it does only past `games.SWEEP_SLACK`
nodes of garbage, never at 5 or 6 bits), its seconds and its basin.
Every order must give the same basin; the tool exits 1 if one does
not.

Prints one line per order, fewest nodes first (ties in enumeration
order), with its rank, nodes created, solve seconds and the order; the
order that `cli.VEHICLE_ORDER` names is marked with `*`.  The nodes are
deterministic; the seconds are not, so rank by the nodes.  The whole
ranking takes about 30 s at 5 bits and 3 min at 6 bits.
"""

import argparse
import itertools
import sys

from relsynth import cli
from relsynth.spaces import Encoding

BLOCKS = ("px", "py", "theta", "v", "omega")


def measure(bits, orders):
    """One `(nodes created, solve seconds, basin)` per order: the
    default reach solve of the N-bit exhaustive vehicle in that order."""
    cfg = cli.load_config(None, {"bits": bits})
    base, comps = cli.build_system(cfg)
    plans = [cli.build_plan(cfg)] * len(comps)
    rows = []
    for order in orders:
        enc = Encoding(base.state_dims, base.control_dims,
                       level_order=order)
        goal = cli.build_goal(cfg, enc)
        interfaces = cli._build(enc, comps, plans, [goal])[0]
        before = enc.m.size
        _, basin, seconds = cli.solve_game(cfg, enc, interfaces, goal)
        rows.append((enc.m.size - before, seconds, basin))
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(prog="rank_orders.py")
    p.add_argument("--bits", type=int, default=5,
                   help="bits of each state dimension (default 5)")
    args = p.parse_args(argv)
    orders = list(itertools.permutations(BLOCKS))
    rows = measure(args.bits, orders)
    basins = {basin for _, _, basin in rows}
    ranked = sorted(range(len(orders)), key=lambda k: rows[k][0])
    print("rank nodes seconds order")
    for rank, k in enumerate(ranked, 1):
        nodes, seconds, _ = rows[k]
        print("%d %d %.3f %s%s" % (rank, nodes, seconds, ",".join(orders[k]),
                                   " *" if orders[k] == cli.VEHICLE_ORDER
                                   else ""))
    if len(basins) != 1:
        print("basins differ: %s" % sorted(basins))
        return 1
    print("basin %d states in every order" % basins.pop())
    return 0


if __name__ == "__main__":
    sys.exit(main())
