"""Output checks that share nothing with relsynth but its file formats.

Everything here is re-derived from the documented formats and the
vehicle model: the interface text format (`interface`, `inputs:`,
`outputs:`, `meta:`, `vars:`, node lines `id name lo hi`, `root id`),
the bit naming `<dim>_<k>` / `<dim>+_<k>` with bit 0 most significant,
the grid (`px, py` in [-2, 2), periodic `theta` in [-pi, pi), controls
`v` in (0.25, 0.5) and `omega` in (-1.5, 0, 1.5)), the `start,length`
cell runs of `winning_cells.csv`, and `trace.csv`.  No relsynth module is
imported, so a bug in the program cannot hide itself in its own checker.

Each check function returns a list of failure strings (empty means the
check passed) and fills a dict of counts for the report.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

PAPER_BASIN_7BIT = 631272
V_VALUES = (0.25, 0.5)
OMEGA_VALUES = (-1.5, 0.0, 1.5)
POS_LO, POS_HI = -2.0, 2.0
TWO_PI = 2.0 * math.pi


# -- interface files -----------------------------------------------------------

class Diagram:
    """A decision diagram read from an interface file."""

    def __init__(self, nodes, root):
        self.nodes = nodes  # id -> (var name, lo id, hi id)
        self.root = root

    def eval(self, asg):
        u = self.root
        nodes = self.nodes
        while u > 1:
            name, lo, hi = nodes[u]
            u = hi if asg[name] else lo
        return u == 1


def read_interface(path):
    """(inputs, outputs, meta dict, Diagram) of one interface file."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "interface":
        raise ValueError("%s: no interface header" % path)
    inputs = outputs = None
    meta = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("vars:"):
        key, _, rest = lines[i].partition(":")
        if key == "inputs":
            inputs = rest.split()
        elif key == "outputs":
            outputs = rest.split()
        elif key == "meta":
            meta = json.loads(rest)
        else:
            raise ValueError("%s: unexpected line %r" % (path, lines[i]))
        i += 1
    if i == len(lines) or inputs is None or outputs is None:
        raise ValueError("%s: header incomplete" % path)
    nodes = {}
    for ln in lines[i + 1:-1]:
        k, name, lo, hi = ln.split()
        k, lo, hi = int(k), int(lo), int(hi)
        if k < 2 or k in nodes or lo not in nodes and lo > 1 \
                or hi not in nodes and hi > 1:
            raise ValueError("%s: bad node line %r" % (path, ln))
        nodes[k] = (name, lo, hi)
    kw, root = lines[-1].split()
    if kw != "root" or int(root) not in nodes and int(root) > 1:
        raise ValueError("%s: bad root line" % path)
    return inputs, outputs, meta, Diagram(nodes, int(root))


def body_digest(path):
    """sha256 of an interface file without its `meta:` line, which
    carries wall-clock fields."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"meta:"):
                h.update(line)
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# -- the grid -----------------------------------------------------------------

class Grid:
    """The vehicle's state grid at `bits` bits per dimension."""

    def __init__(self, bits):
        self.bits = bits
        self.n = 1 << bits
        self.w_pos = (POS_HI - POS_LO) / self.n
        self.w_theta = TWO_PI / self.n

    def pos_cell(self, x):
        """Cell of a position, or None outside [-2, 2]."""
        if not POS_LO <= x <= POS_HI:
            return None
        return min(int((x - POS_LO) / self.w_pos), self.n - 1)

    def theta_cell(self, t):
        return min(int((wrap(t) + math.pi) / self.w_theta), self.n - 1)

    def cell_bounds(self, idx, lo, width):
        return lo + idx * width, lo + (idx + 1) * width

    def linear(self, ix, iy, it):
        return (ix << (2 * self.bits)) | (iy << self.bits) | it

    def split(self, idx):
        b = self.bits
        return idx >> (2 * b), (idx >> b) & (self.n - 1), idx & (self.n - 1)

    def bits_of(self, prefix, idx, asg):
        b = self.bits
        for k in range(b):
            asg["%s_%d" % (prefix, k)] = bool((idx >> (b - 1 - k)) & 1)

    def state_asg(self, ix, iy, it):
        asg = {}
        self.bits_of("px", ix, asg)
        self.bits_of("py", iy, asg)
        self.bits_of("theta", it, asg)
        return asg

    def inner_cells(self, lo, hi):
        """Position cells lying wholly inside [lo, hi], computed exactly."""
        lo, hi = Fraction(lo), Fraction(hi)
        w = Fraction(POS_HI - POS_LO) / self.n
        return [i for i in range(self.n)
                if POS_LO + i * w >= lo and POS_LO + (i + 1) * w <= hi]


def wrap(t):
    """Heading in [-pi, pi)."""
    return -math.pi + (t + math.pi) % TWO_PI


def control_asg(iv, io):
    """Bits of control value indices: v on 1 bit, omega on 2 bits."""
    return {"v_0": bool(iv), "omega_0": bool(io >> 1),
            "omega_1": bool(io & 1)}


def step(px, py, t, v, omega, length):
    """Concrete vehicle dynamics in plain floats."""
    return (px + v * math.cos(t), py + v * math.sin(t),
            wrap(t + (v / length) * math.sin(omega)))


# -- abstract outputs ----------------------------------------------------------

_SIGNATURE = {"px": ("px", "theta", "v"), "py": ("py", "theta", "v"),
              "theta": ("theta", "v", "omega")}


def check_abstraction(out, bits, length, rng, draws, counts):
    """Every interface file parses, has the vehicle signature, and admits
    the true successor of random accepted concrete points."""
    grid = Grid(bits)
    fails = []
    for comp, ins in _SIGNATURE.items():
        path = "%s/interface_%s.txt" % (out, comp)
        try:
            inputs, outputs, _, dia = read_interface(path)
        except (OSError, ValueError) as e:
            fails.append("abstract: %s" % e)
            continue
        want_in = {"%s_%d" % (d, k) for d in ins if d not in ("v", "omega")
                   for k in range(bits)}
        want_in |= {"v_0"} | ({"omega_0", "omega_1"}
                              if "omega" in ins else set())
        want_out = {"%s+_%d" % (comp, k) for k in range(bits)}
        if set(inputs) != want_in or set(outputs) != want_out:
            fails.append("abstract: %s signature differs" % comp)
            continue
        if dia.root == 0:
            fails.append("abstract: %s is bottom" % comp)
            continue
        bad = blocked = 0
        for _ in range(draws):
            px = rng.uniform(POS_LO, POS_HI)
            py = rng.uniform(POS_LO, POS_HI)
            t = rng.uniform(-math.pi, math.pi)
            iv, io = rng.randrange(2), rng.randrange(3)
            nx, ny, nt = step(px, py, t, V_VALUES[iv], OMEGA_VALUES[io],
                              length)
            asg = grid.state_asg(grid.pos_cell(px), grid.pos_cell(py),
                                 grid.theta_cell(t))
            asg.update(control_asg(iv, io))
            succ = {"px": grid.pos_cell(nx), "py": grid.pos_cell(ny),
                    "theta": grid.theta_cell(nt)}[comp]
            if succ is not None:
                grid.bits_of(comp + "+", succ, asg)
                if dia.eval(asg):
                    continue
            # the true successor is missing (or off the grid): sound only
            # if this input is blocked outright
            accepted = False
            for code in range(grid.n):
                grid.bits_of(comp + "+", code, asg)
                if dia.eval(asg):
                    accepted = True
                    break
            if accepted:
                bad += 1
            else:
                blocked += 1
        counts["abstraction_unsound_%s" % comp] = bad
        counts["abstraction_blocked_%s" % comp] = blocked
        if bad:
            fails.append("abstract: %s misses %d of %d true successors"
                         % (comp, bad, draws))
    return fails


# -- solve outputs ------------------------------------------------------------

def read_runs(path, total):
    """Winning bitmap and state count from `winning_cells.csv`."""
    bitmap = bytearray(total)
    count = 0
    prev_end = -1
    with open(path) as fh:
        if fh.readline().strip() != "start,length":
            raise ValueError("winning_cells.csv: bad header")
        for line in fh:
            start, length = (int(x) for x in line.split(","))
            if start <= prev_end or length < 1 or start + length > total:
                raise ValueError("winning_cells.csv: bad run %r"
                                 % line.strip())
            bitmap[start:start + length] = b"\x01" * length
            count += length
            prev_end = start + length
    return bitmap, count


def read_trace(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            rows.append(dict(zip(header, line.strip().split(","))))
    return rows


_SUMMARY = re.compile(r"(reach|safe): basin (\d+) states \(goal (\d+)\), "
                      r"(\d+) iterations, stop=(\w+)")


def check_solve(out, stdout, spec, grid, length, rng, draws, counts):
    """Consistency, goal, basin-reference, stop and closed-loop checks.

    `spec` carries the objective, the goal box and whether the basin
    must match the paper's 7-bit reference.  Fills `counts` with the
    basin, iterations, stop reason, digests and closed-loop tallies.
    """
    fails = []
    m = _SUMMARY.search(stdout)
    if m is None:
        return ["solve: no summary line on stdout"]
    kind, basin_out, iters_out, stop = (m.group(1), int(m.group(2)),
                                        int(m.group(4)), m.group(5))
    counts.update(stop=stop, basin=basin_out, iterations=iters_out)
    try:
        _, _, wmeta, wdia = read_interface(out + "/winning.txt")
        _, _, _, cdia = read_interface(out + "/controller.txt")
        total = 1 << (3 * grid.bits)
        bitmap, basin_csv = read_runs(out + "/winning_cells.csv", total)
        trace = read_trace(out + "/trace.csv")
        counts["iter_seconds"] = [float(r["seconds"]) for r in trace]
        counts["iter_nodes"] = [int(r["nodes"]) for r in trace]
        basin_trace = int(trace[-1]["states"]) if trace else None
    except (OSError, ValueError, KeyError) as e:
        return ["solve: unreadable output: %s" % e]
    counts["digest_cells"] = file_digest(out + "/winning_cells.csv")
    counts["digest_winning"] = body_digest(out + "/winning.txt")
    counts["digest_controller"] = body_digest(out + "/controller.txt")
    basins = {"stdout": basin_out, "winning.txt": wmeta.get("basin_states"),
              "trace.csv": basin_trace, "winning_cells.csv": basin_csv}
    if len(set(basins.values())) != 1:
        fails.append("solve: basins disagree %r" % basins)
    if kind != spec["objective"] or wmeta.get("stop") != stop \
            or len(trace) != iters_out:
        fails.append("solve: summary, meta and trace disagree")
    if stop not in ("fixed_point", "cycle"):
        fails.append("solve: stop=%s" % stop)
    if spec["objective"] == "reach":
        gx = grid.inner_cells(*spec["box"]["px"])
        gy = grid.inner_cells(*spec["box"]["py"])
        missing = sum(1 for ix in gx for iy in gy for it in range(grid.n)
                      if not bitmap[grid.linear(ix, iy, it)])
        counts["goal_cells_missing"] = missing
        if missing:
            fails.append("solve: %d goal cells not winning" % missing)
    if spec.get("paper_basin") and \
            abs(basin_csv - PAPER_BASIN_7BIT) > 0.1 * PAPER_BASIN_7BIT:
        fails.append("solve: basin %d not within 10%% of %d"
                     % (basin_csv, PAPER_BASIN_7BIT))
    if stop == "budget":
        # the controller belongs to the iterate before the last one, so
        # the closed loop says nothing about the returned region
        return fails
    fails.extend(closed_loop(bitmap, basin_csv, wdia, cdia, grid, length,
                             rng, draws, counts))
    return fails


def closed_loop(bitmap, basin, wdia, cdia, grid, length, rng, draws,
                counts):
    """Step the concrete dynamics from random winning states under an
    allowed control; every successor must stay winning.  Also checks
    that `winning.txt` and `winning_cells.csv` agree on every drawn cell.
    """
    fails = []
    violations = blocked = disagree = 0
    if basin:
        cells = [i for i, b in enumerate(bitmap) if b]
        for _ in range(draws):
            idx = cells[rng.randrange(len(cells))]
            ix, iy, it = grid.split(idx)
            px = rng.uniform(*grid.cell_bounds(ix, POS_LO, grid.w_pos))
            py = rng.uniform(*grid.cell_bounds(iy, POS_LO, grid.w_pos))
            t = rng.uniform(*grid.cell_bounds(it, -math.pi, grid.w_theta))
            asg = grid.state_asg(ix, iy, it)
            if not wdia.eval(asg):
                disagree += 1
            allowed = []
            for iv in range(2):
                for io in range(3):
                    asg.update(control_asg(iv, io))
                    if cdia.eval(asg):
                        allowed.append((iv, io))
            if not allowed:
                blocked += 1
                continue
            iv, io = allowed[rng.randrange(len(allowed))]
            nx, ny, nt = step(px, py, t, V_VALUES[iv], OMEGA_VALUES[io],
                              length)
            jx, jy = grid.pos_cell(nx), grid.pos_cell(ny)
            if jx is None or jy is None \
                    or not bitmap[grid.linear(jx, jy, grid.theta_cell(nt))]:
                violations += 1
    counts.update(loop_draws=draws if basin else 0, loop_violations=violations,
                  loop_blocked=blocked, cells_disagree=disagree)
    if violations:
        fails.append("closed loop: %d of %d successors left the winning "
                     "region" % (violations, draws))
    if disagree:
        fails.append("winning.txt and winning_cells.csv disagree on %d "
                     "drawn cells" % disagree)
    return fails
