"""End-to-end command-line checks on small grids."""

import hashlib
import os
import re
import subprocess
import sys

import pytest
import yaml

import relsynth.cli as cli
import relsynth.games as games
from relsynth.bdd import BDD
from relsynth.cli import (ConfigError, build_system, cmd_experiment,
                          load_config, main)
from relsynth.games import GameTrace, TraceRow
from relsynth.interfaces import load_interface
from relsynth.spaces import Dimension, Encoding, code_range


def write_config(path, **extra):
    cfg = {"system": "dubins", "bits": 3,
           "plan": {"kind": "exhaustive"}}
    cfg.update(extra)
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        header, *rows = fh.read().strip().splitlines()
    return header.split(","), [r.split(",") for r in rows]


def declaration_order(monkeypatch):
    """Build every system in the declaration order of its dimensions,
    the layout the vehicle had before its heading moved to the top."""
    monkeypatch.setattr(cli, "Encoding",
                        lambda *a, level_order=None, **kw: Encoding(*a, **kw))


def drop_seconds(path):
    """CSV contents with any seconds column blanked, for determinism
    comparisons (wall time is the one legitimately varying output)."""
    header, rows = read_csv_rows(path)
    keep = [i for i, name in enumerate(header) if "seconds" not in name]
    return [tuple(r[i] for i in keep) for r in rows]


def test_toy_reach_writes_two_row_trace(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", system="toy1d",
                       objective={"kind": "reach",
                                  "box": {"x": [0.25, 0.5]},
                                  "encode": "inner"},
                       out=str(tmp_path / "run"))
    assert main(["solve", "--config", cfg]) == 0
    header, rows = read_csv_rows(tmp_path / "run" / "trace.csv")
    assert header == ["iter", "nodes", "states", "seconds",
                      "coarsen_events"]
    assert len(rows) == 2
    # identity dynamics cannot leave the goal: basin == goal cells
    with open(tmp_path / "run" / "winning_cells.csv") as fh:
        assert fh.read() == "start,length\n2,2\n"


def test_trace_csv_and_cell_runs(tmp_path):
    """One writer formats every CSV: floats as `%.6f`, the rest by str."""
    path = tmp_path / "out.csv"
    tr = GameTrace([TraceRow(1, 0, 5, 12, 0.25, 0),
                    TraceRow(2, 0, 7, 30, 1.5, 2)], "fixed_point")
    cli._write_csv(path, cli._TRACE_HEADER, cli._trace_rows(tr))
    assert path.read_text() == (
        "iter,nodes,states,seconds,coarsen_events\n"
        "1,5,12,0.250000,0\n"
        "2,7,30,1.500000,2\n")

    enc = Encoding([Dimension.continuous("px", 0.0, 1.0, 2)],
                   [Dimension.discrete("u", (0.0, 1.0))])
    cli._write_csv(path, "start,length", enc.cell_runs(
        code_range(enc.m, enc.state_vars("px"), 1, 2)))
    assert path.read_text() == "start,length\n1,2\n"

    cli._write_csv(path, "plan,samples,basin,seconds",
                   [("exhaustive", "", 320, 0.5)])
    assert path.read_text() == (
        "plan,samples,basin,seconds\n"
        "exhaustive,,320,0.500000\n")


def interface_bodies(out):
    """Each interface file of an `abstract` run, without its meta line
    (which carries the build seconds)."""
    return {name: [line for line in (out / name).read_text().splitlines()
                   if not line.startswith("meta:")]
            for name in sorted(os.listdir(out)) if name != "config.yaml"}


def test_seed_flag_overrides_the_config(tmp_path):
    """`--seed` reaches a sampling plan that names no seed of its own,
    as `seed:` in the config does, and the run records it."""
    plan = {"kind": "random_rects", "count": 40}
    flag = write_config(tmp_path / "f.yaml", plan=plan,
                        out=str(tmp_path / "flag"))
    keyed = write_config(tmp_path / "k.yaml", plan=plan, seed=5,
                         out=str(tmp_path / "keyed"))
    unseeded = write_config(tmp_path / "u.yaml", plan=plan,
                            out=str(tmp_path / "unseeded"))
    assert main(["abstract", "--config", flag, "--seed", "5"]) == 0
    assert main(["abstract", "--config", keyed]) == 0
    assert main(["abstract", "--config", unseeded]) == 0
    got = interface_bodies(tmp_path / "flag")
    assert len(got) == 3
    assert got == interface_bodies(tmp_path / "keyed")
    assert got != interface_bodies(tmp_path / "unseeded")
    recorded = yaml.safe_load((tmp_path / "flag" / "config.yaml").read_text())
    assert recorded["seed"] == 5


def test_abstract_then_solve_from_files(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    files = sorted(os.listdir(tmp_path / "abs"))
    assert files == ["config.yaml", "interface_px.txt",
                     "interface_py.txt", "interface_theta.txt"]
    paths = [str(tmp_path / "abs" / f) for f in files if f != "config.yaml"]
    cfg2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "run"))
    assert main(["solve", "--config", cfg2] + paths) == 0
    produced = set(os.listdir(tmp_path / "run"))
    assert {"config.yaml", "trace.csv", "winning.txt", "controller.txt",
            "winning_cells.csv"} <= produced
    assert "slice_theta_000.pgm" in produced


def test_solve_from_files_matches_in_process(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    main(["abstract", "--config", cfg])
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    cfg_a = write_config(tmp_path / "a.yaml", out=str(tmp_path / "ra"))
    cfg_b = write_config(tmp_path / "b.yaml", out=str(tmp_path / "rb"))
    assert main(["solve", "--config", cfg_a] + paths) == 0
    assert main(["solve", "--config", cfg_b]) == 0
    for name in ("winning_cells.csv", "winning.txt", "controller.txt"):
        with open(tmp_path / "ra" / name) as fh:
            got = fh.read()
        with open(tmp_path / "rb" / name) as fh:
            want = fh.read()
        # saved interfaces carry timing metadata; cells and trace don't
        if name == "winning_cells.csv":
            assert got == want
        else:
            assert got.splitlines()[:3] == want.splitlines()[:3]
            assert got.splitlines()[4:] == want.splitlines()[4:]


def test_repeat_runs_are_deterministic(tmp_path):
    outs = []
    for tag in ("one", "two"):
        cfg = write_config(
            tmp_path / ("%s.yaml" % tag),
            plan={"kind": "random_rects", "count": 40, "seed": 9},
            out=str(tmp_path / tag))
        assert main(["solve", "--config", cfg]) == 0
        outs.append(tmp_path / tag)
    for name in ("winning_cells.csv",):
        assert (outs[0] / name).read_text() == (outs[1] / name).read_text()
    assert drop_seconds(outs[0] / "trace.csv") \
        == drop_seconds(outs[1] / "trace.csv")
    # resolved configs agree on everything but the output directory
    a = yaml.safe_load((outs[0] / "config.yaml").read_text())
    b = yaml.safe_load((outs[1] / "config.yaml").read_text())
    a.pop("out"), b.pop("out")
    assert a == b and a["version"]


# sha256 of `to_text` of the vehicle's px, py and theta interfaces at 5
# bits, recorded from a builder that checked every interval operand and
# wrapped the heading in its evaluator: how the interval code checks and
# wraps must not move a cell
VEHICLE_DIGESTS = {
    "exhaustive": (
        "8aaeac0338c0379f54a1a20091f0e1803f1a438a96e9ace897ec184ca7d7f45b",
        "1373361dde3f281a2d6d1f40fd9fd88f1cb1553fb93b7666cd83c85e47122b4c",
        "945ca84a03d6f72a4479f3531d142f8b7b19560fd7a194f56a2212692d10bab6"),
    "random_rects": (
        "7b89b652ee60a8fadc443fa9eaeb7b6da7ee6299e652f53768a63f7b1f7cbaf6",
        "68a3b456c22be84f6677e53e69f2c1df5f5b26254d5faff04114b584e4e32f3e",
        "efc9531f151d159f3d5656b94b5aa52e1a834c4b5d05b8c1e67a2c2db93235db"),
    "short": (
        "8aaeac0338c0379f54a1a20091f0e1803f1a438a96e9ace897ec184ca7d7f45b",
        "1373361dde3f281a2d6d1f40fd9fd88f1cb1553fb93b7666cd83c85e47122b4c",
        "e783fcdc7ba2d4fffbce62f811a6e6750a18ce832630207c2297c5ab98943bcf"),
}


@pytest.mark.parametrize("label, extra", [
    ("exhaustive", {}),
    ("random_rects", {"plan": {"kind": "random_rects", "count": 300,
                               "seed": 1}}),
    ("short", {"length": 0.7}),
])
def test_vehicle_interfaces_match_recorded_digests(tmp_path, label, extra):
    cfg = load_config(write_config(tmp_path / "c.yaml", bits=5, **extra))
    enc, comps = build_system(cfg)
    plan = cli.build_plan(cfg)
    assert [c.name for c in comps] == ["px", "py", "theta"]
    got = tuple(hashlib.sha256(enc.m.to_text(
        cli.traverse(c, plan, enc).pred).encode()).hexdigest()
        for c in comps)
    assert got == VEHICLE_DIGESTS[label]


def test_five_bit_run_pins_its_counts(tmp_path, capsys):
    """`abstract`, then `solve` of its files, at 5 bits: the interface
    sizes, the basin and the iterations are deterministic, so a change
    that moves them shows here even where the timings hide it."""
    cfg = write_config(tmp_path / "c.yaml", bits=5, images=False,
                       out=str(tmp_path / "run"))
    assert main(["abstract", "--config", cfg]) == 0
    files = [str(tmp_path / "run" / ("interface_%s.txt" % c))
             for c in ("px", "py", "theta")]
    assert main(["solve", "--config", cfg] + files) == 0
    out = capsys.readouterr().out
    assert re.findall(r"interface_(\w+)\.txt \((\d+) nodes", out) == [
        ("px", "285"), ("py", "285"), ("theta", "41")]
    assert ("reach: basin 6080 states (goal 2048), 9 iterations, "
            "stop=fixed_point") in out


def test_log_level_debug_shows_the_iterations(tmp_path):
    """`--log-level debug` writes the solver's iteration lines to stderr
    and leaves stdout as it is; without the flag stderr has none."""
    cfg = write_config(tmp_path / "c.yaml", system="toy1d",
                       objective={"kind": "reach",
                                  "box": {"x": [0.25, 0.5]},
                                  "encode": "inner"},
                       out=str(tmp_path / "run"))
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*flags):
        return subprocess.run(
            [sys.executable, "-m", "relsynth.cli", "solve", "--config", cfg]
            + list(flags), capture_output=True, text=True, env=env,
            timeout=120)
    quiet, loud = run(), run("--log-level", "debug")
    assert quiet.returncode == loud.returncode == 0, loud.stderr
    assert loud.stdout == quiet.stdout
    assert "iter 1:" in loud.stderr
    assert "iter 1:" not in quiet.stderr


def test_level_order_keeps_cells_and_slices(tmp_path, monkeypatch):
    """The vehicle's level order changes the diagrams, not the cells:
    a solve in the declaration order writes the same cell runs and
    slice images."""
    cfg = write_config(tmp_path / "c.yaml", bits=4, out=str(tmp_path / "new"))
    assert main(["solve", "--config", cfg]) == 0
    with monkeypatch.context() as mp:
        declaration_order(mp)
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "old")]) == 0
    new, old = tmp_path / "new", tmp_path / "old"
    assert (new / "winning.txt").read_text().count("vars: theta_0 ") == 1
    assert (old / "winning.txt").read_text().count("vars: px_0 ") == 1
    slices = sorted(n for n in os.listdir(new) if n.startswith("slice_"))
    assert len(slices) == 16
    for name in ["winning_cells.csv"] + slices:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


def test_interface_file_of_another_order_exits_2(tmp_path, monkeypatch,
                                                 capsys):
    """An interface file is tied to the variable order it was written
    in; a vehicle file in the declaration order does not load."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    with monkeypatch.context() as mp:
        declaration_order(mp)
        assert main(["abstract", "--config", cfg]) == 0
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    capsys.readouterr()
    assert main(["solve", "--config", cfg,
                 "--out", str(tmp_path / "run")] + paths) == 2
    err = capsys.readouterr().err
    assert "variable order differs from this system's" in err
    assert "re-run `relsynth abstract`" in err
    assert not os.path.exists(tmp_path / "run")


def test_slice_images_partition_the_basin(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "run"))
    assert main(["solve", "--config", cfg]) == 0
    with open(tmp_path / "run" / "winning_cells.csv") as fh:
        basin = sum(int(line.split(",")[1])
                    for line in fh.read().splitlines()[1:])
    white = 0
    for t in range(8):
        data = (tmp_path / "run" / ("slice_theta_%03d.pgm" % t)).read_bytes()
        magic, _comment, size, depth, pixels = data.split(b"\n", 4)
        assert magic == b"P5" and size == b"8 8" and depth == b"255"
        assert len(pixels) == 64 and set(pixels) <= {0, 255}
        white += pixels.count(255)
    assert white == basin


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("system: nonsuch\n")
    assert main(["solve", "--config", str(bad)]) == 2
    bad.write_text("bits: 3\nunknown_key: 1\n")
    assert main(["solve", "--config", str(bad)]) == 2
    bad.write_text("system: custom\n")
    assert main(["solve", "--config", str(bad)]) == 2
    bad.write_text("plan: {kind: random_rects, sizes: [3]}\n")
    assert main(["abstract", "--config", str(bad)]) == 2
    assert main(["solve", "--config", str(tmp_path / "absent.yaml")]) == 2
    # a node cap beyond what 28-bit handles can address
    cap = write_config(tmp_path / "cap.yaml", cap=1 << 28,
                       out=str(tmp_path / "rc"))
    assert main(["abstract", "--config", cap]) == 2
    assert not os.path.exists(tmp_path / "rc")
    # malformed values are configuration errors, not tracebacks
    for extra in ({"objective": {"kind": "reach",
                                 "box": {"px": ["abc", 1]}}},
                  {"plan": {"kind": "exhaustive", "bits": 3}},
                  {"plan": {"kind": "exhaustive", "bits": {"px": "two"}}},
                  {"plan": {"kind": "shifted_grids", "sizes": ["a"]}},
                  {"view": {"px": "a"}},
                  {"view": {"pz": 2}},
                  {"bits": {"px": 3, "py": 3, "theta": 3, "pz": 9}},
                  {"length": "abc"},
                  {"cap": 0},
                  {"cap": "many"},
                  {"objective": 3},
                  # YAML booleans are Python ints, but no count or bound
                  {"cap": True},
                  {"bits": True},
                  {"bits": {"px": True, "py": 3, "theta": 3}},
                  {"plan": {"kind": "exhaustive", "bits": {"px": True}}},
                  {"plan": {"kind": "random_rects", "count": True}},
                  {"plan": {"kind": "random_rects", "seed": False}},
                  {"plan": {"kind": "shifted_grids", "sizes": [True]}},
                  {"view": {"px": True}},
                  {"seed": True},
                  {"length": True},
                  {"objective": {"kind": "reach",
                                 "box": {"px": [False, 1]}}},
                  {"solver": {"max_iters": True}},
                  {"solver": {"coarsen_threshold": True}},
                  {"solver": {"downsample": [True]}},
                  {"images": "no"}):
        cfg = write_config(tmp_path / "m.yaml", out=str(tmp_path / "rm"),
                           **extra)
        assert main(["solve", "--config", cfg]) == 2, extra
        assert not os.path.exists(tmp_path / "rm"), extra
    # an experiment sets up before it writes anything
    cfg = write_config(tmp_path / "m.yaml", out=str(tmp_path / "re"),
                       view={"pz": 2})
    assert main(["experiment", "decomp_vs_mono", "--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "re")
    cfg = write_config(tmp_path / "m.yaml", out=str(tmp_path / "re"),
                       experiment={"counts": [True]})
    assert main(["experiment", "basin_vs_samples", "--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "re")
    # every experiment takes a mapping, and only the keys it reads
    for name in ("basin_vs_samples", "greedy_cap", "decomp_vs_mono"):
        for exp in (None, [1], 5, {"counts": 5}, {"foo": 1}):
            cfg = write_config(tmp_path / "m.yaml", out=str(tmp_path / "re"),
                               experiment=exp)
            assert main(["experiment", name, "--config", cfg]) == 2, \
                (name, exp)
            assert not os.path.exists(tmp_path / "re"), (name, exp)
    good = write_config(tmp_path / "ok.yaml", out=str(tmp_path / "r"))
    assert main(["solve", "--config", good,
                 str(tmp_path / "nofile.txt")]) == 2


@pytest.mark.parametrize("make_out", [
    lambda tmp: "",
    lambda tmp: (tmp / "file").write_text("x") and str(tmp / "file"),
    lambda tmp: (tmp / "file").write_text("x") and str(tmp / "file" / "run"),
], ids=["empty", "regular-file", "under-a-file"])
def test_unusable_out_exits_2(tmp_path, capsys, make_out):
    """An output directory that cannot be made is a configuration error,
    and the run creates nothing."""
    out = make_out(tmp_path)
    cfg = write_config(tmp_path / "c.yaml", system="toy1d",
                       objective={"kind": "reach", "box": {"x": [0, 0.5]}})
    before = sorted(os.listdir(tmp_path))
    assert main(["solve", "--config", cfg, "--out", out]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before
    if os.path.isfile(tmp_path / "file"):
        assert (tmp_path / "file").read_text() == "x"


def test_run_repeats_from_its_own_config(tmp_path):
    """Each output's `config.yaml`, which records the tool version,
    repeats its run with the same interfaces and basin."""
    cfg = write_config(tmp_path / "c.yaml",
                       plan={"kind": "random_rects", "count": 40},
                       out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    files = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run")]
                + files) == 0
    assert main(["abstract", "--config", str(tmp_path / "abs" / "config.yaml"),
                 "--out", str(tmp_path / "abs2")]) == 0
    assert interface_bodies(tmp_path / "abs2") \
        == interface_bodies(tmp_path / "abs")
    assert main(["solve", "--config", str(tmp_path / "run" / "config.yaml"),
                 "--out", str(tmp_path / "run2")] + files) == 0
    assert (tmp_path / "run2" / "winning_cells.csv").read_text() \
        == (tmp_path / "run" / "winning_cells.csv").read_text()


@pytest.mark.parametrize("plan", [
    pytest.param({"kind": "random_rects", "count": "x"}, id="x"),
    pytest.param({"kind": "random_rects", "count": -5}, id="-5"),
    pytest.param({"kind": "shifted_grids", "sizes": [0]}, id="size-0"),
    pytest.param({"kind": "exhaustive", "bits": {"px": 9}}, id="bits-px-9"),
])
def test_plan_count_is_checked_without_a_build(tmp_path, plan):
    """`solve` from interface files builds no plan, and still rejects a
    bad plan (a count, a grid size, or plan bits finer than the grid)
    before it writes anything."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    files = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    bad = write_config(tmp_path / "b.yaml", out=str(tmp_path / "run"),
                       plan=plan)
    assert main(["solve", "--config", bad] + files) == 2
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("extra", [
    {"length": 10 ** 400},
    {"objective": {"kind": "reach", "box": {"px": [0, 10 ** 400]}}},
], ids=["length", "objective-box"])
def test_numbers_beyond_float_range_exit_2(tmp_path, extra):
    """A YAML integer too large for a float is no finite number."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "run"),
                       **extra)
    assert main(["solve", "--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "run")


def test_readme_documents_every_config_key():
    """The top-level bullets of the README's configuration reference
    name exactly the configuration's keys."""
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Configuration reference")[1]
    section = section.split("\n## ")[0]
    keys = set()
    for bullet in re.findall(r"^- (`\w+`(?: / `\w+`)*)", section, re.M):
        keys.update(re.findall(r"`(\w+)`", bullet))
    assert keys == set(cli.DEFAULTS)


@pytest.mark.parametrize("command, extra", [
    (["abstract"], {"plan": {"kind": "exhaustive", "bits": {"pz": 2}}}),
    (["abstract"], {"plan": {"kind": "exhaustive", "bits": {"px": 9}}}),
    (["abstract"], {"view": {"px": 9}}),
    (["abstract"], {"plan": {"kind": "shifted_grids", "sizes": [0]}}),
    (["solve"], {"solver": {"downsample": [{"pz": 2}]}}),
    (["solve"], {"solver": {"downsample": [{"px": 9}]}}),
    (["experiment", "decomp_vs_mono"], {"view": {"px": 9}}),
    (["experiment", "greedy_cap"],
     {"plan": {"kind": "exhaustive", "bits": {"pz": 1}}}),
], ids=["abstract-plan-bits-name", "abstract-plan-bits-range",
        "abstract-view", "abstract-grid-size", "solve-downsample-name",
        "solve-downsample-range", "decomp_vs_mono-view",
        "greedy_cap-plan-bits-name"])
def test_late_errors_leave_no_output(tmp_path, command, extra):
    """An error the library raises after setup still exits 2, and the
    command has written nothing: the output starts after the work."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "out"),
                       **extra)
    assert main(command + ["--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "out")


def test_plan_bits_may_name_one_component_input(tmp_path):
    """Plan bits name dimensions of the system; a component ignores the
    names it does not read."""
    outs = {}
    for tag, plan in (("plain", {"kind": "exhaustive"}),
                      ("px2", {"kind": "exhaustive", "bits": {"px": 2}})):
        cfg = write_config(tmp_path / ("%s.yaml" % tag), bits=4, plan=plan,
                           out=str(tmp_path / tag))
        assert main(["abstract", "--config", cfg]) == 0
        outs[tag] = {}
    enc, _ = build_system(load_config(cfg))  # one manager for all six
    for tag in outs:
        for name in ("px", "py", "theta"):
            with open(tmp_path / tag / ("interface_%s.txt" % name)) as fh:
                outs[tag][name] = load_interface(enc.m, fh)[0].pred
    assert outs["px2"]["py"] == outs["plain"]["py"]
    assert outs["px2"]["theta"] == outs["plain"]["theta"]
    assert outs["px2"]["px"] != outs["plain"]["px"]
    cfg = write_config(tmp_path / "pz.yaml", bits=4,
                       plan={"kind": "exhaustive", "bits": {"pz": 2}},
                       out=str(tmp_path / "pz"))
    assert main(["abstract", "--config", cfg]) == 2
    # a control may be named too, though it has no grid to coarsen
    build_system(load_config(write_config(
        tmp_path / "v.yaml", plan={"kind": "exhaustive", "bits": {"v": 5}})))


def test_bits_mismatch_between_files_and_config(tmp_path):
    cfg3 = write_config(tmp_path / "c3.yaml", out=str(tmp_path / "abs"))
    main(["abstract", "--config", cfg3])
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    cfg4 = write_config(tmp_path / "c4.yaml", bits=4,
                        out=str(tmp_path / "run"))
    assert main(["solve", "--config", cfg4] + paths) == 2


def test_files_fit_a_config_with_the_same_grid(tmp_path):
    """A file fits when its variables do: files built at `bits: 3`
    solve under the same grid written as a map, as a fresh build does."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    as_map = write_config(tmp_path / "m.yaml",
                          bits={"px": 3, "py": 3, "theta": 3},
                          out=str(tmp_path / "files"))
    assert main(["solve", "--config", as_map] + paths) == 0
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "built")]) == 0
    assert (tmp_path / "files" / "winning_cells.csv").read_text() == \
        (tmp_path / "built" / "winning_cells.csv").read_text()


@pytest.mark.parametrize("built, solved, message", [
    (3, 4, "missing ['px+_3', 'py+_3', 'theta+_3'], extra []"),
    (4, 3, "unknown variable: 'theta_3'"),
], ids=["coarser-file", "finer-file"])
def test_files_of_another_grid_name_the_bits(tmp_path, capsys, built,
                                             solved, message):
    """A coarser file leaves next-state bits uncovered and the game
    names them; a finer one names a variable the system lacks."""
    cfg = write_config(tmp_path / "c.yaml", bits=built,
                       out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    cfg = write_config(tmp_path / "s.yaml", bits=solved,
                       out=str(tmp_path / "run"))
    capsys.readouterr()
    assert main(["solve", "--config", cfg] + paths) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def _replace(k, line):
    def edit(lines):
        lines = list(lines)
        lines[k] = line
        return lines
    return edit


# each edit of a 3-bit toy1d interface file, whose lines are the header
# `interface`, `inputs:`, `outputs:`, `meta:` and `vars:`, then the
# nodes from id 2, then `root`
@pytest.mark.parametrize("edit, message", [
    (_replace(5, "2 x+_2 1"), "malformed node line: '2 x+_2 1'"),
    (_replace(5, "two x+_2 1 0"), "malformed node line: 'two x+_2 1 0'"),
    (lambda lines: lines[:6] + lines[5:], "duplicate node id 2"),
    (_replace(-1, "root x"), "malformed root line: 'root x'"),
    (_replace(-1, "root 999"), "root id 999 is undefined"),
    (lambda lines: lines[:1] + ["colour: blue"] + lines[1:],
     "unexpected line in interface stream: 'colour: blue'"),
    (_replace(3, "meta: {"), "malformed meta line"),
], ids=["node-three-fields", "node-not-numeric", "node-duplicate-id",
        "root-not-numeric", "root-undefined", "header-unexpected",
        "meta-not-json"])
def test_malformed_interface_file_exits_2(tmp_path, capsys, edit, message):
    toy = {"system": "toy1d",
           "objective": {"kind": "reach", "box": {"x": [0.25, 0.5]},
                         "encode": "inner"}}
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"), **toy)
    assert main(["abstract", "--config", cfg]) == 0
    lines = (tmp_path / "abs" / "interface_hold.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in lines[:5]] == [
        "interface", "inputs", "outputs", "meta", "vars"]
    assert lines[5].split()[0] == "2" and lines[-1].startswith("root ")
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "run"),
                 str(bad)]) == 2
    assert "config error: %s: %s" % (bad, message) \
        in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_interface_file_whose_meta_is_no_object_exits_2(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    paths = [str(tmp_path / "abs" / ("interface_%s.txt" % n))
             for n in ("px", "py", "theta")]
    with open(paths[0]) as fh:
        lines = [("meta: [1]" if ln.startswith("meta:") else ln)
                 for ln in fh.read().splitlines()]
    with open(paths[0], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    cfg2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "run"))
    assert main(["solve", "--config", cfg2] + paths) == 2
    assert not os.path.exists(tmp_path / "run")


def test_node_cap_exits_3(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", bits=4, cap=60,
                       out=str(tmp_path / "run"))
    assert main(["abstract", "--config", cfg]) == 3


def test_out_of_order_interface_file_exits_2(tmp_path):
    toy = {"system": "toy1d",
           "objective": {"kind": "reach", "box": {"x": [0.25, 0.5]},
                         "encode": "inner"}}
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"), **toy)
    assert main(["abstract", "--config", cfg]) == 0
    lines = (tmp_path / "abs" / "interface_hold.txt").read_text().splitlines()
    root = int(lines[-1].split()[1])
    assert lines[-2].split()[:2] == [str(root), "x_0"]
    # a new root on x+_2 whose child sits on x_0, above it in the order
    lines[-1:] = ["%d x+_2 0 %d" % (root + 1, root), "root %d" % (root + 1)]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    cfg2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "run"),
                        **toy)
    assert main(["solve", "--config", cfg2, str(bad)]) == 2


@pytest.mark.parametrize("field", ["vars:", "inputs:"])
def test_interface_file_naming_an_unknown_variable_exits_2(tmp_path, capsys,
                                                           field):
    toy = {"system": "toy1d",
           "objective": {"kind": "reach", "box": {"x": [0.25, 0.5]},
                         "encode": "inner"}}
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "abs"), **toy)
    assert main(["abstract", "--config", cfg]) == 0
    lines = (tmp_path / "abs" / "interface_hold.txt").read_text().splitlines()
    [i] = [i for i, ln in enumerate(lines) if ln.startswith(field)]
    lines[i] += " pz_0"
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    cfg2 = write_config(tmp_path / "c2.yaml", out=str(tmp_path / "run"),
                        **toy)
    capsys.readouterr()
    assert main(["solve", "--config", cfg2, str(bad)]) == 2
    assert "%s: unknown variable: 'pz_0'" % bad in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_unknown_experiment_rejected(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.yaml",
                                   out=str(tmp_path / "r")))
    with pytest.raises(ConfigError):
        cmd_experiment("nonsuch", cfg)
    with pytest.raises(SystemExit):
        main(["experiment", "nonsuch", "--config",
              str(tmp_path / "c.yaml")])


def test_experiment_decomp_vs_mono_basins_agree(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "r"))
    assert main(["experiment", "decomp_vs_mono", "--config",
                 str(tmp_path / "c.yaml")]) == 0
    header, rows = read_csv_rows(tmp_path / "r" / "decomp_vs_mono.csv")
    assert header[0] == "variant" and len(rows) == 5
    assert [r[0] for r in rows] == ["monolithic", "fyt_fx", "fxt_fy",
                                    "fxy_ft", "decomposed"]
    assert len({r[1] for r in rows}) == 1


def test_experiment_decomp_vs_mono_survives_sweeps(tmp_path, monkeypatch):
    """The parts every grouping composes outlive the sweeps of the
    solves before it."""
    cfg = load_config(write_config(tmp_path / "c.yaml", images=False,
                                   out=str(tmp_path / "r")))

    def rows():
        return [(r[0], r[1], r[5])
                for r in cmd_experiment("decomp_vs_mono", cfg)[0]]

    plain = rows()
    sweeps = []
    sweep = BDD.sweep
    monkeypatch.setattr(BDD, "sweep", lambda m, roots: sweeps.append(1)
                        or sweep(m, roots))
    monkeypatch.setattr(games, "SWEEP_SLACK", 0)
    assert rows() == plain
    assert sweeps


def solve_meta(cfg_path):
    """Run metadata of `relsynth solve` on a config (from winning.txt)."""
    assert main(["solve", "--config", cfg_path]) == 0
    cfg = load_config(cfg_path)
    enc, _ = build_system(cfg)
    with open(os.path.join(cfg["out"], "winning.txt")) as fh:
        return load_interface(enc.m, fh)[1]


@pytest.mark.parametrize("extra", [
    {"objective": {"kind": "safe",
                   "box": {"px": [-1.5, 1.5], "py": [-1.5, 1.5]}}},
    {"solver": {"downsample": [2, 3, 4]}},
], ids=["safe", "downsample"])
def test_experiment_solves_like_solve(tmp_path, extra):
    """Experiments solve the configured objective with the configured
    solver: every decomp_vs_mono row has the basin and the iteration
    count that `relsynth solve` reports for the same config."""
    cfg = write_config(tmp_path / "c.yaml", bits=4, images=False,
                       out=str(tmp_path / "r"), **extra)
    meta = solve_meta(cfg)
    assert main(["experiment", "decomp_vs_mono", "--config", cfg]) == 0
    header, rows = read_csv_rows(tmp_path / "r" / "decomp_vs_mono.csv")
    basin, iters = header.index("basin"), header.index("iterations")
    assert len(rows) == 5
    assert {(int(r[basin]), int(r[iters])) for r in rows} == \
        {(meta["basin_states"], meta["iterations"])}


def test_experiment_greedy_cap_refuses_downsample(tmp_path):
    # the capped solve would combine a threshold with the schedule
    cfg = write_config(tmp_path / "c.yaml", bits=4,
                       solver={"downsample": [2, 3, 4]},
                       out=str(tmp_path / "r"))
    assert main(["experiment", "greedy_cap", "--config", cfg]) == 2
    assert not os.path.exists(tmp_path / "r" / "greedy_cap.csv")


def test_experiment_basin_vs_samples_monotone(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", bits=4,
                       experiment={"counts": [10, 40, 160]},
                       out=str(tmp_path / "r"))
    assert main(["experiment", "basin_vs_samples", "--config",
                 str(tmp_path / "c.yaml")]) == 0
    header, rows = read_csv_rows(tmp_path / "r" / "basin_vs_samples.csv")
    assert header == ["plan", "samples", "basin", "nodes", "seconds"]
    basins = [int(r[2]) for r in rows if r[0] == "random"]
    assert basins == sorted(basins)
    assert rows[-1][0] == "exhaustive"
    assert basins[-1] <= int(rows[-1][2])
    # the exhaustive row solves what `relsynth solve` does: the sweeps
    # between counts keep the goal
    cfg = write_config(tmp_path / "s.yaml", bits=4, images=False,
                       out=str(tmp_path / "s"))
    meta = solve_meta(cfg)
    enc, _ = build_system(load_config(cfg))
    with open(tmp_path / "s" / "winning.txt") as fh:
        winning = load_interface(enc.m, fh)[0]
    assert (int(rows[-1][2]), int(rows[-1][3])) == \
        (meta["basin_states"], enc.m.node_count(winning.pred))


@pytest.mark.parametrize("command, rounds", [
    (["abstract"], 1),
    (["solve"], 1),
    (["experiment", "basin_vs_samples"], 4),
], ids=["abstract", "solve", "basin_vs_samples"])
def test_each_build_starts_on_a_swept_store(tmp_path, monkeypatch, command,
                                            rounds):
    """Before each component's build the store holds only the interfaces
    built so far, the goal where there is one, the protected handles
    (the results of earlier solves) and the constants."""
    cfg = write_config(tmp_path / "c.yaml", bits=4, images=False,
                       experiment={"counts": [10, 40, 160]},
                       out=str(tmp_path / "r"))
    goals, built, stores = [], [], []
    build_goal, traverse = cli.build_goal, cli.traverse

    def keep_goal(cfg, enc):
        goals.append(build_goal(cfg, enc))
        return goals[-1]

    def check_store(c, plan, enc):
        if c.name == "px":  # the first build of a round
            built.clear()
        m = enc.m
        stores.append((c.name, m.size,
                       len(m._reach([*goals, *built, *m._protected])) + 2))
        f = traverse(c, plan, enc)
        built.append(f.pred)
        return f
    monkeypatch.setattr(cli, "build_goal", keep_goal)
    monkeypatch.setattr(cli, "traverse", check_store)
    assert main(command + ["--config", cfg]) == 0
    assert len(goals) == (0 if command == ["abstract"] else 1)
    assert len(stores) == 3 * rounds
    for name, size, kept in stores:
        assert size == kept, name


def test_experiment_greedy_cap_rows(tmp_path):
    cfg = write_config(tmp_path / "c.yaml", bits=4,
                       solver={"coarsen_threshold": 15},
                       out=str(tmp_path / "r"))
    reloaded = load_config(str(tmp_path / "c.yaml"))
    rows, results, threshold = cmd_experiment("greedy_cap", reloaded)
    assert threshold == 15
    m = results["exact"].winning.m
    capped = results["capped"].winning.pred
    exact = results["exact"].winning.pred
    assert m.leq(capped, exact)
    for variant, it, nodes, states, seconds, events in rows:
        if variant == "capped" and events:
            assert nodes <= threshold
    header, _ = read_csv_rows(tmp_path / "r" / "greedy_cap.csv")
    assert header == ["variant", "iter", "nodes", "states", "seconds",
                      "coarsen_events"]
    # the cap comes from the solver alone
    cfg = write_config(tmp_path / "t.yaml", bits=4,
                       experiment={"threshold": 15},
                       out=str(tmp_path / "t"))
    assert main(["experiment", "greedy_cap", "--config", cfg]) == 2


def test_experiment_csv_deterministic_modulo_timing(tmp_path):
    outs = []
    for tag in ("one", "two"):
        cfg = write_config(tmp_path / ("%s.yaml" % tag), bits=3,
                           experiment={"counts": [10, 30]}, seed=4,
                           out=str(tmp_path / tag))
        assert main(["experiment", "basin_vs_samples", "--config",
                     str(tmp_path / ("%s.yaml" % tag))]) == 0
        outs.append(tmp_path / tag / "basin_vs_samples.csv")
    assert drop_seconds(outs[0]) == drop_seconds(outs[1])


def test_objective_box_validation(tmp_path):
    cfg = write_config(tmp_path / "c.yaml",
                       objective={"kind": "reach",
                                  "box": {"pz": [0, 1]},
                                  "encode": "inner"},
                       out=str(tmp_path / "r"))
    assert main(["solve", "--config", cfg]) == 2
    cfg = write_config(tmp_path / "c2.yaml",
                       objective={"kind": "reach",
                                  "box": {"v": [0, 1]},
                                  "encode": "inner"},
                       out=str(tmp_path / "r"))
    assert main(["solve", "--config", cfg]) == 2


CUSTOM = {
    "system": "custom",
    "dims": [{"name": "x", "lo": 0.0, "hi": 1.0, "bits": 3}],
    "controls": [{"name": "u", "values": [0.0, 1.0]}],
    "objective": {"kind": "safe", "box": {"x": [0.0, 0.5]},
                  "encode": "outer"},
}


@pytest.mark.parametrize("command, message", [
    (["abstract"], "custom systems have no evaluator"),
    (["experiment", "greedy_cap"], "greedy_cap needs a built-in system"),
    (["solve"], "solve without interface files needs a built-in system"),
], ids=["abstract", "experiment", "solve"])
def test_custom_system_cannot_sample_its_dynamics(tmp_path, capsys, command,
                                                 message):
    """A system without an evaluator has nothing to sample: every
    command that would build its interfaces exits 2 and writes nothing."""
    cfg = write_config(tmp_path / "c.yaml", out=str(tmp_path / "out"),
                       **CUSTOM)
    capsys.readouterr()
    assert main(command + ["--config", cfg]) == 2
    assert message in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["c.yaml"]


def test_component_abstracted_to_bottom_warns(tmp_path, capsys):
    """With no samples every component is bottom: every command that
    builds warns once per component, and `abstract` still writes the
    files."""
    cfg = write_config(tmp_path / "c.yaml",
                       plan={"kind": "random_rects", "count": 0},
                       images=False, out=str(tmp_path / "abs"))
    for command in (["abstract"], ["solve"], ["experiment", "greedy_cap"]):
        capsys.readouterr()
        assert main(command + ["--config", cfg]) == 0, command
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert warnings == ["warning: component %s abstracted to bottom "
                            "(no samples accepted)" % name
                            for name in ("px", "py", "theta")], command
    for name in ("px", "py", "theta"):
        text = (tmp_path / "abs" / ("interface_%s.txt" % name)).read_text()
        assert text.splitlines()[-1] == "root 0"


@pytest.mark.parametrize("extra", [{}, {"bits": {}}],
                         ids=["no-bits", "empty-map"])
def test_toy1d_takes_the_table_default_bits(tmp_path, extra):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(dict(system="toy1d", **extra)))
    enc, _ = build_system(load_config(str(path)))
    assert enc.dims["x"].bits == cli.DEFAULTS["bits"]


def test_custom_system_solves_from_files(tmp_path):
    """A config-defined grid plus saved interfaces runs end to end."""
    cfg = write_config(tmp_path / "c.yaml", system="toy1d",
                       out=str(tmp_path / "abs"))
    assert main(["abstract", "--config", cfg]) == 0
    custom = {
        "system": "custom",
        "dims": [{"name": "x", "lo": 0.0, "hi": 1.0, "bits": 3}],
        "controls": [{"name": "u", "values": [0.0, 1.0]}],
        "objective": {"kind": "safe", "box": {"x": [0.0, 0.5]},
                      "encode": "outer"},
        "out": str(tmp_path / "run"),
    }
    with open(tmp_path / "cust.yaml", "w") as fh:
        yaml.safe_dump(custom, fh)
    assert main(["solve", "--config", str(tmp_path / "cust.yaml"),
                 str(tmp_path / "abs" / "interface_hold.txt")]) == 0
    # identity dynamics keep every safe cell safe; the closed outer
    # encoding of [0, 0.5] touches five 0.125-wide cells
    with open(tmp_path / "run" / "winning_cells.csv") as fh:
        assert fh.read() == "start,length\n0,5\n"


@pytest.mark.parametrize("dim, control", [
    ({"bits": True}, {}),
    ({"bits": 2.7}, {}),
    ({"bits": 30}, {}),
    ({"bits": 0}, {}),
    ({"periodic": "no"}, {}),
    ({"lo": True, "hi": 2.0}, {}),
    ({"lo": "0"}, {}),
    ({"hi": float("inf")}, {}),
    ({}, {"values": []}),
    ({}, {"values": ["a", "b"]}),
    ({}, {"values": "ab"}),
    ({}, {"values": [True, 2.0]}),
    ({"hi": 10 ** 400}, {}),
    ({}, {"values": [0.0, 10 ** 400]}),
])
def test_custom_entries_need_typed_fields(tmp_path, dim, control):
    """A custom dim needs an integer `bits` in 1..24 (not a boolean),
    finite numbers `lo` < `hi` and a boolean `periodic`; a control needs
    a nonempty list of finite numbers.  An integer too large for a float
    is not finite.  Anything else is a configuration error before any
    output is written."""
    custom = {"system": "custom",
              "dims": [dict({"name": "x", "lo": 0.0, "hi": 1.0, "bits": 3},
                            **dim)],
              "controls": [dict({"name": "u", "values": [0.0, 1.0]},
                                **control)],
              "out": str(tmp_path / "run")}
    with open(tmp_path / "cust.yaml", "w") as fh:
        yaml.safe_dump(custom, fh)
    with pytest.raises(ConfigError):
        build_system(load_config(str(tmp_path / "cust.yaml")))
    assert not os.path.exists(tmp_path / "run")


def test_downsample_schedule_matches_plain_solve(tmp_path):
    """A coarse-to-fine schedule ending at full precision converges to
    the same basin as the direct solve — seeding only changes speed."""
    plain = write_config(tmp_path / "p.yaml", out=str(tmp_path / "rp"))
    uniform = write_config(tmp_path / "u.yaml",
                           solver={"downsample": [1, 3]},
                           out=str(tmp_path / "ru"))
    named = write_config(tmp_path / "n.yaml",
                         solver={"downsample": [{"px": 1, "py": 1}, {}]},
                         out=str(tmp_path / "rn"))
    for cfg in (plain, uniform, named):
        assert main(["solve", "--config", cfg]) == 0
    want = (tmp_path / "rp" / "winning_cells.csv").read_text()
    for run in ("ru", "rn"):
        got = (tmp_path / run / "winning_cells.csv").read_text()
        assert got == want
    # the schedule is recorded in the resolved config
    resolved = yaml.safe_load((tmp_path / "ru" / "config.yaml").read_text())
    assert resolved["solver"]["downsample"] == [1, 3]


def test_downsample_validation_errors(tmp_path):
    cases = [
        {"solver": {"downsample": []}},
        {"solver": {"downsample": [1, 3], "coarsen_threshold": 50}},
        {"solver": {"downsample": [-1]}},
        {"solver": {"downsample": ["fine"]}},
        {"solver": {"downsample": [{"pz": 2}, 3]}},
        {"solver": {"downsample": [1, 3]},
         "objective": {"kind": "safe",
                       "box": {"px": [-1.0, 1.0], "py": [-1.0, 1.0]},
                       "encode": "outer"}},
    ]
    for i, extra in enumerate(cases):
        out = tmp_path / ("r%d" % i)
        cfg = write_config(tmp_path / ("c%d.yaml" % i), out=str(out),
                           **extra)
        assert main(["solve", "--config", cfg]) == 2, extra
        assert not os.path.exists(out), extra
