"""The benchmark's tracer (`perfbench/child.py`) still fits the code.

The tracer wraps module-level names of relsynth (the range encoders as
`relsynth.abstraction` sees them, `traverse` and the persistence calls
as `relsynth.cli` sees them, the BDD kernels).  A refactor that removes
or bypasses one of them breaks every traced benchmark run, so a small
traced `abstract` and `solve` must still run and report those layers,
and a traced coarsening or downsampling solve must match its untraced
run.
"""

import json
import os
import subprocess
import sys

import pytest
import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def run_child(stats, args, mode="trace"):
    proc = subprocess.run(
        [sys.executable, CHILD, str(stats), mode, "--"] + args,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(stats) as fh:
        return json.load(fh)


def write_config(path, **cfg):
    """A 3-bit vehicle configuration with `cfg` over it; returns the
    arguments that select it."""
    with open(path, "w") as fh:
        yaml.safe_dump(dict({"bits": 3, "plan": {"kind": "exhaustive"},
                             "images": False}, **cfg), fh)
    return ["--config", str(path)]


@pytest.fixture(scope="module")
def vehicle(tmp_path_factory):
    """A traced 3-bit `abstract` of the vehicle: its stats and its
    interface files."""
    tmp = tmp_path_factory.mktemp("abstract")
    out = tmp / "abs"
    built = run_child(tmp / "abstract.json",
                      ["abstract"] + write_config(tmp / "c.yaml")
                      + ["--out", str(out)])
    return built, [str(out / ("interface_%s.txt" % c))
                   for c in ("px", "py", "theta")]


def test_traced_abstract_and_solve_report_every_layer(tmp_path, vehicle):
    built, files = vehicle
    solved = run_child(tmp_path / "solve.json",
                       ["solve"] + write_config(tmp_path / "c.yaml")
                       + ["--out", str(tmp_path / "run")] + files)
    assert built["agg"]["spaces.code_range"][0] > 0
    assert built["agg"]["spaces.encode_set"][0] > 0
    assert "abstraction.px.traverse" in built["agg"]
    assert solved["agg"]["games.cpre.px"][0] > 0
    assert solved["agg"]["games.project"][0] > 0


@pytest.mark.parametrize("cfg, flags, layer", [
    ({}, ["--coarsen-threshold", "8"], "games.coarsen"),
    ({"solver": {"downsample": [1, 2, 3]}}, [], "games.coarsen_component"),
])
def test_traced_solver_paths_match_the_untraced_run(tmp_path, vehicle, cfg,
                                                    flags, layer):
    """The coarsening and downsampling solves go through the tracer's
    wrappers of `games.greedy_coarsen`, `games.coarsen_component` and
    `cli.downsample_schedule`; traced, they must reach the same store
    peak and winning cells as untraced."""
    files = vehicle[1]
    config = write_config(tmp_path / "c.yaml", **cfg)
    runs = {}
    for mode in ("run", "trace"):
        out = tmp_path / mode
        runs[mode] = run_child(
            tmp_path / (mode + ".json"),
            ["solve"] + config + flags + ["--out", str(out)] + files, mode)
        runs[mode]["cells"] = (out / "winning_cells.csv").read_text()
    assert runs["run"]["store_peak"] == runs["trace"]["store_peak"]
    assert runs["run"]["cells"] == runs["trace"]["cells"]
    assert runs["trace"]["agg"][layer][0] > 0
    assert runs["trace"]["agg"]["games.solve"][0] == 1
