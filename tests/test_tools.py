"""Smoke tests of the measuring scripts under `tools/`."""

import importlib.util
import itertools
import os
import re
import subprocess
import sys

import pytest

import relsynth.cli as cli
from relsynth import __version__
from util import HAND_ORDER

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SNIPPET = '''"""Module docstring,
over two lines."""

# a comment line


def f(x):
    """One-line docstring."""
    y = (x +  # a trailing comment
         1)
    return y
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    assert load_tool("code_lines").code_lines(SNIPPET) == 4


def test_code_lines_counts_a_directory(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "b.py").write_text(SNIPPET)
    (tmp_path / "sub" / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    load_tool("code_lines").main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split() for ln in lines] == [
        ["4", str(tmp_path / "b.py")], ["1", str(tmp_path / "sub" / "a.py")],
        ["5", "total"]]


@pytest.mark.parametrize("trees, config, code", [
    ([ROOT], "toy.yaml", 0),
    ([ROOT, ROOT], "toy.yaml", 0),
    ([ROOT], "absent.yaml", 1),
])
def test_child_stats_runs_and_compares(tmp_path, trees, config, code):
    (tmp_path / "toy.yaml").write_text(
        "system: toy1d\nobjective: {box: {x: [0.5, 1.0]}}\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "child_stats.py"), "-n", "2"]
        + trees + ["--", "solve", "--config", str(tmp_path / config)],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == code, proc.stdout + proc.stderr
    if code == 0:
        assert proc.stdout.splitlines()[-1] == "outputs: identical"


def test_child_stats_takes_a_relative_work_directory(tmp_path):
    """Each child runs in its own run directory, so a relative `--work`
    must still name the directory given from the launcher's."""
    (tmp_path / "toy.yaml").write_text(
        "system: toy1d\nobjective: {box: {x: [0.5, 1.0]}}\n")
    proc = subprocess.run(
        [sys.executable, os.path.join(TOOLS, "child_stats.py"), "-n", "1",
         "--work", "runs", ROOT, "--", "solve", "--config", "toy.yaml"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    tree, run, code, hwm_mb = proc.stdout.splitlines()[1].split()[:4]
    assert (tree, run, code) == ("A", "0", "0") and float(hwm_mb) > 0
    assert (tmp_path / "runs" / "t0-r0" / "out" / "trace.csv").exists()


def test_child_stats_normalizes_only_the_timing(tmp_path):
    """`normalized` drops the seconds of a `meta:` line and of a CSV,
    and keeps every other field, so a changed stop or plan shows."""
    norm = load_tool("child_stats").normalized
    meta = 'meta: {"build_seconds": %s, "plan": "%s", "stop": "%s"}\n'
    paths = []
    for k, (secs, plan, stop) in enumerate([
            (0.5, "a", "fixpoint"), (0.7, "a", "fixpoint"),
            (0.5, "b", "fixpoint"), (0.5, "a", "budget")]):
        paths.append(tmp_path / ("f%d.txt" % k))
        paths[-1].write_text("inputs: x\n" + meta % (secs, plan, stop))
    assert norm(str(paths[0])) == norm(str(paths[1]))
    assert norm(str(paths[0])) != norm(str(paths[2]))
    assert norm(str(paths[0])) != norm(str(paths[3]))
    for k, row in enumerate(["1,0.25,7", "1,0.5,7", "1,0.25,8"]):
        (tmp_path / ("t%d.csv" % k)).write_text(
            "iter,seconds,nodes\n%s\n" % row)
    t = [norm(str(tmp_path / ("t%d.csv" % k))) for k in range(3)]
    assert t[0] == t[1] != t[2]


def test_rank_orders_pins_the_nodes_at_five_bits():
    """The nodes a 5-bit reach solve creates are deterministic: the
    CLI's block order creates fewer than the hand-picked order it
    replaced, with the same basin."""
    rows = load_tool("rank_orders").measure(5, [cli.VEHICLE_ORDER,
                                                HAND_ORDER])
    (new, _, new_basin), (old, _, old_basin) = rows
    assert (new, old) == (35148, 41078)
    assert new < old
    assert new_basin == old_basin == 6080


def test_rank_orders_prints_every_order_ranked(capsys):
    """One line per block order, fewest nodes first, with the CLI's
    order marked once, then the common basin."""
    assert load_tool("rank_orders").main(["--bits", "3"]) == 0
    head, *rows, tail = capsys.readouterr().out.splitlines()
    assert head == "rank nodes seconds order"
    found = [re.fullmatch(r"(\d+) (\d+) \d+\.\d{3} ([a-z,]+)( \*)?", row)
             for row in rows]
    assert all(found), rows
    assert [int(f[1]) for f in found] == list(range(1, 121))
    nodes = [int(f[2]) for f in found]
    assert nodes == sorted(nodes)
    orders = [tuple(f[3].split(",")) for f in found]
    assert sorted(orders) == sorted(itertools.permutations(
        ("px", "py", "theta", "v", "omega")))
    assert [o for o, f in zip(orders, found) if f[4]] == [cli.VEHICLE_ORDER]
    assert re.fullmatch(r"basin \d+ states in every order", tail)


def test_rank_orders_fails_on_differing_basins(monkeypatch, capsys):
    tool = load_tool("rank_orders")
    monkeypatch.setattr(tool, "measure", lambda bits, orders: [
        (k, 0.0, 6080 + (k == 7)) for k in range(len(orders))])
    assert tool.main(["--bits", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "basins differ: [6080, 6081]"


def test_package_version_matches_pyproject():
    """Every output records `__version__`, so it must be the version the
    package is installed as.  A regex, since `tomllib` needs 3.11."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        found = re.findall(r'^version\s*=\s*"([^"]*)"', fh.read(), re.M)
    assert found == [__version__]
