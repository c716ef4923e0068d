"""Smoke tests of the measuring scripts under `tools/`."""

import importlib.util
import os
import re
import subprocess
import sys

import pytest

from relsynth import __version__

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


def test_package_version_matches_pyproject():
    """Every output records `__version__`, so it must be the version the
    package is installed as.  A regex, since `tomllib` needs 3.11."""
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        found = re.findall(r'^version\s*=\s*"([^"]*)"', fh.read(), re.M)
    assert found == [__version__]
