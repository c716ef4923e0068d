"""The benchmark's tracer (`perfbench/child.py`) still fits the code.

The tracer wraps module-level names of relsynth (the range encoders as
`relsynth.abstraction` sees them, `traverse` and the persistence calls
as `relsynth.cli` sees them, the BDD kernels).  A refactor that removes
or bypasses one of them breaks every traced benchmark run, so a small
traced `abstract` and `solve` must still run and report those layers.
"""

import json
import os
import subprocess
import sys

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")


def run_traced(stats, args):
    proc = subprocess.run(
        [sys.executable, CHILD, str(stats), "trace", "--"] + args,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(stats) as fh:
        return json.load(fh)


def test_traced_abstract_and_solve_report_every_layer(tmp_path):
    cfg = tmp_path / "c.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump({"bits": 3, "plan": {"kind": "exhaustive"},
                        "images": False}, fh)
    out = tmp_path / "run"
    common = ["--config", str(cfg), "--out", str(out)]
    built = run_traced(tmp_path / "abstract.json", ["abstract"] + common)
    files = [str(out / ("interface_%s.txt" % c))
             for c in ("px", "py", "theta")]
    solved = run_traced(tmp_path / "solve.json", ["solve"] + common + files)
    assert built["agg"]["spaces.code_range"][0] > 0
    assert built["agg"]["spaces.encode_set"][0] > 0
    assert "abstraction.px.traverse" in built["agg"]
    assert solved["agg"]["games.cpre.px"][0] > 0
    assert solved["agg"]["games.project"][0] > 0
