"""``tools/stage_scale.py`` measures one stage, or the whole run, at the
paper's proportions; each case below finishes in a few seconds."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "stage_scale.py"

STAGES = ["extract", "graph", "synthesize", "analyze"]
ARGS = {
    "extract": ["--seeds", "300", "--dim", "16"],
    "graph": ["--seeds", "300"],
    "synthesize": ["--seeds", "20"],
    "analyze": ["--seeds", "20", "--items", "300"],
    "all": ["--seeds", "20"],
}


@pytest.mark.parametrize("stage", ARGS)
def test_stage_scale_smoke(stage):
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--stage", stage, *ARGS[stage]],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    measured = STAGES if stage == "all" else [stage]
    assert list(out["stages"]) == measured
    assert all(t["cpu_s"] > 0 and t["wall_s"] > 0 for t in out["stages"].values())
    assert out["ru_maxrss_mib"] > 0 and out["run_dir_bytes"] > 0
    # Analyze writes report.json, not a stats file.
    assert list(out["stats"]) == [s for s in measured if s != "analyze"]
    if stage == "graph":
        graph = out["stats"]["graph"]
        assert (graph["nodes"], graph["edges"]) == (780, 2_597)
        # The budget, 2,123,345 x 300 / 7,500, exceeds what 300 seeds enumerate.
        assert graph["enumerated"] == graph["sampled_by_kind"] == {
            "community": 4_800, "one_hop": 2_597, "three_hop": 36, "two_hop": 18_845}
    if stage == "extract":
        # 300 seeds of 5 phrases each, drawn from 1,500: several seeds share one.
        assert 300 < out["stats"]["extract"]["raw_concepts"] < 1_500
    if stage == "analyze":
        assert out["items"] == 300


@pytest.mark.parametrize("argv", [
    ["--stage", "graph", "--seeds", "19"],
    ["--stage", "extract", "--seeds", "20", "--dim", "0"],
    ["--stage", "analyze", "--seeds", "20", "--items", "0"],
    ["--stage", "graph", "--seeds", "20", "--items", "300"],
])
def test_bad_arguments_rejected(argv, capsys):
    spec = importlib.util.spec_from_file_location("stage_scale", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    with pytest.raises(SystemExit) as exc:
        tool.main(argv)
    assert exc.value.code == 2
    assert "error: --" in capsys.readouterr().err
