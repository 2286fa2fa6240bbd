"""``tools/graph_scale.py`` runs the graph stage alone at the paper's
proportions; at 300 seeds it finishes in about a second."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_graph_scale_smoke():
    proc = subprocess.run(
        [sys.executable, "tools/graph_scale.py", "--seeds", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["seeds"] == 300
    assert out["nodes"] > 0 and out["edges"] > 0
    enumerated = out["enumerated"]
    assert set(enumerated) == {"one_hop", "two_hop", "three_hop", "community"}
    assert all(count > 0 for count in enumerated.values())
    # The budget, 2,123,345 x 300 / 7,500, exceeds what 300 seeds enumerate.
    assert sum(enumerated.values()) < 2_123_345 * 300 // 7_500
    assert out["sampled_by_kind"] == enumerated
    assert out["graph_cpu_s"] > 0 and out["ru_maxrss_mib"] > 0
