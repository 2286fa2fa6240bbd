"""``tools/analyze_scale.py`` runs the analyze stage alone on N distinct
items; at 300 items it finishes in about a second."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_analyze_scale_smoke():
    proc = subprocess.run(
        [sys.executable, "tools/analyze_scale.py", "--items", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert set(out) == {"items", "ru_maxrss_mib", "cpu_s", "analyze_cpu_s", "analyze_wall_s"}
    assert out["items"] == 300
    assert out["ru_maxrss_mib"] > 0
    assert out["cpu_s"] >= out["analyze_cpu_s"] > 0
    assert out["analyze_wall_s"] > 0
