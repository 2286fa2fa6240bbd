"""``tools/extract_scale.py`` runs extract's similarity tail alone at the
paper's proportions; at 300 seeds it finishes in under a second."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_extract_scale_smoke():
    proc = subprocess.run(
        [sys.executable, "tools/extract_scale.py", "--seeds", "300", "--dim", "16"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["seeds"], out["dim"]) == (300, 16)
    # 300 seeds of 5 phrases each, drawn from 1,500: several seeds share one.
    assert 300 < out["concepts"] < 1_500
    assert 0 <= out["verdicts"] < out["concepts"]
    assert out["similarity_cpu_s"] > 0 and out["ru_maxrss_mib"] > 0
