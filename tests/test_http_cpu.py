"""``tools/http_cpu.py`` times sequential live chat requests against a
localhost server in a child process and prints one JSON line."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_prints_client_cpu_per_request():
    proc = subprocess.run(
        [sys.executable, "tools/http_cpu.py", "--requests", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    result = json.loads(line)
    assert result["requests"] == 20
    assert result["client_cpu_us_per_request"] > 0
