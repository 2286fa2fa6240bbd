"""``tools/output_digests.py`` runs every perfbench workload on the mock and
resumes crash-resume from a copied, aborted run directory; it exits 1 when
the resumed run's outputs differ from the uninterrupted run's. Running it
here makes a resume at benchmark scale part of the test suite."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_copied_crash_resume_equals_the_uninterrupted_run():
    proc = subprocess.run(
        [sys.executable, "tools/output_digests.py", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
