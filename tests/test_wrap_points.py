"""The benchmark under ``perfbench/`` times the program by wrapping public
functions it names in ``perfbench/tracing.py``. A wrap point whose function
was deleted or renamed makes its traced metrics read ``null``, so each one
must still resolve to a callable."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrap_points() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAP_POINTS


def test_every_wrap_point_resolves_to_a_callable():
    points = wrap_points()
    assert points
    missing = []
    for name, (module_name, attr_path) in sorted(points.items()):
        target = importlib.import_module(module_name)
        for part in attr_path.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{name} -> {module_name}.{attr_path}")
    assert missing == []
