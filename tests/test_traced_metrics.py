"""The benchmark under ``perfbench/`` reports per-layer metrics from a traced
run, and a ``null`` or a missing wrap point there makes its output
malformed. This runs its worker traced on the toy corpus, once straight
through and once resumed after an abort inside ``synthesize.evaluate``, and
checks that every per-layer metric is a finite number."""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

from conftest import SRC, base_config, src_env, toy_corpus_seeds, write_corpus
from graphsynth.pipeline import FAULT_ABORT_ENV

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def run_worker(tmp_path: Path, config: dict, name: str, trace: bool, env_extra=None) -> dict:
    spec = {
        "src": str(SRC), "config": config, "latency_mean_s": 0.0, "latency_seed": 0,
        "trace": trace, "run_id": name, "spans_path": str(tmp_path / f"{name}.spans.jsonl"),
    }
    spec_path, out_path = tmp_path / f"{name}.spec.json", tmp_path / f"{name}.out.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = src_env()
    env.pop(FAULT_ABORT_ENV, None)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, str(WORKER), str(spec_path), str(out_path), repr(time.monotonic())],
        env=env, cwd=WORKER.parents[1], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out_path.read_text(encoding="utf-8"))


def assert_finite_metrics(result: dict) -> None:
    assert result["status"] == "ok"
    assert result["absent_wrap_points"] == []
    bad = {
        name: metric["value"] for name, metric in result["per_layer"].items()
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"])
    }
    assert result["per_layer"] and bad == {}


def test_traced_run_and_traced_resume_report_finite_metrics(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds())

    def config(run_name: str) -> dict:
        cfg = base_config(tmp_path, corpus, run_name=run_name, max_in_flight=2)
        cfg["graph"]["combination_budget"] = 20
        cfg["mock"]["behaviors"]["problem_score"] = 0.9
        return cfg

    full = run_worker(tmp_path, config("full"), "full", trace=True)
    assert_finite_metrics(full)

    # One commit per work item: every record of the extract caches and of
    # the generate cache, then one evaluate item.
    caches = [*(tmp_path / "full" / "cache").glob("extract.*.jsonl"),
              tmp_path / "full" / "cache" / "synthesize.generate.jsonl"]
    abort_after = sum(len(path.read_bytes().splitlines()) for path in caches) + 1
    aborted = run_worker(tmp_path, config("resumed"), "aborted", trace=False,
                         env_extra={FAULT_ABORT_ENV: str(abort_after)})
    assert aborted["status"] == "aborted"
    assert_finite_metrics(run_worker(tmp_path, config("resumed"), "resumed", trace=True))
