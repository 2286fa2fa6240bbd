"""The analyze stage reads ``items.jsonl`` in one pass and keeps a small
accumulator per report section, so its memory must grow far slower than
its input: no item dict, embedding or n-gram tuple may outlive the pass.
The items come from ``tools/analyze_scale.py``, which measures the same
stage at larger counts in a fresh interpreter."""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from pathlib import Path

from conftest import base_config, toy_corpus_seeds, write_corpus
from graphsynth.config import parse_config
from graphsynth.pipeline import run_stage

TOOL = Path(__file__).resolve().parents[1] / "tools" / "analyze_scale.py"

# A stage that keeps every item grows by about 3.7 KB per item here.
MAX_BYTES_PER_ADDED_ITEM = 1500


def analyze_tool():
    spec = importlib.util.spec_from_file_location("analyze_scale", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_analyze_peak_memory_grows_slowly_with_items(tmp_path):
    tool = analyze_tool()
    corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds())
    reference = tmp_path / "reference.jsonl"
    reference.write_text("".join(
        json.dumps({"question": f"A quantity q{i} is defined so that finding it requires "
                                f"[Concept {i:02d}] and [Concept {i + 1:02d}]."}) + "\n"
        for i in range(10)), encoding="utf-8")
    config_dict = base_config(tmp_path, corpus)
    config_dict["mock"]["behaviors"]["problem_score"] = 0.9
    config_dict["analytics"]["decontamination_reference"] = str(reference)
    config = parse_config(config_dict)
    for stage in ("extract", "graph", "synthesize"):
        run_stage(config, stage)
    made = (config.run_dir / "items.jsonl").read_bytes()
    peaks = {}
    for n_items in (500, 2000):
        (config.run_dir / "items.jsonl").write_bytes(made)
        tool.write_distinct_items(config.run_dir, n_items)
        tracemalloc.start()
        try:
            run_stage(config, "analyze")
            peaks[n_items] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["expansion"]["synthesized"] == n_items
        assert report["decontamination"]["per_n"]["8"] is not None
    slope = (peaks[2000] - peaks[500]) / (2000 - 500)
    assert slope <= MAX_BYTES_PER_ADDED_ITEM, peaks
