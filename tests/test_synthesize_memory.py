"""The synthesize stage streams its records: combinations are drawn from
``combinations.jsonl``, results are read back from the generate and
evaluate caches in work order, and ``items.jsonl`` is written one item at
a time. Only an id -> offset index, the work order's offsets and the
question digests for dedup grow with the budget, so its memory must grow
far slower than the records it writes, both on a fresh run and on one that
finds every result cached."""

from __future__ import annotations

import json
import tracemalloc

from conftest import base_config, toy_corpus_seeds, write_corpus
from graphsynth.config import parse_config
from graphsynth.pipeline import run_stage

# A stage that keeps every record grows by about 4.5 KB per item fresh and
# 6.5 KB from full caches here; the streamed one by about 0.2 KB.
MAX_BYTES_PER_ADDED_ITEM = 1000


def test_synthesize_peak_memory_grows_slowly_with_items(tmp_path):
    # A 150-concept chain: about 440 one-, two- and three-hop pairs.
    corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(150, 1, 0))
    peaks: dict[str, dict[int, int]] = {"fresh": {}, "cached": {}}
    for budget in (100, 400):
        config_dict = base_config(tmp_path, corpus, run_name=f"budget-{budget}")
        config_dict["mock"]["behaviors"]["problem_score"] = 0.9
        config_dict["graph"]["combination_budget"] = budget
        config = parse_config(config_dict)
        for stage in ("extract", "graph"):
            run_stage(config, stage)
        made = None
        for mode in ("fresh", "cached"):
            if mode == "cached":
                (config.run_dir / "items.jsonl").unlink()
            tracemalloc.start()
            try:
                run_stage(config, "synthesize")
                peaks[mode][budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stats = json.loads((config.run_dir / "stats" / "synthesize.json").read_text())
            assert stats["items"] == stats["status_counts"]["solution_accepted"] == budget
            items = (config.run_dir / "items.jsonl").read_bytes()
            assert made is None or items == made
            made = items
    for mode, peak in peaks.items():
        slope = (peak[400] - peak[100]) / (400 - 100)
        assert slope <= MAX_BYTES_PER_ADDED_ITEM, (mode, peaks)
