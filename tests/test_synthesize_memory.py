"""The runner and the synthesize stage stream their records. A results
cache is a prefix of its work, so the runner keeps nothing per work item:
it matches the cache against the work in lockstep, and the results are
read back forward. Combinations are drawn from ``combinations.jsonl``,
results are read back from the generate and evaluate caches in work order,
and ``items.jsonl`` is written one item at a time. Only the question
digests for dedup grow with the budget, so the stage's memory must grow
far slower than the records it writes, both on a fresh run and on one that
finds every result cached."""

from __future__ import annotations

import json
import tracemalloc

from conftest import base_config, toy_corpus_seeds, write_corpus
from graphsynth.backends import sum_usage
from graphsynth.config import parse_config
from graphsynth.pipeline import PipelineRun, run_stage

# A stage that keeps every record grows by about 4.5 KB per item fresh and
# 6.5 KB from full caches here; the streamed one by about 0.2 KB.
MAX_BYTES_PER_ADDED_ITEM = 1000

# An id -> offset index of the cache would cost about 150 B per item on a
# resume, and an offsets array 8 B per item on a fresh run; the bound leaves
# room for noise, not for a structure per item.
MAX_RUNNER_BYTES_PER_ADDED_ITEM = 16


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


def test_runner_peak_memory_does_not_grow_with_items(tmp_path):
    corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(3, 1, 0))
    peaks: dict[str, dict[int, int]] = {"fresh": {}, "cached": {}}
    for count in (5_000, 25_000):
        config = parse_config(base_config(tmp_path, corpus, run_name=f"runner-{count}"))
        for mode in ("fresh", "cached"):
            run = PipelineRun(config)
            run._record_usage = sum_usage([])
            work = ((f"work-{i:08d}", i) for i in range(count))
            tracemalloc.start()
            try:
                results = run._run_checkpointed("step", work, lambda i, client: {"v": i})
                peaks[mode][count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [rec["v"] for rec in results] == list(range(count))
    for mode, peak in peaks.items():
        slope = (peak[25_000] - peak[5_000]) / (25_000 - 5_000)
        assert slope <= MAX_RUNNER_BYTES_PER_ADDED_ITEM, (mode, peaks)
