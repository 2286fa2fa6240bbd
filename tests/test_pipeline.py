from __future__ import annotations

import fcntl
import json
import logging
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from conftest import (
    base_config, make_descriptor, src_env, toy_corpus_seeds, write_config, write_corpus,
)
from graphsynth import analytics, backends, evaluation, extraction, pipeline
from graphsynth.backends import BackendClient, MockServer, sum_usage
from graphsynth.cli import main as cli_main
from graphsynth.config import load_config, parse_config
from graphsynth.errors import (
    CheckpointError, ConfigurationError, TransportError, ValidationError,
)
from graphsynth.pipeline import (
    FAULT_ABORT_ENV,
    OUTPUT_FILES,
    STAGES,
    PipelineRun,
    RunLock,
    RunPaths,
    _iter_reference_texts,
    run_stage,
)
from graphsynth._util import iter_jsonl
from graphsynth.store import SynthesizedItem, concept_id_for, load_concepts, load_seed_corpus
from graphsynth.synthesis import DEFAULT_TEMPLATE_BODIES

G0_SEEDS = [
    {"id": "P1", "question": "Relate [Alpha], [Beta] and [Gamma] in one problem.",
     "solution": "combine"},
    {"id": "P2", "question": "Relate [Beta], [Gamma] and [Delta] in one problem.",
     "solution": "combine"},
    {"id": "P3", "question": "Relate [Delta] and [Epsilon] in one problem.",
     "solution": "combine"},
]


def make_run(tmp_path, seeds=None, run_name="run", **config_extra):
    corpus = write_corpus(tmp_path / "corpus.jsonl", seeds or G0_SEEDS)
    config_dict = base_config(tmp_path, corpus, run_name=run_name, **config_extra)
    config_path = write_config(tmp_path / f"{run_name}.json", config_dict)
    return config_path, config_dict


def read_items(run_dir: Path) -> list[SynthesizedItem]:
    """``items.jsonl`` read the way the analyze stage reads it, one line at a time."""
    return [SynthesizedItem.from_record(rec, line=lineno)
            for lineno, rec in iter_jsonl(run_dir / "items.jsonl")]


def read_outputs(run_dir: Path) -> dict[str, bytes]:
    out = {}
    for name in OUTPUT_FILES:
        path = run_dir / name
        out[name] = path.read_bytes() if path.exists() else b"<missing>"
    return out


class TestExtractStage:
    def test_knowledge_base_from_bracketed_corpus(self, tmp_path):
        config_path, _ = make_run(tmp_path)
        config = load_config(config_path)
        run_stage(config, "extract")
        kb = load_concepts(config.run_dir / "knowledge_base.jsonl")
        texts = {c.text for c in kb if c.status == "representative"}
        assert texts == {"Alpha", "Beta", "Gamma", "Delta", "Epsilon"}
        enriched = load_seed_corpus(config.run_dir / "seeds_enriched.jsonl")
        by_id = {s.id: s for s in enriched}
        assert len(by_id["P1"].concept_ids) == 3
        rep_ids = {c.id for c in kb if c.status == "representative"}
        for seed in enriched:
            assert set(seed.concept_ids) <= rep_ids

    def test_rerun_is_idempotent(self, tmp_path):
        config_path, _ = make_run(tmp_path)
        config = load_config(config_path)
        run_stage(config, "extract")
        first = (config.run_dir / "knowledge_base.jsonl").read_bytes()
        run_stage(config, "extract")
        assert (config.run_dir / "knowledge_base.jsonl").read_bytes() == first

    def test_missing_extractor_is_preflight_error(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        del config_dict["backends"]["extractor"]
        write_config(config_path, config_dict)
        with pytest.raises(ConfigurationError, match="extractor"):
            run_stage(load_config(config_path), "extract")

    def test_roles_of_every_stage_checked_before_the_first(self, tmp_path):
        class CountingMock(MockServer):
            requests = 0

            def chat_completion(self, request):
                CountingMock.requests += 1
                return super().chat_completion(request)

            def embeddings(self, request):
                CountingMock.requests += 1
                return super().embeddings(request)

        config_path, config_dict = make_run(tmp_path)
        del config_dict["backends"]["generator"]
        write_config(config_path, config_dict)
        config = load_config(config_path)
        with pytest.raises(ConfigurationError, match="generator"):
            run_stage(config, "run-all", client=BackendClient(mock=CountingMock(seed=7)))
        assert CountingMock.requests == 0
        assert not (config.run_dir / "cache").exists()
        assert not (config.run_dir / "manifests").exists()

    def test_rejected_concepts_never_reach_seeds(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["quality_flags"] = {"Alpha": "vague"}
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        kb = load_concepts(config.run_dir / "knowledge_base.jsonl")
        assert "Alpha" not in {c.text for c in kb}
        enriched = load_seed_corpus(config.run_dir / "seeds_enriched.jsonl")
        assert len(next(s for s in enriched if s.id == "P1").concept_ids) == 2
        filtered = [json.loads(l) for l in
                    (config.run_dir / "concepts.filtered.jsonl").read_text().splitlines()]
        rejected = [r for r in filtered if not r["kept"]]
        assert rejected and rejected[0]["text"] == "Alpha"
        assert rejected[0]["category"] == "vague"


class SynonymRecordingMock(MockServer):
    """Records the (A, B) phrases of every synonym-check prompt in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.synonym_pairs = []

    def _synonym_reply(self, prompt):
        self.synonym_pairs.append((self._quoted(prompt, "A"), self._quoted(prompt, "B")))
        return super()._synonym_reply(prompt)


# Planted judge work on G0's corpus: Alpha-Beta lie in the same band;
# Gamma-Delta, Alpha-Epsilon and Beta-Epsilon are borderline, and the judge
# confirms only Gamma-Delta. So extract makes three synonym checks and two
# representative picks (the judge picks Alpha, not the shorter Beta), and
# every problem is accepted, so analyze probes each of the three items.
PLANTED_BEHAVIORS = {
    "embedding_overrides": {
        "Alpha": [1.0, 0.0, 0.0, 0.0, 0.0],
        "Beta": [0.95, math.sqrt(1 - 0.95 ** 2), 0.0, 0.0, 0.0],
        "Gamma": [0.0, 0.0, 1.0, 0.0, 0.0],
        "Delta": [0.0, 0.0, 0.8, 0.6, 0.0],
        "Epsilon": [0.75, 0.0, 0.0, 0.0, math.sqrt(1 - 0.75 ** 2)],
    },
    "synonym_yes": [["Gamma", "Delta"]],
    "representative_picks": [{"members": ["Alpha", "Beta"], "pick": "Alpha"}],
    "problem_score": 0.9,
}
G0_TEXT_OF = {concept_id_for(t): t for t in ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")}
# The runner's caches in the order a run-all commits to them.
CACHE_ORDER = ("extract.concepts", "extract.quality", "extract.similarity", "extract.synonyms",
               "extract.representatives", "synthesize.generate", "synthesize.evaluate",
               "analyze.seeds", "analyze.similarity", "analyze.adherence")


def make_planted_run(tmp_path, run_name="run", **config_extra):
    config_path, config_dict = make_run(tmp_path, run_name=run_name, **config_extra)
    config_dict["mock"]["behaviors"].update(PLANTED_BEHAVIORS)
    write_config(config_path, config_dict)
    return load_config(config_path)


def cache_lines(run_dir: Path) -> dict[str, int]:
    """Committed records per results cache, by cache name."""
    return {path.name.removesuffix(".jsonl"): len(path.read_bytes().splitlines())
            for path in (run_dir / "cache").glob("*.jsonl")}


def read_outputs_and_stats(run_dir: Path) -> dict[str, bytes]:
    stats = {f"stats/{p.name}": p.read_bytes() for p in (run_dir / "stats").glob("*.json")}
    return {**read_outputs(run_dir), **stats}


def cluster_texts(run_dir: Path) -> dict[frozenset, str]:
    """{member texts: representative text} of ``clusters.jsonl``."""
    kb = {c.id: c.text for c in load_concepts(run_dir / "knowledge_base.jsonl")}
    return {
        frozenset(G0_TEXT_OF[m] for m in rec["member_ids"]): kb[rec["representative_id"]]
        for _, rec in iter_jsonl(run_dir / "clusters.jsonl")
    }


class TestExtractTail:
    def test_same_and_confirmed_pairs_merge(self, tmp_path):
        config = make_planted_run(tmp_path)
        mock = SynonymRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "extract", client=BackendClient(mock=mock))

        # The judge sees exactly the borderline pairs, once each; the
        # synonym cache holds them sorted by pair.
        borderline = sorted(tuple(sorted(map(concept_id_for, p))) for p in
                            [("Gamma", "Delta"), ("Alpha", "Epsilon"), ("Beta", "Epsilon")])
        assert sorted(mock.synonym_pairs) == sorted(
            (G0_TEXT_OF[a], G0_TEXT_OF[b]) for a, b in borderline)
        cache = config.run_dir / "cache" / "extract.synonyms.jsonl"
        assert [rec["id"] for _, rec in iter_jsonl(cache)] == ["+".join(p) for p in borderline]
        assert cluster_texts(config.run_dir) == {
            frozenset({"Alpha", "Beta"}): "Alpha", frozenset({"Gamma", "Delta"}): "Delta",
            frozenset({"Epsilon"}): "Epsilon",
        }

    def test_chat_requests_are_work_items(self, tmp_path):
        # Every request, judge calls, adherence probes and the similarity
        # embeds included, is sent from a runner pool thread; the main
        # thread sends none.
        class ThreadRecordingMock(PromptRecordingMock):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.requests = Counter()

            def record(self, kind):
                on_main = threading.current_thread() is threading.main_thread()
                self.requests[kind, "main" if on_main else "pool"] += 1

            def chat_completion(self, request):
                self.record("chat")
                return super().chat_completion(request)

            def embeddings(self, request):
                self.record("embed")
                return super().embeddings(request)

        config = make_planted_run(tmp_path)
        mock = ThreadRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        tasks = Counter(p.splitlines()[0] for p in mock.prompts)
        assert tasks["TASK: synonym-check"] == 3
        assert tasks["TASK: pick-representative"] == 2
        assert tasks["TASK: extract-concepts"] == 3 + 3  # seeds, then the probes
        # Extract's similarity tail, analyze's one seed batch and its one
        # batch of accepted questions.
        assert mock.requests == {("chat", "pool"): len(mock.prompts), ("embed", "pool"): 3}

    def test_probe_embeds_in_its_work_item_under_a_tolerance(self, tmp_path, monkeypatch):
        # Probes re-extract paraphrases, so no guiding concept matches by
        # text and each is embedded with the candidates, inside the probe's
        # work item; at a tolerance of -1 every cosine matches.
        real = extraction.extract_concepts

        def paraphrase(seed, extractor, client):
            phrases = real(seed, extractor, client)
            return [p + " restated" for p in phrases] if seed.id == "adherence-probe" else phrases

        class EmbedThreadMock(MockServer):
            probe_embeds = 0

            def embeddings(self, request):
                # A probe embeds one guiding concept with the paraphrases.
                concept, *candidates = request["input"]
                if candidates and all(c.endswith(" restated") for c in candidates):
                    assert threading.current_thread() is not threading.main_thread()
                    EmbedThreadMock.probe_embeds += 1
                return super().embeddings(request)

        monkeypatch.setattr(extraction, "extract_concepts", paraphrase)
        config_path, config_dict = make_run(tmp_path)
        config_dict["analytics"]["adherence_tolerance"] = -1.0
        config_dict["mock"]["behaviors"]["problem_score"] = 0.9
        config = load_config(write_config(config_path, config_dict))
        mock = EmbedThreadMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        accepted = [i for i in read_items(config.run_dir) if i.status == "solution_accepted"]
        probed = accepted[:config_dict["analytics"]["adherence_sample"]]
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["adherence"]["item_count"] == len(probed) > 0
        assert report["adherence"]["full_match_ratio"] == 1.0
        assert EmbedThreadMock.probe_embeds == sum(
            len(item.combination["concept_ids"]) for item in probed)

    @pytest.mark.parametrize("cache", ["extract.synonyms", "extract.representatives",
                                       "analyze.adherence"])
    def test_kill_inside_a_judge_cache_resumes_to_the_same_bytes(
        self, tmp_path, monkeypatch, cache
    ):
        baseline = make_planted_run(tmp_path, run_name="baseline")
        run_stage(baseline, "run-all")
        lines = {name: len((baseline.run_dir / "cache" / f"{name}.jsonl").read_text()
                           .splitlines()) for name in CACHE_ORDER}
        assert lines[cache] >= 2
        limit = sum(lines[name] for name in CACHE_ORDER[:CACHE_ORDER.index(cache)]) + 1

        config = make_planted_run(tmp_path, run_name="killed")
        monkeypatch.setenv(FAULT_ABORT_ENV, str(limit))
        with pytest.raises(KeyboardInterrupt):
            run_stage(config, "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        assert len((config.run_dir / "cache" / f"{cache}.jsonl").read_text().splitlines()) == 1
        run_stage(config, "run-all")
        assert read_outputs_and_stats(config.run_dir) == read_outputs_and_stats(baseline.run_dir)

    def test_rebuild_from_trusted_caches_sends_no_judge_prompt(self, tmp_path):
        config = make_planted_run(tmp_path)
        run_stage(config, "run-all")
        fresh = read_outputs_and_stats(config.run_dir)
        kb = config.run_dir / "knowledge_base.jsonl"
        kb.write_text(kb.read_text().replace("Alpha", "Alpha edited"))
        mock = PromptRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        judge = ("TASK: synonym-check", "TASK: pick-representative")
        assert [p for p in mock.prompts if p.startswith(judge)] == []
        assert read_outputs_and_stats(config.run_dir) == fresh

    def test_failed_judge_calls_fail_only_their_items(self, tmp_path, monkeypatch):
        def judge_down(*args):
            raise RuntimeError("judge went away")

        monkeypatch.setattr(extraction, "confirm_synonyms", judge_down)
        monkeypatch.setattr(extraction, "pick_representative", judge_down)
        monkeypatch.setattr(analytics, "adherence_probe", judge_down)
        config = make_planted_run(tmp_path)
        run_stage(config, "run-all")
        # No borderline pair merges, and the Alpha-Beta cluster keeps its
        # shortest member rather than the judge's pick.
        assert cluster_texts(config.run_dir) == {
            frozenset({"Alpha", "Beta"}): "Beta", frozenset({"Gamma"}): "Gamma",
            frozenset({"Delta"}): "Delta", frozenset({"Epsilon"}): "Epsilon",
        }
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["adherence"]["item_count"] == 0
        assert report["adherence"]["excluded_count"] > 0

    def test_every_cache_belongs_to_a_stage(self, tmp_path):
        # So the stage record's refuse and discard rules cover each cache.
        config = make_planted_run(tmp_path)
        run_stage(config, "run-all")
        paths = RunPaths(config.run_dir)
        listed = {path for stage in STAGES for path in paths.caches(stage)}
        on_disk = set((config.run_dir / "cache").iterdir())
        assert {p.name.removesuffix(".jsonl") for p in on_disk} == set(CACHE_ORDER)
        assert on_disk <= listed


class TestGraphStage:
    def run_through_graph(self, tmp_path, **config_extra):
        config_path, _ = make_run(tmp_path, **config_extra)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        return config

    def test_g0_combination_sets(self, tmp_path):
        config = self.run_through_graph(tmp_path)
        kb = load_concepts(config.run_dir / "knowledge_base.jsonl")
        text_of = {c.id: c.text for c in kb}
        combos = [json.loads(l) for l in
                  (config.run_dir / "combinations.jsonl").read_text().splitlines()]

        def as_texts(combo):
            return frozenset(text_of[c] for c in combo["concept_ids"])

        one = {as_texts(c) for c in combos if c["kind"] == "one_hop"}
        two = {as_texts(c) for c in combos if c["kind"] == "two_hop"}
        three = {as_texts(c) for c in combos if c["kind"] == "three_hop"}
        community = {as_texts(c) for c in combos if c["kind"] == "community"}

        assert one == {frozenset(p) for p in (
            ("Alpha", "Beta"), ("Alpha", "Gamma"), ("Beta", "Gamma"),
            ("Beta", "Delta"), ("Gamma", "Delta"), ("Delta", "Epsilon"))}
        assert two == {frozenset(p) for p in (
            ("Alpha", "Delta"), ("Beta", "Epsilon"), ("Gamma", "Epsilon"))}
        # hub_fraction=1.0 makes every node a hub: the lone distance-3 pair.
        assert three == {frozenset(("Alpha", "Epsilon"))}
        assert community == {
            frozenset(("Alpha", "Beta", "Gamma")),
            frozenset(("Beta", "Gamma", "Delta")),
        }
        weights = {as_texts(c): c["weight"] for c in combos if c["kind"] == "one_hop"}
        assert weights[frozenset(("Beta", "Gamma"))] == 2

    def test_budget_zero_empty_file(self, tmp_path):
        config = self.run_through_graph(
            tmp_path, graph={"hub_fraction": 1.0, "three_hop_min_weight": 1,
                             "combination_budget": 0})
        assert (config.run_dir / "combinations.jsonl").read_text() == ""

    def test_empty_knowledge_base_rejected(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["quality_flags"] = {
            t: "vague" for t in ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")}
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        with pytest.raises(ValidationError, match="empty"):
            run_stage(config, "graph")

    def test_community_cap_truncation_recorded(self, tmp_path):
        config = self.run_through_graph(
            tmp_path, graph={"hub_fraction": 1.0, "three_hop_min_weight": 1,
                             "community_cap": 1})
        stats = json.loads((config.run_dir / "stats" / "graph.json").read_text())
        assert stats["community_cap_truncated"] == 1
        assert stats["enumerated"]["community"] == 1


class TestSynthesizeStage:
    def run_through_synthesize(self, tmp_path, **config_extra):
        config_path, _ = make_run(tmp_path, **config_extra)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        run_stage(config, "synthesize")
        return config

    def test_statuses_follow_kind_scores(self, tmp_path):
        config = self.run_through_synthesize(
            tmp_path,
            judges_scores_by_kind={"one_hop": 0.94, "two_hop": 0.72,
                                   "three_hop": 0.62, "community": 0.88},
        )
        items = read_items(config.run_dir)
        assert items
        for item in items:
            kind = item.combination["kind"]
            if kind in ("one_hop", "community"):
                assert item.status == "solution_accepted"
                assert item.solution
                assert set(item.solution_votes.values()) == {1}
            else:
                assert item.status == "problem_rejected"
                assert item.solution is None

    def test_all_zero_scores_accept_nothing(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["problem_score"] = 0.0
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        run_stage(config, "synthesize")
        items = read_items(config.run_dir)
        assert items
        assert all(i.status == "problem_rejected" for i in items)

    def test_all_one_scores_accept_every_problem(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["problem_score"] = 1.0
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        run_stage(config, "synthesize")
        items = read_items(config.run_dir)
        assert items
        assert all(i.status == "solution_accepted" for i in items)
        assert all(i.weighted_score == 1.0 for i in items)

    def test_dissenting_judge_vetoes_solutions(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["problem_score"] = 1.0
        config_dict["mock"]["behaviors"]["solution_vote_by_model"] = {"mock-judge-b": 0}
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        run_stage(config, "synthesize")
        items = read_items(config.run_dir)
        assert items
        assert all(i.status == "solution_rejected" for i in items)
        assert all(i.solution_votes["judge-b"] == 0 for i in items)

    def test_difficulty_routing_recorded(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["problem_score"] = 1.0
        config_dict["mock"]["behaviors"]["difficulty"] = "high"
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        run_stage(config, "synthesize")
        items = read_items(config.run_dir)
        assert all(i.difficulty == "high" for i in items)

    def test_missing_judges_is_preflight_error(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["judges"] = []
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        with pytest.raises(ConfigurationError, match="judge"):
            run_stage(config, "synthesize")

    def test_retained_questions_have_distinct_canonical_hashes(self, tmp_path):
        from graphsynth.synthesis import QuestionDeduper

        config = self.run_through_synthesize(tmp_path)
        items = read_items(config.run_dir)
        hashes = [QuestionDeduper.canonical_hash(i.question) for i in items]
        assert len(set(hashes)) == len(hashes)


class RequestCountingMock(MockServer):
    """Counts every chat and embeddings request it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.requests = 0
        self._lock = threading.Lock()

    def chat_completion(self, request):
        with self._lock:
            self.requests += 1
        return super().chat_completion(request)

    def embeddings(self, request):
        with self._lock:
            self.requests += 1
        return super().embeddings(request)


class EmbedRecordingMock(MockServer):
    """Records the texts of every embed request it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.embed_requests = []

    def embeddings(self, request):
        self.embed_requests.append(request["input"])
        return super().embeddings(request)


class TestAnalyzeStage:
    def test_report_sections(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps({"question": "quantity q0"}) + "\n")
        config_dict = base_config(
            tmp_path, corpus,
            judges_scores_by_kind={"one_hop": 0.94, "two_hop": 0.72,
                                   "three_hop": 0.62, "community": 0.88},
        )
        config_dict["analytics"] = {
            "ngram_sizes": [2, 3],
            "decontamination_reference": str(reference),
            "adherence_sample": 10,
        }
        config_dict["cost"] = {
            "mode": "gpu_hourly", "gpu_rate": 0.42, "gpu_count": 8,
            "hours": 36, "sample_count": 2123345,
        }
        config_path = write_config(tmp_path / "run.json", config_dict)
        config = load_config(config_path)
        run_stage(config, "run-all")
        report = json.loads((config.run_dir / "report.json").read_text())

        assert report["seed_count"] == 10
        assert report["expansion"]["ratio"] == pytest.approx(
            report["expansion"]["synthesized"] / 10)
        quality = report["problem_quality_by_kind"]
        assert quality["one_hop"]["mean_weighted_score"] == pytest.approx(0.94)
        assert quality["two_hop"]["mean_weighted_score"] == pytest.approx(0.72)
        assert 0.0 <= report["novelty"]["rate"] <= 1.0
        assert report["cost"]["per_sample"] == pytest.approx(0.42 * 8 * 36 / 2123345)
        assert "2" in report["decontamination"]["per_n"]
        assert report["adherence"]["full_match_ratio"] >= 0.0
        assert report["backend_usage"]["calls"] > 0
        # Mock generator embeds every concept phrase: adherence must be perfect.
        assert report["adherence"]["full_match_ratio"] == 1.0
        assert (config.run_dir / "similarity_histogram.csv").exists()

    def test_backend_usage_counts_every_request_served(self, tmp_path):
        # Analyze's own calls (similarity embeds, adherence probes) count too.
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        config = load_config(write_config(tmp_path / "run.json", base_config(tmp_path, corpus)))
        mock = RequestCountingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["adherence"]["item_count"] > 0
        assert report["backend_usage"]["calls"] == mock.requests

    def test_zero_accepted_items_gives_sparse_report(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["mock"]["behaviors"]["problem_score"] = 0.0
        write_config(config_path, config_dict)
        config = load_config(config_path)
        run_stage(config, "run-all")
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["expansion"]["synthesized"] == 0
        assert report["similarity"] == "not computed"
        assert report["adherence"] == "not computed"

    def test_items_jsonl_is_read_once(self, tmp_path, monkeypatch):
        # One pass feeds the report's accumulators, the decontamination
        # overlap and the adherence sample, and the similarity runner.
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps({"question": "quantity q0"}) + "\n")
        config = make_planted_run(tmp_path, analytics={
            "adherence_sample": 5, "decontamination_reference": str(reference)})
        for stage in ("extract", "graph", "synthesize"):
            run_stage(config, stage)
        items_path = config.run_dir / "items.jsonl"
        reads = []
        real = pipeline.iter_jsonl

        def counting(path, *args, **kwargs):
            if Path(path) == items_path:
                reads.append(path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(pipeline, "iter_jsonl", counting)
        run_stage(config, "analyze")
        assert len(reads) == 1
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["expansion"]["synthesized"] == 3
        assert report["similarity"] != "not computed"
        assert report["decontamination"] != "not computed"
        assert report["adherence"]["item_count"] == 3

    def test_the_pass_loses_no_update_on_the_runner_threads(self, tmp_path, monkeypatch):
        # The report's accumulators are fed by the similarity runner's worker
        # threads. More threads than cores, one question per work item and a
        # short switch interval: a lost update would change the report.
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 1)
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(12, 2, 6))
        configs = {}
        for workers in (1, 8):
            config_dict = base_config(tmp_path, corpus, run_name=f"w{workers}",
                                      max_in_flight=workers)
            config_dict["mock"]["behaviors"]["problem_score"] = 0.9
            config_path = write_config(tmp_path / f"w{workers}.json", config_dict)
            configs[workers] = load_config(config_path)
        for stage in ("extract", "graph", "synthesize"):
            run_stage(configs[1], stage)
        shutil.copytree(configs[1].run_dir, configs[8].run_dir)
        run_stage(configs[1], "analyze")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_stage(configs[8], "analyze")
        finally:
            sys.setswitchinterval(interval)
        report = json.loads((configs[1].run_dir / "report.json").read_text())
        assert report["expansion"]["synthesized"] >= 20
        assert read_outputs(configs[8].run_dir) == read_outputs(configs[1].run_dir)

    def test_no_accepted_item_removes_an_earlier_histogram(self, tmp_path):
        config = make_planted_run(tmp_path)
        run_stage(config, "run-all")
        histogram = config.run_dir / "similarity_histogram.csv"
        assert histogram.exists()
        items_path = config.run_dir / "items.jsonl"
        items = [rec for _, rec in iter_jsonl(items_path)]
        for item in items:
            if item["status"] == "solution_accepted":
                item["status"] = "solution_rejected"
        items_path.write_text("".join(json.dumps(item) + "\n" for item in items))
        run_stage(config, "analyze")
        report = json.loads((config.run_dir / "report.json").read_text())
        assert report["expansion"]["synthesized"] == 0
        assert report["similarity"] == "not computed"
        assert not histogram.exists()


    @pytest.mark.parametrize("k", [1, 2])
    def test_kill_after_k_similarity_chunks_resends_only_the_rest(
        self, tmp_path, monkeypatch, k
    ):
        # One text per embed request: the planted run's three seeds and
        # three accepted questions make three work items in each analyze
        # embed cache.
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 1)
        baseline = make_planted_run(tmp_path, run_name="baseline")
        run_stage(baseline, "run-all")
        lines = cache_lines(baseline.run_dir)
        assert lines["analyze.seeds"] == lines["analyze.similarity"] == 3
        limit = sum(lines[name] for name in
                    CACHE_ORDER[:CACHE_ORDER.index("analyze.similarity")]) + k

        config = make_planted_run(tmp_path, run_name="killed")
        monkeypatch.setenv(FAULT_ABORT_ENV, str(limit))
        with pytest.raises(KeyboardInterrupt):
            run_stage(config, "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        assert cache_lines(config.run_dir)["analyze.similarity"] == k

        mock = EmbedRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        accepted = [i.question for i in read_items(baseline.run_dir)
                    if i.status == "solution_accepted"]
        assert sorted(mock.embed_requests) == sorted([q] for q in accepted[k:])
        assert read_outputs_and_stats(config.run_dir) == read_outputs_and_stats(baseline.run_dir)

    def test_unreachable_embedder_exits_two_and_resume_retries_the_rest(
        self, tmp_path, monkeypatch
    ):
        # The embedder goes away after analyze's three seed requests and its
        # first question request. With one item in flight, the second
        # question's item fails: analyze stops, nothing failed is cached,
        # and the resume sends only the two uncommitted items' requests.
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 1)
        baseline = make_planted_run(tmp_path, run_name="baseline")
        run_stage(baseline, "run-all")
        config = make_planted_run(tmp_path, run_name="down", max_in_flight=1)
        config_path = str(tmp_path / "down.json")
        for stage in ("extract", "graph", "synthesize"):
            run_stage(config, stage)

        real = MockServer.embeddings
        served = []
        limit = 4

        def embeddings(self, request):
            if len(served) == limit:
                raise TransportError("embedder unreachable", attempts=1)
            served.append(request["input"])
            return real(self, request)

        monkeypatch.setattr(MockServer, "embeddings", embeddings)
        assert cli_main(["analyze", "--config", config_path]) == 2
        lines = cache_lines(config.run_dir)
        assert (lines["analyze.seeds"], lines["analyze.similarity"]) == (3, 1)
        assert "analyze.adherence" not in lines
        analyze_caches = (config.run_dir / "cache").glob("analyze.*.jsonl")
        assert all('"failed"' not in path.read_text() for path in analyze_caches)

        served.clear()
        limit = None
        assert cli_main(["analyze", "--config", config_path]) == 0
        accepted = [i.question for i in read_items(baseline.run_dir)
                    if i.status == "solution_accepted"]
        assert served == [[q] for q in accepted[1:]]
        assert read_outputs_and_stats(config.run_dir) == read_outputs_and_stats(baseline.run_dir)

    @pytest.mark.parametrize("stage", ["run-all", "analyze"])
    def test_missing_reference_fails_before_any_request(self, tmp_path, stage):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        config_dict = base_config(tmp_path, corpus)
        config_dict["analytics"]["decontamination_reference"] = str(tmp_path / "missing.jsonl")
        config = load_config(write_config(tmp_path / "run.json", config_dict))
        mock = RequestCountingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        with pytest.raises(ConfigurationError, match="missing.jsonl does not exist"):
            run_stage(config, stage, client=BackendClient(mock=mock))
        assert mock.requests == 0
        assert not config.run_dir.exists()

    @pytest.mark.parametrize("bad", [{"title": "x"}, "a string", [1, 2], 5, None])
    def test_bad_reference_record_names_its_line(self, tmp_path, bad):
        reference = tmp_path / "reference.jsonl"
        reference.write_text(json.dumps({"text": "fine"}) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValidationError, match=r"reference\.jsonl:2: reference record"):
            list(_iter_reference_texts(reference))

    def test_plain_text_reference_read_line_by_line(self, tmp_path, monkeypatch):
        # Long enough to cross the reader's buffer, with every kind of line
        # boundary, so a \r\n may straddle two reads.
        rng = random.Random(5)
        pieces = ["word", "é", " ", "\n", "\r", "\r\n", "\u2028", "\x85", "\x0c", "\x1e"]
        reference = tmp_path / "reference.txt"
        reference.write_bytes("".join(rng.choices(pieces, k=40_000)).encode("utf-8"))
        expected = [t for t in reference.read_text(encoding="utf-8").splitlines() if t.strip()]
        assert len(expected) > 1000

        def read_whole(*args, **kwargs):
            raise AssertionError("the reference was read whole")

        monkeypatch.setattr(Path, "read_text", read_whole)
        assert list(_iter_reference_texts(reference)) == expected

    def test_a_stage_without_analyze_ignores_the_reference(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["analytics"]["decontamination_reference"] = str(tmp_path / "missing.jsonl")
        run_stage(load_config(write_config(config_path, config_dict)), "extract")


class TestStageEngine:
    def test_stage_body_is_looked_up_when_it_runs(self, tmp_path, monkeypatch):
        # A wrapper installed on the class (as perfbench's tracer does) is
        # called once, and what it returns is what the engine writes.
        original = PipelineRun.cmd_graph
        returned = []

        def counting(self):
            counters = original(self)
            returned.append(counters)
            return counters

        monkeypatch.setattr(PipelineRun, "cmd_graph", counting)
        config = load_config(make_run(tmp_path)[0])
        run_stage(config, "run-all")
        assert len(returned) == 1
        stats = json.loads((config.run_dir / "stats" / "graph.json").read_text())
        no_calls = {"input_tokens": 0, "output_tokens": 0, "calls": 0}
        assert stats == {**returned[0], "usage": no_calls}


class TestTaskFailures:
    @pytest.mark.parametrize("stages,module,name,cache_stage,failures_key", [
        (("extract",), extraction, "extract_concepts", "extract.concepts",
         "extraction_failures"),
        (("extract", "graph", "synthesize"), evaluation, "score_problem",
         "synthesize.evaluate", "evaluation_failures"),
    ], ids=["extract.concepts", "synthesize.evaluate"])
    def test_failed_record_carries_usage(
        self, tmp_path, monkeypatch, stages, module, name, cache_stage, failures_key
    ):
        def call_then_raise(*args):
            client = args[-1]
            client.complete(make_descriptor("generator", "probe"), "ping")
            raise RuntimeError("judge went away")

        config_path, config_dict = make_run(tmp_path)
        config = load_config(config_path)
        for stage in stages[:-1]:
            run_stage(config, stage)
        monkeypatch.setattr(module, name, call_then_raise)
        run_stage(config, stages[-1])

        cache = Path(config_dict["run_dir"]) / "cache" / f"{cache_stage}.jsonl"
        records = [json.loads(line)["result"] for line in cache.read_text().splitlines()]
        assert records
        assert all(rec == {
            "failed": "RuntimeError: judge went away",
            "usage": {"input_tokens": 1, "output_tokens": 1, "calls": 1},
        } for rec in records)
        stats = json.loads((config.run_dir / "stats" / f"{stages[-1]}.json").read_text())
        assert stats[failures_key] == len(records)


class TestCheckpointedRunner:
    def test_one_fsync_per_hand_over_and_fewer_hand_overs_than_items(
        self, tmp_path, monkeypatch
    ):
        # A slow head task holds its finished followers back; once it ends
        # they reach the cache together, in one write and one fsync.
        corpus = write_corpus(tmp_path / "corpus.jsonl", G0_SEEDS)
        run = PipelineRun(parse_config(base_config(tmp_path, corpus, max_in_flight=2)))
        run._record_usage = sum_usage([])
        cache = run.paths.cache("step")
        cache.parent.mkdir(parents=True)
        cache.write_bytes(b'{"id": "work-000", "resu')  # a torn tail, cut with one fsync
        fsyncs = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            real_fsync(fd)

        hand_overs = []
        real_run_bounded = pipeline.run_bounded

        def counting_run_bounded(tasks, max_in_flight, on_ready):
            def counted(outcomes):
                hand_overs.append(len(outcomes))
                on_ready(outcomes)
            real_run_bounded(tasks, max_in_flight, counted)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        monkeypatch.setattr(pipeline, "run_bounded", counting_run_bounded)
        head_may_end = threading.Event()

        def task(i, client):
            if i == 0:
                assert head_may_end.wait(10)
            elif i == 5:
                head_may_end.set()
            return {"v": i}

        items = 40
        results = run._run_checkpointed(
            "step", ((f"work-{i:03d}", i) for i in range(items)), task
        )
        assert [rec["v"] for rec in results] == list(range(items))
        assert sum(hand_overs) == items
        assert hand_overs[0] >= 5  # items 1-4 finished before the head
        assert len(fsyncs) == len(hand_overs) + 1
        assert len(hand_overs) < items


def cached_ids(cache: Path) -> set[str]:
    return {json.loads(line)["id"] for line in cache.read_text(encoding="utf-8").splitlines()}


class PromptRecordingMock(MockServer):
    """Records the prompt of every chat request."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prompts = []
        self._lock = threading.Lock()

    def chat_completion(self, request):
        with self._lock:
            self.prompts.append("\n".join(m["content"] for m in request["messages"]))
        return super().chat_completion(request)


class SlowMock(MockServer):
    """Answers every chat request about 1 ms late, so items in flight
    finish together and reach the cache in batches."""

    def chat_completion(self, request):
        time.sleep(0.001)
        return super().chat_completion(request)


class TestDeterminismAndResume:
    def test_two_runs_byte_identical(self, tmp_path):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        outputs = []
        for name in ("run-a", "run-b"):
            config_dict = base_config(tmp_path, corpus, run_name=name)
            config_path = write_config(tmp_path / f"{name}.json", config_dict)
            config = load_config(config_path)
            run_stage(config, "run-all")
            outputs.append(read_outputs(config.run_dir))
        assert outputs[0] == outputs[1]

    def test_interrupt_and_resume_equals_uninterrupted(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))

        baseline_dict = base_config(tmp_path, corpus, run_name="baseline")
        baseline_path = write_config(tmp_path / "baseline.json", baseline_dict)
        baseline = load_config(baseline_path)
        run_stage(baseline, "run-all")

        interrupted_dict = base_config(tmp_path, corpus, run_name="interrupted")
        interrupted_path = write_config(tmp_path / "interrupted.json", interrupted_dict)
        interrupted = load_config(interrupted_path)
        monkeypatch.setenv(FAULT_ABORT_ENV, "7")
        with pytest.raises(KeyboardInterrupt):
            run_stage(interrupted, "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        # The interrupted stage's record survived, vouching for its cache
        # but for no outputs.
        record = json.loads((interrupted.run_dir / "manifests" / "extract.json").read_text())
        assert record["outputs"] is None
        assert any((interrupted.run_dir / "cache").iterdir())
        run_stage(load_config(interrupted_path), "run-all")

        assert read_outputs(baseline.run_dir) == read_outputs(interrupted.run_dir)

    def test_interrupt_mid_synthesize_and_resume(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        baseline_dict = base_config(tmp_path, corpus, run_name="base2")
        baseline = load_config(write_config(tmp_path / "base2.json", baseline_dict))
        run_stage(baseline, "run-all")

        config_dict = base_config(tmp_path, corpus, run_name="mid")
        config_path = write_config(tmp_path / "mid.json", config_dict)
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        monkeypatch.setenv(FAULT_ABORT_ENV, "3")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "synthesize")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        run_stage(load_config(config_path), "synthesize")
        run_stage(load_config(config_path), "analyze")
        assert read_outputs(baseline.run_dir) == read_outputs(config.run_dir)

    def test_abort_commits_exactly_the_limit(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        committed = {}
        for limit in (5, 13, 23, 37, 51):
            config_dict = base_config(tmp_path, corpus, run_name=f"abort-{limit}")
            config = load_config(write_config(tmp_path / f"abort-{limit}.json", config_dict))
            mock = SlowMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
            monkeypatch.setenv(FAULT_ABORT_ENV, str(limit))
            with pytest.raises(KeyboardInterrupt):
                run_stage(config, "run-all", client=BackendClient(mock=mock))
            committed[limit] = sum(
                len(path.read_text().splitlines())
                for path in (config.run_dir / "cache").glob("*.jsonl")
            )
        assert committed == {limit: limit for limit in committed}

    @pytest.mark.parametrize("value", ["-1", "1e3", "10 ", "x", "\u00b2"])
    def test_bad_abort_limit_refused_before_any_request(self, tmp_path, monkeypatch, value):
        # Such a value used to turn the fault hook off without a word.
        config = load_config(make_run(tmp_path)[0])
        mock = RequestCountingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        monkeypatch.setenv(FAULT_ABORT_ENV, value)
        with pytest.raises(ConfigurationError, match=FAULT_ABORT_ENV):
            run_stage(config, "run-all", client=BackendClient(mock=mock))
        assert mock.requests == 0
        assert not config.run_dir.exists()

    def test_config_change_mid_run_refuses_resume(self, tmp_path, monkeypatch):
        config_path, config_dict = make_run(tmp_path)
        monkeypatch.setenv(FAULT_ABORT_ENV, "2")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        config_dict["random_seed"] = 99
        write_config(config_path, config_dict)
        with pytest.raises(CheckpointError, match="restart"):
            run_stage(load_config(config_path), "run-all")

    def test_resume_with_changed_max_in_flight(self, tmp_path, monkeypatch):
        # max_in_flight changes chunking, not results, so it must not block
        # a resume.
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        baseline_dict = base_config(tmp_path, corpus, run_name="inflight-base")
        baseline = load_config(write_config(tmp_path / "ib.json", baseline_dict))
        run_stage(baseline, "run-all")

        config_dict = base_config(tmp_path, corpus, run_name="inflight", max_in_flight=4)
        config_path = write_config(tmp_path / "inflight.json", config_dict)
        monkeypatch.setenv(FAULT_ABORT_ENV, "7")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        config_dict["max_in_flight"] = 1
        write_config(config_path, config_dict)
        run_stage(load_config(config_path), "run-all")
        assert read_outputs(baseline.run_dir) == read_outputs(Path(config_dict["run_dir"]))

    def test_torn_cache_line_recovered_on_resume(self, tmp_path, monkeypatch):
        # A hard kill can truncate the final cache append; the torn record
        # was never checkpointed, so resume must quietly redo it.
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        baseline_dict = base_config(tmp_path, corpus, run_name="torn-base")
        baseline = load_config(write_config(tmp_path / "tb.json", baseline_dict))
        run_stage(baseline, "run-all")

        config_dict = base_config(tmp_path, corpus, run_name="torn")
        config_path = write_config(tmp_path / "torn.json", config_dict)
        monkeypatch.setenv(FAULT_ABORT_ENV, "4")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        cache = Path(config_dict["run_dir"]) / "cache" / "extract.concepts.jsonl"
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write('{"id": "chain-0-5", "result": {"phrases": ["tor')  # torn
        run_stage(load_config(config_path), "run-all")
        assert read_outputs(baseline.run_dir) == read_outputs(Path(config_dict["run_dir"]))

    def test_torn_tail_then_second_abort_resumes(self, tmp_path, monkeypatch):
        # The append after a torn tail must start on a fresh line: glued onto
        # the fragment, that record would be lost and the next start would
        # find a committed item missing from the cache.
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        baseline_dict = base_config(tmp_path, corpus, run_name="torn2-base")
        baseline = load_config(write_config(tmp_path / "t2b.json", baseline_dict))
        run_stage(baseline, "run-all")

        config_dict = base_config(tmp_path, corpus, run_name="torn2", max_in_flight=1)
        config_path = write_config(tmp_path / "torn2.json", config_dict)
        cache = Path(config_dict["run_dir"]) / "cache" / "extract.concepts.jsonl"
        monkeypatch.setenv(FAULT_ABORT_ENV, "2")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        with open(cache, "a", encoding="utf-8") as fh:
            fh.write('{"id": "chain-0-5", "result": {"phrases": ["tor')  # torn
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        run_stage(load_config(config_path), "run-all")
        assert read_outputs(baseline.run_dir) == read_outputs(Path(config_dict["run_dir"]))
        assert all(json.loads(line) for line in cache.read_text().splitlines())

    def test_unreadable_middle_line_reruns_it_and_the_rest(self, tmp_path, caplog):
        # The program never writes such a line (a kill tears only the
        # tail); the cache is a prefix of the work, so the match stops
        # there and everything after it runs again, in work order.
        seeds = toy_corpus_seeds(8, 1, 3)
        baseline_path, _ = make_run(tmp_path, seeds=seeds, run_name="baseline")
        baseline = load_config(baseline_path)
        run_stage(baseline, "run-all")
        config_path, _ = make_run(tmp_path, seeds=seeds, run_name="run")
        config = load_config(config_path)
        run_stage(config, "run-all")
        cache = config.run_dir / "cache" / "synthesize.evaluate.jsonl"
        fresh = cache.read_bytes()
        lines = fresh.splitlines(keepends=True)
        assert len(lines) >= 5
        middle = len(lines) // 2
        questions = [json.loads(line)["result"]["item"]["question"] for line in lines]
        lines[middle] = b'{"id": "' + json.loads(lines[middle])["id"].encode() + b'", "result": {\n'
        cache.write_bytes(b"".join(lines))
        (config.run_dir / "items.jsonl").unlink()

        mock = PromptRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        with caplog.at_level(logging.WARNING, logger="graphsynth.store"):
            run_stage(config, "run-all", client=BackendClient(mock=mock))
        assert f"line {middle + 1} of {cache} is unreadable" in caplog.text
        scored = [p for p in mock.prompts if "TASK: score-problem" in p]
        assert {q for q in questions if any(q in p for p in scored)} == set(questions[middle:])
        assert cache.read_bytes() == fresh
        assert read_outputs(config.run_dir) == read_outputs(baseline.run_dir)

    def test_cached_ids_only_grow(self, tmp_path, monkeypatch):
        config_path, config_dict = make_run(tmp_path)
        cache = Path(config_dict["run_dir"]) / "cache" / "extract.concepts.jsonl"
        monkeypatch.setenv(FAULT_ABORT_ENV, "2")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        partial = cached_ids(cache)
        assert partial
        run_stage(load_config(config_path), "run-all")
        final = cached_ids(cache)
        assert partial <= final == {seed["id"] for seed in G0_SEEDS}

    def test_cached_id_never_runs_again(self, tmp_path, monkeypatch):
        seeds = toy_corpus_seeds(8, 1, 3)
        config_path, config_dict = make_run(tmp_path, seeds=seeds, max_in_flight=2)
        cache = Path(config_dict["run_dir"]) / "cache" / "extract.concepts.jsonl"
        monkeypatch.setenv(FAULT_ABORT_ENV, "4")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        done = cached_ids(cache)
        assert 0 < len(done) < len(seeds)

        config = load_config(config_path)
        mock = PromptRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        run_stage(config, "run-all", client=BackendClient(mock=mock))
        extract_prompts = [p for p in mock.prompts if p.startswith("TASK: extract-concepts")]
        # Each seed not yet cached is asked once; a cached one never is.
        asked = Counter(s["id"] for s in seeds for p in extract_prompts if s["question"] in p)
        assert asked == Counter({s["id"] for s in seeds} - done)

    def test_cache_without_header_is_discarded(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        baseline_dict = base_config(tmp_path, corpus, run_name="nohdr-base")
        baseline = load_config(write_config(tmp_path / "nb.json", baseline_dict))
        run_stage(baseline, "run-all")

        config_dict = base_config(tmp_path, corpus, run_name="nohdr")
        config_path = write_config(tmp_path / "nohdr.json", config_dict)
        run_dir = Path(config_dict["run_dir"])
        monkeypatch.setenv(FAULT_ABORT_ENV, "4")
        with pytest.raises(KeyboardInterrupt):
            run_stage(load_config(config_path), "run-all")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        # A cache line no stage record vouches for: trusting it would
        # change the outputs.
        cache = run_dir / "cache" / "extract.concepts.jsonl"
        bogus = {"id": sorted(cached_ids(cache))[0], "result": {"phrases": ["bogus"]}}
        cache.write_text(json.dumps(bogus) + "\n", encoding="utf-8")
        (run_dir / "manifests" / "extract.json").unlink()
        run_stage(load_config(config_path), "run-all")
        assert read_outputs(baseline.run_dir) == read_outputs(run_dir)
        assert "bogus" not in cache.read_text(encoding="utf-8")

    def test_two_processes_byte_identical(self, tmp_path):
        # Fresh interpreters: determinism must not lean on per-process state.
        import subprocess
        import sys

        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(6, 1, 2))
        dirs = []
        for name in ("proc-a", "proc-b"):
            config_dict = base_config(tmp_path, corpus, run_name=name)
            config_path = write_config(tmp_path / f"{name}.json", config_dict)
            proc = subprocess.run(
                [sys.executable, "-m", "graphsynth.cli", "run-all",
                 "--config", str(config_path)],
                capture_output=True, text=True, env=src_env(),
            )
            assert proc.returncode == 0, proc.stderr
            dirs.append(Path(config_dict["run_dir"]))
        assert read_outputs(dirs[0]) == read_outputs(dirs[1])


class NonceMock(MockServer):
    """Answers that differ from one instance to the next, as a backend
    sampling at a temperature above 0 would: the nonce goes into every
    seeded draw. Its 2-d embeddings put many concept pairs in the same or
    the judge band, so a recomputed extract tail would merge other concepts.
    Counts the requests sent to each model."""

    def __init__(self, *args, nonce: int, **kwargs):
        super().__init__(*args, embedding_dim=2, **kwargs)
        self.seed = f"{self.seed}:nonce-{nonce}"
        self.requests = Counter()
        self._lock = threading.Lock()

    def chat_completion(self, request):
        with self._lock:
            self.requests[request["model"]] += 1
        return super().chat_completion(request)

    def embeddings(self, request):
        with self._lock:
            self.requests[request["model"]] += 1
        return super().embeddings(request)


def skipped_stages(caplog) -> list[str]:
    return [r.getMessage().split(":")[0] for r in caplog.records
            if "skipped, its outputs match" in r.getMessage()]


class TestStageManifests:
    EXTRACT_OUTPUTS = ("knowledge_base.jsonl", "clusters.jsonl", "seeds_enriched.jsonl",
                       "stats/extract.json")

    def test_resume_in_evaluate_never_recomputes_extract(self, tmp_path, monkeypatch):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        config = load_config(write_config(tmp_path / "run.json", base_config(tmp_path, corpus)))

        def nonce_mock(nonce: int) -> NonceMock:
            return NonceMock(seed=config.mock_seed, behaviors=config.mock_behaviors, nonce=nonce)

        run_stage(config, "extract", client=BackendClient(mock=nonce_mock(1)))
        run_stage(config, "graph")
        combos = json.loads((config.run_dir / "stats" / "graph.json").read_text())["sampled_total"]
        # Every generate item, then one evaluate item.
        monkeypatch.setenv(FAULT_ABORT_ENV, str(combos + 1))
        with pytest.raises(KeyboardInterrupt):
            run_stage(config, "synthesize", client=BackendClient(mock=nonce_mock(2)))
        monkeypatch.delenv(FAULT_ABORT_ENV)
        before = {name: (config.run_dir / name).read_bytes() for name in self.EXTRACT_OUTPUTS}

        mock = nonce_mock(3)
        for stage in ("extract", "graph", "synthesize"):
            run_stage(config, stage, client=BackendClient(mock=mock))
        after = {name: (config.run_dir / name).read_bytes() for name in self.EXTRACT_OUTPUTS}
        assert after == before
        assert mock.requests["mock-embedder"] == mock.requests["mock-kb_judge"] == 0
        assert mock.requests["mock-judge-a"] > 0  # the pending evaluate items ran
        assert len(read_items(config.run_dir)) > 1

    def test_manifests_name_no_path_and_a_copied_run_skips(self, tmp_path, caplog):
        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        run_dirs = []
        for name in ("run-a", "run-b"):
            config = load_config(write_config(
                tmp_path / f"{name}.json", base_config(tmp_path, corpus, run_name=name)))
            run_stage(config, "run-all")
            run_dirs.append(config.run_dir)
        manifests = [
            {path.name: path.read_bytes() for path in (run_dir / "manifests").iterdir()}
            for run_dir in run_dirs
        ]
        assert sorted(manifests[0]) == [f"{stage}.json" for stage in sorted(STAGES)]
        assert manifests[0] == manifests[1]

        copied = tmp_path / "copied"
        shutil.copytree(run_dirs[0], copied)
        config = load_config(write_config(
            tmp_path / "copied.json", base_config(tmp_path, corpus, run_name="copied")))
        mock = RequestCountingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        with caplog.at_level(logging.INFO, logger="graphsynth.pipeline"):
            run_stage(config, "run-all", client=BackendClient(mock=mock))
        assert skipped_stages(caplog) == ["extract", "synthesize", "analyze"]
        assert str(copied / "manifests" / "extract.json") in caplog.text
        assert mock.requests == 0
        assert read_outputs(copied) == read_outputs(run_dirs[0])

    def test_moved_project_with_relative_input_paths_resumes(self, tmp_path, monkeypatch, caplog):
        # parse_config stores templates_dir and the decontamination reference
        # as absolute paths. A copied project must still resume: the stage
        # records hash what those files hold, not where they are.
        project = tmp_path / "project"
        write_corpus(project / "corpus.jsonl", toy_corpus_seeds(8, 1, 3))
        (project / "templates").mkdir()
        (project / "templates" / "pair.txt").write_text(DEFAULT_TEMPLATE_BODIES[2])
        (project / "reference.jsonl").write_text(json.dumps(
            {"question": "Relate [Concept 01] with [Concept 02] in a single derivation."}) + "\n")
        config_dict = base_config(tmp_path, Path("corpus.jsonl"), templates_dir="templates")
        config_dict["run_dir"] = "run"
        config_dict["analytics"]["decontamination_reference"] = "reference.jsonl"
        write_config(project / "config.json", config_dict)
        fresh = tmp_path / "fresh"
        shutil.copytree(project, fresh)
        run_stage(load_config(fresh / "config.json"), "run-all")

        config = load_config(project / "config.json")
        run_stage(config, "extract")
        run_stage(config, "graph")
        monkeypatch.setenv(FAULT_ABORT_ENV, "3")
        with pytest.raises(KeyboardInterrupt):
            run_stage(config, "synthesize")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        moved = tmp_path / "moved"
        shutil.copytree(project, moved)
        with caplog.at_level(logging.INFO, logger="graphsynth.pipeline"):
            run_stage(load_config(moved / "config.json"), "run-all")
        assert skipped_stages(caplog) == ["extract"]
        assert read_outputs(moved / "run") == read_outputs(fresh / "run")
        report = json.loads((moved / "run" / "report.json").read_text())
        assert "decontamination" in report

    def test_unreadable_record_refused_before_any_request(self, tmp_path):
        config_path, _ = make_run(tmp_path)
        config = load_config(config_path)
        run_stage(config, "extract")
        record = config.run_dir / "manifests" / "extract.json"
        record.write_text("{torn", encoding="utf-8")
        mock = RequestCountingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        with pytest.raises(CheckpointError, match=re.escape(str(record))):
            run_stage(config, "run-all", client=BackendClient(mock=mock))
        assert mock.requests == 0
        assert record.read_text(encoding="utf-8") == "{torn"

    @pytest.mark.parametrize("change", ["edit-output", "edit-seed-line", "delete-manifest"])
    def test_changed_stage_reruns_to_a_fresh_runs_bytes(self, tmp_path, caplog, change):
        seeds = toy_corpus_seeds(8, 1, 3)
        corpus = write_corpus(tmp_path / "corpus.jsonl", seeds)
        config = load_config(write_config(tmp_path / "run.json", base_config(tmp_path, corpus)))
        run_stage(config, "run-all")
        if change == "edit-output":
            kb = config.run_dir / "knowledge_base.jsonl"
            kb.write_text(kb.read_text().replace("Concept 03", "Concept 3"))
        elif change == "edit-seed-line":
            seeds[3] = dict(seeds[3], question=seeds[3]["question"] + " Also use [Concept 42].")
            write_corpus(corpus, seeds)
        else:
            (config.run_dir / "manifests" / "extract.json").unlink()

        mock = PromptRecordingMock(seed=config.mock_seed, behaviors=config.mock_behaviors)
        with caplog.at_level(logging.INFO, logger="graphsynth.pipeline"):
            run_stage(config, "run-all", client=BackendClient(mock=mock))
        # Extract's outputs do not change unless its input does, so the
        # stages after it stay skipped.
        assert skipped_stages(caplog) == (
            [] if change == "edit-seed-line" else ["synthesize", "analyze"])
        if change == "edit-output":
            # The record still vouches for extract's caches, so no chat
            # request is sent again; only the similarity embed request is.
            per_item = ("TASK: extract-concepts", "TASK: quality-check")
            assert [p for p in mock.prompts if p.startswith(per_item)] == []
        fresh = load_config(write_config(
            tmp_path / "fresh.json", base_config(tmp_path, corpus, run_name="fresh")))
        run_stage(fresh, "run-all")
        assert read_outputs(config.run_dir) == read_outputs(fresh.run_dir)
        if change == "edit-seed-line":
            kb = {c.text for c in load_concepts(config.run_dir / "knowledge_base.jsonl")}
            assert "Concept 42" in kb

    def test_changed_random_seed_after_finished_extract_refused(self, tmp_path, monkeypatch):
        config_path, config_dict = make_run(tmp_path, seeds=toy_corpus_seeds(8, 1, 3))
        config = load_config(config_path)
        run_stage(config, "extract")
        run_stage(config, "graph")
        monkeypatch.setenv(FAULT_ABORT_ENV, "3")
        with pytest.raises(KeyboardInterrupt):
            run_stage(config, "synthesize")
        monkeypatch.delenv(FAULT_ABORT_ENV)
        config_dict["random_seed"] = 99
        write_config(config_path, config_dict)
        with pytest.raises(CheckpointError, match="restart"):
            run_stage(load_config(config_path), "run-all")

    def test_verbose_cli_names_the_skipped_stage(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        command = [sys.executable, "-m", "graphsynth.cli", "-v", "extract",
                   "--config", str(config_path)]
        first = subprocess.run(command, capture_output=True, text=True, env=src_env(), timeout=120)
        second = subprocess.run(command, capture_output=True, text=True, env=src_env(), timeout=120)
        assert first.returncode == second.returncode == 0
        manifest = Path(config_dict["run_dir"]) / "manifests" / "extract.json"
        line = f"INFO graphsynth.pipeline: extract: skipped, its outputs match {manifest}"
        assert line not in first.stderr
        assert line in second.stderr.splitlines()


class TestWireProtocolEquivalence:
    def test_http_served_mock_matches_in_process_mock(self, tmp_path):
        # Serve the deterministic mock over real HTTP with the same wire
        # shapes; the pipeline must produce byte-identical outputs either way.
        import json as jsonlib
        import threading
        from http.server import BaseHTTPRequestHandler, HTTPServer

        from graphsynth.backends import MockServer

        mock = MockServer(seed=7)

        class MockHttpHandler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = jsonlib.loads(self.rfile.read(length))
                if self.path.endswith("/embeddings"):
                    payload = mock.embeddings(body)
                else:
                    payload = mock.chat_completion(body)
                data = jsonlib.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), MockHttpHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        endpoint = f"http://127.0.0.1:{server.server_port}/v1"
        try:
            corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(6, 1, 2))

            local_dict = base_config(tmp_path, corpus, run_name="wire-local")
            local = load_config(write_config(tmp_path / "wl.json", local_dict))
            run_stage(local, "run-all")

            http_dict = base_config(tmp_path, corpus, run_name="wire-http")
            for key in http_dict["backends"]:
                http_dict["backends"][key] = {
                    "endpoint": endpoint, "model_name": f"mock-{key}",
                }
            for judge in http_dict["judges"]:
                judge["endpoint"] = endpoint
                judge["model_name"] = f"mock-{judge['backend_id']}"
            over_http = load_config(write_config(tmp_path / "wh.json", http_dict))
            run_stage(over_http, "run-all")

            assert read_outputs(local.run_dir) == read_outputs(over_http.run_dir)
        finally:
            server.shutdown()
            server.server_close()


class TestColdStart:
    def test_mock_run_loads_no_http_stack(self, tmp_path):
        # A fresh interpreter that imports the package and runs every stage
        # on the mock must never import an HTTP client or TLS.
        import subprocess
        import sys

        corpus = write_corpus(tmp_path / "corpus.jsonl", toy_corpus_seeds(6, 1, 2))
        config_path = write_config(tmp_path / "run.json", base_config(tmp_path, corpus))
        script = (
            "import sys\n"
            "import graphsynth, graphsynth.cli, graphsynth.pipeline\n"
            "from graphsynth.config import load_config\n"
            "graphsynth.pipeline.run_stage(load_config(sys.argv[1]), 'run-all')\n"
            "print(sorted({'requests', 'urllib3', 'ssl', 'http.client'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(config_path)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
        assert (tmp_path / "run" / "report.json").exists()

    @staticmethod
    def blas_probe(openblas_threads):
        # A fresh interpreter imports graphsynth, then numpy, computes one
        # product the size of a cosine block, and prints its thread count
        # and OPENBLAS_NUM_THREADS.
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("needs /proc/self/task")
        script = (
            "import os\n"
            "import graphsynth\n"
            "import numpy as np\n"
            "vectors = np.random.default_rng(0).standard_normal((600, 32))\n"
            "vectors @ vectors.T\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        env = {k: v for k, v in src_env().items() if k != "OPENBLAS_NUM_THREADS"}
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_blas_pinned_to_one_thread(self):
        assert self.blas_probe(None) == ["1", "1"]

    def test_callers_blas_setting_kept(self):
        assert self.blas_probe("2")[1] == "2"


class TestRunLock:
    def test_live_lock_refused(self, tmp_path):
        lock_path = tmp_path / ".lock"
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            with pytest.raises(ValidationError, match="locked"):
                RunLock(lock_path).__enter__()
        finally:
            os.close(fd)

    def test_stale_lock_replaced(self, tmp_path):
        # A holder that dies without releasing (no __exit__, no cleanup)
        # leaves a lock file the next acquirer gets, and the file stays.
        lock_path = tmp_path / ".lock"
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from graphsynth.pipeline import RunLock\n"
            "RunLock(Path(sys.argv[1])).__enter__()\n"
            "os._exit(0)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, str(lock_path)],
                              capture_output=True, text=True, env=src_env(), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert lock_path.exists()
        with RunLock(lock_path):
            with pytest.raises(ValidationError, match="locked"):
                RunLock(lock_path).__enter__()
        assert lock_path.exists()

    def test_two_acquirers_of_a_dead_holders_lock_never_both_hold_it(
        self, tmp_path, monkeypatch
    ):
        # Forced interleaving for a liveness-probe lock: both acquirers find
        # the dead holder's pid before either replaces the file, and the
        # later one goes on only once the earlier one has taken the lock.
        lock_path = tmp_path / ".lock"
        dead_pid = 999999999
        lock_path.write_text(str(dead_pid))
        barrier = threading.Barrier(2, timeout=10)
        real_kill = os.kill

        def kill(pid, sig):
            if pid != dead_pid:
                return real_kill(pid, sig)
            if barrier.wait() == 1:
                deadline = time.monotonic() + 10
                while lock_path.read_text() != str(os.getpid()) and time.monotonic() < deadline:
                    time.sleep(0.001)
            raise ProcessLookupError(pid)

        monkeypatch.setattr(os, "kill", kill)
        held, refused = [], []

        def acquire():
            lock = RunLock(lock_path)
            try:
                held.append(lock.__enter__())
            except ValidationError:
                refused.append(lock)

        threads = [threading.Thread(target=acquire) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        for lock in held:
            lock.__exit__(None, None, None)
        assert not any(thread.is_alive() for thread in threads)
        assert (len(held), len(refused)) == (1, 1)


class TestCli:
    def test_run_all_exit_zero(self, tmp_path, capsys):
        config_path, _ = make_run(tmp_path)
        assert cli_main(["run-all", "--config", str(config_path)]) == 0

    def test_bad_config_exit_one(self, tmp_path):
        config_path = tmp_path / "bad.json"
        config_path.write_text("{}")
        assert cli_main(["extract", "--config", str(config_path)]) == 1

    def test_missing_config_file_exit_one(self, tmp_path):
        assert cli_main(["extract", "--config", str(tmp_path / "nope.json")]) == 1

    def test_interrupted_exit_three(self, tmp_path, monkeypatch):
        config_path, _ = make_run(tmp_path)
        monkeypatch.setenv(FAULT_ABORT_ENV, "2")
        assert cli_main(["run-all", "--config", str(config_path)]) == 3

    def test_budget_flag_overrides_config(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        assert cli_main(["run-all", "--config", str(config_path), "--budget", "0"]) == 0
        run_dir = Path(config_dict["run_dir"])
        assert (run_dir / "combinations.jsonl").read_text() == ""

    def test_set_override_dotted_key(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        code = cli_main([
            "run-all", "--config", str(config_path),
            "--set", "graph.combination_budget=2",
        ])
        assert code == 0
        run_dir = Path(config_dict["run_dir"])
        combos = (run_dir / "combinations.jsonl").read_text().splitlines()
        assert len(combos) == 2

    def test_flags_round_trip_backslashes_and_quotes(self, tmp_path):
        from graphsynth.cli import _collect_overrides, build_parser
        from graphsynth.config import apply_override

        run_dir, corpus = "runs\\tmp", 'seeds "v2".jsonl'
        args = build_parser().parse_args([
            "run-all", "--config", "c.json", "--run-dir", run_dir,
            "--seed-corpus", corpus, "--random-seed", "3", "--hub-fraction", "0.5",
        ])
        data: dict = {}
        for override in _collect_overrides(args):
            data = apply_override(data, override)
        assert data == {"run_dir": run_dir, "seed_corpus": corpus, "random_seed": 3,
                        "graph": {"hub_fraction": 0.5}}

        # An integer typed for a numeric flag stays an int, so a run resumed
        # without the flag keeps the fingerprint of the default it repeats.
        args = build_parser().parse_args(["run-all", "--config", "c.json", "--min-weight", "2"])
        (override,) = _collect_overrides(args)
        assert apply_override({}, override) == {"graph": {"three_hop_min_weight": 2}}
        assert type(apply_override({}, override)["graph"]["three_hop_min_weight"]) is int
        _, config_dict = make_run(tmp_path)
        del config_dict["graph"]["three_hop_min_weight"]
        flagged = apply_override(json.loads(json.dumps(config_dict)), override)
        assert parse_config(flagged).fingerprint() == parse_config(config_dict).fingerprint()

    @pytest.mark.parametrize("override,path,value", [
        ("judges.0.judge_weight=2", ("judges", 0, "judge_weight"), 2),
        ("judges.2.endpoint=mock", ("judges", 2, "endpoint"), "mock"),
        ("judges.1={\"backend_id\": \"j\", \"endpoint\": \"mock\"}", ("judges", 1),
         {"backend_id": "j", "endpoint": "mock"}),
        ("graph.combination_budget=2", ("graph", "combination_budget"), 2),
        ("graph.new.key=1", ("graph", "new", "key"), 1),
    ])
    def test_set_override_indexes_lists(self, tmp_path, override, path, value):
        from graphsynth.config import apply_override

        _, config_dict = make_run(tmp_path)
        data = apply_override(json.loads(json.dumps(config_dict)), override)
        node = data
        for part in path:
            node = node[part]
        assert node == value
        assert len(data["judges"]) == 3
        if path[:2] == ("graph", "new"):
            # The override makes the object; graph has a fixed key set.
            with pytest.raises(ConfigurationError, match="'new'"):
                parse_config(data)
        else:
            parse_config(data)

    @pytest.mark.parametrize("override,match", [
        ("judges.3.judge_weight=2", r"judges is a list of 3.*'3' is not an index"),
        ("judges.x.judge_weight=2", r"judges is a list of 3.*'x' is not an index"),
        ("judges.-1.judge_weight=2", r"'-1' is not an index"),
        ("judges.0.judge_weight.x=2", r"judges\.0\.judge_weight is 0\.5, not an object"),
        ("graph.hub_fraction.x=2", r"graph\.hub_fraction is 1\.0, not an object"),
        ("graph.combination_budget.x=2", r"graph\.combination_budget is null, not an object"),
        ("random_seed.x=2", r"random_seed is 7, not an object"),
    ])
    def test_set_override_through_a_scalar_or_past_a_list_rejected(
        self, tmp_path, override, match
    ):
        from graphsynth.config import apply_override

        _, config_dict = make_run(tmp_path)
        with pytest.raises(ConfigurationError, match=match) as raised:
            apply_override(config_dict, override)
        assert str(raised.value).startswith(f"override {override!r}: ")

    def test_set_override_into_a_judge_runs(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        assert cli_main(["run-all", "--config", str(config_path),
                         "--set", "judges.0.judge_weight=0.6"]) == 0
        assert load_config(config_path, ["judges.0.judge_weight=0.6"]).judges[0].judge_weight == 0.6

    @pytest.mark.parametrize("earlier,stage,missing", [
        ((), "extract", "corpus.jsonl"),
        ((), "graph", "seeds_enriched.jsonl"),
        (("extract", "graph"), "analyze", "items.jsonl"),
    ], ids=["extract-without-corpus", "graph-before-extract", "analyze-before-synthesize"])
    def test_missing_input_is_an_error_line(self, tmp_path, capsys, earlier, stage, missing):
        config_path, config_dict = make_run(tmp_path)
        if stage == "extract":
            Path(config_dict["seed_corpus"]).unlink()
        for name in earlier:
            assert cli_main([name, "--config", str(config_path)]) == 0
        capsys.readouterr()
        assert cli_main([stage, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{missing} does not exist" in err

    def test_unreachable_backend_exit_two(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        config_dict["backends"]["embedder"] = {
            "endpoint": "http://127.0.0.1:9",  # discard port: nothing listens
            "model_name": "none",
            "request_params": {"max_attempts": 1, "timeout": 0.5},
        }
        write_config(config_path, config_dict)
        assert cli_main(["extract", "--config", str(config_path)]) == 2


class TestConfigParsing:
    def test_defaults_applied(self, tmp_path):
        config = parse_config({
            "run_dir": str(tmp_path / "r"), "seed_corpus": str(tmp_path / "c.jsonl"),
        })
        assert config.thresholds["problem_accept"] == 0.85
        assert config.thresholds["same_band"] == 0.90
        assert config.thresholds["judge_band"] == 0.70
        assert config.graph_params["hub_fraction"] == 0.01
        assert config.graph_params["three_hop_min_weight"] == 2
        assert config.analytics_params["ngram_sizes"] == [8, 10, 13, 15]

    def test_fingerprint_ignores_run_dir_and_max_in_flight_only(self, tmp_path):
        base = {"run_dir": "a", "seed_corpus": "c.jsonl"}
        fp1 = parse_config(dict(base)).fingerprint()
        fp2 = parse_config(dict(base, run_dir="b")).fingerprint()
        fp3 = parse_config(dict(base, random_seed=5)).fingerprint()
        fp4 = parse_config(dict(base, max_in_flight=1)).fingerprint()
        # Input paths: the stage records hash the files' contents instead.
        fp5 = parse_config(dict(base, seed_corpus="elsewhere/c.jsonl")).fingerprint()
        fp6 = parse_config(dict(base, templates_dir="t"), base_dir=tmp_path).fingerprint()
        fp7 = parse_config(dict(base, analytics={"decontamination_reference": "r.jsonl"}),
                           base_dir=tmp_path).fingerprint()
        assert fp1 == fp2 == fp4 == fp5 == fp6 == fp7
        assert fp1 != fp3

    def test_fingerprint_hashes_an_integral_float_as_its_int(self, tmp_path):
        base = {"run_dir": "a", "seed_corpus": "c.jsonl"}
        config_path = write_config(tmp_path / "run.json", base)
        default = parse_config(dict(base)).fingerprint()  # three_hop_min_weight is 2

        def fingerprint(value: str) -> str:
            return load_config(config_path, [f"graph.three_hop_min_weight={value}"]).fingerprint()

        assert fingerprint("2.0") == fingerprint("2") == default
        assert fingerprint("2.5") != default
        # Nested sections too.
        assert (parse_config(dict(base, mock={"behaviors": {"problem_score": 1}})).fingerprint()
                == parse_config(dict(base, mock={"behaviors": {"problem_score": 1.0}}))
                .fingerprint())

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_config({"run_dir": "r", "seed_corpus": "c",
                          "thresholds": {"problem_accept": 1.5}})

    def test_inverted_bands_rejected(self):
        with pytest.raises(ConfigurationError, match="judge_band"):
            parse_config({"run_dir": "r", "seed_corpus": "c",
                          "thresholds": {"judge_band": 0.95}})

    @pytest.mark.parametrize("graph", [
        {"combination_budget": -1},
        {"community_cap": -1},
        {"combination_budget": "many"},
        {"community_sizes": [2, 3]},
        {"community_sizes": [5]},
        {"community_sizes": 3},
        {"hub_fraction": "most"},
        {"three_hop_min_weight": "heavy"},
        {"three_hop_min_weight": None},
    ])
    def test_bad_graph_settings_rejected(self, graph):
        with pytest.raises(ConfigurationError, match="graph"):
            parse_config({"run_dir": "r", "seed_corpus": "c", "graph": graph})

    @pytest.mark.parametrize("settings,match", [
        ({"max_in_flight": 0}, "max_in_flight"),
        ({"max_in_flight": "many"}, "max_in_flight"),
        ({"max_in_flight": 2.5}, "max_in_flight"),
        ({"random_seed": "x"}, "random_seed"),
        ({"random_seed": 1.5}, "random_seed"),
        ({"thresholds": {"problem_accept": "high"}}, "problem_accept"),
        ({"thresholds": {"same_band": None}}, "same_band"),
        ({"analytics": None}, "analytics"),
        ({"analytics": {"adherence_sample": "x"}}, "adherence_sample"),
        ({"analytics": {"adherence_sample": -1}}, "adherence_sample"),
        ({"analytics": {"adherence_sample": None}}, "adherence_sample"),
        ({"analytics": {"ngram_sizes": "x"}}, "ngram_sizes"),
        ({"analytics": {"ngram_sizes": []}}, "ngram_sizes"),
        ({"analytics": {"ngram_sizes": [8, 0]}}, "ngram_sizes"),
        ({"analytics": {"ngram_sizes": [2.5]}}, "ngram_sizes"),
        ({"analytics": {"similarity_bin_width": 0}}, "similarity_bin_width"),
        ({"analytics": {"similarity_bin_width": -0.05}}, "similarity_bin_width"),
        ({"analytics": {"similarity_bin_width": 0.3}}, "similarity_bin_width"),
        ({"analytics": {"similarity_bin_width": "x"}}, "similarity_bin_width"),
        ({"analytics": {"adherence_tolerance": "close"}}, "adherence_tolerance"),
        ({"cost": "cheap"}, "cost"),
        ({"cost": {"gpu_rate": 1}}, "cost"),
        ({"cost": {"mode": "barter"}}, "cost"),
        ({"cost": {"mode": "gpu_hourly", "hours": "x"}}, "cost"),
        ({"cost": {"mode": "gpu_hourly", "sample_count": 0}}, "cost"),
        ({"cost": {"mode": "token_priced", "tokens_in_per_sample": "x"}}, "tokens_in"),
        ({"mock": {"seed": "x"}}, "mock.seed"),
        ({"mock": {"seed": 1.5}}, "mock.seed"),
        ({"mock": "x"}, "mock"),
        ({"mock": {"behaviors": "x"}}, "mock.behaviors"),
        ({"mock": {"behaviors": {"problem_scor": 0.9}}}, "problem_scor"),
        ({"mock": {"behaviors": {"problem_score": "x"}}}, "problem_score"),
        ({"mock": {"behaviors": {"problem_score": True}}}, "problem_score"),
        ({"mock": {"behaviors": {"problem_score_by_kind": {"one_hop": "x"}}}},
         "problem_score_by_kind"),
        ({"mock": {"behaviors": {"problem_score_by_model": []}}}, "problem_score_by_model"),
        ({"mock": {"behaviors": {"quality_flags": 5}}}, "quality_flags"),
        ({"mock": {"behaviors": {"quality_flags": {"Alpha": 1}}}}, "quality_flags"),
        ({"mock": {"behaviors": {"synonym_yes": [["a", "b", "c"]]}}}, "synonym_yes"),
        ({"mock": {"behaviors": {"synonym_yes": [["a", 2]]}}}, "synonym_yes"),
        ({"mock": {"behaviors": {"representative_picks": [{"members": ["a"]}]}}},
         "representative_picks"),
        ({"mock": {"behaviors": {"representative_picks": [{"members": "a", "pick": "a"}]}}},
         "representative_picks"),
        ({"mock": {"behaviors": {"solution_vote": 0.5}}}, "solution_vote"),
        ({"mock": {"behaviors": {"solution_vote_by_model": {"m": "YES"}}}},
         "solution_vote_by_model"),
        ({"mock": {"behaviors": {"difficulty": 3}}}, "difficulty"),
        ({"mock": {"behaviors": {"embedding_overrides": {"x": "1,0"}}}}, "embedding_overrides"),
        ({"mock": {"behaviors": {"embedding_overrides": {"x": [1, "0"]}}}},
         "embedding_overrides"),
        ({"mock": {"behaviors": {"garbage_prompt_substrings": "GARBLE"}}},
         "garbage_prompt_substrings"),
        ({"judges": [{"endpoint": "mock", "judge_weight": "x"}]}, "judge_weight"),
        ({"judges": [{"endpoint": "mock", "judge_weight": True}]}, "judge_weight"),
        ({"backends": {"generator": {"endpoint": "mock", "request_params": "x"}}},
         "request_params"),
        ({"backends": {"generator": {"endpoint": "mock", "request_params": {"timeout_s": 5}}}},
         "timeout_s"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"max_attempts": "x"}}}},
         "max_attempts"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"max_attempts": 2.5}}}},
         "max_attempts"),
        ({"judges": [{"endpoint": "mock", "request_params": {"timeout": "5"}}]}, "timeout"),
        ({"analytics": {"typo_key": 1}}, "typo_key"),
        ({"analytics": {"adherence_tolerance": 5}}, "adherence_tolerance"),
        ({"analytics": {"adherence_tolerance": -3}}, "adherence_tolerance"),
        ({"analytics": {"adherence_tolerance": float("nan")}}, "adherence_tolerance"),
        ({"analytics": {"adherence_tolerance": float("inf")}}, "adherence_tolerance"),
        ({"analytics": {"adherence_tolerance": True}}, "adherence_tolerance"),
        ({"analytics": {"decontamination_reference": 5}}, "decontamination_reference"),
        ({"analytics": {"decontamination_reference": ""}}, "decontamination_reference"),
        ({"judges": [{"endpoint": "mock", "request_params": {"timeout": 0}}]}, "timeout"),
        ({"judges": [{"endpoint": "mock", "request_params": {"timeout": float("nan")}}]},
         "timeout"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"backoff_base": -1}}}},
         "backoff_base"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"backoff_factor": -0.5}}}},
         "backoff_factor"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"backoff_jitter": 3}}}},
         "backoff_jitter"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"backoff_jitter": -0.1}}}},
         "backoff_jitter"),
        ({"backends": [{"endpoint": "mock"}]}, "backends"),
        ({"backends": []}, "backends"),
        ({"backends": "mock"}, "backends"),
        ({"judges": ["mock"]}, "judges"),
        ({"judges": ""}, "judges"),
        ({"judges": [{"endpoint": "mock"}, 5]}, "judges"),
        ({"judges": {"judge-a": {"endpoint": "mock"}}}, "judges"),
        ({"max_inflight": 4}, "max_inflight"),
        ({"thresholds": {"problem_acept": 0.9}}, "problem_acept"),
        ({"graph": {"combination_budjet": 5}}, "combination_budjet"),
        ({"mock": {"sead": 3}}, "sead"),
        ({"cost": {"mode": "gpu_hourly", "tokens_in_per_sampl": 5}}, "tokens_in_per_sampl"),
        ({"backends": {"generator": {"endpoint": "mock", "api_key_evn": "KEY"}}}, "api_key_evn"),
        ({"judges": [{"endpoint": "mock", "judge_wieght": 2}]}, "judge_wieght"),
        ({"judges": [{"endpoint": "mock", "request_params": {"temperature": float("nan")}}]},
         "temperature"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"backoff_base": float("inf")}}}},
         "backoff_base"),
        ({"backends": {"generator": {"endpoint": "ftp://h/v1", "model_name": "g"}}}, "ftp://"),
        ({"judges": [{"endpoint": "localhost:8000/v1", "model_name": "j"}]}, "localhost:8000"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"max_attempts": 0}}}},
         "max_attempts"),
        ({"backends": {"generator": {"endpoint": "mock",
                                     "request_params": {"max_output_tokens": -5}}}},
         "max_output_tokens"),
        ({"judges": [{"endpoint": "mock", "request_params": {"temperature": -1}}]},
         "temperature"),
        # NaN and the infinities, which JSON and --set both parse, are not numbers.
        ({"cost": {"mode": "gpu_hourly", "gpu_rate": float("nan")}}, "gpu_rate"),
        ({"cost": {"mode": "token_priced", "tokens_in_per_sample": float("inf")}},
         "tokens_in_per_sample"),
        ({"graph": {"three_hop_min_weight": float("nan")}}, "three_hop_min_weight"),
        ({"mock": {"behaviors": {"problem_score": float("nan")}}}, "problem_score"),
        ({"mock": {"behaviors": {"embedding_overrides": {"x": [1, float("-inf")]}}}},
         "embedding_overrides"),
        ({"judges": [{"endpoint": "mock", "judge_weight": float("inf")}]}, "judge_weight"),
        ({"cost": {"mode": "gpu_hourly", "gpu_count": 2.5}}, "gpu_count"),
        ({"cost": {"mode": "gpu_hourly", "sample_count": 10.0}}, "sample_count"),
        # 3.0 would pass as 3 but change the fingerprint.
        ({"graph": {"community_sizes": [3.0, 4]}}, "community_sizes"),
        # A negative token count would price a sample below zero.
        ({"cost": {"mode": "token_priced", "tokens_in_per_sample": -500}},
         "tokens_in_per_sample"),
        ({"cost": {"mode": "token_priced", "tokens_out_per_sample": -0.5}},
         "tokens_out_per_sample"),
    ])
    def test_bad_run_settings_rejected(self, settings, match):
        with pytest.raises(ConfigurationError, match=match):
            parse_config({"run_dir": "r", "seed_corpus": "c", **settings})

    def test_request_params_parse(self):
        params = {"temperature": 1, "max_output_tokens": 64, "max_attempts": 2,
                  "backoff_base": 0.1, "backoff_factor": 3, "backoff_jitter": 0.0,
                  "timeout": 5}
        config = parse_config({"run_dir": "r", "seed_corpus": "c", "backends": {
            "generator": {"endpoint": "mock", "request_params": params}}})
        assert vars(config.backends["generator"].request_params) == params
        edges = {"backoff_base": 0, "backoff_factor": 0, "backoff_jitter": 1}
        config = parse_config({"run_dir": "r", "seed_corpus": "c", "backends": {
            "generator": {"endpoint": "mock", "request_params": edges}}})
        assert config.backends["generator"].request_params.backoff_jitter == 1

    def test_parsed_sections_do_not_share_the_defaults(self):
        first = parse_config({"run_dir": "r", "seed_corpus": "c"})
        first.graph_params["combination_budget"] = 7
        first.raw["mock"]["behaviors"]["problem_score"] = 0.1
        second = parse_config({"run_dir": "r", "seed_corpus": "c"})
        assert second.graph_params["combination_budget"] is None
        assert second.raw["mock"] == {"seed": 0, "behaviors": {}}

    def test_every_mock_behavior_key_parses(self):
        behaviors = {
            "quality_flags": {" Alpha  ": "vague"},
            "synonym_yes": [["Gamma", "Delta "]],
            "representative_picks": [{"members": ["Alpha", "Beta"], "pick": "Beta"}],
            "problem_score": 1,
            "problem_score_by_kind": {"one_hop": 0.9},
            "problem_score_by_model": {"mock-judge-a": 0.5},
            "solution_vote": None,
            "solution_vote_by_model": {"mock-judge-b": 0},
            "difficulty": "high",
            "embedding_overrides": {"Alpha": [1, 0.5]},
            "garbage_prompt_substrings": ["GARBLE"],
        }
        config = parse_config({"run_dir": "r", "seed_corpus": "c",
                               "mock": {"behaviors": behaviors}})
        parsed = config.mock_behaviors
        assert parsed.quality_flags == {"Alpha": "vague"}
        assert parsed.synonym_yes == {frozenset(("Gamma", "Delta"))}
        assert parsed.representative_picks == {frozenset(("Alpha", "Beta")): "Beta"}
        assert (parsed.problem_score, parsed.solution_vote, parsed.difficulty) == (1, None, "high")
        assert parsed.embedding_overrides == {"Alpha": [1, 0.5]}
        assert parsed.garbage_prompt_substrings == ["GARBLE"]
        assert parsed.solution_vote_by_model == {"mock-judge-b": 0}
        assert config.raw["mock"]["behaviors"] == behaviors

    @pytest.mark.parametrize("override", [
        "max_in_flight=0", "random_seed=\"x\"", "analytics.similarity_bin_width=0",
        "analytics.adherence_sample=\"x\"", "mock.seed=\"x\"",
        "backends=[\"mock\"]", "judges=[\"judge-a\"]",
        "backends.generator.request_params.timeout=0",
        "judges.3.judge_weight=2", "graph.combination_budget.x=2",
        "backends.generator.endpoint=ftp://h/v1",
        "graph.three_hop_min_weight=NaN", "cost={\"mode\": \"gpu_hourly\", \"hours\": Infinity}",
    ])
    def test_run_settings_checked_before_extract(self, tmp_path, override):
        config_path, config_dict = make_run(tmp_path)
        assert cli_main(["run-all", "--config", str(config_path), "--set", override]) == 1
        assert not Path(config_dict["run_dir"]).exists()

    def test_graph_settings_checked_before_extract(self, tmp_path):
        config_path, config_dict = make_run(tmp_path)
        code = cli_main(["run-all", "--config", str(config_path),
                         "--set", "graph.combination_budget=-1"])
        assert code == 1
        assert not Path(config_dict["run_dir"]).exists()

    def test_unknown_backend_key_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config({"run_dir": "r", "seed_corpus": "c",
                          "backends": {"wizard": {"endpoint": "mock"}}})
