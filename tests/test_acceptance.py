"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL verdict line (see conftest.pytest_runtest_logreport).

Tolerances and workloads are pinned here, not configurable: these are the
exit criteria for the package.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

import oracles
from conftest import (
    base_config, make_descriptor, reachable_pairs, toy_corpus_seeds, write_config, write_corpus,
)
from graphsynth.analytics import (
    CostModel,
    NoveltyCounter,
    adherence_probe,
    adherence_report,
    cost_report,
    expansion_ratio,
    ngram_overlap,
    normalize_for_ngrams,
)
from graphsynth.backends import BackendClient, MockServer
from graphsynth.config import load_config
from graphsynth.evaluation import JudgePanel, veto_decision, weighted_problem_verdict
from graphsynth.extraction import SimilarityVerdict, band_for_cosine, build_clusters
from graphsynth.graph import (
    build_graph,
    enumerate_communities,
    enumerate_one_hop,
    enumerate_two_hop,
    identify_hubs,
    pairs_at_distance,
    select_combinations,
)
from graphsynth.pipeline import FAULT_ABORT_ENV, OUTPUT_FILES, run_stage
from graphsynth.store import KeyConcept, concept_id_for


def random_corpus(rng, max_seeds=100, max_concepts=20):
    n_concepts = rng.randint(2, max_concepts)
    concepts = [f"c{i:02d}" for i in range(n_concepts)]
    seeds = []
    for s in range(rng.randint(1, max_seeds)):
        size = rng.randint(1, min(5, n_concepts))
        seeds.append((f"s{s}", set(rng.sample(concepts, size))))
    return concepts, seeds


def adjacency(seeds):
    adj: dict[str, set[str]] = {}
    weights: dict[tuple[str, str], int] = {}
    for _, concepts in seeds:
        for node in concepts:
            adj.setdefault(node, set())
        for a, b in itertools.combinations(sorted(concepts), 2):
            adj[a].add(b)
            adj[b].add(a)
            weights[(a, b)] = weights.get((a, b), 0) + 1
    return adj, weights


def test_cost_arithmetic_reproduces_published_values():
    started = time.monotonic()
    premium = cost_report(
        CostModel(mode="token_priced", input_price=10, output_price=30),
        tokens_in_per_sample=1000, tokens_out_per_sample=400,
    )
    assert abs(premium - 0.022) <= 1e-9 * 0.022

    budget = cost_report(
        CostModel(mode="token_priced", input_price=1.5, output_price=2),
        tokens_in_per_sample=1000, tokens_out_per_sample=400,
    )
    assert abs(budget - 0.0023) <= 1e-9 * 0.0023

    gpu = cost_report(CostModel(mode="gpu_hourly", gpu_rate=0.42, gpu_count=8,
                                hours=36, sample_count=2_123_345))
    exact = 0.42 * 8 * 36 / 2_123_345
    assert abs(gpu - exact) <= 1e-9 * exact
    assert round(gpu, 6) == 5.7e-5  # matches the published two-significant-digit value

    assert time.monotonic() - started < 1.0


def test_expansion_ratio_reproduces_published_rows():
    started = time.monotonic()
    assert expansion_ratio(2_100_000, 7_500) == 280.0
    assert abs(expansion_ratio(395_000, 15_000) - 26.3) <= 0.1
    assert time.monotonic() - started < 1.0


def test_graph_oracle_equivalence_on_random_corpora():
    started = time.monotonic()
    rng = random.Random(2024)
    corpora = 0
    bottleneck_checked = 0
    while corpora < 200:
        small = corpora % 2 == 0  # alternate sizes so bottleneck oracle stays cheap
        _, seeds = random_corpus(rng, max_seeds=100, max_concepts=12 if small else 20)
        adj, weights = adjacency(seeds)
        if not adj:
            continue
        corpora += 1
        g = build_graph(seeds)

        got_weights = {(a, b): w for a, b, w in g.edges()}
        assert got_weights == oracles.cooccurrence_counts([cs for _, cs in seeds])

        one = {tuple(c.concept_ids) for c in enumerate_one_hop(g)}
        two = {tuple(c.concept_ids) for c in enumerate_two_hop(g)}
        three = {(a, b) for a, b, _, _ in pairs_at_distance(g, 3)}
        assert one == oracles.all_pairs_at_distance(adj, 1)
        assert two == oracles.all_pairs_at_distance(adj, 2)
        assert three == oracles.all_pairs_at_distance(adj, 3)

        combos = enumerate_communities(g)
        got3 = {tuple(c.concept_ids) for c in combos if len(c.concept_ids) == 3}
        got4 = {tuple(c.concept_ids) for c in combos if len(c.concept_ids) == 4}
        assert got3 == oracles.cliques_of_size(adj, 3)
        assert got4 == oracles.cliques_of_size(adj, 4)

        if len(adj) <= 12:
            expected = {
                (a, b): oracles.widest_shortest_path_weight(adj, weights, a, b)
                for a, b in itertools.combinations(sorted(adj), 2)
                if oracles.bfs_distance(adj, a, b) is not None
            }
            assert {pair: w for pair, (_, w) in reachable_pairs(g).items()} == expected
            bottleneck_checked += len(expected)
            combos = list(select_combinations(g, identify_hubs(g, 1.0), min_weight=0, budget=None))
            for combo in combos:
                if combo.kind != "community":
                    assert combo.weight == expected[tuple(combo.concept_ids)]
    assert bottleneck_checked > 1000
    assert time.monotonic() - started < 60.0


def test_novelty_theorems_hold_everywhere():
    rng = random.Random(77)
    hop_kinds = ("one_hop", "two_hop", "three_hop")
    for _ in range(50):
        _, seeds = random_corpus(rng, max_seeds=60, max_concepts=12)
        seed_sets = [cs for _, cs in seeds]
        g = build_graph(seeds)
        combos = list(select_combinations(g, identify_hubs(g, 1.0), min_weight=0))
        counters = {kind: NoveltyCounter(seed_sets) for kind in hop_kinds}
        for combo in combos:
            if combo.kind in counters:
                counters[combo.kind].add(combo.concept_ids)
                assert oracles.is_novel(combo.concept_ids, seed_sets) is (combo.kind != "one_hop")
        assert counters["one_hop"].rate() == 0.0
        for kind in ("two_hop", "three_hop"):
            assert counters[kind].rate() == (1.0 if counters[kind].count else 0.0)


def test_evaluation_logic_on_ten_thousand_draws():
    started = time.monotonic()
    rng = random.Random(99)
    from conftest import make_descriptor

    def panel_of(weights):
        return JudgePanel(judges=[
            make_descriptor("judge", backend_id=f"j{i}", judge_weight=w)
            for i, w in enumerate(weights)
        ])

    for _ in range(10_000):
        k = rng.randint(1, 5)
        weights = [rng.uniform(0.01, 10) for _ in range(k)]
        scores = {f"j{i}": rng.random() for i in range(k)}
        panel = panel_of(weights)
        weighted, accepted = weighted_problem_verdict(scores, panel)

        idx = rng.randrange(k)
        bumped = dict(scores)
        bumped[f"j{idx}"] = min(1.0, bumped[f"j{idx}"] + rng.random())
        weighted_up, accepted_up = weighted_problem_verdict(bumped, panel)
        assert weighted_up >= weighted - 1e-12
        assert not (accepted and not accepted_up)

        scale = rng.uniform(0.1, 100)
        scaled = panel_of([w * scale for w in weights])
        weighted_scaled, accepted_scaled = weighted_problem_verdict(scores, scaled)
        assert abs(weighted_scaled - weighted) <= 1e-9
        assert accepted_scaled == accepted

    # Acceptance flips exactly at the threshold.
    single = panel_of([1.0])
    _, at = weighted_problem_verdict({"j0": 0.85}, single)
    _, below = weighted_problem_verdict({"j0": 0.85 - 1e-9}, single)
    assert at is True
    assert below is False

    for k in range(1, 7):
        for votes in itertools.product((0, 1), repeat=k):
            assert veto_decision(list(votes)) == (min(votes) == 1)

    assert time.monotonic() - started < 10.0


def test_clustering_bands_and_order_independence():
    for cosine, expected in ((0.6999, "distinct"), (0.70, "judge_checked"),
                             (0.8999, "judge_checked"), (0.90, "same")):
        assert band_for_cosine(cosine) == expected

    rng = random.Random(1234)
    concepts = [
        KeyConcept(id=concept_id_for(f"concept {i}"), text=f"concept {i}")
        for i in range(10)
    ]
    ids = sorted(c.id for c in concepts)
    merge_pairs = {tuple(sorted(p)) for p in itertools.combinations(ids, 2)
                   if rng.random() < 0.2}
    verdicts = []
    for a, b in itertools.combinations(ids, 2):
        if (a, b) in merge_pairs:
            verdicts.append(SimilarityVerdict(pair=(a, b), cosine=0.95, band="same"))
        else:
            verdicts.append(SimilarityVerdict(pair=(a, b), cosine=0.2, band="distinct"))

    baseline = {frozenset(c.member_ids) for c in build_clusters(concepts, verdicts)}
    assert baseline == oracles.connected_components(ids, merge_pairs)
    for _ in range(100):
        shuffled_c = concepts[:]
        shuffled_v = verdicts[:]
        rng.shuffle(shuffled_c)
        rng.shuffle(shuffled_v)
        got = {frozenset(c.member_ids) for c in build_clusters(shuffled_c, shuffled_v)}
        assert got == baseline


def test_decontamination_oracle_and_normalization():
    started = time.monotonic()
    assert ngram_overlap(["a b c d"], ["b c d e"], ns=[3]).per_n[3] == 0.5

    rng = random.Random(31)
    vocab = [f"w{i}" for i in range(6)]
    for _ in range(100):
        synth = [" ".join(rng.choices(vocab, k=rng.randint(0, 8)))
                 for _ in range(rng.randint(1, 6))]
        ref = [" ".join(rng.choices(vocab, k=rng.randint(0, 8)))
               for _ in range(rng.randint(1, 6))]
        for n in (1, 2, 3, 4):
            got = ngram_overlap(synth, ref, ns=[n]).per_n[n]
            synth_set = oracles.ngram_set([t.split() for t in synth], n)
            ref_set = oracles.ngram_set([t.split() for t in ref], n)
            if not synth_set:
                assert got is None
            else:
                assert got == pytest.approx(len(synth_set & ref_set) / len(synth_set))

    for text in ("Mixed CASE, with. punct!", "x^2 + y_2 = z", "  spaced   out  ", ""):
        once = normalize_for_ngrams(text)
        assert normalize_for_ngrams(once) == once
    assert time.monotonic() - started < 10.0


def test_adherence_set_semantics():
    # Each probe asks the mock extractor, which re-extracts exactly the
    # bracketed phrases of the question.
    client = BackendClient(mock=MockServer(seed=8))
    extractor = make_descriptor("extractor")

    def report_for(concepts, extracted):
        question = "Use " + " ".join(f"[{c}]" for c in extracted) + "."
        return adherence_report([adherence_probe(concepts, question, extractor, client)])

    both = report_for(["Alpha", "Beta"], ["Alpha", "Beta", "Xi"])
    assert (both.full_match_ratio, both.partial_match_ratio) == (1.0, 1.0)

    partial = report_for(["Alpha", "Beta"], ["Alpha"])
    assert (partial.full_match_ratio, partial.partial_match_ratio) == (0.0, 1.0)

    neither = report_for(["Alpha", "Beta"], ["Xi", "Upsilon"])
    assert (neither.full_match_ratio, neither.partial_match_ratio) == (0.0, 0.0)

    rng = random.Random(8)
    for _ in range(50):
        outcomes = []
        for i in range(rng.randint(1, 5)):
            inputs = [f"c{j}" for j in range(rng.randint(1, 4))]
            extracted = [c for c in inputs if rng.random() < 0.5]
            question = "Use " + " ".join(f"[{c}]" for c in extracted) + "."
            outcomes.append(adherence_probe(inputs, question, extractor, client))
        report = adherence_report(outcomes)
        assert report.full_match_ratio <= report.partial_match_ratio + 1e-12


def _fifty_seed_corpus(tmp_path):
    seeds = toy_corpus_seeds(n_chain=14, copies=3, n_triples=11)
    assert len(seeds) == 50
    return write_corpus(tmp_path / "corpus50.jsonl", seeds)


def _outputs(run_dir):
    return {
        name: (run_dir / name).read_bytes() if (run_dir / name).exists() else b"<m>"
        for name in OUTPUT_FILES
    }


def test_end_to_end_determinism_and_resume(tmp_path, monkeypatch):
    corpus = _fifty_seed_corpus(tmp_path)
    started = time.monotonic()
    outputs = []
    for name in ("det-a", "det-b"):
        config_path = write_config(
            tmp_path / f"{name}.json", base_config(tmp_path, corpus, run_name=name)
        )
        config = load_config(config_path)
        run_stage(config, "run-all")
        outputs.append(_outputs(config.run_dir))
    elapsed = time.monotonic() - started
    assert outputs[0] == outputs[1]
    assert elapsed < 60.0

    resume_path = write_config(
        tmp_path / "resume.json", base_config(tmp_path, corpus, run_name="resume")
    )
    monkeypatch.setenv(FAULT_ABORT_ENV, "40")
    with pytest.raises(KeyboardInterrupt):
        run_stage(load_config(resume_path), "run-all")
    monkeypatch.delenv(FAULT_ABORT_ENV)
    resumed = load_config(resume_path)
    run_stage(resumed, "run-all")
    assert _outputs(resumed.run_dir) == outputs[0]


def test_hop_quality_ablation_ordering(tmp_path):
    corpus = _fifty_seed_corpus(tmp_path)
    config_dict = base_config(
        tmp_path, corpus, run_name="ablation",
        judges_scores_by_kind={"one_hop": 0.94, "two_hop": 0.72,
                               "three_hop": 0.62, "community": 0.88},
    )
    config_path = write_config(tmp_path / "ablation.json", config_dict)
    config = load_config(config_path)
    run_stage(config, "run-all")
    report = json.loads((config.run_dir / "report.json").read_text())
    quality = report["problem_quality_by_kind"]
    for kind in ("one_hop", "two_hop", "three_hop"):
        assert quality[kind]["count"] > 0, f"no {kind} items scored"
    one = quality["one_hop"]["mean_weighted_score"]
    two = quality["two_hop"]["mean_weighted_score"]
    three = quality["three_hop"]["mean_weighted_score"]
    assert one > two > three
