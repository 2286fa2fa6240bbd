from __future__ import annotations

import json
import random
import string

import numpy as np
import pytest

import oracles
from conftest import make_descriptor, wire_usage
from graphsynth import analytics, backends
from graphsynth.analytics import (
    CostModel,
    adherence_probe,
    adherence_report,
    cost_report,
    expansion_ratio,
    ngram_overlap,
    normalize_for_ngrams,
    novelty_rate,
    run_report,
    similarity_distribution,
)
from graphsynth.backends import BackendClient, MockBehaviors, MockServer
from graphsynth.errors import ExtractionError, ValidationError
from graphsynth.graph import ConceptCombination


class TestExpansionRatio:
    def test_headline_ratio(self):
        assert expansion_ratio(2_100_000, 7_500) == 280.0

    def test_identity(self):
        assert expansion_ratio(1234, 1234) == 1.0

    def test_comparison_row(self):
        assert expansion_ratio(395_000, 15_000) == pytest.approx(26.3, abs=0.1)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValidationError):
            expansion_ratio(10, 0)


class TestSimilarityDistribution:
    def embedder(self):
        return make_descriptor("embedder")

    def test_identical_synth_and_seed_scores_one(self):
        client = BackendClient(mock=MockServer(seed=7))
        report = similarity_distribution(["same question"], ["same question", "other"],
                                         self.embedder(), client)
        assert report.mean_max_cosine == pytest.approx(1.0, abs=1e-9)
        assert report.histogram[-1] == 1
        assert report.cdf[-1] == pytest.approx(1.0)

    def test_orthogonal_mock_jumps_to_one_in_first_bin(self):
        behaviors = MockBehaviors(embedding_overrides={
            "synth a": [1.0, 0.0], "synth b": [1.0, 0.0], "seed x": [0.0, 1.0],
        })
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        report = similarity_distribution(["synth a", "synth b"], ["seed x"],
                                         self.embedder(), client)
        assert report.histogram[0] == 2
        assert all(c == pytest.approx(1.0) for c in report.cdf)

    def test_hand_binned_fixture(self):
        # Scores 0.1, 0.1, 0.6, 0.9 against a single seed axis.
        def vec(c):
            return [c, float(np.sqrt(1 - c * c))]

        behaviors = MockBehaviors(embedding_overrides={
            "s1": vec(0.1), "s2": vec(0.1), "s3": vec(0.6), "s4": vec(0.9),
            "seed": [1.0, 0.0],
        })
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        report = similarity_distribution(["s1", "s2", "s3", "s4"], ["seed"],
                                         self.embedder(), client)
        by_bin = dict(zip([round(e, 2) for e in report.bin_edges[:-1]], report.histogram))
        assert by_bin[0.10] == 2
        assert by_bin[0.60] == 1
        assert by_bin[0.90] == 1
        assert sum(report.histogram) == 4
        # CDF evaluated at the 0.65 edge: 3 of 4 items at or below.
        idx_065 = [round(e, 2) for e in report.bin_edges].index(0.65)
        assert report.cdf[idx_065 - 1] == pytest.approx(0.75)

    def test_histogram_cdf_consistency_random(self):
        client = BackendClient(mock=MockServer(seed=3))
        synth = [f"synth text {i}" for i in range(25)]
        seeds = [f"seed text {i}" for i in range(10)]
        report = similarity_distribution(synth, seeds, self.embedder(), client)
        assert sum(report.histogram) == len(synth)
        assert report.cdf == sorted(report.cdf)
        assert report.cdf[-1] == pytest.approx(1.0)
        recomputed = np.cumsum(report.histogram) / len(synth)
        assert np.allclose(recomputed, report.cdf)

    def test_empty_corpus_rejected(self):
        client = BackendClient(mock=MockServer())
        with pytest.raises(ValidationError):
            similarity_distribution([], ["x"], self.embedder(), client)

    def test_small_blocks_match_one_block(self, monkeypatch):
        # Chunks of 7 texts are embedded and folded one at a time.
        synth = [f"synth text {i}" for i in range(40)]
        seeds = [f"seed text {i}" for i in range(12)]
        whole = similarity_distribution(synth, seeds, self.embedder(),
                                        BackendClient(mock=MockServer(seed=5)))
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", 7)
        blocked = similarity_distribution(synth, seeds, self.embedder(),
                                          BackendClient(mock=MockServer(seed=5)))
        assert blocked.histogram == whole.histogram
        assert blocked.cdf == whole.cdf
        assert blocked.mean_max_cosine == pytest.approx(whole.mean_max_cosine, abs=1e-12)

    def test_mean_is_left_to_right_sum_of_row_maxima(self):
        # The mean goes into report.json, so it must be exactly Python's
        # sum over the row maxima of one synth x seed product, over n.
        synth = [f"synth text {i}" for i in range(37)]
        seeds = [f"seed text {i}" for i in range(11)]
        report = similarity_distribution(synth, seeds, self.embedder(),
                                         BackendClient(mock=MockServer(seed=9)))
        client = BackendClient(mock=MockServer(seed=9))
        synth_vecs = client.embed(self.embedder(), synth)
        seed_vecs = client.embed(self.embedder(), seeds)
        row_max = np.clip((synth_vecs @ seed_vecs.T).max(axis=1), -1.0, 1.0)
        assert report.mean_max_cosine == sum(row_max.tolist()) / len(synth)


class TestNoveltyRate:
    SEEDS = [{"A", "B", "C"}, {"B", "C", "D"}, {"D", "E"}]

    def combos(self, pairs, kind="one_hop"):
        return [ConceptCombination(kind, list(p), weight=1) for p in pairs]

    def test_pure_one_hop_is_zero(self):
        combos = self.combos([("A", "B"), ("B", "C"), ("D", "E")])
        assert novelty_rate(combos, self.SEEDS) == 0.0

    def test_pure_two_hop_is_one(self):
        combos = self.combos([("A", "D"), ("B", "E")], kind="two_hop")
        assert novelty_rate(combos, self.SEEDS) == 1.0

    def test_three_of_four(self):
        combos = self.combos([("A", "D"), ("B", "E"), ("C", "E"), ("B", "C")])
        assert novelty_rate(combos, self.SEEDS) == 0.75

    def test_empty_items(self):
        assert novelty_rate([], self.SEEDS) == 0.0

    def test_matches_is_novel_randomized(self):
        rng = random.Random(43)
        for _ in range(200):
            concepts = [f"c{i}" for i in range(rng.randint(2, 10))]
            seeds = [rng.sample(concepts, rng.randint(0, min(5, len(concepts))))
                     for _ in range(rng.randint(0, 15))]
            combos = []
            for _ in range(rng.randint(1, 30)):
                size = rng.choice([2, 3, 4])
                if size > len(concepts):
                    size = 2
                kind = "community" if size > 2 else rng.choice(["one_hop", "two_hop"])
                combos.append(ConceptCombination(kind, rng.sample(concepts, size), weight=1))
            expected = sum(oracles.is_novel(c.concept_ids, seeds) for c in combos) / len(combos)
            assert novelty_rate(combos, seeds) == expected

    def test_empty_combination_not_novel(self):
        empty = ConceptCombination.__new__(ConceptCombination)
        empty.kind, empty.concept_ids, empty.weight, empty.witness = "community", [], 0, None
        combos = self.combos([("A", "D")]) + [empty]
        assert novelty_rate(combos, self.SEEDS) == 0.5


class TestCostReport:
    def test_premium_token_prices(self):
        model = CostModel(mode="token_priced", input_price=10, output_price=30)
        cost = cost_report(model, tokens_in_per_sample=1000, tokens_out_per_sample=400)
        assert abs(cost - 0.022) <= 1e-9 * 0.022

    def test_budget_token_prices(self):
        model = CostModel(mode="token_priced", input_price=1.5, output_price=2)
        cost = cost_report(model, tokens_in_per_sample=1000, tokens_out_per_sample=400)
        assert abs(cost - 0.0023) <= 1e-9 * 0.0023

    def test_gpu_hourly(self):
        model = CostModel(mode="gpu_hourly", gpu_rate=0.42, gpu_count=8, hours=36,
                          sample_count=2_123_345)
        cost = cost_report(model)
        exact = 0.42 * 8 * 36 / 2_123_345
        assert abs(cost - exact) <= 1e-9 * exact
        assert cost == pytest.approx(5.7e-5, rel=5e-3)

    def test_negative_price_rejected(self):
        with pytest.raises(ValidationError):
            CostModel(mode="token_priced", input_price=-1)

    def test_zero_samples_rejected(self):
        with pytest.raises(ValidationError):
            CostModel(mode="gpu_hourly", sample_count=0)


class TestNormalization:
    def test_lowercase_and_punctuation_stripped(self):
        assert normalize_for_ngrams("Hello, World! x^2+1") == "hello world x21"

    def test_idempotent(self):
        texts = ["A, B! c?", "x  y\tz", "Ünïcode Test 42", "", "already clean"]
        for text in texts:
            once = normalize_for_ngrams(text)
            assert normalize_for_ngrams(once) == once

    def test_whitespace_collapsed(self):
        assert normalize_for_ngrams("a   b\n\nc") == "a b c"

    def test_matches_character_loop_on_random_unicode(self):
        # Case mappings that change length (ß, İ), numerals outside ASCII
        # (Ⅰ, ½, Arabic-Indic digits), a wide space, a zero-width
        # non-space and an emoji.
        alphabet = (
            string.ascii_letters + string.digits + string.punctuation
            + " _\t\n" + "ßİⅠ½" + "".join(map(chr, range(0x660, 0x66A)))
            + "\u3000\u200b\U0001F600"
        )
        rng = random.Random(23)
        for _ in range(20_000):
            text = "".join(rng.choices(alphabet, k=rng.randint(0, 24)))
            assert normalize_for_ngrams(text) == oracles.normalize_for_ngrams(text)


class TestNgramOverlap:
    def test_canonical_half_overlap(self):
        report = ngram_overlap(["a b c d"], ["b c d e"], ns=[3])
        assert report.per_n[3] == 0.5

    def test_disjoint_vocabularies(self):
        report = ngram_overlap(["p q r s t"], ["u v w x y"], ns=[1, 2, 3])
        assert all(v == 0.0 for v in report.per_n.values())

    def test_identical_corpora(self):
        texts = ["one two three four five", "six seven eight nine"]
        report = ngram_overlap(texts, texts, ns=[1, 2, 3, 4])
        assert all(v == 1.0 for v in report.per_n.values())

    def test_short_texts_undefined_not_zero(self):
        report = ngram_overlap(["a b"], ["a b c"], ns=[3])
        assert report.per_n[3] is None

    def test_top_overlapping_ranked_by_synth_frequency(self):
        synth = ["x y z repeated", "x y z again", "unique tail words here"]
        ref = ["x y z somewhere", "tail words here too"]
        report = ngram_overlap(synth, ref, ns=[3], top_k=2)
        assert report.top_overlapping[0] == ("x y z", 2)

    def test_order_permutation_invariant(self):
        rng = random.Random(5)
        synth = [f"w{rng.randint(0,5)} w{rng.randint(0,5)} w{rng.randint(0,5)} end{i%3}"
                 for i in range(12)]
        ref = [f"w{rng.randint(0,5)} w{rng.randint(0,5)} end{i%2}" for i in range(8)]
        base = ngram_overlap(synth, ref, ns=[2, 3]).per_n
        shuffled_synth, shuffled_ref = synth[:], ref[:]
        rng.shuffle(shuffled_synth)
        rng.shuffle(shuffled_ref)
        assert ngram_overlap(shuffled_synth, shuffled_ref, ns=[2, 3]).per_n == base

    def test_matches_exhaustive_oracle_on_random_corpora(self):
        rng = random.Random(11)
        vocab = list(string.ascii_lowercase[:8])
        for _ in range(40):
            synth = [" ".join(rng.choices(vocab, k=rng.randint(0, 10)))
                     for _ in range(rng.randint(1, 8))]
            ref = [" ".join(rng.choices(vocab, k=rng.randint(0, 10)))
                   for _ in range(rng.randint(1, 8))]
            for n in (1, 2, 3):
                report = ngram_overlap(synth, ref, ns=[n])
                synth_sets = oracles.ngram_set([t.split() for t in synth], n)
                ref_sets = oracles.ngram_set([t.split() for t in ref], n)
                if not synth_sets:
                    assert report.per_n[n] is None
                else:
                    expected = len(synth_sets & ref_sets) / len(synth_sets)
                    assert report.per_n[n] == pytest.approx(expected)

    def test_record_matches_reference_on_random_corpora(self):
        rng = random.Random(29)
        vocab = ["a", "b", "C", "d.", "E!", "f-g", "ß", "½"]
        for _ in range(60):
            synth = [" ".join(rng.choices(vocab, k=rng.randint(0, 12)))
                     for _ in range(rng.randint(1, 10))]
            ref = [" ".join(rng.choices(vocab, k=rng.randint(0, 12)))
                   for _ in range(rng.randint(1, 10))]
            ns = rng.sample([1, 2, 3, 4], rng.randint(1, 3))
            top_k = rng.randint(1, 6)
            report = ngram_overlap(synth, ref, ns=ns, top_k=top_k)
            assert report.to_record() == oracles.ngram_overlap_record(synth, ref, ns, top_k)

    def test_empty_ns_rejected(self):
        with pytest.raises(ValidationError):
            ngram_overlap(["a"], ["a"], ns=[])


def bracketed(phrases):
    """A question from which the mock extractor re-extracts ``phrases``
    (each 2 to 80 characters); with none, it invents unrelated notions."""
    return "Use " + " ".join(f"[{p}]" for p in phrases) + "."


class TestAdherence:
    def probe(self, concepts, extracted, behaviors=None, **kwargs):
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        return adherence_probe(concepts, bracketed(extracted), make_descriptor("extractor"),
                               client, **kwargs)

    def test_full_and_partial(self):
        report = adherence_report([self.probe(["Alpha", "Beta"], ["Alpha", "Beta", "Xi"])])
        assert report.full_match_ratio == 1.0
        assert report.partial_match_ratio == 1.0

    def test_partial_only(self):
        report = adherence_report([self.probe(["Alpha", "Beta"], ["Alpha"])])
        assert report.full_match_ratio == 0.0
        assert report.partial_match_ratio == 1.0

    def test_neither(self):
        report = adherence_report([self.probe(["Alpha", "Beta"], ["Xi", "Upsilon"])])
        assert report.full_match_ratio == 0.0
        assert report.partial_match_ratio == 0.0

    def test_failures_excluded_and_counted(self):
        garbled = MockBehaviors(garbage_prompt_substrings=["[Broken]"])
        with pytest.raises(ExtractionError):
            self.probe(["Alpha"], ["Broken"], behaviors=garbled)
        # The runner records that exception as a failed outcome.
        outcomes = [self.probe(["Alpha"], ["Alpha"]), {"failed": "ExtractionError: ..."}]
        report = adherence_report(outcomes)
        assert report.item_count == 1
        assert report.excluded_count == 1
        assert report.full_match_ratio == 1.0

    def test_full_never_exceeds_partial_randomized(self):
        rng = random.Random(3)
        for _ in range(30):
            outcomes = []
            for i in range(rng.randint(1, 6)):
                inputs = [f"c{j}" for j in range(rng.randint(1, 4))]
                extracted = [c for c in inputs if rng.random() < 0.5]
                extracted += [f"noise{j}" for j in range(rng.randint(0, 2))]
                outcome = self.probe(inputs, extracted)
                assert outcome == {"full": extracted[:len(inputs)] == inputs,
                                   "partial": any(c in extracted for c in inputs)}
                outcomes.append(outcome)
            report = adherence_report(outcomes)
            assert report.full_match_ratio <= report.partial_match_ratio + 1e-12

    def test_embedding_assisted_match(self):
        # "Alpha" and "Alpha prime" point the same way.
        behaviors = MockBehaviors(embedding_overrides={"Alpha": [1.0, 0.0],
                                                       "Alpha prime": [1.0, 0.0]})
        strict = self.probe(["Alpha"], ["Alpha prime"], behaviors=behaviors)
        assert strict == {"full": False, "partial": False}
        fuzzy = self.probe(["Alpha"], ["Alpha prime"], behaviors=behaviors,
                           embedder=make_descriptor("embedder"), tolerance=0.9)
        assert fuzzy == {"full": True, "partial": True}


class TestRunReport:
    def test_all_sections_present(self):
        report = run_report({"seed_count": 3, "expansion": {"ratio": 1.0}})
        assert report["seed_count"] == 3
        assert report["novelty"] == "not computed"
        assert report["cost"] == "not computed"

    def test_unknown_sections_pass_through(self):
        report = run_report({"custom_metric": 42})
        assert report["custom_metric"] == 42


class TestCostAccountingLinkage:
    def test_exchange_sums_drive_token_costs(self):
        # The client's usage totals are exactly the sum of the token counts
        # the mock put on the wire, and cost_report priced from either side
        # agrees.
        client = BackendClient(mock=MockServer(seed=5))
        generator = make_descriptor("generator")
        prompts = [f"prompt number {i} with several words" for i in range(12)]
        for prompt in prompts:
            client.complete(generator, prompt)
        wire = [wire_usage(MockServer(seed=5), generator, prompt) for prompt in prompts]
        sum_in = sum(u["prompt_tokens"] for u in wire)
        sum_out = sum(u["completion_tokens"] for u in wire)
        totals = client.usage.totals()["generator"]
        assert (totals["input_tokens"], totals["output_tokens"]) == (sum_in, sum_out)

        model = CostModel(mode="token_priced", input_price=10.0, output_price=30.0)
        per_sample_from_exchanges = cost_report(
            model, sum_in / len(prompts), sum_out / len(prompts))
        per_sample_from_totals = cost_report(
            model, totals["input_tokens"] / totals["calls"],
            totals["output_tokens"] / totals["calls"])
        assert per_sample_from_exchanges == per_sample_from_totals


class EmbedRecordingMock(MockServer):
    """Records the texts of every embeddings request it serves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.embed_requests: list[tuple[str, ...]] = []

    def embeddings(self, request):
        self.embed_requests.append(tuple(request["input"]))
        return super().embeddings(request)


class TestSimilarityFold:
    """The streamed fold embeds in ``backends.EMBED_BATCH_SIZE`` chunks and folds
    each chunk's row maxima; it must give what one stacked product gives."""

    @pytest.mark.parametrize("n_synth", [127, 128, 129])
    def test_fold_equals_one_stacked_block(self, n_synth):
        embedder = make_descriptor("embedder")
        synth = [f"synth text {i}" for i in range(n_synth)]
        seeds = [f"seed text {i}" for i in range(11)]
        folded_mock = EmbedRecordingMock(seed=9)
        report = similarity_distribution(synth, seeds, embedder,
                                         BackendClient(mock=folded_mock))

        # The computation as one block: every chunk embedded as before,
        # then stacked, multiplied once and reduced.
        stacked_mock = EmbedRecordingMock(seed=9)
        client = BackendClient(mock=stacked_mock)
        size = backends.EMBED_BATCH_SIZE
        synth_vecs = np.vstack([client.embed(embedder, synth[i:i + size])
                                for i in range(0, n_synth, size)])
        seed_vecs = client.embed(embedder, seeds)
        per_item = np.clip((synth_vecs @ seed_vecs.T).max(axis=1), -1.0, 1.0)
        edges = np.asarray(report.bin_edges)
        counts, _ = np.histogram(np.clip(per_item, 0.0, 1.0), bins=edges)

        assert report.histogram == counts.tolist()
        assert report.cdf == (np.cumsum(counts) / n_synth).tolist()
        assert report.mean_max_cosine == sum(per_item.tolist()) / n_synth
        assert sorted(folded_mock.embed_requests) == sorted(stacked_mock.embed_requests)

    def test_a_stream_without_text_makes_no_request(self):
        with pytest.raises(ValidationError):
            analytics.SeedSimilarity().report()
        mock = EmbedRecordingMock(seed=9)
        with pytest.raises(ValidationError):
            similarity_distribution([], ["seed"], make_descriptor("embedder"),
                                    BackendClient(mock=mock))
        assert mock.embed_requests == []

    def test_fold_of_cached_maxima_equals_one_pass(self):
        # Maxima that went through JSON, in chunks of any size, fold to the
        # report one pass over the embedded items gives.
        embedder = make_descriptor("embedder")
        synth = [f"synth text {i}" for i in range(45)]
        seeds = [f"seed text {i}" for i in range(11)]
        client = BackendClient(mock=MockServer(seed=9))
        whole = similarity_distribution(synth, seeds, embedder, client)
        maxima = analytics.max_cosines(client.embed(embedder, synth),
                                       client.embed(embedder, seeds))
        folded = analytics.SeedSimilarity()
        for start in range(0, len(maxima), 7):
            folded.add(json.loads(json.dumps(maxima[start:start + 7])))
        assert folded.report() == whole


class TestNgramNames:
    def test_long_and_odd_ns_match_the_oracle(self):
        # Windows longer than 8 are named from two shorter names (n = 9 from
        # two 8s, n = 17 from two 16s); a window that runs into the next
        # text must never count. Few words make many shared n-grams.
        rng = random.Random(41)
        for _ in range(40):
            synth = [" ".join(rng.choices("ab", k=rng.randint(0, 24)))
                     for _ in range(rng.randint(1, 8))]
            ref = [" ".join(rng.choices("abc", k=rng.randint(0, 24)))
                   for _ in range(rng.randint(0, 6))]
            ns = rng.sample([1, 2, 3, 5, 8, 9, 13, 16, 17], rng.randint(1, 4))
            report = ngram_overlap(synth, ref, ns=ns, top_k=4)
            assert report.to_record() == oracles.ngram_overlap_record(synth, ref, ns, 4)
