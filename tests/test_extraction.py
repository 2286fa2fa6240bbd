from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphsynth import backends, extraction
from graphsynth.backends import BackendClient, MockBehaviors, MockServer
from graphsynth.errors import ExtractionError, ValidationError
from graphsynth.extraction import (
    SimilarityVerdict,
    band_for_cosine,
    build_clusters,
    confirm_synonyms,
    extract_concepts,
    filter_low_quality,
    pairwise_similarity,
    parse_concept_list,
    pick_representative,
    select_representatives,
)
from graphsynth.store import KeyConcept, SeedExample, concept_id_for


def kc(text, status="raw", **kwargs):
    return KeyConcept(id=concept_id_for(text), text=text, status=status, **kwargs)


def client_with(behaviors=None, seed=7):
    return BackendClient(mock=MockServer(seed=seed, behaviors=behaviors or MockBehaviors()))


class TestParseConceptList:
    def test_numbered_list(self):
        raw = "1. Pythagorean theorem\n2. Perimeter of a triangle"
        assert parse_concept_list(raw) == ["Pythagorean theorem", "Perimeter of a triangle"]

    def test_bulleted_fallback(self):
        raw = "- Law of sines\n* Law of cosines"
        assert parse_concept_list(raw) == ["Law of sines", "Law of cosines"]

    def test_parenthesis_numbering_and_dedup(self):
        raw = "1) Modular arithmetic\n2) modular  arithmetic\n3) Modular arithmetic"
        # Whitespace collapses; case is preserved, so the two casings differ.
        assert parse_concept_list(raw) == ["Modular arithmetic", "modular arithmetic"]

    def test_prose_yields_nothing(self):
        assert parse_concept_list("no list here, just prose") == []


class TestExtractConcepts:
    def seed(self, question="Use [Pythagorean theorem] and [Perimeter of a triangle].",
             solution="apply"):
        return SeedExample(id="s1", question=question, solution=solution)

    def test_two_concepts_parsed(self, mock_client, descriptors):
        phrases = extract_concepts(self.seed(), descriptors["extractor"], mock_client)
        assert phrases == ["Pythagorean theorem", "Perimeter of a triangle"]

    def test_seven_items_truncated_to_five_with_warning(self, descriptors, caplog):
        marks = " ".join(f"[Concept {i}]" for i in range(7))
        client = client_with()
        with caplog.at_level("WARNING"):
            phrases = extract_concepts(self.seed(question=marks),
                                       descriptors["extractor"], client)
        assert len(phrases) == 5
        assert phrases == [f"Concept {i}" for i in range(5)]
        assert any("keeping the first 5" in r.message for r in caplog.records)

    def test_unparseable_output_raises_with_raw(self, descriptors):
        behaviors = MockBehaviors(garbage_prompt_substrings=["GARBLE-ME"])
        client = client_with(behaviors)
        with pytest.raises(ExtractionError) as excinfo:
            extract_concepts(self.seed(question="GARBLE-ME now"),
                             descriptors["extractor"], client)
        assert excinfo.value.raw_output


class TestFilterLowQuality:
    def test_flagged_vague(self, descriptors):
        behaviors = MockBehaviors(quality_flags={"Problem-solving strategies": "vague"})
        client = client_with(behaviors)
        concept = kc("Problem-solving strategies")
        verdict = filter_low_quality(concept, descriptors["kb_judge"], client)
        assert verdict.kept is False
        assert verdict.category == "vague"

    def test_canonical_positive_case_kept(self, descriptors):
        verdict = filter_low_quality(kc("Pythagorean theorem"),
                                     descriptors["kb_judge"], client_with())
        assert verdict.kept is True
        assert verdict.category == "ok"

    def test_flagged_overly_detailed(self, descriptors):
        text = "Solving the quadratic equation x^2+5x+6=0 by factoring"
        behaviors = MockBehaviors(quality_flags={text: "overly_detailed"})
        verdict = filter_low_quality(kc(text), descriptors["kb_judge"], client_with(behaviors))
        assert verdict.kept is False
        assert verdict.category == "overly_detailed"

    def test_flagged_incorrect(self, descriptors):
        text = "A series converges if its terms approach zero"
        behaviors = MockBehaviors(quality_flags={text: "incorrect"})
        verdict = filter_low_quality(kc(text), descriptors["kb_judge"], client_with(behaviors))
        assert verdict.kept is False
        assert verdict.category == "incorrect"

    def test_unparseable_judge_keeps_with_review_flag(self, descriptors):
        behaviors = MockBehaviors(garbage_prompt_substrings=["Weird concept"])
        verdict = filter_low_quality(kc("Weird concept"), descriptors["kb_judge"],
                                     client_with(behaviors))
        assert verdict.kept is True
        assert verdict.review is True


class TestBandThresholds:
    @pytest.mark.parametrize("cosine,band", [
        (0.6999, "distinct"),
        (0.70, "judge_checked"),
        (0.8999, "judge_checked"),
        (0.90, "same"),
        (1.0, "same"),
        (-0.4, "distinct"),
    ])
    def test_boundaries(self, cosine, band):
        assert band_for_cosine(cosine) == band

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=-1, max_value=1, allow_nan=False))
    def test_threshold_function_everywhere(self, c):
        band = band_for_cosine(c)
        assert (band == "same") == (c >= 0.90)
        assert (band == "judge_checked") == (0.70 <= c < 0.90)
        assert (band == "distinct") == (c < 0.70)


def exact_unit(lead, axis_a, axis_b, dim):
    """A unit vector with ``lead`` on one axis and the rest on another,
    nudged until its norm is exactly 1.0, so both normalisations on the
    embed path return it unchanged."""
    tail = math.sqrt(1.0 - lead * lead)
    for _ in range(16):
        vec = [0.0] * dim
        vec[axis_a], vec[axis_b] = lead, tail
        arr = np.asarray(vec)
        norms = (np.linalg.norm(arr), np.linalg.norm(arr[None, :], axis=1)[0])
        if norms == (1.0, 1.0):
            return vec
        tail = math.nextafter(tail, 0.0 if norms[0] > 1.0 else 1.0)
    raise AssertionError(f"no exact unit vector with lead {lead}")


def exact_embedding_corpus(rng, trial, dim=8):
    """Concepts whose embeddings share at most one nonzero axis per pair.

    Every cosine is then a single rounded product, identical under any
    summation order, so a brute-force loop must agree bit for bit. Axis 0
    carries a unit vector and two partners at exactly 0.70 and 0.90.
    """
    free_axes = [p for p in itertools.combinations(range(dim), 2) if 0 not in p]
    rng.shuffle(free_axes)
    vectors = [[1.0] + [0.0] * (dim - 1), exact_unit(0.70, 0, 1, dim),
               exact_unit(0.90, 0, 2, dim)]
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.25:
            vec = [0.0] * dim
            vec[rng.randrange(dim)] = rng.choice([1.0, -1.0])
        else:
            a, b = free_axes.pop()
            if rng.random() < 0.5:
                a, b = b, a
            lead = rng.choice([0.70, 0.90, round(rng.uniform(0.5, 1.0), 3)])
            vec = exact_unit(rng.choice([lead, -lead]), a, b, dim)
        vectors.append(vec)
    rng.shuffle(vectors)
    overrides = {f"exact {trial}-{n}": vec for n, vec in enumerate(vectors)}
    return [kc(text) for text in overrides], overrides


def brute_force_non_distinct(concepts, overrides):
    """Naive all-pairs loop over ids in sorted order, distinct pairs dropped."""
    by_id = sorted((c.id, overrides[c.text]) for c in concepts)
    out = []
    for (a, va), (b, vb) in itertools.combinations(by_id, 2):
        cosine = max(-1.0, min(1.0, sum(x * y for x, y in zip(va, vb))))
        if cosine >= 0.90:
            out.append(((a, b), cosine, "same"))
        elif cosine >= 0.70:
            out.append(((a, b), cosine, "judge_checked"))
    return out


class TestPairwiseSimilarity:
    def test_identical_texts_same_band(self, descriptors):
        client = client_with()
        concepts = [kc("Euler's formula"), kc("euler's  formula".replace("  ", " "))]
        # Distinct casing gives distinct ids but we want identical text here:
        concepts = [
            KeyConcept(id="kc-1", text="Euler's formula"),
            KeyConcept(id="kc-2", text="Euler's formula"),
        ]
        verdicts = pairwise_similarity(concepts, descriptors["embedder"], client)
        assert verdicts[0].cosine == pytest.approx(1.0, abs=1e-9)
        assert verdicts[0].band == "same"

    def test_cosine_rounding_above_one_clipped(self, descriptors):
        # [1, 1, 1] normalised has a dot product with itself of
        # 1.0000000000000002; the kept verdict reads exactly 1.0.
        behaviors = MockBehaviors(embedding_overrides={"alpha": [1.0, 1.0, 1.0],
                                                       "beta": [1.0, 1.0, 1.0]})
        client = client_with(behaviors)
        vectors = client.embed(descriptors["embedder"], ["alpha", "beta"])
        assert vectors[0] @ vectors[1] > 1.0
        verdicts = pairwise_similarity([kc("alpha"), kc("beta")], descriptors["embedder"],
                                       client)
        assert [(v.cosine, v.band) for v in verdicts] == [(1.0, "same")]

    @pytest.mark.parametrize("thresholds", [(1.01, 0.7), (0.9, -0.1), (-0.5, -0.5)])
    def test_thresholds_outside_unit_interval_rejected(self, descriptors, mock_client,
                                                        thresholds):
        with pytest.raises(ValidationError, match="thresholds"):
            pairwise_similarity([kc("alpha"), kc("beta")], descriptors["embedder"],
                                mock_client, *thresholds)

    def test_engineered_borderline_cosine(self, descriptors):
        v = math.sqrt(1 - 0.805 ** 2)
        behaviors = MockBehaviors(embedding_overrides={
            "Geometric sequence": [1.0, 0.0],
            "Arithmetic sequence": [0.805, v],
        })
        concepts = [kc("Geometric sequence"), kc("Arithmetic sequence")]
        verdicts = pairwise_similarity(concepts, descriptors["embedder"],
                                       client_with(behaviors))
        assert verdicts[0].cosine == pytest.approx(0.805, abs=1e-9)
        assert verdicts[0].band == "judge_checked"

    def test_orthogonal_vectors_distinct(self, descriptors):
        # Orthogonal, opposite and just-below-0.70 pairs are all distinct,
        # so none of them is materialised.
        below = math.sqrt(1 - 0.6999 ** 2)
        behaviors = MockBehaviors(embedding_overrides={
            "alpha": [1.0, 0.0, 0.0], "beta": [0.0, 1.0, 0.0],
            "gamma": [-1.0, 0.0, 0.0], "delta": [0.6999, 0.0, below],
        })
        concepts = [kc(t) for t in ("alpha", "beta", "gamma", "delta")]
        verdicts = pairwise_similarity(concepts, descriptors["embedder"],
                                       client_with(behaviors))
        assert verdicts == []

    def test_one_verdict_per_unordered_pair(self, descriptors):
        # Identical vectors put every pair in the same band: exactly one
        # verdict per unordered pair, each ordered by id, sorted by pair.
        texts = [f"concept {i}" for i in range(5)]
        behaviors = MockBehaviors(embedding_overrides={t: [0.0, 1.0] for t in texts})
        concepts = [kc(t) for t in reversed(texts)]
        verdicts = pairwise_similarity(concepts, descriptors["embedder"],
                                       client_with(behaviors))
        ids = sorted(c.id for c in concepts)
        assert [v.pair for v in verdicts] == list(itertools.combinations(ids, 2))
        assert all(v.band == "same" and v.cosine == 1.0 for v in verdicts)

    @pytest.mark.parametrize("batch", [2, 128], ids=["batch2", "batch128"])
    @pytest.mark.parametrize("tile", [(1, 1), (3, 5), (64, 7), (256, 1024)],
                             ids=["1x1", "3x5", "64x7", "256x1024"])
    def test_matches_brute_force_all_pairs(self, descriptors, monkeypatch, tile, batch):
        # Tiles narrower than the 3-15 concepts in one direction or both,
        # and embed batches of fewer texts than concepts.
        monkeypatch.setattr(extraction, "SIMILARITY_TILE", tile)
        monkeypatch.setattr(backends, "EMBED_BATCH_SIZE", batch)
        rng = random.Random(23)
        for trial in range(25):
            concepts, overrides = exact_embedding_corpus(rng, trial)
            client = client_with(MockBehaviors(embedding_overrides=overrides))
            verdicts = pairwise_similarity(concepts, descriptors["embedder"], client)
            got = [(v.pair, v.cosine, v.band) for v in verdicts]
            assert got == brute_force_non_distinct(concepts, overrides)
            assert all(v.judge_confirmed is None for v in verdicts)
            # The engineered pairs sit exactly on both thresholds.
            assert {0.70, 0.90} <= {cosine for _, cosine, _ in got}

    def test_single_concept_rejected(self, descriptors, mock_client):
        with pytest.raises(ValidationError):
            pairwise_similarity([kc("solo")], descriptors["embedder"], mock_client)


class TestConfirmSynonyms:
    def borderline(self, a, b, cosine=0.865):
        return SimilarityVerdict(pair=(a.id, b.id), cosine=cosine, band="judge_checked")

    def test_judge_says_different(self, descriptors):
        a = kc("Sine function in trigonometry")
        b = kc("Cosine function in trigonometry")
        assert confirm_synonyms(self.borderline(a, b), {a.id: a, b.id: b},
                                descriptors["kb_judge"], client_with()) is False

    def test_judge_confirms_configured_paraphrase(self, descriptors):
        a = kc("Triangle inequality")
        b = kc("Triangle inequality theorem")
        behaviors = MockBehaviors(synonym_yes={frozenset((a.text, b.text))})
        assert confirm_synonyms(self.borderline(a, b), {a.id: a, b.id: b},
                                descriptors["kb_judge"], client_with(behaviors)) is True

    def test_malformed_reply_is_no(self, descriptors):
        a = kc("Mystery A")
        b = kc("Mystery B")
        behaviors = MockBehaviors(garbage_prompt_substrings=["Mystery A"])
        assert confirm_synonyms(self.borderline(a, b), {a.id: a, b.id: b},
                                descriptors["kb_judge"], client_with(behaviors)) is False

    def test_same_band_pairs_refused(self, descriptors, mock_client):
        a, b = kc("x"), kc("y")
        same = SimilarityVerdict(pair=(a.id, b.id), cosine=0.95, band="same")
        with pytest.raises(ValidationError):
            confirm_synonyms(same, {a.id: a, b.id: b}, descriptors["kb_judge"], mock_client)


def verdicts_for(concepts, merge_pairs):
    """All-pairs verdicts: merge_pairs get band=same, everything else distinct."""
    merge = {frozenset(p) for p in merge_pairs}
    out = []
    for a, b in itertools.combinations(sorted(c.id for c in concepts), 2):
        if frozenset((a, b)) in merge:
            out.append(SimilarityVerdict(pair=(a, b), cosine=0.95, band="same"))
        else:
            out.append(SimilarityVerdict(pair=(a, b), cosine=0.1, band="distinct"))
    return out


class TestBuildClusters:
    def test_chain_merges_into_one_cluster(self):
        a, b, c = kc("aa"), kc("bb"), kc("cc")
        verdicts = verdicts_for([a, b, c], [(a.id, b.id), (b.id, c.id)])
        clusters = build_clusters([a, b, c], verdicts)
        assert len(clusters) == 1
        assert clusters[0].member_ids == {a.id, b.id, c.id}

    def test_no_merges_gives_singletons(self):
        concepts = [kc(t) for t in ("p", "q", "r", "s")]
        clusters = build_clusters(concepts, verdicts_for(concepts, []))
        assert len(clusters) == 4
        assert all(len(c.member_ids) == 1 for c in clusters)

    def test_two_disjoint_merges(self):
        a, b, c, d = (kc(t) for t in ("aa", "bb", "cc", "dd"))
        verdicts = verdicts_for([a, b, c, d], [(a.id, b.id), (c.id, d.id)])
        clusters = build_clusters([a, b, c, d], verdicts)
        assert {frozenset(cl.member_ids) for cl in clusters} == {
            frozenset({a.id, b.id}), frozenset({c.id, d.id}),
        }

    def test_judge_confirmed_borderline_merges(self):
        a, b = kc("aa"), kc("bb")
        verdict = SimilarityVerdict(pair=tuple(sorted((a.id, b.id))), cosine=0.8,
                                    band="judge_checked", judge_confirmed=True)
        clusters = build_clusters([a, b], [verdict])
        assert len(clusters) == 1

    def test_unconfirmed_borderline_does_not_merge(self):
        a, b = kc("aa"), kc("bb")
        verdict = SimilarityVerdict(pair=tuple(sorted((a.id, b.id))), cosine=0.8,
                                    band="judge_checked", judge_confirmed=False)
        assert len(build_clusters([a, b], [verdict])) == 2

    def test_absent_pair_is_distinct(self):
        a, b, c = kc("aa"), kc("bb"), kc("cc")
        assert len(build_clusters([a, b, c], [])) == 3
        # Only a-b has a verdict; a-c and b-c are absent, so c stays alone.
        verdict = SimilarityVerdict(pair=tuple(sorted((a.id, b.id))), cosine=0.95,
                                    band="same")
        got = {frozenset(cl.member_ids) for cl in build_clusters([a, b, c], [verdict])}
        assert got == {frozenset({a.id, b.id}), frozenset({c.id})}

    def test_unknown_concept_rejected(self):
        a, b = kc("aa"), kc("bb")
        verdict = SimilarityVerdict(pair=(a.id, "kc-unknown"), cosine=0.95, band="same")
        with pytest.raises(ValidationError):
            build_clusters([a, b], [verdict])

    def test_order_independent_partitions(self):
        rng = random.Random(13)
        concepts = [kc(f"t{i}") for i in range(8)]
        ids = [c.id for c in concepts]
        pairs = [(ids[i], ids[j]) for i in range(8) for j in range(i + 1, 8)
                 if rng.random() < 0.25]
        verdicts = verdicts_for(concepts, pairs)
        baseline = {frozenset(c.member_ids)
                    for c in build_clusters(concepts, verdicts)}
        for _ in range(10):
            shuffled_concepts = concepts[:]
            shuffled_verdicts = verdicts[:]
            rng.shuffle(shuffled_concepts)
            rng.shuffle(shuffled_verdicts)
            got = {frozenset(c.member_ids)
                   for c in build_clusters(shuffled_concepts, shuffled_verdicts)}
            assert got == baseline

    def test_matches_connected_components_oracle(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(2, 10)
            concepts = [kc(f"c{i}-{rng.random():.4f}") for i in range(n)]
            ids = [c.id for c in concepts]
            merge_pairs = {tuple(sorted((a, b)))
                           for a, b in itertools.combinations(ids, 2)
                           if rng.random() < 0.3}
            verdicts = verdicts_for(concepts, merge_pairs)
            clusters = build_clusters(concepts, verdicts)
            got = {frozenset(c.member_ids) for c in clusters}
            expected = oracles.connected_components(ids, merge_pairs)
            assert got == expected
            # Partition validity: disjoint and covering.
            union = set().union(*got) if got else set()
            assert union == set(ids)
            assert sum(len(m) for m in got) == len(ids)

    def test_merge_pairs_alone_match_all_pairs(self):
        rng = random.Random(29)
        for _ in range(20):
            n = rng.randint(2, 12)
            concepts = [kc(f"m{i}-{rng.random():.4f}") for i in range(n)]
            ids = [c.id for c in concepts]
            merge_pairs = {tuple(sorted((a, b)))
                           for a, b in itertools.combinations(ids, 2)
                           if rng.random() < 0.2}
            all_pairs = verdicts_for(concepts, merge_pairs)
            merge_only = [v for v in all_pairs if v.band != "distinct"]
            expected = oracles.connected_components(ids, merge_pairs)
            for verdicts in (all_pairs, merge_only):
                clusters = build_clusters(concepts, verdicts)
                assert {frozenset(c.member_ids) for c in clusters} == expected
                assert [c.cluster_id for c in clusters] == sorted(
                    f"cluster-{min(c.member_ids)}" for c in clusters)


class TestSelectRepresentatives:
    def pair_cluster(self, x, y):
        verdict = SimilarityVerdict(pair=tuple(sorted((x.id, y.id))), cosine=0.95,
                                    band="same")
        return build_clusters([x, y], [verdict])

    def judge_pick(self, cluster, by_id, behaviors, descriptors):
        members = [by_id[m] for m in sorted(cluster.member_ids)]
        return {cluster.cluster_id: pick_representative(members, descriptors["kb_judge"],
                                                        client_with(behaviors))}

    def test_singleton_keeps_member(self):
        a = kc("Lone concept")
        clusters = build_clusters([a], [])
        filled, final = select_representatives(clusters, {a.id: a}, {})
        assert filled[0].representative_id == a.id
        rep = next(c for c in final if c.id == a.id)
        assert rep.status == "representative"
        assert rep.cluster_id == filled[0].cluster_id

    def test_judge_picks_member(self, descriptors):
        x = kc("Short name")
        y = kc("A much longer alternative phrasing")
        behaviors = MockBehaviors()
        behaviors.representative_picks = {frozenset((x.text, y.text)): y.text}
        clusters = self.pair_cluster(x, y)
        by_id = {x.id: x, y.id: y}
        picks = self.judge_pick(clusters[0], by_id, behaviors, descriptors)
        filled, final = select_representatives(clusters, by_id, picks)
        assert filled[0].representative_id == y.id
        statuses = {c.id: c.status for c in final}
        assert statuses[y.id] == "representative"
        assert statuses[x.id] == "clustered"

    def test_new_phrase_becomes_synthetic_representative(self, descriptors):
        x = kc("sum of interior angles equals 180")
        y = kc("angle sum property for 3-gons")
        behaviors = MockBehaviors()
        behaviors.representative_picks = {
            frozenset((x.text, y.text)): "Triangle angle sum theorem"
        }
        clusters = self.pair_cluster(x, y)
        by_id = {x.id: x, y.id: y}
        picks = self.judge_pick(clusters[0], by_id, behaviors, descriptors)
        filled, final = select_representatives(clusters, by_id, picks)
        rep_id = filled[0].representative_id
        assert rep_id not in {x.id, y.id}
        rep = next(c for c in final if c.id == rep_id)
        assert rep.text == "Triangle angle sum theorem"
        assert rep.provenance == ["synthetic-summary"]
        assert rep.status == "representative"
        # Synthetic representative stays outside the member set.
        assert rep_id not in filled[0].member_ids

    def test_judge_failure_falls_back_to_shortest(self, descriptors):
        x = kc("tiny")
        y = kc("a far longer concept phrase")
        clusters = self.pair_cluster(x, y)
        by_id = {x.id: x, y.id: y}
        behaviors = MockBehaviors()
        behaviors.representative_picks = {frozenset((x.text, y.text)): "   "}
        empty_reply = self.judge_pick(clusters[0], by_id, behaviors, descriptors)
        assert empty_reply == {clusters[0].cluster_id: None}
        # A failed pick leaves its cluster out of the picks.
        for picks in (empty_reply, {}):
            filled, _ = select_representatives(clusters, by_id, picks)
            assert filled[0].representative_id == x.id


class TestRecordRoundTrips:
    def test_band_consistency_enforced(self):
        with pytest.raises(ValidationError):
            SimilarityVerdict(pair=("a", "b"), cosine=0.95, band="same",
                              judge_confirmed=True)
