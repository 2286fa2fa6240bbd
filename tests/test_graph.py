from __future__ import annotations

import itertools
import random

import graphsynth.graph as graph_module

import pytest

import oracles
from graphsynth.errors import ValidationError
from graphsynth.graph import (
    ConceptCombination,
    build_graph,
    bottleneck_weight,
    enumerate_communities,
    enumerate_one_hop,
    enumerate_three_hop,
    enumerate_two_hop,
    hop_distance,
    identify_hubs,
    is_novel,
    pairs_at_distance,
    sample_combinations,
    select_combinations,
)

G0_SEEDS = [("P1", {"A", "B", "C"}), ("P2", {"B", "C", "D"}), ("P3", {"D", "E"})]


@pytest.fixture
def g0():
    return build_graph(G0_SEEDS)


def random_graph(rng, max_nodes=12, max_weight=4, density=0.3, label="n{:02d}".format):
    n = rng.randint(2, max_nodes)
    nodes = sorted(label(i) for i in range(n))
    adj = {v: set() for v in nodes}
    weights = {}
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < density:
            adj[a].add(b)
            adj[b].add(a)
            weights[(a, b)] = rng.randint(1, max_weight)
    seeds = [(f"{a}-{b}-{k}", {a, b}) for (a, b), w in weights.items() for k in range(w)]
    return build_graph(seeds, all_concept_ids=nodes), adj, weights


class TestBuildGraph:
    def test_toy_corpus_edge_weights(self, g0):
        # Frozen from the brute-force pair-counting oracle over P1..P3.
        expected = {("A", "B"): 1, ("A", "C"): 1, ("B", "C"): 2,
                    ("B", "D"): 1, ("C", "D"): 1, ("D", "E"): 1}
        assert {(a, b): w for a, b, w in g0.edges()} == expected
        assert expected == oracles.cooccurrence_counts([s for _, s in G0_SEEDS])

    def test_empty_corpus(self):
        g = build_graph([])
        assert g.node_count() == 0
        assert g.edges() == []

    def test_single_concept_seed_is_isolated_node(self):
        g = build_graph([("P1", {"X"})])
        assert g.nodes == {"X"}
        assert g.edges() == []

    def test_unknown_concept_names_seed(self):
        with pytest.raises(ValidationError, match="P9"):
            build_graph([("P9", {"A", "Z"})], all_concept_ids={"A"})

    def test_isolated_known_ids_become_nodes(self):
        g = build_graph([("P1", {"A", "B"})], all_concept_ids={"A", "B", "LONER"})
        assert "LONER" in g.nodes
        assert g.degree("LONER") == 0

    def test_weights_match_oracle_on_random_corpora(self):
        rng = random.Random(5)
        for _ in range(30):
            concepts = [f"c{i}" for i in range(rng.randint(2, 20))]
            seeds = []
            for s in range(rng.randint(1, 100)):
                size = rng.randint(1, min(5, len(concepts)))
                seeds.append((f"s{s}", set(rng.sample(concepts, size))))
            g = build_graph(seeds)
            expected = oracles.cooccurrence_counts([cs for _, cs in seeds])
            assert {(a, b): w for a, b, w in g.edges()} == expected


class TestHopDistance:
    @pytest.mark.parametrize("a,b,d", [("A", "B", 1), ("A", "D", 2), ("A", "E", 3)])
    def test_toy_distances(self, g0, a, b, d):
        assert hop_distance(g0, a, b) == d

    def test_self_distance_zero(self, g0):
        assert hop_distance(g0, "A", "A") == 0

    def test_unreachable_is_none(self):
        g = build_graph([("P1", {"A", "B"})], all_concept_ids={"A", "B", "Z"})
        assert hop_distance(g, "A", "Z") is None

    def test_unknown_node_rejected(self, g0):
        with pytest.raises(ValidationError):
            hop_distance(g0, "A", "nope")

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            g, adj, _ = random_graph(rng)
            nodes = sorted(adj)
            for a, b in itertools.combinations(nodes, 2):
                assert hop_distance(g, a, b) == oracles.bfs_distance(adj, a, b)


class TestOneHop:
    def test_toy_enumeration(self, g0):
        combos = enumerate_one_hop(g0)
        assert [tuple(c.concept_ids) for c in combos] == [
            ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"), ("C", "D"), ("D", "E")
        ]
        weights = {tuple(c.concept_ids): c.weight for c in combos}
        assert weights[("B", "C")] == 2

    def test_empty_graph(self):
        assert enumerate_one_hop(build_graph([])) == []


class TestTwoHop:
    def test_toy_pairs(self, g0):
        combos = enumerate_two_hop(g0)
        assert {tuple(c.concept_ids) for c in combos} == {("A", "D"), ("B", "E"), ("C", "E")}

    def test_toy_witness_and_bottleneck(self, g0):
        ad = next(c for c in enumerate_two_hop(g0) if c.concept_ids == ["A", "D"])
        assert ad.witness in (["A", "B", "D"], ["A", "C", "D"])
        assert ad.weight == 1

    def test_triangle_has_no_two_hop(self):
        g = build_graph([("P", {"x", "y", "z"})])
        assert enumerate_two_hop(g) == []

    def test_matches_breadth_first_reference(self):
        # Weights 1-2 make equal-width paths common, so the smallest-middle
        # tie rule is exercised; ids like n5 and n123 sort unlike numbers.
        rng = random.Random(47)
        for _ in range(200):
            g, _, _ = random_graph(rng, max_nodes=14, max_weight=2, density=0.35,
                                   label=lambda i: f"n{i * 37 % 1000}")
            got = [(*c.concept_ids, c.weight, c.witness) for c in enumerate_two_hop(g)]
            assert got == pairs_at_distance(g, 2)

    def test_witness_is_valid_shortest_path(self):
        rng = random.Random(3)
        for _ in range(20):
            g, adj, _ = random_graph(rng)
            for combo in enumerate_two_hop(g):
                a, mid, b = combo.witness
                assert [a, b] == combo.concept_ids
                assert mid in adj[a] and b in adj[mid]


class TestHubs:
    def test_toy_top3(self, g0):
        # Degrees: A=2, B=3, C=3, D=3, E=1.
        hubs = identify_hubs(g0, 0.6)  # ceil(0.6*5) = 3
        assert hubs.hub_ids == {"B", "C", "D"}
        assert hubs.min_degree_achieved == 3

    def test_tie_broken_by_id(self, g0):
        hubs = identify_hubs(g0, 0.2)  # k=1; B, C, D all have degree 3
        assert hubs.hub_ids == {"B"}

    def test_fraction_one_selects_all(self, g0):
        assert identify_hubs(g0, 1.0).hub_ids == g0.nodes

    def test_empty_graph_rejected(self):
        with pytest.raises(ValidationError):
            identify_hubs(build_graph([]), 0.5)

    def test_invariant_under_insertion_order(self):
        seeds = [("P1", {"A", "B", "C"}), ("P2", {"B", "C", "D"}), ("P3", {"D", "E"})]
        for perm in itertools.permutations(seeds):
            assert identify_hubs(build_graph(list(perm)), 0.4).hub_ids == \
                identify_hubs(build_graph(seeds), 0.4).hub_ids


class TestThreeHop:
    def test_toy_no_hub_endpoint_means_empty(self, g0):
        hubs = identify_hubs(g0, 0.6)  # {B, C, D}; only distance-3 pair is A-E
        assert enumerate_three_hop(g0, hubs, min_weight=1) == []

    def test_forced_hub_a_finds_ae(self, g0):
        from graphsynth.graph import HubSet

        hubs = HubSet(hub_ids={"A"}, min_degree_achieved=2)
        combos = enumerate_three_hop(g0, hubs, min_weight=1)
        assert [tuple(c.concept_ids) for c in combos] == [("A", "E")]

    def test_min_weight_dominates(self, g0):
        hubs = identify_hubs(g0, 1.0)
        assert enumerate_three_hop(g0, hubs, min_weight=5) == []

    def test_pair_with_both_hub_endpoints_emitted_once(self):
        # Path graph a-b-c-d: pair (a, d) at distance 3, both endpoints hubs.
        g = build_graph([("s1", {"a", "b"}), ("s2", {"b", "c"}), ("s3", {"c", "d"})])
        hubs = identify_hubs(g, 1.0)
        combos = enumerate_three_hop(g, hubs, min_weight=1)
        assert [tuple(c.concept_ids) for c in combos] == [("a", "d")]

    def test_includes_hub_endpoint_always(self):
        rng = random.Random(17)
        for _ in range(15):
            g, adj, _ = random_graph(rng)
            hubs = identify_hubs(g, 0.3)
            for combo in enumerate_three_hop(g, hubs, min_weight=1):
                assert set(combo.concept_ids) & hubs.hub_ids


class TestCommunities:
    def test_toy_cliques(self, g0):
        combos = enumerate_communities(g0)
        assert [tuple(c.concept_ids) for c in combos] == [("A", "B", "C"), ("B", "C", "D")]
        assert combos[0].weight == 1  # min(AB=1, AC=1, BC=2)

    def test_k4_has_four_triangles_and_one_quad(self):
        g = build_graph([("P", {"a", "b", "c", "d"})])
        combos = enumerate_communities(g)
        threes = [c for c in combos if len(c.concept_ids) == 3]
        fours = [c for c in combos if len(c.concept_ids) == 4]
        assert len(threes) == 4
        assert len(fours) == 1
        assert fours[0].concept_ids == ["a", "b", "c", "d"]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(23)
        for _ in range(20):
            g, adj, _ = random_graph(rng)
            combos = enumerate_communities(g)
            got3 = {tuple(c.concept_ids) for c in combos if len(c.concept_ids) == 3}
            got4 = {tuple(c.concept_ids) for c in combos if len(c.concept_ids) == 4}
            assert got3 == oracles.cliques_of_size(adj, 3)
            assert got4 == oracles.cliques_of_size(adj, 4)

    def test_every_community_is_complete(self):
        rng = random.Random(29)
        for _ in range(10):
            g, adj, _ = random_graph(rng)
            for combo in enumerate_communities(g):
                for a, b in itertools.combinations(combo.concept_ids, 2):
                    assert b in adj[a]

    @pytest.mark.parametrize("cap", [None, 0, 1, 10_000])
    def test_caps_match_oracle_with_min_weights(self, cap):
        rng = random.Random(53)
        for _ in range(30):
            g, adj, weights = random_graph(rng, max_nodes=10, density=0.6)
            expected = []
            for size in (3, 4):
                cliques = sorted(oracles.cliques_of_size(adj, size))[:cap]
                expected += [
                    (list(c), min(weights[e] for e in itertools.combinations(c, 2)))
                    for c in cliques
                ]
            got = [(c.concept_ids, c.weight) for c in enumerate_communities(g, cap=cap)]
            assert got == expected

    @pytest.mark.parametrize("sizes", [(3,), (4,), (3, 4)])
    def test_count_matches_uncapped_enumeration(self, sizes):
        # The selector counts cliques per size without building them.
        rng = random.Random(59)
        for _ in range(20):
            g, _, _ = random_graph(rng, max_nodes=10, density=0.6)
            _, enumerated, truncated = select_combinations(
                g, identify_hubs(g, 1.0), sizes=sizes, budget=0)
            assert enumerated["community"] == len(enumerate_communities(g, sizes, cap=None))
            assert truncated == 0

    def test_cap_truncates_deterministically(self):
        g = build_graph([("P", {"a", "b", "c", "d", "e"})])  # K5
        capped = enumerate_communities(g, cap=3)
        threes = [tuple(c.concept_ids) for c in capped if len(c.concept_ids) == 3]
        assert threes == [("a", "b", "c"), ("a", "b", "d"), ("a", "b", "e")]
        fours = [tuple(c.concept_ids) for c in capped if len(c.concept_ids) == 4]
        assert len(fours) == 3  # cap applies per clique size


class TestBottleneckWeight:
    def test_adjacent_pair_is_edge_weight(self, g0):
        assert bottleneck_weight(g0, "B", "C") == 2

    def test_toy_b_to_e(self, g0):
        assert bottleneck_weight(g0, "B", "E") == 1

    def test_parallel_paths_take_widest(self):
        # a-b-d has bottleneck 1; a-c-d has bottleneck 3 (edges repeated 3x).
        seeds = [("s1", {"a", "b"}), ("s2", {"b", "d"})]
        seeds += [(f"s3{i}", {"a", "c"}) for i in range(3)]
        seeds += [(f"s4{i}", {"c", "d"}) for i in range(3)]
        g = build_graph(seeds)
        assert bottleneck_weight(g, "a", "d") == 3

    def test_unreachable_pair_rejected(self):
        g = build_graph([("P1", {"a", "b"})], all_concept_ids={"a", "b", "z"})
        with pytest.raises(ValidationError):
            bottleneck_weight(g, "a", "z")

    def test_matches_all_paths_oracle(self):
        rng = random.Random(31)
        for _ in range(25):
            g, adj, weights = random_graph(rng, max_nodes=10)
            nodes = sorted(adj)
            for a, b in itertools.combinations(nodes, 2):
                if oracles.bfs_distance(adj, a, b) is None:
                    continue
                expected = oracles.widest_shortest_path_weight(adj, weights, a, b)
                assert bottleneck_weight(g, a, b) == expected


class TestDistancePartition:
    def test_hop_sets_partition_close_pairs(self):
        rng = random.Random(37)
        for _ in range(15):
            g, adj, _ = random_graph(rng)
            one = {tuple(c.concept_ids) for c in enumerate_one_hop(g)}
            two = {tuple(c.concept_ids) for c in enumerate_two_hop(g)}
            three = {(a, b) for a, b, _, _ in pairs_at_distance(g, 3)}
            assert one == oracles.all_pairs_at_distance(adj, 1)
            assert two == oracles.all_pairs_at_distance(adj, 2)
            assert three == oracles.all_pairs_at_distance(adj, 3)
            assert not (one & two) and not (two & three) and not (one & three)

    def test_distance_parameter_extends_beyond_three(self):
        # Path graph a-b-c-d-e: the only distance-4 pair is (a, e).
        g = build_graph([
            ("s1", {"a", "b"}), ("s2", {"b", "c"}),
            ("s3", {"c", "d"}), ("s4", {"d", "e"}),
        ])
        pairs = pairs_at_distance(g, 4)
        assert [(a, b) for a, b, _, _ in pairs] == [("a", "e")]
        rng = random.Random(43)
        for _ in range(10):
            g, adj, _ = random_graph(rng)
            got = {(a, b) for a, b, _, _ in pairs_at_distance(g, 4)}
            assert got == oracles.all_pairs_at_distance(adj, 4)


class TestNovelty:
    SEED_SETS = [{"A", "B", "C"}, {"B", "C", "D"}, {"D", "E"}]

    def combo(self, kind, ids):
        return ConceptCombination(kind=kind, concept_ids=ids, weight=1)

    def test_two_hop_pair_is_novel(self):
        assert is_novel(self.combo("two_hop", ["A", "D"]), self.SEED_SETS) is True

    def test_subset_of_seed_not_novel(self):
        assert is_novel(self.combo("one_hop", ["B", "C"]), self.SEED_SETS) is False

    def test_empty_combination_not_novel(self):
        combo = ConceptCombination.__new__(ConceptCombination)
        combo.kind = "community"
        combo.concept_ids = []
        combo.weight = 0
        combo.witness = None
        assert is_novel(combo, self.SEED_SETS) is False

    def test_one_hop_never_novel_multi_hop_always(self):
        rng = random.Random(41)
        for _ in range(20):
            concepts = [f"c{i}" for i in range(rng.randint(3, 12))]
            seeds = []
            for s in range(rng.randint(2, 40)):
                size = rng.randint(2, min(5, len(concepts)))
                seeds.append(set(rng.sample(concepts, size)))
            g = build_graph([(f"s{i}", cs) for i, cs in enumerate(seeds)])
            for combo in enumerate_one_hop(g):
                assert is_novel(combo, seeds) is False
            for combo in enumerate_two_hop(g):
                assert is_novel(combo, seeds) is True
            for a, b, w, path in pairs_at_distance(g, 3):
                combo = ConceptCombination("three_hop", [a, b], w, path)
                assert is_novel(combo, seeds) is True


class TestSampling:
    def combos(self, n):
        return [
            ConceptCombination("one_hop", [f"a{i}", f"b{i}"], weight=i)
            for i in range(n)
        ]

    def test_budget_zero(self):
        assert sample_combinations(self.combos(5), 0, seed=1) == []

    def test_budget_covers_all_returns_sorted_identity(self):
        combos = self.combos(5)[::-1]
        out = sample_combinations(combos, 10, seed=1)
        assert out == sorted(combos, key=lambda c: c.combo_id)

    def test_same_seed_same_sample(self):
        combos = self.combos(20)
        first = sample_combinations(combos, 7, seed=99)
        second = sample_combinations(combos, 7, seed=99)
        assert first == second
        assert len(first) == 7

    def test_different_seed_usually_differs(self):
        combos = self.combos(30)
        a = sample_combinations(combos, 10, seed=1)
        b = sample_combinations(combos, 10, seed=2)
        assert a != b


def build_everything(g, hubs, sizes, cap):
    return (enumerate_one_hop(g) + enumerate_two_hop(g) + enumerate_three_hop(g, hubs, 2)
            + enumerate_communities(g, sizes, cap))


class TestSelectCombinations:
    """``select_combinations`` against building every kind and sampling."""

    # Ids above "+" that are prefixes of one another, so joined combo ids and
    # concept-id tuples compare at the separator.
    PREFIXED = ["", ",", "a", "a-", "a-b", "ab", "b", "b,", "ba"]

    def check(self, g, hubs, sizes, cap, budgets, seed):
        one_hop, two_hop = enumerate_one_hop(g), enumerate_two_hop(g)
        three_hop, communities = enumerate_three_hop(g, hubs, 2), enumerate_communities(g, sizes, cap)
        everything = one_hop + two_hop + three_hop + communities
        n = len(everything)
        expected_stats = (
            {"one_hop": len(one_hop), "two_hop": len(two_hop),
             "three_hop": len(three_hop), "community": len(communities)},
            0 if cap is None else len(enumerate_communities(g, sizes)) - len(communities),
        )
        for budget in budgets(n):
            sampled, *stats = select_combinations(
                g, hubs, min_weight=2, sizes=sizes, cap=cap, budget=budget, seed=seed)
            assert sampled == sample_combinations(everything, budget, seed)
            assert tuple(stats) == expected_stats

    def test_matches_sample_combinations_on_random_graphs(self):
        rng = random.Random(17)
        for trial in range(45):
            if trial % 3 == 2:
                labels = sorted(rng.sample(self.PREFIXED, rng.randint(3, len(self.PREFIXED))))
                label = lambda i, labels=labels: labels[i % len(labels)] + "x" * (i // len(labels))
            else:
                label = "n{:02d}".format
            g, _, _ = random_graph(rng, max_nodes=14, density=rng.uniform(0.2, 0.8), label=label)
            hubs = identify_hubs(g, rng.choice([0.2, 1.0]))
            sizes = rng.choice([(3, 4), (3,), (4,)])
            cliques = len(enumerate_communities(g, sizes))
            for cap in sorted({0, 1, max(cliques - 1, 0)}) + [None]:
                self.check(g, hubs, sizes, cap, seed=rng.randrange(1000),
                           budgets=lambda n: sorted({0, 1, n // 2, max(n - 1, 0), n}) + [None])

    def test_builds_only_the_drawn_records(self, monkeypatch):
        g, _, _ = random_graph(random.Random(3), max_nodes=20, density=0.5)
        hubs = identify_hubs(g, 1.0)
        everything = build_everything(g, hubs, (3, 4), None)
        kinds = {kind: sum(c.kind == kind for c in everything) for kind in ("two_hop", "community")}
        assert min(kinds.values()) > 0
        built = []
        original = ConceptCombination.__post_init__
        monkeypatch.setattr(ConceptCombination, "__post_init__",
                            lambda self: (built.append(self.kind), original(self)))
        monkeypatch.setattr(graph_module, "enumerate_two_hop", None)
        monkeypatch.setattr(graph_module, "enumerate_communities", None)
        budget = len(everything) // 3
        sampled, enumerated, _ = select_combinations(g, hubs, budget=budget, seed=5)
        drawn = sum(c.kind in ("two_hop", "community") for c in sampled)
        assert len(sampled) == budget and drawn > 0
        assert sampled == sample_combinations(everything, budget, 5)
        assert len(built) == enumerated["one_hop"] + enumerated["three_hop"] + drawn

    @pytest.mark.parametrize("odd", ["a!", "a+b"])
    def test_ids_at_or_below_plus_follow_the_combination_order(self, odd):
        # "a!" and "a+b" sort after "a" as ids, but "a!+c" and "a+b+c" sort
        # before "a+c" as combination ids: the combination order is the
        # concept-id tuple order, not the combo_id order, for such ids.
        seeds = [("s1", {"a", odd, "c"}), ("s2", {"c", "b"}), ("s3", {"b", "d"}),
                 ("s4", {"d", "a"}), ("s5", {odd, "d", "e"})]
        g = build_graph(seeds)
        hubs = identify_hubs(g, 1.0)
        everything = build_everything(g, hubs, (3, 4), None)
        ordered = sample_combinations(everything, None, 0)
        assert ordered != sorted(everything, key=lambda c: c.combo_id)
        for seed in range(5):
            self.check(g, hubs, (3, 4), None, budgets=lambda n: [*range(n + 1), None], seed=seed)

    def test_graph_without_combinations(self):
        g = build_graph([("s", {"a"})], all_concept_ids={"a", "b"})
        hubs = identify_hubs(g, 1.0)
        for budget in (0, 1, None):
            assert select_combinations(g, hubs, budget=budget) == (
                [], {"one_hop": 0, "two_hop": 0, "three_hop": 0, "community": 0}, 0)

    def test_negative_budget_and_cap_rejected(self):
        g, _, _ = random_graph(random.Random(1), max_nodes=8, density=0.7)
        hubs = identify_hubs(g, 1.0)
        with pytest.raises(ValidationError, match="budget"):
            select_combinations(g, hubs, budget=-1)
        with pytest.raises(ValidationError, match="cap"):
            select_combinations(g, hubs, cap=-1, budget=1)


class TestCombinationRoundTrip:
    def test_hop_kind_with_witness(self):
        combo = ConceptCombination("two_hop", ["a", "b"], weight=3, witness=["a", "m", "b"])
        assert ConceptCombination.from_record(combo.to_record()) == combo

    def test_community_without_witness(self):
        combo = ConceptCombination("community", ["a", "b", "c"], weight=1)
        assert ConceptCombination.from_record(combo.to_record()) == combo

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValidationError):
            ConceptCombination("five_hop", ["a", "b"], weight=1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValidationError):
            ConceptCombination("community", ["a", "b"], weight=1)
        with pytest.raises(ValidationError):
            ConceptCombination("one_hop", ["a", "b", "c"], weight=1)
