"""The graph stage's memory follows what it keeps, not what it enumerates.

Three-hop pairs below the weight floor are dropped by the search before
their witness is walked or their record built, and the sampled ranks are
drawn holding 8 bytes per rank, where ``random.sample`` copies the whole
population into a list of int objects first. Both are measured with
tracemalloc over the call alone, the graph being built before tracing
starts, at two sizes, so the bound is on the growth between them."""

from __future__ import annotations

import math
import tracemalloc

from graphsynth.graph import HubSet, build_graph, enumerate_three_hop, select_combinations


def traced_peak(call) -> tuple[object, int]:
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hub_chains(chains: int, leaves: int):
    """``chains`` disjoint chains hub - a - b, with ``leaves`` leaves on each
    ``b``. Every hub is at distance 3 from its chain's leaves; the chain's
    edges weigh 2, as does the edge to its first leaf, and the edges to the
    other leaves weigh 1."""
    seeds = []
    for c in range(chains):
        hub, a, b = f"c{c:04d}-hub", f"c{c:04d}-a", f"c{c:04d}-b"
        for copy in range(2):
            seeds += [(f"{hub}-{copy}", {hub, a}), (f"{a}-{copy}", {a, b})]
        for leaf in range(leaves):
            for copy in range(2 if leaf == 0 else 1):
                seeds.append((f"{b}-{leaf}-{copy}", {b, f"c{c:04d}-leaf{leaf:03d}"}))
    hubs = HubSet(hub_ids={f"c{c:04d}-hub" for c in range(chains)}, min_degree_achieved=1)
    return build_graph(seeds), hubs


# Kept pairs are 1 in 20 of the candidates here. A kept pair costs about
# 650 B while the enumeration runs (its record, its witness and its entry in
# the search's table), about 32 B per candidate. Building every candidate's
# witness before the floor drops it, as the search once did, costs about
# 600 B per candidate; the bound leaves room for the kept pairs, not for a
# structure per candidate.
MAX_THREE_HOP_BYTES_PER_ADDED_CANDIDATE = 150


def test_three_hop_peak_follows_the_kept_pairs():
    leaves = 20
    peaks, kept = {}, {}
    for chains in (100, 400):
        g, hubs = hub_chains(chains, leaves)
        combos, peaks[chains] = traced_peak(lambda: enumerate_three_hop(g, hubs, min_weight=2))
        kept[chains] = len(combos)
        assert combos[0].concept_ids == ["c0000-hub", "c0000-leaf000"]
    assert kept == {100: 100, 400: 400}
    slope = (peaks[400] - peaks[100]) / ((400 - 100) * leaves)
    assert slope <= MAX_THREE_HOP_BYTES_PER_ADDED_CANDIDATE, peaks


# The draw's pool holds 8 B per enumerated combination and the sorted ranks
# 8 B per drawn one, 12 B per combination at half the total; the ranks split
# by kind are another 4 B, after the pool is freed. ``random.sample`` over
# ``range(total)`` copies it into a list of int objects, about 36 B per
# combination, before the ranks are converted.
MAX_DRAW_BYTES_PER_ADDED_COMBINATION = 16


def test_draw_peak_grows_by_bytes_per_rank():
    # A star: n leaves give n - 1 edges but (n - 1)(n - 2) / 2 two-hop pairs.
    peaks = {}
    for leaves in (300, 600):
        g = build_graph([(f"s{i}", {"center", f"leaf{i:04d}"}) for i in range(leaves)])
        hubs = HubSet(hub_ids={"center"}, min_degree_achieved=leaves)
        total = (leaves - 1) * leaves // 2 + leaves
        budget = total // 2
        # Random.sample's list branch: a list of the population is no larger
        # than a set of the sample.
        assert total <= 21 + 4 ** math.ceil(math.log(budget * 3, 4))
        selection, peaks[total] = traced_peak(
            lambda: select_combinations(g, hubs, budget=budget, seed=5))
        assert sum(selection.enumerated.values()) == total
        assert len(selection) == budget
    small, large = sorted(peaks)
    slope = (peaks[large] - peaks[small]) / (large - small)
    assert slope <= MAX_DRAW_BYTES_PER_ADDED_COMBINATION, peaks
