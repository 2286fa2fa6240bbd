"""Enumerate the four combination kinds and check which ones are novel.

One-hop pairs restate what the seed corpus already links; two-hop and
three-hop pairs never co-occurred anywhere, so every one of them is new
material. Communities are cliques: tightly coupled concept groups suited
to integrative problems.
"""

from graphsynth.analytics import NoveltyCounter
from graphsynth.graph import build_graph, identify_hubs, select_combinations

corpus = [
    ("p1", {"A", "B", "C"}),
    ("p2", {"B", "C", "D"}),
    ("p3", {"D", "E"}),
    ("p4", {"E", "F"}),
]
seed_sets = [concepts for _, concepts in corpus]

g = build_graph(corpus)
hubs = identify_hubs(g, fraction=1.0)  # treat every node as a hub for the demo

# With no budget, select_combinations keeps every combination of every kind,
# in combination order (kind, then concept ids), and counts each kind. The
# records are built as the selection is iterated.
selection = select_combinations(g, hubs, min_weight=1)
print("combinations per kind:", selection.enumerated)
novelty = {kind: NoveltyCounter(seed_sets) for kind in selection.enumerated}
for combo in selection:
    novelty[combo.kind].add(combo.concept_ids)
    path = f" via {'-'.join(combo.witness)}" if combo.witness else ""
    print(f"  {combo.kind:9s} {'+'.join(combo.concept_ids):8s} weight={combo.weight}{path}")

# Every multi-hop pair is novel by construction; one-hop pairs never are.
print("\nnovelty rate per kind:", {kind: c.rate() for kind, c in novelty.items()})
assert novelty["one_hop"].rate() == 0.0
assert novelty["two_hop"].rate() == novelty["three_hop"].rate() == 1.0

# Sampling to a generation budget is uniform and reproducible.
budgeted = list(select_combinations(g, hubs, min_weight=1, budget=4, seed=123))
print("\nbudgeted sample of 4 (stable under the same seed):")
for combo in budgeted:
    print(" ", combo.combo_id)
