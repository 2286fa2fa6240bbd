"""Build a concept co-occurrence graph from a toy corpus and query it.

Three seed problems mention overlapping concepts; pairs that appear in the
same problem get an edge whose weight counts the co-occurrences. Pairs that
never co-occurred are still reachable through intermediate nodes, which is
what the multi-hop machinery exploits.
"""

from graphsynth.graph import build_graph, identify_hubs, pairs_at_distance

# Each entry: (seed problem id, the concepts it uses).
corpus = [
    ("prob-1", {"Pythagorean theorem", "Perimeter of a triangle", "Square roots"}),
    ("prob-2", {"Perimeter of a triangle", "Square roots", "Linear equations"}),
    ("prob-3", {"Linear equations", "Systems of equations"}),
]

g = build_graph(corpus)

print("nodes:", sorted(g.nodes))
print("edges (a, b, co-occurrence count):")
for a, b, w in g.edges():
    print(f"  {a} -- {b}  (weight {w})")

# "Perimeter of a triangle" and "Square roots" co-occurred twice:
weights = {(a, b): w for a, b, w in g.edges()}
print("\nweight(Perimeter, Square roots):",
      weights[("Perimeter of a triangle", "Square roots")])

# pairs_at_distance(g, d) lists every pair exactly d hops apart, as
# (a, b, bottleneck weight, witness path) with a < b. Distance 1 is an
# explicit co-occurrence, more than 1 an implicit relationship.
reach = {}
for d in (1, 2, 3):
    for a, b, width, path in pairs_at_distance(g, d):
        reach[(a, b)] = (d, width, path)

pairs = [
    ("Perimeter of a triangle", "Pythagorean theorem"),
    ("Linear equations", "Pythagorean theorem"),
    ("Pythagorean theorem", "Systems of equations"),
]
print("\nhop distances:")
for a, b in pairs:
    print(f"  D({a!r}, {b!r}) = {reach[(a, b)][0]}")

# Hubs are the highest-degree nodes; ties break on the concept id.
hubs = identify_hubs(g, fraction=0.4)
print("\ntop-degree hubs:", sorted(hubs.hub_ids))
print("minimum hub degree:", hubs.min_degree_achieved)

# The bottleneck weight of a pair is the widest shortest path: the best
# guaranteed co-occurrence strength along some minimum-hop route.
_, width, path = reach[("Linear equations", "Pythagorean theorem")]
print("\nbottleneck(Linear equations, Pythagorean theorem):", width,
      "via", " -> ".join(path))
