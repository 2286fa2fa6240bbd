"""Independent brute-force oracles used to check the library's algorithms.

Everything here is deliberately naive (exhaustive enumeration, no shared
code with the package) so a bug in the implementation cannot hide in its
own oracle.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque


def cooccurrence_counts(seed_sets: list[set[str]]) -> dict[tuple[str, str], int]:
    """Edge weights by counting pairs inside every seed set directly."""
    counts: dict[tuple[str, str], int] = {}
    for concepts in seed_sets:
        for a, b in itertools.combinations(sorted(concepts), 2):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def bfs_distance(adj: dict[str, set[str]], a: str, b: str) -> int | None:
    """Plain queue BFS shortest-path length."""
    if a == b:
        return 0
    seen = {a}
    queue = deque([(a, 0)])
    while queue:
        node, dist = queue.popleft()
        for nbr in adj[node]:
            if nbr == b:
                return dist + 1
            if nbr not in seen:
                seen.add(nbr)
                queue.append((nbr, dist + 1))
    return None


def all_pairs_at_distance(adj: dict[str, set[str]], d: int) -> set[tuple[str, str]]:
    out = set()
    nodes = sorted(adj)
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if bfs_distance(adj, a, b) == d:
                out.add((a, b))
    return out


def enumerate_shortest_paths(
    adj: dict[str, set[str]], a: str, b: str
) -> list[list[str]]:
    """Every minimum-hop path from a to b, by exhaustive DFS."""
    target = bfs_distance(adj, a, b)
    if target is None:
        return []
    if target == 0:
        return [[a]]
    paths = []

    def dfs(path: list[str]) -> None:
        node = path[-1]
        if len(path) - 1 == target:
            if node == b:
                paths.append(list(path))
            return
        for nbr in sorted(adj[node]):
            if nbr not in path:
                path.append(nbr)
                dfs(path)
                path.pop()

    dfs([a])
    return paths


def widest_shortest_path_weight(
    adj: dict[str, set[str]],
    weights: dict[tuple[str, str], int],
    a: str,
    b: str,
) -> float:
    """Max over all minimum-hop paths of the min edge weight on the path."""
    paths = enumerate_shortest_paths(adj, a, b)
    if not paths:
        raise ValueError("unreachable")
    best = float("-inf")
    for path in paths:
        if len(path) == 1:
            width = float("inf")
        else:
            width = min(
                weights[tuple(sorted((path[i], path[i + 1])))]
                for i in range(len(path) - 1)
            )
        best = max(best, width)
    return best


def bfs_witness(
    adj: dict[str, set[str]],
    weights: dict[tuple[str, str], int],
    a: str,
    b: str,
) -> list[str]:
    """One widest shortest path from a to b, built backwards from b: the
    last hop comes from the neighbour u one hop closer to a that maximises
    min(width(a, u), w(u, b)), the smallest id on a tie, and the path to u
    is chosen the same way."""
    d = bfs_distance(adj, a, b)
    if d is None:
        raise ValueError("unreachable")
    if d == 0:
        return [a]
    closer = [u for u in adj[b] if bfs_distance(adj, a, u) == d - 1]
    u = min(closer, key=lambda u: (
        -min(widest_shortest_path_weight(adj, weights, a, u), weights[tuple(sorted((u, b)))]), u))
    return bfs_witness(adj, weights, a, u) + [b]


def is_novel(concept_ids: list[str], seed_concept_sets: list[set[str]]) -> bool:
    """True when the concept set is contained in no seed example's concept
    set, by testing every seed. An empty set is not novel by convention."""
    concepts = set(concept_ids)
    if not concepts:
        return False
    return not any(concepts <= set(s) for s in seed_concept_sets)


def cliques_of_size(adj: dict[str, set[str]], size: int) -> set[tuple[str, ...]]:
    """All node subsets of the given size that induce a complete subgraph."""
    out = set()
    for combo in itertools.combinations(sorted(adj), size):
        if all(v in adj[u] for u, v in itertools.combinations(combo, 2)):
            out.add(combo)
    return out


def connected_components(nodes: list[str], edges: set[tuple[str, str]]) -> set[frozenset[str]]:
    """Components via repeated BFS over an explicit edge set."""
    adj: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    remaining = set(nodes)
    components = set()
    while remaining:
        start = remaining.pop()
        comp = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for nbr in adj[node]:
                if nbr not in comp:
                    comp.add(nbr)
                    queue.append(nbr)
        remaining -= comp
        components.add(frozenset(comp))
    return components


def ngram_set(text_tokens: list[list[str]], n: int) -> set[tuple[str, ...]]:
    grams = set()
    for tokens in text_tokens:
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))
    return grams


def normalize_for_ngrams(text: str) -> str:
    """Lowercase, keep letters, digits and whitespace one character at a
    time, then collapse whitespace runs."""
    lowered = text.lower()
    kept = "".join(ch for ch in lowered if ch.isalnum() or ch.isspace())
    return " ".join(kept.split())


def ngram_overlap_record(
    synth_texts: list[str], reference_texts: list[str], ns: list[int], top_k: int = 5
) -> dict:
    """The decontamination record, counting every synthesized n-gram by
    explicit slicing: per n the shared fraction of distinct synthesized
    n-grams (None when there are none), and at the smallest n the top_k
    shared n-grams by synthesized frequency, ties broken by the gram."""
    synth_tokens = [normalize_for_ngrams(t).split() for t in synth_texts]
    ref_tokens = [normalize_for_ngrams(t).split() for t in reference_texts]
    per_n: dict[str, float | None] = {}
    top: list[list] = []
    for n in sorted(set(ns)):
        counts: Counter = Counter()
        for tokens in synth_tokens:
            for i in range(len(tokens) - n + 1):
                counts[tuple(tokens[i:i + n])] += 1
        if not counts:
            per_n[str(n)] = None
            continue
        shared = set(counts) & ngram_set(ref_tokens, n)
        per_n[str(n)] = len(shared) / len(counts)
        if n == min(ns) and shared:
            ranked = sorted(shared, key=lambda g: (-counts[g], g))
            top = [[" ".join(g), counts[g]] for g in ranked[:top_k]]
    return {"per_n": per_n, "top_overlapping": top}
