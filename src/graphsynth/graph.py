"""Weighted concept co-occurrence graph and combination enumeration.

Nodes are concept ids; an (undirected) edge records how many seed examples
mention both endpoints. Pairs at hop distance greater than one are never
materialized as edges: distances are answered on demand by breadth-first
search, which is all the enumeration below ever needs (distances are capped
at three hops).

Combination kinds:

* ``one_hop``    - directly connected pairs (weight = co-occurrence count)
* ``two_hop``    - pairs at BFS distance exactly 2
* ``three_hop``  - pairs at distance exactly 3 with at least one hub endpoint
* ``community``  - 3- or 4-cliques (weight = minimum internal edge weight)

For multi-hop pairs, "weight" is the bottleneck weight: the maximum over all
minimum-hop paths of the smallest edge weight on the path. It degenerates to
the plain edge weight at distance one and favors pairs linked through
well-attested co-occurrences.

The graph is immutable: ``build_graph`` accumulates the adjacency map and
constructs the graph once, together with an indexed view of it. Nodes are
numbered in sorted-id order (so index order is id order), neighbours and
weights sit in CSR arrays, and each node keeps its forward (higher-index)
neighbours with their weights. Two-hop pairs and communities are listed over
that view:

* Two-hop pairs come from expanding every path ``a -> m -> b`` out of one
  source row at a time with numpy, keeping ``b > a`` not adjacent to ``a``.
  A path's width is ``min(w(a, m), w(m, b))``; each ``b`` keeps the widest
  path and, on a tie, the smallest middle node ``m``, which is the tie rule
  of the breadth-first search, so the witness is ``[a, m, b]``.
* Cliques are listed in the manner of Chiba and Nishizeki (1985): each
  triangle or quad is found once, in ascending index order, by intersecting
  forward neighbour sets; one pass yields both sizes in tuple order.

Combinations have one order: kind (community, one_hop, three_hop, two_hop),
then the tuple of concept ids. The enumerators produce each kind in it, and
it equals ``combo_id`` order (``kind:id1+id2...``) whenever no id holds a
character at or below ``+``. ``select_combinations`` samples over all four
kinds without building what it does not keep: it counts each kind (two-hop
pairs per source row, cliques per size under the cap), draws ranks from the
total as ``sample_combinations`` would, and builds only those: two-hop pairs
by re-expanding the rows that hold a drawn rank, cliques by walking the
capped lister up to the last drawn one. One-hop and three-hop pairs are few
and always built. A budget of None draws every rank.

``pairs_at_distance`` keeps the breadth-first search: it serves three-hop
pairs and any distance, and it is the reference the two-hop expansion is
tested against.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError

COMBINATION_KINDS = ("one_hop", "two_hop", "three_hop", "community")


@dataclass(slots=True)
class ConceptCombination:
    """A typed tuple of concept ids with its weight and, for hop kinds, one
    shortest path witnessing the distance."""

    kind: str
    concept_ids: list[str]
    weight: float
    witness: list[str] | None = None

    def __post_init__(self) -> None:
        if self.kind not in COMBINATION_KINDS:
            raise ValidationError(f"unknown combination kind {self.kind!r}")
        n = len(self.concept_ids)
        if self.kind == "community":
            if n not in (3, 4):
                raise ValidationError("community combinations have 3 or 4 concepts")
        elif n != 2:
            raise ValidationError(f"{self.kind} combinations have exactly 2 concepts")

    @property
    def combo_id(self) -> str:
        return f"{self.kind}:{'+'.join(self.concept_ids)}"

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "concept_ids": list(self.concept_ids),
            "weight": self.weight,
            "witness": list(self.witness) if self.witness is not None else None,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "ConceptCombination":
        return cls(
            kind=rec["kind"],
            concept_ids=list(rec["concept_ids"]),
            weight=rec["weight"],
            witness=list(rec["witness"]) if rec.get("witness") is not None else None,
        )


@dataclass
class HubSet:
    """Top-degree nodes; ties broken by ascending concept id."""

    hub_ids: set[str]
    min_degree_achieved: int


class _IndexedView:
    """Integer-indexed snapshot of an adjacency map.

    ``ids[i]`` is the i-th node id in sorted order. Row ``i``'s neighbours
    are ``indices[indptr[i]:indptr[i + 1]]`` in ascending order, with edge
    weights at the same positions of ``weights``. ``forward[i]`` maps each
    neighbour ``j > i`` to the edge weight, in ascending order of ``j``.
    """

    def __init__(self, adj: dict[str, dict[str, int]]) -> None:
        self.ids = sorted(adj)
        index = {node: i for i, node in enumerate(self.ids)}
        rows = [sorted((index[v], w) for v, w in adj[node].items()) for node in self.ids]
        self.indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([len(row) for row in rows], out=self.indptr[1:])
        self.indices = np.array([j for row in rows for j, _ in row], dtype=np.int64)
        self.weights = np.array([w for row in rows for _, w in row], dtype=np.int64)
        self.forward = [{j: w for j, w in row if j > i} for i, row in enumerate(rows)]


class ConceptGraph:
    """Immutable; all queries are pure and thread-safe. Made by
    ``build_graph``, which hands over a finished adjacency map."""

    def __init__(self, adj: dict[str, dict[str, int]]) -> None:
        self._adj = adj
        self._view = _IndexedView(adj)

    # -- views ----------------------------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return set(self._adj)

    def node_count(self) -> int:
        return len(self._adj)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def degree(self, node: str) -> int:
        self._require(node)
        return len(self._adj[node])

    def weight(self, a: str, b: str) -> int | None:
        self._require(a)
        self._require(b)
        return self._adj[a].get(b)

    def edges(self) -> list[tuple[str, str, int]]:
        """All edges as (a, b, weight) with a < b, sorted."""
        out = []
        for a in sorted(self._adj):
            for b, w in self._adj[a].items():
                if a < b:
                    out.append((a, b, w))
        out.sort()
        return out

    def _require(self, node: str) -> None:
        if node not in self._adj:
            raise ValidationError(f"unknown concept id {node!r}")

    # -- distance machinery ----------------------------------------------------

    def _layered_search(
        self, source: str, max_dist: int | None = None, target: str | None = None
    ) -> tuple[dict[str, int], dict[str, float], dict[str, str | None]]:
        """BFS from ``source`` tracking, per reached node, the shortest-path
        distance, the bottleneck width over all shortest paths (widest
        shortest path), and one predecessor achieving that width.

        Width is computed by dynamic programming over the BFS layer DAG:
        width(v) = max over predecessors u in the previous layer of
        min(width(u), w(u, v)). Ties on width pick the smallest predecessor
        id so witnesses are deterministic.
        """
        self._require(source)
        dist: dict[str, int] = {source: 0}
        width: dict[str, float] = {source: math.inf}
        parent: dict[str, str | None] = {source: None}
        frontier = [source]
        d = 0
        while frontier and (max_dist is None or d < max_dist):
            if target is not None and target in dist:
                break
            d += 1
            candidates: dict[str, tuple[float, str]] = {}
            for u in frontier:
                for v, w in self._adj[u].items():
                    if v in dist:
                        continue
                    cand = (min(width[u], w), u)
                    best = candidates.get(v)
                    if best is None or cand[0] > best[0] or (cand[0] == best[0] and u < best[1]):
                        candidates[v] = cand
            frontier = []
            for v in sorted(candidates):
                dist[v] = d
                width[v], parent[v] = candidates[v]
                frontier.append(v)
        return dist, width, parent

    def _witness(self, parent: dict[str, str | None], node: str) -> list[str]:
        path = [node]
        cur: str | None = node
        while parent[cur] is not None:
            cur = parent[cur]
            path.append(cur)
        path.reverse()
        return path


def build_graph(
    seed_concept_sets: Sequence[tuple[str, Iterable[str]]],
    all_concept_ids: Iterable[str] | None = None,
) -> ConceptGraph:
    """Build the co-occurrence graph from per-seed concept id sets.

    Every unordered pair inside one seed's set gains +1 edge weight. When
    ``all_concept_ids`` is given it defines the node universe: ids outside it
    raise (naming the seed), and ids never co-occurring remain isolated nodes.
    """
    known = set(all_concept_ids) if all_concept_ids is not None else None
    adj: dict[str, dict[str, int]] = {node: {} for node in sorted(known or ())}
    for seed_id, concept_ids in seed_concept_sets:
        ids = sorted(set(concept_ids))
        if known is not None:
            unknown = [c for c in ids if c not in known]
            if unknown:
                raise ValidationError(
                    f"seed {seed_id!r} references unknown concept ids {unknown}"
                )
        for node in ids:
            adj.setdefault(node, {})
        for a, b in itertools.combinations(ids, 2):
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    return ConceptGraph(adj)


def hop_distance(g: ConceptGraph, a: str, b: str) -> int | None:
    """Shortest-path length in edges between ``a`` and ``b``; None when
    unreachable; 0 for a node and itself."""
    g._require(a)
    g._require(b)
    dist, _, _ = g._layered_search(a, target=b)
    return dist.get(b)


def bottleneck_weight(g: ConceptGraph, a: str, b: str) -> float:
    """Maximum over all minimum-hop paths of the smallest edge weight along
    the path. For adjacent pairs this is the edge weight itself; for a == b
    it is +inf (empty path)."""
    g._require(a)
    g._require(b)
    dist, width, _ = g._layered_search(a, target=b)
    if b not in dist:
        raise ValidationError(f"no path between {a!r} and {b!r}")
    return width[b]


def enumerate_one_hop(g: ConceptGraph) -> list[ConceptCombination]:
    """One combination per explicit edge, sorted by pair ids."""
    return [
        ConceptCombination(kind="one_hop", concept_ids=[a, b], weight=w, witness=[a, b])
        for a, b, w in g.edges()
    ]


def pairs_at_distance(
    g: ConceptGraph,
    distance: int,
    sources: Iterable[str] | None = None,
) -> list[tuple[str, str, float, list[str]]]:
    """All unordered pairs at exactly ``distance`` hops, as
    (a, b, bottleneck_width, witness_path) with a < b, sorted.

    ``sources`` restricts one endpoint to the given set (used for
    hub-anchored enumeration); pairs qualifying from both endpoints are
    emitted once. The same machinery serves distances beyond three for
    quality-by-distance studies.
    """
    if distance < 1:
        raise ValidationError("distance must be >= 1")
    chosen = sorted(g.nodes if sources is None else set(sources))
    found: dict[tuple[str, str], tuple[float, list[str]]] = {}
    for src in chosen:
        dist, width, parent = g._layered_search(src, max_dist=distance)
        for node, d in dist.items():
            if d != distance:
                continue
            key = (src, node) if src < node else (node, src)
            if key in found:
                continue
            path = g._witness(parent, node)
            if key[0] != src:
                path = list(reversed(path))
            found[key] = (width[node], path)
    return [(a, b, w, path) for (a, b), (w, path) in sorted(found.items())]


def enumerate_two_hop(g: ConceptGraph) -> list[ConceptCombination]:
    """Pairs connected through exactly one intermediate node.

    Equal to ``pairs_at_distance(g, 2)`` in pairs, weights and witnesses,
    computed by middle-node expansion one source row at a time.
    """
    view = g._view
    adjacent = np.zeros(len(view.ids), dtype=bool)
    out: list[ConceptCombination] = []
    for a in range(len(view.ids)):
        ends, via, width = _two_hop_row(view, a, adjacent)
        out.extend(_two_hop_combo(view.ids, a, b, m, w) for b, m, w in zip(ends, via, width))
    return out


def _two_hop_paths(
    view: _IndexedView, a: int, adjacent: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every path ``a -> m -> b`` with ``b > a`` not adjacent to ``a``, as
    parallel arrays (end ``b``, middle ``m``, width). ``adjacent`` is an
    all-False scratch array over the nodes, left all-False on return."""
    indptr, indices, weights = view.indptr, view.indices, view.weights
    lo, hi = indptr[a], indptr[a + 1]
    mids = indices[lo:hi]
    starts = indptr[mids]
    counts = indptr[mids + 1] - starts
    # CSR position of every path a -> m -> b, grouped by m.
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    positions = shift + np.arange(shift.size)
    ends = indices[positions]
    adjacent[mids] = True
    keep = (ends > a) & ~adjacent[ends]
    adjacent[mids] = False
    via = np.repeat(mids, counts)[keep]
    width = np.minimum(np.repeat(weights[lo:hi], counts)[keep], weights[positions[keep]])
    return ends[keep], via, width


def _two_hop_row(
    view: _IndexedView, a: int, adjacent: np.ndarray
) -> tuple[list[int], list[int], list[int]]:
    """Row ``a``'s two-hop pairs as lists (end, middle, width), ends
    ascending: per end the widest path and, on a tie, the smallest middle."""
    ends, via, width = _two_hop_paths(view, a, adjacent)
    order = np.lexsort((via, -width, ends))
    ends, via, width = ends[order], via[order], width[order]
    first = np.ones(ends.size, dtype=bool)
    first[1:] = ends[1:] != ends[:-1]
    return ends[first].tolist(), via[first].tolist(), width[first].tolist()


def _two_hop_row_counts(view: _IndexedView) -> np.ndarray:
    """Number of two-hop pairs out of each source row, without building
    them: the distinct ends of the row's paths, counted after a sort."""
    adjacent = np.zeros(len(view.ids), dtype=bool)
    counts = np.zeros(len(view.ids), dtype=np.int64)
    for a in range(len(view.ids)):
        ends = np.sort(_two_hop_paths(view, a, adjacent)[0])
        if ends.size:
            counts[a] = 1 + np.count_nonzero(ends[1:] != ends[:-1])
    return counts


def _two_hop_combo(ids: list[str], a: int, b: int, m: int, w: int) -> ConceptCombination:
    return ConceptCombination(
        kind="two_hop", concept_ids=[ids[a], ids[b]], weight=w, witness=[ids[a], ids[m], ids[b]],
    )


def identify_hubs(g: ConceptGraph, fraction: float) -> HubSet:
    """Top ceil(fraction * |nodes|) nodes by degree; ties by ascending id."""
    if not 0 < fraction <= 1:
        raise ValidationError("hub fraction must be in (0, 1]")
    if g.node_count() == 0:
        raise ValidationError("cannot select hubs from an empty graph")
    k = max(1, math.ceil(fraction * g.node_count()))
    ranked = sorted(g.nodes, key=lambda n: (-g.degree(n), n))
    hubs = ranked[:k]
    return HubSet(
        hub_ids=set(hubs),
        min_degree_achieved=min(g.degree(n) for n in hubs),
    )


def enumerate_three_hop(
    g: ConceptGraph, hubs: HubSet, min_weight: float = 2
) -> list[ConceptCombination]:
    """Pairs (hub, other) at distance exactly 3 whose bottleneck weight
    reaches ``min_weight``; low-weight pairs are dropped."""
    return [
        ConceptCombination(kind="three_hop", concept_ids=[a, b], weight=w, witness=path)
        for a, b, w, path in pairs_at_distance(g, 3, sources=hubs.hub_ids)
        if w >= min_weight
    ]


def enumerate_communities(
    g: ConceptGraph,
    sizes: Iterable[int] = (3, 4),
    cap: int | None = None,
) -> list[ConceptCombination]:
    """All 3-cliques and 4-cliques, each weighted by its minimum internal
    edge weight. ``cap`` truncates each clique size deterministically after
    sorting by member ids; 3-cliques nested inside 4-cliques are kept.
    """
    sizes = _community_sizes(sizes)
    if cap is not None and cap < 0:
        raise ValidationError("cap must be >= 0")
    view = g._view
    out: list[ConceptCombination] = []
    for size in sizes:
        out.extend(_community_combo(view, members)
                   for members in itertools.islice(_cliques(view, (size,)), cap))
    return out


def _community_sizes(sizes: Iterable[int]) -> list[int]:
    sizes = sorted(set(sizes))
    if any(s not in (3, 4) for s in sizes):
        raise ValidationError("community sizes must be within {3, 4}")
    return sizes


def _cliques(view: _IndexedView, sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every clique whose size (3 or 4) is in ``sizes``, as an ascending
    index tuple, in tuple order, so a triangle comes just before the quads
    that extend it. Each clique is reached once, from its lowest member,
    through forward neighbour sets."""
    if not sizes:
        return
    triangles, quads = 3 in sizes, 4 in sizes
    forward = view.forward
    for a, fa in enumerate(forward):
        for b in fa:
            common = fa.keys() & forward[b].keys()
            for c in sorted(common):
                if triangles:
                    yield (a, b, c)
                if quads:
                    for d in sorted(common & forward[c].keys()):
                        yield (a, b, c, d)


def _capped_cliques(
    view: _IndexedView, sizes: Sequence[int], cap: int | None
) -> Iterator[tuple[int, ...]]:
    """``_cliques`` keeping only the first ``cap`` cliques of each size: the
    lists ``enumerate_communities`` builds, merged in tuple order."""
    kept = dict.fromkeys(sizes, 0)
    for members in _cliques(view, sizes):
        if cap is None or kept[len(members)] < cap:
            kept[len(members)] += 1
            yield members


def _community_combo(view: _IndexedView, members: tuple[int, ...]) -> ConceptCombination:
    return ConceptCombination(
        kind="community",
        concept_ids=[view.ids[i] for i in members],
        weight=_clique_weight(view, members),
    )


def _clique_weight(view: _IndexedView, members: tuple[int, ...]) -> int:
    """Minimum edge weight among ascending ``members``; raises when an edge
    is missing."""
    weights = []
    for u, v in itertools.combinations(members, 2):
        w = view.forward[u].get(v)
        if w is None:
            raise ValidationError(
                f"community {tuple(view.ids[i] for i in members)} is not a clique: "
                f"missing edge {view.ids[u]}-{view.ids[v]}"
            )
        weights.append(w)
    return min(weights)


def is_novel(
    combination: ConceptCombination,
    seed_concept_sets: Iterable[Iterable[str]],
) -> bool:
    """True when the combination's concept set is not contained in any seed
    example's concept set. Empty combinations are not novel by convention."""
    concepts = set(combination.concept_ids)
    if not concepts:
        return False
    return not any(concepts <= set(s) for s in seed_concept_sets)


# The one combination order: kind in this order, then the concept-id tuple.
_KIND_ORDER = ("community", "one_hop", "three_hop", "two_hop")


def _order_key(combo: ConceptCombination) -> tuple[int, list[str]]:
    return _KIND_ORDER.index(combo.kind), combo.concept_ids


def sample_combinations(
    combos: Sequence[ConceptCombination],
    budget: int | None,
    seed: int,
) -> list[ConceptCombination]:
    """Uniform sample without replacement, deterministic under ``seed``.

    The result is in combination order (kind, then concept-id tuple), which
    is ``combo_id`` order when no id holds a character at or below ``+``; a
    budget of None or >= len(combos) returns everything.
    """
    ordered = sorted(combos, key=_order_key)
    if budget is None or budget >= len(ordered):
        return ordered
    if budget < 0:
        raise ValidationError("budget must be >= 0")
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(ordered)), budget))
    return [ordered[i] for i in chosen]


def select_combinations(
    g: ConceptGraph,
    hubs: HubSet,
    *,
    min_weight: float = 2,
    sizes: Iterable[int] = (3, 4),
    cap: int | None = None,
    budget: int | None = None,
    seed: int = 0,
) -> tuple[list[ConceptCombination], dict[str, int], int]:
    """``sample_combinations`` over every kind, building only what it keeps.

    Returns ``(sampled, enumerated_by_kind, cap_truncated)``: the records
    ``sample_combinations(one_hop + two_hop + three_hop + communities,
    budget, seed)`` returns for the enumerators above (``min_weight`` for
    three-hop pairs, ``sizes`` and ``cap`` for communities), the number of
    combinations of each kind, and the number of cliques the cap dropped.

    The enumerators produce each kind in combination order, so the sampled
    ranks are drawn from the counts alone, with the same
    ``random.Random(seed)`` draw, and only the drawn two-hop rows and the
    cliques up to the last drawn one are walked again. One-hop and three-hop
    pairs are always built. A budget of None, or one at least the total,
    draws every rank.
    """
    sizes = _community_sizes(sizes)
    if cap is not None and cap < 0:
        raise ValidationError("cap must be >= 0")
    if budget is not None and budget < 0:
        raise ValidationError("budget must be >= 0")
    view = g._view
    one_hop = enumerate_one_hop(g)
    three_hop = enumerate_three_hop(g, hubs, min_weight=min_weight)
    row_counts = _two_hop_row_counts(view)
    cliques = dict.fromkeys(sizes, 0)
    for members in _cliques(view, sizes):
        cliques[len(members)] += 1
    kept = sum(n if cap is None else min(n, cap) for n in cliques.values())
    enumerated = {
        "one_hop": len(one_hop), "two_hop": int(row_counts.sum()),
        "three_hop": len(three_hop), "community": kept,
    }
    total = sum(enumerated.values())
    if budget is None or budget >= total:
        ranks: Sequence[int] = range(total)
    else:
        ranks = sorted(random.Random(seed).sample(range(total), budget))
    builders = {
        "community": lambda within: _cliques_at(view, within, sizes, cap),
        "one_hop": lambda within: [one_hop[r] for r in within],
        "three_hop": lambda within: [three_hop[r] for r in within],
        "two_hop": lambda within: _two_hop_at(view, within, row_counts),
    }
    sampled: list[ConceptCombination] = []
    start = lo = 0
    for kind in _KIND_ORDER:
        end = start + enumerated[kind]
        hi = bisect.bisect_left(ranks, end, lo)
        sampled.extend(builders[kind]([r - start for r in ranks[lo:hi]]))
        start, lo = end, hi
    return sampled, enumerated, sum(cliques.values()) - kept


def _cliques_at(
    view: _IndexedView, within: list[int], sizes: Sequence[int], cap: int | None
) -> list[ConceptCombination]:
    """The capped cliques at ascending ranks ``within``, walking the lister
    only up to the last of them."""
    cliques, position = _capped_cliques(view, sizes, cap), 0
    out = []
    for rank in within:
        out.append(_community_combo(view, next(itertools.islice(cliques, rank - position, None))))
        position = rank + 1
    return out


def _two_hop_at(
    view: _IndexedView, within: list[int], row_counts: np.ndarray
) -> list[ConceptCombination]:
    """The two-hop pairs at ascending ranks ``within``, given the pairs per
    source row: only the rows holding a rank are expanded again."""
    ranks = np.array(within, dtype=np.int64)
    row_ends = np.cumsum(row_counts)
    rows = np.searchsorted(row_ends, ranks, side="right")
    offsets = ranks - (row_ends[rows] - row_counts[rows])
    adjacent = np.zeros(len(view.ids), dtype=bool)
    out: list[ConceptCombination] = []
    for a, group in itertools.groupby(zip(rows.tolist(), offsets.tolist()), key=lambda x: x[0]):
        ends, via, width = _two_hop_row(view, a, adjacent)
        out.extend(_two_hop_combo(view.ids, a, ends[k], via[k], width[k]) for _, k in group)
    return out
