"""Weighted concept co-occurrence graph and combination enumeration.

Nodes are concept ids; an (undirected) edge records how many seed examples
mention both endpoints. Pairs at hop distance greater than one are never
materialized as edges: distances are answered on demand by a layered
search, which is all the enumeration below ever needs (distances are capped
at three hops).

Combination kinds:

* ``one_hop``    - directly connected pairs (weight = co-occurrence count)
* ``two_hop``    - pairs at distance exactly 2
* ``three_hop``  - pairs at distance exactly 3 with at least one hub endpoint
* ``community``  - 3- or 4-cliques (weight = minimum internal edge weight)

For multi-hop pairs, "weight" is the bottleneck weight: the maximum over all
minimum-hop paths of the smallest edge weight on the path. It degenerates to
the plain edge weight at distance one and favors pairs linked through
well-attested co-occurrences.

The graph is one immutable integer index: ``build_graph`` counts the pairs
and hands them over once. Nodes are numbered in sorted-id order, so index
order is id order; neighbours and weights sit in CSR arrays (compressed
sparse rows), and each node keeps its forward (higher-index) neighbours with
their weights.

* Every hop distance is answered by one layered search over the CSR arrays.
  Each layer gathers, with numpy, every edge ``u -> v`` from the frontier
  into a node not yet reached, of width ``min(width(u), w(u, v))``, and
  keeps per ``v`` the widest path and, on a tie, the smallest predecessor
  ``u``. So a node's width is its widest-shortest-path weight, and its
  predecessors spell one witness path. ``pairs_at_distance`` runs it from
  each source; two-hop pairs are its second layer from each node ``a``, cut
  to ends above ``a``, so the witness is ``[a, m, b]``. It also answers
  distance and bottleneck queries: a pair is at distance d exactly when
  ``pairs_at_distance(g, d)`` lists it, and the third field of its entry is
  its bottleneck weight.
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
by searching again from the rows that hold a drawn rank, cliques by walking
the capped lister up to the last drawn one. One-hop and three-hop pairs are
always built, but the search drops every three-hop pair below the weight
floor before it builds the pair or its witness. The draw holds 8 bytes per
rank of the total where ``random.sample`` would hold a Python int object,
and a budget of None draws every rank.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import is_int
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


class ConceptGraph:
    """Immutable; all queries are pure and thread-safe. Made by
    ``build_graph``, which hands over the count of every co-occurring pair.

    ``ids[i]`` is the i-th node id in sorted order and ``index`` maps an id
    back to ``i``. Row ``i``'s neighbours are
    ``indices[indptr[i]:indptr[i + 1]]`` in ascending order, with edge
    weights at the same positions of ``weights``. ``forward[i]`` maps each
    neighbour ``j > i`` to the edge weight, in ascending order of ``j``.
    """

    def __init__(self, nodes: Iterable[str], pairs: Mapping[tuple[str, str], int]) -> None:
        """``pairs`` maps each edge ``(a, b)``, with ``a < b``, to its weight."""
        self.ids = sorted(nodes)
        self.index = {node: i for i, node in enumerate(self.ids)}
        n, m = len(self.ids), len(pairs)
        low = np.fromiter((self.index[a] for a, _ in pairs), dtype=np.int64, count=m)
        high = np.fromiter((self.index[b] for _, b in pairs), dtype=np.int64, count=m)
        weight = np.fromiter(pairs.values(), dtype=np.int64, count=m)
        order = np.lexsort((high, low))
        self.forward: list[dict[int, int]] = [{} for _ in range(n)]
        for a, b, w in zip(low[order].tolist(), high[order].tolist(), weight[order].tolist()):
            self.forward[a][b] = w
        rows, cols = np.concatenate([low, high]), np.concatenate([high, low])
        order = np.lexsort((cols, rows))
        self.indices = cols[order]
        self.weights = np.concatenate([weight, weight])[order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])

    # -- views ----------------------------------------------------------------

    @property
    def nodes(self) -> set[str]:
        return set(self.ids)

    def node_count(self) -> int:
        return len(self.ids)

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, node: str) -> int:
        i = self._position(node)
        return int(self.indptr[i + 1] - self.indptr[i])

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """All edges as (a, b, weight) with a < b, sorted, one at a time."""
        ids = self.ids
        for a, fa in enumerate(self.forward):
            for b, w in fa.items():
                yield ids[a], ids[b], w

    def _position(self, node: str) -> int:
        try:
            return self.index[node]
        except KeyError:
            raise ValidationError(f"unknown concept id {node!r}") from None


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
    nodes = set(known or ())
    pairs: Counter[tuple[str, str]] = Counter()
    for seed_id, concept_ids in seed_concept_sets:
        ids = sorted(set(concept_ids))
        if known is not None:
            unknown = [c for c in ids if c not in known]
            if unknown:
                raise ValidationError(
                    f"seed {seed_id!r} references unknown concept ids {unknown}"
                )
        nodes.update(ids)
        pairs.update(itertools.combinations(ids, 2))
    return ConceptGraph(nodes, pairs)


def enumerate_one_hop(g: ConceptGraph) -> list[ConceptCombination]:
    """One combination per explicit edge, sorted by pair ids."""
    return [
        ConceptCombination(kind="one_hop", concept_ids=[a, b], weight=w, witness=[a, b])
        for a, b, w in g.edges()
    ]


# -- the layered search ---------------------------------------------------------

# Parallel arrays (end, predecessor, width): paths, one per entry.
_Paths = tuple[np.ndarray, np.ndarray, np.ndarray]


def _gather(g: ConceptGraph, frontier: np.ndarray, width: np.ndarray, seen: np.ndarray) -> _Paths:
    """Every edge ``u -> v`` from a node ``u`` of ``frontier`` into a node
    ``v`` not ``seen``, as paths of width ``min(width(u), w(u, v))``, where
    ``width`` is parallel to ``frontier``. They are listed by ``u`` in
    ``frontier`` order."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    # CSR position of every edge out of the frontier, grouped by u.
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    positions = shift + np.arange(shift.size)
    ends = g.indices[positions]
    keep = ~seen[ends]
    via = np.repeat(frontier, counts)[keep]
    width = np.minimum(np.repeat(width, counts)[keep], g.weights[positions[keep]])
    return ends[keep], via, width


def _widest(ends: np.ndarray, via: np.ndarray, width: np.ndarray) -> _Paths:
    """Per end, its widest path and, on a tie, the one with the smallest
    predecessor; ends ascending. The paths must be listed by ascending
    predecessor, as ``_gather`` lists them from an ascending frontier."""
    order = np.lexsort((-width, ends))  # stable, so ties keep predecessor order
    ends, via, width = ends[order], via[order], width[order]
    first = np.ones(ends.size, dtype=bool)
    first[1:] = ends[1:] != ends[:-1]
    return ends[first], via[first], width[first]


def _search(
    g: ConceptGraph, source: int, depth: int, seen: np.ndarray
) -> tuple[list[_Paths], _Paths]:
    """The layered search from ``source``: the nodes first reached at each
    distance below ``depth``, as ``_widest`` layers, and every path into a
    node first reached at ``depth``, as ``_gather`` lists it, so a caller
    picks only the paths it keeps.

    By dynamic programming over the layers, a node's width is the bottleneck
    weight over its shortest paths from ``source``, and its predecessor the
    smallest one on such a path. ``seen`` is an all-False scratch array over
    the nodes, left all-False on return.
    """
    lo, hi = g.indptr[source], g.indptr[source + 1]
    paths = g.indices[lo:hi], np.full(hi - lo, source), g.weights[lo:hi]
    seen[source] = True
    layers: list[_Paths] = []
    while len(layers) < depth - 1:
        # The source's row holds one path per end already.
        layer = _widest(*paths) if layers else paths
        seen[layer[0]] = True
        layers.append(layer)
        paths = _gather(g, layer[0], layer[2], seen)
    seen[source] = False
    for reached, _, _ in layers:
        seen[reached] = False
    return layers, paths


def pairs_at_distance(
    g: ConceptGraph,
    distance: int,
    sources: Iterable[str] | None = None,
    min_width: float | None = None,
) -> list[tuple[str, str, float, list[str]]]:
    """All unordered pairs at exactly ``distance`` hops, as
    (a, b, bottleneck_width, witness_path) with a < b, sorted.

    ``sources`` restricts one endpoint to the given set (used for
    hub-anchored enumeration); pairs qualifying from both endpoints are
    emitted once, with the witness found from the smaller source. The same
    search serves distances beyond three for quality-by-distance studies.

    ``min_width`` drops every pair whose bottleneck width is below it as
    soon as the last layer is reached, before its witness is walked, so
    memory follows the pairs kept. A pair's width is the same from either
    end, so the pairs kept and their witnesses are those of the unfiltered
    list.
    """
    if distance < 1:
        raise ValidationError("distance must be >= 1")
    chosen = range(g.node_count()) if sources is None else sorted(
        {g._position(s) for s in sources})
    seen = np.zeros(g.node_count(), dtype=bool)
    parent = np.zeros(g.node_count(), dtype=np.int64)
    found: dict[tuple[int, int], tuple[int, list[int]]] = {}
    for src in chosen:
        layers, paths = _search(g, src, distance, seen)
        layers.append(_widest(*paths))
        for reached, via, _ in layers:
            parent[reached] = via
        ends, _, width = layers[-1]
        if min_width is not None:
            keep = width >= min_width
            ends, width = ends[keep], width[keep]
        for v, w in zip(ends.tolist(), width.tolist()):
            key = (src, v) if src < v else (v, src)
            if key in found:
                continue
            path = [v]  # from v back to src
            for _ in range(distance):
                path.append(int(parent[path[-1]]))
            found[key] = (w, path if v < src else path[::-1])
    ids = g.ids
    return [(ids[a], ids[b], w, [ids[i] for i in path])
            for (a, b), (w, path) in sorted(found.items())]


def enumerate_two_hop(g: ConceptGraph) -> list[ConceptCombination]:
    """Pairs connected through exactly one intermediate node, as
    ``pairs_at_distance(g, 2)`` lists them, one source row at a time."""
    seen = np.zeros(g.node_count(), dtype=bool)
    out: list[ConceptCombination] = []
    for a in range(g.node_count()):
        ends, via, width = (x.tolist() for x in _two_hop_row(g, a, seen))
        out.extend(_two_hop_combo(g.ids, a, b, m, w) for b, m, w in zip(ends, via, width))
    return out


def _two_hop_row(g: ConceptGraph, a: int, seen: np.ndarray) -> _Paths:
    """Row ``a``'s two-hop pairs as ``_widest`` paths (end, middle, width):
    the search's second layer from ``a``, cut to ends above ``a``."""
    ends, via, width = _search(g, a, 2, seen)[1]
    keep = ends > a
    return _widest(ends[keep], via[keep], width[keep])


def _two_hop_row_counts(g: ConceptGraph) -> np.ndarray:
    """Number of two-hop pairs out of each source row: the distinct ends
    above it of the search's second layer, with no path picked."""
    seen = np.zeros(g.node_count(), dtype=bool)
    counts = np.zeros(g.node_count(), dtype=np.int64)
    for a in range(g.node_count()):
        ends = _search(g, a, 2, seen)[1][0]
        ends = np.sort(ends[ends > a])
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
    degrees = np.diff(g.indptr)
    hubs = np.argsort(-degrees, kind="stable")[:k]  # ties in index order, which is id order
    return HubSet(
        hub_ids={g.ids[i] for i in hubs.tolist()},
        min_degree_achieved=int(degrees[hubs].min()),
    )


def enumerate_three_hop(
    g: ConceptGraph, hubs: HubSet, min_weight: float = 2
) -> list[ConceptCombination]:
    """Pairs (hub, other) at distance exactly 3 whose bottleneck weight
    reaches ``min_weight``; low-weight pairs are dropped by the search,
    before they are built."""
    return [
        ConceptCombination(kind="three_hop", concept_ids=[a, b], weight=w, witness=path)
        for a, b, w, path in pairs_at_distance(
            g, 3, sources=hubs.hub_ids, min_width=min_weight)
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
    out: list[ConceptCombination] = []
    for size in sizes:
        out.extend(_community_combo(g, members)
                   for members in itertools.islice(_cliques(g, (size,)), cap))
    return out


def _community_sizes(sizes: Iterable[int]) -> list[int]:
    sizes = list(sizes)
    if not all(is_int(s) and s in (3, 4) for s in sizes):
        raise ValidationError("community sizes must be integers within {3, 4}")
    return sorted(set(sizes))


def _cliques(g: ConceptGraph, sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every clique whose size (3 or 4) is in ``sizes``, as an ascending
    index tuple, in tuple order, so a triangle comes just before the quads
    that extend it. Each clique is reached once, from its lowest member,
    through forward neighbour sets."""
    if not sizes:
        return
    triangles, quads = 3 in sizes, 4 in sizes
    forward = g.forward
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
    g: ConceptGraph, sizes: Sequence[int], cap: int | None
) -> Iterator[tuple[int, ...]]:
    """``_cliques`` keeping only the first ``cap`` cliques of each size: the
    lists ``enumerate_communities`` builds, merged in tuple order."""
    kept = dict.fromkeys(sizes, 0)
    for members in _cliques(g, sizes):
        if cap is None or kept[len(members)] < cap:
            kept[len(members)] += 1
            yield members


def _community_combo(g: ConceptGraph, members: tuple[int, ...]) -> ConceptCombination:
    return ConceptCombination(
        kind="community",
        concept_ids=[g.ids[i] for i in members],
        weight=_clique_weight(g, members),
    )


def _clique_weight(g: ConceptGraph, members: tuple[int, ...]) -> int:
    """Minimum edge weight among the ascending indices of a clique."""
    return min(g.forward[u][v] for u, v in itertools.combinations(members, 2))


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


class Selection:
    """The combinations ``select_combinations`` keeps, built on demand.

    ``enumerated`` counts the combinations of each kind, ``cap_truncated``
    the cliques the community cap dropped, and ``sampled_by_kind`` the kept
    combinations of each kind that keeps any. Iterating builds the kept
    records kind by kind, in combination order; between iterations only
    their ranks are held.
    """

    def __init__(
        self,
        enumerated: dict[str, int],
        cap_truncated: int,
        ranks: dict[str, np.ndarray],
        builders: dict[str, Callable[[np.ndarray], Iterable[ConceptCombination]]],
    ) -> None:
        self.enumerated = enumerated
        self.cap_truncated = cap_truncated
        self.sampled_by_kind = {kind: len(r) for kind, r in ranks.items() if len(r)}
        self._ranks = ranks
        self._builders = builders

    def __len__(self) -> int:
        return sum(self.sampled_by_kind.values())

    def __iter__(self) -> Iterator[ConceptCombination]:
        for kind in _KIND_ORDER:
            yield from self._builders[kind](self._ranks[kind])


def select_combinations(
    g: ConceptGraph,
    hubs: HubSet,
    *,
    min_weight: float = 2,
    sizes: Iterable[int] = (3, 4),
    cap: int | None = None,
    budget: int | None = None,
    seed: int = 0,
) -> Selection:
    """``sample_combinations`` over every kind, building only what it keeps.

    Iterating the returned ``Selection`` yields the records
    ``sample_combinations(one_hop + two_hop + three_hop + communities,
    budget, seed)`` returns for the enumerators above (``min_weight`` for
    three-hop pairs, ``sizes`` and ``cap`` for communities); it also counts
    the combinations of each kind and the cliques the cap dropped.

    The enumerators produce each kind in combination order, so the sampled
    ranks are drawn from the counts alone, with the same
    ``random.Random(seed)`` draw, and only the drawn two-hop rows and the
    cliques up to the last drawn one are walked again, as the records are
    iterated. One-hop and three-hop pairs are always built, three-hop pairs
    only above ``min_weight``. A budget of None, or one at least the total,
    draws every rank.
    """
    sizes = _community_sizes(sizes)
    if cap is not None and cap < 0:
        raise ValidationError("cap must be >= 0")
    if budget is not None and budget < 0:
        raise ValidationError("budget must be >= 0")
    one_hop = enumerate_one_hop(g)
    three_hop = enumerate_three_hop(g, hubs, min_weight=min_weight)
    row_counts = _two_hop_row_counts(g)
    cliques = dict.fromkeys(sizes, 0)
    for members in _cliques(g, sizes):
        cliques[len(members)] += 1
    kept = sum(n if cap is None else min(n, cap) for n in cliques.values())
    enumerated = {
        "one_hop": len(one_hop), "two_hop": int(row_counts.sum()),
        "three_hop": len(three_hop), "community": kept,
    }
    total = sum(enumerated.values())
    if budget is None or budget >= total:
        ranks = np.arange(total, dtype=np.int64)
    else:
        ranks = _draw_ranks(total, budget, seed)
    # Each kind's drawn ranks, counted from the kind's first combination.
    within: dict[str, np.ndarray] = {}
    start = 0
    for kind in _KIND_ORDER:
        end = start + enumerated[kind]
        lo, hi = np.searchsorted(ranks, [start, end])
        within[kind] = ranks[lo:hi] - start
        start = end
    builders = {
        "community": lambda drawn: _cliques_at(g, drawn, sizes, cap),
        "one_hop": lambda drawn: (one_hop[r] for r in drawn.tolist()),
        "three_hop": lambda drawn: (three_hop[r] for r in drawn.tolist()),
        "two_hop": lambda drawn: _two_hop_at(g, drawn, row_counts),
    }
    return Selection(enumerated, sum(cliques.values()) - kept, within, builders)


def _draw_ranks(total: int, budget: int, seed: int) -> np.ndarray:
    """``sorted(random.Random(seed).sample(range(total), budget))`` as an
    int64 array, holding 8 bytes per rank instead of a Python int.

    It takes ``Random.sample``'s branch for the same sizes and makes the
    same ``randrange`` calls, each ``sample``'s ``_randbelow`` of the same
    bound. When a list of the population is no larger than a set of the
    sample, ``sample`` swap-removes from a copy of the population: here the
    drawn value is swapped to the pool's tail, which leaves the rest of the
    pool as ``sample`` leaves it, so the tail ends up holding the sample.
    Otherwise ``sample`` redraws values already in its set of drawn ones,
    and the set is the sample.
    """
    rng = random.Random(seed)
    setsize = 21  # as in Random.sample: a small set minus an empty list
    if budget > 5:
        setsize += 4 ** math.ceil(math.log(budget * 3, 4))
    if total <= setsize:
        pool = array("q", range(total))
        for i in range(budget):
            j, last = rng.randrange(total - i), total - i - 1
            pool[j], pool[last] = pool[last], pool[j]
        return np.sort(np.frombuffer(pool, dtype=np.int64)[total - budget:])
    drawn: set[int] = set()
    for _ in range(budget):
        j = rng.randrange(total)
        while j in drawn:
            j = rng.randrange(total)
        drawn.add(j)
    return np.sort(np.fromiter(drawn, dtype=np.int64, count=budget))


def _cliques_at(
    g: ConceptGraph, within: np.ndarray, sizes: Sequence[int], cap: int | None
) -> Iterator[ConceptCombination]:
    """The capped cliques at ascending ranks ``within``, walking the lister
    only up to the last of them."""
    cliques, position = _capped_cliques(g, sizes, cap), 0
    for rank in within.tolist():
        yield _community_combo(g, next(itertools.islice(cliques, rank - position, None)))
        position = rank + 1


def _two_hop_at(
    g: ConceptGraph, within: np.ndarray, row_counts: np.ndarray
) -> Iterator[ConceptCombination]:
    """The two-hop pairs at ascending ranks ``within``, given the pairs per
    source row: the search runs again only from the rows holding a rank."""
    row_ends = np.cumsum(row_counts)
    rows = np.searchsorted(row_ends, within, side="right")
    offsets = within - (row_ends[rows] - row_counts[rows])
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))  # where each row's ranks start
    seen = np.zeros(g.node_count(), dtype=bool)
    for a, ks in zip(rows[firsts].tolist(), np.split(offsets, firsts[1:])):
        ends, via, width = (x.tolist() for x in _two_hop_row(g, a, seen))
        for k in ks.tolist():
            yield _two_hop_combo(g.ids, a, ends[k], via[k], width[k])
