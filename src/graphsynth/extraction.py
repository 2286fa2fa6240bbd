"""Turns seed examples into a deduplicated, quality-filtered knowledge base.

Stages: per-seed concept extraction, judge-based quality filtering,
embedding-similarity banding with judge confirmation of borderline pairs,
single-linkage clustering of the merge relation, and representative
selection per cluster.

Only non-distinct pairs (cosine at or above the judge band) are ever
materialised as verdicts: a concept pair with no verdict is distinct, so
the similarity tail holds the candidate pairs rather than all K(K-1)/2.

Failure posture is asymmetric on purpose: a quality judge that cannot be
parsed keeps the concept (losing one bad concept is cheaper than losing a
good one), while a synonym judge that cannot be parsed refuses the merge
(wrongly fusing two distinct concepts poisons the graph). A judge call
that fails outright is treated the same way by the extract stage, and a
representative pick that fails falls back to the cluster's shortest member.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ._util import canonicalize, content_hash, parse_yes_no
from .backends import BackendClient, BackendDescriptor
from .errors import ExtractionError, ValidationError
from .store import MAX_CONCEPTS_PER_SEED, SYNTHETIC_PROVENANCE, KeyConcept, SeedExample, concept_id_for

logger = logging.getLogger(__name__)

SAME_BAND_THRESHOLD = 0.90
JUDGE_BAND_THRESHOLD = 0.70
# Rows and columns of the cosine tiles computed by pairwise_similarity:
# 256 x 1,024 float64 is 2 MiB.
SIMILARITY_TILE = (256, 1024)

BANDS = ("distinct", "judge_checked", "same")
QUALITY_CATEGORIES = ("ok", "vague", "incorrect", "overly_detailed")

EXTRACT_PROMPT = """TASK: extract-concepts
Read the problem and its solution below. Identify the distinct knowledge
points (named theorems, formulas, properties, or standard techniques) that
the solution actually uses. Rules: use precise technical names, list each
point once, keep points atomic, skip generic skills, and give at most five.
Reply with a numbered list only, one knowledge point per line.

Problem:
{question}

Solution:
{solution}
"""

QUALITY_PROMPT = """TASK: quality-check
Concept: "{concept}"
Decide whether this knowledge-point phrase is usable as-is. Reply with a
single word: "vague" if it is too broad to pin down, "incorrect" if it
states something mathematically false, "overly_detailed" if it bakes in a
specific problem instance, or "ok" otherwise.
"""

SYNONYM_PROMPT = """TASK: synonym-check
A: "{a}"
B: "{b}"
Do these two phrases name the same mathematical concept? Answer with a
single word, YES or NO.
"""

REPRESENTATIVE_PROMPT = """TASK: pick-representative
The phrases below all name roughly the same mathematical concept. Reply
with the one phrase that states it most accurately, copied verbatim. If
none of them is adequate, reply with a better phrase of your own.
{members}
"""

_NUMBERED_RE = re.compile(r"^\s*\d+[.)]\s*(.+?)\s*$")
_BULLET_RE = re.compile(r"^\s*[-*•]\s*(.+?)\s*$")


@dataclass
class SimilarityVerdict:
    """Band assignment for one unordered concept pair."""

    pair: tuple[str, str]
    cosine: float
    band: str
    judge_confirmed: bool | None = None

    def __post_init__(self) -> None:
        if self.band not in BANDS:
            raise ValidationError(f"unknown band {self.band!r}")
        if (self.judge_confirmed is not None) and self.band != "judge_checked":
            raise ValidationError("judge_confirmed only applies to judge_checked pairs")


@dataclass
class ConceptCluster:
    """A group of concepts judged to mean the same thing."""

    cluster_id: str
    member_ids: set[str]
    representative_id: str | None = None

    def to_record(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "member_ids": sorted(self.member_ids),
            "representative_id": self.representative_id,
        }


@dataclass
class QualityVerdict:
    """Judge outcome for one concept's quality check."""

    concept_id: str
    kept: bool
    category: str
    review: bool = False


def band_for_cosine(
    cosine: float,
    same_threshold: float = SAME_BAND_THRESHOLD,
    judge_threshold: float = JUDGE_BAND_THRESHOLD,
) -> str:
    """Threshold function: >= 0.90 same, [0.70, 0.90) judge_checked,
    < 0.70 distinct. The upper threshold is inclusive."""
    if cosine >= same_threshold:
        return "same"
    if cosine >= judge_threshold:
        return "judge_checked"
    return "distinct"


def parse_concept_list(raw: str) -> list[str]:
    """Parse a numbered list of phrases; bulleted lists accepted as fallback."""
    lines = raw.splitlines()
    phrases = [m.group(1) for line in lines if (m := _NUMBERED_RE.match(line))]
    if not phrases:
        phrases = [m.group(1) for line in lines if (m := _BULLET_RE.match(line))]
    out: list[str] = []
    for phrase in phrases:
        canon = canonicalize(phrase)
        if canon and canon not in out:
            out.append(canon)
    return out


def extract_concepts(
    seed: SeedExample,
    extractor: BackendDescriptor,
    client: BackendClient,
) -> list[str]:
    """Extract 1-5 distinct concept phrases for one seed.

    Output beyond five phrases is truncated to the first five with a
    warning; an output that parses to nothing raises ExtractionError
    carrying the raw model text.
    """
    if not seed.question.strip():
        raise ValidationError(f"seed {seed.id!r}: empty question")
    prompt = EXTRACT_PROMPT.format(question=seed.question, solution=seed.solution)
    output = client.complete(extractor, prompt)
    phrases = parse_concept_list(output)
    if not phrases:
        raise ExtractionError(
            f"seed {seed.id!r}: could not parse any concept from extractor output",
            raw_output=output,
        )
    if len(phrases) > MAX_CONCEPTS_PER_SEED:
        logger.warning(
            "seed %s: extractor returned %d concepts, keeping the first %d",
            seed.id, len(phrases), MAX_CONCEPTS_PER_SEED,
        )
        phrases = phrases[:MAX_CONCEPTS_PER_SEED]
    return phrases


def filter_low_quality(
    concept: KeyConcept,
    judge: BackendDescriptor,
    client: BackendClient,
) -> QualityVerdict:
    """Label one concept kept/rejected with the judge's category.

    Unparseable judge output keeps the concept and flags it for review
    (fail-open).
    """
    reply = client.complete(judge, QUALITY_PROMPT.format(concept=concept.text))
    category = _parse_category(reply)
    if category is None:
        logger.warning("quality judge unparseable for %s; keeping with review flag", concept.id)
        return QualityVerdict(concept.id, kept=True, category="ok", review=True)
    return QualityVerdict(concept.id, kept=(category == "ok"), category=category)


def _parse_category(raw: str) -> str | None:
    tokens = re.findall(r"[a-z_]+", raw.lower())
    for token in reversed(tokens):
        if token in QUALITY_CATEGORIES:
            return token
    return None


def pairwise_similarity(
    concepts: Sequence[KeyConcept],
    embedder: BackendDescriptor,
    client: BackendClient,
    same_threshold: float = SAME_BAND_THRESHOLD,
    judge_threshold: float = JUDGE_BAND_THRESHOLD,
) -> list[SimilarityVerdict]:
    """Banded verdicts for the non-distinct concept pairs only.

    The concepts are sorted by id and embedded in batches
    (:meth:`BackendClient.embed_batched`) into one K x d array. Cosines on
    its unit rows are computed in ``SIMILARITY_TILE`` tiles, skipping those
    below the diagonal, and a verdict is built only for a pair whose band is
    ``same`` or ``judge_checked``. Every pair left out is distinct. Each pair
    is ordered by concept id and the list is sorted by pair. Memory is the
    embeddings, one tile and the kept pairs, not K(K-1)/2 verdicts.
    Only the kept cosines are clipped to [-1, 1]; for a threshold in [0, 1]
    the clip cannot move a cosine across it, so both must lie there.
    """
    if len(concepts) < 2:
        raise ValidationError("pairwise_similarity requires at least two concepts")
    if not (0.0 <= same_threshold <= 1.0 and 0.0 <= judge_threshold <= 1.0):
        raise ValidationError("pairwise_similarity thresholds must lie within [0, 1]")
    concepts = sorted(concepts, key=lambda c: c.id)
    ids = [c.id for c in concepts]
    vectors = client.embed_batched(embedder, [canonicalize(c.text) for c in concepts])
    # band_for_cosine checks "same" first, so the lower threshold decides
    # which pairs are non-distinct.
    floor = min(same_threshold, judge_threshold)
    tile_rows, tile_cols = SIMILARITY_TILE
    verdicts = []
    for r0 in range(0, len(ids), tile_rows):
        band = vectors[r0:r0 + tile_rows]
        kept_rows, kept_cols, kept_cosines = [], [], []
        # Column tiles start at the band's first row: none lies wholly below
        # the diagonal.
        for c0 in range(r0, len(ids), tile_cols):
            tile = band @ vectors[c0:c0 + tile_cols].T
            rows, cols = np.nonzero(tile >= floor)
            cosines = tile[rows, cols]
            rows += r0
            cols += c0
            upper = cols > rows
            kept_rows.append(rows[upper])
            kept_cols.append(cols[upper])
            kept_cosines.append(cosines[upper])
        rows, cols = np.concatenate(kept_rows), np.concatenate(kept_cols)
        order = np.lexsort((cols, rows))
        cosines = np.clip(np.concatenate(kept_cosines)[order], -1.0, 1.0)
        for r, c, cosine in zip(rows[order].tolist(), cols[order].tolist(), cosines.tolist()):
            verdicts.append(
                SimilarityVerdict(
                    pair=(ids[r], ids[c]),
                    cosine=cosine,
                    band=band_for_cosine(cosine, same_threshold, judge_threshold),
                )
            )
    return verdicts


def confirm_synonyms(
    verdict: SimilarityVerdict,
    concepts_by_id: Mapping[str, KeyConcept],
    judge: BackendDescriptor,
    client: BackendClient,
) -> bool:
    """Ask the judge whether one borderline pair names the same concept;
    other bands are refused.

    A judge reply that parses to neither YES nor NO counts as NO: merging
    is only done on explicit confirmation.
    """
    if verdict.band != "judge_checked":
        raise ValidationError(
            f"confirm_synonyms only accepts judge_checked pairs, got {verdict.band!r}"
        )
    a = concepts_by_id[verdict.pair[0]].text
    b = concepts_by_id[verdict.pair[1]].text
    return bool(parse_yes_no(client.complete(judge, SYNONYM_PROMPT.format(a=a, b=b))))


def build_clusters(
    concepts: Sequence[KeyConcept],
    verdicts: Sequence[SimilarityVerdict],
) -> list[ConceptCluster]:
    """Single-linkage closure of the merge relation.

    Merge edges are same-band pairs plus judge-confirmed borderline pairs;
    clusters are the connected components, so the partition does not depend
    on input order. A pair absent from ``verdicts`` is distinct, so the
    non-distinct list from :func:`pairwise_similarity` is enough. Singletons
    form their own clusters.
    """
    ids = sorted(c.id for c in concepts)
    id_set = set(ids)
    parent = {i: i for i in ids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: str, y: str) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            # Anchor on the smaller root id for deterministic components.
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry

    for verdict in verdicts:
        a, b = verdict.pair
        if a not in id_set or b not in id_set:
            raise ValidationError(f"verdict references unknown concept in {verdict.pair}")
        merge = verdict.band == "same" or (
            verdict.band == "judge_checked" and verdict.judge_confirmed is True
        )
        if merge:
            union(a, b)

    members: dict[str, set[str]] = {}
    for cid in ids:
        members.setdefault(find(cid), set()).add(cid)
    clusters = [
        ConceptCluster(cluster_id=f"cluster-{root}", member_ids=group)
        for root, group in sorted(members.items())
    ]
    return clusters


def pick_representative(
    members: Sequence[KeyConcept],
    judge: BackendDescriptor,
    client: BackendClient,
) -> str | None:
    """The judge's phrase for one multi-member cluster, whose ``members``
    are listed in the order given; None for an empty reply."""
    listing = "\n".join(f"{i}. {m.text}" for i, m in enumerate(members, start=1))
    reply = client.complete(judge, REPRESENTATIVE_PROMPT.format(members=listing))
    return canonicalize(reply) or None


def select_representatives(
    clusters: Sequence[ConceptCluster],
    concepts_by_id: Mapping[str, KeyConcept],
    picks: Mapping[str, str | None],
) -> tuple[list[ConceptCluster], list[KeyConcept]]:
    """Pick exactly one representative per cluster.

    Single-member clusters keep their member. For larger clusters
    ``picks`` maps the cluster id to the judge's reply from
    :func:`pick_representative`: a reply matching a member (on
    canonicalized text) picks it, and any other reply becomes a new
    synthetic concept whose provenance is the synthetic-summary marker. A
    cluster with no pick (the judge call failed or replied nothing) falls
    back to the shortest member text, ties broken by id.

    Returns the filled clusters plus the final concept list with statuses
    updated (members -> clustered, representatives -> representative).
    """
    filled: list[ConceptCluster] = []
    final_concepts: dict[str, KeyConcept] = {
        c.id: KeyConcept(id=c.id, text=c.text, status=c.status,
                         cluster_id=c.cluster_id, provenance=list(c.provenance))
        for c in concepts_by_id.values()
    }
    for cluster in sorted(clusters, key=lambda c: c.cluster_id):
        member_ids = sorted(cluster.member_ids)
        members = [final_concepts[m] for m in member_ids]
        if len(members) == 1:
            rep_id = members[0].id
        else:
            shortest = min(members, key=lambda m: (len(m.text), m.id)).text
            choice = canonicalize(picks.get(cluster.cluster_id) or shortest)
            match = next((m for m in members if canonicalize(m.text) == choice), None)
            if match is not None:
                rep_id = match.id
            else:
                synthetic = KeyConcept(
                    id="kc-syn-" + content_hash(cluster.cluster_id, choice)[:12],
                    text=choice,
                    status="representative",
                    cluster_id=cluster.cluster_id,
                    provenance=[SYNTHETIC_PROVENANCE],
                )
                final_concepts[synthetic.id] = synthetic
                rep_id = synthetic.id
        # A synthetic representative stays outside member_ids; members are
        # always the original surviving concepts.
        for mid in cluster.member_ids:
            concept = final_concepts[mid]
            concept.cluster_id = cluster.cluster_id
            concept.status = "representative" if mid == rep_id else "clustered"
        rep = final_concepts[rep_id]
        rep.cluster_id = cluster.cluster_id
        rep.status = "representative"
        filled.append(
            ConceptCluster(
                cluster_id=cluster.cluster_id,
                member_ids=set(cluster.member_ids),
                representative_id=rep_id,
            )
        )
    return filled, [final_concepts[k] for k in sorted(final_concepts)]


def assign_seed_concept_ids(
    seeds: Sequence[SeedExample],
    raw_concepts_per_seed: Mapping[str, Sequence[str]],
    quality: Mapping[str, QualityVerdict],
    clusters: Sequence[ConceptCluster],
) -> list[SeedExample]:
    """Rewrite every seed's concept ids as representative ids.

    Rejected concepts are dropped; surviving ones map to their cluster's
    representative; duplicates collapse. The result references
    representative-status concepts only and keeps the <= 5 bound.
    """
    rep_of: dict[str, str] = {}
    for cluster in clusters:
        if cluster.representative_id is None:
            raise ValidationError(f"cluster {cluster.cluster_id} has no representative")
        for member in cluster.member_ids:
            rep_of[member] = cluster.representative_id
    out = []
    for seed in seeds:
        ids: list[str] = []
        for text in raw_concepts_per_seed.get(seed.id, []):
            cid = concept_id_for(text)
            verdict = quality.get(cid)
            if verdict is None or not verdict.kept:
                continue
            rep = rep_of.get(cid, cid)
            if rep not in ids:
                ids.append(rep)
        out.append(SeedExample(id=seed.id, question=seed.question,
                               solution=seed.solution, concept_ids=ids))
    return out
