"""Dataset-level statistics: scale, seed similarity, novelty, cost,
n-gram contamination against a reference set, and concept adherence.

Conventions worth knowing:

* Per-item seed similarity is the maximum cosine against all seeds, the
  contamination-sensitive choice.
* The n-gram overlap denominator is the synthesized side's distinct
  n-grams: the question asked is "how much of my output already appears in
  the reference", which is directional.
* Adherence matching defaults to canonicalized string equality; matching by
  embedding cosine is opt-in because it changes the metric.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._util import canonicalize
from .backends import BackendClient, BackendDescriptor
from .errors import ValidationError
from .graph import ConceptCombination

logger = logging.getLogger(__name__)

HISTOGRAM_BIN_WIDTH = 0.05
DEFAULT_NGRAM_SIZES = (8, 10, 13, 15)
EMBED_BATCH_SIZE = 128
# Synthesized rows per block of the item x seed cosine matrix, so memory
# stays bounded by the seed count rather than the item count.
SIMILARITY_BLOCK_ROWS = 4096


@dataclass
class SimilarityReport:
    """Max-cosine-to-seed distribution for a synthesized corpus."""

    mean_max_cosine: float
    bin_edges: list[float]
    histogram: list[int]
    cdf: list[float]


@dataclass
class CostModel:
    """Per-sample synthesis cost, priced by tokens or by GPU time."""

    mode: str
    input_price: float = 0.0
    output_price: float = 0.0
    gpu_rate: float = 0.0
    gpu_count: int = 0
    hours: float = 0.0
    sample_count: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("token_priced", "gpu_hourly"):
            raise ValidationError(f"unknown cost mode {self.mode!r}")
        for name in ("input_price", "output_price", "gpu_rate", "gpu_count", "hours"):
            if getattr(self, name) < 0:
                raise ValidationError(f"cost model field {name!r} must be nonnegative")
        if self.sample_count < 1:
            raise ValidationError("sample_count must be >= 1")


@dataclass
class DecontaminationReport:
    """Directional distinct-n-gram overlap against a reference corpus."""

    per_n: dict[int, float | None]
    top_overlapping: list[tuple[str, int]] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "per_n": {str(n): v for n, v in self.per_n.items()},
            "top_overlapping": [[gram, count] for gram, count in self.top_overlapping],
        }


@dataclass
class AdherenceReport:
    """How often the guiding concepts can be re-extracted from the output."""

    full_match_ratio: float
    partial_match_ratio: float
    item_count: int
    excluded_count: int = 0

    def __post_init__(self) -> None:
        if self.full_match_ratio > self.partial_match_ratio + 1e-12:
            raise ValidationError("full_match_ratio cannot exceed partial_match_ratio")

    def to_record(self) -> dict:
        return {
            "full_match_ratio": self.full_match_ratio,
            "partial_match_ratio": self.partial_match_ratio,
            "item_count": self.item_count,
            "excluded_count": self.excluded_count,
        }


def expansion_ratio(n_synth: int, n_seed: int) -> float:
    """Synthesized item count over seed item count."""
    if n_seed < 1:
        raise ValidationError("expansion ratio needs at least one seed item")
    return n_synth / n_seed


def similarity_distribution(
    synth_texts: Sequence[str],
    seed_texts: Sequence[str],
    embedder: BackendDescriptor,
    client: BackendClient,
    bin_width: float = HISTOGRAM_BIN_WIDTH,
) -> SimilarityReport:
    """Per item: max cosine against all seed embeddings. Reports their mean
    (a left-to-right float sum over the items, divided by the count), a
    fixed-width histogram over [0, 1] and its CDF (one cumulative fraction
    per upper bin edge). Scores are clipped into [0, 1] for binning so counts
    always sum to the item count. The cosines are taken
    ``SIMILARITY_BLOCK_ROWS`` synthesized rows at a time."""
    if not synth_texts or not seed_texts:
        raise ValidationError("similarity_distribution needs nonempty corpora")
    synth_vecs = _embed_batched(client, embedder, synth_texts)
    seed_vecs = _embed_batched(client, embedder, seed_texts)
    row_max = [
        (synth_vecs[start:start + SIMILARITY_BLOCK_ROWS] @ seed_vecs.T).max(axis=1)
        for start in range(0, len(synth_vecs), SIMILARITY_BLOCK_ROWS)
    ]
    per_item = np.clip(np.concatenate(row_max), -1.0, 1.0)
    edges = np.asarray(_bin_edges(bin_width))
    counts, _ = np.histogram(np.clip(per_item, 0.0, 1.0), bins=edges)
    cdf = np.cumsum(counts) / len(per_item)
    return SimilarityReport(
        mean_max_cosine=sum(per_item.tolist()) / len(per_item),
        bin_edges=[float(e) for e in edges],
        histogram=[int(c) for c in counts],
        cdf=[float(x) for x in cdf],
    )


def _bin_edges(bin_width: float) -> list[float]:
    """Bin edges as the nearest floats to exact decimal multiples of the
    width, so a score like 0.6 lands in the [0.60, 0.65) bin rather than
    falling victim to accumulated floating-point drift."""
    from decimal import Decimal

    width = Decimal(str(bin_width))
    n_bins = int(Decimal(1) / width)
    if n_bins * width != 1:
        raise ValidationError("bin width must divide 1 exactly")
    return [float(i * width) for i in range(n_bins + 1)]


def _embed_batched(
    client: BackendClient,
    embedder: BackendDescriptor,
    texts: Sequence[str],
) -> np.ndarray:
    chunks = []
    for start in range(0, len(texts), EMBED_BATCH_SIZE):
        chunks.append(client.embed(embedder, texts[start:start + EMBED_BATCH_SIZE]))
    return np.vstack(chunks)


def novelty_rate(
    combinations: Sequence[ConceptCombination],
    seed_concept_sets: Sequence[Iterable[str]],
) -> float:
    """Fraction of items whose concept set appears in no seed example.

    Counts what :func:`graph.is_novel` would for each item, through an
    inverted index built once (concept id -> positions of the seeds holding
    it): an item is covered by a seed iff the posting lists of its concepts
    intersect. Empty combinations are not novel.
    """
    if not combinations:
        return 0.0
    postings: dict[str, set[int]] = {}
    for pos, concepts in enumerate(seed_concept_sets):
        for cid in concepts:
            postings.setdefault(cid, set()).add(pos)
    novel = 0
    for combo in combinations:
        if not combo.concept_ids:
            continue
        lists = sorted((postings.get(cid, set()) for cid in set(combo.concept_ids)), key=len)
        if not lists[0].intersection(*lists[1:]):
            novel += 1
    return novel / len(combinations)


def cost_report(
    model: CostModel,
    tokens_in_per_sample: float = 0.0,
    tokens_out_per_sample: float = 0.0,
) -> float:
    """Cost of synthesizing one data point, in currency units.

    Token mode prices input/output tokens per million; GPU mode spreads
    rate * gpus * hours across the sample count.
    """
    if model.mode == "token_priced":
        return (
            model.input_price * tokens_in_per_sample / 1e6
            + model.output_price * tokens_out_per_sample / 1e6
        )
    return model.gpu_rate * model.gpu_count * model.hours / model.sample_count


class _KeepAlnumSpace(dict):
    """``str.translate`` table that keeps a code point iff it is a letter,
    digit or whitespace and deletes it otherwise. Entries are filled on
    first sight, so the table holds only code points seen in the data."""

    def __missing__(self, code: int) -> int | None:
        ch = chr(code)
        kept = code if ch.isalnum() or ch.isspace() else None
        self[code] = kept
        return kept


_KEEP_ALNUM_SPACE = _KeepAlnumSpace()


def normalize_for_ngrams(text: str) -> str:
    """Lowercase, drop every character that is not a letter, digit, or
    whitespace, and collapse whitespace runs. Idempotent."""
    return " ".join(text.lower().translate(_KEEP_ALNUM_SPACE).split())


def _ngrams(tokens: Sequence[str], n: int) -> Iterable[tuple[str, ...]]:
    return zip(*(tokens[i:] for i in range(n)))


def ngram_overlap(
    synth_texts: Sequence[str],
    reference_texts: Sequence[str],
    ns: Sequence[int] = DEFAULT_NGRAM_SIZES,
    top_k: int = 5,
) -> DecontaminationReport:
    """Distinct-n-gram overlap fraction per n, synth side as denominator.

    Texts shorter than n tokens contribute no n-grams. When the synthesized
    corpus yields zero n-grams for some n, that n is reported as undefined
    (None), not as zero. ``top_overlapping`` lists the shared n-grams with
    the highest synthesized-side frequency, computed at the smallest
    requested n.
    """
    if not ns:
        raise ValidationError("ngram_overlap needs at least one n")
    if any(n < 1 for n in ns):
        raise ValidationError("every n must be >= 1")
    # One str object per distinct token: the n-gram tuples share them.
    vocab: dict[str, str] = {}

    def tokenize(text: str) -> list[str]:
        words = normalize_for_ngrams(text).split()
        return list(map(vocab.setdefault, words, words))

    synth_tokens = [tokenize(t) for t in synth_texts]
    ref_tokens = [tokenize(t) for t in reference_texts]
    per_n: dict[int, float | None] = {}
    top: list[tuple[str, int]] = []
    for n in sorted(set(ns)):
        synth_set: set[tuple[str, ...]] = set()
        for tokens in synth_tokens:
            synth_set.update(_ngrams(tokens, n))
        ref_set: set[tuple[str, ...]] = set()
        for tokens in ref_tokens:
            ref_set.update(_ngrams(tokens, n))
        if not synth_set:
            per_n[n] = None
            continue
        shared = synth_set & ref_set
        per_n[n] = len(shared) / len(synth_set)
        if n == min(ns) and shared:
            synth_counts = Counter(
                gram for tokens in synth_tokens
                for gram in _ngrams(tokens, n) if gram in shared
            )
            ranked = sorted(shared, key=lambda g: (-synth_counts[g], g))
            top = [(" ".join(g), synth_counts[g]) for g in ranked[:top_k]]
    return DecontaminationReport(per_n=per_n, top_overlapping=top)


def adherence_report(
    items: Sequence[tuple[Sequence[str], str]],
    extract_fn: Callable[[str], Sequence[str]],
    matcher_tolerance: float | None = None,
    embed_fn: Callable[[Sequence[str]], np.ndarray] | None = None,
) -> AdherenceReport:
    """Re-extract concepts from each question and measure how many of the
    original guiding concepts come back.

    ``items`` holds (input concept texts, question) pairs. Full match means
    every input concept was re-extracted; partial means at least one.
    Extraction failures exclude the item from both counts and are tallied.
    """
    full = 0
    partial = 0
    included = 0
    excluded = 0
    for concept_texts, question in items:
        try:
            re_extracted = list(extract_fn(question))
        except Exception:
            excluded += 1
            continue
        included += 1
        matched = [
            _concept_matched(c, re_extracted, matcher_tolerance, embed_fn)
            for c in concept_texts
        ]
        if matched and all(matched):
            full += 1
        if any(matched):
            partial += 1
    if included == 0:
        return AdherenceReport(0.0, 0.0, item_count=0, excluded_count=excluded)
    return AdherenceReport(
        full_match_ratio=full / included,
        partial_match_ratio=partial / included,
        item_count=included,
        excluded_count=excluded,
    )


def _concept_matched(
    concept: str,
    candidates: Sequence[str],
    tolerance: float | None,
    embed_fn: Callable[[Sequence[str]], np.ndarray] | None,
) -> bool:
    canon = canonicalize(concept)
    for cand in candidates:
        if canonicalize(cand) == canon:
            return True
    if tolerance is not None and embed_fn is not None and candidates:
        vectors = embed_fn([concept, *candidates])
        sims = vectors[1:] @ vectors[0]
        return bool(np.any(sims >= tolerance))
    return False


def run_report(sections: Mapping[str, object]) -> dict:
    """Assemble the final structured report.

    Every known section is present in the output; sections the caller did
    not compute are marked "not computed".
    """
    known = (
        "seed_count",
        "expansion",
        "stage_counters",
        "combination_kinds",
        "problem_quality_by_kind",
        "acceptance_rates",
        "novelty",
        "similarity",
        "cost",
        "decontamination",
        "adherence",
        "backend_usage",
    )
    report: dict = {}
    for key in known:
        value = sections.get(key)
        report[key] = value if value is not None else "not computed"
    for key in sorted(sections):
        if key not in report:
            report[key] = sections[key]
    return report
