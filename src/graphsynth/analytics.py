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

Similarity, novelty and n-gram overlap are each an accumulator fed one item
at a time (``SeedSimilarity``, ``NoveltyCounter``, ``NgramOverlap``), so the
analyze stage reads the items once and keeps no item, embedding or n-gram
object. ``similarity_distribution``, ``novelty_rate`` and ``ngram_overlap``
feed a whole corpus to one and report.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._util import canonicalize
from .backends import BackendClient, BackendDescriptor
from .errors import ValidationError
from .graph import ConceptCombination

logger = logging.getLogger(__name__)

HISTOGRAM_BIN_WIDTH = 0.05
DEFAULT_NGRAM_SIZES = (8, 10, 13, 15)
EMBED_BATCH_SIZE = 128
# Most synthesized rows per block of the item x seed cosine matrix, so memory
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


class SeedSimilarity:
    """Max-cosine-to-seed distribution, folded over a stream of texts.

    :meth:`add` buffers texts and embeds them ``EMBED_BATCH_SIZE`` at a
    time. The seeds are embedded on the first flush, so a stream with no
    text makes no request. Each embedded chunk is folded into the histogram
    counts and into a running sum of its row maxima (built-in ``sum``,
    started from the total so far), so the mean is one left-to-right float
    sum over every item, in item order. No embedding outlives its chunk.
    """

    def __init__(
        self,
        seed_texts: Sequence[str],
        embedder: BackendDescriptor,
        client: BackendClient,
        bin_width: float = HISTOGRAM_BIN_WIDTH,
    ):
        self._seed_texts = seed_texts
        self._embedder = embedder
        self._client = client
        self._seed_vecs: np.ndarray | None = None
        self._pending: list[str] = []
        self._edges = np.asarray(_bin_edges(bin_width))
        self._counts = np.zeros(len(self._edges) - 1, dtype=np.int64)
        self._total = 0.0
        self._count = 0

    def add(self, text: str) -> None:
        self._pending.append(text)
        if len(self._pending) == EMBED_BATCH_SIZE:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        if self._seed_vecs is None:
            self._seed_vecs = _embed_batched(self._client, self._embedder, self._seed_texts)
        self._fold(self._client.embed(self._embedder, self._pending))
        self._pending = []

    def _fold(self, vectors: np.ndarray) -> None:
        """Fold embedded rows in, ``SIMILARITY_BLOCK_ROWS`` at a time."""
        for start in range(0, len(vectors), SIMILARITY_BLOCK_ROWS):
            block = vectors[start:start + SIMILARITY_BLOCK_ROWS] @ self._seed_vecs.T
            row_max = np.clip(block.max(axis=1), -1.0, 1.0)
            counts, _ = np.histogram(np.clip(row_max, 0.0, 1.0), bins=self._edges)
            self._counts += counts
            self._total = sum(row_max.tolist(), self._total)
            self._count += len(row_max)

    def report(self) -> SimilarityReport:
        self._flush()
        if self._count == 0:
            raise ValidationError("similarity_distribution needs nonempty corpora")
        return SimilarityReport(
            mean_max_cosine=self._total / self._count,
            bin_edges=[float(e) for e in self._edges],
            histogram=[int(c) for c in self._counts],
            cdf=[float(x) for x in np.cumsum(self._counts) / self._count],
        )


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
    always sum to the item count. See :class:`SeedSimilarity`."""
    if not synth_texts or not seed_texts:
        raise ValidationError("similarity_distribution needs nonempty corpora")
    similarity = SeedSimilarity(seed_texts, embedder, client, bin_width=bin_width)
    for text in synth_texts:
        similarity.add(text)
    return similarity.report()


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


class NoveltyCounter:
    """Counts the concept sets that appear in no seed example.

    Counts what :func:`graph.is_novel` would for each set, through an
    inverted index built once (concept id -> positions of the seeds holding
    it): a set is covered by a seed iff the posting lists of its concepts
    intersect. Empty sets are not novel.
    """

    def __init__(self, seed_concept_sets: Iterable[Iterable[str]]):
        self._postings: dict[str, set[int]] = {}
        for pos, concepts in enumerate(seed_concept_sets):
            for cid in concepts:
                self._postings.setdefault(cid, set()).add(pos)
        self.count = 0
        self._novel = 0

    def add(self, concept_ids: Iterable[str]) -> None:
        self.count += 1
        lists = sorted((self._postings.get(cid, set()) for cid in set(concept_ids)), key=len)
        if lists and not lists[0].intersection(*lists[1:]):
            self._novel += 1

    def rate(self) -> float:
        return self._novel / self.count if self.count else 0.0


def novelty_rate(
    combinations: Sequence[ConceptCombination],
    seed_concept_sets: Sequence[Iterable[str]],
) -> float:
    """Fraction of items whose concept set appears in no seed example (see
    :class:`NoveltyCounter`); 0.0 for no items."""
    counter = NoveltyCounter(seed_concept_sets)
    for combo in combinations:
        counter.add(combo.concept_ids)
    return counter.rate()


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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values, ascending."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _member(values: np.ndarray, sorted_values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` that ``sorted_values`` holds."""
    idx = np.searchsorted(sorted_values, values)
    found = idx < len(sorted_values)
    found[found] = sorted_values[idx[found]] == values[found]
    return found


def _rank(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Name each position's (first, second) pair by its rank among the
    distinct pairs, so equal pairs, and only they, get equal names."""
    key = first.astype(np.int64) * (int(second.max(initial=0)) + 1) + second
    # Stability is not needed here, but numpy's default int64 argsort
    # raised the benchmark's peak RSS by about 0.4 MiB over timsort.
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    new[1:] = key[1:] != key[:-1]
    names = np.empty(len(key), dtype=np.int32)
    names[order] = np.cumsum(new, dtype=np.int32) - 1
    return names


def _shifted(names: np.ndarray, k: int) -> np.ndarray:
    """``names`` moved ``k`` places left, padded with zeros."""
    out = np.zeros_like(names)
    out[:len(names) - k] = names[k:]
    return out


def _gram_names(ids: np.ndarray, ns: Sequence[int]) -> Iterator[tuple[int, np.ndarray]]:
    """For each n, ascending, a name for the n ids starting at every
    position: two windows get equal names iff they hold equal ids (a window
    running past the end gets some name). This is Karp, Miller & Rosenberg's
    doubling (STOC 1972): a window of 2p ids is named by the names of its
    halves, and one of n ids, p < n < 2p, by those of its first and last p
    ids. Only the current power-of-two level is kept."""
    names, p = ids, 1
    for n in sorted(ns):
        while 2 * p <= n:
            names, p = _rank(names, _shifted(names, p)), 2 * p
        yield n, names if n == p else _rank(names, _shifted(names, n - p))


class _Vocabulary(dict):
    """Word -> id, numbering each word on first sight."""

    def __missing__(self, word: str) -> int:
        self[word] = index = len(self)
        return index


class NgramOverlap:
    """Distinct-n-gram overlap of a stream of texts against a reference.

    Each text is kept only as its int32 token ids (one id per distinct
    word), 4 bytes a token, plus its length. :meth:`report` names every
    window of n ids by :func:`_gram_names`, so distinct n-grams are counted
    exactly on integer names, and the only strings it builds are those of
    ``top_overlapping``.
    """

    def __init__(
        self,
        reference_texts: Iterable[str],
        ns: Sequence[int] = DEFAULT_NGRAM_SIZES,
        top_k: int = 5,
    ):
        if not ns:
            raise ValidationError("ngram_overlap needs at least one n")
        if any(n < 1 for n in ns):
            raise ValidationError("every n must be >= 1")
        self._ns = sorted(set(ns))
        self._top_k = top_k
        self._vocab = _Vocabulary()
        self._ids = array("i")
        self._lengths = array("i")
        for text in reference_texts:
            self.add(text)
        self._reference_tokens = len(self._ids)

    def add(self, text: str) -> None:
        words = normalize_for_ngrams(text).split()
        self._ids.extend(map(self._vocab.__getitem__, words))
        self._lengths.append(len(words))

    def report(self) -> DecontaminationReport:
        """Overlap fraction per n, with the synthesized side's distinct
        n-grams as the denominator; None for an n at which the synthesized
        texts have no n-gram. ``top_overlapping`` lists the shared n-grams
        with the highest synthesized-side frequency at the smallest n."""
        ids = np.array(self._ids, dtype=np.int32)
        lengths = np.array(self._lengths, dtype=np.int32)
        position = np.arange(len(ids), dtype=np.int32)
        # Tokens from each position to the end of its text.
        room = np.repeat(np.cumsum(lengths, dtype=np.int32), lengths) - position
        synthesized = position >= self._reference_tokens
        del position
        per_n: dict[int, float | None] = {}
        top: list[tuple[str, int]] = []
        for n, names in _gram_names(ids, self._ns):
            fits = room >= n
            synth = _distinct(names[fits & synthesized])
            if not len(synth):
                per_n[n] = None
                continue
            shared = synth[_member(synth, _distinct(names[fits & ~synthesized]))]
            per_n[n] = len(shared) / len(synth)
            if n == self._ns[0] and len(shared):
                top = self._top(ids, names, np.flatnonzero(fits & synthesized), shared, n)
        return DecontaminationReport(per_n=per_n, top_overlapping=top)

    def _top(
        self, ids: np.ndarray, names: np.ndarray, positions: np.ndarray,
        shared: np.ndarray, n: int,
    ) -> list[tuple[str, int]]:
        """The ``top_k`` shared n-grams by synthesized-side occurrences
        (over the window ``positions``), ties broken by the word tuple."""
        hit = _member(names[positions], shared)
        slot = np.searchsorted(shared, names[positions[hit]])
        counts = np.bincount(slot, minlength=len(shared)).tolist()
        where = np.empty(len(shared), dtype=np.int64)
        where[slot] = positions[hit]  # any occurrence: all hold the same ids
        words = list(self._vocab)
        grams = [tuple(words[i] for i in ids[p:p + n].tolist()) for p in where.tolist()]
        ranked = sorted(range(len(shared)), key=lambda j: (-counts[j], grams[j]))
        return [(" ".join(grams[j]), counts[j]) for j in ranked[:self._top_k]]


def ngram_overlap(
    synth_texts: Sequence[str],
    reference_texts: Sequence[str],
    ns: Sequence[int] = DEFAULT_NGRAM_SIZES,
    top_k: int = 5,
) -> DecontaminationReport:
    """Distinct-n-gram overlap fraction per n, synth side as denominator
    (see :class:`NgramOverlap`).

    Texts shorter than n tokens contribute no n-grams. When the synthesized
    corpus yields zero n-grams for some n, that n is reported as undefined
    (None), not as zero.
    """
    overlap = NgramOverlap(reference_texts, ns=ns, top_k=top_k)
    for text in synth_texts:
        overlap.add(text)
    return overlap.report()


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
