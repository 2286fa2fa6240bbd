"""Seeded, topic-structured seed corpus for the benchmark workloads.

Concepts are split evenly into topics. Seeds take the topics in turn, and
take ``min_size`` to 5 concepts in turn. A ``cross_rate`` share of each
topic's concept slots is filled from the next topic on a ring, the rest
from the topic itself. How often each concept occurs is fixed in advance
by a Zipf law over its rank within the topic, so a few concepts per topic
become hubs. The seed only decides which phrase holds which rank, which
slots cross topics, and how the occurrences are dealt out. Corpus totals
(distinct concepts, slots) therefore barely move from seed to seed, while
the co-occurrence graph differs.

Topics matter for the graph layer: a single Zipf over all concepts makes
the hubs adjacent to nearly every node, which leaves no pair at distance
three and turns the three-hop enumeration into a no-op.

The mock extractor returns the ``[bracketed]`` spans of a seed, so the
bracketed phrases are exactly the concepts the pipeline sees.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ZIPF_EXPONENT = 1.0
REFERENCE_EVERY = 20

_ADJECTIVES = (
    "modular", "harmonic", "convex", "linear", "cyclic", "rational",
    "bounded", "discrete", "symmetric", "recursive", "orthogonal", "prime",
)
_NOUNS = (
    "identity", "inequality", "lemma", "formula", "invariant", "bound",
    "principle", "criterion", "expansion", "transform", "recurrence", "estimate",
)
_FILLER = (
    "a", "the", "of", "sequence", "integer", "function", "triangle", "sum",
    "product", "circle", "polynomial", "value", "find", "show", "that",
    "every", "positive", "real", "number", "given", "such", "smallest",
)


def concept_phrases(n_concepts: int) -> list[str]:
    """Distinct concept phrases, deterministic in ``n_concepts`` only."""
    return [
        f"{_ADJECTIVES[i % len(_ADJECTIVES)]} {_NOUNS[(i // len(_ADJECTIVES)) % len(_NOUNS)]} {i:05d}"
        for i in range(n_concepts)
    ]


def _apportion(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` into integers proportional to ``weights`` (largest
    remainder; ties go to the lower index)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def generate(
    seed: int,
    n_seeds: int,
    n_concepts: int,
    n_topics: int,
    cross_rate: float,
    min_size: int = 2,
) -> list[dict]:
    """Seed records ``{id, question, solution}``, a pure function of the
    arguments."""
    if n_concepts < n_topics * 5:
        raise ValueError("need at least five concepts per topic")
    rng = random.Random(seed)
    phrases = concept_phrases(n_concepts)
    rng.shuffle(phrases)
    per_topic = n_concepts // n_topics
    topics = [phrases[t * per_topic:(t + 1) * per_topic] for t in range(n_topics)]
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(per_topic)]

    # Every concept slot names the topic that fills it.
    sizes = range(min_size, 6)
    slots = [[idx % n_topics] * sizes[idx % len(sizes)] for idx in range(n_seeds)]
    for topic in range(n_topics):
        positions = [(i, j) for i in range(topic, n_seeds, n_topics) for j in range(len(slots[i]))]
        for i, j in rng.sample(positions, round(cross_rate * len(positions))):
            slots[i][j] = (topic + 1) % n_topics
    demand = [0] * n_topics
    for row in slots:
        for topic in row:
            demand[topic] += 1
    pools = []
    for topic in range(n_topics):
        counts = _apportion(demand[topic], weights)
        pool = [p for p, count in zip(topics[topic], counts) for _ in range(count)]
        rng.shuffle(pool)
        pools.append(pool)

    seeds = []
    for idx, row in enumerate(slots):
        chosen: list[str] = []
        for topic in row:
            pool = pools[topic]
            # Take the last occurrence not already in this seed; a slot with
            # none left stays empty.
            for k in range(len(pool) - 1, -1, -1):
                if pool[k] not in chosen:
                    chosen.append(pool.pop(k))
                    break
        filler = " ".join(rng.choice(_FILLER) for _ in range(rng.randint(10, 18)))
        bracketed = ", ".join(f"[{p}]" for p in chosen)
        seeds.append({
            "id": f"seed-{idx:06d}",
            "question": f"Problem {idx}: {filler}, using {bracketed}.",
            "solution": f"Apply each listed idea in turn; the answer is {rng.randrange(10**6)}.",
        })
    return seeds


def write_inputs(directory: Path, seeds: list[dict]) -> tuple[Path, Path]:
    """Write the seed corpus and a decontamination reference set.

    The reference is every ``REFERENCE_EVERY``-th seed question, so the
    n-gram overlap section of the report has real shared n-grams to find.
    Returns (corpus path, reference path).
    """
    directory.mkdir(parents=True, exist_ok=True)
    corpus = directory / "seeds.jsonl"
    reference = directory / "reference.jsonl"
    corpus.write_text("".join(json.dumps(s, sort_keys=True) + "\n" for s in seeds), encoding="utf-8")
    reference.write_text(
        "".join(
            json.dumps({"question": s["question"]}, sort_keys=True) + "\n"
            for s in seeds[::REFERENCE_EVERY]
        ),
        encoding="utf-8",
    )
    return corpus, reference
