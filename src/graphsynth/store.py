"""Persistent data model: corpus records, knowledge-base records, synthesized
items, and stage records.

Everything on disk is line-delimited JSON (one entity per line) so stages can
stream large corpora instead of loading them whole. Records without an id get
a content-addressed one, which keeps deduplication stable across runs.

A stage record is one JSON object: the fingerprint of the configuration the
stage runs under, the digests of its input files, and the digests of its
outputs (null until the stage finishes). It is written atomically; which
items are done is read from the stage's append-only results caches, not
from the record. A results cache holds one ``{"id", "result"}`` line per
work item, appended in work order, so it is always a prefix of its work.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ._util import (
    canonical_json,
    canonicalize,
    content_hash,
    read_jsonl,
    write_atomic,
    write_jsonl_atomic,
)
from .backends import sum_usage
from .errors import CheckpointError, CorpusError

logger = logging.getLogger(__name__)

MAX_CONCEPTS_PER_SEED = 5

CONCEPT_STATUSES = ("raw", "rejected", "clustered", "representative")
SYNTHETIC_PROVENANCE = "synthetic-summary"

ITEM_STATUSES = (
    "generated",
    "problem_accepted",
    "problem_rejected",
    "solution_accepted",
    "solution_rejected",
)
# Monotone transition map; terminal statuses map to the empty tuple.
_ITEM_NEXT = {
    "generated": ("problem_accepted", "problem_rejected"),
    "problem_accepted": ("solution_accepted", "solution_rejected"),
    "problem_rejected": (),
    "solution_accepted": (),
    "solution_rejected": (),
}

DIFFICULTY_LEVELS = ("low", "medium", "high")

_RECORD_KEYS = {"fingerprint", "inputs", "outputs"}


def seed_id_for(question: str, solution: str) -> str:
    """Content-addressed id for a seed lacking an explicit one."""
    return "seed-" + content_hash(canonicalize(question), canonicalize(solution))[:12]


def concept_id_for(text: str) -> str:
    """Content-addressed id for a concept phrase (canonicalized)."""
    return "kc-" + content_hash(canonicalize(text))[:12]


@dataclass
class SeedExample:
    """One seed question/solution pair plus the concept ids extracted for it."""

    id: str
    question: str
    solution: str
    concept_ids: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if not self.id:
            raise CorpusError("seed id must be nonempty")
        if not self.question or not self.question.strip():
            raise CorpusError(f"seed {self.id!r}: field 'question' must be nonempty")
        if len(self.concept_ids) > MAX_CONCEPTS_PER_SEED:
            raise CorpusError(
                f"seed {self.id!r}: concept_ids has {len(self.concept_ids)} entries, "
                f"limit is {MAX_CONCEPTS_PER_SEED}"
            )
        if len(set(self.concept_ids)) != len(self.concept_ids):
            raise CorpusError(f"seed {self.id!r}: concept_ids contains duplicates")

    def to_record(self) -> dict:
        rec = {"id": self.id, "question": self.question, "solution": self.solution}
        if self.concept_ids:
            rec["concept_ids"] = list(self.concept_ids)
        return rec

    @classmethod
    def from_record(cls, rec: dict, line: int | None = None) -> "SeedExample":
        _require_fields(rec, {"question": str, "solution": str}, line)
        seed_id = rec.get("id")
        if seed_id is not None and not isinstance(seed_id, str):
            raise CorpusError(f"line {line}: field 'id' must be a string", line)
        if not seed_id:
            seed_id = seed_id_for(rec["question"], rec["solution"])
        concept_ids = rec.get("concept_ids", [])
        if not isinstance(concept_ids, list) or not all(isinstance(c, str) for c in concept_ids):
            raise CorpusError(f"line {line}: field 'concept_ids' must be a list of strings", line)
        seed = cls(id=seed_id, question=rec["question"], solution=rec["solution"],
                   concept_ids=list(concept_ids))
        try:
            seed.validate()
        except CorpusError as exc:
            raise CorpusError(f"line {line}: {exc}", line) from exc
        return seed


@dataclass
class KeyConcept:
    """A canonical concept node with provenance and quality status."""

    id: str
    text: str
    status: str = "raw"
    cluster_id: str | None = None
    provenance: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.status not in CONCEPT_STATUSES:
            raise CorpusError(f"concept {self.id!r}: unknown status {self.status!r}")
        if not self.text or not self.text.strip():
            raise CorpusError(f"concept {self.id!r}: empty text")
        if self.status == "representative" and not self.cluster_id:
            raise CorpusError(f"concept {self.id!r}: representative without cluster_id")

    @property
    def is_synthetic(self) -> bool:
        return self.provenance == [SYNTHETIC_PROVENANCE]

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "status": self.status,
            "cluster_id": self.cluster_id,
            "provenance": list(self.provenance),
        }

    @classmethod
    def from_record(cls, rec: dict, line: int | None = None) -> "KeyConcept":
        _require_fields(rec, {"id": str, "text": str, "status": str}, line)
        cluster_id = rec.get("cluster_id")
        if cluster_id is not None and not isinstance(cluster_id, str):
            raise CorpusError(f"line {line}: field 'cluster_id' must be a string or null", line)
        provenance = rec.get("provenance", [])
        if not isinstance(provenance, list):
            raise CorpusError(f"line {line}: field 'provenance' must be a list", line)
        concept = cls(id=rec["id"], text=rec["text"], status=rec["status"],
                      cluster_id=cluster_id, provenance=list(provenance))
        try:
            concept.validate()
        except CorpusError as exc:
            raise CorpusError(f"line {line}: {exc}", line) from exc
        return concept


@dataclass
class SynthesizedItem:
    """A generated question with its evaluation trail.

    ``combination`` holds the originating concept combination as a plain
    record ({kind, concept_ids, weight}) so items are self-describing.
    """

    id: str
    combination: dict
    question: str
    status: str = "generated"
    difficulty: str | None = None
    solution: str | None = None
    problem_scores: dict[str, float] = field(default_factory=dict)
    weighted_score: float | None = None
    solution_votes: dict[str, int] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)

    def validate(self) -> None:
        if self.status not in ITEM_STATUSES:
            raise CorpusError(f"item {self.id!r}: unknown status {self.status!r}")
        if (self.weighted_score is not None) != bool(self.problem_scores):
            raise CorpusError(
                f"item {self.id!r}: weighted_score must be present exactly when "
                "problem_scores is nonempty"
            )
        if self.solution_votes and self.status == "generated":
            raise CorpusError(
                f"item {self.id!r}: solution_votes present before problem acceptance"
            )
        if self.solution_votes and self.status == "problem_rejected":
            raise CorpusError(
                f"item {self.id!r}: solution_votes present on a rejected problem"
            )
        if self.difficulty is not None and self.difficulty not in DIFFICULTY_LEVELS:
            raise CorpusError(f"item {self.id!r}: unknown difficulty {self.difficulty!r}")

    def advance_status(self, new_status: str) -> None:
        """Move to ``new_status``; transitions are monotone and one-way."""
        allowed = _ITEM_NEXT.get(self.status, ())
        if new_status not in allowed:
            raise CorpusError(
                f"item {self.id!r}: illegal status transition "
                f"{self.status!r} -> {new_status!r}"
            )
        self.status = new_status

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "combination": self.combination,
            "question": self.question,
            "status": self.status,
            "difficulty": self.difficulty,
            "solution": self.solution,
            "problem_scores": dict(self.problem_scores),
            "weighted_score": self.weighted_score,
            "solution_votes": dict(self.solution_votes),
            "flags": list(self.flags),
        }

    @classmethod
    def from_record(cls, rec: dict, line: int | None = None) -> "SynthesizedItem":
        _require_fields(rec, {"id": str, "question": str, "status": str}, line)
        combination = rec.get("combination")
        if not isinstance(combination, dict):
            raise CorpusError(f"line {line}: field 'combination' must be an object", line)
        item = cls(
            id=rec["id"],
            combination=combination,
            question=rec["question"],
            status=rec["status"],
            difficulty=rec.get("difficulty"),
            solution=rec.get("solution"),
            problem_scores={k: float(v) for k, v in rec.get("problem_scores", {}).items()},
            weighted_score=rec.get("weighted_score"),
            solution_votes={k: int(v) for k, v in rec.get("solution_votes", {}).items()},
            flags=list(rec.get("flags", [])),
        )
        try:
            item.validate()
        except CorpusError as exc:
            raise CorpusError(f"line {line}: {exc}", line) from exc
        return item


def _require_fields(rec: dict, fields: dict[str, type], line: int | None) -> None:
    if not isinstance(rec, dict):
        raise CorpusError(f"line {line}: record must be a JSON object", line)
    for name, typ in fields.items():
        if name not in rec:
            raise CorpusError(f"line {line}: missing required field {name!r}", line)
        if not isinstance(rec[name], typ):
            raise CorpusError(
                f"line {line}: field {name!r} must be of type {typ.__name__}", line
            )


def load_seed_corpus(path: str | Path) -> list[SeedExample]:
    """Load and validate a seed corpus file (one JSON object per line).

    Records keep file order. Ids default to a content hash when absent;
    duplicate ids are rejected with both line numbers named.
    """
    seeds: list[SeedExample] = []
    seen: dict[str, int] = {}
    for lineno, rec in read_jsonl(path):
        seed = SeedExample.from_record(rec, line=lineno)
        if seed.id in seen:
            raise CorpusError(
                f"duplicate seed id {seed.id!r} on lines {seen[seed.id]} and {lineno}",
                line=lineno,
            )
        seen[seed.id] = lineno
        seeds.append(seed)
    return seeds


def save_seed_corpus(path: str | Path, seeds: Sequence[SeedExample]) -> None:
    write_jsonl_atomic(path, (s.to_record() for s in seeds))


def load_concepts(path: str | Path) -> list[KeyConcept]:
    return [KeyConcept.from_record(rec, line=lineno) for lineno, rec in read_jsonl(path)]


def save_concepts(path: str | Path, concepts: Sequence[KeyConcept]) -> None:
    write_jsonl_atomic(path, (c.to_record() for c in concepts))


def write_checkpoint(record: dict, path: str | Path) -> None:
    """Durably persist a stage record; the write is atomic (temp then rename)."""
    write_atomic(path, canonical_json(record) + "\n")


def read_checkpoint(path: str | Path) -> dict | None:
    """Read a stage record; None when the file does not exist.

    A file that is not a JSON object holding ``fingerprint``, ``inputs`` and
    ``outputs`` raises CheckpointError naming it: a resume must not guess
    what an unreadable record vouched for.
    """
    path = Path(path)
    try:
        rec = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise CheckpointError(f"stage record {path} is unreadable: {exc}") from exc
    if not (isinstance(rec, dict) and _RECORD_KEYS <= rec.keys()):
        raise CheckpointError(
            f"stage record {path} is unreadable: expected an object with keys "
            f"{sorted(_RECORD_KEYS)}"
        )
    return rec


def encode_cache_line(wid: str, result: dict) -> bytes:
    """One results-cache line: a work item's id and its result record."""
    return (canonical_json({"id": wid, "result": result}) + "\n").encode("utf-8")


def select_resumable_work(path: Path, work: Iterable[tuple[str, Any]]) -> tuple:
    """Match the results cache at ``path`` against ``work``, (id, payload)
    pairs, in lockstep: (count, size, usage, rest) are how many leading work
    items have a complete line with their id, those lines' bytes, their
    summed ``usage``, and the rest of the work. The match stops at a torn
    tail (a kill during an append), an unreadable line, an id mismatch, or
    the end of either; ``work`` is drawn at most one item past it."""
    work = iter(work)
    count = size = 0
    usage = sum_usage([])
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        return count, size, usage, work
    with handle:
        for line in handle:
            item = next(work, None)
            if item is None:
                break
            if not line.endswith(b"\n"):
                problem = "is torn"
            else:
                try:
                    rec = json.loads(line)
                    wid, record_usage = rec["id"], rec["result"].get("usage") or {}
                except (ValueError, KeyError, TypeError, AttributeError):
                    problem = "is unreadable"
                else:
                    problem = None if wid == item[0] else f"holds id {wid!r}, not {item[0]!r}"
            if problem:
                logger.warning("line %d of %s %s; the work runs again from there",
                               count + 1, path, problem)
                return count, size, usage, itertools.chain([item], work)
            count += 1
            size += len(line)
            usage = sum_usage([usage, record_usage])
    return count, size, usage, work


class CacheReader:
    """The first ``count`` records of a results cache, read forward: one
    result record per work item, in work order. No records means no file
    is opened."""

    def __init__(self, path: Path, count: int) -> None:
        self.path = path
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[dict]:
        if not self.count:
            return
        with open(self.path, "rb", buffering=1 << 16) as handle:
            for line in itertools.islice(handle, self.count):
                yield json.loads(line)["result"]
