"""Stage orchestration: extract -> graph -> synthesize -> analyze, declared
once in ``STAGES`` and run by one engine that writes each stage's stats.

Expensive per-item work (model calls) runs through a checkpointed runner:
one pool per stage keeps up to ``max_in_flight`` items in flight, and results
are appended, in input order, to a per-stage cache file that is the only
record of which items are done. Since commits follow work order, a cache
is always a prefix of its work: the runner matches it against the work in
lockstep, draws the rest of the work lazily, and keeps nothing per item;
the stage reads the results back from the cache in work order. Each per-item
task receives a scoped client, so its record keeps the backend usage of
exactly its own calls, failed items included; the runner is the one place a
task exception becomes a failed record. The engine sums a stage's ``usage``
stat over those records, cached or fresh, plus the stage's own
``stage_client``, so a resumed run reports the same totals as an
uninterrupted one. The stage's final output file is rewritten atomically,
streamed from the cache. From the graph stage to ``items.jsonl`` no stage
holds a record per item. Interrupting a run at any point and resuming
therefore lands on the same final bytes as an uninterrupted run, because
every mock-backed computation is a pure function of its inputs.

Each ``STAGES`` entry also names the files its stage reads and writes, by
role. ``manifests/<stage>.json`` is the stage's one resume record: the
config fingerprint and the sha256 of every input, keyed by role so that a
copied run directory still matches, written before the body runs, and the
sha256 of every output, added after the body and stats are written. It
vouches for the stage's results caches, and a stage that calls a backend is
skipped while it holds (same fingerprint and inputs, outputs unchanged),
which is the verifying-trace rebuild check of Mokhov, Mitchell & Peyton
Jones, "Build Systems à la Carte" (ICFP 2018). The graph stage calls no
backend, so it always recomputes.

A run directory is owned exclusively through a kernel ``flock`` on its
``.lock`` file, which the kernel drops when the holding process exits, so
a crashed run never leaves a lock behind.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from . import analytics, extraction, evaluation, synthesis
from . import graph as graphmod
from ._util import (
    canonical_json,
    canonicalize,
    file_sha256,
    iter_jsonl,
    write_atomic,
    write_jsonl_atomic,
)
from .backends import BackendClient, MockServer, run_bounded, sum_usage
from .config import RunConfig
from .errors import CheckpointError, ConfigurationError, ValidationError
from .evaluation import JudgePanel
from .store import (
    CacheReader,
    KeyConcept,
    SeedExample,
    SynthesizedItem,
    concept_id_for,
    encode_cache_line,
    load_concepts,
    load_seed_corpus,
    read_checkpoint,
    save_concepts,
    save_seed_corpus,
    select_resumable_work,
    write_checkpoint,
)

logger = logging.getLogger(__name__)

# Fault-injection hook for crash-recovery tests: abort the process (as a
# KeyboardInterrupt) after this many newly committed work items.
FAULT_ABORT_ENV = "GRAPHSYNTH_FAULT_ABORT_AFTER"

FILES = {
    "seeds_enriched": "seeds_enriched.jsonl",
    "concepts_raw": "concepts.raw.jsonl",
    "concepts_filtered": "concepts.filtered.jsonl",
    "clusters": "clusters.jsonl",
    "knowledge_base": "knowledge_base.jsonl",
    "graph_edges": "graph_edges.jsonl",
    "combinations": "combinations.jsonl",
    "items": "items.jsonl",
    "report": "report.json",
    "similarity_histogram": "similarity_histogram.csv",
}

OUTPUT_FILES = tuple(FILES.values())


@dataclass(frozen=True)
class Stage:
    """What one stage body uses: the backend keys it calls ("judges" is the
    judge panel), and the roles of the files it reads and writes. A role is
    a ``FILES`` key, ``stats.<stage>``, or one of the config's input paths
    (``seed_corpus``, ``templates``, ``decontamination_reference``)."""

    backends: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


# Every stage in run order. Preflight checks the backend keys, ``run-all``
# runs the stages in this order, and the engine calls
# ``PipelineRun.cmd_<stage>`` and hashes the files for the stage record.
STAGES = {
    "extract": Stage(
        backends=("extractor", "kb_judge", "embedder"),
        reads=("seed_corpus",),
        writes=("concepts_raw", "concepts_filtered", "clusters", "knowledge_base",
                "seeds_enriched", "stats.extract"),
    ),
    "graph": Stage(
        backends=(),
        reads=("seeds_enriched", "knowledge_base"),
        writes=("graph_edges", "combinations", "stats.graph"),
    ),
    "synthesize": Stage(
        backends=("generator", "rater", "solver_small", "solver_large", "judges"),
        reads=("templates", "knowledge_base", "combinations"),
        writes=("items", "stats.synthesize"),
    ),
    "analyze": Stage(
        backends=("embedder", "extractor"),
        reads=("seeds_enriched", "items", "knowledge_base", "decontamination_reference",
               "stats.extract", "stats.graph", "stats.synthesize"),
        writes=("report", "similarity_histogram"),
    ),
}


class Interrupted(KeyboardInterrupt):
    """Raised by the fault-injection hook; handled like an operator ^C."""


class RunPaths:
    def __init__(self, run_dir: Path):
        self.run_dir = Path(run_dir)

    def file(self, key: str) -> Path:
        return self.run_dir / FILES[key]

    def cache(self, name: str) -> Path:
        return self.run_dir / "cache" / f"{name}.jsonl"

    def caches(self, stage: str) -> list[Path]:
        """The results caches of ``stage``: ``cache/<stage>.*.jsonl``."""
        return sorted((self.run_dir / "cache").glob(f"{stage}.*.jsonl"))

    def stats(self, stage: str) -> Path:
        return self.run_dir / "stats" / f"{stage}.json"

    def manifest(self, stage: str) -> Path:
        return self.run_dir / "manifests" / f"{stage}.json"

    def lock(self) -> Path:
        return self.run_dir / ".lock"


class RunLock:
    """Exclusive lock on a run directory: a kernel ``flock`` on its lock file.

    The kernel releases the lock when the holder's descriptor closes, however
    the process ends, so a dead holder never leaves a stale lock. The file
    stays in place on release: were it unlinked, a third process could lock
    a new file at the same path while a second still held the old one.
    """

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self) -> "RunLock":
        self._fd = os.open(self.path, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self._fd)
            raise ValidationError(
                f"run directory is locked by another process ({self.path})"
            ) from None
        return self

    def __exit__(self, *exc_info) -> None:
        os.close(self._fd)


class _AbortBudget:
    """Counts committed work items; trips after the env-configured limit."""

    def __init__(self) -> None:
        raw = os.environ.get(FAULT_ABORT_ENV, "")
        self.limit = int(raw) if raw.isdigit() else None
        self.committed = 0

    def admit(self, count: int) -> int:
        """How many of ``count`` finished items may commit before the limit."""
        return count if self.limit is None else min(count, self.limit - self.committed)

    def on_commit(self, count: int) -> None:
        if self.limit is None:
            return
        self.committed += count
        if self.committed >= self.limit:
            raise Interrupted(
                f"fault-injection abort after {self.committed} committed items"
            )


class PipelineRun:
    """Shared context for one run: config, client, paths, and the engine
    that runs each stage body and writes its stats."""

    def __init__(self, config: RunConfig, client: BackendClient | None = None):
        self.config = config
        self.paths = RunPaths(config.run_dir)
        if client is None:
            mock = MockServer(seed=config.mock_seed, behaviors=config.mock_behaviors)
            client = BackendClient(mock=mock)
        self.client = client
        self._abort = _AbortBudget()

    def _run_stage(self, stage: str) -> None:
        """Run one stage body with a fresh ``stage_client`` for its calls
        outside per-item tasks; write the counters it returns, plus the
        stage's usage, to ``stats/<stage>.json``.

        The stage record ``manifests/<stage>.json`` is read once and decides,
        in order: a stage that calls a backend is skipped while the record
        holds (same config fingerprint, same input digests, outputs that
        still hash as recorded); the stage's results caches, written under
        another fingerprint, refuse the resume before anything is written;
        and they are deleted when no record vouches for them or the input
        files changed. The record is then written with null outputs, and
        again with the output digests once the stats are written.
        """
        spec = STAGES[stage]
        fingerprint = self.config.fingerprint()
        inputs = self._digests(spec.reads)
        record_path = self.paths.manifest(stage)
        record = read_checkpoint(record_path)
        if (spec.backends and record is not None and record["fingerprint"] == fingerprint
                and record["inputs"] == inputs
                and record["outputs"] == self._digests(spec.writes)):
            logger.info("%s: skipped, its outputs match %s", stage, record_path)
            return
        caches = self.paths.caches(stage)
        if caches and record is not None and record["fingerprint"] != fingerprint:
            raise CheckpointError(
                f"the results caches of stage {stage!r} were written under a different "
                "configuration; resumption refused. Start a full restart (remove "
                f"{record_path} or use a new run directory)."
            )
        if caches and (record is None or record["inputs"] != inputs):
            logger.warning("%s: no record vouches for its results caches, or its input "
                           "files changed; discarding the caches", stage)
            for path in caches:
                path.unlink()
        record = {"fingerprint": fingerprint, "inputs": inputs, "outputs": None}
        write_checkpoint(record, record_path)
        self.stage_client = self.client.scoped()
        self._record_usage = sum_usage([])
        # Looked up at call time, so a wrapper installed on the class is used.
        counters = getattr(self, f"cmd_{stage}")()
        if counters is not None:
            counters["usage"] = sum_usage([self._record_usage, self.stage_client.usage.total()])
            write_atomic(self.paths.stats(stage), canonical_json(counters) + "\n")
        write_checkpoint({**record, "outputs": self._digests(spec.writes)}, record_path)

    def _role_path(self, role: str) -> Path | None:
        if role in FILES:
            return self.paths.file(role)
        if role.startswith("stats."):
            return self.paths.stats(role.removeprefix("stats."))
        reference = self.config.analytics_params.get("decontamination_reference")
        return {
            "seed_corpus": self.config.seed_corpus,
            "templates": self.config.templates_dir,
            "decontamination_reference": Path(reference) if reference else None,
        }[role]

    def _digests(self, roles: Iterable[str]) -> dict[str, str | None]:
        """sha256 of each role's file, keyed by role so that a run directory
        copied elsewhere keeps matching; None for a missing file."""
        return {role: file_sha256(self._role_path(role)) for role in roles}

    # -- checkpointed per-item execution --------------------------------------

    def _run_checkpointed(
        self,
        name: str,
        work: Iterable[tuple[str, Any]],
        task_fn: Callable[[Any, BackendClient], dict],
    ) -> CacheReader:
        """Run ``task_fn(payload, client)`` per (id, payload) work item with
        resumable progress.

        Returns a reader of one JSON-able result record per work item, read
        back from the results cache in work order. ``work`` is drawn once
        and lazily: a payload is held only from the time it is drawn until
        its task is done. Each task gets its own scoped client, and its
        record carries the task's backend usage under "usage"; the usage of
        every record, cached or fresh, is added to the stage's total, cached
        records as the cache is matched and fresh ones as they commit. A
        task exception becomes a {"failed": message} record (with the usage
        of the calls made before it), so one bad item never aborts the
        stage.

        The results cache ``cache/<name>.jsonl`` is the only progress
        record. It is a prefix of the work: the file is cut after the
        records ``select_resumable_work`` matches, and the rest of the work
        is run and appended in work order. ``_run_stage`` has already
        deleted a cache its stage record does not vouch for.
        """
        cache_path = self.paths.cache(name)
        count, size, usage, rest = select_resumable_work(cache_path, work)
        self._count_usage([usage])
        pending = (self._wrap_task(task_fn, wid, payload) for wid, payload in rest)
        first = next(pending, None)
        if first is None and not cache_path.exists():
            return CacheReader(cache_path, count)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        with open(cache_path, "ab") as handle:
            # Cut what follows the matched records (such as a torn tail), so
            # the cache stays a prefix of the work.
            if os.fstat(handle.fileno()).st_size > size:
                handle.truncate(size)
                os.fsync(handle.fileno())

            def commit(outcomes: list[tuple[str, dict]]) -> None:
                nonlocal count
                # Under a fault-injection limit, commit exactly up to it.
                outcomes = outcomes[:self._abort.admit(len(outcomes))]
                handle.writelines(encode_cache_line(wid, record) for wid, record in outcomes)
                handle.flush()
                os.fsync(handle.fileno())
                count += len(outcomes)
                self._count_usage(record["usage"] for _, record in outcomes)
                self._abort.on_commit(len(outcomes))

            if first is not None:
                run_bounded(
                    itertools.chain([first], pending), self.config.max_in_flight, on_ready=commit
                )
        return CacheReader(cache_path, count)

    def _count_usage(self, usages: Iterable[dict]) -> None:
        self._record_usage = sum_usage([self._record_usage, *usages])

    def _wrap_task(
        self, task_fn: Callable[[Any, BackendClient], dict], wid: str, payload: Any
    ) -> Callable[[], tuple[str, dict]]:
        def run() -> tuple[str, dict]:
            client = self.client.scoped()
            try:
                record = task_fn(payload, client)
            except Exception as exc:
                record = {"failed": f"{type(exc).__name__}: {exc}"}
            record["usage"] = client.usage.total()
            return wid, record

        return run

    # -- stage: extract --------------------------------------------------------

    def cmd_extract(self) -> dict:
        """Build the knowledge base: extract, quality-filter, cluster, and
        pick representatives; rewrite seeds with representative concept ids."""
        config = self.config
        seeds = load_seed_corpus(config.seed_corpus)
        extractor = config.backends["extractor"]
        kb_judge = config.backends["kb_judge"]
        embedder = config.backends["embedder"]

        def extract_task(seed: SeedExample, client: BackendClient) -> dict:
            return {"phrases": extraction.extract_concepts(seed, extractor, client)}

        extract_results = self._run_checkpointed(
            "extract.concepts", ((s.id, s) for s in seeds), extract_task
        )

        raw_phrases_per_seed: dict[str, list[str]] = {}
        concepts: dict[str, KeyConcept] = {}
        extraction_failures = 0
        for seed, result in zip(seeds, extract_results, strict=True):
            if "failed" in result:
                extraction_failures += 1
                continue
            raw_phrases_per_seed[seed.id] = result["phrases"]
            for phrase in result["phrases"]:
                cid = concept_id_for(phrase)
                concept = concepts.get(cid)
                if concept is None:
                    concepts[cid] = KeyConcept(
                        id=cid, text=canonicalize(phrase), status="raw",
                        provenance=[seed.id],
                    )
                elif seed.id not in concept.provenance:
                    concept.provenance.append(seed.id)
        raw_concepts = [concepts[cid] for cid in sorted(concepts)]
        save_concepts(self.paths.file("concepts_raw"), raw_concepts)

        def quality_task(concept: KeyConcept, client: BackendClient) -> dict:
            verdict = extraction.filter_low_quality([concept], kb_judge, client)[0]
            return {
                "kept": verdict.kept,
                "category": verdict.category,
                "review": verdict.review,
            }

        quality_results = self._run_checkpointed(
            "extract.quality", ((c.id, c) for c in raw_concepts), quality_task
        )
        quality: dict[str, extraction.QualityVerdict] = {}
        filtered_records = []
        for concept, rec in zip(raw_concepts, quality_results, strict=True):
            if "failed" in rec:
                # Transport-level failure: keep the concept, flag for review.
                verdict = extraction.QualityVerdict(concept.id, True, "ok", review=True)
            else:
                verdict = extraction.QualityVerdict(
                    concept.id, rec["kept"], rec["category"], rec.get("review", False)
                )
            quality[concept.id] = verdict
            filtered_records.append({
                "id": concept.id,
                "text": concept.text,
                "kept": verdict.kept,
                "category": verdict.category,
                "review": verdict.review,
            })
        write_jsonl_atomic(self.paths.file("concepts_filtered"), filtered_records)

        kept = [c for c in raw_concepts if quality[c.id].kept]

        # Deterministic single-pass tail: similarity banding, synonym checks,
        # clustering, representative selection.
        thresholds = config.thresholds
        if len(kept) >= 2:
            verdicts = extraction.pairwise_similarity(
                kept, embedder, self.stage_client,
                same_threshold=thresholds["same_band"],
                judge_threshold=thresholds["judge_band"],
            )
            # Only same and judge_checked pairs come back; every other
            # pair is distinct and never reaches the judge.
            same = [v for v in verdicts if v.band == "same"]
            borderline = [v for v in verdicts if v.band == "judge_checked"]
            confirmed = extraction.confirm_synonyms(
                borderline, {c.id: c for c in kept}, kb_judge, self.stage_client
            )
            verdicts = same + confirmed
        else:
            verdicts = []
        clusters = extraction.build_clusters(kept, verdicts)
        clusters, final_concepts = extraction.select_representatives(
            clusters, {c.id: c for c in kept}, kb_judge, self.stage_client
        )

        write_jsonl_atomic(
            self.paths.file("clusters"), [c.to_record() for c in clusters]
        )
        save_concepts(self.paths.file("knowledge_base"), final_concepts)

        enriched = extraction.assign_seed_concept_ids(
            seeds, raw_phrases_per_seed, quality, clusters
        )
        save_seed_corpus(self.paths.file("seeds_enriched"), enriched)

        return {
            "seeds": len(seeds),
            "extraction_failures": extraction_failures,
            "raw_concepts": len(raw_concepts),
            "rejected_concepts": sum(1 for v in quality.values() if not v.kept),
            "review_flagged_concepts": sum(1 for v in quality.values() if v.review),
            "clusters": len(clusters),
            "synthetic_representatives": sum(1 for c in final_concepts if c.is_synthetic),
            "knowledge_base_size": len(final_concepts),
        }

    # -- stage: graph ----------------------------------------------------------

    def cmd_graph(self) -> dict:
        """Build the co-occurrence graph, count every combination kind, draw
        the sampled ranks and build only those combinations, each written
        out as it is built."""
        config = self.config
        seeds = load_seed_corpus(self.paths.file("seeds_enriched"))
        concepts = load_concepts(self.paths.file("knowledge_base"))
        rep_ids = {c.id for c in concepts if c.status == "representative"}
        if not rep_ids:
            raise ValidationError("knowledge base is empty; run extract first")

        g = graphmod.build_graph(
            [(s.id, s.concept_ids) for s in seeds], all_concept_ids=rep_ids
        )
        write_jsonl_atomic(
            self.paths.file("graph_edges"),
            ({"a": a, "b": b, "weight": w} for a, b, w in g.edges()),
        )

        params = config.graph_params
        hubs = graphmod.identify_hubs(g, float(params["hub_fraction"]))
        cap = params.get("community_cap")
        budget = params.get("combination_budget")
        selection = graphmod.select_combinations(
            g, hubs,
            min_weight=float(params["three_hop_min_weight"]),
            sizes=params.get("community_sizes", (3, 4)),
            cap=None if cap is None else int(cap),
            budget=None if budget is None else int(budget),
            seed=config.random_seed,
        )
        write_jsonl_atomic(
            self.paths.file("combinations"), (c.to_record() for c in selection)
        )
        return {
            "nodes": g.node_count(),
            "edges": g.edge_count(),
            "hubs": sorted(hubs.hub_ids),
            "hub_min_degree": hubs.min_degree_achieved,
            "enumerated": selection.enumerated,
            "community_cap_truncated": selection.cap_truncated,
            "sampled_total": len(selection),
            "sampled_by_kind": selection.sampled_by_kind,
        }

    # -- stage: synthesize -------------------------------------------------------

    def cmd_synthesize(self) -> dict:
        """Generate questions, gate them through the judge panel, route
        accepted ones to a solver, and apply the unanimous-vote rule.

        Records stream from ``combinations.jsonl`` through the generate and
        evaluate caches to ``items.jsonl``; the stage holds the question
        digests for dedup, not the records."""
        config = self.config
        panel = JudgePanel(judges=config.judges)
        templates = synthesis.load_templates(config.templates_dir)
        concepts = load_concepts(self.paths.file("knowledge_base"))
        concept_texts = {c.id: c.text for c in concepts}
        generator = config.backends["generator"]
        rater = config.backends["rater"]
        solvers = {
            "solver_small": config.backends["solver_small"],
            "solver_large": config.backends["solver_large"],
        }
        threshold = float(config.thresholds["problem_accept"])

        def combinations() -> Iterator[graphmod.ConceptCombination]:
            for _, rec in iter_jsonl(self.paths.file("combinations")):
                yield graphmod.ConceptCombination.from_record(rec)

        def generate_task(combo: graphmod.ConceptCombination, client: BackendClient) -> dict:
            question = synthesis.generate_problem(
                combo, generator, client, templates, concept_texts
            )
            return {"question": question}

        generated = self._run_checkpointed(
            "synthesize.generate", ((c.combo_id, c) for c in combinations()), generate_task
        )

        # Serialized dedup reduction in combination order: a question's first
        # occurrence wins, later exact duplicates are dropped.
        deduper = synthesis.QuestionDeduper()
        generation_failures = 0

        def survivors() -> Iterator[tuple[str, tuple[graphmod.ConceptCombination, str]]]:
            nonlocal generation_failures
            for combo, rec in zip(combinations(), generated, strict=True):
                if "failed" in rec:
                    generation_failures += 1
                elif deduper.admit(rec["question"]):
                    yield combo.combo_id, (combo, rec["question"])

        def evaluate_task(
            survivor: tuple[graphmod.ConceptCombination, str], client: BackendClient
        ) -> dict:
            combo, question = survivor
            item = SynthesizedItem(
                id="item-" + synthesis.QuestionDeduper.canonical_hash(
                    combo.combo_id + "\x1f" + question
                ),
                combination={
                    "kind": combo.kind,
                    "concept_ids": list(combo.concept_ids),
                    "weight": combo.weight,
                },
                question=question,
            )
            texts = [concept_texts[c] for c in combo.concept_ids]
            scores, review = evaluation.score_problem(
                question, combo, texts, panel, client
            )
            item.problem_scores = scores
            item.flags.extend(sorted(f"judge_unparseable:{j}" for j in review))
            weighted, accepted = evaluation.weighted_problem_verdict(
                scores, panel, threshold
            )
            item.weighted_score = weighted
            item.advance_status("problem_accepted" if accepted else "problem_rejected")
            if accepted:
                item.difficulty = synthesis.rate_difficulty(question, rater, client)
                solver = synthesis.route_solver(item.difficulty, solvers)
                try:
                    item.solution = synthesis.generate_solution(
                        question, solver, client
                    )
                except Exception as exc:
                    item.flags.append(f"solution_failed: {type(exc).__name__}")
                if item.solution:
                    votes, vote_review = evaluation.vote_solution(
                        question, item.solution, panel, client
                    )
                    item.solution_votes = votes
                    item.flags.extend(
                        sorted(f"vote_unparseable:{j}" for j in vote_review)
                    )
                    item.advance_status(
                        "solution_accepted" if evaluation.veto_decision(votes)
                        else "solution_rejected"
                    )
            item.validate()
            return {"item": item.to_record()}

        evaluated = self._run_checkpointed("synthesize.evaluate", survivors(), evaluate_task)

        # items.jsonl in survivor order, counted as it is written.
        status_counts: dict[str, int] = {}
        evaluation_failures = 0

        def items() -> Iterator[dict]:
            nonlocal evaluation_failures
            for rec in evaluated:
                if "failed" in rec:
                    evaluation_failures += 1
                    continue
                status = rec["item"]["status"]
                status_counts[status] = status_counts.get(status, 0) + 1
                yield rec["item"]

        write_jsonl_atomic(self.paths.file("items"), items())
        return {
            "combinations": len(generated),
            "generation_failures": generation_failures,
            "duplicates_dropped": deduper.dropped,
            "evaluation_failures": evaluation_failures,
            "items": sum(status_counts.values()),
            "status_counts": status_counts,
        }

    # -- stage: analyze ----------------------------------------------------------

    def cmd_analyze(self) -> None:
        """Compute the run report: scale, novelty, similarity, cost,
        decontamination, adherence, and stage counters.

        ``items.jsonl`` is read once, one item at a time. Each item feeds
        one small accumulator per report section; only the first
        ``adherence_sample`` accepted (concept ids, question) pairs are
        kept whole."""
        config = self.config
        seeds = load_seed_corpus(self.paths.file("seeds_enriched"))
        params = config.analytics_params
        embedder = config.backends["embedder"]
        extractor = config.backends["extractor"]
        sample_size = params["adherence_sample"]

        novelty = analytics.NoveltyCounter(s.concept_ids for s in seeds)
        similarity = None
        if seeds:
            similarity = analytics.SeedSimilarity(
                [s.question for s in seeds], embedder, self.stage_client,
                bin_width=float(params["similarity_bin_width"]),
            )
        reference = params.get("decontamination_reference")
        overlap = None
        if reference:
            overlap = analytics.NgramOverlap(
                _iter_reference_texts(Path(reference)), ns=params["ngram_sizes"]
            )

        accepted = problem_accepted = scored = 0
        kind_counts: dict[str, int] = {}
        quality_by_kind: dict[str, dict[str, float]] = {}
        adherence_pairs: list[tuple[list[str], str]] = []
        for _, item in iter_jsonl(self.paths.file("items")):
            combo = graphmod.ConceptCombination.from_record(item["combination"])
            novelty.add(combo.concept_ids)
            if item.get("weighted_score") is not None:
                scored += 1
                kind_counts[combo.kind] = kind_counts.get(combo.kind, 0) + 1
                bucket = quality_by_kind.setdefault(combo.kind, {"count": 0, "sum": 0.0})
                bucket["count"] += 1
                bucket["sum"] += item["weighted_score"]
            if item["status"] in ("problem_accepted", "solution_accepted", "solution_rejected"):
                problem_accepted += 1
            if item["status"] != "solution_accepted":
                continue
            accepted += 1
            question = item["question"]
            if similarity is not None:
                similarity.add(question)
            if overlap is not None:
                overlap.add(question)
            if len(adherence_pairs) < sample_size:
                adherence_pairs.append((combo.concept_ids, question))

        sections: dict[str, Any] = {}
        sections["seed_count"] = len(seeds)
        sections["expansion"] = {
            "seeds": len(seeds),
            "synthesized": accepted,
            "ratio": analytics.expansion_ratio(accepted, len(seeds)) if seeds else None,
        }
        sections["combination_kinds"] = kind_counts
        sections["problem_quality_by_kind"] = {
            kind: {
                "count": int(b["count"]),
                "mean_weighted_score": b["sum"] / b["count"],
            }
            for kind, b in sorted(quality_by_kind.items())
        }
        sections["acceptance_rates"] = {
            "problem": problem_accepted / scored if scored else None,
            "solution": accepted / problem_accepted if problem_accepted else None,
        }
        sections["novelty"] = {
            "rate": novelty.rate() if novelty.count else None,
            "items_considered": novelty.count,
        }

        sim_section = None
        if similarity is not None and accepted:
            report = similarity.report()
            sim_section = {
                "bin_edges": report.bin_edges,
                "histogram": report.histogram,
                "cdf": report.cdf,
                "mean_max_cosine": report.mean_max_cosine,
            }
            _write_histogram_csv(self.paths.file("similarity_histogram"), report)
        sections["similarity"] = sim_section

        cost_cfg = config.cost_params
        if cost_cfg:
            model = analytics.CostModel(**{
                k: v for k, v in cost_cfg.items()
                if k in analytics.CostModel.__dataclass_fields__
            })
            sections["cost"] = {
                "mode": model.mode,
                "per_sample": analytics.cost_report(
                    model,
                    tokens_in_per_sample=float(cost_cfg.get("tokens_in_per_sample", 0)),
                    tokens_out_per_sample=float(cost_cfg.get("tokens_out_per_sample", 0)),
                ),
            }

        if overlap is not None and accepted:
            sections["decontamination"] = overlap.report().to_record()

        if adherence_pairs:
            concepts = load_concepts(self.paths.file("knowledge_base"))
            texts_by_id = {c.id: c.text for c in concepts}
            pairs = [
                ([texts_by_id[c] for c in concept_ids], question)
                for concept_ids, question in adherence_pairs
            ]

            def extract_fn(question: str) -> list[str]:
                probe = SeedExample(id="adherence-probe", question=question, solution="")
                return extraction.extract_concepts(probe, extractor, self.stage_client)

            tolerance = params.get("adherence_tolerance")
            embed_fn = None
            if tolerance is not None:
                embed_fn = lambda texts: self.stage_client.embed(embedder, texts)
            adherence = analytics.adherence_report(
                pairs, extract_fn,
                matcher_tolerance=float(tolerance) if tolerance is not None else None,
                embed_fn=embed_fn,
            )
            sections["adherence"] = adherence.to_record()

        sections["stage_counters"] = {
            stage: _load_stats(self.paths.stats(stage))
            for stage in list(STAGES)[:list(STAGES).index("analyze")]
        }
        # Analyze writes no stats: its own calls are counted here, on top
        # of the earlier stages' usage.
        sections["backend_usage"] = sum_usage([
            *((stats or {}).get("usage") or {} for stats in sections["stage_counters"].values()),
            self.stage_client.usage.total(),
        ])

        report = analytics.run_report(sections)
        write_atomic(
            self.paths.file("report"),
            json.dumps(report, sort_keys=True, indent=2) + "\n",
        )


def _load_stats(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _iter_reference_texts(path: Path) -> Iterator[str]:
    """Reference corpus for decontamination, one text at a time: JSONL with
    a question/text field, or a plain text file with one document per line."""
    if not path.exists():
        raise ValidationError(f"decontamination reference {path} does not exist")
    if path.suffix != ".jsonl":
        yield from (line for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
        return
    for lineno, rec in iter_jsonl(path):
        value = rec.get("question", rec.get("text")) if isinstance(rec, dict) else None
        if not isinstance(value, str):
            raise ValidationError(
                f"{path}:{lineno}: reference record needs a 'question' or 'text' field"
            )
        yield value


def _write_histogram_csv(path: Path, report: analytics.SimilarityReport) -> None:
    lines = ["bin_start,bin_end,count,cdf"]
    for i, count in enumerate(report.histogram):
        lines.append(
            f"{report.bin_edges[i]:.2f},{report.bin_edges[i + 1]:.2f},{count},{report.cdf[i]:.6f}"
        )
    write_atomic(path, "\n".join(lines) + "\n")


def run_stage(config: RunConfig, stage: str, client: BackendClient | None = None) -> None:
    """Run one stage, or every stage in order for 'run-all', under the
    run-directory lock. The backend keys of every stage to run, and the
    decontamination reference when analyze is among them, are checked
    first, so a missing role or file fails before any backend call or file
    write; a stage failure halts before the next stage and leaves its
    results caches and its record for a resume."""
    if stage != "run-all" and stage not in STAGES:
        raise ConfigurationError(f"unknown stage {stage!r}")
    stages = list(STAGES) if stage == "run-all" else [stage]
    reference = config.analytics_params.get("decontamination_reference")
    for name in stages:
        backends = STAGES[name].backends
        missing = [key for key in backends if key != "judges" and key not in config.backends]
        if missing:
            raise ConfigurationError(f"stage {name!r} needs backends for: {', '.join(missing)}")
        if "judges" in backends and not config.judges:
            raise ConfigurationError(f"stage {name!r} needs at least one judge")
        if (reference and "decontamination_reference" in STAGES[name].reads
                and not Path(reference).exists()):
            raise ConfigurationError(f"decontamination reference {reference} does not exist")
    run = PipelineRun(config, client=client)
    run.paths.run_dir.mkdir(parents=True, exist_ok=True)
    try:
        with RunLock(run.paths.lock()):
            for name in stages:
                run._run_stage(name)
    finally:
        run.client.close()
