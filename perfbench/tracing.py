"""Spans around the program's public functions, taken from outside it.

Each wrap point replaces a module (or class) attribute with a timing
wrapper, so the pipeline's own calls go through it. A span records its
name, start, end, parent span, the stage span it ran under and the run id.
Spans stay in memory until the run ends.

A wrap point whose function no longer exists is reported as absent: every
metric that depends on it is marked absent instead of reading zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# span name -> (module, attribute path). The span name's prefix is the layer.
WRAP_POINTS = {
    "pipeline.cmd_extract": ("graphsynth.pipeline", "PipelineRun.cmd_extract"),
    "pipeline.cmd_graph": ("graphsynth.pipeline", "PipelineRun.cmd_graph"),
    "pipeline.cmd_synthesize": ("graphsynth.pipeline", "PipelineRun.cmd_synthesize"),
    "pipeline.cmd_analyze": ("graphsynth.pipeline", "PipelineRun.cmd_analyze"),
    "pipeline.run_bounded": ("graphsynth.pipeline", "run_bounded"),
    "store.write_checkpoint": ("graphsynth.pipeline", "write_checkpoint"),
    "store.read_checkpoint": ("graphsynth.pipeline", "read_checkpoint"),
    "store.select_resumable_work": ("graphsynth.pipeline", "select_resumable_work"),
    "store.load_seed_corpus": ("graphsynth.pipeline", "load_seed_corpus"),
    "store.load_concepts": ("graphsynth.pipeline", "load_concepts"),
    "store.save_concepts": ("graphsynth.pipeline", "save_concepts"),
    "store.save_seed_corpus": ("graphsynth.pipeline", "save_seed_corpus"),
    "store.write_jsonl_atomic": ("graphsynth.pipeline", "write_jsonl_atomic"),
    "store.write_atomic": ("graphsynth.pipeline", "write_atomic"),
    "store.fsync": ("os", "fsync"),
    "backends.complete": ("graphsynth.backends", "BackendClient.complete"),
    "backends.embed": ("graphsynth.backends", "BackendClient.embed"),
    "extraction.extract_concepts": ("graphsynth.extraction", "extract_concepts"),
    "extraction.filter_low_quality": ("graphsynth.extraction", "filter_low_quality"),
    "extraction.pairwise_similarity": ("graphsynth.extraction", "pairwise_similarity"),
    "extraction.confirm_synonyms": ("graphsynth.extraction", "confirm_synonyms"),
    "extraction.build_clusters": ("graphsynth.extraction", "build_clusters"),
    "extraction.select_representatives": ("graphsynth.extraction", "select_representatives"),
    "extraction.assign_seed_concept_ids": ("graphsynth.extraction", "assign_seed_concept_ids"),
    "graph.build_graph": ("graphsynth.graph", "build_graph"),
    "graph.identify_hubs": ("graphsynth.graph", "identify_hubs"),
    "graph.enumerate_one_hop": ("graphsynth.graph", "enumerate_one_hop"),
    "graph.enumerate_two_hop": ("graphsynth.graph", "enumerate_two_hop"),
    "graph.enumerate_three_hop": ("graphsynth.graph", "enumerate_three_hop"),
    "graph.enumerate_communities": ("graphsynth.graph", "enumerate_communities"),
    "graph.sample_combinations": ("graphsynth.graph", "sample_combinations"),
    "synthesis.load_templates": ("graphsynth.synthesis", "load_templates"),
    "synthesis.generate_problem": ("graphsynth.synthesis", "generate_problem"),
    "synthesis.rate_difficulty": ("graphsynth.synthesis", "rate_difficulty"),
    "synthesis.generate_solution": ("graphsynth.synthesis", "generate_solution"),
    "evaluation.score_problem": ("graphsynth.evaluation", "score_problem"),
    "evaluation.weighted_problem_verdict": ("graphsynth.evaluation", "weighted_problem_verdict"),
    "evaluation.vote_solution": ("graphsynth.evaluation", "vote_solution"),
    "evaluation.veto_decision": ("graphsynth.evaluation", "veto_decision"),
    "analytics.novelty_rate": ("graphsynth.analytics", "novelty_rate"),
    "analytics.similarity_distribution": ("graphsynth.analytics", "similarity_distribution"),
    "analytics.ngram_overlap": ("graphsynth.analytics", "ngram_overlap"),
    "analytics.adherence_report": ("graphsynth.analytics", "adherence_report"),
    "analytics.cost_report": ("graphsynth.analytics", "cost_report"),
    "analytics.run_report": ("graphsynth.analytics", "run_report"),
}

LAYERS = ("pipeline", "store", "backends", "extraction", "graph", "synthesis", "evaluation", "analytics")

RUNNER = "pipeline.run_bounded"
STAGES = ("pipeline.cmd_extract", "pipeline.cmd_graph", "pipeline.cmd_synthesize", "pipeline.cmd_analyze")
BACKEND_CALLS = ("backends.complete", "backends.embed")
# Wrap points whose result length is recorded on the span.
_COUNT_RESULTS = {
    "extraction.pairwise_similarity", "graph.enumerate_one_hop", "graph.enumerate_two_hop",
    "graph.enumerate_three_hop", "graph.enumerate_communities", "graph.sample_combinations",
}


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name) for ``module.attr`` or ``module.Class.attr``;
    None when any part of the path is missing."""
    import importlib

    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Installs the wrap points and collects spans for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (span id, name, start, end, parent id, stage, depth, on main thread, result size)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._runner: tuple[int, int] | None = None  # (span id, depth) of the live runner span
        self._stage: str | None = None

    def install(self) -> None:
        for name, (module_name, attr_path) in WRAP_POINTS.items():
            target = _resolve(module_name, attr_path)
            if target is None:
                self.absent.append(name)
                continue
            owner, attr = target
            setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        count_result = name in _COUNT_RESULTS
        is_checkpoint_write = name == "store.write_checkpoint"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            stack = tracer._stack()
            main = threading.get_ident() == tracer._main
            if stack:
                parent, depth = stack[-1][0], stack[-1][1] + 1
            elif not main and tracer._runner is not None:
                # A runner task on a pool thread: its parent is the runner span.
                parent, depth = tracer._runner[0], tracer._runner[1] + 1
            else:
                parent, depth = None, 0
            stack.append((span_id, depth))
            if name == RUNNER and main:
                tracer._runner = (span_id, depth)
            elif name in STAGES:
                tracer._stage = name
            size = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count_result:
                    size = len(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == RUNNER and main:
                    tracer._runner = None
                if is_checkpoint_write:
                    size = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])
                tracer.spans.append(
                    (span_id, name, start, end, parent, tracer._stage, depth, main, size)
                )

        return traced

    def write(self, path: Path, origin: float) -> None:
        """Write the spans as JSONL, times in seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, stage, depth, main, size in self.spans:
                handle.write(json.dumps({
                    "run": self.run_id, "id": span_id, "name": name,
                    "start": start - origin, "end": end - origin, "parent": parent,
                    "stage": stage, "depth": depth, "main_thread": main, "size": size,
                }) + "\n")


def layer_shares(spans: list[tuple], run_start: float, run_end: float) -> dict[str, float]:
    """Share of the run's wall time attributed to each layer.

    Each instant goes to the deepest span live at that instant on any
    thread, except that an instant with a backend call in flight goes to
    the backend layer. This is self time: a span keeps only the part of its
    interval its children do not cover. Time under no span (locking, the
    run-directory set-up) goes to the pipeline layer.
    """
    backend_priority = 1 << 20
    events = []
    for _, name, start, end, _, _, depth, _, _ in spans:
        layer = name.split(".", 1)[0]
        priority = backend_priority if name in BACKEND_CALLS else depth
        events.append((start, 1, priority, layer))
        events.append((end, -1, priority, layer))
    events.sort(key=lambda e: (e[0], e[1]))
    live: dict[int, Counter] = defaultdict(Counter)
    totals: Counter = Counter()
    previous = run_start
    for when, delta, priority, layer in events:
        when = min(max(when, run_start), run_end)
        if when > previous:
            top = max((p for p, c in live.items() if c), default=None)
            owner = "pipeline" if top is None else max(live[top].items(), key=lambda kv: (kv[1], kv[0]))[0]
            totals[owner] += when - previous
            previous = when
        live[priority][layer] += delta
        if live[priority][layer] == 0:
            del live[priority][layer]
            if not live[priority]:
                del live[priority]
    totals["pipeline"] += max(0.0, run_end - previous)
    wall = run_end - run_start
    return {layer: totals.get(layer, 0.0) / wall for layer in LAYERS}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
