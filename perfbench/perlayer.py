"""Per-layer metrics of one traced run, computed from its spans and counters.

Every metric names the wrap points it needs. When one of them is absent
(the function was deleted or renamed) the metric is reported as absent,
never as zero.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import BACKEND_CALLS, LAYERS, RUNNER, layer_shares, percentile

MIB = 1 << 20


class _Spans:
    def __init__(self, spans: list[tuple]):
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in spans:
            self.by_name[span[1]].append(span)

    def dur(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.by_name[name])

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def sizes(self, *names: str) -> int:
        return sum(s[8] or 0 for name in names for s in self.by_name[name])


def _ratio(numerator: float, denominator: float) -> float | None:
    return numerator / denominator if denominator else None


def compute(spans, absent, *, run_start, run_end, mock, io_delta, stats, items, work, max_in_flight):
    """Return {metric name: (value or None, unit)}; None means absent.

    ``mock`` holds the wire counters of the benchmark's mock, ``io_delta``
    the /proc/self/io deltas over the run (None where unreadable), ``stats``
    the run's stats/*.json documents by stage, ``items`` the statuses in
    items.jsonl and ``work`` the (attempted, failed) work-item counts.
    """
    sp = _Spans(spans)
    backend_latencies = [s[3] - s[2] for name in BACKEND_CALLS for s in sp.by_name[name]]
    busy_s = sum(backend_latencies)
    busy_in_runner = sum(s[3] - s[2] for name in BACKEND_CALLS for s in sp.by_name[name] if not s[7])
    runner_s = sp.dur(RUNNER)
    synth = stats.get("synthesize", {})
    statuses = defaultdict(int)
    for status in items:
        statuses[status] += 1
    scored = len(items)
    problem_accepted = statuses["problem_accepted"] + statuses["solution_accepted"] + statuses["solution_rejected"]
    enumerations = ("graph.enumerate_one_hop", "graph.enumerate_two_hop",
                    "graph.enumerate_three_hop", "graph.enumerate_communities")
    built = sp.sizes(*enumerations)
    io = io_delta or {}
    shares = layer_shares(spans, run_start, run_end)

    table = [
        # name, unit, wrap points needed, value
        ("pipeline.extract_s", "s", ["pipeline.cmd_extract"], lambda: sp.dur("pipeline.cmd_extract")),
        ("pipeline.graph_s", "s", ["pipeline.cmd_graph"], lambda: sp.dur("pipeline.cmd_graph")),
        ("pipeline.synthesize_s", "s", ["pipeline.cmd_synthesize"], lambda: sp.dur("pipeline.cmd_synthesize")),
        ("pipeline.analyze_s", "s", ["pipeline.cmd_analyze"], lambda: sp.dur("pipeline.cmd_analyze")),
        ("pipeline.runner_s", "s", [RUNNER], lambda: runner_s),
        ("pipeline.runner.calls", "count", [RUNNER], lambda: sp.calls(RUNNER)),
        ("pipeline.runner.slot_idle_frac", "ratio", [RUNNER, *BACKEND_CALLS],
         lambda: None if not runner_s else 1.0 - busy_in_runner / (max_in_flight * runner_s)),
        ("pipeline.failed_frac", "ratio", [], lambda: _ratio(work[1], work[0])),
        ("store.checkpoint_writes", "count", ["store.write_checkpoint"], lambda: sp.calls("store.write_checkpoint")),
        ("store.checkpoint_write_s", "s", ["store.write_checkpoint"], lambda: sp.dur("store.write_checkpoint")),
        ("store.checkpoint_mb", "MiB", ["store.write_checkpoint"], lambda: sp.sizes("store.write_checkpoint") / MIB),
        ("store.read_checkpoint_s", "s", ["store.read_checkpoint"], lambda: sp.dur("store.read_checkpoint")),
        ("store.select_resumable_work_s", "s", ["store.select_resumable_work"],
         lambda: sp.dur("store.select_resumable_work")),
        ("store.fsyncs", "count", ["store.fsync"], lambda: sp.calls("store.fsync")),
        ("store.write_mb", "MiB", [], lambda: io["wchar"] / MIB if "wchar" in io else None),
        ("store.read_mb", "MiB", [], lambda: io["rchar"] / MIB if "rchar" in io else None),
        ("store.write_syscalls", "count", [], lambda: io.get("syscw")),
        ("backends.requests.chat", "count", [], lambda: mock["chat_requests"]),
        ("backends.requests.embed", "count", [], lambda: mock["embed_requests"]),
        ("backends.tokens", "count", [], lambda: mock["tokens"]),
        ("backends.busy_s", "s", list(BACKEND_CALLS), lambda: busy_s),
        ("backends.latency_p50_ms", "ms", list(BACKEND_CALLS),
         lambda: 1000 * percentile(backend_latencies, 50) if backend_latencies else None),
        ("backends.latency_p99_ms", "ms", list(BACKEND_CALLS),
         lambda: 1000 * percentile(backend_latencies, 99) if backend_latencies else None),
        ("backends.client_overhead_s", "s", list(BACKEND_CALLS), lambda: busy_s - mock["wire_s"]),
        ("backends.mock_cpu_s", "s", [], lambda: mock["cpu_s"]),
        ("extraction.extract_concepts.calls", "count", ["extraction.extract_concepts"],
         lambda: sp.calls("extraction.extract_concepts")),
        ("extraction.filter_low_quality.calls", "count", ["extraction.filter_low_quality"],
         lambda: sp.calls("extraction.filter_low_quality")),
        ("extraction.confirm_synonyms.calls", "count", ["extraction.confirm_synonyms"],
         lambda: sp.calls("extraction.confirm_synonyms")),
        ("extraction.pairwise_similarity_s", "s", ["extraction.pairwise_similarity"],
         lambda: sp.dur("extraction.pairwise_similarity")),
        ("extraction.similarity_pairs", "count", ["extraction.pairwise_similarity"],
         lambda: sp.sizes("extraction.pairwise_similarity")),
        ("extraction.build_clusters_s", "s", ["extraction.build_clusters"],
         lambda: sp.dur("extraction.build_clusters")),
        ("extraction.select_representatives_s", "s", ["extraction.select_representatives"],
         lambda: sp.dur("extraction.select_representatives")),
        ("graph.build_graph_s", "s", ["graph.build_graph"], lambda: sp.dur("graph.build_graph")),
        ("graph.enumerate_two_hop_s", "s", ["graph.enumerate_two_hop"], lambda: sp.dur("graph.enumerate_two_hop")),
        ("graph.enumerate_three_hop_s", "s", ["graph.enumerate_three_hop"],
         lambda: sp.dur("graph.enumerate_three_hop")),
        ("graph.enumerate_communities_s", "s", ["graph.enumerate_communities"],
         lambda: sp.dur("graph.enumerate_communities")),
        ("graph.sample_combinations_s", "s", ["graph.sample_combinations"],
         lambda: sp.dur("graph.sample_combinations")),
        ("graph.enumerate_communities.calls", "count", ["graph.enumerate_communities"],
         lambda: sp.calls("graph.enumerate_communities")),
        ("graph.combinations_built", "count", list(enumerations), lambda: built),
        ("graph.sampled_frac", "ratio", [*enumerations, "graph.sample_combinations"],
         lambda: _ratio(sp.sizes("graph.sample_combinations"), built)),
        ("synthesis.generate_problem.calls", "count", ["synthesis.generate_problem"],
         lambda: sp.calls("synthesis.generate_problem")),
        ("synthesis.generate_problem_s", "s", ["synthesis.generate_problem"],
         lambda: sp.dur("synthesis.generate_problem")),
        ("synthesis.rate_difficulty.calls", "count", ["synthesis.rate_difficulty"],
         lambda: sp.calls("synthesis.rate_difficulty")),
        ("synthesis.generate_solution.calls", "count", ["synthesis.generate_solution"],
         lambda: sp.calls("synthesis.generate_solution")),
        ("synthesis.duplicates_dropped", "count", [], lambda: synth.get("duplicates_dropped")),
        ("evaluation.score_problem.calls", "count", ["evaluation.score_problem"],
         lambda: sp.calls("evaluation.score_problem")),
        ("evaluation.score_problem_s", "s", ["evaluation.score_problem"], lambda: sp.dur("evaluation.score_problem")),
        ("evaluation.vote_solution.calls", "count", ["evaluation.vote_solution"],
         lambda: sp.calls("evaluation.vote_solution")),
        ("evaluation.vote_solution_s", "s", ["evaluation.vote_solution"], lambda: sp.dur("evaluation.vote_solution")),
        ("evaluation.problem_accept_frac", "ratio", [], lambda: _ratio(problem_accepted, scored)),
        ("evaluation.solution_accept_frac", "ratio", [],
         lambda: _ratio(statuses["solution_accepted"], problem_accepted)),
        ("analytics.novelty_rate_s", "s", ["analytics.novelty_rate"], lambda: sp.dur("analytics.novelty_rate")),
        ("analytics.similarity_distribution_s", "s", ["analytics.similarity_distribution"],
         lambda: sp.dur("analytics.similarity_distribution")),
        ("analytics.ngram_overlap_s", "s", ["analytics.ngram_overlap"], lambda: sp.dur("analytics.ngram_overlap")),
        ("analytics.adherence_report_s", "s", ["analytics.adherence_report"],
         lambda: sp.dur("analytics.adherence_report")),
    ]
    table += [
        (f"layer_share.{layer}", "ratio", [], (lambda layer=layer: shares[layer])) for layer in LAYERS
    ]

    missing = set(absent)
    out = {}
    for name, unit, needs, value in table:
        out[name] = (None if missing.intersection(needs) else value(), unit)
    return out
