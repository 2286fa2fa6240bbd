"""The four benchmark workloads: corpus shape, pipeline config, mock latency.

Every workload runs with ``max_in_flight: 2``. The runner starts one
thread per in-flight slot, and at zero latency the mock's work is bound by
the interpreter lock, so more slots than cores would measure the
scheduler. README.md says why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

MAX_IN_FLIGHT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    seeds: int
    concepts: int
    topics: int
    cross_rate: float
    budget: int
    community_cap: int | None = None
    min_concepts_per_seed: int = 2
    latency_mean_ms: float = 0.0
    # Abort the untimed first run once this share of synthesize.evaluate has
    # committed, then time the resume (crash-resume only).
    abort_at_evaluate_frac: float | None = None


SYNTH_WIDE = dict(seeds=300, concepts=600, topics=20, cross_rate=0.15, budget=600)

WORKLOADS = {
    w.name: w for w in (
        Workload("graph-dense", seeds=500, concepts=300, topics=4, cross_rate=0.15, budget=60,
                 community_cap=5000, min_concepts_per_seed=5),
        Workload("synth-wide", **SYNTH_WIDE),
        Workload("slow-backend", seeds=100, concepts=100, topics=8, cross_rate=0.15, budget=100,
                 latency_mean_ms=4.0),
        Workload("crash-resume", **SYNTH_WIDE, abort_at_evaluate_frac=0.9),
    )
}


def run_config(workload: Workload, seed: int, corpus: Path, reference: Path, run_dir: Path) -> dict:
    """The graphsynth run config; only ``run_dir`` differs between runs of
    one workload and seed, and the fingerprint ignores it."""
    roles = ("extractor", "kb_judge", "generator", "rater", "solver_small", "solver_large", "embedder")
    return {
        "run_dir": str(run_dir),
        "seed_corpus": str(corpus),
        "random_seed": seed,
        "max_in_flight": MAX_IN_FLIGHT,
        "graph": {
            "hub_fraction": 0.01,
            "three_hop_min_weight": 2,
            "community_sizes": [3, 4],
            "community_cap": workload.community_cap,
            "combination_budget": workload.budget,
        },
        "analytics": {"decontamination_reference": str(reference), "adherence_sample": 100},
        "cost": {"mode": "gpu_hourly", "gpu_rate": 0.42, "gpu_count": 8, "hours": 36,
                 "sample_count": 2123345},
        "backends": {role: {"endpoint": "mock"} for role in roles},
        "judges": [
            {"backend_id": "judge-a", "endpoint": "mock", "judge_weight": 0.5},
            {"backend_id": "judge-b", "endpoint": "mock", "judge_weight": 0.3},
            {"backend_id": "judge-c", "endpoint": "mock", "judge_weight": 0.2},
        ],
        # Every problem passes the panel, so accepted-item counts follow the
        # budget instead of the mock's score draw.
        "mock": {"seed": seed, "behaviors": {"problem_score": 0.9}},
    }
