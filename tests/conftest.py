from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from graphsynth.backends import BackendClient, BackendDescriptor, MockServer
from graphsynth.graph import ConceptGraph, pairs_at_distance


@pytest.fixture
def mock_client():
    return BackendClient(mock=MockServer(seed=7))


def make_descriptor(role: str, backend_id: str | None = None, **kwargs) -> BackendDescriptor:
    backend_id = backend_id or role
    if role == "judge":
        kwargs.setdefault("judge_weight", 1.0)
    return BackendDescriptor(
        backend_id=backend_id,
        role=role,
        endpoint="mock",
        model_name=f"mock-{backend_id}",
        **kwargs,
    )


@pytest.fixture
def descriptors():
    return {
        "extractor": make_descriptor("extractor"),
        "generator": make_descriptor("generator"),
        "rater": make_descriptor("rater"),
        "solver_small": make_descriptor("solver_small"),
        "solver_large": make_descriptor("solver_large"),
        "embedder": make_descriptor("embedder"),
        "kb_judge": make_descriptor("judge", backend_id="kb_judge"),
    }


def wire_usage(mock: MockServer, descriptor: BackendDescriptor, prompt: str) -> dict:
    """The ``usage`` object the mock sends for one chat request."""
    request = {"model": descriptor.model_name,
               "messages": [{"role": "user", "content": prompt}]}
    return mock.chat_completion(request)["usage"]


def reachable_pairs(g: ConceptGraph, sources=None) -> dict[tuple[str, str], tuple[int, float]]:
    """Every pair reachable from ``sources`` (all nodes by default), as
    {(a, b): (hop distance, bottleneck width)} with a < b, read off
    ``pairs_at_distance`` one distance at a time. It stops at the first
    distance that lists no pair: a pair at d + 1 has one at d on its path."""
    out = {}
    d = 1
    while pairs := pairs_at_distance(g, d, sources=sources):
        out.update({(a, b): (d, w) for a, b, w, _ in pairs})
        d += 1
    return out


def toy_corpus_seeds(n_chain: int = 12, copies: int = 2, n_triples: int = 6) -> list[dict]:
    """A seed corpus whose bracket-marked concepts give the mock extractor a
    controlled co-occurrence structure: a chain C0-C1-...-C{n} (distances up
    to the chain length) plus some triangles for communities.
    """
    seeds = []
    idx = 0
    for copy in range(copies):
        for i in range(n_chain - 1):
            seeds.append({
                "id": f"chain-{copy}-{i}",
                "question": (
                    f"Problem {idx}: relate [Concept {i:02d}] with "
                    f"[Concept {i + 1:02d}] in a single derivation."
                ),
                "solution": f"Apply both ideas in order; answer {idx}.",
            })
            idx += 1
    for t in range(n_triples):
        base = 2 * t
        seeds.append({
            "id": f"triple-{t}",
            "question": (
                f"Problem {idx}: combine [Concept {base:02d}], "
                f"[Concept {base + 1:02d}] and [Concept {base + 2:02d}] at once."
            ),
            "solution": f"Chain all three; answer {idx}.",
        })
        idx += 1
    return seeds


def write_corpus(path: Path, seeds: list[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in seeds:
            fh.write(json.dumps(rec) + "\n")
    return path


def base_config(
    tmp_path: Path,
    corpus: Path,
    run_name: str = "run",
    judges_scores_by_kind: dict | None = None,
    **extra,
) -> dict:
    """A full mock-backend run config for pipeline tests."""
    behaviors: dict = {}
    if judges_scores_by_kind:
        behaviors["problem_score_by_kind"] = judges_scores_by_kind
    config = {
        "run_dir": str(tmp_path / run_name),
        "seed_corpus": str(corpus),
        "random_seed": 7,
        "max_in_flight": 4,
        "graph": {
            "hub_fraction": 1.0,
            "three_hop_min_weight": 1,
            "community_cap": None,
            "combination_budget": None,
        },
        "analytics": {"adherence_sample": 5},
        "backends": {
            "extractor": {"endpoint": "mock"},
            "kb_judge": {"endpoint": "mock"},
            "generator": {"endpoint": "mock"},
            "rater": {"endpoint": "mock"},
            "solver_small": {"endpoint": "mock"},
            "solver_large": {"endpoint": "mock"},
            "embedder": {"endpoint": "mock"},
        },
        "judges": [
            {"backend_id": "judge-a", "endpoint": "mock", "judge_weight": 0.5},
            {"backend_id": "judge-b", "endpoint": "mock", "judge_weight": 0.3},
            {"backend_id": "judge-c", "endpoint": "mock", "judge_weight": 0.2},
        ],
        "mock": {"seed": 7, "behaviors": behaviors},
    }
    config.update(extra)
    return config


def write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


SRC = Path(__file__).resolve().parent.parent / "src"


def src_env() -> dict[str, str]:
    """The current environment with the package source on ``PYTHONPATH``,
    for tests that run the package in a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def pytest_runtest_logreport(report):
    # One visible verdict line per acceptance criterion.
    if report.when == "call" and "test_acceptance.py" in str(report.fspath):
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[ACCEPTANCE] {name}: {verdict}", flush=True)
