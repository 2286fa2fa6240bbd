"""Peak memory and CPU time of the graph stage alone, at the paper's proportions.

Usage, from the root of a checkout::

    python3 tools/graph_scale.py --seeds 7500 [--seed 3]

The package (``./src``) and the corpus generator (``./perfbench``) are
imported from the current directory, so one copy of this script measures
any checkout: run it from the other checkout's root by path. It generates N
seeds of 5 concepts drawn from 5N phrases in 20 topics, with ``cross_rate``
0.15, which is the paper's run at N = 7,500. It writes
``seeds_enriched.jsonl`` and ``knowledge_base.jsonl`` from the bracketed
phrases, which is what the mock extract writes when no two concepts merge,
and runs only the graph stage, with a combination budget of
2,123,345 × N / 7,500, in a fresh interpreter. It prints one JSON line: the
graph's nodes and edges, the combinations enumerated and sampled per kind,
the graph stage's CPU time, and that interpreter's ``ru_maxrss`` in MiB.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()

PAPER_SEEDS = 7_500
PAPER_BUDGET = 2_123_345

_BRACKET = re.compile(r"\[([^\[\]]{2,80})\]")

# Runs in the fresh interpreter: argv[1] is the run config as JSON.
_CHILD = """
import json, resource, sys, time
from graphsynth.config import parse_config
from graphsynth.pipeline import run_stage
config = parse_config(json.loads(open(sys.argv[1], encoding="utf-8").read()))
cpu = time.process_time()
run_stage(config, "graph")
cpu = time.process_time() - cpu
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"graph_cpu_s": round(cpu, 3),
                  "ru_maxrss_mib": round(usage.ru_maxrss / 1024, 1)}))
"""


def prepare(work: Path, n_seeds: int, seed: int) -> Path:
    """Write the run directory's graph inputs; returns the path of the run
    config, as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    from graphsynth._util import canonicalize
    from graphsynth.store import (
        KeyConcept,
        SeedExample,
        concept_id_for,
        save_concepts,
        save_seed_corpus,
    )
    from workloads import Workload, run_config

    w = Workload("graph-scale", seeds=n_seeds, concepts=5 * n_seeds, topics=20,
                 cross_rate=0.15, budget=PAPER_BUDGET * n_seeds // PAPER_SEEDS,
                 min_concepts_per_seed=5)
    records = corpus.generate(seed, w.seeds, w.concepts, w.topics, w.cross_rate,
                              min_size=w.min_concepts_per_seed)
    corpus_path, reference = corpus.write_inputs(work / "inputs", records)
    config = run_config(w, seed, corpus_path, reference, work / "run")
    seeds, concepts = [], {}
    for rec in records:
        ids = []
        for phrase in _BRACKET.findall(rec["question"]):
            cid = concept_id_for(phrase)
            concept = concepts.setdefault(cid, KeyConcept(
                id=cid, text=canonicalize(phrase), status="representative",
                cluster_id=f"cluster-{cid}", provenance=[]))
            concept.provenance.append(rec["id"])
            ids.append(cid)
        seeds.append(SeedExample(id=rec["id"], question=rec["question"],
                                 solution=rec["solution"], concept_ids=ids))
    (work / "run").mkdir()
    save_seed_corpus(work / "run" / "seeds_enriched.jsonl", seeds)
    save_concepts(work / "run" / "knowledge_base.jsonl", [concepts[c] for c in sorted(concepts)])
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.seeds < 20:
        parser.error("--seeds must be >= 20, so each of the 20 topics has 5 phrases")
    with tempfile.TemporaryDirectory(prefix="graph-scale-") as work:
        config_path = prepare(Path(work), args.seeds, args.seed)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(config_path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        stats_path = Path(work) / "run" / "stats" / "graph.json"
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
    print(json.dumps({
        "seeds": args.seeds, "nodes": stats["nodes"], "edges": stats["edges"],
        "enumerated": stats["enumerated"], "sampled_by_kind": stats["sampled_by_kind"],
        **json.loads(proc.stdout),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
