"""Peak memory and CPU time of extract's similarity tail alone, at the paper's proportions.

Usage, from the root of a checkout::

    python3 tools/extract_scale.py --seeds 7500 [--dim 32] [--seed 3]

The package (``./src``) and the corpus generator (``./perfbench``) are
imported from the current directory, so one copy of this script measures
any checkout: run it from the other checkout's root by path. It generates N
seeds as ``tools/graph_scale.py`` does (5 concepts each, drawn from 5N
phrases in 20 topics, ``cross_rate`` 0.15: the paper's run at N = 7,500)
and takes their distinct bracketed phrases as the kept concepts, about
13,700 at N = 7,500. In a fresh interpreter it runs only
``extraction.pairwise_similarity`` over them, on the built-in mock with
D-dimensional embeddings. It prints one JSON line: the concept count K, the
verdicts returned, the call's CPU time, and that interpreter's
``ru_maxrss`` in MiB.
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

_BRACKET = re.compile(r"\[([^\[\]]{2,80})\]")

# Runs in the fresh interpreter: argv[1] is the phrase list as JSON, argv[2]
# the embedding width and argv[3] the mock's seed.
_CHILD = """
import json, resource, sys, time
from graphsynth.backends import BackendClient, BackendDescriptor, MockServer
from graphsynth.extraction import pairwise_similarity
from graphsynth.store import KeyConcept, concept_id_for
phrases = json.loads(open(sys.argv[1], encoding="utf-8").read())
concepts = [KeyConcept(id=concept_id_for(p), text=p) for p in phrases]
client = BackendClient(mock=MockServer(seed=int(sys.argv[3]), embedding_dim=int(sys.argv[2])))
embedder = BackendDescriptor("embedder", "embedder", "mock", "mock-embedder")
cpu = time.process_time()
verdicts = pairwise_similarity(concepts, embedder, client)
cpu = time.process_time() - cpu
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"concepts": len(concepts), "verdicts": len(verdicts),
                  "similarity_cpu_s": round(cpu, 3),
                  "ru_maxrss_mib": round(usage.ru_maxrss / 1024, 1)}))
"""


def distinct_phrases(n_seeds: int, seed: int) -> list[str]:
    """The canonical bracketed phrases of N generated seeds, each once, in
    first-seen order."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    from graphsynth._util import canonicalize

    records = corpus.generate(seed, n_seeds, 5 * n_seeds, 20, 0.15, min_size=5)
    phrases: dict[str, None] = {}
    for rec in records:
        for phrase in _BRACKET.findall(rec["question"]):
            phrases.setdefault(canonicalize(phrase), None)
    return list(phrases)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.seeds < 20:
        parser.error("--seeds must be >= 20, so each of the 20 topics has 5 phrases")
    if args.dim < 1:
        parser.error("--dim must be >= 1")
    with tempfile.TemporaryDirectory(prefix="extract-scale-") as work:
        phrases_path = Path(work) / "phrases.json"
        phrases_path.write_text(json.dumps(distinct_phrases(args.seeds, args.seed)),
                                encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(phrases_path), str(args.dim), str(args.seed)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return 1
    print(json.dumps({"seeds": args.seeds, "dim": args.dim, **json.loads(proc.stdout)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
