"""Peak memory, CPU and wall time of one pipeline stage, or of the whole run,
at the paper's proportions.

Usage, from the root of a checkout::

    python3 tools/stage_scale.py --stage extract|graph|synthesize|analyze|all \\
        --seeds N [--items M] [--dim D] [--seed S]

The package (``./src``) and the corpus generator (``./perfbench``) are
imported from the current directory, so one copy of this script measures
any checkout: run it from the other checkout's root by path. It generates N
seeds of 5 concepts drawn from 5N phrases in 20 topics, with ``cross_rate``
0.15 and a combination budget of 2,123,345 × N / 7,500, which is the
paper's run at N = 7,500. It runs the stages before the measured one in
this process, on the built-in mock with D-dimensional embeddings. For
analyze, ``--items M`` then rewrites ``items.jsonl`` as M distinct items
(see :func:`write_distinct_items`). A fresh interpreter runs the measured
stage, or all four for ``all``, on the same mock. It prints one JSON line:
each measured stage's CPU and wall time, that interpreter's ``ru_maxrss``
in MiB, the run directory's bytes, and the ``stats/<stage>.json`` of each
measured stage that writes one (analyze writes ``report.json`` instead).
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

STAGES = ("extract", "graph", "synthesize", "analyze")
PAPER_SEEDS = 7_500
PAPER_BUDGET = 2_123_345

_NONCE = re.compile(r"\bq\d+\b")

# Runs in the fresh interpreter: argv[1] is the run config as JSON, argv[2]
# the embedding width and argv[3:] the stages to measure.
_CHILD = """
import json, resource, sys, time
from graphsynth.backends import BackendClient, MockServer
from graphsynth.config import parse_config
from graphsynth.pipeline import run_stage
config = parse_config(json.loads(open(sys.argv[1], encoding="utf-8").read()))
mock = MockServer(seed=config.mock_seed, behaviors=config.mock_behaviors,
                  embedding_dim=int(sys.argv[2]))
times = {}
for stage in sys.argv[3:]:
    cpu, wall = time.process_time(), time.perf_counter()
    run_stage(config, stage, client=BackendClient(mock=mock))
    times[stage] = {"cpu_s": round(time.process_time() - cpu, 3),
                    "wall_s": round(time.perf_counter() - wall, 3)}
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"stages": times, "ru_maxrss_mib": round(usage.ru_maxrss / 1024, 1)}))
"""


def write_distinct_items(run_dir: Path, n: int) -> None:
    """Rewrite ``run_dir/items.jsonl`` as ``n`` distinct items, one
    canonical-JSON line each, as synthesize writes them.

    Item ``i`` copies item ``i mod k`` of the ``k`` items the run made and
    takes a fresh id. Its question's quantity name (the mock writes
    "A quantity q123 is defined ... Determine q123.") becomes ``q<i>``, or
    ``q<i>`` is appended when the question names none. So every item is a
    question the mock could have written, and no two are equal.
    """
    from graphsynth._util import iter_jsonl, write_jsonl_atomic

    path = run_dir / "items.jsonl"
    templates = [item for _, item in iter_jsonl(path)]
    if not templates:
        raise SystemExit(f"{path} holds no item to copy")

    def items():
        for i in range(n):
            item = dict(templates[i % len(templates)])
            item["id"] = f"item-{i:016x}"
            question, named = _NONCE.subn(f"q{i}", item["question"])
            item["question"] = question if named else f"{question} q{i}"
            yield item

    write_jsonl_atomic(path, items())


def prepare(work: Path, args: argparse.Namespace, measured: tuple[str, ...]) -> Path:
    """Write the inputs, run the stages before the measured ones and write
    the items; returns the path of the run config, as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    from graphsynth.backends import BackendClient, MockServer
    from graphsynth.config import parse_config
    from graphsynth.pipeline import run_stage
    from workloads import Workload, run_config

    w = Workload("stage-scale", seeds=args.seeds, concepts=5 * args.seeds, topics=20,
                 cross_rate=0.15, budget=PAPER_BUDGET * args.seeds // PAPER_SEEDS,
                 min_concepts_per_seed=5)
    records = corpus.generate(args.seed, w.seeds, w.concepts, w.topics, w.cross_rate,
                              min_size=w.min_concepts_per_seed)
    corpus_path, reference = corpus.write_inputs(work / "inputs", records)
    config = run_config(w, args.seed, corpus_path, reference, work / "run")
    parsed = parse_config(config)
    mock = MockServer(seed=parsed.mock_seed, behaviors=parsed.mock_behaviors,
                      embedding_dim=args.dim)
    for stage in STAGES[:STAGES.index(measured[0])]:
        run_stage(parsed, stage, client=BackendClient(mock=mock))
    if args.items is not None:
        write_distinct_items(work / "run", args.items)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=(*STAGES, "all"), required=True)
    parser.add_argument("--seeds", type=int, required=True)
    parser.add_argument("--items", type=int)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.seeds < 20:
        parser.error("--seeds must be >= 20, so each of the 20 topics has 5 phrases")
    if args.dim < 1:
        parser.error("--dim must be >= 1")
    if args.items is not None and (args.items < 1 or args.stage != "analyze"):
        parser.error("--items must be >= 1, and only --stage analyze takes it")
    measured = STAGES if args.stage == "all" else (args.stage,)
    with tempfile.TemporaryDirectory(prefix="stage-scale-") as work:
        config_path = prepare(Path(work), args, measured)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(config_path), str(args.dim), *measured],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return 1
        run = Path(work) / "run"
        run_dir_bytes = sum(p.stat().st_size for p in run.rglob("*") if p.is_file())
        stats = {}
        for stage in measured:
            path = run / "stats" / f"{stage}.json"
            if path.exists():  # analyze writes report.json, not a stats file
                stats[stage] = json.loads(path.read_text(encoding="utf-8"))
    print(json.dumps({
        "stage": args.stage, "seeds": args.seeds, "items": args.items, "dim": args.dim,
        **json.loads(proc.stdout), "run_dir_bytes": run_dir_bytes, "stats": stats,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
