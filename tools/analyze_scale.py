"""Peak memory and CPU time of the analyze stage alone, at a chosen item count.

Usage, from the root of a checkout::

    python3 tools/analyze_scale.py --items 100000 [--seed 3] [--workload slow-backend]

The package (``./src``) and the workload definitions (``./perfbench``) are
imported from the current directory, so one copy of this script measures
any checkout: run it from the other checkout's root by path. It builds the
workload's seed corpus and run config as perfbench does, runs extract, graph
and synthesize on the built-in mock in a temporary directory, then rewrites
``items.jsonl`` as N distinct items (see :func:`write_distinct_items`) and
runs only ``analyze`` in a fresh interpreter. It prints one JSON line: the
item count, that interpreter's ``ru_maxrss`` in MiB, its whole CPU time
(user + system, imports included), the CPU time of the analyze stage alone,
and the stage's wall time.
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

_NONCE = re.compile(r"\bq\d+\b")

# Runs in the fresh interpreter: argv[1] is the run config as JSON.
_CHILD = """
import json, resource, sys, time
from graphsynth.config import parse_config
from graphsynth.pipeline import run_stage
config = parse_config(json.loads(open(sys.argv[1], encoding="utf-8").read()))
cpu, wall = time.process_time(), time.perf_counter()
run_stage(config, "analyze")
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({"ru_maxrss_mib": round(usage.ru_maxrss / 1024, 1),
                  "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
                  "analyze_cpu_s": round(cpu, 3), "analyze_wall_s": round(wall, 3)}))
"""


def write_distinct_items(run_dir: Path, n: int) -> None:
    """Rewrite ``run_dir/items.jsonl`` as ``n`` distinct items.

    Item ``i`` copies item ``i mod k`` of the ``k`` items the run made and
    takes a fresh id. Its question's quantity name (the mock writes
    "A quantity q123 is defined ... Determine q123.") becomes ``q<i>``, or
    ``q<i>`` is appended when the question names none. So every item is a
    question the mock could have written, and no two are equal.
    """
    path = run_dir / "items.jsonl"
    templates = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if not templates:
        raise SystemExit(f"{path} holds no item to copy")
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(n):
            item = dict(templates[i % len(templates)])
            item["id"] = f"item-{i:016x}"
            question, named = _NONCE.subn(f"q{i}", item["question"])
            item["question"] = question if named else f"{question} q{i}"
            handle.write(json.dumps(item, sort_keys=True) + "\n")


def prepare(work: Path, workload: str, seed: int, items: int) -> Path:
    """Run the stages before analyze and write the items; returns the path
    of the run config, as JSON."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import corpus
    from graphsynth.config import parse_config
    from graphsynth.pipeline import run_stage
    from workloads import WORKLOADS, run_config

    w = WORKLOADS[workload]
    corpus_path, reference = corpus.write_inputs(
        work / "inputs",
        corpus.generate(seed, w.seeds, w.concepts, w.topics, w.cross_rate,
                        min_size=w.min_concepts_per_seed),
    )
    config = run_config(w, seed, corpus_path, reference, work / "run")
    for stage in ("extract", "graph", "synthesize"):
        run_stage(parse_config(config), stage)
    write_distinct_items(work / "run", items)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", default="slow-backend")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="analyze-scale-") as work:
        config_path = prepare(Path(work), args.workload, args.seed, args.items)
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(config_path)],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True,
        )
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return 1
    print(json.dumps({"items": args.items, **json.loads(proc.stdout)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
