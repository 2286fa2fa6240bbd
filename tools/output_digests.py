"""Print the sha256 of every byte-compared output of each perfbench workload.

Usage, from the root of a checkout::

    python3 tools/output_digests.py --seed 3

The package (``./src``) and the workload definitions (``./perfbench``) are
imported from the current directory, so one copy of this script measures
any checkout, including one that predates it: run it from the other
checkout's root by path. For each workload it builds the seed corpus with
``perfbench/corpus.py`` and the run config with
``perfbench/workloads.run_config``, runs ``run-all`` on the built-in mock in
a temporary directory, and prints one JSON line mapping each workload to
the sha256 of each file in ``OUTPUT_FILES`` and ``stats/*.json`` (``null``
for a missing file).

A workload with an abort point (crash-resume) is first run uninterrupted,
to count its work items, then aborted by the fault-injection hook once that
share of ``synthesize.evaluate`` has committed. As perfbench does, the
aborted run directory is copied to a new path and resumed there, so a
resume that depends on where its run directory lives shows up here. Its
digests are the resumed run's; the exit code is 1 if they differ from the
uninterrupted run's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from graphsynth.config import parse_config  # noqa: E402
from graphsynth.pipeline import FAULT_ABORT_ENV, OUTPUT_FILES, run_stage  # noqa: E402
from workloads import WORKLOADS, run_config  # noqa: E402


def digests(run_dir: Path) -> dict[str, str | None]:
    paths = [run_dir / name for name in OUTPUT_FILES]
    paths += sorted((run_dir / "stats").glob("*.json"))
    return {
        str(path.relative_to(run_dir)):
            hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        for path in paths
    }


def run_all(config: dict, abort_after: int | None = None) -> None:
    """``run-all`` in this process; with ``abort_after``, the fault hook
    must stop it after that many committed work items."""
    if abort_after is not None:
        os.environ[FAULT_ABORT_ENV] = str(abort_after)
    try:
        run_stage(parse_config(config), "run-all")
    except KeyboardInterrupt:
        if abort_after is None:
            raise
        return
    finally:
        os.environ.pop(FAULT_ABORT_ENV, None)
    if abort_after is not None:
        raise SystemExit(f"the fault-injection abort after {abort_after} items did not trip")


def abort_point(run_dir: Path, evaluate_frac: float) -> int:
    """Committed work items before the abort, counted as perfbench counts
    them: every extract and generate item plus the evaluate share."""
    extract = json.loads((run_dir / "stats" / "extract.json").read_text())
    synth = json.loads((run_dir / "stats" / "synthesize.json").read_text())
    survivors = synth["combinations"] - synth["generation_failures"] - synth["duplicates_dropped"]
    return (extract["seeds"] + extract["raw_concepts"] + synth["combinations"]
            + math.ceil(evaluate_frac * survivors))


def workload_digests(name: str, seed: int, work: Path) -> tuple[dict, bool]:
    """(digests of the workload's final run, whether a resume reproduced
    the uninterrupted run)."""
    w = WORKLOADS[name]
    corpus_path, reference = corpus.write_inputs(
        work / "inputs",
        corpus.generate(seed, w.seeds, w.concepts, w.topics, w.cross_rate,
                        min_size=w.min_concepts_per_seed),
    )
    full = work / "uninterrupted"
    run_all(run_config(w, seed, corpus_path, reference, full))
    if w.abort_at_evaluate_frac is None:
        return digests(full), True
    aborted, resumed = work / "aborted", work / "resumed"
    run_all(run_config(w, seed, corpus_path, reference, aborted),
            abort_after=abort_point(full, w.abort_at_evaluate_frac))
    shutil.copytree(aborted, resumed)
    run_all(run_config(w, seed, corpus_path, reference, resumed))
    final = digests(resumed)
    return final, final == digests(full)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    os.environ.pop(FAULT_ABORT_ENV, None)
    result, ok = {}, True
    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix=f"digests-{name}-") as work:
            result[name], reproduced = workload_digests(name, args.seed, Path(work))
        if not reproduced:
            print(f"{name}: the resumed run differs from the uninterrupted one",
                  file=sys.stderr)
            ok = False
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
