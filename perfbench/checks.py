"""Output checks on a finished run directory, independent of the program's
own arithmetic wherever that is possible.

Each check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from graphsynth.pipeline import OUTPUT_FILES
from graphsynth.store import SynthesizedItem


def _jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def output_digest(run_dir: Path) -> dict[str, str]:
    """sha256 of every file in OUTPUT_FILES (missing files read as None)."""
    digest = {}
    for name in OUTPUT_FILES:
        path = run_dir / name
        digest[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
    return digest


def compare_digests(label: str, expected: dict, actual: dict) -> list[str]:
    return [
        f"{label}: {name} differs" for name in OUTPUT_FILES if expected.get(name) != actual.get(name)
    ]


def work_accounting(run_dir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) for one run, from stats/*.json.

    Attempts are seeds (extraction), sampled combinations (generation) and
    dedup survivors (evaluation); failures are the matching failure counts.
    The counts are cross-checked against the output files they describe.
    """
    stats = {
        stage: json.loads((run_dir / "stats" / f"{stage}.json").read_text(encoding="utf-8"))
        for stage in ("extract", "graph", "synthesize")
    }
    extract, synth = stats["extract"], stats["synthesize"]
    survivors = synth["combinations"] - synth["generation_failures"] - synth["duplicates_dropped"]
    attempted = extract["seeds"] + synth["combinations"] + survivors
    failed = extract["extraction_failures"] + synth["generation_failures"] + synth["evaluation_failures"]
    errors = []
    n_seeds = len(_jsonl(run_dir / "seeds_enriched.jsonl"))
    n_combos = len(_jsonl(run_dir / "combinations.jsonl"))
    n_items = len(_jsonl(run_dir / "items.jsonl"))
    if extract["seeds"] != n_seeds:
        errors.append(f"stats count {extract['seeds']} seeds, seeds_enriched.jsonl has {n_seeds}")
    if synth["combinations"] != n_combos or stats["graph"]["sampled_total"] != n_combos:
        errors.append(f"stats disagree with the {n_combos} lines of combinations.jsonl")
    if survivors - synth["evaluation_failures"] != n_items or synth["items"] != n_items:
        errors.append(f"attempt accounting gives {survivors - synth['evaluation_failures']} items, "
                      f"items.jsonl has {n_items}")
    if not 0 <= failed <= attempted:
        errors.append(f"failed work items {failed} outside [0, {attempted}]")
    return attempted, failed, errors


def accepted_items(run_dir: Path) -> int:
    return sum(rec["status"] == "solution_accepted" for rec in _jsonl(run_dir / "items.jsonl"))


def check_outputs(run_dir: Path) -> list[str]:
    """Item schema, brute-force novelty and histogram totals."""
    errors = []
    items = _jsonl(run_dir / "items.jsonl")
    for line, rec in enumerate(items, start=1):
        try:
            SynthesizedItem.from_record(rec, line=line)
        except Exception as exc:  # any rejection is a failed check
            errors.append(f"items.jsonl line {line}: {exc}")
    accepted = sum(1 for rec in items if rec["status"] == "solution_accepted")
    if accepted == 0:
        errors.append("no solution_accepted items")
    report = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))

    seed_sets = [frozenset(rec.get("concept_ids", [])) for rec in _jsonl(run_dir / "seeds_enriched.jsonl")]
    novel = 0
    for rec in items:
        concepts = frozenset(rec["combination"]["concept_ids"])
        if concepts and not any(concepts <= seed for seed in seed_sets):
            novel += 1
    expected = novel / len(items) if items else None
    if report["novelty"]["rate"] != expected:
        errors.append(f"novelty rate {report['novelty']['rate']} in report.json, brute force gives {expected}")

    histogram = report["similarity"]["histogram"] if isinstance(report["similarity"], dict) else []
    if sum(histogram) != accepted:
        errors.append(f"similarity histogram sums to {sum(histogram)}, {accepted} items accepted")
    csv_rows = (run_dir / "similarity_histogram.csv").read_text(encoding="utf-8").splitlines()[1:]
    if sum(int(row.split(",")[2]) for row in csv_rows) != accepted:
        errors.append("similarity_histogram.csv counts do not sum to the accepted items")
    return errors
