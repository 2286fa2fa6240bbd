"""Benchmark the graphsynth pipeline end to end (``run-all``) on the mock.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the repository root; it builds nothing and imports graphsynth
from ``src/``. For the workload it generates a seeded corpus, then runs
``run-all`` in fresh interpreters for ``--seconds`` seconds and checks every
run's outputs. With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics (medians over the runs); with ``--trace 1``
untraced and traced runs alternate and the object holds the per-layer
metrics (medians over the traced runs) and the tracing overhead. Scratch
files go to ``.perfbench_work/``. The exit code is nonzero when a check
fails; README.md describes the workloads and the metrics.

Timings are CPU time of the process that runs the pipeline. Wall time on a
shared virtual machine counts the time the host takes the CPUs away
(steal), which swings a run by up to 2x; wall times are reported per layer.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 150
MIN_UNTRACED_RUNS = 3
MAX_RUNS = 40

END_TO_END = (
    ("cpu_s", "s"), ("items_per_cpu_s", "items/s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
    ("backend_requests", "count"), ("backend_tokens", "count"),
)
# The layer (or layers) each workload is built to make dominant.
INTENDED_LAYERS = {
    "graph-dense": ("graph",),
    "synth-wide": ("pipeline", "store"),
    "slow-backend": ("backends",),
    "crash-resume": ("extraction",),
}


class BenchError(Exception):
    """A run that did not complete; the benchmark reports it as incorrect."""


def spawn(spec: dict, out: Path, env_extra: dict | None = None) -> dict:
    """Run worker.py on ``spec`` in a fresh interpreter and return its result."""
    spec_path = out.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GRAPHSYNTH_FAULT_ABORT_AFTER", None)
    env.update(env_extra or {})
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(out), repr(t0)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                if str(path).startswith(mount_point) and len(mount_point) > len(best):
                    best, fstype = mount_point, right.split()[0]
    except OSError:
        pass
    return fstype


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import corpus
    from workloads import WORKLOADS, run_config

    w = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "runs").mkdir(parents=True)
    corpus_path, reference = corpus.write_inputs(
        work / "inputs",
        corpus.generate(seed, w.seeds, w.concepts, w.topics, w.cross_rate, min_size=w.min_concepts_per_seed),
    )

    def spec(run_dir: Path, traced: bool = False) -> dict:
        return {
            "src": str(SRC),
            "config": run_config(w, seed, corpus_path, reference, run_dir),
            "latency_mean_s": w.latency_mean_ms / 1000,
            "latency_seed": seed,
            "trace": traced,
            "run_id": run_dir.name,
            "spans_path": str(work / "spans.jsonl"),
        }

    errors: list[str] = []
    reference_digest = None  # outputs every timed run must reproduce byte for byte
    if w.abort_at_evaluate_frac is not None:
        # Untimed: the uninterrupted run the resume must reproduce, then the
        # aborted run every timed resume starts from.
        full = work / "uninterrupted"
        spawn(spec(full), work / "uninterrupted.json")
        reference_digest = checks.output_digest(full)
        stats = {s: json.loads((full / "stats" / f"{s}.json").read_text()) for s in ("extract", "synthesize")}
        synth = stats["synthesize"]
        survivors = synth["combinations"] - synth["generation_failures"] - synth["duplicates_dropped"]
        abort_after = (stats["extract"]["seeds"] + stats["extract"]["raw_concepts"] + synth["combinations"]
                       + math.ceil(w.abort_at_evaluate_frac * survivors))
        shutil.rmtree(full)
        aborted = spawn(spec(work / "aborted"), work / "aborted.json",
                        {"GRAPHSYNTH_FAULT_ABORT_AFTER": str(abort_after)})
        if aborted["status"] != "aborted":
            raise BenchError(f"fault-injection abort after {abort_after} items did not trip")

    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    started = time.monotonic()
    for index in range(MAX_RUNS):
        # A traced invocation needs one untraced run as the overhead baseline.
        enough = len(untraced) >= (1 if trace else MIN_UNTRACED_RUNS) and (traced or not trace)
        if enough and time.monotonic() - started >= seconds:
            break
        is_traced = trace and index % 2 == 1
        run_dir = work / "runs" / f"run{index}"
        if w.abort_at_evaluate_frac is not None:
            shutil.copytree(work / "aborted", run_dir)
        result = spawn(spec(run_dir, traced=is_traced), work / "runs" / f"run{index}.json")
        if result["status"] != "ok":
            raise BenchError(f"run {index} ended with status {result['status']}")
        digest = checks.output_digest(run_dir)
        if index == 0:
            errors += checks.check_outputs(run_dir)
            reference_digest = reference_digest or digest
        errors += checks.compare_digests(f"run {index}", reference_digest, digest)
        run_attempted, run_failed, accounting_errors = checks.work_accounting(run_dir)
        errors += accounting_errors
        attempted += run_attempted
        failed += run_failed
        result["accepted"] = checks.accepted_items(run_dir)
        shutil.rmtree(run_dir)
        (traced if is_traced else untraced).append(result)
    shutil.rmtree(work / "aborted", ignore_errors=True)

    cpu_s = median([r["cpu_s"] for r in untraced])
    end_to_end = {
        "cpu_s": cpu_s,
        "items_per_cpu_s": median([r["accepted"] / r["cpu_s"] for r in untraced]),
        "setup_s": median(r["setup_s"] for r in untraced + traced),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "backend_requests": median([r["mock"]["chat_requests"] + r["mock"]["embed_requests"] for r in untraced]),
        "backend_tokens": median([r["mock"]["tokens"] for r in untraced]),
    }
    per_layer = {}
    if trace:
        for metric, first in traced[0]["per_layer"].items():
            values = [r["per_layer"][metric]["value"] for r in traced]
            value = None if any(v is None for v in values) else median(values)
            per_layer[metric] = {"value": value, "unit": first["unit"]}
            if value is None:
                per_layer[metric]["absent"] = True
        per_layer.update({
            "wall.run_s": {"value": median([r["wall_s"] for r in untraced]), "unit": "s"},
            "wall.items_per_s": {"value": median([r["accepted"] / r["wall_s"] for r in untraced]),
                                 "unit": "items/s"},
            "wall.setup_s": {"value": median(r["setup_wall_s"] for r in untraced + traced), "unit": "s"},
            "trace.overhead_s": {"value": median([r["cpu_s"] for r in traced]) - cpu_s, "unit": "s"},
        })
    return {
        "workload": name,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "runs": {"untraced": len(untraced), "traced": len(traced), "setup_samples": len(untraced) + len(traced)},
        "untraced_runs": [{k: r[k] for k in ("cpu_s", "wall_s", "peak_rss_mb", "setup_s", "setup_wall_s")}
                          for r in untraced],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "absent_wrap_points": traced[0].get("absent_wrap_points", []) if traced else [],
    }


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "run_dir_filesystem": filesystem_of(WORK),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def dominance_line(result: dict) -> str:
    """Which layer took the largest share of the traced run's wall time."""
    shares = {k.split(".", 1)[1]: v["value"] for k, v in result["per_layer"].items()
              if k.startswith("layer_share.") and v["value"] is not None}
    intended = INTENDED_LAYERS[result["workload"]]
    own = sum(shares.get(layer, 0.0) for layer in intended)
    rival, rival_share = max(((k, v) for k, v in shares.items() if k not in intended), key=lambda kv: kv[1])
    verdict = "ok" if own > rival_share else "MISS"
    line = (f"dominant layer {result['workload']}: {'+'.join(intended)} {own:.3f} "
            f"vs {rival} {rival_share:.3f} -> {verdict}")
    if result["workload"] == "slow-backend":
        line += f"; graph share {shares.get('graph', 0.0):.3f} ({'ok' if shares.get('graph', 0.0) < 0.05 else 'MISS'} < 0.05)"
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphsynth" / "pipeline.py").is_file():
        print(f"error: {SRC / 'graphsynth'} not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    results = []
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
        except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            result = {"workload": name, "errors": [f"{type(exc).__name__}: {exc}"], "attempted": 1,
                      "failed": 1, "end_to_end": {}, "per_layer": {}}
        result["environment"] = env
        results.append(result)
        work = WORK / f"{name}-seed{args.seed}"
        work.mkdir(parents=True, exist_ok=True)
        (work / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
        for error in result["errors"]:
            print(f"CHECK FAILED {name}: {error}")
        for metric, unit in END_TO_END:
            if metric in result["end_to_end"]:
                print(f"{name:14s} {metric:18s} {result['end_to_end'][metric]:14.4f} {unit}")
        for metric, entry in result["per_layer"].items():
            value = "absent" if entry["value"] is None else f"{entry['value']:14.4f}"
            print(f"{name:14s} {metric:38s} {value:>14s} {entry['unit']}")
        if result["per_layer"]:
            print(dominance_line(result))

    correct = all(not r["errors"] for r in results)
    metrics = {}
    for result in results:
        source = result["per_layer"] if args.trace else {
            m: {"value": result["end_to_end"][m], "unit": u} for m, u in END_TO_END if m in result["end_to_end"]
        }
        prefix = f"{result['workload']}/" if len(results) > 1 else ""
        metrics.update({prefix + m: v for m, v in source.items()})
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
