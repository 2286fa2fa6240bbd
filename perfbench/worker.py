"""One pipeline run in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json OUT.json T0

Set-up is everything before the first stage call: interpreter start,
importing graphsynth, parsing the config, building the client. Its CPU
time is this process's CPU time at that point; its wall time runs from
``T0``, the parent's ``time.monotonic()`` just before it started this
process. The run is timed the same two ways: CPU time (user + system, all
threads) and wall time. SPEC holds the run config and the mock's latency;
the result (timings, peak memory, wire counters and, for a traced run, the
per-layer metrics) is written to OUT. A run aborted by the program's
fault-injection hook reports status "aborted".
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def _proc_io() -> dict[str, int] | None:
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            return {k: int(v) for k, v in (line.split(":") for line in handle if ":" in line)}
    except OSError:
        return None


def _skip_sync(fd: int) -> None:
    """Stands in for ``os.fsync``: the run directories behave as on tmpfs.

    A shared disk's flush latency swings by milliseconds from one minute to
    the next, and a run makes thousands of flushes, so real flushes would
    time the neighbours' I/O. The flush count stays visible per layer
    (``store.fsyncs``).
    """


def main(spec_path: str, out_path: str, t0: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()

    import graphsynth
    from graphsynth.backends import BackendClient
    from graphsynth.config import parse_config
    from graphsynth.pipeline import run_stage

    if src not in Path(graphsynth.__file__).resolve().parents:
        print(f"graphsynth imported from {graphsynth.__file__}, not from {src}", file=sys.stderr)
        return 2

    from mockwire import BenchMock

    config = parse_config(spec["config"])
    mock = BenchMock(
        seed=config.mock_seed, behaviors=config.mock_behaviors,
        latency_mean_s=spec["latency_mean_s"], latency_seed=spec["latency_seed"],
    )
    client = BackendClient(mock=mock)
    result = {"setup_s": time.process_time(), "setup_wall_s": time.monotonic() - t0}

    os.fsync = _skip_sync
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(run_id=spec["run_id"])
        tracer.install()
    io_before = _proc_io()
    status = "ok"
    cpu_start = time.process_time()
    run_start = time.perf_counter()
    try:
        run_stage(config, "run-all", client=client)
    except KeyboardInterrupt:
        status = "aborted"
    run_end = time.perf_counter()
    cpu_end = time.process_time()
    io_after = _proc_io()

    result.update(
        status=status,
        cpu_s=cpu_end - cpu_start,
        wall_s=run_end - run_start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        mock=mock.counters(),
    )
    if tracer is not None and status == "ok":
        import checks
        import perlayer

        run_dir = config.run_dir
        stats = {
            path.stem: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((run_dir / "stats").glob("*.json"))
        }
        with open(run_dir / "items.jsonl", encoding="utf-8") as handle:
            items = [json.loads(line)["status"] for line in handle if line.strip()]
        io_delta = (
            {k: io_after[k] - io_before[k] for k in io_before}
            if io_before is not None and io_after is not None else None
        )
        metrics = perlayer.compute(
            tracer.spans, tracer.absent, run_start=run_start, run_end=run_end,
            mock=result["mock"], io_delta=io_delta, stats=stats, items=items,
            work=checks.work_accounting(run_dir)[:2], max_in_flight=config.max_in_flight,
        )
        result["per_layer"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
        result["absent_wrap_points"] = tracer.absent
        tracer.write(Path(spec["spans_path"]), origin=run_start)
    Path(out_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], float(sys.argv[3])))
