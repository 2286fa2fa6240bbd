"""Command-line entry point.

Subcommands mirror the pipeline stages::

    graphsynth extract    --config run.json
    graphsynth graph      --config run.json [--budget N] [--hub-fraction F]
    graphsynth synthesize --config run.json
    graphsynth analyze    --config run.json
    graphsynth run-all    --config run.json

Any config key can be overridden per invocation with ``--set key.path=value``
(values parse as JSON, falling back to plain strings); the other flags are
shorthand for ``--set`` on one key each, their values JSON-encoded so paths
keep backslashes and quotes as typed. Exit codes: 0 on
success, 1 for validation/config problems, 2 for backend failures, 3 when
interrupted with the results cache preserved.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .config import load_config
from .errors import BackendError, ValidationError
from .pipeline import STAGES, run_stage

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BACKEND = 2
EXIT_INTERRUPTED = 3

# Convenience flags that map onto config keys.
_FLAG_KEYS = {
    "run_dir": "run_dir",
    "seed_corpus": "seed_corpus",
    "random_seed": "random_seed",
    "budget": "graph.combination_budget",
    "hub_fraction": "graph.hub_fraction",
    "min_weight": "graph.three_hop_min_weight",
    "cap": "graph.community_cap",
}


def number(text: str) -> int | float:
    """A numeric flag value as typed: an integer literal stays an int, so
    ``--min-weight 2`` fingerprints like the config default ``2``; any other
    value parses as a float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsynth",
        description="Concept-graph driven synthesis of reasoning instruction data.",
    )
    parser.add_argument("--verbose", "-v", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in (*STAGES, "run-all"):
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE", help="override a config key (dotted path)",
        )
        p.add_argument("--run-dir", dest="run_dir", help="override run directory")
        p.add_argument("--seed-corpus", dest="seed_corpus", help="override seed corpus path")
        p.add_argument("--random-seed", dest="random_seed", type=int)
        if stage in ("graph", "run-all"):
            p.add_argument("--budget", dest="budget", type=int,
                           help="max combinations to keep (uniform sample)")
            p.add_argument("--hub-fraction", dest="hub_fraction", type=number)
            p.add_argument("--min-weight", dest="min_weight", type=number,
                           help="bottleneck weight floor for three-hop pairs")
            p.add_argument("--cap", dest="cap", type=int,
                           help="max communities kept per clique size")
    return parser


def _collect_overrides(args: argparse.Namespace) -> list[str]:
    overrides = list(args.overrides)
    for attr, key in _FLAG_KEYS.items():
        value = getattr(args, attr, None)
        if value is not None:
            overrides.append(f"{key}={json.dumps(value)}")
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        config = load_config(args.config, overrides=_collect_overrides(args))
        run_stage(config, args.stage)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except KeyboardInterrupt:
        print("interrupted; results cache preserved, rerun to resume", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
