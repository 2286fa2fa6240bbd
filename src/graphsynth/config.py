"""Run configuration: one JSON document drives every stage.

All tunable constants (similarity bands 0.90/0.70, the 0.85 problem
threshold, hub fraction, weight floor, caps, budgets, the random seed) live
here as defaults so nothing quality-critical is hard-coded in stage logic.

The config fingerprint covers every effective setting except the run
directory, ``max_in_flight``, which changes how many items run at once but
not their results, and the paths of the input files, whose contents each
stage record hashes instead. A number is hashed by its value, so ``2.0``
and ``2`` fingerprint alike. Results caches written under a different
fingerprint refuse to resume.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ._util import canonical_json, content_hash, is_int, is_number, reject_unknown_keys
from .analytics import CostModel, _bin_edges
from .backends import BackendDescriptor, MockBehaviors, RequestParams
from .errors import ConfigurationError, ValidationError

SINGLETON_ROLES = {
    "extractor": "extractor",
    "kb_judge": "judge",
    "generator": "generator",
    "rater": "rater",
    "solver_small": "solver_small",
    "solver_large": "solver_large",
    "embedder": "embedder",
}

DEFAULTS: dict[str, Any] = {
    "random_seed": 0,
    "max_in_flight": 8,
    "thresholds": {
        "same_band": 0.90,
        "judge_band": 0.70,
        "problem_accept": 0.85,
    },
    "graph": {
        "hub_fraction": 0.01,
        "three_hop_min_weight": 2,
        "community_sizes": [3, 4],
        "community_cap": None,
        "combination_budget": None,
    },
    "analytics": {
        "ngram_sizes": [8, 10, 13, 15],
        "decontamination_reference": None,
        "adherence_sample": 100,
        "adherence_tolerance": None,
        "similarity_bin_width": 0.05,
    },
    "cost": None,
    "templates_dir": None,
    "mock": {"seed": 0, "behaviors": {}},
}

_TOP_LEVEL_KEYS = (*DEFAULTS, "run_dir", "seed_corpus", "backends", "judges")
# The keys of one backend or judge record.
_DESCRIPTOR_KEYS = (
    "endpoint", "model_name", "backend_id", "judge_weight", "request_params", "api_key_env",
)


def _merge_defaults(base: Any, override: Any) -> Any:
    if isinstance(base, dict) and isinstance(override, dict):
        merged = dict(base)
        for key, value in override.items():
            merged[key] = _merge_defaults(base.get(key), value) if key in base else value
        return merged
    return override


@dataclass
class RunConfig:
    """Parsed, validated configuration for one pipeline run."""

    run_dir: Path
    seed_corpus: Path
    raw: dict = field(repr=False, default_factory=dict)
    backends: dict[str, BackendDescriptor] = field(default_factory=dict)
    judges: list[BackendDescriptor] = field(default_factory=list)
    mock_seed: int = 0
    mock_behaviors: MockBehaviors = field(default_factory=MockBehaviors)

    # -- accessors for common settings ---------------------------------------

    @property
    def random_seed(self) -> int:
        return int(self.raw["random_seed"])

    @property
    def max_in_flight(self) -> int:
        return int(self.raw["max_in_flight"])

    @property
    def thresholds(self) -> dict[str, float]:
        return self.raw["thresholds"]

    @property
    def graph_params(self) -> dict[str, Any]:
        return self.raw["graph"]

    @property
    def analytics_params(self) -> dict[str, Any]:
        return self.raw["analytics"]

    @property
    def cost_params(self) -> dict[str, Any] | None:
        return self.raw.get("cost")

    @property
    def templates_dir(self) -> Path | None:
        value = self.raw.get("templates_dir")
        return Path(value) if value else None

    def fingerprint(self) -> str:
        """Hash of every effective setting except the run directory,
        ``max_in_flight`` and the input paths (``seed_corpus``,
        ``templates_dir``, ``analytics.decontamination_reference``): a resume
        may change any of them without changing results. The stage records
        hash the contents of the input files instead. An integral float is
        hashed as its int (see :func:`_integral_floats_as_ints`)."""
        effective = {
            k: v for k, v in self.raw.items()
            if k not in ("run_dir", "max_in_flight", "seed_corpus", "templates_dir")
        }
        effective["analytics"] = {
            k: v for k, v in effective["analytics"].items() if k != "decontamination_reference"
        }
        return content_hash(canonical_json(_integral_floats_as_ints(effective)))


def _integral_floats_as_ints(value: Any) -> Any:
    """``value`` with every integral float inside it replaced by its int,
    so that ``2.0`` and ``2`` encode alike; a bool stays a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {k: _integral_floats_as_ints(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integral_floats_as_ints(v) for v in value]
    return value


def _parse_descriptor(key: str, role: str, rec: dict) -> BackendDescriptor:
    if not isinstance(rec, dict):
        raise ConfigurationError(f"backend {key!r} must be an object")
    reject_unknown_keys(f"backend {key!r}", rec, _DESCRIPTOR_KEYS)
    endpoint = rec.get("endpoint")
    if not endpoint:
        raise ConfigurationError(f"backend {key!r}: 'endpoint' is required")
    model_name = rec.get("model_name") or (f"mock-{key}" if endpoint == "mock" else None)
    if not model_name:
        raise ConfigurationError(f"backend {key!r}: 'model_name' is required")
    params = RequestParams.from_record(rec.get("request_params", {}))
    judge_weight = rec.get("judge_weight")
    if role == "judge" and judge_weight is None:
        judge_weight = 1.0
    return BackendDescriptor(
        backend_id=rec.get("backend_id", key),
        role=role,
        endpoint=endpoint,
        model_name=model_name,
        judge_weight=judge_weight,
        request_params=params,
        api_key_env=rec.get("api_key_env"),
    )


def parse_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Validate a raw config dict (defaults merged in) into a RunConfig.

    Relative paths are resolved against ``base_dir`` (the config file's
    directory) when given.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    reject_unknown_keys("config", data, _TOP_LEVEL_KEYS)
    merged = _merge_defaults(copy.deepcopy(DEFAULTS), data)
    for key in ("run_dir", "seed_corpus"):
        if not merged.get(key):
            raise ConfigurationError(f"config key {key!r} is required")

    # Checked here, not where they are used, so a bad value fails before
    # extract spends its backend calls or writes a stage record.
    for section in ("thresholds", "graph", "analytics"):
        if not isinstance(merged[section], dict):
            raise ConfigurationError(f"{section} must be an object")
        reject_unknown_keys(section, merged[section], DEFAULTS[section])
    if not is_int(merged["random_seed"]):
        raise ConfigurationError("random_seed must be an integer")
    if not (is_int(merged["max_in_flight"]) and merged["max_in_flight"] >= 1):
        raise ConfigurationError("max_in_flight must be an integer >= 1")
    thresholds = merged["thresholds"]
    for name, value in thresholds.items():
        if not (is_number(value) and 0.0 <= value <= 1.0):
            raise ConfigurationError(f"threshold {name!r} must be a number within [0, 1]")
    if thresholds["judge_band"] > thresholds["same_band"]:
        raise ConfigurationError(
            "thresholds.judge_band must not exceed thresholds.same_band"
        )
    graph = merged["graph"]
    if not (is_number(graph["hub_fraction"]) and 0 < graph["hub_fraction"] <= 1):
        raise ConfigurationError("graph.hub_fraction must be a number in (0, 1]")
    for key in ("combination_budget", "community_cap"):
        value = graph.get(key)
        if not (value is None or (is_int(value) and value >= 0)):
            raise ConfigurationError(f"graph.{key} must be null or an integer >= 0")
    sizes = graph.get("community_sizes")
    if not isinstance(sizes, (list, tuple)) or not all(is_int(s) and s in (3, 4) for s in sizes):
        raise ConfigurationError("graph.community_sizes must be a list of integers within {3, 4}")
    if not is_number(graph["three_hop_min_weight"]):
        raise ConfigurationError("graph.three_hop_min_weight must be a number")

    analytics = merged["analytics"]
    if not (is_int(analytics["adherence_sample"]) and analytics["adherence_sample"] >= 0):
        raise ConfigurationError("analytics.adherence_sample must be an integer >= 0")
    ngram_sizes = analytics["ngram_sizes"]
    if not (isinstance(ngram_sizes, list) and ngram_sizes
            and all(is_int(n) and n >= 1 for n in ngram_sizes)):
        raise ConfigurationError("analytics.ngram_sizes must be a non-empty list of integers >= 1")
    tolerance = analytics["adherence_tolerance"]
    if not (tolerance is None or (is_number(tolerance) and -1.0 <= tolerance <= 1.0)):
        raise ConfigurationError(
            "analytics.adherence_tolerance must be null or a finite number in [-1, 1]"
        )
    reference = analytics["decontamination_reference"]
    if not (reference is None or (isinstance(reference, str) and reference)):
        raise ConfigurationError(
            "analytics.decontamination_reference must be null or a non-empty string"
        )
    width = analytics["similarity_bin_width"]
    if not (is_number(width) and 0 < width <= 1):
        raise ConfigurationError("analytics.similarity_bin_width must be a number in (0, 1]")
    try:
        _bin_edges(width)
    except ValidationError as exc:
        raise ConfigurationError(f"analytics.similarity_bin_width: {exc}") from exc

    cost = merged["cost"]
    if cost:
        if not isinstance(cost, dict):
            raise ConfigurationError("cost must be null or an object")
        per_sample = ("tokens_in_per_sample", "tokens_out_per_sample")
        reject_unknown_keys("cost", cost, [*CostModel.__dataclass_fields__, *per_sample])
        try:
            CostModel(**{k: v for k, v in cost.items() if k in CostModel.__dataclass_fields__})
        except (TypeError, ValidationError) as exc:
            raise ConfigurationError(f"cost: {exc}") from exc
        for key in per_sample:
            value = cost.get(key, 0)
            if not (is_number(value) and value >= 0):
                raise ConfigurationError(f"cost.{key} must be a number >= 0")
    mock_cfg = merged["mock"] or {}
    if not isinstance(mock_cfg, dict) or not isinstance(mock_cfg.get("behaviors") or {}, dict):
        raise ConfigurationError("mock and mock.behaviors must each be null or an object")
    reject_unknown_keys("mock", mock_cfg, DEFAULTS["mock"])
    if not is_int(mock_cfg.get("seed", 0)):
        raise ConfigurationError("mock.seed must be an integer")
    mock_behaviors = MockBehaviors.from_record(mock_cfg.get("behaviors") or {})

    backend_recs = {} if merged.get("backends") is None else merged["backends"]
    if not isinstance(backend_recs, dict):
        raise ConfigurationError("backends must be null or an object")
    judge_recs = [] if merged.get("judges") is None else merged["judges"]
    if not (isinstance(judge_recs, list) and all(isinstance(r, dict) for r in judge_recs)):
        raise ConfigurationError("judges must be null or a list of objects")

    backends: dict[str, BackendDescriptor] = {}
    for key, rec in backend_recs.items():
        if key not in SINGLETON_ROLES:
            raise ConfigurationError(
                f"unknown backend key {key!r}; expected one of {sorted(SINGLETON_ROLES)}"
            )
        backends[key] = _parse_descriptor(key, SINGLETON_ROLES[key], rec)

    judges = []
    seen_ids = set()
    for idx, rec in enumerate(judge_recs):
        rec = dict(rec)
        rec.setdefault("backend_id", f"judge-{idx}")
        descriptor = _parse_descriptor(rec["backend_id"], "judge", rec)
        if descriptor.backend_id in seen_ids:
            raise ConfigurationError(f"duplicate judge backend_id {descriptor.backend_id!r}")
        seen_ids.add(descriptor.backend_id)
        judges.append(descriptor)

    def _resolve(value: str) -> Path:
        path = Path(value)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return path

    if merged.get("templates_dir"):
        merged["templates_dir"] = str(_resolve(str(merged["templates_dir"])))
    if reference:
        analytics["decontamination_reference"] = str(_resolve(reference))

    return RunConfig(
        run_dir=_resolve(str(merged["run_dir"])),
        seed_corpus=_resolve(str(merged["seed_corpus"])),
        raw=merged,
        backends=backends,
        judges=judges,
        mock_seed=mock_cfg.get("seed", 0),
        mock_behaviors=mock_behaviors,
    )


def load_config(path: str | Path, overrides: list[str] | None = None) -> RunConfig:
    """Load a JSON config file and apply ``key.path=value`` overrides."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}")
    for override in overrides or []:
        data = apply_override(data, override)
    return parse_config(data, base_dir=path.parent)


def apply_override(data: dict, assignment: str) -> dict:
    """Apply one ``dotted.key=value`` override; values parse as JSON with a
    plain-string fallback.

    A part after a list is an integer index into it, so
    ``judges.0.judge_weight=2`` sets the first judge's weight. A missing
    object key on the way becomes a new object. An index out of range, or a
    path that runs through a scalar (null included), raises
    ``ConfigurationError`` naming the override.
    """
    if "=" not in assignment:
        raise ConfigurationError(f"override {assignment!r} must look like key=value")
    key, _, raw_value = assignment.partition("=")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = key.strip().split(".")
    node: Any = data
    for depth, part in enumerate(parts):
        where = ".".join(parts[:depth])
        if isinstance(node, list):
            if not part.isdigit() or int(part) >= len(node):
                raise ConfigurationError(
                    f"override {assignment!r}: {where} is a list of {len(node)}, "
                    f"and {part!r} is not an index into it"
                )
            part = int(part)
        elif not isinstance(node, dict):
            raise ConfigurationError(
                f"override {assignment!r}: {where} is {json.dumps(node)}, "
                "not an object or a list"
            )
        if depth == len(parts) - 1:
            node[part] = value
        else:
            node = node.setdefault(part, {}) if isinstance(node, dict) else node[part]
    return data
