"""Multi-judge quality gating for synthesized problems and solutions.

Problems get a numeric score in [0, 1] from every judge; the weighted mean
(weights normalized to sum 1) must reach the acceptance threshold, 0.85 by
default, with equality accepted. Solutions get a binary vote from every
judge and survive only a unanimous yes: a single negative vote vetoes.

Parsing is fail-closed here: a judge whose reply cannot be parsed scores 0
(or votes no) and the item is flagged for review. That is the opposite of
the concept-quality filter's fail-open stance, because here a parse failure
must never admit a bad item.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from ._util import parse_yes_no
from .backends import BackendClient, BackendDescriptor
from .errors import ValidationError
from .graph import ConceptCombination

logger = logging.getLogger(__name__)

PROBLEM_ACCEPT_THRESHOLD = 0.85

SCORE_PROMPT = """TASK: score-problem
Relationship type: {kind}
Target concepts:
{concepts}

Problem:
{question}

Judge the problem on two axes: logical soundness (no mathematical errors,
genuinely about the target concepts) and presentation (clear, complete,
self-contained, no embedded hints or answers). Reply with a single number
between 0 and 1 on the last line.
"""

VOTE_PROMPT = """TASK: vote-solution
Problem:
{question}

Proposed solution:
{solution}

Is this solution mathematically correct and does it fully address every
part of the problem? Answer with a single word on the last line: YES or NO.
"""

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


@dataclass
class JudgePanel:
    """Weighted set of judge backends; weights are normalized internally."""

    judges: list[BackendDescriptor]

    def __post_init__(self) -> None:
        if not self.judges:
            raise ValidationError("a judge panel needs at least one judge")
        total = 0.0
        for judge in self.judges:
            if judge.role != "judge" or judge.judge_weight is None:
                raise ValidationError(
                    f"backend {judge.backend_id!r} is not a weighted judge"
                )
            total += judge.judge_weight
        if total <= 0:
            raise ValidationError("judge weights must not all be zero")

    @property
    def normalized_weights(self) -> dict[str, float]:
        total = sum(j.judge_weight for j in self.judges)
        return {j.backend_id: j.judge_weight / total for j in self.judges}


def parse_score(raw: str) -> float | None:
    """Last parseable number in the reply, clamped into [0, 1]."""
    matches = _NUMBER_RE.findall(raw)
    if not matches:
        return None
    value = float(matches[-1])
    return min(1.0, max(0.0, value))


def parse_vote(raw: str) -> int | None:
    verdict = parse_yes_no(raw)
    return None if verdict is None else int(verdict)


def score_problem(
    question: str,
    combination: ConceptCombination,
    concept_texts: Sequence[str],
    panel: JudgePanel,
    client: BackendClient,
) -> tuple[dict[str, float], set[str]]:
    """One clamped score per judge; unparseable judges score 0 and are
    returned in the review set."""
    if not question.strip():
        raise ValidationError("cannot score an empty question")
    prompt = SCORE_PROMPT.format(
        kind=combination.kind,
        concepts="\n".join(f"- {t}" for t in concept_texts),
        question=question,
    )
    scores: dict[str, float] = {}
    review: set[str] = set()
    for judge in panel.judges:
        score = parse_score(client.complete(judge, prompt))
        if score is None:
            logger.warning("judge %s reply unparseable; scoring 0", judge.backend_id)
            scores[judge.backend_id] = 0.0
            review.add(judge.backend_id)
        else:
            scores[judge.backend_id] = score
    return scores, review


def weighted_problem_verdict(
    scores: Mapping[str, float],
    panel: JudgePanel,
    threshold: float = PROBLEM_ACCEPT_THRESHOLD,
) -> tuple[float, bool]:
    """Weighted mean of the judges' scores and the accept decision.

    A score exactly at the threshold is accepted (only strictly lower
    scores are discarded).
    """
    weights = panel.normalized_weights
    missing = sorted(set(weights) - set(scores))
    if missing:
        raise ValidationError(f"scores missing for judges: {missing}")
    weighted = sum(weights[j] * scores[j] for j in weights)
    return weighted, weighted >= threshold


def vote_solution(
    question: str,
    solution: str,
    panel: JudgePanel,
    client: BackendClient,
) -> tuple[dict[str, int], set[str]]:
    """One binary vote per judge; unparseable replies vote 0 (veto-compatible)."""
    if not solution.strip():
        raise ValidationError("cannot vote on an empty solution")
    prompt = VOTE_PROMPT.format(question=question, solution=solution)
    votes: dict[str, int] = {}
    review: set[str] = set()
    for judge in panel.judges:
        vote = parse_vote(client.complete(judge, prompt))
        if vote is None:
            logger.warning("judge %s vote unparseable; voting 0", judge.backend_id)
            votes[judge.backend_id] = 0
            review.add(judge.backend_id)
        else:
            votes[judge.backend_id] = vote
    return votes, review


def veto_decision(votes: Mapping[str, int] | Sequence[int]) -> bool:
    """Accepted only on a unanimous positive vote; any 0 vetoes."""
    values = list(votes.values()) if isinstance(votes, Mapping) else list(votes)
    if not values:
        raise ValidationError("veto_decision requires at least one vote")
    return all(v == 1 for v in values)
