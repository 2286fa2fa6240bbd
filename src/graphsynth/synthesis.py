"""Combination-conditioned problem and solution generation.

Prompts are rendered from arity-matched templates that only ever see the
concept phrases, never any seed text, so generated problems cannot imitate
seed wording. Questions are deduplicated on a canonical hash (lowercase,
collapsed whitespace, trailing punctuation stripped); only exact-content
duplicates are removed, paraphrase-level similarity is a reported metric,
not a filter.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from ._util import canonicalize_question, content_hash
from .backends import BackendClient, BackendDescriptor
from .errors import ConfigurationError, ValidationError
from .graph import ConceptCombination
from .store import DIFFICULTY_LEVELS

logger = logging.getLogger(__name__)

_PLACEHOLDER_RE = re.compile(r"\{concept_(\d+)\}")

_TEMPLATE_FILES = {2: "pair.txt", 3: "triple.txt", 4: "quad.txt"}

_GENERATION_RULES = """Requirements:
1. Weave every listed concept into a single coherent scenario; do not split
   them into unrelated sub-questions.
2. State all conditions explicitly; the problem must be free of logical or
   mathematical errors and ambiguity.
3. Make it genuinely challenging, not a one-step exercise.
4. The setting may be abstract or applied, but it must read naturally; you
   may bring in auxiliary concepts if the problem needs them.
5. Keep the wording tight; no filler.
6. The problem must have a single well-defined answer or solution path.
7. Pick whatever answer format fits best (free response, proof,
   fill-in-the-blank, or multiple choice)."""

DEFAULT_TEMPLATE_BODIES = {
    2: (
        "TASK: write-problem\n"
        "Write one brand-new mathematics problem that genuinely requires both\n"
        "of these concepts:\n"
        "- {concept_1}\n"
        "- {concept_2}\n"
        + _GENERATION_RULES
        + "\nReply with the problem statement only.\n"
    ),
    3: (
        "TASK: write-problem\n"
        "Write one brand-new mathematics problem that genuinely requires all\n"
        "three of these concepts:\n"
        "- {concept_1}\n"
        "- {concept_2}\n"
        "- {concept_3}\n"
        + _GENERATION_RULES
        + "\nReply with the problem statement only.\n"
    ),
    4: (
        "TASK: write-problem\n"
        "Write one brand-new mathematics problem that genuinely requires all\n"
        "four of these concepts:\n"
        "- {concept_1}\n"
        "- {concept_2}\n"
        "- {concept_3}\n"
        "- {concept_4}\n"
        + _GENERATION_RULES
        + "\nReply with the problem statement only.\n"
    ),
}

RATE_PROMPT = """TASK: rate-difficulty
Problem:
{question}

Rate the overall difficulty of this problem for a strong student. Reply
with a single word on the last line: low, medium, or high.
"""

SOLVE_PROMPT = """TASK: solve
Problem:
{question}

Work the problem step by step and finish with the final answer.
"""


@dataclass
class PromptTemplate:
    """A generation template with numbered concept placeholders."""

    template_id: str
    body: str
    arity: int

    def __post_init__(self) -> None:
        if not 2 <= self.arity <= 4:
            raise ValidationError(f"template {self.template_id!r}: arity must be 2..4")
        found = {int(m) for m in _PLACEHOLDER_RE.findall(self.body)}
        expected = set(range(1, self.arity + 1))
        if found != expected:
            raise ValidationError(
                f"template {self.template_id!r}: placeholders {sorted(found)} do not "
                f"match arity {self.arity} (need exactly concept_1..concept_{self.arity})"
            )

    def render(self, concept_texts: list[str]) -> str:
        if len(concept_texts) != self.arity:
            raise ValidationError(
                f"template {self.template_id!r} needs {self.arity} concepts, "
                f"got {len(concept_texts)}"
            )
        # Only the placeholders are replaced, so any other brace in the body
        # (LaTeX, a set) stays literal, and so does a backslash in a concept.
        return _PLACEHOLDER_RE.sub(lambda m: concept_texts[int(m.group(1)) - 1], self.body)


def default_templates() -> dict[int, PromptTemplate]:
    return {
        arity: PromptTemplate(
            template_id=f"builtin-{_TEMPLATE_FILES[arity].removesuffix('.txt')}",
            body=body,
            arity=arity,
        )
        for arity, body in DEFAULT_TEMPLATE_BODIES.items()
    }


def load_templates(directory: str | Path | None) -> dict[int, PromptTemplate]:
    """Load templates from a directory (pair.txt / triple.txt / quad.txt),
    falling back to the built-ins for any missing arity."""
    templates = default_templates()
    if directory is None:
        return templates
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"templates directory {directory} does not exist")
    for arity, filename in _TEMPLATE_FILES.items():
        path = directory / filename
        if path.exists():
            templates[arity] = PromptTemplate(
                template_id=path.stem,
                body=path.read_text(encoding="utf-8"),
                arity=arity,
            )
    return templates


def render_prompt(
    combination: ConceptCombination,
    templates: Mapping[int, PromptTemplate],
    concept_texts_by_id: Mapping[str, str],
) -> str:
    """Substitute the combination's concept phrases into the arity-matched
    template. Only the phrases are injected; no corpus text can leak."""
    arity = len(combination.concept_ids)
    template = templates.get(arity)
    if template is None:
        raise ConfigurationError(f"no prompt template configured for arity {arity}")
    try:
        texts = [concept_texts_by_id[c] for c in combination.concept_ids]
    except KeyError as exc:
        raise ValidationError(f"combination references unknown concept id {exc}") from exc
    return template.render(texts)


class QuestionDeduper:
    """Tracks canonical question hashes; exact duplicates are dropped."""

    def __init__(self) -> None:
        self._seen: set[str] = set()
        self.dropped = 0

    @staticmethod
    def canonical_hash(question: str) -> str:
        return content_hash(canonicalize_question(question))[:16]

    def admit(self, question: str) -> bool:
        """True the first time a canonical form is seen; False (and counted)
        on every later duplicate."""
        key = self.canonical_hash(question)
        if key in self._seen:
            self.dropped += 1
            return False
        self._seen.add(key)
        return True


def generate_problem(
    combination: ConceptCombination,
    generator: BackendDescriptor,
    client: BackendClient,
    templates: Mapping[int, PromptTemplate],
    concept_texts_by_id: Mapping[str, str],
) -> str:
    """Generate one question for the combination; empty output raises."""
    prompt = render_prompt(combination, templates, concept_texts_by_id)
    question = client.complete(generator, prompt).strip()
    if not question:
        raise ValidationError(
            f"generator returned empty output for {combination.combo_id}"
        )
    return question


def rate_difficulty(
    question: str,
    rater: BackendDescriptor,
    client: BackendClient,
) -> str:
    """The last {low, medium, high} word of the rater's reply; anything
    unparseable defaults to high so the stronger solver handles it."""
    if not question.strip():
        raise ValidationError("cannot rate an empty question")
    output = client.complete(rater, RATE_PROMPT.format(question=question))
    for token in reversed(re.findall(r"[a-z]+", output.lower())):
        if token in DIFFICULTY_LEVELS:
            return token
    logger.warning("difficulty rating unparseable; defaulting to high")
    return "high"


def route_solver(level: str, solvers: Mapping[str, BackendDescriptor]) -> BackendDescriptor:
    """low and medium questions go to the small solver, high to the large one."""
    if level not in DIFFICULTY_LEVELS:
        raise ValidationError(f"unknown difficulty level {level!r}")
    role = "solver_large" if level == "high" else "solver_small"
    descriptor = solvers.get(role)
    if descriptor is None:
        raise ConfigurationError(f"no backend configured for role {role!r}")
    return descriptor


def generate_solution(
    question: str,
    solver: BackendDescriptor,
    client: BackendClient,
) -> str:
    """Produce a solution for an accepted question; empty output raises."""
    solution = client.complete(solver, SOLVE_PROMPT.format(question=question)).strip()
    if not solution:
        raise ValidationError("solver returned empty output")
    return solution
