from __future__ import annotations

import pytest

from conftest import make_descriptor
from graphsynth.backends import BackendClient, MockBehaviors, MockServer
from graphsynth.errors import ConfigurationError, ValidationError
from graphsynth.graph import ConceptCombination
from graphsynth.synthesis import (
    PromptTemplate,
    QuestionDeduper,
    default_templates,
    generate_problem,
    generate_solution,
    load_templates,
    rate_difficulty,
    render_prompt,
    route_solver,
)

CONCEPTS = {
    "kc-a": "Pythagorean theorem",
    "kc-b": "Perimeter of a triangle",
    "kc-c": "Arithmetic mean",
    "kc-d": "Modular arithmetic",
}


def combo(kind, ids):
    return ConceptCombination(kind=kind, concept_ids=ids, weight=1)


class TestPromptTemplate:
    def test_placeholders_must_match_arity(self):
        with pytest.raises(ValidationError):
            PromptTemplate("bad", "only {concept_1} here", arity=2)

    def test_extra_placeholder_rejected(self):
        with pytest.raises(ValidationError):
            PromptTemplate("bad", "{concept_1} {concept_2} {concept_3}", arity=2)

    def test_arity_out_of_range(self):
        with pytest.raises(ValidationError):
            PromptTemplate("bad", "{concept_1}", arity=1)

    def test_render_substitutes(self):
        t = PromptTemplate("ok", "use {concept_1} with {concept_2}", arity=2)
        assert t.render(["alpha", "beta"]) == "use alpha with beta"

    def test_render_keeps_other_braces_and_backslashes_literal(self):
        t = PromptTemplate("latex", r"take $\frac{1}{2}$ of {x, y}: {concept_2}, {concept_1}",
                           arity=2)
        assert t.render([r"\sum_{i} a_i", r"\1 group"]) == (
            r"take $\frac{1}{2}$ of {x, y}: \1 group, \sum_{i} a_i")

    def test_defaults_cover_all_arities(self):
        templates = default_templates()
        assert set(templates) == {2, 3, 4}

    def test_load_from_directory_overrides(self, tmp_path):
        (tmp_path / "pair.txt").write_text(
            "TASK: write-problem\ncustom {concept_1} + {concept_2}\n"
        )
        templates = load_templates(tmp_path)
        assert "custom" in templates[2].body
        assert templates[3].template_id.startswith("builtin")

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_templates(tmp_path / "nope")


class TestRenderPrompt:
    def test_pair_prompt_embeds_both_phrases_only(self):
        prompt = render_prompt(combo("one_hop", ["kc-a", "kc-b"]),
                               default_templates(), CONCEPTS)
        assert "Pythagorean theorem" in prompt
        assert "Perimeter of a triangle" in prompt
        assert "Arithmetic mean" not in prompt

    def test_community_of_three_uses_ternary_template(self):
        prompt = render_prompt(combo("community", ["kc-a", "kc-b", "kc-c"]),
                               default_templates(), CONCEPTS)
        assert "Arithmetic mean" in prompt

    def test_arity_without_template_rejected(self):
        templates = {2: default_templates()[2]}
        with pytest.raises(ConfigurationError, match="arity 3"):
            render_prompt(combo("community", ["kc-a", "kc-b", "kc-c"]),
                          templates, CONCEPTS)

    def test_unknown_concept_id_rejected(self):
        with pytest.raises(ValidationError):
            render_prompt(combo("one_hop", ["kc-a", "kc-zz"]),
                          default_templates(), CONCEPTS)


class TestGenerateProblem:
    def test_mock_question_embeds_concepts_deterministically(self, mock_client):
        generator = make_descriptor("generator")
        c = combo("one_hop", ["kc-a", "kc-b"])
        q1 = generate_problem(c, generator, mock_client, default_templates(), CONCEPTS)
        q2 = generate_problem(c, generator, mock_client, default_templates(), CONCEPTS)
        assert q1 == q2
        assert "Pythagorean theorem" in q1
        assert "Perimeter of a triangle" in q1

    def test_deduper_drops_second_occurrence(self):
        deduper = QuestionDeduper()
        assert deduper.admit("What is 2+2?") is True
        assert deduper.admit("what is  2+2") is False  # canonical duplicate
        assert deduper.dropped == 1
        assert deduper.admit("What is 3+3?") is True

    def test_generation_failure_surfaces(self, descriptors):
        behaviors = MockBehaviors(garbage_prompt_substrings=[])
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))

        class EmptyMock(MockServer):
            def _reply(self, model, prompt):
                return "   "

        client = BackendClient(mock=EmptyMock(seed=7))
        with pytest.raises(ValidationError, match="empty"):
            generate_problem(combo("one_hop", ["kc-a", "kc-b"]),
                             descriptors["generator"], client,
                             default_templates(), CONCEPTS)


class TestRateDifficulty:
    def test_fixed_medium(self, descriptors):
        behaviors = MockBehaviors(difficulty="medium")
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        assert rate_difficulty("Compute x.", descriptors["rater"], client) == "medium"

    def test_garbage_defaults_to_high(self, descriptors, caplog):
        behaviors = MockBehaviors(garbage_prompt_substrings=["Compute x."])
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        with caplog.at_level("WARNING"):
            level = rate_difficulty("Compute x.", descriptors["rater"], client)
        assert level == "high"
        assert any("default" in r.message for r in caplog.records)

    def test_empty_question_rejected(self, descriptors, mock_client):
        with pytest.raises(ValidationError):
            rate_difficulty("", descriptors["rater"], mock_client)


class TestRouteSolver:
    def solvers(self, descriptors):
        return {
            "solver_small": descriptors["solver_small"],
            "solver_large": descriptors["solver_large"],
        }

    @pytest.mark.parametrize("level,expected", [
        ("low", "solver_small"),
        ("medium", "solver_small"),
        ("high", "solver_large"),
    ])
    def test_routing_table(self, descriptors, level, expected):
        assert route_solver(level, self.solvers(descriptors)).backend_id == expected

    def test_missing_role_rejected(self, descriptors):
        with pytest.raises(ConfigurationError):
            route_solver("high", {"solver_small": descriptors["solver_small"]})

    def test_unknown_level_rejected(self, descriptors):
        with pytest.raises(ValidationError):
            route_solver("extreme", self.solvers(descriptors))


class TestGenerateSolution:
    def test_deterministic_nonempty(self, descriptors, mock_client):
        s1 = generate_solution("Find x.", descriptors["solver_small"], mock_client)
        s2 = generate_solution("Find x.", descriptors["solver_small"], mock_client)
        assert s1 == s2
        assert s1.strip()


class TestSeedLeakage:
    def test_prompts_never_contain_seed_text_windows(self, mock_client, descriptors):
        # Simulated seed questions; prompts must not reproduce any 15-token
        # window from them (they cannot: only concept phrases are injected).
        seed_questions = [
            "Given a right triangle with legs 3 and 4 compute the hypotenuse "
            "then add all side lengths to report the perimeter of the figure",
            "A sequence starts at 5 and each term doubles; find the smallest "
            "term exceeding one thousand and justify using logarithms",
        ]
        prompts = [
            render_prompt(combo("one_hop", ["kc-a", "kc-b"]), default_templates(), CONCEPTS),
            render_prompt(combo("community", ["kc-a", "kc-b", "kc-c"]),
                          default_templates(), CONCEPTS),
        ]
        for prompt in prompts:
            prompt_tokens = prompt.lower().split()
            prompt_joined = " ".join(prompt_tokens)
            for question in seed_questions:
                tokens = question.lower().split()
                for i in range(len(tokens) - 15 + 1):
                    window = " ".join(tokens[i:i + 15])
                    assert window not in prompt_joined
