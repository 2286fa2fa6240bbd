from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_descriptor
from graphsynth.backends import BackendClient, MockBehaviors, MockServer
from graphsynth.errors import ValidationError
from graphsynth.evaluation import (
    JudgePanel,
    parse_score,
    parse_vote,
    score_problem,
    veto_decision,
    vote_solution,
    weighted_problem_verdict,
)
from graphsynth.graph import ConceptCombination


def judge(backend_id, weight):
    return make_descriptor("judge", backend_id=backend_id, judge_weight=weight)


def panel_of(*weights):
    return JudgePanel(judges=[judge(f"j{i}", w) for i, w in enumerate(weights)])


COMBO = ConceptCombination("one_hop", ["kc-a", "kc-b"], weight=2)


class TestJudgePanel:
    def test_normalized_weights_sum_to_one(self):
        panel = panel_of(0.5, 0.3, 0.2)
        assert sum(panel.normalized_weights.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_panel_rejected(self):
        with pytest.raises(ValidationError):
            JudgePanel(judges=[])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValidationError):
            panel_of(0.0, 0.0)

    def test_non_judge_rejected(self):
        with pytest.raises(ValidationError):
            JudgePanel(judges=[make_descriptor("generator")])


class TestScoreProblem:
    def test_three_judges_pass_through(self):
        behaviors = MockBehaviors(problem_score=0.9)
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        panel = panel_of(1.0, 1.0, 1.0)
        scores, review = score_problem("Find x.", COMBO, ["a", "b"], panel, client)
        assert scores == {"j0": 0.9, "j1": 0.9, "j2": 0.9}
        assert review == set()

    def test_out_of_range_clamped(self):
        behaviors = MockBehaviors(problem_score=1.3)
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        scores, _ = score_problem("Find x.", COMBO, ["a"], panel_of(1.0), client)
        assert scores["j0"] == 1.0

    def test_garbage_scores_zero_with_flag(self):
        behaviors = MockBehaviors(garbage_prompt_substrings=["Find x."])
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        scores, review = score_problem("Find x.", COMBO, ["a"], panel_of(1.0), client)
        assert scores["j0"] == 0.0
        assert review == {"j0"}

    def test_empty_question_rejected(self, mock_client):
        with pytest.raises(ValidationError):
            score_problem("  ", COMBO, ["a"], panel_of(1.0), mock_client)


class TestParsing:
    @pytest.mark.parametrize("raw,expected", [
        ("0.85", 0.85),
        ("The score is\n0.7", 0.7),
        ("1.3", 1.0),
        ("-2", 0.0),
        ("nothing here", None),
    ])
    def test_parse_score(self, raw, expected):
        assert parse_score(raw) == expected

    @pytest.mark.parametrize("raw,expected", [
        ("YES", 1), ("no", 0), ("Final answer: YES", 1), ("hmm", None),
        ("Yes at first, but No", 0),
    ])
    def test_parse_vote(self, raw, expected):
        assert parse_vote(raw) == expected


class TestWeightedVerdict:
    def test_uniform_ones_accepted(self):
        panel = panel_of(1.0, 1.0, 1.0)
        weighted, accepted = weighted_problem_verdict(
            {"j0": 1.0, "j1": 1.0, "j2": 1.0}, panel)
        assert weighted == pytest.approx(1.0, abs=1e-12)
        assert accepted

    def test_hand_computed_mixture_accepted(self):
        # 0.5*1.0 + 0.3*0.8 + 0.2*0.6 = 0.86
        panel = panel_of(0.5, 0.3, 0.2)
        weighted, accepted = weighted_problem_verdict(
            {"j0": 1.0, "j1": 0.8, "j2": 0.6}, panel)
        assert weighted == pytest.approx(0.86, abs=1e-9)
        assert accepted

    def test_hand_computed_mixture_rejected(self):
        # (0.9 + 0.8 + 0.8) / 3 = 0.8333... < 0.85
        panel = panel_of(1.0, 1.0, 1.0)
        weighted, accepted = weighted_problem_verdict(
            {"j0": 0.9, "j1": 0.8, "j2": 0.8}, panel)
        assert weighted == pytest.approx(0.8333333333, abs=1e-9)
        assert not accepted

    def test_exactly_at_threshold_accepted(self):
        weighted, accepted = weighted_problem_verdict({"j0": 0.85}, panel_of(1.0))
        assert weighted == 0.85
        assert accepted

    def test_just_below_threshold_rejected(self):
        _, accepted = weighted_problem_verdict({"j0": 0.85 - 1e-9}, panel_of(1.0))
        assert not accepted

    def test_missing_judge_scores_rejected(self):
        with pytest.raises(ValidationError, match="j1"):
            weighted_problem_verdict({"j0": 1.0}, panel_of(0.5, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.floats(0.01, 10, allow_nan=False), min_size=1, max_size=5),
        scores=st.lists(st.floats(0, 1, allow_nan=False), min_size=5, max_size=5),
        bump_idx=st.integers(0, 4),
        bump=st.floats(0.0, 1.0),
        scale=st.floats(0.1, 100),
    )
    def test_monotonicity_and_scale_invariance(self, weights, scores, bump_idx, bump, scale):
        k = len(weights)
        panel = panel_of(*weights)
        score_map = {f"j{i}": scores[i] for i in range(k)}
        weighted, accepted = weighted_problem_verdict(score_map, panel)

        idx = bump_idx % k
        bumped = dict(score_map)
        bumped[f"j{idx}"] = min(1.0, bumped[f"j{idx}"] + bump)
        weighted_up, accepted_up = weighted_problem_verdict(bumped, panel)
        assert weighted_up >= weighted - 1e-12
        if accepted:
            assert accepted_up

        scaled_panel = panel_of(*[w * scale for w in weights])
        weighted_scaled, accepted_scaled = weighted_problem_verdict(score_map, scaled_panel)
        assert weighted_scaled == pytest.approx(weighted, abs=1e-9)
        assert accepted_scaled == accepted


class TestVoteSolution:
    def test_all_affirm(self):
        client = BackendClient(mock=MockServer(seed=7))
        votes, review = vote_solution("Q?", "S.", panel_of(1.0, 1.0, 1.0), client)
        assert votes == {"j0": 1, "j1": 1, "j2": 1}
        assert review == set()

    def test_garbage_votes_zero(self):
        behaviors = MockBehaviors(garbage_prompt_substrings=["S."])
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        votes, review = vote_solution("Q?", "S.", panel_of(1.0), client)
        assert votes == {"j0": 0}
        assert review == {"j0"}

    def test_empty_solution_rejected(self, mock_client):
        with pytest.raises(ValidationError):
            vote_solution("Q?", "", panel_of(1.0), mock_client)

    def test_configured_dissenter(self):
        behaviors = MockBehaviors(solution_vote_by_model={"mock-j1": 0})
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        votes, _ = vote_solution("Q?", "S.", panel_of(1.0, 1.0), client)
        assert votes == {"j0": 1, "j1": 0}


class TestVetoDecision:
    def test_unanimous_accepted(self):
        assert veto_decision([1, 1, 1]) is True

    def test_one_dissent_rejected(self):
        assert veto_decision([1, 1, 0]) is False

    def test_single_judge_unanimity(self):
        assert veto_decision([1]) is True

    def test_empty_votes_rejected(self):
        with pytest.raises(ValidationError):
            veto_decision([])

    def test_equivalent_to_min_and_sum_on_all_vectors(self):
        for k in range(1, 7):
            for votes in itertools.product((0, 1), repeat=k):
                expected = min(votes) == 1
                assert veto_decision(list(votes)) == expected
                assert veto_decision(list(votes)) == (sum(votes) == len(votes))


class TestScoreByKind:
    def test_mock_judges_score_by_combination_kind(self):
        behaviors = MockBehaviors(problem_score_by_kind={
            "one_hop": 0.94, "two_hop": 0.72, "three_hop": 0.62,
        })
        client = BackendClient(mock=MockServer(seed=7, behaviors=behaviors))
        panel = panel_of(0.5, 0.5)
        results = {}
        for kind in ("one_hop", "two_hop", "three_hop"):
            combo = ConceptCombination(kind, ["kc-a", "kc-b"], weight=1)
            scores, _ = score_problem("Find x.", combo, ["a", "b"], panel, client)
            weighted, _ = weighted_problem_verdict(scores, panel)
            results[kind] = weighted
        assert results["one_hop"] == pytest.approx(0.94)
        assert results["two_hop"] == pytest.approx(0.72)
        assert results["three_hop"] == pytest.approx(0.62)
        assert results["one_hop"] > results["two_hop"] > results["three_hop"]
