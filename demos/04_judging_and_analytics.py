"""Judge-panel arithmetic and the dataset-level analytics, standalone.

Shows the weighted scoring rule with its 0.85 cutoff, the unanimous-vote
solution gate, per-sample cost under token and GPU pricing, and the
directional n-gram contamination check.
"""

from graphsynth.analytics import CostModel, NgramOverlap, cost_report, expansion_ratio
from graphsynth.backends import BackendDescriptor
from graphsynth.evaluation import (
    JudgePanel,
    veto_decision,
    weighted_problem_verdict,
)

panel = JudgePanel(judges=[
    BackendDescriptor("strong", "judge", "mock", "strong-math-model", judge_weight=0.5),
    BackendDescriptor("medium", "judge", "mock", "medium-math-model", judge_weight=0.3),
    BackendDescriptor("light", "judge", "mock", "light-math-model", judge_weight=0.2),
])
print("normalized judge weights:", panel.normalized_weights)

# Weighted mean with the default 0.85 acceptance threshold.
for scores in ({"strong": 1.0, "medium": 0.8, "light": 0.6},
               {"strong": 0.9, "medium": 0.8, "light": 0.7}):
    weighted, accepted = weighted_problem_verdict(scores, panel)
    print(f"scores={scores} -> weighted={weighted:.3f} accepted={accepted}")

# Solutions survive only a unanimous yes; one dissent vetoes.
print("votes (1,1,1) ->", veto_decision([1, 1, 1]))
print("votes (1,0,1) ->", veto_decision([1, 0, 1]))

# Scale: how far a seed corpus was expanded.
print("\nexpansion 7.5K -> 2.1M:", expansion_ratio(2_100_000, 7_500), "fold")

# Per-sample synthesis cost under the two pricing modes.
api = CostModel(mode="token_priced", input_price=10.0, output_price=30.0)
print("API-priced sample (1000 in / 400 out tokens):",
      cost_report(api, 1000, 400), "USD")
cluster = CostModel(mode="gpu_hourly", gpu_rate=0.42, gpu_count=8, hours=36,
                    sample_count=2_123_345)
print("GPU-priced sample:", f"{cost_report(cluster):.2e}", "USD")

# Contamination: which fraction of synthesized n-grams appears verbatim in a
# reference set (denominator is the synthesized side). The analyze stage
# feeds its synthesized questions to the accumulator one at a time.
reference = ["What is the smallest possible value of the product instead"]
overlap = NgramOverlap(reference, ns=[5, 8])
for question in ("What is the smallest possible value of the sum of two squares",
                 "Compute the area of a triangle with integer sides"):
    overlap.add(question)
report = overlap.report()
print("\nn-gram overlap:", report.per_n)
print("most frequent shared n-grams:", report.top_overlapping)
