"""graphsynth: concept-graph driven synthesis of reasoning instruction data.

The package turns a small seed corpus of question/solution pairs into a
large synthesized dataset in four stages: knowledge-base extraction, a
weighted concept co-occurrence graph with multi-hop combination
enumeration, combination-conditioned generation, and weighted multi-judge
filtering. Everything runs offline against a deterministic mock backend or
online against any OpenAI-compatible endpoint.
"""

import os

# One BLAS thread unless the caller sets OPENBLAS_NUM_THREADS. The pipeline's
# parallelism is its runner's max_in_flight worker threads; an OpenBLAS pool
# on top of them only spins, at numpy's import and after each small cosine
# product. This must run before numpy is first imported, so it takes effect
# only when graphsynth is imported before numpy, as the CLI and perfbench's
# worker do.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytics import (
    AdherenceReport,
    CostModel,
    DecontaminationReport,
    SimilarityReport,
    adherence_probe,
    adherence_report,
    cost_report,
    expansion_ratio,
    ngram_overlap,
    novelty_rate,
    similarity_distribution,
)
from .backends import (
    BackendClient,
    BackendDescriptor,
    MockBehaviors,
    MockServer,
    RequestParams,
    run_bounded,
)
from .config import RunConfig, load_config, parse_config
from .evaluation import (
    JudgePanel,
    score_problem,
    veto_decision,
    vote_solution,
    weighted_problem_verdict,
)
from .extraction import (
    ConceptCluster,
    SimilarityVerdict,
    band_for_cosine,
    build_clusters,
    confirm_synonyms,
    extract_concepts,
    filter_low_quality,
    pairwise_similarity,
    pick_representative,
    select_representatives,
)
from .graph import (
    ConceptCombination,
    ConceptGraph,
    HubSet,
    build_graph,
    enumerate_communities,
    enumerate_one_hop,
    enumerate_three_hop,
    enumerate_two_hop,
    identify_hubs,
    pairs_at_distance,
    sample_combinations,
    select_combinations,
)
from .pipeline import PipelineRun, run_stage
from .store import (
    KeyConcept,
    SeedExample,
    SynthesizedItem,
    load_seed_corpus,
    read_checkpoint,
    select_resumable_work,
    write_checkpoint,
)
from .synthesis import (
    PromptTemplate,
    QuestionDeduper,
    generate_problem,
    generate_solution,
    load_templates,
    rate_difficulty,
    render_prompt,
    route_solver,
)

__version__ = "0.1.0"
